//! Pretty printer: renders AST nodes back to Ruby-subset source.
//!
//! The printer is used for error messages ("in the call `User.joins(:emails)`
//! ..."), for the dynamic-check rewriter's debug output, and by property tests
//! that check print→parse round-trips.

use crate::ast::*;

/// Renders a whole program.
pub fn print_program(prog: &Program) -> String {
    let mut out = String::new();
    for item in &prog.items {
        print_item(item, 0, &mut out);
    }
    out
}

/// Renders a single expression on one line.
pub fn print_expr(e: &Expr) -> String {
    let mut out = String::new();
    expr(e, &mut out);
    out
}

fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn print_item(item: &Item, level: usize, out: &mut String) {
    match item {
        Item::Class(c) => {
            indent(level, out);
            out.push_str("class ");
            out.push_str(&c.name);
            if let Some(sup) = &c.superclass {
                out.push_str(" < ");
                out.push_str(sup);
            }
            out.push('\n');
            for i in &c.body {
                print_item(i, level + 1, out);
            }
            indent(level, out);
            out.push_str("end\n");
        }
        Item::Method(m) => {
            indent(level, out);
            out.push_str("def ");
            if m.singleton {
                out.push_str("self.");
            }
            out.push_str(&m.name);
            out.push('(');
            for (i, p) in m.params.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                if p.block {
                    out.push('&');
                }
                out.push_str(&p.name);
                if let Some(d) = &p.default {
                    out.push_str(" = ");
                    expr(d, out);
                }
            }
            out.push_str(")\n");
            for e in &m.body {
                indent(level + 1, out);
                expr(e, out);
                out.push('\n');
            }
            indent(level, out);
            out.push_str("end\n");
        }
        Item::Expr(e) => {
            indent(level, out);
            expr(e, out);
            out.push('\n');
        }
    }
}

fn body_inline(body: &[Expr], out: &mut String) {
    for (i, e) in body.iter().enumerate() {
        if i > 0 {
            out.push_str("; ");
        }
        expr(e, out);
    }
}

fn lvalue(lv: &LValue, out: &mut String) {
    match lv {
        LValue::Local(n) => out.push_str(n),
        LValue::IVar(n) => {
            out.push('@');
            out.push_str(n);
        }
        LValue::GVar(n) => {
            out.push('$');
            out.push_str(n);
        }
        LValue::Const(n) => out.push_str(n),
        LValue::Index { recv, index } => {
            expr(recv, out);
            out.push('[');
            expr(index, out);
            out.push(']');
        }
        LValue::Attr { recv, name } => {
            expr(recv, out);
            out.push('.');
            out.push_str(name);
        }
    }
}

fn quote_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out.push('"');
}

fn expr(e: &Expr, out: &mut String) {
    match &e.kind {
        ExprKind::Nil => out.push_str("nil"),
        ExprKind::True => out.push_str("true"),
        ExprKind::False => out.push_str("false"),
        ExprKind::Int(i) => out.push_str(&i.to_string()),
        ExprKind::Float(f) => {
            let s = format!("{f}");
            out.push_str(&s);
            if !s.contains('.') && !s.contains('e') {
                out.push_str(".0");
            }
        }
        ExprKind::Str(s) => quote_str(s, out),
        ExprKind::Sym(s) => {
            out.push(':');
            out.push_str(s);
        }
        ExprKind::Array(items) => {
            out.push('[');
            for (i, x) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                expr(x, out);
            }
            out.push(']');
        }
        ExprKind::Hash(pairs) => {
            out.push_str("{ ");
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                expr(k, out);
                out.push_str(" => ");
                expr(v, out);
            }
            out.push_str(" }");
        }
        ExprKind::SelfExpr => out.push_str("self"),
        ExprKind::Ident(n) => out.push_str(n),
        ExprKind::IVar(n) => {
            out.push('@');
            out.push_str(n);
        }
        ExprKind::GVar(n) => {
            out.push('$');
            out.push_str(n);
        }
        ExprKind::Const(path) => out.push_str(&path.join("::")),
        ExprKind::Assign { target, value } => {
            lvalue(target, out);
            out.push_str(" = ");
            expr(value, out);
        }
        ExprKind::OpAssign { target, op, value } => {
            lvalue(target, out);
            out.push(' ');
            out.push_str(op);
            out.push_str("= ");
            expr(value, out);
        }
        ExprKind::Call { recv, name, args, block } => {
            const INFIX: &[&str] =
                &["+", "-", "*", "/", "%", "**", "==", "<", ">", "<=", ">=", "<=>", "<<"];
            if recv.is_some()
                && args.len() == 1
                && block.is_none()
                && INFIX.contains(&name.as_str())
            {
                out.push('(');
                expr(recv.as_ref().unwrap(), out);
                out.push(' ');
                out.push_str(name);
                out.push(' ');
                expr(&args[0], out);
                out.push(')');
            } else if name == "[]" && recv.is_some() {
                expr(recv.as_ref().unwrap(), out);
                out.push('[');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    expr(a, out);
                }
                out.push(']');
            } else {
                if let Some(r) = recv {
                    let needs_parens = matches!(
                        r.kind,
                        ExprKind::BoolOp { .. } | ExprKind::Not(_) | ExprKind::Assign { .. }
                    );
                    if needs_parens {
                        out.push('(');
                    }
                    expr(r, out);
                    if needs_parens {
                        out.push(')');
                    }
                    out.push('.');
                }
                out.push_str(name);
                if !args.is_empty() {
                    out.push('(');
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        expr(a, out);
                    }
                    out.push(')');
                } else if recv.is_none() && block.is_none() {
                    out.push_str("()");
                }
            }
            if let Some(b) = block {
                out.push_str(" { ");
                if !b.params.is_empty() {
                    out.push('|');
                    out.push_str(&b.params.join(", "));
                    out.push_str("| ");
                }
                body_inline(&b.body, out);
                out.push_str(" }");
            }
        }
        ExprKind::BoolOp { op, lhs, rhs } => {
            out.push('(');
            expr(lhs, out);
            out.push_str(match op {
                BinOp::And => " && ",
                BinOp::Or => " || ",
            });
            expr(rhs, out);
            out.push(')');
        }
        ExprKind::Not(inner) => {
            out.push_str("!(");
            expr(inner, out);
            out.push(')');
        }
        ExprKind::If { arms, else_body } => {
            for (i, arm) in arms.iter().enumerate() {
                out.push_str(if i == 0 { "if " } else { " elsif " });
                expr(&arm.cond, out);
                out.push_str(" then ");
                body_inline(&arm.body, out);
            }
            if !else_body.is_empty() {
                out.push_str(" else ");
                body_inline(else_body, out);
            }
            out.push_str(" end");
        }
        ExprKind::Case { subject, arms, else_body } => {
            out.push_str("case ");
            expr(subject, out);
            for arm in arms {
                out.push_str(" when ");
                expr(&arm.cond, out);
                out.push_str(" then ");
                body_inline(&arm.body, out);
            }
            if !else_body.is_empty() {
                out.push_str(" else ");
                body_inline(else_body, out);
            }
            out.push_str(" end");
        }
        ExprKind::While { cond, body } => {
            out.push_str("while ");
            expr(cond, out);
            out.push_str(" do ");
            body_inline(body, out);
            out.push_str(" end");
        }
        ExprKind::Return(v) => {
            out.push_str("return");
            if let Some(v) = v {
                out.push(' ');
                expr(v, out);
            }
        }
        ExprKind::Yield(args) => {
            out.push_str("yield");
            if !args.is_empty() {
                out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    expr(a, out);
                }
                out.push(')');
            }
        }
        ExprKind::Break => out.push_str("break"),
        ExprKind::Next => out.push_str("next"),
        ExprKind::Lambda(b) => {
            out.push_str("->(");
            out.push_str(&b.params.join(", "));
            out.push_str(") { ");
            body_inline(&b.body, out);
            out.push_str(" }");
        }
        ExprKind::TypeCast { expr: inner, ty } => {
            out.push_str("RDL.type_cast(");
            expr(inner, out);
            out.push_str(", ");
            quote_str(ty, out);
            out.push(')');
        }
        // An unparsable region: print a marker comment-call that cannot be
        // mistaken for user code.  It does not round-trip (the original
        // bytes are gone), which is fine — poisoned bodies are never
        // reprinted as input.
        ExprKind::Error => out.push_str("__syntax_error__"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_program_strict};

    #[test]
    fn prints_simple_expressions() {
        let e = parse_expr("page[:info].first").unwrap();
        assert_eq!(print_expr(&e), "page[:info].first");
        let e = parse_expr("User.joins(:emails)").unwrap();
        assert_eq!(print_expr(&e), "User.joins(:emails)");
    }

    #[test]
    fn printed_expression_reparses() {
        let sources = [
            "a = 1 + 2 * 3",
            "User.exists?({ username: name })",
            "if a then 1 else 2 end",
            "array.map { |x| x + 1 }",
            "x[0] = \"one\"",
            "while i < 3 do i = i + 1 end",
            "return a && !(b)",
            "{ :a => 1, :b => [2, 3] }",
        ];
        for src in sources {
            let e1 = parse_expr(src).unwrap();
            let printed = print_expr(&e1);
            let e2 = parse_expr(&printed).unwrap_or_else(|err| {
                panic!("reparse of {printed:?} failed: {err}");
            });
            assert_eq!(print_expr(&e2), printed, "printing not stable for {src}");
        }
    }

    /// `<<` is a left-associative call, binding tighter than comparison
    /// and looser than `+`; it prints infix and reparses to the same tree.
    #[test]
    fn shift_operator_parses_prints_and_reparses() {
        let e = parse_expr("a << b << c").unwrap();
        assert_eq!(print_expr(&e), "((a << b) << c)");
        let crate::ExprKind::Call { recv: Some(inner), name, .. } = &e.kind else {
            panic!("{e:?}")
        };
        assert_eq!(name, "<<");
        assert!(matches!(&inner.kind, crate::ExprKind::Call { name, .. } if name == "<<"));
        let reparsed = parse_expr(&print_expr(&e)).unwrap();
        assert_eq!(crate::expr_hash(&reparsed), crate::expr_hash(&e));
        assert_eq!(print_expr(&parse_expr("a << b + 1").unwrap()), "(a << (b + 1))");
        assert_eq!(print_expr(&parse_expr("a << b < c").unwrap()), "((a << b) < c)");
        assert_eq!(print_expr(&parse_expr("x = :<<").unwrap()), "x = :<<");

        let prog =
            parse_program_strict("class Log\n  def <<(line)\n    line\n  end\nend\n").unwrap();
        let printed = print_program(&prog);
        assert!(printed.contains("def <<(line)"), "{printed}");
        let reparsed = parse_program_strict(&printed).unwrap();
        assert_eq!(print_program(&reparsed), printed);
        assert!(reparsed.find_method("Log", "<<").is_some());
    }

    #[test]
    fn prints_program_structure() {
        let prog = parse_program_strict("class A < B\n def m(x)\n x\n end\nend\n").unwrap();
        let printed = print_program(&prog);
        assert!(printed.contains("class A < B"));
        assert!(printed.contains("def m(x)"));
        let reparsed = parse_program_strict(&printed).unwrap();
        assert_eq!(reparsed.classes()[0].name, "A");
    }

    #[test]
    fn error_nodes_print_as_a_marker() {
        use crate::ast::{Expr, ExprKind};
        use crate::span::Span;
        let e = Expr::new(ExprKind::Error, Span::new(0, 0, 1));
        assert_eq!(print_expr(&e), "__syntax_error__");
    }
}
