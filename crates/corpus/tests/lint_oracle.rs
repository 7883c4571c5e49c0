//! Oracle test for the slot-bitset lint facts.
//!
//! `analysis::lints` numbers each method's locals densely and runs its
//! dataflow problems over word bitsets.  The oracle below is the algorithm
//! it replaced — the same lints with `BTreeSet<String>` facts — and must
//! produce identical `MethodLints` on every corpus app, with and without
//! effect summaries, and on seeded generated method bodies.

use analysis::summaries::SQL_SINKS;
use analysis::{
    lint_method_with_summaries, solve, Cfg, DataflowProblem, Direction, LintFinding, MethodLints,
    ProgramSummaries, DEAD_ASSIGNMENT, SQL_TAINT, UNREACHABLE_CODE, UNUSED_VARIABLE,
    USE_BEFORE_DEF,
};
use ruby_syntax::{method_hash, Expr, ExprKind, LValue, MethodDef, Program};
use std::collections::{BTreeMap, BTreeSet};
use test_rng::Rng;

type Names = BTreeSet<String>;

// ---------------------------------------------------------------------------
// The oracle: string-set facts
// ---------------------------------------------------------------------------

trait NameSink {
    fn on_use(&mut self, _e: &Expr, _name: &str) {}
    fn on_def(&mut self, _e: &Expr, _name: &str) {}
}

fn shadowed(shadow: &[Vec<String>], name: &str) -> bool {
    shadow.iter().any(|frame| frame.iter().any(|p| p == name))
}

fn walk_names(e: &Expr, shadow: &mut Vec<Vec<String>>, sink: &mut dyn NameSink) {
    let walk_all = |exprs: &[Expr], shadow: &mut Vec<Vec<String>>, sink: &mut dyn NameSink| {
        for e in exprs {
            walk_names(e, shadow, sink);
        }
    };
    match &e.kind {
        ExprKind::Ident(n) if !shadowed(shadow, n) => sink.on_use(e, n),
        ExprKind::Ident(_) => {}
        ExprKind::Assign { target, value } => {
            match target {
                LValue::Index { recv, index } => {
                    walk_names(recv, shadow, sink);
                    walk_names(index, shadow, sink);
                }
                LValue::Attr { recv, .. } => walk_names(recv, shadow, sink),
                _ => {}
            }
            walk_names(value, shadow, sink);
            if let LValue::Local(n) = target {
                if !shadowed(shadow, n) {
                    sink.on_def(e, n);
                }
            }
        }
        ExprKind::OpAssign { target, op, value } => {
            match target {
                LValue::Local(n) if !shadowed(shadow, n) && op != "||" => sink.on_use(e, n),
                LValue::Index { recv, index } => {
                    walk_names(recv, shadow, sink);
                    walk_names(index, shadow, sink);
                }
                LValue::Attr { recv, .. } => walk_names(recv, shadow, sink),
                _ => {}
            }
            walk_names(value, shadow, sink);
            if let LValue::Local(n) = target {
                if !shadowed(shadow, n) {
                    sink.on_def(e, n);
                }
            }
        }
        ExprKind::Call { recv, args, block, .. } => {
            if let Some(r) = recv {
                walk_names(r, shadow, sink);
            }
            walk_all(args, shadow, sink);
            if let Some(b) = block {
                shadow.push(b.params.clone());
                walk_all(&b.body, shadow, sink);
                shadow.pop();
            }
        }
        ExprKind::Lambda(b) => {
            shadow.push(b.params.clone());
            walk_all(&b.body, shadow, sink);
            shadow.pop();
        }
        ExprKind::Array(items) => walk_all(items, shadow, sink),
        ExprKind::Hash(pairs) => {
            for (k, v) in pairs {
                walk_names(k, shadow, sink);
                walk_names(v, shadow, sink);
            }
        }
        ExprKind::BoolOp { lhs, rhs, .. } => {
            walk_names(lhs, shadow, sink);
            walk_names(rhs, shadow, sink);
        }
        ExprKind::Not(inner) => walk_names(inner, shadow, sink),
        ExprKind::If { arms, else_body } => {
            for arm in arms {
                walk_names(&arm.cond, shadow, sink);
                walk_all(&arm.body, shadow, sink);
            }
            walk_all(else_body, shadow, sink);
        }
        ExprKind::Case { subject, arms, else_body } => {
            walk_names(subject, shadow, sink);
            for arm in arms {
                walk_names(&arm.cond, shadow, sink);
                walk_all(&arm.body, shadow, sink);
            }
            walk_all(else_body, shadow, sink);
        }
        ExprKind::While { cond, body } => {
            walk_names(cond, shadow, sink);
            walk_all(body, shadow, sink);
        }
        ExprKind::Return(Some(v)) => walk_names(v, shadow, sink),
        ExprKind::Yield(args) => walk_all(args, shadow, sink),
        ExprKind::TypeCast { expr, .. } => walk_names(expr, shadow, sink),
        _ => {}
    }
}

fn assigned_locals(body: &[Expr]) -> BTreeMap<String, diagnostics::Span> {
    struct Defs(BTreeMap<String, diagnostics::Span>);
    impl NameSink for Defs {
        fn on_def(&mut self, e: &Expr, name: &str) {
            self.0.entry(name.to_string()).or_insert(e.span);
        }
    }
    let mut sink = Defs(BTreeMap::new());
    for stmt in body {
        walk_names(stmt, &mut Vec::new(), &mut sink);
    }
    sink.0
}

fn used_locals(body: &[Expr]) -> Names {
    struct Uses(Names);
    impl NameSink for Uses {
        fn on_use(&mut self, _e: &Expr, name: &str) {
            self.0.insert(name.to_string());
        }
    }
    let mut sink = Uses(Names::new());
    for stmt in body {
        walk_names(stmt, &mut Vec::new(), &mut sink);
    }
    sink.0
}

struct InsertDefs<'f>(&'f mut Names);
impl NameSink for InsertDefs<'_> {
    fn on_def(&mut self, _e: &Expr, name: &str) {
        self.0.insert(name.to_string());
    }
}

struct InsertUses<'f>(&'f mut Names);
impl NameSink for InsertUses<'_> {
    fn on_use(&mut self, _e: &Expr, name: &str) {
        self.0.insert(name.to_string());
    }
}

struct DefiniteAssign {
    universe: Names,
    params: Names,
}

impl<'a> DataflowProblem<'a> for DefiniteAssign {
    type Fact = Names;
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn boundary(&self) -> Names {
        self.params.clone()
    }
    fn top(&self) -> Names {
        self.universe.clone()
    }
    fn join(&self, into: &mut Names, from: &Names) {
        into.retain(|n| from.contains(n));
    }
    fn transfer(&self, stmt: &'a Expr, fact: &mut Names) {
        walk_names(stmt, &mut Vec::new(), &mut InsertDefs(fact));
    }
}

struct Liveness;

impl<'a> DataflowProblem<'a> for Liveness {
    type Fact = Names;
    fn direction(&self) -> Direction {
        Direction::Backward
    }
    fn boundary(&self) -> Names {
        Names::new()
    }
    fn top(&self) -> Names {
        Names::new()
    }
    fn join(&self, into: &mut Names, from: &Names) {
        into.extend(from.iter().cloned());
    }
    fn transfer(&self, stmt: &'a Expr, fact: &mut Names) {
        if let ExprKind::Assign { target: LValue::Local(n), value } = &stmt.kind {
            fact.remove(n);
            walk_names(value, &mut Vec::new(), &mut InsertUses(fact));
        } else {
            walk_names(stmt, &mut Vec::new(), &mut InsertUses(fact));
        }
    }
}

struct TaintWithParams<'s> {
    params: Names,
    summaries: Option<&'s ProgramSummaries>,
}

impl<'a> DataflowProblem<'a> for TaintWithParams<'_> {
    type Fact = Names;
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn boundary(&self) -> Names {
        self.params.clone()
    }
    fn top(&self) -> Names {
        Names::new()
    }
    fn join(&self, into: &mut Names, from: &Names) {
        into.extend(from.iter().cloned());
    }
    fn transfer(&self, stmt: &'a Expr, fact: &mut Names) {
        taint_eval(stmt, fact, &mut Vec::new(), self.summaries, &mut |_, _, _| {});
    }
}

fn taint_eval(
    e: &Expr,
    fact: &mut Names,
    shadow: &mut Vec<Vec<String>>,
    summaries: Option<&ProgramSummaries>,
    on_sink: &mut dyn FnMut(&Expr, usize, &Names),
) -> bool {
    match &e.kind {
        ExprKind::Ident(n) => !shadowed(shadow, n) && fact.contains(n),
        ExprKind::Array(items) => {
            let mut t = false;
            for item in items {
                t |= taint_eval(item, fact, shadow, summaries, on_sink);
            }
            t
        }
        ExprKind::Hash(pairs) => {
            let mut t = false;
            for (k, v) in pairs {
                t |= taint_eval(k, fact, shadow, summaries, on_sink);
                t |= taint_eval(v, fact, shadow, summaries, on_sink);
            }
            t
        }
        ExprKind::Assign { target, value } => {
            match target {
                LValue::Index { recv, index } => {
                    taint_eval(recv, fact, shadow, summaries, on_sink);
                    taint_eval(index, fact, shadow, summaries, on_sink);
                }
                LValue::Attr { recv, .. } => {
                    taint_eval(recv, fact, shadow, summaries, on_sink);
                }
                _ => {}
            }
            let t = taint_eval(value, fact, shadow, summaries, on_sink);
            if let LValue::Local(n) = target {
                if !shadowed(shadow, n) {
                    if t {
                        fact.insert(n.clone());
                    } else {
                        fact.remove(n);
                    }
                }
            }
            t
        }
        ExprKind::OpAssign { target, value, .. } => {
            let mut t = taint_eval(value, fact, shadow, summaries, on_sink);
            if let LValue::Local(n) = target {
                if !shadowed(shadow, n) {
                    t |= fact.contains(n);
                    if t {
                        fact.insert(n.clone());
                    }
                }
            }
            t
        }
        ExprKind::Call { recv, name, args, block } => {
            let recv_t =
                recv.as_ref().is_some_and(|r| taint_eval(r, fact, shadow, summaries, on_sink));
            let arg_t: Vec<bool> =
                args.iter().map(|a| taint_eval(a, fact, shadow, summaries, on_sink)).collect();
            if let Some(b) = block {
                shadow.push(b.params.clone());
                for stmt in &b.body {
                    taint_eval(stmt, fact, shadow, summaries, on_sink);
                }
                shadow.pop();
            }
            let mut sink_args = BTreeSet::new();
            if SQL_SINKS.contains(&name.as_str()) && !args.is_empty() {
                sink_args.insert(0usize);
            }
            let summary = summaries.and_then(|s| s.taint_for_name(name));
            if let Some(ts) = &summary {
                for &i in &ts.params_to_sink {
                    if i < args.len() {
                        sink_args.insert(i);
                    }
                }
            }
            for &i in &sink_args {
                on_sink(e, i, fact);
            }
            match &summary {
                // A summarized callee: taint flows to the result exactly
                // along the inferred return transfer.
                Some(ts) => {
                    ts.params_to_return.iter().any(|&i| arg_t.get(i).copied().unwrap_or(false))
                        || (ts.self_to_return && recv_t)
                }
                // Unknown callee: conservatively derive from every input.
                None => recv_t || arg_t.iter().any(|&t| t),
            }
        }
        ExprKind::BoolOp { lhs, rhs, .. } => {
            let l = taint_eval(lhs, fact, shadow, summaries, on_sink);
            let r = taint_eval(rhs, fact, shadow, summaries, on_sink);
            l || r
        }
        ExprKind::Not(inner) | ExprKind::TypeCast { expr: inner, .. } => {
            taint_eval(inner, fact, shadow, summaries, on_sink)
        }
        ExprKind::If { arms, else_body } => {
            let mut t = false;
            for arm in arms {
                taint_eval(&arm.cond, fact, shadow, summaries, on_sink);
                for stmt in &arm.body {
                    t |= taint_eval(stmt, fact, shadow, summaries, on_sink);
                }
            }
            for stmt in else_body {
                t |= taint_eval(stmt, fact, shadow, summaries, on_sink);
            }
            t
        }
        ExprKind::Case { subject, arms, else_body } => {
            taint_eval(subject, fact, shadow, summaries, on_sink);
            let mut t = false;
            for arm in arms {
                taint_eval(&arm.cond, fact, shadow, summaries, on_sink);
                for stmt in &arm.body {
                    t |= taint_eval(stmt, fact, shadow, summaries, on_sink);
                }
            }
            for stmt in else_body {
                t |= taint_eval(stmt, fact, shadow, summaries, on_sink);
            }
            t
        }
        ExprKind::While { cond, body } => {
            taint_eval(cond, fact, shadow, summaries, on_sink);
            for stmt in body {
                taint_eval(stmt, fact, shadow, summaries, on_sink);
            }
            false
        }
        ExprKind::Return(Some(v)) => {
            taint_eval(v, fact, shadow, summaries, on_sink);
            false
        }
        ExprKind::Yield(args) => {
            for arg in args {
                taint_eval(arg, fact, shadow, summaries, on_sink);
            }
            false
        }
        ExprKind::Lambda(b) => {
            shadow.push(b.params.clone());
            for stmt in &b.body {
                taint_eval(stmt, fact, shadow, summaries, on_sink);
            }
            shadow.pop();
            false
        }
        _ => false,
    }
}

fn concat_parts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let ExprKind::Call { recv: Some(r), name, args, block: None } = &e.kind {
        if name == "+" && args.len() == 1 {
            concat_parts(r, out);
            concat_parts(&args[0], out);
            return;
        }
    }
    out.push(e);
}

fn check_sql_sink(
    call: &Expr,
    arg: usize,
    fact: &Names,
    summaries: Option<&ProgramSummaries>,
    findings: &mut Vec<LintFinding>,
) {
    let ExprKind::Call { args, .. } = &call.kind else { return };
    let Some(frag_arg) = args.get(arg) else { return };
    let mut parts = Vec::new();
    concat_parts(frag_arg, &mut parts);
    if parts.len() < 2 {
        return;
    }
    let mut has_literal = false;
    let mut has_tainted = false;
    let mut fragment = String::new();
    for part in &parts {
        match &part.kind {
            ExprKind::Str(s) => {
                has_literal = true;
                fragment.push_str(s);
            }
            _ => {
                let mut scratch = fact.clone();
                has_tainted |=
                    taint_eval(part, &mut scratch, &mut Vec::new(), summaries, &mut |_, _, _| {});
                fragment.push('?');
            }
        }
    }
    if has_literal && has_tainted && sql_tc::parse_condition(&fragment).is_ok() {
        findings.push(LintFinding {
            code: SQL_TAINT.to_string(),
            message: "user-supplied value is interpolated into a SQL fragment".to_string(),
            label: format!("this concatenation builds the SQL condition `{fragment}`"),
            span: frag_arg.span,
        });
    }
}

fn finding(code: &str, message: String, label: &str, span: diagnostics::Span) -> LintFinding {
    LintFinding { code: code.to_string(), message, label: label.to_string(), span }
}

fn oracle_lint(owner: &str, def: &MethodDef, summaries: Option<&ProgramSummaries>) -> MethodLints {
    let mut lints = MethodLints {
        owner: owner.to_string(),
        name: def.name.clone(),
        singleton: def.singleton,
        semhash: method_hash(def),
        findings: Vec::new(),
    };
    if def.poisoned {
        return lints;
    }
    let cfg = Cfg::build(&def.body);
    let reachable = cfg.reachable();
    let findings = &mut lints.findings;
    let params: Names = def.params.iter().map(|p| p.name.clone()).collect();
    let assigned = assigned_locals(&def.body);
    let used = used_locals(&def.body);

    for (name, span) in &assigned {
        if !used.contains(name) && !params.contains(name) && !name.starts_with('_') {
            findings.push(finding(
                UNUSED_VARIABLE,
                format!("local variable `{name}` is never used"),
                "assigned here but never read",
                *span,
            ));
        }
    }

    {
        let mut universe: Names = assigned.keys().cloned().collect();
        universe.extend(params.iter().cloned());
        let sol = solve(&cfg, &DefiniteAssign { universe, params: params.clone() });
        struct Report<'x> {
            fact: Names,
            assigned: &'x BTreeMap<String, diagnostics::Span>,
            params: &'x Names,
            reported: Names,
            findings: Vec<LintFinding>,
        }
        impl NameSink for Report<'_> {
            fn on_use(&mut self, e: &Expr, name: &str) {
                if self.assigned.contains_key(name)
                    && !self.params.contains(name)
                    && !self.fact.contains(name)
                    && self.reported.insert(name.to_string())
                {
                    self.findings.push(finding(
                        USE_BEFORE_DEF,
                        format!("`{name}` may be used before it is assigned"),
                        "used here before any unconditional assignment",
                        e.span,
                    ));
                }
            }
            fn on_def(&mut self, _e: &Expr, name: &str) {
                self.fact.insert(name.to_string());
            }
        }
        let mut report = Report {
            fact: Names::new(),
            assigned: &assigned,
            params: &params,
            reported: Names::new(),
            findings: Vec::new(),
        };
        for (b, block) in cfg.blocks.iter().enumerate() {
            if !reachable[b] {
                continue;
            }
            report.fact = sol.block_in[b].clone();
            for stmt in &block.stmts {
                walk_names(stmt, &mut Vec::new(), &mut report);
            }
        }
        findings.append(&mut report.findings);
    }

    {
        let sol = solve(&cfg, &Liveness);
        let tail: Option<*const Expr> = def.body.last().map(|e| e as *const Expr);
        for (b, block) in cfg.blocks.iter().enumerate() {
            if !reachable[b] {
                continue;
            }
            let mut live = sol.block_out[b].clone();
            for stmt in block.stmts.iter().rev() {
                if let ExprKind::Assign { target: LValue::Local(n), value } = &stmt.kind {
                    if used.contains(n)
                        && !live.contains(n)
                        && !n.starts_with('_')
                        && Some(*stmt as *const Expr) != tail
                    {
                        findings.push(finding(
                            DEAD_ASSIGNMENT,
                            format!("value assigned to `{n}` is never read"),
                            "this value is overwritten or dropped before any read",
                            stmt.span,
                        ));
                    }
                    live.remove(n);
                    walk_names(value, &mut Vec::new(), &mut InsertUses(&mut live));
                } else {
                    walk_names(stmt, &mut Vec::new(), &mut InsertUses(&mut live));
                }
            }
        }
    }

    for (b, block) in cfg.blocks.iter().enumerate() {
        if reachable[b] || block.stmts.is_empty() {
            continue;
        }
        if block.preds.iter().all(|&p| reachable[p]) {
            findings.push(finding(
                UNREACHABLE_CODE,
                "unreachable code".to_string(),
                "this statement can never execute",
                block.stmts[0].span,
            ));
        }
    }

    let taint_seed: Names =
        def.params.iter().filter(|p| !p.block).map(|p| p.name.clone()).collect();
    if !taint_seed.is_empty() {
        let sol = solve(&cfg, &TaintWithParams { params: taint_seed, summaries });
        let mut sink_findings = Vec::new();
        for (b, block) in cfg.blocks.iter().enumerate() {
            if !reachable[b] {
                continue;
            }
            let mut fact = sol.block_in[b].clone();
            for stmt in &block.stmts {
                taint_eval(stmt, &mut fact, &mut Vec::new(), summaries, &mut |call, arg, fact| {
                    check_sql_sink(call, arg, fact, summaries, &mut sink_findings);
                });
            }
        }
        findings.append(&mut sink_findings);
    }

    findings.sort_by(|a, b| {
        (a.span.file, a.span.start, a.span.line, a.span.end, &a.code, &a.message).cmp(&(
            b.span.file,
            b.span.start,
            b.span.line,
            b.span.end,
            &b.code,
            &b.message,
        ))
    });
    lints
}

/// Asserts the bitset lints equal the oracle on every method of `program`;
/// returns how many findings they produced.
fn assert_matches_oracle(
    label: &str,
    program: &Program,
    summaries: Option<&ProgramSummaries>,
) -> usize {
    let mut findings = 0;
    for (owner, def) in program.methods() {
        let got = lint_method_with_summaries(&owner, def, summaries);
        let want = oracle_lint(&owner, def, summaries);
        assert_eq!(got, want, "{label}: {owner}#{} diverged from the string-set oracle", def.name);
        findings += got.findings.len();
    }
    findings
}

#[test]
fn bitset_lints_match_the_string_set_oracle_on_every_app() {
    let mut findings = 0;
    for app in corpus::apps::all() {
        let env = app.build_env();
        let (program, _, _) = app.parse();
        let summaries = corpus::effects_pass(&program, &corpus::seed_map(&env), 1);
        findings += assert_matches_oracle(app.name, &program, None);
        findings += assert_matches_oracle(app.name, &program, Some(&summaries));
    }
    assert!(findings >= 10, "the corpus exercises the lints: {findings} findings");
}

// ---------------------------------------------------------------------------
// Seeded generated method bodies
// ---------------------------------------------------------------------------

/// Method locals; `r` and `a` double as block parameters, `_t` is exempt
/// from the unused/dead lints.
const LOCALS: [&str; 6] = ["a", "b", "c", "r", "frag", "_t"];

struct Gen {
    rng: Rng,
}

impl Gen {
    fn pick<'s>(&mut self, xs: &[&'s str]) -> &'s str {
        xs[self.rng.below(xs.len() as u64) as usize]
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.rng.below(100) < percent
    }

    fn var(&mut self) -> &'static str {
        self.pick(&["a", "b", "c", "r", "frag", "_t", "q", "n"])
    }

    fn expr(&mut self) -> String {
        match self.rng.below(6) {
            0 => self.var().to_string(),
            1 => self.rng.below(10).to_string(),
            2 => format!("{} + 1", self.var()),
            3 => format!("'id = ' + {}", self.var()),
            4 => format!("apply_filter({})", self.var()),
            _ => format!("quote({})", self.var()),
        }
    }

    fn cond(&mut self) -> String {
        match self.rng.below(3) {
            0 => self.var().to_string(),
            1 => format!("{} > {}", self.var(), self.rng.below(5)),
            _ => format!("{} && {}", self.var(), self.var()),
        }
    }

    fn stmts(&mut self, out: &mut Vec<String>, indent: usize, depth: usize, in_loop: bool) {
        for _ in 0..1 + self.rng.below(4) {
            self.stmt(out, indent, depth, in_loop);
        }
    }

    fn stmt(&mut self, out: &mut Vec<String>, indent: usize, depth: usize, in_loop: bool) {
        let pad = " ".repeat(indent);
        let nested = depth > 0;
        match self.rng.below(15) {
            0..=2 => {
                let (v, e) = (self.pick(&LOCALS), self.expr());
                out.push(format!("{pad}{v} = {e}"));
            }
            3 => {
                let (v, e) = (self.pick(&LOCALS), self.expr());
                out.push(format!("{pad}{v} ||= {e}"));
            }
            4 => {
                let (v, e) = (self.pick(&LOCALS), self.expr());
                out.push(format!("{pad}{v} += {e}"));
            }
            5 if nested => {
                out.push(format!("{pad}if {}", self.cond()));
                self.stmts(out, indent + 2, depth - 1, in_loop);
                if self.chance(50) {
                    out.push(format!("{pad}elsif {}", self.cond()));
                    self.stmts(out, indent + 2, depth - 1, in_loop);
                }
                if self.chance(50) {
                    out.push(format!("{pad}else"));
                    self.stmts(out, indent + 2, depth - 1, in_loop);
                }
                out.push(format!("{pad}end"));
            }
            6 if nested => {
                out.push(format!("{pad}while {}", self.cond()));
                self.stmts(out, indent + 2, depth - 1, true);
                out.push(format!("{pad}end"));
            }
            7 if in_loop => {
                let (c, jump) = (self.cond(), self.pick(&["break", "next"]));
                let op = self.pick(&["&&", "||"]);
                out.push(format!("{pad}{c} {op} {jump}"));
            }
            8 if nested && self.chance(30) => {
                let e = self.expr();
                out.push(format!("{pad}return {e}"));
            }
            9 => {
                // A block whose parameter shadows a method local.
                let (bp, v, e) = (self.pick(&["r", "a"]), self.pick(&LOCALS), self.expr());
                out.push(format!("{pad}[1, 2].each {{ |{bp}| {v} = {bp} + {e} }}"));
            }
            10 => {
                let (frag, v) = (self.pick(&["frag", "b"]), self.var());
                out.push(format!("{pad}{frag} = 'title = ' + {v}"));
                out.push(format!("{pad}Topic.where({frag} + ' AND id = ' + {})", self.var()));
            }
            11 => {
                let v = self.var();
                out.push(format!("{pad}Topic.where('name = ' + {v})"));
            }
            12 => {
                let e = self.expr();
                out.push(format!("{pad}apply_filter({e})"));
            }
            13 => {
                let vs: Vec<&str> = (0..2 + self.rng.below(3)).map(|_| self.var()).collect();
                out.push(format!("{pad}{}", vs.join(" || ")));
            }
            _ => {
                let e = self.expr();
                out.push(format!("{pad}{e}"));
            }
        }
    }

    fn method(&mut self, name: &str) -> String {
        let mut body = Vec::new();
        self.stmts(&mut body, 2, 2, false);
        // The dense-schema tail: an `||` chain over the locals.
        if self.chance(60) {
            let vs: Vec<&str> = (0..2 + self.rng.below(4)).map(|_| self.var()).collect();
            body.push(format!("  {}", vs.join(" || ")));
        }
        format!("def self.{name}(q, n)\n{}\nend\n", body.join("\n"))
    }
}

/// Helper methods whose summaries route a parameter into a SQL sink and
/// drop or pass on their argument, so the summary-aware taint rules fire.
const HELPERS: &str = "def self.apply_filter(f)\n  Topic.where(f)\nend\n\
                       def self.quote(v)\n  'quoted'\nend\n";

#[test]
fn bitset_lints_match_the_string_set_oracle_on_generated_bodies() {
    let mut findings = 0;
    let mut codes = BTreeSet::new();
    for seed in 1..=60u64 {
        let mut gen = Gen { rng: Rng::new(seed) };
        let mut src = HELPERS.to_string();
        for m in 0..4 {
            src += &gen.method(&format!("m{m}"));
        }
        let program = ruby_syntax::parse_program_strict(&src)
            .unwrap_or_else(|e| panic!("seed {seed}: generated source must parse: {e:?}\n{src}"));
        let summaries = corpus::effects_pass(&program, &analysis::SeedMap::new(), 1);
        let label = format!("seed {seed}");
        findings += assert_matches_oracle(&label, &program, None);
        findings += assert_matches_oracle(&label, &program, Some(&summaries));
        for (owner, def) in program.methods() {
            for f in lint_method_with_summaries(&owner, def, Some(&summaries)).findings {
                codes.insert(f.code);
            }
        }
    }
    assert!(findings > 100, "the generator exercises the lints: {findings} findings");
    for code in [USE_BEFORE_DEF, UNUSED_VARIABLE, DEAD_ASSIGNMENT, UNREACHABLE_CODE, SQL_TAINT] {
        assert!(codes.contains(code), "no generated body triggered {code}: {codes:?}");
    }
}
