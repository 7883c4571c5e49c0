//! The `LINT01xx` lint suite: flow-sensitive warnings over per-method CFGs.
//!
//! | code       | finding                                                    |
//! |------------|------------------------------------------------------------|
//! | `LINT0101` | use before definition (definite assignment, forward must)  |
//! | `LINT0102` | local variable assigned but never used                     |
//! | `LINT0103` | dead assignment (liveness, backward may)                   |
//! | `LINT0104` | unreachable code after `return`/`raise`/`break`/`next`     |
//! | `LINT0105` | parameter-derived value concatenated into a SQL fragment   |
//!
//! Each linted method numbers its locals densely once (parameters, then
//! every name the body reads or assigns, in one walk), and the dataflow
//! facts are word bitsets over those slots: a join is a word-wise `&` or
//! `|`, and a transfer sets bits without allocating.  The bitsets hold any
//! number of locals.
//!
//! Every lint is deterministic: blocks are scanned in id order, and
//! findings are sorted with the same span-then-code key as
//! [`diagnostics::DiagnosticBag::sort_by_span_then_code`], so a sequential
//! and a parallel run render byte-identical output.  Findings
//! carry the method's [`semhash`](ruby_syntax::method_hash) so the corpus
//! pipeline can freeze them into the on-disk check cache and replay them
//! without re-linting (see `comprdl::persist`).
//!
//! `LINT0105` is optionally *interprocedural*: given the program's
//! [effect summaries](crate::summaries::ProgramSummaries), a call to a
//! method whose summary says "parameter *i* flows into a SQL sink" is
//! itself treated as a sink for argument *i*, and a call's result is
//! tainted exactly when the summary's return transfer says so (instead of
//! the conservative any-argument rule used for unknown callees).  Because
//! findings then depend on *callee* bodies, the corpus pipeline keys
//! persisted lint verdicts on the dependency-closure Merkle hash rather
//! than the intra-method `semhash`.
//!
//! Locals spelled with a leading underscore (`_tmp`) are the conventional
//! "intentionally unused" form and are exempt from `LINT0102`/`LINT0103`.

use crate::cfg::Cfg;
use crate::dataflow::{solve, DataflowProblem, Direction};
use crate::summaries::ProgramSummaries;
use diagnostics::{Diagnostic, Span};
use ruby_syntax::{method_hash, Expr, ExprKind, LValue, MethodDef, Program};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Use before definition.
pub const USE_BEFORE_DEF: &str = "LINT0101";
/// Unused variable.
pub const UNUSED_VARIABLE: &str = "LINT0102";
/// Dead assignment.
pub const DEAD_ASSIGNMENT: &str = "LINT0103";
/// Unreachable code.
pub const UNREACHABLE_CODE: &str = "LINT0104";
/// SQL interpolation taint.
pub const SQL_TAINT: &str = "LINT0105";

/// Method names treated as SQL sinks for `LINT0105` (their first argument
/// is parsed as a SQL condition fragment) — shared with the summary
/// inference so both ends agree on what a sink is.
use crate::summaries::SQL_SINKS;

/// One lint finding within a method, prior to diagnostic rendering.
///
/// The fields are exactly what the persisted check cache freezes; the
/// `= note:` line of the rendered diagnostic is derived from the code (see
/// [`note_for`]) so replayed findings render byte-identically without
/// storing the note.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Stable `LINT01xx` code.
    pub code: String,
    /// Headline message.
    pub message: String,
    /// The primary label's text.
    pub label: String,
    /// The primary label's span (always inside the method).
    pub span: Span,
}

/// All findings for one method, keyed by its semantic identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodLints {
    /// Enclosing class (`"Object"` for top-level methods).
    pub owner: String,
    /// Method name.
    pub name: String,
    /// Whether it is a `def self.` method.
    pub singleton: bool,
    /// The method's layout-invariant semantic hash.
    pub semhash: u64,
    /// Findings in canonical span-then-code order.
    pub findings: Vec<LintFinding>,
}

/// The `= note:` line attached to each lint code's diagnostics.
pub fn note_for(code: &str) -> &'static str {
    match code {
        USE_BEFORE_DEF => "the variable is only assigned on some of the paths that reach this use",
        UNUSED_VARIABLE => "remove the assignment or read the value",
        DEAD_ASSIGNMENT => "the right-hand side still runs; only the stored value is never read",
        UNREACHABLE_CODE => {
            "every path to this statement ends in `return`, `raise`, `break` or `next`"
        }
        SQL_TAINT => "bind the value as a `?` placeholder instead of concatenating it into the SQL",
        _ => "",
    }
}

impl From<&LintFinding> for Diagnostic {
    fn from(f: &LintFinding) -> Diagnostic {
        let mut d = Diagnostic::warning(&f.code, &f.message).with_label(f.span, &f.label);
        let note = note_for(&f.code);
        if !note.is_empty() {
            d = d.with_note(note);
        }
        d
    }
}

impl From<LintFinding> for Diagnostic {
    fn from(f: LintFinding) -> Diagnostic {
        Diagnostic::from(&f)
    }
}

// ---------------------------------------------------------------------------
// Slot bitsets
// ---------------------------------------------------------------------------

/// A set of one method's local slots (see [`Locals`]): one bit per slot,
/// 64 to a word, for any number of locals.  A name without a slot is never
/// in the set: `contains` is false, and `insert`/`remove` do nothing.
#[derive(Debug, PartialEq, Eq)]
struct Slots(Vec<u64>);

#[cfg(test)]
thread_local! {
    /// Fact words copied (by the dataflow solver and the scans) on this
    /// thread, for the linear-work tests.
    static WORDS_COPIED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Clone for Slots {
    fn clone(&self) -> Slots {
        #[cfg(test)]
        WORDS_COPIED.with(|c| c.set(c.get() + self.0.len()));
        Slots(self.0.clone())
    }

    fn clone_from(&mut self, source: &Slots) {
        #[cfg(test)]
        WORDS_COPIED.with(|c| c.set(c.get() + source.0.len()));
        self.0.clone_from(&source.0);
    }
}

impl Slots {
    /// The empty set over `len` slots.
    fn empty(len: usize) -> Slots {
        Slots(vec![0; len.div_ceil(64)])
    }

    fn contains(&self, slot: Option<usize>) -> bool {
        slot.is_some_and(|s| self.0[s / 64] & (1 << (s % 64)) != 0)
    }

    /// Adds `slot`; returns whether it was not already present.
    fn insert(&mut self, slot: Option<usize>) -> bool {
        let Some(s) = slot else { return false };
        let word = &mut self.0[s / 64];
        let fresh = *word & (1 << (s % 64)) == 0;
        *word |= 1 << (s % 64);
        fresh
    }

    fn remove(&mut self, slot: Option<usize>) {
        if let Some(s) = slot {
            self.0[s / 64] &= !(1 << (s % 64));
        }
    }

    fn intersect_with(&mut self, other: &Slots) {
        for (w, o) in self.0.iter_mut().zip(&other.0) {
            *w &= o;
        }
    }

    fn union_with(&mut self, other: &Slots) {
        for (w, o) in self.0.iter_mut().zip(&other.0) {
            *w |= o;
        }
    }
}

// ---------------------------------------------------------------------------
// Name walking with block-parameter shadowing
// ---------------------------------------------------------------------------

/// Receives local-variable uses and definitions during an in-order walk.
trait NameSink<'a> {
    fn on_use(&mut self, _e: &'a Expr, _name: &'a str) {}
    fn on_def(&mut self, _e: &'a Expr, _name: &'a str) {}
    /// A read or assignment of a name a block parameter shadows here.  The
    /// slot map numbers these too, because the sink scan re-evaluates
    /// sub-expressions of a block body without its shadowing.
    fn on_shadowed(&mut self, _name: &'a str) {}
}

fn shadowed(shadow: &[&[String]], name: &str) -> bool {
    shadow.iter().any(|frame| frame.iter().any(|p| p == name))
}

/// Walks one statement in evaluation order, reporting local uses and
/// (optimistically, including nested ones) local definitions.  Block and
/// lambda parameters shadow method locals of the same name for the
/// duration of their body.
fn walk_names<'a>(e: &'a Expr, shadow: &mut Vec<&'a [String]>, sink: &mut dyn NameSink<'a>) {
    let walk_all =
        |exprs: &'a [Expr], shadow: &mut Vec<&'a [String]>, sink: &mut dyn NameSink<'a>| {
            for e in exprs {
                walk_names(e, shadow, sink);
            }
        };
    // A local assignment target: a definition unless shadowed.
    let def = |target: &'a LValue, shadow: &[&[String]], sink: &mut dyn NameSink<'a>| {
        if let LValue::Local(n) = target {
            if shadowed(shadow, n) {
                sink.on_shadowed(n);
            } else {
                sink.on_def(e, n);
            }
        }
    };
    match &e.kind {
        ExprKind::Ident(n) if !shadowed(shadow, n) => sink.on_use(e, n),
        ExprKind::Ident(n) => sink.on_shadowed(n),
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
            def(target, shadow, sink);
        }
        ExprKind::OpAssign { target, op, value } => {
            match target {
                // `x ||= v` is a definition even when `x` was never
                // assigned (the nil-guard idiom), so only the arithmetic
                // forms count as a prior use.
                LValue::Local(n) if !shadowed(shadow, n) && op != "||" => {
                    sink.on_use(e, n);
                }
                LValue::Index { recv, index } => {
                    walk_names(recv, shadow, sink);
                    walk_names(index, shadow, sink);
                }
                LValue::Attr { recv, .. } => walk_names(recv, shadow, sink),
                _ => {}
            }
            walk_names(value, shadow, sink);
            def(target, shadow, sink);
        }
        ExprKind::Call { recv, args, block, .. } => {
            if let Some(r) = recv {
                walk_names(r, shadow, sink);
            }
            walk_all(args, shadow, sink);
            if let Some(b) = block {
                shadow.push(&b.params);
                walk_all(&b.body, shadow, sink);
                shadow.pop();
            }
        }
        ExprKind::Lambda(b) => {
            shadow.push(&b.params);
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

/// One method's locals, numbered densely: the parameters first, then every
/// name the body reads or assigns as a local (shadowed or not), in walk
/// order.  Built in one walk of the body, together with the span of each
/// local's first assignment and whether the body reads it.
struct Locals<'a> {
    slots: HashMap<&'a str, usize>,
    names: Vec<&'a str>,
    /// The span of each slot's first unshadowed assignment, if any.
    first_def: Vec<Option<Span>>,
    /// Whether the body reads each slot unshadowed.
    read: Vec<bool>,
}

impl<'a> Locals<'a> {
    fn collect(def: &'a MethodDef) -> Locals<'a> {
        let mut locals = Locals {
            slots: HashMap::new(),
            names: Vec::new(),
            first_def: Vec::new(),
            read: Vec::new(),
        };
        for p in &def.params {
            locals.intern(&p.name);
        }
        for stmt in &def.body {
            walk_names(stmt, &mut Vec::new(), &mut locals);
        }
        locals
    }

    fn intern(&mut self, name: &'a str) -> usize {
        if let Some(&s) = self.slots.get(name) {
            return s;
        }
        let s = self.names.len();
        self.slots.insert(name, s);
        self.names.push(name);
        self.first_def.push(None);
        self.read.push(false);
        s
    }

    fn slot(&self, name: &str) -> Option<usize> {
        self.slots.get(name).copied()
    }

    fn empty(&self) -> Slots {
        Slots::empty(self.names.len())
    }

    /// The set of the given names' slots.
    fn set_of<'n>(&self, names: impl IntoIterator<Item = &'n str>) -> Slots {
        let mut set = self.empty();
        for name in names {
            set.insert(self.slot(name));
        }
        set
    }
}

impl<'a> NameSink<'a> for Locals<'a> {
    fn on_use(&mut self, _e: &'a Expr, name: &'a str) {
        let s = self.intern(name);
        self.read[s] = true;
    }
    fn on_def(&mut self, e: &'a Expr, name: &'a str) {
        let s = self.intern(name);
        self.first_def[s].get_or_insert(e.span);
    }
    fn on_shadowed(&mut self, name: &'a str) {
        self.intern(name);
    }
}

/// Adds every local definition (`defs`) or use (`!defs`) to `fact`.
struct Mark<'l, 'a, 'f> {
    locals: &'l Locals<'a>,
    fact: &'f mut Slots,
    defs: bool,
}

impl<'a> NameSink<'a> for Mark<'_, 'a, '_> {
    fn on_use(&mut self, _e: &'a Expr, name: &'a str) {
        if !self.defs {
            self.fact.insert(self.locals.slot(name));
        }
    }
    fn on_def(&mut self, _e: &'a Expr, name: &'a str) {
        if self.defs {
            self.fact.insert(self.locals.slot(name));
        }
    }
}

fn mark_defs<'a>(locals: &Locals<'a>, stmt: &'a Expr, fact: &mut Slots) {
    walk_names(stmt, &mut Vec::new(), &mut Mark { locals, fact, defs: true });
}

fn mark_uses<'a>(locals: &Locals<'a>, stmt: &'a Expr, fact: &mut Slots) {
    walk_names(stmt, &mut Vec::new(), &mut Mark { locals, fact, defs: false });
}

// ---------------------------------------------------------------------------
// LINT0101: definite assignment (forward must-analysis)
// ---------------------------------------------------------------------------

struct DefiniteAssign<'l, 'a> {
    locals: &'l Locals<'a>,
    universe: Slots,
    params: Slots,
}

impl<'a> DataflowProblem<'a> for DefiniteAssign<'_, 'a> {
    type Fact = Slots;
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn boundary(&self) -> Slots {
        self.params.clone()
    }
    fn top(&self) -> Slots {
        self.universe.clone()
    }
    fn join(&self, into: &mut Slots, from: &Slots) {
        into.intersect_with(from);
    }
    fn transfer(&self, stmt: &'a Expr, fact: &mut Slots) {
        mark_defs(self.locals, stmt, fact);
    }
}

// ---------------------------------------------------------------------------
// LINT0103: liveness (backward may-analysis)
// ---------------------------------------------------------------------------

struct Liveness<'l, 'a> {
    locals: &'l Locals<'a>,
}

impl<'a> DataflowProblem<'a> for Liveness<'_, 'a> {
    type Fact = Slots;
    fn direction(&self) -> Direction {
        Direction::Backward
    }
    fn boundary(&self) -> Slots {
        self.locals.empty()
    }
    fn top(&self) -> Slots {
        self.locals.empty()
    }
    fn join(&self, into: &mut Slots, from: &Slots) {
        into.union_with(from);
    }
    fn transfer(&self, stmt: &'a Expr, fact: &mut Slots) {
        // Only a statement-position `x = v` kills `x`; nested assignments
        // conservatively leave liveness alone.
        if let ExprKind::Assign { target: LValue::Local(n), value } = &stmt.kind {
            fact.remove(self.locals.slot(n));
            mark_uses(self.locals, value, fact);
        } else {
            mark_uses(self.locals, stmt, fact);
        }
    }
}

// ---------------------------------------------------------------------------
// LINT0105: SQL interpolation taint (forward may-analysis)
// ---------------------------------------------------------------------------

/// What taint evaluation reads besides the fact itself.
#[derive(Clone, Copy)]
struct TaintCtx<'s, 'a> {
    locals: &'s Locals<'a>,
    summaries: Option<&'s ProgramSummaries>,
}

struct TaintWithParams<'s, 'a> {
    cx: TaintCtx<'s, 'a>,
    params: Slots,
}

impl<'a> DataflowProblem<'a> for TaintWithParams<'_, 'a> {
    type Fact = Slots;
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn boundary(&self) -> Slots {
        self.params.clone()
    }
    fn top(&self) -> Slots {
        self.cx.locals.empty()
    }
    fn join(&self, into: &mut Slots, from: &Slots) {
        into.union_with(from);
    }
    fn transfer(&self, stmt: &'a Expr, fact: &mut Slots) {
        taint_eval(stmt, fact, &mut Vec::new(), self.cx, &mut |_, _, _| {});
    }
}

/// Evaluates `e` for taint: returns whether its value is derived from a
/// tainted name, updates `fact` across assignments, and invokes
/// `on_sink(call, arg_index, fact)` on every sink argument — the first
/// argument of a literal SQL-sink call, plus (when summaries are supplied)
/// every argument a callee's summary routes into a sink.
fn taint_eval<'a>(
    e: &'a Expr,
    fact: &mut Slots,
    shadow: &mut Vec<&'a [String]>,
    cx: TaintCtx<'_, 'a>,
    on_sink: &mut dyn FnMut(&'a Expr, usize, &Slots),
) -> bool {
    match &e.kind {
        ExprKind::Ident(n) => !shadowed(shadow, n) && fact.contains(cx.locals.slot(n)),
        ExprKind::Array(items) => {
            let mut t = false;
            for item in items {
                t |= taint_eval(item, fact, shadow, cx, on_sink);
            }
            t
        }
        ExprKind::Hash(pairs) => {
            let mut t = false;
            for (k, v) in pairs {
                t |= taint_eval(k, fact, shadow, cx, on_sink);
                t |= taint_eval(v, fact, shadow, cx, on_sink);
            }
            t
        }
        ExprKind::Assign { target, value } => {
            match target {
                LValue::Index { recv, index } => {
                    taint_eval(recv, fact, shadow, cx, on_sink);
                    taint_eval(index, fact, shadow, cx, on_sink);
                }
                LValue::Attr { recv, .. } => {
                    taint_eval(recv, fact, shadow, cx, on_sink);
                }
                _ => {}
            }
            let t = taint_eval(value, fact, shadow, cx, on_sink);
            if let LValue::Local(n) = target {
                if !shadowed(shadow, n) {
                    if t {
                        fact.insert(cx.locals.slot(n));
                    } else {
                        fact.remove(cx.locals.slot(n));
                    }
                }
            }
            t
        }
        ExprKind::OpAssign { target, value, .. } => {
            let mut t = taint_eval(value, fact, shadow, cx, on_sink);
            if let LValue::Local(n) = target {
                if !shadowed(shadow, n) {
                    let slot = cx.locals.slot(n);
                    t |= fact.contains(slot);
                    if t {
                        fact.insert(slot);
                    }
                }
            }
            t
        }
        ExprKind::Call { recv, name, args, block } => {
            let recv_t = recv.as_ref().is_some_and(|r| taint_eval(r, fact, shadow, cx, on_sink));
            let arg_t: Vec<bool> =
                args.iter().map(|a| taint_eval(a, fact, shadow, cx, on_sink)).collect();
            if let Some(b) = block {
                shadow.push(&b.params);
                for stmt in &b.body {
                    taint_eval(stmt, fact, shadow, cx, on_sink);
                }
                shadow.pop();
            }
            // Sink positions: argument 0 of a literal SQL sink, plus every
            // argument the callee's taint summary routes into a sink.
            let mut sink_args = BTreeSet::new();
            if SQL_SINKS.contains(&name.as_str()) && !args.is_empty() {
                sink_args.insert(0usize);
            }
            let summary = cx.summaries.and_then(|s| s.taint_for_name(name));
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
            let l = taint_eval(lhs, fact, shadow, cx, on_sink);
            let r = taint_eval(rhs, fact, shadow, cx, on_sink);
            l || r
        }
        ExprKind::Not(inner) | ExprKind::TypeCast { expr: inner, .. } => {
            taint_eval(inner, fact, shadow, cx, on_sink)
        }
        ExprKind::If { arms, else_body } => {
            let mut t = false;
            for arm in arms {
                taint_eval(&arm.cond, fact, shadow, cx, on_sink);
                for stmt in &arm.body {
                    t |= taint_eval(stmt, fact, shadow, cx, on_sink);
                }
            }
            for stmt in else_body {
                t |= taint_eval(stmt, fact, shadow, cx, on_sink);
            }
            t
        }
        ExprKind::Case { subject, arms, else_body } => {
            taint_eval(subject, fact, shadow, cx, on_sink);
            let mut t = false;
            for arm in arms {
                taint_eval(&arm.cond, fact, shadow, cx, on_sink);
                for stmt in &arm.body {
                    t |= taint_eval(stmt, fact, shadow, cx, on_sink);
                }
            }
            for stmt in else_body {
                t |= taint_eval(stmt, fact, shadow, cx, on_sink);
            }
            t
        }
        ExprKind::While { cond, body } => {
            taint_eval(cond, fact, shadow, cx, on_sink);
            for stmt in body {
                taint_eval(stmt, fact, shadow, cx, on_sink);
            }
            false
        }
        ExprKind::Return(Some(v)) => {
            taint_eval(v, fact, shadow, cx, on_sink);
            false
        }
        ExprKind::Yield(args) => {
            for arg in args {
                taint_eval(arg, fact, shadow, cx, on_sink);
            }
            false
        }
        ExprKind::Lambda(b) => {
            shadow.push(&b.params);
            for stmt in &b.body {
                taint_eval(stmt, fact, shadow, cx, on_sink);
            }
            shadow.pop();
            false
        }
        _ => false,
    }
}

/// Flattens a `+` concatenation chain into its leaf operands.
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

/// Whether `e`'s value derives from a tainted name — evaluated with the
/// same summary-aware rules as the taint facts themselves, against a
/// scratch copy of `fact` so sink callbacks and assignments don't reenter.
fn reads_tainted<'a>(e: &'a Expr, fact: &Slots, cx: TaintCtx<'_, 'a>) -> bool {
    let mut scratch = fact.clone();
    taint_eval(e, &mut scratch, &mut Vec::new(), cx, &mut |_, _, _| {})
}

/// Inspects one sink argument and pushes a `LINT0105` finding if a tainted
/// non-literal part is concatenated with SQL text that `sql_tc` can parse
/// as a condition.
fn check_sql_sink<'a>(
    call: &'a Expr,
    arg: usize,
    fact: &Slots,
    cx: TaintCtx<'_, 'a>,
    findings: &mut Vec<LintFinding>,
) {
    let ExprKind::Call { args, .. } = &call.kind else { return };
    let Some(frag_arg) = args.get(arg) else { return };
    let mut parts = Vec::new();
    concat_parts(frag_arg, &mut parts);
    if parts.len() < 2 {
        return; // a lone literal or a lone variable is not an interpolation
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
                has_tainted |= reads_tainted(part, fact, cx);
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

// ---------------------------------------------------------------------------
// The per-method lint driver
// ---------------------------------------------------------------------------

/// Canonical finding order: the same key as
/// [`DiagnosticBag::sort_by_span_then_code`](diagnostics::DiagnosticBag::sort_by_span_then_code).
fn sort_findings(findings: &mut [LintFinding]) {
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
}

/// Runs every lint over one method, intraprocedurally (calls to unknown
/// methods propagate taint conservatively; no summary-driven sinks).
pub fn lint_method(owner: &str, def: &MethodDef) -> MethodLints {
    lint_method_with_summaries(owner, def, None)
}

/// Runs every lint over one method; when `summaries` are supplied,
/// `LINT0105` propagates taint through calls using the inferred transfer
/// functions (see [`crate::summaries`]).
pub fn lint_method_with_summaries(
    owner: &str,
    def: &MethodDef,
    summaries: Option<&ProgramSummaries>,
) -> MethodLints {
    // A poisoned method's body is a recovery placeholder, not the user's
    // code: linting it would report phantom unused/undefined variables on
    // top of the parse diagnostic.  Its (empty) verdict still occupies its
    // slot — and its semhash covers the poison flag — so incremental replay
    // stays aligned with `Program::methods()` order.
    if def.poisoned {
        return MethodLints {
            owner: owner.to_string(),
            name: def.name.clone(),
            singleton: def.singleton,
            semhash: method_hash(def),
            findings: Vec::new(),
        };
    }
    let cfg = Cfg::build(&def.body);
    let reachable = cfg.reachable();
    let mut findings = Vec::new();

    let locals = Locals::collect(def);
    let params = locals.set_of(def.params.iter().map(|p| p.name.as_str()));

    // LINT0102: assigned but never read.  A leading underscore is the
    // conventional "intentionally unused" spelling and stays quiet.
    for (s, name) in locals.names.iter().enumerate() {
        let Some(span) = locals.first_def[s] else { continue };
        if !locals.read[s] && !params.contains(Some(s)) && !name.starts_with('_') {
            findings.push(LintFinding {
                code: UNUSED_VARIABLE.to_string(),
                message: format!("local variable `{name}` is never used"),
                label: "assigned here but never read".to_string(),
                span,
            });
        }
    }

    // LINT0101: a read of a local that is not definitely assigned on every
    // path.  Only names that are assigned *somewhere* qualify — a bare
    // identifier that is never assigned is a method call on `self` in this
    // subset, not a variable.
    {
        let mut universe = params.clone();
        for (s, first_def) in locals.first_def.iter().enumerate() {
            if first_def.is_some() {
                universe.insert(Some(s));
            }
        }
        let sol =
            solve(&cfg, &DefiniteAssign { locals: &locals, universe, params: params.clone() });
        struct Report<'l, 'a> {
            locals: &'l Locals<'a>,
            params: &'l Slots,
            fact: Slots,
            reported: Slots,
            findings: Vec<LintFinding>,
        }
        impl<'a> NameSink<'a> for Report<'_, 'a> {
            fn on_use(&mut self, e: &'a Expr, name: &'a str) {
                let slot = self.locals.slot(name);
                if slot.is_some_and(|s| self.locals.first_def[s].is_some())
                    && !self.params.contains(slot)
                    && !self.fact.contains(slot)
                    && self.reported.insert(slot)
                {
                    self.findings.push(LintFinding {
                        code: USE_BEFORE_DEF.to_string(),
                        message: format!("`{name}` may be used before it is assigned"),
                        label: "used here before any unconditional assignment".to_string(),
                        span: e.span,
                    });
                }
            }
            fn on_def(&mut self, _e: &'a Expr, name: &'a str) {
                self.fact.insert(self.locals.slot(name));
            }
        }
        let mut report = Report {
            locals: &locals,
            params: &params,
            fact: locals.empty(),
            reported: locals.empty(),
            findings: Vec::new(),
        };
        for (b, block) in cfg.blocks.iter().enumerate() {
            if !reachable[b] {
                continue;
            }
            report.fact.clone_from(&sol.block_in[b]);
            for stmt in &block.stmts {
                walk_names(stmt, &mut Vec::new(), &mut report);
            }
        }
        findings.append(&mut report.findings);
    }

    // LINT0103: a statement-position assignment whose value no later read
    // can observe.  The method's tail statement is its implicit return
    // value, so it is exempt; names never read at all are LINT0102's job.
    {
        let sol = solve(&cfg, &Liveness { locals: &locals });
        let tail: Option<*const Expr> = def.body.last().map(|e| e as *const Expr);
        let mut live = locals.empty();
        for (b, block) in cfg.blocks.iter().enumerate() {
            if !reachable[b] {
                continue;
            }
            live.clone_from(&sol.block_out[b]);
            for stmt in block.stmts.iter().rev() {
                if let ExprKind::Assign { target: LValue::Local(n), value } = &stmt.kind {
                    let slot = locals.slot(n);
                    if slot.is_some_and(|s| locals.read[s])
                        && !live.contains(slot)
                        && !n.starts_with('_')
                        && Some(*stmt as *const Expr) != tail
                    {
                        findings.push(LintFinding {
                            code: DEAD_ASSIGNMENT.to_string(),
                            message: format!("value assigned to `{n}` is never read"),
                            label: "this value is overwritten or dropped before any read"
                                .to_string(),
                            span: stmt.span,
                        });
                    }
                    live.remove(slot);
                    mark_uses(&locals, value, &mut live);
                } else {
                    mark_uses(&locals, stmt, &mut live);
                }
            }
        }
    }

    // LINT0104: the head statement of every dead region.
    for (b, block) in cfg.blocks.iter().enumerate() {
        if reachable[b] || block.stmts.is_empty() {
            continue;
        }
        // Only the head of a dead region: all of its predecessors (if any)
        // are reachable blocks.
        if block.preds.iter().all(|&p| reachable[p]) {
            findings.push(LintFinding {
                code: UNREACHABLE_CODE.to_string(),
                message: "unreachable code".to_string(),
                label: "this statement can never execute".to_string(),
                span: block.stmts[0].span,
            });
        }
    }

    // LINT0105: parameter-derived values concatenated into SQL fragments.
    if def.params.iter().any(|p| !p.block) {
        let cx = TaintCtx { locals: &locals, summaries };
        let taint_seed =
            locals.set_of(def.params.iter().filter(|p| !p.block).map(|p| p.name.as_str()));
        let sol = solve(&cfg, &TaintWithParams { cx, params: taint_seed });
        let mut sink_findings = Vec::new();
        let mut fact = locals.empty();
        for (b, block) in cfg.blocks.iter().enumerate() {
            if !reachable[b] {
                continue;
            }
            fact.clone_from(&sol.block_in[b]);
            for stmt in &block.stmts {
                taint_eval(stmt, &mut fact, &mut Vec::new(), cx, &mut |call, arg, fact| {
                    check_sql_sink(call, arg, fact, cx, &mut sink_findings);
                });
            }
        }
        findings.append(&mut sink_findings);
    }

    sort_findings(&mut findings);
    MethodLints {
        owner: owner.to_string(),
        name: def.name.clone(),
        singleton: def.singleton,
        semhash: method_hash(def),
        findings,
    }
}

/// Lints every method of a program sequentially, in source order.
pub fn lint_program(program: &Program) -> Vec<MethodLints> {
    lint_program_with_summaries(program, None)
}

/// Lints every method sequentially, threading the program's effect
/// summaries into `LINT0105` (see [`lint_method_with_summaries`]).
pub fn lint_program_with_summaries(
    program: &Program,
    summaries: Option<&ProgramSummaries>,
) -> Vec<MethodLints> {
    program
        .methods()
        .into_iter()
        .map(|(owner, def)| lint_method_with_summaries(&owner, def, summaries))
        .collect()
}

/// Lints every method of a program across `threads` worker threads.
///
/// Work is claimed from an atomic index (the same scheme as
/// `comprdl::TypeChecker::check_labeled_parallel`) and results are merged
/// back in method-index order, so the output is byte-identical to
/// [`lint_program`] regardless of scheduling.
pub fn lint_program_parallel(program: &Program, threads: usize) -> Vec<MethodLints> {
    lint_program_parallel_with_summaries(program, None, threads)
}

/// Parallel variant of [`lint_program_with_summaries`]; byte-identical to
/// the sequential run regardless of scheduling.
pub fn lint_program_parallel_with_summaries(
    program: &Program,
    summaries: Option<&ProgramSummaries>,
    threads: usize,
) -> Vec<MethodLints> {
    let methods = program.methods();
    if threads <= 1 || methods.len() <= 1 {
        return lint_program_with_summaries(program, summaries);
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<MethodLints>> = methods.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(methods.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((owner, def)) = methods.get(i) else { break };
                        out.push((i, lint_method_with_summaries(owner, def, summaries)));
                    }
                    out
                })
            })
            .collect();
        for worker in workers {
            for (i, lints) in worker.join().expect("lint worker panicked") {
                slots[i] = Some(lints);
            }
        }
    });
    slots.into_iter().map(|m| m.expect("every method linted")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruby_syntax::parse_program_strict;

    fn lint_src(src: &str) -> Vec<LintFinding> {
        let p = parse_program_strict(src).expect("parse");
        let (owner, def) = &p.methods()[0];
        lint_method(owner, def).findings
    }

    fn codes(findings: &[LintFinding]) -> Vec<&str> {
        findings.iter().map(|f| f.code.as_str()).collect()
    }

    #[test]
    fn clean_method_has_no_findings() {
        let f = lint_src("def m(x)\n  y = x + 1\n  y * 2\nend\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn use_before_def_fires_on_branch_only_assignment() {
        let f = lint_src("def m(c)\n  if c\n    x = 1\n  end\n  x + 1\nend\n");
        assert_eq!(codes(&f), vec![USE_BEFORE_DEF], "{f:?}");
        assert!(f[0].message.contains("`x`"), "{}", f[0].message);
    }

    #[test]
    fn use_before_def_quiet_when_all_branches_assign() {
        let f = lint_src("def m(c)\n  if c\n    x = 1\n  else\n    x = 2\n  end\n  x + 1\nend\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn bare_identifiers_that_are_method_calls_are_not_flagged() {
        // `rows` is never assigned, so it is a call on self, not a variable.
        let f = lint_src("def m()\n  rows.length\nend\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unused_variable_fires_once_at_first_assignment() {
        let f = lint_src("def m(x)\n  waste = x + 1\n  x\nend\n");
        assert_eq!(codes(&f), vec![UNUSED_VARIABLE], "{f:?}");
        assert!(f[0].message.contains("`waste`"));
    }

    #[test]
    fn parameters_are_not_unused_variables() {
        let f = lint_src("def m(unused)\n  1\nend\n");
        assert!(f.is_empty(), "{f:?}");
    }

    /// Pin: a leading underscore is the conventional "intentionally
    /// unused" spelling — `_tmp` is exempt from LINT0102/LINT0103 while
    /// plain `tmp` still warns.
    #[test]
    fn underscore_prefixed_locals_are_exempt_but_plain_ones_warn() {
        // LINT0102: assigned, never read.
        let f = lint_src("def m(x)\n  _tmp = x + 1\n  x\nend\n");
        assert!(f.is_empty(), "{f:?}");
        let f = lint_src("def m(x)\n  tmp = x + 1\n  x\nend\n");
        assert_eq!(codes(&f), vec![UNUSED_VARIABLE], "{f:?}");
        assert!(f[0].message.contains("`tmp`"));

        // LINT0103: dead store before a later read.
        let f = lint_src("def m(x)\n  _y = x + 1\n  _y = 2\n  _y\nend\n");
        assert!(f.is_empty(), "{f:?}");
        let f = lint_src("def m(x)\n  y = x + 1\n  y = 2\n  y\nend\n");
        assert_eq!(codes(&f), vec![DEAD_ASSIGNMENT], "{f:?}");
    }

    #[test]
    fn dead_assignment_fires_when_value_is_overwritten() {
        let f = lint_src("def m(x)\n  y = x + 1\n  y = 2\n  y\nend\n");
        assert_eq!(codes(&f), vec![DEAD_ASSIGNMENT], "{f:?}");
        assert!(f[0].message.contains("`y`"));
    }

    #[test]
    fn tail_assignment_is_the_implicit_return_not_a_dead_store() {
        let f = lint_src("def m(x)\n  y = x\n  y = y + 1\nend\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unreachable_code_after_return_fires_once_per_region() {
        let f = lint_src("def m()\n  return 1\n  a = 2\n  a + 1\nend\n");
        // One LINT0104 for the dead region; `a` is genuinely used inside it
        // so no unused-variable noise.
        assert_eq!(codes(&f), vec![UNREACHABLE_CODE], "{f:?}");
    }

    #[test]
    fn guarded_raise_keeps_the_tail_reachable() {
        let f = lint_src("def m(c)\n  c || raise('no')\n  1\nend\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn sql_taint_fires_on_param_concatenation() {
        let f = lint_src("def self.search(q)\n  Topic.where('title = ' + q)\nend\n");
        assert_eq!(codes(&f), vec![SQL_TAINT], "{f:?}");
        assert!(f[0].label.contains("title = ?"), "{}", f[0].label);
    }

    #[test]
    fn sql_taint_tracks_flow_through_locals() {
        let f = lint_src("def self.search(q)\n  frag = 'title = ' + q\n  Topic.where(frag)\nend\n");
        // The concatenation happens at the assignment; the sink receives a
        // lone variable, so the finding anchors at the sink only if the
        // concatenation reaches it.  Flowing a prebuilt tainted fragment
        // into `where` as a single argument is not an *interpolation* site,
        // so this stays quiet — the assignment form is covered by the test
        // above when inlined.
        assert!(codes(&f).is_empty() || codes(&f) == vec![SQL_TAINT], "{f:?}");
    }

    #[test]
    fn sql_taint_quiet_on_placeholder_style() {
        let f = lint_src("def self.search(q)\n  Topic.where('title = ?', q)\nend\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn sql_taint_quiet_when_concatenating_untainted_constants() {
        let f = lint_src(
            "def self.recent()\n  col = 'created_at'\n  Topic.where(col + ' IS NOT NULL')\nend\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn block_parameters_shadow_method_locals() {
        // `r` is a block parameter, not an unassigned method local.
        let f = lint_src("def m(rows)\n  rows.map { |r| r + 1 }\nend\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn or_assign_defines_without_using() {
        let f = lint_src("def m()\n  x ||= 1\n  x\nend\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn findings_are_sorted_by_span_then_code() {
        let f = lint_src("def m(c)\n  waste = 1\n  if c\n    x = 1\n  end\n  x + 1\nend\n");
        assert_eq!(codes(&f), vec![UNUSED_VARIABLE, USE_BEFORE_DEF], "{f:?}");
        assert!(f[0].span.start < f[1].span.start);
    }

    #[test]
    fn parallel_lint_is_byte_identical_to_sequential() {
        let src = "class A\n  def m(c)\n    if c\n      x = 1\n    end\n    x\n  end\n  def n()\n    waste = 1\n    2\n  end\n  def o(q)\n    A.where('title = ' + q)\n  end\nend\n";
        let p = parse_program_strict(src).expect("parse");
        let seq = lint_program(&p);
        for threads in [2, 4, 7] {
            assert_eq!(seq, lint_program_parallel(&p, threads), "threads={threads}");
        }
        assert!(seq.iter().any(|m| !m.findings.is_empty()));
    }

    /// With summaries, the sink and the interpolation can live in
    /// different methods: the callee's summary routes the caller's
    /// argument into the sink, so the finding fires at the call site.
    #[test]
    fn sql_taint_crosses_calls_with_summaries() {
        let src = "def self.apply_filter(frag)\n  Topic.where(frag)\nend\ndef self.search(q)\n  apply_filter('title = ' + q)\nend\n";
        let p = parse_program_strict(src).expect("parse");

        // Blind without summaries: the callee sees a lone variable at the
        // sink, the caller sees no sink at all.
        let blind = lint_program(&p);
        assert!(blind.iter().all(|m| m.findings.is_empty()), "{blind:?}");

        let seed = crate::summaries::SeedMap::new();
        let sums = ProgramSummaries::infer(&p, &seed);
        let seen = lint_program_with_summaries(&p, Some(&sums));
        let search = seen.iter().find(|m| m.name == "search").unwrap();
        assert_eq!(codes(&search.findings), vec![SQL_TAINT], "{seen:?}");
        assert!(search.findings[0].label.contains("title = ?"), "{}", search.findings[0].label);
    }

    /// The summary return transfer is *more precise* than the conservative
    /// any-argument rule: a callee that provably drops its parameter
    /// un-taints the result.
    #[test]
    fn summary_return_transfer_untaints_sanitized_values() {
        let src = "def self.quote(q)\n  'quoted'\nend\ndef self.search(q)\n  Topic.where('title = ' + quote(q))\nend\n";
        let p = parse_program_strict(src).expect("parse");
        let blind = lint_program(&p);
        assert!(
            blind.iter().any(|m| codes(&m.findings) == vec![SQL_TAINT]),
            "conservatively tainted without summaries: {blind:?}"
        );
        let sums = ProgramSummaries::infer(&p, &crate::summaries::SeedMap::new());
        let seen = lint_program_with_summaries(&p, Some(&sums));
        assert!(seen.iter().all(|m| m.findings.is_empty()), "{seen:?}");
    }

    #[test]
    fn parallel_lint_with_summaries_is_byte_identical() {
        let src = "def self.apply_filter(frag)\n  Topic.where(frag)\nend\ndef self.search(q)\n  apply_filter('title = ' + q)\nend\ndef m(c)\n  if c\n    x = 1\n  end\n  x\nend\n";
        let p = parse_program_strict(src).expect("parse");
        let sums = ProgramSummaries::infer(&p, &crate::summaries::SeedMap::new());
        let seq = lint_program_with_summaries(&p, Some(&sums));
        for threads in [2, 4, 8] {
            let par = lint_program_parallel_with_summaries(&p, Some(&sums), threads);
            assert_eq!(seq, par, "threads={threads}");
        }
        assert!(seq.iter().any(|m| !m.findings.is_empty()));
    }

    /// The method shape the dense-schema benchmark generates: `k`
    /// assignments, then an `||` chain over all of them (two CFG blocks per
    /// `||`).  `params` are the method's parameters; every assignment reads
    /// them, so the taint analysis runs too.
    fn or_chain(k: usize, params: &[&str]) -> String {
        let mut src = format!("def self.q({})\n", params.join(", "));
        let value = if params.is_empty() { "1".to_string() } else { params.join(" + ") };
        for s in 0..k {
            src += &format!("  a{s} = {value}\n");
        }
        let tail: Vec<String> = (0..k).map(|s| format!("a{s}")).collect();
        src + &format!("  {}\nend\n", tail.join(" || "))
    }

    /// Fact words copied while linting `src`'s first method.
    fn words_copied(src: &str) -> usize {
        let p = parse_program_strict(src).expect("parse");
        let (owner, def) = &p.methods()[0];
        WORDS_COPIED.with(|c| c.set(0));
        lint_method(owner, def);
        WORDS_COPIED.with(std::cell::Cell::get)
    }

    /// The bitsets have no width cap: a use-before-def of the 150th local
    /// and a dead store of the 140th are found exactly as for the first.
    #[test]
    fn facts_hold_any_number_of_locals() {
        let mut src = String::from("def m(c)\n");
        for s in 0..149 {
            src += &format!("  a{s} = {s}\n");
        }
        src += "  if c\n    a149 = 1\n  end\n  a139 = 2\n";
        let tail: Vec<String> = (0..150).map(|s| format!("a{s}")).collect();
        src += &format!("  {}\nend\n", tail.join(" + "));
        let f = lint_src(&src);
        assert_eq!(codes(&f), vec![DEAD_ASSIGNMENT, USE_BEFORE_DEF], "{f:?}");
        assert!(f[0].message.contains("`a139`"), "{}", f[0].message);
        assert!(f[1].message.contains("`a149`"), "{}", f[1].message);
    }

    /// The facts are slot bitsets, so linting copies a fixed number of
    /// fact words per CFG block: the work grows linearly with the number of
    /// locals `k` while the facts fit one word.
    #[test]
    fn fact_copies_grow_linearly_in_the_number_of_locals() {
        let counts: Vec<usize> = (2..=64).map(|k| words_copied(&or_chain(k, &[]))).collect();
        for (k, &count) in (2..=64).zip(&counts) {
            assert!(count <= 15 * k, "k={k}: {count} words copied");
        }
        let at = |k: usize| counts[k - 2];
        assert!(at(64) <= 9 * at(8), "k=64: {}, k=8: {}", at(64), at(8));

        // With the benchmark's two parameters the facts need a second word
        // from 63 locals on; the copies per word stay linear.
        for k in [2, 8, 16, 32, 62, 63, 64] {
            let count = words_copied(&or_chain(k, &["name", "n"]));
            let words = (k + 2).div_ceil(64);
            assert!(count <= 20 * k * words, "k={k}: {count} words copied over {words}-word facts");
        }
    }

    #[test]
    fn findings_convert_to_warning_diagnostics() {
        let f = lint_src("def m(x)\n  waste = x\n  x\nend\n");
        let d = Diagnostic::from(&f[0]);
        assert_eq!(d.severity, diagnostics::Severity::Warning);
        assert_eq!(d.code, UNUSED_VARIABLE);
        assert_eq!(d.notes.len(), 1);
        assert_eq!(d.labels.len(), 1);
    }
}
