//! Semantic dependency tracking: Merkle hashes over the call/helper graph.
//!
//! [`DepGraph`] assigns every program method a **Merkle hash** — a digest of
//! its own structural hash ([`ruby_syntax::method_hash`]) combined with the
//! structural hashes of everything its check verdict can depend on:
//!
//! - other program methods it calls (name-resolved, conservatively across
//!   all owners),
//! - the signatures of annotated library methods it calls, and
//! - the comp-type helper methods those signatures' `«...»` expressions
//!   reference, transitively through helper-to-helper calls.
//!
//! A method's Merkle hash is unchanged **iff** nothing in that transitive
//! closure changed, which is exactly the condition under which a previous
//! check verdict can be replayed.  Conversely, editing one comp-type helper
//! changes the Merkle hash of precisely the methods that can reach it — its
//! transitive dependents — and of nothing else.
//!
//! The graph is name-based and deliberately conservative: an unresolvable
//! or dynamic call contributes no edge (the checker never sees through it
//! either), and a name that resolves to several candidates contributes an
//! edge to each.  Over-approximation costs a spurious re-check; it never
//! costs soundness.
//!
//! The graph is sized to the program, not to the environment: besides the
//! program methods and the (few dozen) helpers, it materialises only the
//! annotation nodes a program method calls by name — the only nodes a
//! program method can reach — and it computes Merkle hashes for program
//! methods alone.  An environment of hundreds of library annotations costs
//! a name filter, not a node and a traversal each.
//!
//! [`env_hash`] digests the rest of the environment (class hierarchy,
//! method/ivar/gvar annotations).  Helper *bodies* are intentionally
//! excluded from it: a helper edit must invalidate only the methods that
//! reach the helper through the graph, not the whole environment.

use crate::env::CompRdl;
use crate::tlc::HelperRegistry;
use rdl_types::{MethodKind, MethodSig, TypeExpr};
use ruby_syntax::{method_hash, Expr, ExprKind, MethodDef, Program, SemHasher};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Bump when the behaviour of any *native* (Rust) helper changes in a way
/// that affects check verdicts.  Native helpers have no AST to hash, so this
/// tag is their stand-in body hash.
pub const NATIVE_HELPER_REVISION: u32 = 1;

/// The identity of a program method: `(owner class, name, singleton?)`.
pub type MethodId = (String, String, bool);

/// One node of the graph — a program method, an annotated library-method
/// signature, or a comp-type helper.  The three kinds share a
/// representation; what distinguishes them is which index map
/// (`DepGraph::methods` / `helpers`) points at them, if any.
#[derive(Debug)]
struct Node {
    /// Structural hash of this node alone (no dependencies).
    base: u64,
    /// Outgoing dependency edges (indices into `nodes`).
    deps: Vec<usize>,
}

/// The semantic dependency graph of one program checked against one
/// environment.  See the module docs for the invalidation model.
#[derive(Debug)]
pub struct DepGraph {
    nodes: Vec<Node>,
    methods: BTreeMap<MethodId, usize>,
    helpers: BTreeMap<String, usize>,
    /// The Merkle hash of every program-method node.  Method nodes come
    /// first in `nodes`, so this is indexed by node index.
    merkles: Vec<u64>,
}

impl DepGraph {
    /// Builds the dependency graph for `program` checked under `env`.
    pub fn build(env: &CompRdl, program: &Program) -> DepGraph {
        let mut nodes = Vec::new();
        let mut methods = BTreeMap::new();
        let mut helpers = BTreeMap::new();

        // Program method nodes first, so their indices are `0..merkles.len()`.
        // A redefinition's node replaces the earlier one in `methods`, and
        // the calls of every definition leave the id's one node.
        let defs = program.methods();
        for (owner, def) in &defs {
            let idx = add_node(&mut nodes, method_hash(def));
            methods.insert((owner.clone(), def.name.clone(), def.singleton), idx);
        }
        let method_nodes = nodes.len();
        let calls: Vec<(usize, BTreeSet<String>)> = defs
            .iter()
            .map(|(owner, def)| {
                (methods[&(owner.clone(), def.name.clone(), def.singleton)], called_names(def))
            })
            .collect();

        // Helper nodes: Ruby helpers hash structurally, native helpers by
        // name + revision tag.
        let ruby_helpers = env.helpers.ruby_defs();
        for (name, def) in &ruby_helpers {
            helpers.insert(name.to_string(), add_node(&mut nodes, method_hash(def)));
        }
        for name in env.helpers.native_names() {
            let mut h = SemHasher::new();
            h.write_str("native-helper");
            h.write_str(name);
            h.write_u64(u64::from(NATIVE_HELPER_REVISION));
            helpers.insert(name.to_string(), add_node(&mut nodes, h.finish()));
        }
        // Helper → helper edges (Ruby bodies only; natives are leaves).
        for (name, def) in &ruby_helpers {
            let from = helpers[*name];
            for callee in called_names(def) {
                if let Some(&to) = helpers.get(callee.as_str()) {
                    nodes[from].deps.push(to);
                }
            }
        }

        // Called-name → candidate-node index.
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for ((_, name, _), &idx) in &methods {
            by_name.entry(name.as_str()).or_default().push(idx);
        }

        // Annotation nodes, one per annotated signature some program method
        // calls by name: only a call edge can reach an annotation node, so
        // an uncalled one is in no Merkle set.  Base hash covers the
        // signature source (which embeds the comp exprs) plus its identity;
        // edges point at every helper its comp exprs mention.
        let called: HashSet<&str> =
            calls.iter().flat_map(|(_, names)| names.iter().map(String::as_str)).collect();
        let mut annots: Vec<(&(String, MethodKind, String), &MethodSig)> = env
            .annotations
            .iter()
            .filter(|((_, _, name), _)| called.contains(name.as_str()))
            .collect();
        annots.sort_unstable_by_key(|(k, _)| sort_key(k));
        for (key, sig) in annots {
            let idx = add_node(&mut nodes, annotation_hash(key, sig));
            let mut helper_names = BTreeSet::new();
            for_each_comp_expr(sig, &mut |expr| {
                collect_helper_refs(expr, &env.helpers, &mut helper_names);
            });
            nodes[idx].deps.extend(helper_names.iter().map(|hn| helpers[hn]));
            by_name.entry(key.2.as_str()).or_default().push(idx);
        }

        // Name-based call edges out of every program method.
        for (from, names) in &calls {
            for callee in names {
                for &to in by_name.get(callee.as_str()).into_iter().flatten() {
                    if to != *from {
                        nodes[*from].deps.push(to);
                    }
                }
            }
        }

        let mut g = DepGraph { merkles: Vec::new(), nodes, methods, helpers };
        g.merkles = (0..method_nodes).map(|i| g.compute_merkle(i)).collect();
        g
    }

    /// `H(sorted base hashes of the reachable node set, self included)` —
    /// cycle-safe by construction (the reachable *set* is what is hashed,
    /// not a recursive digest).
    fn compute_merkle(&self, start: usize) -> u64 {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![start];
        seen[start] = true;
        let mut bases = BTreeSet::new();
        while let Some(i) = stack.pop() {
            bases.insert(self.nodes[i].base);
            for &d in &self.nodes[i].deps {
                if !seen[d] {
                    seen[d] = true;
                    stack.push(d);
                }
            }
        }
        let mut h = SemHasher::new();
        h.write_usize(bases.len());
        for base in bases {
            h.write_u64(base);
        }
        h.finish()
    }

    /// The Merkle hash of a program method, or `None` if the program has no
    /// such method.
    pub fn merkle(&self, owner: &str, name: &str, singleton: bool) -> Option<u64> {
        self.methods
            .get(&(owner.to_string(), name.to_string(), singleton))
            .map(|&i| self.merkles[i])
    }

    /// Every program method with its Merkle hash, in `(owner, name,
    /// singleton)` order.
    pub fn method_merkles(&self) -> Vec<(MethodId, u64)> {
        self.methods.iter().map(|(id, &i)| (id.clone(), self.merkles[i])).collect()
    }

    /// The name-resolved method→method call edges of the program, as
    /// deduplicated `(caller, callee)` id pairs in sorted order.  These are
    /// the same edges the `analysis` crate's effect-summary inference
    /// resolves independently over the AST; exposing them lets the corpus
    /// harness cross-check that the two call graphs agree.
    pub fn method_call_edges(&self) -> Vec<(MethodId, MethodId)> {
        let by_idx: BTreeMap<usize, &MethodId> =
            self.methods.iter().map(|(id, &i)| (i, id)).collect();
        let mut out = BTreeSet::new();
        for (id, &from) in &self.methods {
            for &to in &self.nodes[from].deps {
                if let Some(&callee) = by_idx.get(&to) {
                    out.insert((id.clone(), callee.clone()));
                }
            }
        }
        out.into_iter().collect()
    }

    /// The program methods whose check verdicts depend (transitively) on the
    /// named helper — exactly the set a helper edit invalidates.
    pub fn helper_dependents(&self, helper: &str) -> Vec<MethodId> {
        let Some(&target) = self.helpers.get(helper) else {
            return Vec::new();
        };
        self.methods
            .iter()
            .filter(|(_, &from)| self.reaches(from, target))
            .map(|(id, _)| id.clone())
            .collect()
    }

    fn reaches(&self, from: usize, target: usize) -> bool {
        if from == target {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![from];
        seen[from] = true;
        while let Some(i) = stack.pop() {
            if i == target {
                return true;
            }
            for &d in &self.nodes[i].deps {
                if !seen[d] {
                    seen[d] = true;
                    stack.push(d);
                }
            }
        }
        false
    }
}

fn add_node(nodes: &mut Vec<Node>, base: u64) -> usize {
    nodes.push(Node { base, deps: Vec::new() });
    nodes.len() - 1
}

/// The structural hash of one annotated signature: its identity, source
/// text (which embeds the comp exprs), typecheck label and declared effects.
fn annotation_hash(key: &(String, MethodKind, String), sig: &MethodSig) -> u64 {
    let mut h = SemHasher::new();
    h.write_str("annotation");
    write_annotation(&mut h, key, sig);
    h.finish()
}

fn write_annotation(h: &mut SemHasher, key: &(String, MethodKind, String), sig: &MethodSig) {
    h.write_str(&key.0);
    h.write_u8(kind_tag(key.1));
    h.write_str(&key.2);
    h.write_str(&sig.source);
    match &sig.typecheck_label {
        Some(l) => {
            h.write_u8(1);
            h.write_str(l);
        }
        None => h.write_u8(0),
    }
    // The declared effects are *not* part of `sig.source`, but effect
    // summaries (and verdicts built on them) are seeded from the claims, so
    // an effect-only annotation change must move every dependent Merkle
    // hash.
    h.write_u8(match sig.term {
        rdl_types::TermEffect::Terminates => 0,
        rdl_types::TermEffect::BlockDep => 1,
        rdl_types::TermEffect::MayDiverge => 2,
    });
    h.write_u8(match sig.purity {
        rdl_types::PurityEffect::Pure => 0,
        rdl_types::PurityEffect::Impure => 1,
    });
}

/// The order annotations are hashed in, borrowed from the key.
fn sort_key(key: &(String, MethodKind, String)) -> (&str, u8, &str) {
    (&key.0, kind_tag(key.1), &key.2)
}

fn kind_tag(kind: MethodKind) -> u8 {
    match kind {
        MethodKind::Instance => 0,
        MethodKind::Singleton => 1,
    }
}

/// The names a method body may invoke: every `Call` name plus every bare
/// `Ident` (which in Ruby can be a zero-argument self-call).  Callers filter
/// against the set of names that actually resolve, so the over-approximation
/// only ever adds edges for name collisions — sound, at worst one spurious
/// re-check.
fn called_names(def: &MethodDef) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut visit = |e: &Expr| match &e.kind {
        ExprKind::Call { name, .. } => {
            out.insert(name.clone());
        }
        ExprKind::Ident(name) => {
            out.insert(name.clone());
        }
        ExprKind::OpAssign { op, .. } => {
            out.insert(op.clone());
        }
        _ => {}
    };
    for e in &def.body {
        e.walk(&mut visit);
    }
    for p in &def.params {
        if let Some(d) = &p.default {
            d.walk(&mut visit);
        }
    }
    out
}

/// Calls `f` on every `«...»` comp expression nested anywhere in the
/// signature (params, return, block signature).
fn for_each_comp_expr(sig: &MethodSig, f: &mut impl FnMut(&Expr)) {
    for p in &sig.params {
        for_each_comp_in_type(&p.ty, f);
    }
    for_each_comp_in_type(&sig.ret, f);
    if let Some(block) = &sig.block {
        for_each_comp_expr(block, f);
    }
}

fn for_each_comp_in_type(te: &TypeExpr, f: &mut impl FnMut(&Expr)) {
    match te {
        TypeExpr::Comp(spec) => {
            f(&spec.expr);
            for_each_comp_in_type(&spec.bound, f);
        }
        TypeExpr::Generic(_, args) | TypeExpr::Union(args) | TypeExpr::Tuple(args) => {
            for a in args {
                for_each_comp_in_type(a, f);
            }
        }
        TypeExpr::Optional(t) | TypeExpr::Vararg(t) => for_each_comp_in_type(t, f),
        TypeExpr::FiniteHash(entries) => {
            for (_, v) in entries {
                for_each_comp_in_type(v, f);
            }
        }
        TypeExpr::Simple(_) | TypeExpr::ConstString(_) => {}
    }
}

/// Collects every helper name the expression references (as a call or bare
/// identifier), filtered to names registered in `helpers`.
fn collect_helper_refs(expr: &Expr, helpers: &HelperRegistry, out: &mut BTreeSet<String>) {
    expr.walk(&mut |e| match &e.kind {
        ExprKind::Call { name, .. } | ExprKind::Ident(name) if helpers.contains(name) => {
            out.insert(name.clone());
        }
        _ => {}
    });
}

/// The semantic hash of one comp-type expression *including* the bodies of
/// every helper it transitively references.  This is the `semantic` field of
/// [`crate::cache::CacheKey`]: a cached comp-type evaluation is only valid
/// while the expression and its helper closure are unchanged.
pub fn comp_semantic_hash(expr: &Expr, helpers: &HelperRegistry) -> u64 {
    let mut todo: Vec<String> = Vec::new();
    let mut seen = BTreeSet::new();
    collect_helper_refs(expr, helpers, &mut seen);
    todo.extend(seen.iter().cloned());
    // Chase helper → helper references to a fixpoint.
    while let Some(name) = todo.pop() {
        if let Some(def) = helpers.ruby_defs().iter().find(|(n, _)| *n == name).map(|(_, d)| *d) {
            let mut refs = BTreeSet::new();
            collect_helper_refs_in_def(def, helpers, &mut refs);
            for r in refs {
                if seen.insert(r.clone()) {
                    todo.push(r);
                }
            }
        }
    }
    let mut h = SemHasher::new();
    h.write_str("comp-expr");
    h.write_u64(ruby_syntax::expr_hash(expr));
    h.write_usize(seen.len());
    for name in &seen {
        h.write_str(name);
        let body = helpers
            .ruby_defs()
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| method_hash(d))
            .unwrap_or(u64::from(NATIVE_HELPER_REVISION));
        h.write_u64(body);
    }
    h.finish()
}

fn collect_helper_refs_in_def(
    def: &MethodDef,
    helpers: &HelperRegistry,
    out: &mut BTreeSet<String>,
) {
    for e in &def.body {
        collect_helper_refs(e, helpers, out);
    }
}

/// Digest of the checking environment *excluding helper bodies*: the class
/// hierarchy and every method / ivar / gvar annotation.  A persisted check
/// cache is only replayable against an environment with the same hash;
/// helper edits are tracked at method granularity by [`DepGraph`] instead.
pub fn env_hash(env: &CompRdl) -> u64 {
    let mut h = SemHasher::new();
    h.write_str("env");
    let class_names: Vec<&str> = env.classes.names().collect();
    h.write_usize(class_names.len());
    for name in &class_names {
        h.write_str(name);
        let ancestors = env.classes.ancestors(name);
        h.write_usize(ancestors.len());
        for a in &ancestors {
            h.write_str(a);
        }
        h.write_bool(env.classes.is_model(name));
    }
    let mut annots: Vec<(&(String, MethodKind, String), &MethodSig)> =
        env.annotations.iter().collect();
    annots.sort_unstable_by_key(|(k, _)| sort_key(k));
    h.write_usize(annots.len());
    for (key, sig) in annots {
        write_annotation(&mut h, key, sig);
    }
    // Variable types are hashed by their rendering, which spells out every
    // nominal, generic and comp part of the parsed type.
    let ivars = env.annotations.ivars();
    h.write_usize(ivars.len());
    for (class, name, ty) in ivars {
        h.write_str(class);
        h.write_str(name);
        h.write_str(&ty.to_string());
    }
    let gvars = env.annotations.gvars();
    h.write_usize(gvars.len());
    for (name, ty) in gvars {
        h.write_str(name);
        h.write_str(&ty.to_string());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_with_helpers() -> CompRdl {
        let mut env = CompRdl::new();
        env.register_helpers_ruby(
            "def leaf(x)\n  x\nend\ndef mid(x)\n  leaf(x)\nend\ndef top(x)\n  mid(x)\nend\n",
        );
        env.type_sig("Widget", "frob", "(t<:Object) -> «top(targs[0])»", None);
        env.add_class("Widget", "Object");
        env
    }

    fn program() -> Program {
        ruby_syntax::parse_program_strict(
            "def uses_frob(w)\n  w.frob(1)\nend\ndef plain(x)\n  x\nend\ndef calls_plain(x)\n  plain(x)\nend\n",
        )
        .unwrap()
    }

    #[test]
    fn helper_edit_moves_exactly_its_dependents() {
        let env = env_with_helpers();
        let prog = program();
        let g1 = DepGraph::build(&env, &prog);

        // Re-register `leaf` with a different body.
        let mut env2 = env_with_helpers();
        env2.register_helpers_ruby("def leaf(x)\n  x + 0\nend\n");
        let g2 = DepGraph::build(&env2, &prog);

        // `uses_frob` reaches leaf via frob → top → mid → leaf.
        assert_ne!(
            g1.merkle("Object", "uses_frob", false),
            g2.merkle("Object", "uses_frob", false)
        );
        // The others never touch a helper; their hashes must not move.
        assert_eq!(g1.merkle("Object", "plain", false), g2.merkle("Object", "plain", false));
        assert_eq!(
            g1.merkle("Object", "calls_plain", false),
            g2.merkle("Object", "calls_plain", false)
        );
    }

    #[test]
    fn helper_dependents_is_the_transitive_closure() {
        let env = env_with_helpers();
        let g = DepGraph::build(&env, &program());
        let deps = g.helper_dependents("leaf");
        assert_eq!(deps, vec![("Object".to_string(), "uses_frob".to_string(), false)]);
        assert!(g.helper_dependents("no_such_helper").is_empty());
    }

    #[test]
    fn method_edit_invalidates_callers_transitively() {
        let env = env_with_helpers();
        let g1 = DepGraph::build(&env, &program());
        let edited = ruby_syntax::parse_program_strict(
            "def uses_frob(w)\n  w.frob(1)\nend\ndef plain(x)\n  x + 1\nend\ndef calls_plain(x)\n  plain(x)\nend\n",
        )
        .unwrap();
        let g2 = DepGraph::build(&env, &edited);
        assert_ne!(g1.merkle("Object", "plain", false), g2.merkle("Object", "plain", false));
        assert_ne!(
            g1.merkle("Object", "calls_plain", false),
            g2.merkle("Object", "calls_plain", false),
            "caller must be invalidated with its callee"
        );
        assert_eq!(
            g1.merkle("Object", "uses_frob", false),
            g2.merkle("Object", "uses_frob", false),
            "unrelated method must keep its hash"
        );
    }

    #[test]
    fn layout_edits_do_not_move_merkles() {
        let env = env_with_helpers();
        let g1 = DepGraph::build(&env, &program());
        let noisy = ruby_syntax::parse_program_strict(
            "# comment\n\ndef uses_frob(w)\n  w.frob(1)   # trailing\nend\n\n\ndef plain(x)\n  x\nend\ndef calls_plain(x)\n  plain(x)\nend\n",
        )
        .unwrap();
        let g2 = DepGraph::build(&env, &noisy);
        assert_eq!(g1.method_merkles(), g2.method_merkles());
    }

    #[test]
    fn comp_semantic_hash_tracks_helper_closure() {
        let env = env_with_helpers();
        let expr = ruby_syntax::parse_expr("top(targs[0])").unwrap();
        let h1 = comp_semantic_hash(&expr, &env.helpers);

        let mut env2 = env_with_helpers();
        env2.register_helpers_ruby("def leaf(x)\n  x + 0\nend\n");
        let h2 = comp_semantic_hash(&expr, &env2.helpers);
        assert_ne!(h1, h2, "transitive helper edit must move the comp hash");

        // An unrelated helper does not.
        let mut env3 = env_with_helpers();
        env3.register_helpers_ruby("def unrelated(x)\n  x\nend\n");
        let h3 = comp_semantic_hash(&expr, &env3.helpers);
        assert_eq!(h1, h3);
    }

    #[test]
    fn env_hash_tracks_annotations_not_helpers() {
        let e1 = env_with_helpers();
        let mut e2 = env_with_helpers();
        e2.register_helpers_ruby("def leaf(x)\n  x + 0\nend\n");
        assert_eq!(env_hash(&e1), env_hash(&e2), "helper bodies are graph-tracked, not env-wide");

        let mut e3 = env_with_helpers();
        e3.type_sig("Widget", "other", "(Integer) -> Integer", None);
        assert_ne!(env_hash(&e1), env_hash(&e3));
    }

    #[test]
    fn env_hash_tracks_variable_annotations() {
        let with_vars = |ivar: &str, gvar: &str| {
            let mut env = env_with_helpers();
            env.var_type("Widget", "name", ivar);
            env.global_type("$limit", gvar);
            env_hash(&env)
        };
        let base = with_vars("String", "Integer");
        assert_eq!(base, with_vars("String", "Integer"));
        assert_ne!(base, env_hash(&env_with_helpers()));
        assert_ne!(base, with_vars("Symbol", "Integer"), "an ivar retype must move the hash");
        assert_ne!(base, with_vars("String", "Float"), "a gvar retype must move the hash");
    }

    #[test]
    fn only_called_annotations_become_nodes() {
        let mut env = env_with_helpers();
        for i in 0..50 {
            env.type_sig("Widget", &format!("unused{i}"), "() -> «top(tself)»", None);
        }
        let g = DepGraph::build(&env, &program());
        // Three program methods, `frob`'s annotation and the three helpers.
        assert_eq!(g.nodes.len(), 3 + 1 + 3);
        assert_eq!(g.merkles.len(), 3);
    }
}
