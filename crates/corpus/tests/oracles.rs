//! Oracle tests for the program-sized dependency graph and `TERM0004` scan.
//!
//! `DepGraph::build` materialises only the annotation nodes a program
//! method calls and hashes only program methods, and
//! `TypeChecker::effect_conflicts` makes one pass over the program's
//! methods.  The oracles below are the straightforward algorithms they
//! replaced — every annotation a node with a Merkle hash of its own, and one
//! program scan per annotation — and must agree with them exactly on every
//! corpus app and on seeded edits of each.

use comprdl::semdep::{DepGraph, MethodId, NATIVE_HELPER_REVISION};
use comprdl::termination::{annotation_conflicts, EffectEnv};
use comprdl::{CompRdl, EffectViolation, InferredEffect, TypeChecker};
use rdl_types::{MethodKind, MethodSig, PurityEffect, TermEffect, TypeExpr};
use ruby_syntax::{method_hash, Expr, ExprKind, MethodDef, Program, SemHasher};
use std::collections::{BTreeMap, BTreeSet, HashMap};

// ---------------------------------------------------------------------------
// Merkle oracle: the full annotation node set, one DFS from every node
// ---------------------------------------------------------------------------

struct OracleGraph {
    bases: Vec<u64>,
    deps: Vec<Vec<usize>>,
    methods: BTreeMap<MethodId, usize>,
    helpers: BTreeMap<String, usize>,
    merkles: Vec<u64>,
}

impl OracleGraph {
    fn build(env: &CompRdl, program: &Program) -> OracleGraph {
        let mut g = OracleGraph {
            bases: Vec::new(),
            deps: Vec::new(),
            methods: BTreeMap::new(),
            helpers: BTreeMap::new(),
            merkles: Vec::new(),
        };
        for (name, def) in env.helpers.ruby_defs() {
            let idx = g.add(method_hash(def));
            g.helpers.insert(name.to_string(), idx);
        }
        for name in env.helpers.native_names() {
            let mut h = SemHasher::new();
            h.write_str("native-helper");
            h.write_str(name);
            h.write_u64(u64::from(NATIVE_HELPER_REVISION));
            let idx = g.add(h.finish());
            g.helpers.insert(name.to_string(), idx);
        }
        for (name, def) in env.helpers.ruby_defs() {
            let from = g.helpers[name];
            for callee in called_names(def) {
                if let Some(&to) = g.helpers.get(&callee) {
                    g.deps[from].push(to);
                }
            }
        }

        let mut annots: Vec<_> = env.annotations.iter().collect();
        annots.sort_by_key(|(k, _)| (k.0.clone(), kind_tag(k.1), k.2.clone()));
        let mut annotation_idx = Vec::new();
        for (key, sig) in &annots {
            let idx = g.add(annotation_hash(key, sig));
            let mut refs = BTreeSet::new();
            for_each_comp_expr(sig, &mut |e| helper_refs(e, env, &mut refs));
            for r in refs {
                let to = g.helpers[&r];
                g.deps[idx].push(to);
            }
            annotation_idx.push((key.2.as_str(), idx));
        }

        let methods = program.methods();
        for (owner, def) in &methods {
            let idx = g.add(method_hash(def));
            g.methods.insert((owner.clone(), def.name.clone(), def.singleton), idx);
        }
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for ((_, name, _), &idx) in &g.methods {
            by_name.entry(name.clone()).or_default().push(idx);
        }
        for (name, idx) in annotation_idx {
            by_name.entry(name.to_string()).or_default().push(idx);
        }
        for (owner, def) in &methods {
            let from = g.methods[&(owner.clone(), def.name.clone(), def.singleton)];
            for callee in called_names(def) {
                for &to in by_name.get(&callee).into_iter().flatten() {
                    if to != from {
                        g.deps[from].push(to);
                    }
                }
            }
        }
        g.merkles = (0..g.bases.len()).map(|i| g.merkle_of(i)).collect();
        g
    }

    fn add(&mut self, base: u64) -> usize {
        self.bases.push(base);
        self.deps.push(Vec::new());
        self.bases.len() - 1
    }

    fn reachable(&self, start: usize) -> Vec<bool> {
        let mut seen = vec![false; self.bases.len()];
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(i) = stack.pop() {
            for &d in &self.deps[i] {
                if !seen[d] {
                    seen[d] = true;
                    stack.push(d);
                }
            }
        }
        seen
    }

    fn merkle_of(&self, start: usize) -> u64 {
        let bases: BTreeSet<u64> = self
            .reachable(start)
            .iter()
            .enumerate()
            .filter(|(_, &r)| r)
            .map(|(i, _)| self.bases[i])
            .collect();
        let mut h = SemHasher::new();
        h.write_usize(bases.len());
        for base in bases {
            h.write_u64(base);
        }
        h.finish()
    }

    fn method_merkles(&self) -> Vec<(MethodId, u64)> {
        self.methods.iter().map(|(id, &i)| (id.clone(), self.merkles[i])).collect()
    }

    fn helper_dependents(&self, helper: &str) -> Vec<MethodId> {
        let Some(&target) = self.helpers.get(helper) else { return Vec::new() };
        self.methods
            .iter()
            .filter(|(_, &from)| self.reachable(from)[target])
            .map(|(id, _)| id.clone())
            .collect()
    }
}

fn kind_tag(kind: MethodKind) -> u8 {
    match kind {
        MethodKind::Instance => 0,
        MethodKind::Singleton => 1,
    }
}

fn annotation_hash(key: &(String, MethodKind, String), sig: &MethodSig) -> u64 {
    let mut h = SemHasher::new();
    h.write_str("annotation");
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
    h.write_u8(match sig.term {
        TermEffect::Terminates => 0,
        TermEffect::BlockDep => 1,
        TermEffect::MayDiverge => 2,
    });
    h.write_u8(match sig.purity {
        PurityEffect::Pure => 0,
        PurityEffect::Impure => 1,
    });
    h.finish()
}

fn called_names(def: &MethodDef) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut visit = |e: &Expr| match &e.kind {
        ExprKind::Call { name, .. } | ExprKind::Ident(name) => {
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

fn for_each_comp_expr(sig: &MethodSig, f: &mut impl FnMut(&Expr)) {
    fn in_type(te: &TypeExpr, f: &mut impl FnMut(&Expr)) {
        match te {
            TypeExpr::Comp(spec) => {
                f(&spec.expr);
                in_type(&spec.bound, f);
            }
            TypeExpr::Generic(_, args) | TypeExpr::Union(args) | TypeExpr::Tuple(args) => {
                args.iter().for_each(|a| in_type(a, f));
            }
            TypeExpr::Optional(t) | TypeExpr::Vararg(t) => in_type(t, f),
            TypeExpr::FiniteHash(entries) => entries.iter().for_each(|(_, v)| in_type(v, f)),
            TypeExpr::Simple(_) | TypeExpr::ConstString(_) => {}
        }
    }
    for p in &sig.params {
        in_type(&p.ty, f);
    }
    in_type(&sig.ret, f);
    if let Some(block) = &sig.block {
        for_each_comp_expr(block, f);
    }
}

fn helper_refs(expr: &Expr, env: &CompRdl, out: &mut BTreeSet<String>) {
    expr.walk(&mut |e| match &e.kind {
        ExprKind::Call { name, .. } | ExprKind::Ident(name) if env.helpers.contains(name) => {
            out.insert(name.clone());
        }
        _ => {}
    });
}

/// Asserts the graph and the oracle agree on every method's Merkle hash and
/// on every helper's dependents.
fn assert_graph_matches_oracle(label: &str, env: &CompRdl, program: &Program) {
    let graph = DepGraph::build(env, program);
    let oracle = OracleGraph::build(env, program);
    assert_eq!(graph.method_merkles(), oracle.method_merkles(), "{label}: Merkle hashes");
    for helper in env.helpers.names() {
        assert_eq!(
            graph.helper_dependents(&helper),
            oracle.helper_dependents(&helper),
            "{label}: dependents of helper `{helper}`"
        );
    }
}

/// The names of the app's own methods both seeded edit injectors can edit.
fn editable_methods(app: &corpus::App) -> Vec<String> {
    let (program, _, _) = app.parse();
    let mut names: Vec<String> = program
        .methods()
        .into_iter()
        .filter(|(_, def)| def.span.file == 0)
        .map(|(_, def)| def.name.clone())
        .filter(|name| corpus::with_broken_method(app.source, name).is_some())
        .collect();
    names.sort();
    names.dedup();
    names
}

#[test]
fn merkles_match_the_full_graph_oracle_on_every_app_and_seeded_edit() {
    let mut rng = test_rng::Rng::new(0x0dd_5eed);
    for app in corpus::apps::all() {
        let env = app.build_env();
        let (program, _, _) = app.parse();
        assert_graph_matches_oracle(app.name, &env, &program);

        let methods = editable_methods(&app);
        assert!(!methods.is_empty(), "{}: no editable methods", app.name);
        for _ in 0..3 {
            let seed = rng.next_u64();
            let method = &methods[(seed % methods.len() as u64) as usize];
            let variants = [
                ("layout noise", Some(corpus::with_layout_noise(app.source, seed))),
                ("method edit", corpus::with_method_edit(app.source, method)),
                ("broken method", corpus::with_broken_method(app.source, method)),
            ];
            for (kind, source) in variants {
                let source = source.expect("editable_methods keeps only editable methods");
                let (edited, _, _) = app.parse_with_source(&source);
                assert_graph_matches_oracle(
                    &format!("{} ({kind} of {method})", app.name),
                    &env,
                    &edited,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// TERM0004 oracle: one program scan per annotation
// ---------------------------------------------------------------------------

fn effect_conflicts_oracle(
    env: &CompRdl,
    program: &Program,
    effects: &[InferredEffect],
) -> Vec<EffectViolation> {
    let mut inferred = EffectEnv::new();
    inferred.install_inferred(effects.iter().cloned());
    let mut annotated: Vec<_> = env.annotations.iter().collect();
    annotated.sort_by_key(|((class, kind, name), _)| {
        (class.clone(), name.clone(), *kind == MethodKind::Singleton)
    });
    let mut out = Vec::new();
    for ((class, kind, name), sig) in annotated {
        let singleton = *kind == MethodKind::Singleton;
        let Some((_, def)) = program
            .methods()
            .into_iter()
            .find(|(owner, def)| def.name == *name && def.singleton == singleton && owner == class)
        else {
            continue;
        };
        let Some(inf) = inferred.inferred(name) else { continue };
        out.extend(annotation_conflicts(name, sig.term, sig.purity, inf, def.span));
    }
    out
}

/// An inferred summary, for every method name the program defines, that is
/// as weak as possible: it conflicts with every `terminates:`/`pure:` claim.
fn pessimistic_effects(program: &Program) -> Vec<InferredEffect> {
    let names: BTreeSet<String> =
        program.methods().into_iter().map(|(_, def)| def.name.clone()).collect();
    names
        .into_iter()
        .map(|name| InferredEffect {
            term_blame: vec![name.clone(), "while loop".into()],
            purity_blame: vec![name.clone(), "@x=".into()],
            name,
            term: TermEffect::MayDiverge,
            purity: PurityEffect::Impure,
        })
        .collect()
}

/// Strengthens the annotation of every program method annotated exactly on
/// its owner to claim `terminates: :+, pure: :+`.  The corpus apps leave
/// their own annotations at the default (weakest) effects, so without this
/// no app would have a claim for `TERM0004` to contradict.
fn claim_strong_effects(env: &mut CompRdl, program: &Program) {
    for (owner, def) in program.methods() {
        let kind = if def.singleton { MethodKind::Singleton } else { MethodKind::Instance };
        let Some(sig) = env.annotations.get_exact(&owner, kind, &def.name) else { continue };
        let sig = sig.clone().with_term(TermEffect::Terminates).with_purity(PurityEffect::Pure);
        match kind {
            MethodKind::Instance => env.annotations.add_instance(&owner, &def.name, sig),
            MethodKind::Singleton => env.annotations.add_singleton(&owner, &def.name, sig),
        }
    }
}

#[test]
fn term0004_matches_the_per_annotation_scan_on_every_app() {
    let mut strong_conflicts = 0;
    for app in corpus::apps::all() {
        let mut env = app.build_env();
        let (program, _, _) = app.parse();
        let summaries = corpus::effects_pass(&program, &corpus::seed_map(&env), 1);
        let inferred = corpus::summaries_to_inferred(&summaries);
        assert_eq!(
            TypeChecker::effect_conflicts(&env, &program, &inferred),
            effect_conflicts_oracle(&env, &program, &inferred),
            "{}: inferred summaries",
            app.name
        );

        claim_strong_effects(&mut env, &program);
        for (label, effects) in
            [("inferred", inferred), ("pessimistic", pessimistic_effects(&program))]
        {
            let conflicts = TypeChecker::effect_conflicts(&env, &program, &effects);
            assert_eq!(
                conflicts,
                effect_conflicts_oracle(&env, &program, &effects),
                "{}: strong claims, {label} summaries",
                app.name
            );
            strong_conflicts += conflicts.len();
        }
    }
    assert!(strong_conflicts > 0, "the strengthened claims must conflict somewhere");
}

#[test]
fn term0004_matches_the_oracle_on_duplicate_and_singleton_definitions() {
    let mut env = CompRdl::new();
    comprdl::stdlib::register_all(&mut env);
    env.add_class("Counter", "Object");
    for name in ["step", "reset"] {
        env.type_sig_with_effects(
            "Counter",
            name,
            "() -> Integer",
            TermEffect::Terminates,
            PurityEffect::Pure,
        );
    }
    let singleton = rdl_types::parse_method_sig("() -> Integer")
        .expect("signature parses")
        .with_term(TermEffect::BlockDep)
        .with_purity(PurityEffect::Pure);
    env.annotations.add_singleton("Counter", "step", singleton);

    // `step` is defined twice as an instance method (the first definition
    // anchors the warning) and once as a singleton method; `reset` only as
    // a singleton, which its instance annotation must not match.
    let program = ruby_syntax::parse_program_strict(
        "class Counter\n  def step()\n    @n = 1\n  end\n  def self.step()\n    1\n  end\n  \
         def step()\n    2\n  end\n  def self.reset()\n    0\n  end\nend\n",
    )
    .expect("parse");
    let effects = pessimistic_effects(&program);
    let conflicts = TypeChecker::effect_conflicts(&env, &program, &effects);
    assert_eq!(conflicts, effect_conflicts_oracle(&env, &program, &effects));

    // Two warnings each for the instance and the singleton `step`, in
    // (class, name, singleton) order; none for `reset`.
    assert_eq!(conflicts.len(), 4, "{conflicts:#?}");
    let defs = program.methods();
    let first_step = defs.iter().find(|(_, d)| d.name == "step" && !d.singleton).unwrap().1;
    let singleton_step = defs.iter().find(|(_, d)| d.name == "step" && d.singleton).unwrap().1;
    assert!(conflicts[..2].iter().all(|v| v.span == first_step.span), "{conflicts:#?}");
    assert!(conflicts[2..].iter().all(|v| v.span == singleton_step.span), "{conflicts:#?}");
    assert!(conflicts[2].message.contains("terminates: :blockdep"), "{}", conflicts[2].message);
}
