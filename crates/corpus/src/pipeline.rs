//! The one per-app pipeline behind every Table 2 row.
//!
//! [`run_app`] evaluates one app in fixed stages: environment and parse,
//! interprocedural effect summaries, the comp-type checking run, the
//! dataflow lints, the plain-RDL checking run, recording every verdict back
//! into the cache, the test suite without and then with the inserted
//! dynamic checks, and finally the `TERM0004` annotation conflicts and the
//! row itself.
//!
//! A cold run is a cached run with nothing to replay.  Given a
//! [`CheckCache`], the effect, comp, plain and lint stages first replay
//! every verdict stored under the method's current `semdep` Merkle hash
//! (its own structure plus everything its verdict depends on: callees,
//! annotation signatures, type-level helper bodies), then compute the rest
//! for real.  Without a cache nothing replays, and a stage that replayed
//! nothing computes everything on the caller's worker budget and takes the
//! fresh result as is.  The validators a cache needs (file content hashes,
//! the environment hash and the dependency graph) are built only when a
//! cache was passed: a cold run never pays for them.
//!
//! Replay must never change an answer, so [`crate::stable_report`] over a
//! warm run is byte-identical to a cold one.  That equality is what makes
//! replaying a cached verdict sound to observe.

use crate::app::App;
use crate::harness::{HarnessError, Table2Row};
use crate::incremental::{AppRecheck, RecheckStats};
use analysis::ProgramSummaries;
use comprdl::persist::content_hash;
use comprdl::semdep::{env_hash, DepGraph};
use comprdl::{
    CheckCache, CheckConfig, CheckOptions, CompRdl, CompRdlHook, InferredEffect, LintRecord,
    MethodCheckResult, ProgramCheckResult, SharedMemo, TypeChecker,
};
use diagnostics::{Diagnostic, DiagnosticBag};
use rdl_types::TypeStore;
use ruby_interp::{Interpreter, RubyError};
use ruby_syntax::ast::MethodDef;
use ruby_syntax::Program;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cache together with the validators every replay and record of one app
/// is keyed on.
struct Cached<'c> {
    cache: &'c mut CheckCache,
    /// Content hashes of both files, indexed by span file id (app = 0,
    /// tests = 1).
    files: Vec<u64>,
    env_h: u64,
    graph: DepGraph,
}

impl Cached<'_> {
    fn merkle(&self, owner: &str, def: &MethodDef) -> Option<u64> {
        self.graph.merkle(owner, &def.name, def.singleton)
    }

    /// The lint replay key: the Merkle hash, because `LINT0105` follows
    /// taint through calls, so a lint verdict depends on the method's
    /// transitive callees (the semhash alone would replay stale findings
    /// after a callee edit).
    fn lint_key(&self, owner: &str, def: &MethodDef) -> u64 {
        self.merkle(owner, def).unwrap_or_else(|| ruby_syntax::method_hash(def))
    }
}

fn method_id(owner: &str, def: &MethodDef) -> (String, String, bool) {
    (owner.to_string(), def.name.clone(), def.singleton)
}

/// Evaluates one app over `source` (the app's own source, or an edited
/// variant of it): its Table 2 row plus how much of each pass replayed from
/// `cache`.  Checking and linting use `threads` workers (1 = sequential);
/// the checked test run records into `memo` under the app's namespace.
pub(crate) fn run_app(
    app: &App,
    source: &str,
    threads: usize,
    cache: Option<&mut CheckCache>,
    memo: &Arc<SharedMemo>,
) -> Result<(Table2Row, AppRecheck), HarnessError> {
    let (env, program, parse_diags) = env_and_parse(app, source);
    let mut cached = cache.map(|cache| Cached {
        cache,
        files: vec![content_hash(source), content_hash(app.test_suite)],
        env_h: env_hash(&env),
        graph: DepGraph::build(&env, &program),
    });

    // The summaries feed three consumers: the checkers' inferred effect
    // layer, the taint-aware lint pass, and the TERM0004 warnings.
    let (summaries, effects) = effects_stage(app.name, &env, &program, threads, cached.as_ref());
    let inferred = crate::effects::summaries_to_inferred(&summaries);

    let started = Instant::now();
    let (comp_result, comp) = check_stage(
        cached.as_ref(),
        app.name,
        &env,
        &program,
        CheckOptions::default(),
        threads,
        &inferred,
    );
    let check_time = started.elapsed();

    // Reads the lint section before `record` rebuilds the app entry.
    let (lints, lint, lint_records) =
        lint_stage(app.name, &program, &summaries, threads, cached.as_ref());

    let plain_key = format!("{}::plain", app.name);
    let (rdl_result, plain) = check_stage(
        cached.as_ref(),
        &plain_key,
        &env,
        &program,
        CheckOptions { use_comp_types: false, ..CheckOptions::default() },
        threads,
        &inferred,
    );

    // Recorded before the suites run, so a suite failure still leaves a
    // fresh cache.
    if let Some(c) = &mut cached {
        let selected = TypeChecker::labeled_methods(&env, &program, "app");
        for (key, result) in [(app.name, &comp_result), (plain_key.as_str(), &rdl_result)] {
            let verdicts: Vec<_> = selected
                .iter()
                .zip(&result.methods)
                .map(|((owner, def), verdict)| {
                    (owner.clone(), *def, c.merkle(owner, def).unwrap_or(0), verdict)
                })
                .collect();
            c.cache.record_app(key, c.env_h, c.files.clone(), &verdicts, &result.store);
        }
        // After `record_app`, which rebuilds the app entry against the
        // current file table (dropping any stale lint section; the
        // span-free effect section is kept and replaced here).
        c.cache.record_lints(app.name, c.files.clone(), &lint_records);
        c.cache
            .record_effects(app.name, crate::effects::summaries_to_records(&summaries, &c.graph));
    }

    // The last reader of the program before the suites, which consume it.
    let conflicts = TypeChecker::effect_conflicts(&env, &program, &inferred);

    let test_time_no_chk = run_plain_suite(app, program.clone())?;
    // Blame is collected, not raised, so a migrating suite like
    // `apps::sequel` completes and reports every blame.
    let (test_time_with_chk, dynamic_checks_run, hook) =
        run_checked_suite(app, &env, program, &comp_result, memo, true)?;
    let runtime_blames: DiagnosticBag =
        hook.take_blames().into_iter().map(Diagnostic::from).collect();

    // Canonical order (span, then code), so the row renders identically
    // whatever the thread count or replay split.  TERM0004 conflicts are
    // warnings, so `Table2Row::errors` is unaffected by them.
    let mut diagnostics: DiagnosticBag =
        comp_result.errors().into_iter().cloned().map(Diagnostic::from).collect();
    diagnostics.extend(conflicts.into_iter().map(Diagnostic::from));
    diagnostics.extend(parse_diags);
    diagnostics.sort_by_span_then_code();

    let row = Table2Row {
        program: app.name.to_string(),
        group: app.group.to_string(),
        methods: comp_result.methods_checked(),
        loc: ruby_syntax::count_loc(source),
        extra_annotations: app.extra_annotations,
        casts: comp_result.total_casts(),
        casts_rdl: rdl_result.total_casts(),
        check_time,
        test_time_no_chk,
        test_time_with_chk,
        dynamic_checks_run,
        diagnostics,
        runtime_blames,
        lints,
    };
    Ok((row, AppRecheck { app: app.name.to_string(), comp, plain, lint, effects }))
}

/// Builds the app's environment and parses `source` plus its test suite as
/// a two-file program (distinct span file ids, so dynamic-check sites
/// cannot collide across files).  Parsing never fails: recovery
/// diagnostics come back alongside the program.
pub(crate) fn env_and_parse(app: &App, source: &str) -> (CompRdl, Program, Vec<Diagnostic>) {
    let env = app.build_env();
    let (program, _sources, parse_diags) = app.parse_with_source(source);
    (env, program, parse_diags)
}

/// Effect summaries for every method: cached records whose Merkle hash
/// still matches are the baseline, and the rest are inferred against it,
/// whole SCCs at a time (a component replays only when every member hits).
fn effects_stage(
    app: &str,
    env: &CompRdl,
    program: &Program,
    threads: usize,
    cached: Option<&Cached>,
) -> (ProgramSummaries, RecheckStats) {
    let seed = crate::effects::seed_map(env);
    let fixed = cached
        .map(|c| crate::effects::replay_baseline(c.cache, app, program, &c.graph))
        .unwrap_or_default();
    let summaries = if fixed.is_empty() {
        crate::effects::effects_pass(program, &seed, threads)
    } else {
        ProgramSummaries::infer_with_baseline(program, &seed, &fixed).0
    };
    let resummarized: BTreeSet<usize> = summaries
        .iter()
        .filter(|s| !fixed.contains_key(&(s.owner.clone(), s.name.clone(), s.singleton)))
        .map(|s| s.scc)
        .collect();
    let methods = program.methods();
    let checked_methods: Vec<_> = methods
        .iter()
        .filter(|(owner, def)| {
            summaries
                .get(owner, &def.name, def.singleton)
                .is_some_and(|s| resummarized.contains(&s.scc))
        })
        .map(|(owner, def)| method_id(owner, def))
        .collect();
    let replayed = methods.len() - checked_methods.len();
    (summaries, RecheckStats { total: methods.len(), replayed, checked_methods })
}

/// One checking pass over the labeled methods, with the results keyed in
/// the cache under `key`: replay what the cache proves unchanged, check the
/// rest with the inferred effect layer installed, and merge the two so the
/// result is indistinguishable from a from-scratch
/// [`TypeChecker::check_labeled`] run.  (A replayed verdict already saw the
/// inferred layer: a summary can only change if some transitive callee
/// changed, which moves the caller's Merkle hash and forces a re-check.)
fn check_stage(
    cached: Option<&Cached>,
    key: &str,
    env: &CompRdl,
    program: &Program,
    options: CheckOptions,
    threads: usize,
    effects: &[InferredEffect],
) -> (ProgramCheckResult, RecheckStats) {
    let selected = TypeChecker::labeled_methods(env, program, "app");
    // Thawed types land in a fresh store, so the re-checked batch's
    // absorbed ids never collide with replayed ones.
    let mut store = TypeStore::new();
    let mut slots: Vec<Option<MethodCheckResult>> = selected
        .iter()
        .map(|(owner, def)| {
            let c = cached?;
            let merkle = c.merkle(owner, def)?;
            c.cache.replay(key, env, c.env_h, &c.files, owner, def, merkle, &mut store)
        })
        .collect();
    let misses: Vec<(String, &MethodDef)> = selected
        .iter()
        .zip(&slots)
        .filter(|(_, slot)| slot.is_none())
        .map(|(method, _)| method.clone())
        .collect();
    let stats = RecheckStats {
        total: selected.len(),
        replayed: selected.len() - misses.len(),
        checked_methods: misses.iter().map(|(owner, def)| method_id(owner, def)).collect(),
    };
    let mut cache_stats = comprdl::CacheStats::default();
    if !misses.is_empty() {
        let mut fresh =
            TypeChecker::check_methods_parallel(env, program, options, &misses, threads, effects);
        if stats.replayed == 0 {
            // Taken as is: absorbing it into the empty replay store would
            // deep-copy every store-backed type for nothing.
            return (fresh, stats);
        }
        comprdl::absorb_checked(&mut store, fresh.store, &mut fresh.methods);
        cache_stats = fresh.cache_stats;
        let mut fresh = fresh.methods.into_iter();
        for slot in slots.iter_mut().filter(|slot| slot.is_none()) {
            *slot = fresh.next();
        }
    }
    let methods = slots.into_iter().flatten().collect();
    (ProgramCheckResult { methods, store, cache_stats }, stats)
}

/// One method's lint verdict as the cache records it.
type LintEntry<'p> = (String, &'p MethodDef, u64, Vec<LintRecord>);

/// The lint pass: replays every method's findings the cache holds under
/// its lint key, lints the rest against the current summaries, and returns
/// the canonically sorted warnings, the counters and (with a cache) every
/// method's verdict to record.  Replayed records render through the same
/// code-derived notes as fresh findings, so the bag is byte-identical
/// either way.
fn lint_stage<'p>(
    app: &str,
    program: &'p Program,
    summaries: &ProgramSummaries,
    threads: usize,
    cached: Option<&Cached>,
) -> (DiagnosticBag, RecheckStats, Vec<LintEntry<'p>>) {
    let methods = program.methods();
    let replayed: Vec<Option<Vec<LintRecord>>> = methods
        .iter()
        .map(|(owner, def)| {
            let c = cached?;
            c.cache.replay_lints(app, &c.files, owner, def, c.lint_key(owner, def))
        })
        .collect();
    let misses: Vec<&(String, &MethodDef)> =
        methods.iter().zip(&replayed).filter(|(_, r)| r.is_none()).map(|(m, _)| m).collect();
    let fresh = if misses.len() == methods.len() {
        crate::lints::lint_pass_with_summaries(program, Some(summaries), threads)
    } else {
        misses
            .iter()
            .map(|(owner, def)| analysis::lint_method_with_summaries(owner, def, Some(summaries)))
            .collect()
    };
    let stats = RecheckStats {
        total: methods.len(),
        replayed: methods.len() - misses.len(),
        checked_methods: misses.iter().map(|(owner, def)| method_id(owner, def)).collect(),
    };

    let mut bag: DiagnosticBag = replayed
        .iter()
        .flatten()
        .flatten()
        .map(crate::lints::record_to_diagnostic)
        .chain(fresh.iter().flat_map(|m| &m.findings).map(Diagnostic::from))
        .collect();
    bag.sort_by_span_then_code();

    let records = match cached {
        None => Vec::new(),
        Some(c) => {
            let mut fresh = fresh.iter();
            methods
                .into_iter()
                .zip(replayed)
                .map(|((owner, def), records)| {
                    let records = records.unwrap_or_else(|| {
                        crate::lints::findings_to_records(
                            fresh.next().expect("one fresh lint verdict per miss"),
                        )
                    });
                    let key = c.lint_key(&owner, def);
                    (owner, def, key, records)
                })
                .collect()
        }
    };
    (bag, stats, records)
}

fn suite_error(app: &App, mode: &str, e: RubyError) -> HarnessError {
    HarnessError {
        app: app.name.to_string(),
        message: format!("test suite failed {mode}: {e}"),
        diagnostic: Some(Box::new(e.into())),
    }
}

/// Runs the app's test suite with no hook installed and returns its
/// wall-clock time.  The interpreter consumes `program`.
pub(crate) fn run_plain_suite(app: &App, program: Program) -> Result<Duration, HarnessError> {
    let plain = Interpreter::new(program);
    let started = Instant::now();
    plain.eval_program().map_err(|e| suite_error(app, "without checks", e))?;
    Ok(started.elapsed())
}

/// Runs the app's test suite with `comp`'s inserted dynamic checks, blame
/// collected rather than raised, recording into `memo` under the app's
/// registered namespace (registering labels the app's row in
/// [`crate::format_memo_stats`]).  Returns the suite's wall-clock time, the
/// number of checks executed, and the hook, which holds the blames and the
/// memo counters.  The interpreter consumes `program`.
pub(crate) fn run_checked_suite(
    app: &App,
    env: &CompRdl,
    program: Program,
    comp: &ProgramCheckResult,
    memo: &Arc<SharedMemo>,
    memoize: bool,
) -> Result<(Duration, u64, Rc<CompRdlHook>), HarnessError> {
    let hook = comprdl::make_hook_shared(
        comp.checks(),
        comp.store.clone(),
        env.classes.clone(),
        env.helpers.clone(),
        CheckConfig { memoize, raise_blame: false, ..CheckConfig::default() },
        memo.clone(),
        memo.register_namespace(app.name),
    );
    let mut checked = Interpreter::new(program);
    checked.set_hook(hook.clone());
    let started = Instant::now();
    checked.eval_program().map_err(|e| suite_error(app, "with dynamic checks", e))?;
    Ok((started.elapsed(), checked.checks_performed(), hook))
}
