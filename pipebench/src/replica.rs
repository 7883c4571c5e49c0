//! Traced replicas of the two per-app entry points.
//!
//! [`evaluate_app_shared`] and [`evaluate_app_incremental`] call the same
//! public library functions, in the same order, as
//! `corpus::evaluate_app_shared` and `corpus::evaluate_app_incremental`
//! (sequential, one checking thread), with every call into a layer wrapped
//! in a [`Tracer`] span.  The workloads compare each replica row's
//! `corpus::stable_report` with the real entry point's, byte for byte, so
//! the stage split cannot drift from the pipeline it explains.

use crate::trace::Tracer;
use comprdl::persist::content_hash;
use comprdl::semdep::{env_hash, DepGraph};
use comprdl::{
    CheckCache, CheckConfig, CheckOptions, CompRdl, InferredEffect, MethodCheckResult,
    ProgramCheckResult, SharedMemo, TypeChecker,
};
use corpus::{App, AppRecheck, HarnessError, RecheckStats, Table2Row};
use diagnostics::{Diagnostic, DiagnosticBag};
use rdl_types::TypeStore;
use ruby_interp::Interpreter;
use ruby_syntax::ast::MethodDef;
use ruby_syntax::Program;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

fn harness_error(app: &App, message: String, diagnostic: Option<Box<Diagnostic>>) -> HarnessError {
    HarnessError { app: app.name.to_string(), message, diagnostic }
}

/// The shared tail of both entry points: the two test-suite runs, the
/// TERM0004 conflicts and the row assembly.
#[allow(clippy::too_many_arguments)]
fn finish_row(
    t: &mut Tracer,
    app: &App,
    source: &str,
    env: &CompRdl,
    program: &Program,
    parse_diags: Vec<Diagnostic>,
    inferred: &[InferredEffect],
    comp_result: &ProgramCheckResult,
    rdl_result: &ProgramCheckResult,
    check_time: Duration,
    lints: DiagnosticBag,
    memo: &Arc<SharedMemo>,
) -> Result<Table2Row, HarnessError> {
    let outcome =
        t.span("ruby-interp.suite_plain", || Interpreter::new(program.clone()).eval_program());
    outcome.map_err(|e| {
        harness_error(
            app,
            format!("test suite failed without checks: {e}"),
            Some(Box::new(e.into())),
        )
    })?;
    let test_time_no_chk =
        t.spans.last().map_or(Duration::ZERO, |s| Duration::from_nanos(s.end_ns - s.start_ns));

    let memo_before = memo.stats();
    let (outcome, checked, blames) = t.span("comprdl.runtime.suite_checked", || {
        let hook = comprdl::make_hook_shared(
            comp_result.checks(),
            comp_result.store.clone(),
            env.classes.clone(),
            env.helpers.clone(),
            CheckConfig { raise_blame: false, ..CheckConfig::default() },
            memo.clone(),
            memo.register_namespace(app.name),
        );
        let mut checked = Interpreter::new(program.clone());
        checked.set_hook(hook.clone());
        let outcome = checked.eval_program();
        (outcome, checked.checks_performed(), hook.take_blames())
    });
    let memo_after = memo.stats();
    t.count("comprdl.runtime.memo.hits", (memo_after.hits - memo_before.hits) as f64);
    t.count("comprdl.runtime.memo.misses", (memo_after.misses - memo_before.misses) as f64);
    let test_time_with_chk =
        t.spans.last().map_or(Duration::ZERO, |s| Duration::from_nanos(s.end_ns - s.start_ns));
    outcome.map_err(|e| {
        harness_error(
            app,
            format!("test suite failed with dynamic checks: {e}"),
            Some(Box::new(e.into())),
        )
    })?;
    let runtime_blames: DiagnosticBag = blames.into_iter().map(Diagnostic::from).collect();
    t.count("comprdl.runtime.checks", checked as f64);
    t.count("comprdl.runtime.blames", runtime_blames.len() as f64);

    let conflicts = t
        .span("comprdl.checker.term0004", || TypeChecker::effect_conflicts(env, program, inferred));
    t.count("analysis.lints.findings", lints.len() as f64);
    Ok(t.span("corpus.assemble", || {
        let mut diagnostics: DiagnosticBag =
            comp_result.errors().into_iter().cloned().map(Diagnostic::from).collect();
        diagnostics.extend(conflicts.into_iter().map(Diagnostic::from));
        diagnostics.extend(parse_diags);
        diagnostics.sort_by_span_then_code();
        Table2Row {
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
            dynamic_checks_run: checked,
            diagnostics,
            runtime_blames,
            lints,
        }
    }))
}

/// Builds the environment and parses `source`, recording both stages.
fn env_and_parse(t: &mut Tracer, app: &App, source: &str) -> (CompRdl, Program, Vec<Diagnostic>) {
    let env = t.span("comprdl.env.build", || app.build_env());
    t.count("comprdl.env.annotations", env.annotations.method_count() as f64);
    let (program, _sources, parse_diags) =
        t.span("ruby-syntax.parse", || app.parse_with_source(source));
    t.count("ruby-syntax.recovery_diags", parse_diags.len() as f64);
    (env, program, parse_diags)
}

fn record_eval_cache(t: &mut Tracer, result: &ProgramCheckResult) {
    t.count("comprdl.checker.eval_cache.hits", result.cache_stats.hits as f64);
    t.count("comprdl.checker.eval_cache.misses", result.cache_stats.misses as f64);
}

/// Traced replica of `corpus::evaluate_app_shared(app, 1, memo)`.
pub fn evaluate_app_shared(
    t: &mut Tracer,
    app: &App,
    memo: &Arc<SharedMemo>,
) -> Result<Table2Row, HarnessError> {
    let (env, program, parse_diags) = env_and_parse(t, app, app.source);

    let (summaries, inferred) = t.span("analysis.summaries", || {
        let seed = corpus::seed_map(&env);
        let summaries = corpus::effects_pass(&program, &seed, 1);
        let inferred = corpus::summaries_to_inferred(&summaries);
        (summaries, inferred)
    });
    t.count("analysis.summaries.rechecked", summaries.len() as f64);

    let comp_result = t.span("comprdl.checker.comp", || {
        let mut checker = TypeChecker::new(&env, &program, CheckOptions::default());
        checker.install_inferred_effects(&inferred);
        checker.check_labeled("app")
    });
    let check_time =
        t.spans.last().map_or(Duration::ZERO, |s| Duration::from_nanos(s.end_ns - s.start_ns));
    t.count("comprdl.checker.methods_checked", comp_result.methods_checked() as f64);
    record_eval_cache(t, &comp_result);

    let lints = t.span("analysis.lints", || {
        corpus::lint_bag(&corpus::lint_pass_with_summaries(&program, Some(&summaries), 1))
    });

    let rdl_result = t.span("comprdl.checker.plain", || {
        TypeChecker::new(
            &env,
            &program,
            CheckOptions { use_comp_types: false, ..CheckOptions::default() },
        )
        .check_labeled("app")
    });

    let row = finish_row(
        t,
        app,
        app.source,
        &env,
        &program,
        parse_diags,
        &inferred,
        &comp_result,
        &rdl_result,
        check_time,
        lints,
        memo,
    );
    // The real entry point frees these on return; time it, too.
    t.span("corpus.teardown", move || drop((env, program, summaries, comp_result, rdl_result)));
    row
}

/// The per-method replay / re-check split of one incremental checking pass
/// (the private `check_incremental` of `corpus::incremental`), with each
/// cache replay and the re-check of the misses traced separately.
#[allow(clippy::too_many_arguments)]
fn check_incremental(
    t: &mut Tracer,
    stage: &'static str,
    cache: &CheckCache,
    cache_key: &str,
    env: &CompRdl,
    program: &Program,
    options: CheckOptions,
    env_h: u64,
    files: &[u64],
    graph: &DepGraph,
    effects: &[InferredEffect],
) -> (ProgramCheckResult, RecheckStats) {
    let selected = TypeChecker::labeled_methods(env, program, "app");
    let total = selected.len();

    let mut store = TypeStore::new();
    let mut slots: Vec<Option<MethodCheckResult>> = Vec::with_capacity(total);
    let mut to_check: Vec<(usize, (String, &MethodDef))> = Vec::new();
    for (idx, (owner, def)) in selected.iter().enumerate() {
        let replayed = t.span("comprdl.persist.replay", || {
            graph.merkle(owner, &def.name, def.singleton).and_then(|merkle| {
                cache.replay(cache_key, env, env_h, files, owner, def, merkle, &mut store)
            })
        });
        match replayed {
            Some(result) => slots.push(Some(result)),
            None => {
                slots.push(None);
                to_check.push((idx, (owner.clone(), *def)));
            }
        }
    }
    let replayed = total - to_check.len();
    let checked_methods: Vec<(String, String, bool)> = to_check
        .iter()
        .map(|(_, (owner, def))| (owner.clone(), def.name.clone(), def.singleton))
        .collect();

    let mut cache_stats = comprdl::CacheStats::default();
    if !to_check.is_empty() {
        let subset: Vec<(String, &MethodDef)> =
            to_check.iter().map(|(_, pair)| pair.clone()).collect();
        let fresh = t.span(stage, || {
            let mut checker = TypeChecker::new(env, program, options);
            checker.install_inferred_effects(effects);
            checker.check_methods(&subset)
        });
        cache_stats = fresh.cache_stats;
        let shift = store.absorb(fresh.store);
        for ((idx, _), mut result) in to_check.into_iter().zip(fresh.methods) {
            for check in &mut result.checks {
                check.expected_return = shift.apply(&check.expected_return);
                if let Some(consistency) = &mut check.consistency {
                    consistency.expected = shift.apply(&consistency.expected);
                }
            }
            slots[idx] = Some(result);
        }
    }

    let methods: Vec<MethodCheckResult> = slots.into_iter().flatten().collect();
    (
        ProgramCheckResult { methods, store, cache_stats },
        RecheckStats { total, replayed, checked_methods },
    )
}

/// Traced replica of `corpus::evaluate_app_incremental`.
pub fn evaluate_app_incremental(
    t: &mut Tracer,
    app: &App,
    source_override: Option<&str>,
    cache: &mut CheckCache,
    memo: &Arc<SharedMemo>,
) -> Result<(Table2Row, AppRecheck), HarnessError> {
    let source = source_override.unwrap_or(app.source);
    let (env, program, parse_diags) = env_and_parse(t, app, source);

    let files = vec![content_hash(source), content_hash(app.test_suite)];
    let env_h = t.span("comprdl.semdep.env_hash", || env_hash(&env));
    let graph = t.span("comprdl.semdep.graph", || DepGraph::build(&env, &program));

    let seed = t.span("analysis.summaries", || corpus::seed_map(&env));
    let fixed = t.span("comprdl.persist.replay", || {
        corpus::replay_baseline(cache, app.name, &program, &graph)
    });
    let (summaries, inferred, effect_stats) = t.span("analysis.summaries", || {
        let (summaries, _) =
            analysis::ProgramSummaries::infer_with_baseline(&program, &seed, &fixed);
        let all_methods = program.methods();
        let resummarized_sccs: BTreeSet<usize> = {
            let mut members: BTreeMap<usize, Vec<(String, String, bool)>> = BTreeMap::new();
            for s in summaries.iter() {
                members.entry(s.scc).or_default().push((
                    s.owner.clone(),
                    s.name.clone(),
                    s.singleton,
                ));
            }
            members
                .into_iter()
                .filter(|(_, ids)| !ids.iter().all(|id| fixed.contains_key(id)))
                .map(|(scc, _)| scc)
                .collect()
        };
        let effect_checked: Vec<(String, String, bool)> = all_methods
            .iter()
            .filter(|(owner, def)| {
                summaries
                    .get(owner, &def.name, def.singleton)
                    .is_some_and(|s| resummarized_sccs.contains(&s.scc))
            })
            .map(|(owner, def)| (owner.clone(), def.name.clone(), def.singleton))
            .collect();
        let effect_stats = RecheckStats {
            total: all_methods.len(),
            replayed: all_methods.len() - effect_checked.len(),
            checked_methods: effect_checked,
        };
        let inferred = corpus::summaries_to_inferred(&summaries);
        (summaries, inferred, effect_stats)
    });
    t.count("analysis.summaries.replayed", effect_stats.replayed as f64);
    t.count("analysis.summaries.rechecked", effect_stats.checked() as f64);

    let start_spans = t.spans.len();
    let (comp_result, comp_stats) = check_incremental(
        t,
        "comprdl.checker.comp",
        cache,
        app.name,
        &env,
        &program,
        CheckOptions::default(),
        env_h,
        &files,
        &graph,
        &inferred,
    );
    // The real entry point times the whole replay + re-check as its check
    // time (a column stable_report does not print).
    let check_time =
        t.spans[start_spans..].iter().map(|s| Duration::from_nanos(s.end_ns - s.start_ns)).sum();
    t.count("comprdl.checker.methods_checked", comp_stats.checked() as f64);
    record_eval_cache(t, &comp_result);

    let all_methods = program.methods();
    let mut lint_stats =
        RecheckStats { total: all_methods.len(), replayed: 0, checked_methods: Vec::new() };
    let mut lint_bag = DiagnosticBag::new();
    let mut lint_records: Vec<(String, &MethodDef, u64, Vec<comprdl::LintRecord>)> =
        Vec::with_capacity(all_methods.len());
    for (owner, def) in &all_methods {
        let merkle = graph
            .merkle(owner, &def.name, def.singleton)
            .unwrap_or_else(|| ruby_syntax::method_hash(def));
        let replayed = t.span("comprdl.persist.replay", || {
            cache.replay_lints(app.name, &files, owner, def, merkle)
        });
        match replayed {
            Some(records) => {
                lint_stats.replayed += 1;
                lint_bag.extend(records.iter().map(corpus::record_to_diagnostic));
                lint_records.push((owner.clone(), *def, merkle, records));
            }
            None => {
                lint_stats.checked_methods.push((owner.clone(), def.name.clone(), def.singleton));
                let fresh = t.span("analysis.lints", || {
                    analysis::lint_method_with_summaries(owner, def, Some(&summaries))
                });
                lint_bag.extend(fresh.findings.iter().map(Diagnostic::from));
                lint_records.push((
                    owner.clone(),
                    *def,
                    merkle,
                    corpus::findings_to_records(&fresh),
                ));
            }
        }
    }
    t.span("analysis.lints", || lint_bag.sort_by_span_then_code());
    t.count("comprdl.persist.lint.replayed", lint_stats.replayed as f64);
    t.count("comprdl.persist.lint.rechecked", lint_stats.checked() as f64);
    let lint_files = files.clone();

    let (rdl_result, plain_stats) = check_incremental(
        t,
        "comprdl.checker.plain",
        cache,
        &format!("{}::plain", app.name),
        &env,
        &program,
        CheckOptions { use_comp_types: false, ..CheckOptions::default() },
        env_h,
        &files,
        &graph,
        &inferred,
    );
    for stats in [&comp_stats, &plain_stats] {
        t.count("comprdl.persist.replayed", stats.replayed as f64);
        t.count("comprdl.persist.rechecked", stats.checked() as f64);
    }

    let selected = TypeChecker::labeled_methods(&env, &program, "app");
    fn freeze_list<'a>(
        selected: &[(String, &'a MethodDef)],
        graph: &DepGraph,
        result: &'a ProgramCheckResult,
    ) -> Vec<(String, &'a MethodDef, u64, &'a MethodCheckResult)> {
        selected
            .iter()
            .zip(&result.methods)
            .map(|((owner, def), verdict)| {
                let merkle = graph.merkle(owner, &def.name, def.singleton).unwrap_or(0);
                (owner.clone(), *def, merkle, verdict)
            })
            .collect()
    }
    t.span("comprdl.persist.record", || {
        cache.record_app(
            app.name,
            env_h,
            files.clone(),
            &freeze_list(&selected, &graph, &comp_result),
            &comp_result.store,
        );
        cache.record_app(
            &format!("{}::plain", app.name),
            env_h,
            files,
            &freeze_list(&selected, &graph, &rdl_result),
            &rdl_result.store,
        );
        cache.record_lints(app.name, lint_files, &lint_records);
        cache.record_effects(app.name, corpus::summaries_to_records(&summaries, &graph));
    });

    let row = finish_row(
        t,
        app,
        source,
        &env,
        &program,
        parse_diags,
        &inferred,
        &comp_result,
        &rdl_result,
        check_time,
        lint_bag,
        memo,
    );
    drop((lint_records, selected, all_methods));
    t.span("corpus.teardown", move || {
        drop((env, program, graph, seed, fixed, summaries, comp_result, rdl_result))
    });
    let stats = AppRecheck {
        app: app.name.to_string(),
        comp: comp_stats,
        plain: plain_stats,
        lint: lint_stats,
        effects: effect_stats,
    };
    Ok((row?, stats))
}
