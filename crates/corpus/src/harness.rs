//! The evaluation harness: reproduces Table 1 and Table 2 of the paper.
//!
//! Every Table 2 row comes out of one private per-app pipeline (the
//! `pipeline` module).  The entry points differ only in what they hand
//! it: [`evaluate_app_shared`] and [`table2`] run it with no cache,
//! [`table2_parallel`] runs it for every app at once (with seeded fault
//! injection), and [`crate::evaluate_app_incremental`] /
//! [`crate::table2_incremental`] run it against a persistent check cache.
//! [`table2_overhead`] measures the dynamic-check overhead of each app's
//! suite, reusing the pipeline's parse and suite-run stages.

use crate::app::App;
use comprdl::{BlameDiagnostic, CheckOptions, CompRdl, SharedMemo, TypeChecker};
use diagnostics::{Diagnostic, DiagnosticBag};
use std::sync::Arc;
use std::time::Duration;

/// One row of Table 1 (library methods with comp type definitions).
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Library name.
    pub library: String,
    /// Number of comp type definitions (method annotations registered).
    pub comp_type_definitions: usize,
    /// Lines of type-level code (annotation strings).
    pub ruby_loc: usize,
}

/// One row of Table 2 (type checking results per subject program).
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Program name.
    pub program: String,
    /// Table 2 group ("API client libraries" / "Rails Applications").
    pub group: String,
    /// Number of methods type checked.
    pub methods: usize,
    /// Lines of code of the checked methods.
    pub loc: usize,
    /// Extra annotations written for globals / instance variables / callees.
    pub extra_annotations: usize,
    /// Casts needed with comp types.
    pub casts: usize,
    /// Casts needed with plain RDL (comp types disabled).
    pub casts_rdl: usize,
    /// Type checking time (comp types enabled).
    pub check_time: Duration,
    /// Test-suite time without dynamic checks.
    pub test_time_no_chk: Duration,
    /// Test-suite time with dynamic checks.
    pub test_time_with_chk: Duration,
    /// Number of dynamic checks executed during the checked test run.
    pub dynamic_checks_run: u64,
    /// Every error from the comp-type checking run as a [`Diagnostic`],
    /// aggregated per app through the shared diagnostics spine.
    pub diagnostics: DiagnosticBag,
    /// Every runtime blame the checked test run recorded, as span-carrying
    /// [`Diagnostic`]s, **in execution order** (never sorted: memoized and
    /// unmemoized runs must agree on the sequence, not just the set).
    /// Empty for apps whose suites never blame.
    pub runtime_blames: DiagnosticBag,
    /// `LINT01xx` warnings from the dataflow lint suite over the app's
    /// parsed program, sorted canonically (span, then code).  Warnings, not
    /// errors: they never count toward [`Table2Row::errors`].
    pub lints: DiagnosticBag,
}

impl Table2Row {
    /// Errors found by type checking.  Counts only
    /// [`diagnostics::Severity::Error`] entries of
    /// [`Table2Row::diagnostics`], so lint warnings (or any other
    /// warning-severity diagnostic an aggregator folds in) can never
    /// inflate the paper's "Errs" column.
    pub fn errors(&self) -> usize {
        self.diagnostics.error_count()
    }

    /// Lint warnings found by the dataflow lint suite (the size of
    /// [`Table2Row::lints`]).
    pub fn lint_warnings(&self) -> usize {
        self.lints.warning_count()
    }

    /// The dynamic-check overhead as a fraction (e.g. `0.016` for 1.6%).
    pub fn overhead(&self) -> f64 {
        let base = self.test_time_no_chk.as_secs_f64();
        if base == 0.0 {
            return 0.0;
        }
        (self.test_time_with_chk.as_secs_f64() - base) / base
    }
}

/// An error produced while evaluating an app (parse failure, runtime blame in
/// its test suite, ...).
#[derive(Debug, Clone)]
pub struct HarnessError {
    /// Which app failed.
    pub app: String,
    /// Description of the failure.
    pub message: String,
    /// The underlying error as a [`Diagnostic`], when one exists (a parse
    /// error or runtime error carries a span; a missing fixture does not).
    /// Boxed to keep the `Err` variant small.
    pub diagnostic: Option<Box<Diagnostic>>,
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.app, self.message)?;
        if let Some(d) = &self.diagnostic {
            write!(f, " [{}]", d.code)?;
        }
        Ok(())
    }
}

impl std::error::Error for HarnessError {}

/// The environment used for Table 1: core library + both DB DSL annotation
/// sets over the Discourse schema.
pub fn table1_env() -> CompRdl {
    crate::apps::discourse::app().build_env()
}

/// Regenerates Table 1: per library, the number of comp type definitions and
/// the lines of type-level code, plus the shared helper-method count.
pub fn table1() -> (Vec<Table1Row>, usize) {
    let env = table1_env();
    let libraries = [
        ("Array", "Array"),
        ("Hash", "Hash"),
        ("String", "String"),
        ("Float", "Float"),
        ("Integer", "Integer"),
        ("ActiveRecord", "Table"),
        ("Sequel", "Sequel::Dataset"),
    ];
    let rows = libraries
        .iter()
        .map(|(display, class)| Table1Row {
            library: display.to_string(),
            comp_type_definitions: env.annotation_count(class),
            ruby_loc: env.annotation_loc(class),
        })
        .collect();
    (rows, env.helper_count())
}

/// Runs the full evaluation for one app, type checking and linting its
/// methods with `check_threads` worker threads (1 = sequential), with the
/// checked test run recording into the given [`SharedMemo`] under the app's
/// namespace.  This is the per-app pipeline with no cache: every verdict is
/// computed fresh.  The diagnostics in the resulting row are sorted by span
/// then code, so the row renders byte-identically regardless of how many
/// threads checked it or in what order they finished; the runtime blames
/// are kept in execution order (which is deterministic per app).
///
/// Blame is collected rather than raised (`CheckConfig::raise_blame` off)
/// and lands in [`Table2Row::runtime_blames`] as span-carrying
/// [`Diagnostic`]s, so a blaming suite still reports a complete row.
///
/// # Errors
///
/// Returns a [`HarnessError`] if the app's test suite hits a runtime error
/// with or without the inserted checks (which should not happen for the
/// shipped corpus).
pub fn evaluate_app_shared(
    app: &App,
    check_threads: usize,
    memo: &Arc<SharedMemo>,
) -> Result<Table2Row, HarnessError> {
    Ok(crate::pipeline::run_app(app, app.source, check_threads, None, memo)?.0)
}

/// Aggregates diagnostics across evaluated rows: per app, the bag of every
/// type error its comp-type checking run produced (the per-app error counts
/// of the paper's Table 2, but carrying full span/code information).
pub fn corpus_diagnostics(rows: &[Table2Row]) -> Vec<(String, DiagnosticBag)> {
    rows.iter().map(|row| (row.program.clone(), row.diagnostics.clone())).collect()
}

/// Renders the per-app diagnostic aggregation as a compact table: app name,
/// error/warning counts, and counts by diagnostic code.
pub fn format_diagnostic_summary(per_app: &[(String, DiagnosticBag)]) -> String {
    let mut out = String::new();
    out.push_str(
        "Diagnostics per app (aggregated through the shared spine).
",
    );
    for (app, bag) in per_app {
        out.push_str(&format!(
            "{app:<12} {bag}
"
        ));
    }
    let total: usize = per_app.iter().map(|(_, b)| b.len()).sum();
    out.push_str(&format!(
        "{:<12} {total} diagnostics
",
        "Total"
    ));
    out
}

/// Runs the evaluation for every app in the corpus, sequentially, against
/// one shared runtime memo.
///
/// # Errors
///
/// Propagates the first [`HarnessError`] encountered.
pub fn table2() -> Result<Vec<Table2Row>, HarnessError> {
    let memo = Arc::new(SharedMemo::new());
    crate::apps::all().iter().map(|app| evaluate_app_shared(app, 1, &memo)).collect()
}

/// Runs the evaluation for every app in the corpus concurrently: one scoped
/// thread per app (the class table, annotations and helper registries are
/// `Send + Sync`, so each thread assembles and uses its environment
/// independently), with per-method work-stealing inside each app's checking
/// run.  All per-app hooks record into `memo`, each under its own
/// namespace; a store mutation (e.g. the Sequel app's mid-suite migration)
/// bumps only that namespace's epoch.  Rows come back in corpus order, each
/// row's diagnostics are sorted canonically and its runtime blames are
/// deterministic per app, so everything except the measured wall-clock
/// timings is byte-identical to a [`table2`] run.
///
/// Each app worker runs under `catch_unwind`, and a panic — injected by
/// `plan` or genuine — degrades to a placeholder row carrying one `ICE0001`
/// diagnostic instead of aborting the suite.  Every app the plan does not
/// name evaluates exactly as it would under
/// [`FaultPlan::none`](crate::fault::FaultPlan::none), so the healthy rows
/// are byte-identical under [`stable_report`] either way.
///
/// # Errors
///
/// Propagates the [`HarnessError`] of the first app (in corpus order) whose
/// evaluation *returned* an error.  Panics never propagate.
pub fn table2_parallel(
    memo: &Arc<SharedMemo>,
    plan: &crate::fault::FaultPlan,
) -> Result<Vec<Table2Row>, HarnessError> {
    let apps = crate::apps::all();
    let per_app_threads = std::thread::available_parallelism()
        .map(|n| n.get().div_ceil(apps.len().max(1)).max(2))
        .unwrap_or(2);
    let results: Vec<Result<Table2Row, HarnessError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = apps
            .iter()
            .map(|app| {
                scope.spawn(move || {
                    // AssertUnwindSafe: on panic the worker's partially
                    // mutated state (its private checker, its memo
                    // namespace) is discarded wholesale — nothing of it
                    // escapes into the placeholder row.
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        if plan.panics_for(app.name) {
                            panic!("injected fault: {} worker", app.name);
                        }
                        evaluate_app_shared(app, per_app_threads, memo)
                    }));
                    run.unwrap_or_else(|payload| Ok(ice_row(app, &*payload)))
                })
            })
            .collect();
        // The worker already converted panics; a panic reaching join here
        // would be a bug in the conversion itself, so fail loudly.
        handles.into_iter().map(|h| h.join().expect("fault isolation failed")).collect()
    });
    results.into_iter().collect()
}

/// The placeholder row for an app whose evaluation worker panicked: zero
/// counters, one `ICE0001` diagnostic naming the panic.  The diagnostic is
/// an error (the app was *not* evaluated) and [`stable_report`] renders it
/// on a distinct `ICE:`-prefixed line.
fn ice_row(app: &App, payload: &(dyn std::any::Any + Send)) -> Table2Row {
    let mut diagnostics = DiagnosticBag::new();
    diagnostics.push(
        Diagnostic::error(
            crate::fault::ICE_CODE,
            format!(
                "internal harness error: evaluation worker for `{}` panicked: {}",
                app.name,
                crate::fault::panic_message(payload)
            ),
        )
        .with_note("the app was not evaluated; all other apps completed normally"),
    );
    Table2Row {
        program: app.name.to_string(),
        group: app.group.to_string(),
        methods: 0,
        loc: ruby_syntax::count_loc(app.source),
        extra_annotations: app.extra_annotations,
        casts: 0,
        casts_rdl: 0,
        check_time: Duration::ZERO,
        test_time_no_chk: Duration::ZERO,
        test_time_with_chk: Duration::ZERO,
        dynamic_checks_run: 0,
        diagnostics,
        runtime_blames: DiagnosticBag::new(),
        lints: DiagnosticBag::new(),
    }
}

/// One row of the Table 2 **overhead** evaluation: the app's test-suite
/// wall-clock under four configurations (no dynamic checks at all, the
/// paper's pay-at-every-hit checks, the memoized fast path against a cold
/// shared memo, and a **warm** re-run against the now-populated memo), plus
/// the correctness evidence that makes the timings comparable — identical
/// check counts and byte-identical blame *sequences* across every checked
/// run.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Program name.
    pub program: String,
    /// Test-suite time with no hook installed.
    pub no_hook: Duration,
    /// Test-suite time with `CompRdlHook`, memoization off (the paper's
    /// baseline: every hit pays the full re-evaluation).
    pub unmemoized: Duration,
    /// Test-suite time with `CompRdlHook`, memoization on (cold memo).
    pub memoized: Duration,
    /// Test-suite time of a second memoized run against the same shared
    /// memo (warm: the run replays the first run's verdicts).
    pub memoized_warm: Duration,
    /// Dynamic checks executed (identical across all checked runs).
    pub checks_run: u64,
    /// Blame diagnostics produced (byte-identical sequence across all
    /// checked runs; 0 for every app whose suite does not migrate).
    pub blames: usize,
    /// Memo counters from the cold memoized run.
    pub memo_stats: comprdl::CacheStats,
    /// Memo counters from the warm memoized run (mostly hits, unless a
    /// mid-suite migration forces re-validation).
    pub warm_memo_stats: comprdl::CacheStats,
    /// Store-backed types interned after the unmemoized run.
    pub store_unmemoized: usize,
    /// Store-backed types interned after the memoized run (bounded by the
    /// number of distinct value shapes, not by hit count).
    pub store_memoized: usize,
}

impl OverheadRow {
    /// Dynamic-check overhead of the unmemoized hook as a fraction of the
    /// no-hook baseline.
    pub fn overhead_unmemoized(&self) -> f64 {
        overhead_fraction(self.no_hook, self.unmemoized)
    }

    /// Dynamic-check overhead of the memoized hook as a fraction of the
    /// no-hook baseline.
    pub fn overhead_memoized(&self) -> f64 {
        overhead_fraction(self.no_hook, self.memoized)
    }

    /// Dynamic-check overhead of the warm memoized run as a fraction of the
    /// no-hook baseline.
    pub fn overhead_memoized_warm(&self) -> f64 {
        overhead_fraction(self.no_hook, self.memoized_warm)
    }
}

fn overhead_fraction(base: Duration, with: Duration) -> f64 {
    let base = base.as_secs_f64();
    if base == 0.0 {
        return 0.0;
    }
    (with.as_secs_f64() - base) / base
}

/// Runs one app's test suite under the four Table 2 overhead
/// configurations — no hook, pay-at-every-hit, memoized against the given
/// (cold for this app) [`SharedMemo`], and a **warm** memoized re-run
/// against the same memo — and gates the result on run-to-run agreement:
///
/// * the memoized and unmemoized runs must execute the same number of
///   checks and produce **byte-identical blame sequences** (not just sets:
///   replay order is part of observable behaviour), and
/// * the warm run must agree with the cold one on both — a divergence means
///   the shared memo leaked a verdict across runs (cross-talk), and the row
///   is an error, not a measurement.
fn overhead_app(app: &App, memo: &Arc<SharedMemo>) -> Result<OverheadRow, HarnessError> {
    let err =
        |message: String| HarnessError { app: app.name.to_string(), message, diagnostic: None };

    let (env, program, _parse_diags) = crate::pipeline::env_and_parse(app, app.source);
    let comp = TypeChecker::new(&env, &program, CheckOptions::default()).check_labeled("app");
    // Each suite run consumes a program: copies for all but the last.
    let no_hook = crate::pipeline::run_plain_suite(app, program.clone())?;

    // One checked run; returns (time, checks, blames, stats, store size).
    let checked_run = |program, memoize: bool| {
        let (elapsed, checks, hook) =
            crate::pipeline::run_checked_suite(app, &env, program, &comp, memo, memoize)?;
        Ok::<_, HarnessError>((
            elapsed,
            checks,
            hook.take_blames(),
            hook.memo_stats(),
            hook.store_size(),
        ))
    };
    let (unmemoized, checks_unmemo, blames_unmemo, _, store_unmemoized) =
        checked_run(program.clone(), false)?;
    let (memoized, checks_memo, blames_memo, memo_stats, store_memoized) =
        checked_run(program.clone(), true)?;

    // The correctness gate: memoization must not change observable
    // behaviour.
    if checks_unmemo != checks_memo {
        return Err(err(format!(
            "memoized run executed {checks_memo} dynamic checks, unmemoized {checks_unmemo}"
        )));
    }
    if blames_unmemo != blames_memo {
        return Err(err(blame_divergence("unmemoized", &blames_unmemo, "memoized", &blames_memo)));
    }

    // The warm-run gate: a second memoized run against the now-populated
    // shared memo must reproduce the cold run exactly.  A divergence here
    // means a verdict leaked across runs or namespaces (shared-memo
    // cross-talk) and fails loudly.
    let (memoized_warm, checks_warm, blames_warm, warm_memo_stats, _) = checked_run(program, true)?;
    if checks_warm != checks_memo {
        return Err(err(format!(
            "shared-memo cross-talk: warm run executed {checks_warm} dynamic checks, cold \
             run {checks_memo}"
        )));
    }
    if blames_warm != blames_memo {
        return Err(err(format!(
            "shared-memo cross-talk: {}",
            blame_divergence("cold", &blames_memo, "warm", &blames_warm)
        )));
    }

    Ok(OverheadRow {
        program: app.name.to_string(),
        no_hook,
        unmemoized,
        memoized,
        memoized_warm,
        checks_run: checks_memo,
        blames: blames_memo.len(),
        memo_stats,
        warm_memo_stats,
        store_unmemoized,
        store_memoized,
    })
}

/// Describes how two blame sequences differ — first index of divergence
/// included, since order (not just membership) is gated.
fn blame_divergence(
    left_name: &str,
    left: &[BlameDiagnostic],
    right_name: &str,
    right: &[BlameDiagnostic],
) -> String {
    let at = left
        .iter()
        .zip(right.iter())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| left.len().min(right.len()));
    format!(
        "{left_name} and {right_name} blame sequences diverged at index {at} \
         ({} vs {} blames):\n  {left_name}: {left:?}\n  {right_name}: {right:?}",
        left.len(),
        right.len()
    )
}

/// Runs the Table 2 overhead evaluation for every app in the corpus against
/// one shared memo, which benches can inspect afterwards for its shard
/// hit/miss statistics.  Each app's suite runs with no hook, with the
/// paper's pay-at-every-hit checks, memoized against a cold memo, and
/// memoized again warm; the checked runs must agree on executed check
/// counts and on byte-identical blame *sequences* (blame is collected, not
/// raised, so the comparison always sees the complete sequence).
///
/// # Errors
///
/// Propagates the first [`HarnessError`] encountered: a suite's runtime
/// error, or a correctness-gate failure, which is what the CI smoke bench
/// relies on.
pub fn table2_overhead(memo: &Arc<SharedMemo>) -> Result<Vec<OverheadRow>, HarnessError> {
    crate::apps::all().iter().map(|app| overhead_app(app, memo)).collect()
}

/// Renders a [`SharedMemo`]'s statistics — aggregate hit / miss /
/// invalidation / eviction counters, hit rate, per-shard occupancy, and one
/// row per registered namespace (epoch and counters per app) — as the
/// block the CI smoke benches print, so regressions in cross-thread hit
/// rate or in namespace isolation are visible in CI logs.
pub fn format_memo_stats(memo: &SharedMemo) -> String {
    let stats = memo.stats();
    // One pass over the shards: the headline total must agree with the
    // per-shard list even if hooks are still recording concurrently.
    let sizes = memo.shard_sizes();
    let total: usize = sizes.iter().sum();
    let rendered: Vec<String> = sizes.iter().map(usize::to_string).collect();
    let mut out = format!(
        "SharedMemo: {total} entries across {} shards (capacity {}) [{}]\n\
         SharedMemo: {} hits / {} misses / {} invalidations / {} evictions \
         ({:.1}% hit rate)\n",
        memo.shard_count(),
        memo.capacity(),
        rendered.join(" "),
        stats.hits,
        stats.misses,
        stats.invalidations,
        stats.evictions,
        stats.hit_rate() * 100.0,
    );
    // Per-namespace rows: each app's epoch (how many migrations its hooks
    // observed) and its own counters, so one app's churn is attributable
    // instead of being smeared across the aggregate line.
    for ns in memo.namespace_stats() {
        let label = if ns.label.is_empty() {
            format!("ns#{:016x}", ns.namespace)
        } else {
            ns.label.clone()
        };
        out.push_str(&format!(
            "  {label:<12} epoch {:>3}  {:>6} hits / {:>6} misses / {:>4} inval / {:>4} evict \
             ({:.1}% hit rate)\n",
            ns.epoch,
            ns.stats.hits,
            ns.stats.misses,
            ns.stats.invalidations,
            ns.stats.evictions,
            ns.stats.hit_rate() * 100.0,
        ));
    }
    out
}

/// Renders the overhead rows in roughly the layout of the paper's Table 2
/// overhead columns, extended with the memoized fast path (cold and warm
/// against the shared memo) and the memo's evidence (hit counts, store
/// sizes).
pub fn format_overhead(rows: &[OverheadRow]) -> String {
    let mut out = String::new();
    out.push_str("Table 2 (overhead). Test-suite time under dynamic checks.\n");
    out.push_str(&format!(
        "{:<12} {:>7} {:>10} {:>11} {:>7} {:>11} {:>7} {:>9} {:>7} {:>9} {:>13} {:>6}\n",
        "Program",
        "DynChk",
        "NoHook(ms)",
        "Unmemo(ms)",
        "Ovh%",
        "Memo(ms)",
        "Ovh%",
        "Warm(ms)",
        "Ovh%",
        "Hits(c/w)",
        "Store(un/me)",
        "Blames"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>7} {:>10.3} {:>11.3} {:>7.1} {:>11.3} {:>7.1} {:>9.3} {:>7.1} \
             {:>4}/{:<4} {:>6}/{:<6} {:>6}\n",
            r.program,
            r.checks_run,
            r.no_hook.as_secs_f64() * 1000.0,
            r.unmemoized.as_secs_f64() * 1000.0,
            r.overhead_unmemoized() * 100.0,
            r.memoized.as_secs_f64() * 1000.0,
            r.overhead_memoized() * 100.0,
            r.memoized_warm.as_secs_f64() * 1000.0,
            r.overhead_memoized_warm() * 100.0,
            r.memo_stats.hits,
            r.warm_memo_stats.hits,
            r.store_unmemoized,
            r.store_memoized,
            r.blames
        ));
    }
    let total_un: f64 = rows.iter().map(|r| r.unmemoized.as_secs_f64()).sum();
    let total_memo: f64 = rows.iter().map(|r| r.memoized.as_secs_f64()).sum();
    let total_warm: f64 = rows.iter().map(|r| r.memoized_warm.as_secs_f64()).sum();
    let total_base: f64 = rows.iter().map(|r| r.no_hook.as_secs_f64()).sum();
    if total_base > 0.0 {
        out.push_str(&format!(
            "Overhead across the corpus: {:.1}% unmemoized, {:.1}% memoized, {:.1}% warm\n",
            (total_un - total_base) / total_base * 100.0,
            (total_memo - total_base) / total_base * 100.0,
            (total_warm - total_base) / total_base * 100.0
        ));
    }
    out
}

/// Renders every deterministic column of the given rows (plus each row's
/// diagnostic summary) — everything in Table 2 except the measured
/// wall-clock timings.  Sequential and parallel runs over the same corpus
/// must produce byte-identical output from this function; the test suite
/// and the CI smoke bench enforce that.
pub fn stable_report(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>6} {:>6} {:>7} {:>6} {:>10} {:>7} {:>5} {:>5}\n",
        "Program", "Meths", "LoC", "Annots", "Casts", "Casts(RDL)", "DynChk", "Errs", "Lints"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>6} {:>6} {:>7} {:>6} {:>10} {:>7} {:>5} {:>5}\n",
            r.program,
            r.methods,
            r.loc,
            r.extra_annotations,
            r.casts,
            r.casts_rdl,
            r.dynamic_checks_run,
            r.errors(),
            r.lint_warnings()
        ));
        for d in r.diagnostics.iter() {
            // Internal errors (worker panics) render on a distinct line so
            // a degraded row can never be mistaken for checker output.
            if d.code == crate::fault::ICE_CODE {
                out.push_str(&format!("    ICE: {d}\n"));
            } else {
                out.push_str(&format!("    {d}\n"));
            }
        }
        // Runtime blames in execution order: deterministic per app, so this
        // stays byte-identical between sequential / parallel and memoized /
        // unmemoized runs.
        for d in r.runtime_blames.iter() {
            out.push_str(&format!("    blame: {d}\n"));
        }
        // Lint warnings in canonical order (sorted when the row was built).
        for d in r.lints.iter() {
            out.push_str(&format!("    {d}\n"));
        }
    }
    out.push_str(&format_diagnostic_summary(&corpus_diagnostics(rows)));
    out
}

/// Renders an app's runtime blame diagnostics as annotated source snippets
/// through `diagnostics::render_in`, resolving each blame's call-site span
/// against the app's two-file [`diagnostics::SourceSet`].  Returns the
/// empty string for apps that never blamed.
pub fn render_runtime_blames(app: &App, row: &Table2Row) -> String {
    if row.runtime_blames.is_empty() {
        return String::new();
    }
    let (_, sources, _) = app.parse();
    let mut out = String::new();
    for d in row.runtime_blames.iter() {
        out.push_str(&diagnostics::render_in(&sources, d));
        out.push('\n');
    }
    out
}

/// Renders Table 1 in roughly the paper's layout.
pub fn format_table1(rows: &[Table1Row], helper_count: usize) -> String {
    let mut out = String::new();
    out.push_str("Table 1. Library methods with comp type definitions.\n");
    out.push_str(&format!(
        "{:<14} {:>20} {:>10}\n",
        "Library", "Comp Type Definitions", "Ruby LoC"
    ));
    let mut total_defs = 0;
    let mut total_loc = 0;
    for r in rows {
        total_defs += r.comp_type_definitions;
        total_loc += r.ruby_loc;
        out.push_str(&format!(
            "{:<14} {:>20} {:>10}\n",
            r.library, r.comp_type_definitions, r.ruby_loc
        ));
    }
    out.push_str(&format!("{:<14} {:>20} {:>10}\n", "Total", total_defs, total_loc));
    out.push_str(&format!("Helper methods (shared): {helper_count}\n"));
    out
}

/// Renders Table 2 in roughly the paper's layout.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 2. Type checking results.\n");
    out.push_str(&format!(
        "{:<12} {:>6} {:>6} {:>7} {:>6} {:>10} {:>10} {:>12} {:>12} {:>5}\n",
        "Program",
        "Meths",
        "LoC",
        "Annots",
        "Casts",
        "Casts(RDL)",
        "Check(ms)",
        "NoChk(ms)",
        "w/Chk(ms)",
        "Errs"
    ));
    let mut totals = (0usize, 0usize, 0usize, 0usize, 0usize, 0usize, 0.0f64, 0.0f64, 0.0f64);
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>6} {:>6} {:>7} {:>6} {:>10} {:>10.2} {:>12.3} {:>12.3} {:>5}\n",
            r.program,
            r.methods,
            r.loc,
            r.extra_annotations,
            r.casts,
            r.casts_rdl,
            r.check_time.as_secs_f64() * 1000.0,
            r.test_time_no_chk.as_secs_f64() * 1000.0,
            r.test_time_with_chk.as_secs_f64() * 1000.0,
            r.errors()
        ));
        totals.0 += r.methods;
        totals.1 += r.loc;
        totals.2 += r.extra_annotations;
        totals.3 += r.casts;
        totals.4 += r.casts_rdl;
        totals.5 += r.errors();
        totals.6 += r.check_time.as_secs_f64() * 1000.0;
        totals.7 += r.test_time_no_chk.as_secs_f64() * 1000.0;
        totals.8 += r.test_time_with_chk.as_secs_f64() * 1000.0;
    }
    out.push_str(&format!(
        "{:<12} {:>6} {:>6} {:>7} {:>6} {:>10} {:>10.2} {:>12.3} {:>12.3} {:>5}\n",
        "Total",
        totals.0,
        totals.1,
        totals.2,
        totals.3,
        totals.4,
        totals.6,
        totals.7,
        totals.8,
        totals.5
    ));
    let ratio = if totals.3 > 0 { totals.4 as f64 / totals.3 as f64 } else { f64::INFINITY };
    out.push_str(&format!("Cast reduction (RDL / CompRDL): {ratio:.2}x\n"));
    if totals.7 > 0.0 {
        out.push_str(&format!(
            "Dynamic check overhead: {:.1}%\n",
            (totals.8 - totals.7) / totals.7 * 100.0
        ));
    }
    out
}
