//! Seeded property tests for the comp-type evaluation cache and the
//! parallel checker: across the full corpus, under randomized option
//! combinations, app orders and thread counts, the cached / parallel
//! checker must produce **byte-identical** diagnostic bags to the
//! uncached / sequential baseline.

use comprdl::{CheckOptions, SharedMemo, TypeChecker};
use diagnostics::DiagnosticBag;
use std::sync::Arc;
use test_rng::Rng;

/// Canonical byte rendering of a check result's diagnostics (code, message
/// and exact span of every error, in canonical order) plus its cast
/// accounting — everything a Table 2 row derives from the checker.
fn fingerprint(result: &comprdl::ProgramCheckResult) -> String {
    let mut bag: DiagnosticBag =
        result.errors().into_iter().cloned().map(diagnostics::Diagnostic::from).collect();
    bag.sort_by_span_then_code();
    let mut out = String::new();
    for d in bag.iter() {
        let s = d.primary_span();
        out.push_str(&format!("{}|{}|{}..{}@{}\n", d.code, d.message, s.start, s.end, s.line));
    }
    out.push_str(&format!(
        "casts={}/{} methods={} checks={}\n",
        result.explicit_casts(),
        result.implicit_casts(),
        result.methods_checked(),
        result.checks().len()
    ));
    out
}

fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below((i + 1) as u64) as usize;
        order.swap(i, j);
    }
    order
}

#[test]
fn cached_checking_is_byte_identical_to_uncached_across_the_corpus() {
    let apps = corpus::apps::all();
    let mut rng = Rng::new(0xCAFE01);
    for round in 0..4 {
        let options = CheckOptions {
            count_implicit_casts: rng.below(2) == 0,
            check_termination: rng.below(2) == 0,
            ..CheckOptions::default()
        };
        for &i in &shuffled(&mut rng, apps.len()) {
            let app = &apps[i];
            let env = app.build_env();
            let program =
                ruby_syntax::parse_program_strict(&app.full_source()).expect("corpus app parses");
            let cached = TypeChecker::new(&env, &program, options).check_labeled("app");
            let uncached =
                TypeChecker::new(&env, &program, CheckOptions { use_eval_cache: false, ..options })
                    .check_labeled("app");
            assert_eq!(
                fingerprint(&cached),
                fingerprint(&uncached),
                "round {round}: cached and uncached diagnostics diverged for {} \
                 (options {options:?})",
                app.name
            );
        }
    }
}

#[test]
fn parallel_checking_is_byte_identical_to_sequential_across_the_corpus() {
    let apps = corpus::apps::all();
    let mut rng = Rng::new(0xBEEF02);
    for round in 0..3 {
        for &i in &shuffled(&mut rng, apps.len()) {
            let app = &apps[i];
            let threads = 2 + rng.below(5) as usize; // 2..=6 workers
            let env = app.build_env();
            let program =
                ruby_syntax::parse_program_strict(&app.full_source()).expect("corpus app parses");
            let sequential =
                TypeChecker::new(&env, &program, CheckOptions::default()).check_labeled("app");
            let parallel = TypeChecker::check_labeled_parallel(
                &env,
                &program,
                CheckOptions::default(),
                "app",
                threads,
            );
            assert_eq!(
                fingerprint(&sequential),
                fingerprint(&parallel),
                "round {round}: parallel ({threads} workers) diverged for {}",
                app.name
            );
        }
    }
}

#[test]
fn evaluate_app_rows_render_identically_for_any_thread_count() {
    // The harness-level guarantee behind `table2_parallel`: a Table 2 row's
    // deterministic columns and sorted diagnostics do not depend on how
    // many threads checked and linted the app — for every app, including
    // Journey (two seeded bugs) and Sequel (runtime blames).
    let evaluate = |app: &corpus::App, threads: usize| {
        let row = corpus::evaluate_app_shared(app, threads, &Arc::new(SharedMemo::new()))
            .expect("evaluate");
        corpus::stable_report(std::slice::from_ref(&row))
    };
    for app in corpus::apps::all() {
        let base = evaluate(&app, 1);
        for threads in [2, 4, 8] {
            assert_eq!(
                base,
                evaluate(&app, threads),
                "{}: thread count {threads} changed the rendered row",
                app.name
            );
        }
    }
}
