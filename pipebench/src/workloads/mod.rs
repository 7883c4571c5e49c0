//! The three workloads.  Each is a closed loop with one client: the next
//! run starts only when the previous one has returned.  Why each workload
//! exists is recorded next to its definition.

pub mod corpus_cold;
pub mod dense_schema;
pub mod edit_stream;

use crate::trace::Tracer;

/// One workload: seeded inputs and references built at setup, then runs.
pub trait Workload {
    /// What one run produces, checked by [`Workload::verify`] after the
    /// timer stops.
    type Output;

    /// Number of runs in one seeded cycle of the workload's schedule (run
    /// `i` does the work of schedule entry `i % cycle()`).
    fn cycle(&self) -> usize;

    /// Run `i` through the library's real public entry points.
    fn run(&mut self, i: usize) -> Result<Self::Output, String>;

    /// Run `i` through the traced replica of those entry points.
    fn run_traced(&mut self, i: usize, t: &mut Tracer) -> Result<Self::Output, String>;

    /// Checks run `i`'s output against the reference built at setup.
    /// Returns the number of labeled methods that got a verdict.
    fn verify(&self, i: usize, out: &Self::Output) -> Result<usize, String>;
}

/// A non-zero generator seed derived from the workload seed and a salt, so
/// independent decisions draw from independent streams.
pub fn rng(seed: u64, salt: u64) -> test_rng::Rng {
    let mixed =
        (seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    test_rng::Rng::new(mixed | 1)
}

/// `corpus::stable_report` of a single row: the per-app byte-identity unit.
pub fn app_report(row: &corpus::Table2Row) -> String {
    corpus::stable_report(std::slice::from_ref(row))
}

/// Compares a run's per-app report with the reference, naming the app and
/// the first differing line on mismatch.
pub fn same_report(app: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let line = got
        .lines()
        .zip(want.lines())
        .find(|(g, w)| g != w)
        .map_or_else(|| "(length differs)".to_string(), |(g, w)| format!("got {g:?}, want {w:?}"));
    Err(format!("{app}: stable_report differs from the reference: {line}"))
}
