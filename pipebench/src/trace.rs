//! The traced run's recorder: one span per call into a layer, kept in
//! memory and folded into per-layer metrics once the run ends.
//!
//! Spans are flat: every span's parent is the run it belongs to, and the
//! spans of one run never overlap, so a run's wall-clock minus the sum of
//! its spans is the time no layer accounts for.
//!
//! Process-global counters (the `rdl-types` interner and subtype verdict
//! cache) are read as a before/after delta around each single traced call,
//! never as absolute totals, so work done elsewhere in the process (setup,
//! earlier runs) cannot leak into a run's numbers.

use std::collections::BTreeMap;
use std::time::Instant;

/// One traced call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified stage name, e.g. `comprdl.checker.comp`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The run the span belongs to (its parent).
    pub run: usize,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// One completed run of the traced loop.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Wall-clock of the whole run, in milliseconds.
    pub wall_ms: f64,
    /// Counters recorded during the run, summed by name.
    pub counts: BTreeMap<&'static str, f64>,
}

/// Snapshot of the process-global counters a traced call may move.
#[derive(Debug, Clone, Copy)]
struct Globals {
    intern: rdl_types::InternStats,
    verdict: rdl_types::verdict_cache::VerdictCacheStats,
}

impl Globals {
    fn read() -> Self {
        Globals { intern: rdl_types::intern::stats(), verdict: rdl_types::verdict_cache::stats() }
    }
}

/// Span and counter recorder for the single-threaded traced run.
pub struct Tracer {
    origin: Instant,
    run: usize,
    run_start: Option<Instant>,
    counts: BTreeMap<&'static str, f64>,
    /// Every span recorded so far, in call order.
    pub spans: Vec<Span>,
    /// Every completed run, in order (index = run id).
    pub runs: Vec<RunRecord>,
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            run: 0,
            run_start: None,
            counts: BTreeMap::new(),
            spans: Vec::new(),
            runs: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the next run; spans and counts recorded until [`Tracer::end_run`]
    /// belong to it.
    pub fn begin_run(&mut self) {
        self.run = self.runs.len();
        self.counts.clear();
        self.run_start = Some(Instant::now());
    }

    /// Closes the current run.
    pub fn end_run(&mut self) {
        let start = self.run_start.take().expect("end_run without begin_run");
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        self.runs.push(RunRecord { wall_ms, counts: std::mem::take(&mut self.counts) });
    }

    /// Times one call into a layer as a span named `name`, and adds the
    /// global-counter deltas it caused to the current run.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let before = Globals::read();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let after = Globals::read();
        self.spans.push(Span { name, start_ns, end_ns, run: self.run });
        self.count("rdl-types.intern.hits", (after.intern.hits - before.intern.hits) as f64);
        self.count("rdl-types.intern.misses", (after.intern.misses - before.intern.misses) as f64);
        self.count("rdl-types.intern.nodes", (after.intern.nodes - before.intern.nodes) as f64);
        self.count("rdl-types.verdict.hits", (after.verdict.hits - before.verdict.hits) as f64);
        self.count(
            "rdl-types.verdict.misses",
            (after.verdict.misses - before.verdict.misses) as f64,
        );
        out
    }

    /// Adds `value` to the current run's counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_default() += value;
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Per-layer metrics folded out of a traced loop.
pub struct Summary {
    /// Mean milliseconds per run spent in each span name.
    pub stage_ms: BTreeMap<&'static str, f64>,
    /// Mean of (run wall-clock − sum of the run's spans), in milliseconds.
    pub unaccounted_ms: f64,
    /// Median run wall-clock, in milliseconds.
    pub wall_p50_ms: f64,
    /// Counters summed over the first `cycle` runs.
    pub cycle_counts: BTreeMap<&'static str, f64>,
    /// Number of runs the cycle counters cover.
    pub cycle_runs: usize,
}

impl Summary {
    /// Folds the tracer's spans and runs.  Times average over every run;
    /// counters sum over the first `cycle` runs only, a seed-determined set
    /// of runs, so they repeat exactly whatever the machine's speed.
    pub fn fold(tracer: &Tracer, cycle: usize) -> Summary {
        let runs = tracer.runs.len().max(1) as f64;
        let mut stage_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut covered = vec![0.0f64; tracer.runs.len()];
        for span in &tracer.spans {
            *stage_ms.entry(span.name).or_default() += span.ms() / runs;
            covered[span.run] += span.ms();
        }
        let unaccounted_ms =
            tracer.runs.iter().zip(&covered).map(|(r, c)| r.wall_ms - c).sum::<f64>() / runs;
        let walls: Vec<f64> = tracer.runs.iter().map(|r| r.wall_ms).collect();
        let cycle_runs = cycle.min(tracer.runs.len());
        let mut cycle_counts: BTreeMap<&'static str, f64> = BTreeMap::new();
        for run in &tracer.runs[..cycle_runs] {
            for (name, value) in &run.counts {
                *cycle_counts.entry(name).or_default() += value;
            }
        }
        Summary {
            stage_ms,
            unaccounted_ms,
            wall_p50_ms: crate::stats::percentile(&walls, 50.0),
            cycle_counts,
            cycle_runs,
        }
    }

    /// Mean milliseconds per run in stage `name` (0 when never entered).
    pub fn ms(&self, name: &str) -> f64 {
        self.stage_ms.get(name).copied().unwrap_or(0.0)
    }

    /// Cycle counter `name` per run.
    pub fn per_run(&self, name: &str) -> f64 {
        self.total(name) / self.cycle_runs.max(1) as f64
    }

    /// Cycle counter `name`, summed.
    pub fn total(&self, name: &str) -> f64 {
        self.cycle_counts.get(name).copied().unwrap_or(0.0)
    }

    /// `hits / (hits + misses)` over the cycle (0 when nothing was looked up).
    pub fn ratio(&self, hits: &str, misses: &str) -> f64 {
        let (h, m) = (self.total(hits), self.total(misses));
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_sums_cycle_counts_and_averages_times() {
        let mut t = Tracer::new();
        for run in 0..3 {
            t.begin_run();
            t.span("stage", || std::thread::sleep(std::time::Duration::from_millis(1)));
            t.count("hits", 1.0 + run as f64);
            t.count("misses", 1.0);
            t.end_run();
        }
        let s = Summary::fold(&t, 2);
        assert_eq!(s.cycle_runs, 2);
        assert_eq!(s.total("hits"), 3.0);
        assert_eq!(s.per_run("hits"), 1.5);
        assert_eq!(s.ratio("hits", "misses"), 0.6);
        assert!(s.ms("stage") >= 1.0);
        assert!(s.unaccounted_ms >= 0.0 && s.unaccounted_ms < s.ms("stage"));
    }
}
