//! Pipeline benchmark for CompRDL-rs: a single-threaded, closed-loop load
//! generator driving three workloads through the library's public entry
//! points.  See `README.md` next to this crate for the workloads, the
//! metrics and the layer-to-metric map.
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload <corpus_cold|edit_stream|dense_schema> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.  `--trace 0` reports the
//! end-to-end metrics of an untraced run; `--trace 1` reports the
//! per-layer metrics of a traced run (plus interleaved untraced runs, for
//! the tracing overhead).  End-to-end times are in reference units (see
//! [`probe`]); the traced run also reports raw wall-clock.

mod probe;
mod replica;
mod stats;
mod trace;
mod workloads;

use probe::Probe;
use stats::percentile;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{Summary, Tracer};
use workloads::Workload;

/// Set-ups per process; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Warm-up runs at the end of each set-up (untimed for the run metrics).
const WARMUP_RUNS: usize = 3;
/// Minimum measured runs, so `run_ms.p90` has at least ten runs beyond it.
const MIN_RUNS: usize = 100;
/// Hard cap on the measuring loop, whatever `--seconds` and `MIN_RUNS` ask.
const MAX_LOOP: Duration = Duration::from_secs(120);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// The process's scratch directory inside the working directory, removed
/// again when the benchmark ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> Result<Self, String> {
        let dir = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds when no other benchmark process still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Outcome counts of one measuring loop.
#[derive(Default)]
struct Loop {
    /// Wall-clock of each run, in ms.
    run_ms: Vec<f64>,
    /// The same runs in reference ms (see [`probe`]); untraced loops only.
    ref_ms: Vec<f64>,
    /// Probe durations, in the order measured (one before each run and one
    /// after the last).
    probe_ms: Vec<f64>,
    attempted: usize,
    failed: usize,
    methods: usize,
}

impl Loop {
    fn record<O>(
        &mut self,
        w: &impl Workload<Output = O>,
        i: usize,
        ms: f64,
        out: std::thread::Result<Result<O, String>>,
    ) {
        self.attempted += 1;
        self.run_ms.push(ms);
        let verdict = match out {
            Ok(Ok(out)) => w.verify(i, &out),
            Ok(Err(e)) => Err(e),
            Err(_) => Err("run panicked".to_string()),
        };
        match verdict {
            Ok(methods) => self.methods += methods,
            Err(e) => {
                self.failed += 1;
                eprintln!("run {i} failed: {e}");
            }
        }
    }
}

/// Times one untraced run `i` into `lp`, between two probes.
fn untraced_run<W: Workload>(w: &mut W, i: usize, lp: &mut Loop, probe: &mut Probe) {
    if lp.probe_ms.is_empty() {
        lp.probe_ms.push(probe.run_ms());
    }
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| w.run(i)));
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let before = lp.probe_ms[lp.probe_ms.len() - 1];
    let after = probe.run_ms();
    lp.probe_ms.push(after);
    lp.ref_ms.push(probe::to_reference(ms, before, after));
    lp.record(w, i, ms, out);
}

/// Runs the untraced loop for `budget` (and at least `MIN_RUNS` runs).
fn measure<W: Workload>(w: &mut W, budget: Duration, probe: &mut Probe) -> Loop {
    let mut lp = Loop::default();
    let start = Instant::now();
    while (start.elapsed() < budget || lp.attempted < MIN_RUNS) && start.elapsed() < MAX_LOOP {
        untraced_run(w, lp.attempted, &mut lp, probe);
    }
    lp
}

/// Alternates untraced and traced runs of the same schedule entry for
/// `budget`, and for at least one full cycle, so both loops see the same
/// inputs under the same machine conditions.  Returns (untraced, traced).
fn measure_paired<W: Workload>(
    w: &mut W,
    budget: Duration,
    t: &mut Tracer,
    probe: &mut Probe,
) -> (Loop, Loop) {
    let (mut untraced, mut traced) = (Loop::default(), Loop::default());
    let start = Instant::now();
    while (start.elapsed() < budget || traced.attempted < w.cycle()) && start.elapsed() < MAX_LOOP {
        let i = traced.attempted;
        untraced_run(w, i, &mut untraced, probe);
        t.begin_run();
        let out = catch_unwind(AssertUnwindSafe(|| w.run_traced(i, t)));
        t.end_run();
        let ms = t.runs.last().map_or(0.0, |r| r.wall_ms);
        traced.record(w, i, ms, out);
        // Both kinds of run start right after a probe (same cache state);
        // this one is also the next untraced run's "before" probe.
        untraced.probe_ms.push(probe.run_ms());
    }
    (untraced, traced)
}

/// One set-up: the workload's own (inputs, references, warm cache) plus
/// the warm-up runs, timed together.  Returns the workload, the set-up's
/// wall-clock in seconds, and the same in reference seconds (probing
/// before the set-up and after each warm-up run).
fn setup<W: Workload>(
    make: &dyn Fn() -> Result<W, String>,
    probe: &mut Probe,
) -> Result<(W, f64, f64), String> {
    let mut probes = vec![probe.run_ms()];
    let mut wall = Duration::ZERO;
    let started = Instant::now();
    let mut w = make()?;
    wall += started.elapsed();
    for i in 0..WARMUP_RUNS {
        probes.push(probe.run_ms());
        let started = Instant::now();
        let out = w.run(i)?;
        wall += started.elapsed();
        w.verify(i, &out).map_err(|e| format!("warm-up run {i}: {e}"))?;
    }
    probes.push(probe.run_ms());
    let secs = wall.as_secs_f64();
    let mean_probe = probes.iter().sum::<f64>() / probes.len() as f64;
    Ok((w, secs, probe::to_reference(secs, mean_probe, mean_probe)))
}

/// Peak resident set of this process in MiB (`VmHWM`), less the probe's
/// scrub table, which is allocated and touched before the set-up and stays
/// resident to the end.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| (kb * 1024.0 - probe::SCRUB_BYTES as f64) / (1024.0 * 1024.0))
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end<W: Workload>(
    make: &dyn Fn() -> Result<W, String>,
    args: &Args,
) -> Result<(Loop, Metrics), String> {
    let mut probe = Probe::new();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (w, _, ref_secs) = setup(make, &mut probe)?;
        setups.push(ref_secs);
        last = Some(w);
    }
    let mut w = last.expect("at least one set-up");
    let lp = measure(&mut w, Duration::from_secs_f64(args.seconds), &mut probe);
    let ref_total_s: f64 = lp.ref_ms.iter().sum::<f64>() / 1e3;
    let metrics = vec![
        ("run_ms.p50", percentile(&lp.ref_ms, 50.0), "ref_ms"),
        ("run_ms.p90", percentile(&lp.ref_ms, 90.0), "ref_ms"),
        ("methods_per_s", lp.methods as f64 / ref_total_s.max(f64::MIN_POSITIVE), "1/ref_s"),
        ("ok_runs_pct", 100.0 * (lp.attempted - lp.failed) as f64 / lp.attempted as f64, "%"),
        ("setup_s", percentile(&setups, 50.0), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    Ok((lp, metrics))
}

fn per_layer<W: Workload>(
    make: &dyn Fn() -> Result<W, String>,
    args: &Args,
) -> Result<(Loop, Metrics), String> {
    let mut probe = Probe::new();
    // The arena growth of the whole set-up: the first, cold use of the
    // workload's types in this process, read around that single call.
    let before = rdl_types::intern::stats().nodes;
    let (mut w, setup_wall_s, _) = setup(make, &mut probe)?;
    let setup_nodes_added = (rdl_types::intern::stats().nodes - before) as f64;
    let mut tracer = Tracer::new();
    let (untraced, traced) =
        measure_paired(&mut w, Duration::from_secs_f64(args.seconds), &mut tracer, &mut probe);
    let s = Summary::fold(&tracer, w.cycle());
    let untraced_p50 = percentile(&untraced.run_ms, 50.0);
    let metrics = vec![
        ("ruby-syntax.parse_ms", s.ms("ruby-syntax.parse"), "ms"),
        ("ruby-syntax.recovery_diags", s.per_run("ruby-syntax.recovery_diags"), "count"),
        ("comprdl.env.build_ms", s.ms("comprdl.env.build"), "ms"),
        ("comprdl.env.annotations", s.per_run("comprdl.env.annotations"), "count"),
        ("comprdl.semdep.graph_ms", s.ms("comprdl.semdep.graph"), "ms"),
        ("comprdl.semdep.env_hash_ms", s.ms("comprdl.semdep.env_hash"), "ms"),
        ("analysis.summaries_ms", s.ms("analysis.summaries"), "ms"),
        (
            "analysis.summaries.replay_ratio",
            s.ratio("analysis.summaries.replayed", "analysis.summaries.rechecked"),
            "ratio",
        ),
        ("comprdl.checker.comp_ms", s.ms("comprdl.checker.comp"), "ms"),
        ("comprdl.checker.plain_ms", s.ms("comprdl.checker.plain"), "ms"),
        ("comprdl.checker.methods_checked", s.per_run("comprdl.checker.methods_checked"), "count"),
        (
            "comprdl.checker.eval_cache_hit_ratio",
            s.ratio("comprdl.checker.eval_cache.hits", "comprdl.checker.eval_cache.misses"),
            "ratio",
        ),
        ("comprdl.checker.term0004_ms", s.ms("comprdl.checker.term0004"), "ms"),
        ("analysis.lints_ms", s.ms("analysis.lints"), "ms"),
        ("analysis.lints.findings", s.per_run("analysis.lints.findings"), "count"),
        ("comprdl.persist.load_ms", s.ms("comprdl.persist.load"), "ms"),
        ("comprdl.persist.save_ms", s.ms("comprdl.persist.save"), "ms"),
        ("comprdl.persist.replay_ms", s.ms("comprdl.persist.replay"), "ms"),
        ("comprdl.persist.record_ms", s.ms("comprdl.persist.record"), "ms"),
        ("comprdl.persist.file_bytes", s.per_run("comprdl.persist.file_bytes"), "bytes"),
        (
            "comprdl.persist.replay_ratio",
            s.ratio("comprdl.persist.replayed", "comprdl.persist.rechecked"),
            "ratio",
        ),
        (
            "comprdl.persist.lint_replay_ratio",
            s.ratio("comprdl.persist.lint.replayed", "comprdl.persist.lint.rechecked"),
            "ratio",
        ),
        ("ruby-interp.suite_plain_ms", s.ms("ruby-interp.suite_plain"), "ms"),
        ("comprdl.runtime.suite_checked_ms", s.ms("comprdl.runtime.suite_checked"), "ms"),
        ("comprdl.runtime.checks_run", s.per_run("comprdl.runtime.checks"), "count"),
        (
            "comprdl.runtime.memo_hit_ratio",
            s.ratio("comprdl.runtime.memo.hits", "comprdl.runtime.memo.misses"),
            "ratio",
        ),
        ("comprdl.runtime.blames", s.per_run("comprdl.runtime.blames"), "count"),
        (
            "rdl-types.verdict_cache.hit_ratio",
            s.ratio("rdl-types.verdict.hits", "rdl-types.verdict.misses"),
            "ratio",
        ),
        (
            "rdl-types.intern.hit_ratio",
            s.ratio("rdl-types.intern.hits", "rdl-types.intern.misses"),
            "ratio",
        ),
        ("rdl-types.intern.nodes_added", s.per_run("rdl-types.intern.nodes"), "count"),
        ("rdl-types.intern.setup_nodes_added", setup_nodes_added, "count"),
        ("corpus.assemble_ms", s.ms("corpus.assemble"), "ms"),
        ("corpus.teardown_ms", s.ms("corpus.teardown"), "ms"),
        ("wall.run_ms.p50", untraced_p50, "ms"),
        ("wall.run_ms.p90", percentile(&untraced.run_ms, 90.0), "ms"),
        ("wall.run_ref_ms.p50", percentile(&untraced.ref_ms, 50.0), "ref_ms"),
        ("wall.probe_ms.p50", percentile(&untraced.probe_ms, 50.0), "ms"),
        ("wall.setup_s", setup_wall_s, "s"),
        ("trace.unaccounted_ms", s.unaccounted_ms, "ms"),
        (
            "trace.overhead_pct",
            100.0 * (s.wall_p50_ms - untraced_p50) / untraced_p50.max(f64::MIN_POSITIVE),
            "%",
        ),
    ];
    let lp = Loop {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        methods: untraced.methods + traced.methods,
        ..Loop::default()
    };
    Ok((lp, metrics))
}

fn drive<W: Workload>(
    make: &dyn Fn() -> Result<W, String>,
    args: &Args,
) -> Result<(Loop, Metrics), String> {
    if args.trace {
        per_layer(make, args)
    } else {
        end_to_end(make, args)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pipebench: {e}");
            std::process::exit(2);
        }
    };
    let work = match WorkDir::create(&args.workload) {
        Ok(work) => work,
        Err(e) => {
            eprintln!("pipebench: {e}");
            std::process::exit(1);
        }
    };
    let seed = args.seed;
    let result = match args.workload.as_str() {
        "corpus_cold" => drive(&|| workloads::corpus_cold::CorpusCold::setup(seed), &args),
        "edit_stream" => {
            let dir = work.0.clone();
            drive(&move || workloads::edit_stream::EditStream::setup(seed, &dir), &args)
        }
        "dense_schema" => drive(&|| workloads::dense_schema::DenseSchema::setup(seed), &args),
        other => Err(format!("unknown workload {other}")),
    };
    drop(work);
    let (lp, metrics) = match result {
        Ok(result) => result,
        Err(e) => {
            eprintln!("pipebench: {e}");
            std::process::exit(1);
        }
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        lp.failed == 0,
        lp.attempted,
        lp.failed,
        body.join(", ")
    );
}
