//! Incremental re-checking of the corpus against a persistent
//! [`CheckCache`].
//!
//! There is no separate incremental recipe: [`evaluate_app_incremental`]
//! runs the same per-app pipeline as [`crate::evaluate_app_shared`], with a
//! cache.  Each of its four passes — effect summaries, the comp-type
//! checking run, the lints, and the plain-RDL comparison run (cached under
//! `"<app>::plain"`) — replays every method whose **Merkle dependency
//! hash** ([`comprdl::semdep::DepGraph`]: the method's own structure plus
//! everything its verdict depends on) still matches the cached run,
//! re-computes the rest, and records the refreshed verdicts back; the
//! caller persists them with [`CheckCache::save`].  Replayed spans are
//! re-anchored against the *current* parse, so layout-only edits replay
//! byte-identically.  A run against an empty cache is a cold run that
//! replays nothing, and [`crate::stable_report`] over any incremental run
//! is byte-identical to a from-scratch one.
//!
//! The seeded edit injectors at the bottom ([`with_layout_noise`],
//! [`with_method_edit`], [`with_broken_method`]) produce the edited sources
//! the incremental tests and benches feed in.

use crate::app::App;
use crate::harness::{HarnessError, Table2Row};
use comprdl::{CheckCache, SharedMemo};
use std::sync::Arc;

/// How much of one checking pass was replayed from the cache versus
/// re-checked for real.
#[derive(Debug, Clone, Default)]
pub struct RecheckStats {
    /// Labeled methods in the pass.
    pub total: usize,
    /// Methods whose verdicts replayed from the cache.
    pub replayed: usize,
    /// Methods that had to be re-checked, as `(owner, name, singleton)`
    /// identities in program order (`checked_methods.len()` is the re-check
    /// count).
    pub checked_methods: Vec<(String, String, bool)>,
}

impl RecheckStats {
    /// Number of methods that had to be re-checked.
    pub fn checked(&self) -> usize {
        self.checked_methods.len()
    }

    /// True when every verdict came from the cache.
    pub fn all_replayed(&self) -> bool {
        self.replayed == self.total && self.checked_methods.is_empty()
    }
}

/// Replay/re-check counters for one app's two checking passes.
#[derive(Debug, Clone)]
pub struct AppRecheck {
    /// App name.
    pub app: String,
    /// The comp-type checking pass.
    pub comp: RecheckStats,
    /// The plain-RDL comparison pass (comp types disabled), cached under
    /// `"<app>::plain"`.
    pub plain: RecheckStats,
    /// The dataflow lint pass.  Keyed by each method's **Merkle**
    /// dependency hash — `LINT0105` follows taint through calls, so a lint
    /// verdict depends on the method's transitive callees, exactly what
    /// the Merkle hash covers.  Layout-only edits still replay every
    /// finding (the hash is layout-invariant).
    pub lint: RecheckStats,
    /// The effect-summary inference pass (termination / purity / taint),
    /// Merkle-keyed like the lints.  Replay is per-SCC: a component is
    /// replayed only when every member's cached record matches.
    pub effects: RecheckStats,
}

impl AppRecheck {
    /// True when both checking passes, the lint pass and the effect
    /// inference replayed every verdict.
    pub fn all_replayed(&self) -> bool {
        self.comp.all_replayed()
            && self.plain.all_replayed()
            && self.lint.all_replayed()
            && self.effects.all_replayed()
    }
}

/// Runs the full evaluation for one app **incrementally** against `cache`,
/// optionally with its source replaced by `source_override` (the edited-file
/// scenario).  Produces the same [`Table2Row`] as
/// [`crate::evaluate_app_shared`] — byte-identical under
/// [`crate::stable_report`] — plus the replay/re-check counters, and records
/// the (possibly refreshed) verdicts back into `cache`.
///
/// # Errors
///
/// See [`crate::evaluate_app_shared`].
pub fn evaluate_app_incremental(
    app: &App,
    source_override: Option<&str>,
    cache: &mut CheckCache,
    memo: &Arc<SharedMemo>,
) -> Result<(Table2Row, AppRecheck), HarnessError> {
    crate::pipeline::run_app(app, source_override.unwrap_or(app.source), 1, Some(cache), memo)
}

/// Runs the whole corpus incrementally against `cache` (all checked runs
/// sharing one runtime memo, like [`crate::table2`]), returning the Table 2
/// rows plus the per-app replay/re-check counters.  The caller owns loading
/// and saving the cache ([`CheckCache::load`] / [`CheckCache::save`]).
///
/// # Errors
///
/// See [`crate::evaluate_app_shared`].
pub fn table2_incremental(
    cache: &mut CheckCache,
) -> Result<(Vec<Table2Row>, Vec<AppRecheck>), HarnessError> {
    let memo = Arc::new(SharedMemo::new());
    let mut rows = Vec::new();
    let mut stats = Vec::new();
    for app in crate::apps::all() {
        let (row, app_stats) = evaluate_app_incremental(&app, None, cache, &memo)?;
        rows.push(row);
        stats.push(app_stats);
    }
    Ok((rows, stats))
}

// ---------------------------------------------------------------------------
// Seeded edit injection
// ---------------------------------------------------------------------------

/// Applies seeded **layout-only** noise to a source file: comment lines
/// before method definitions, blank lines after `end`, trailing whitespace.
/// Every byte offset downstream of an insertion moves, but no semantic hash
/// may — that invariant is what the property tests pin down.
pub fn with_layout_noise(source: &str, seed: u64) -> String {
    let mut rng = test_rng::Rng::new(seed | 1);
    let mut out = String::new();
    for line in source.lines() {
        let trimmed = line.trim_start();
        let indent = &line[..line.len() - trimmed.len()];
        if trimmed.starts_with("def ") && rng.below(2) == 0 {
            out.push_str(indent);
            out.push_str(&format!("# noise {}\n", rng.below(10_000)));
        }
        out.push_str(line);
        if rng.below(4) == 0 {
            out.push_str("  ");
        }
        out.push('\n');
        if trimmed == "end" && rng.below(2) == 0 {
            out.push('\n');
        }
    }
    out
}

/// Injects a **syntax error** into the named method by overwriting its
/// first body line with an unparsable one (a stray `)`) padded with spaces
/// to exactly the original line's byte length, so every span *outside* the
/// poisoned method keeps its byte offsets and line numbers — which is what
/// lets the robustness tests assert byte-identical diagnostics for every
/// other method.  Returns `None` when no `def <method>` line exists or the
/// def line has no body line after it.
pub fn with_broken_method(source: &str, method: &str) -> Option<String> {
    let plain = format!("def {method}(");
    let singleton = format!("def self.{method}(");
    let lines: Vec<&str> = source.lines().collect();
    let def_idx = lines.iter().position(|line| {
        let t = line.trim_start();
        t.starts_with(&plain) || t.starts_with(&singleton)
    })?;
    let body = lines.get(def_idx + 1)?;
    if body.trim() == "end" {
        // Overwriting the `end` of an empty method would unbalance the
        // whole file instead of poisoning one def.
        return None;
    }
    let mut broken = String::from("  )");
    while broken.len() < body.len() {
        broken.push(' ');
    }
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        out.push_str(if i == def_idx + 1 { &broken } else { line });
        out.push('\n');
    }
    Some(out)
}

/// Injects a **semantic** edit into the named method: a harmless local
/// assignment as the first body statement.  The method still parses, still
/// type checks to the same verdict shape, and its test suite still passes —
/// but its structural hash (and therefore the Merkle hash of the method and
/// every transitive caller) moves.  Returns `None` when no `def <method>`
/// line exists.
pub fn with_method_edit(source: &str, method: &str) -> Option<String> {
    let plain = format!("def {method}(");
    let singleton = format!("def self.{method}(");
    let mut out = String::new();
    let mut hit = false;
    for line in source.lines() {
        out.push_str(line);
        out.push('\n');
        let trimmed = line.trim_start();
        if !hit && (trimmed.starts_with(&plain) || trimmed.starts_with(&singleton)) {
            out.push_str("  __edit_probe = 1\n");
            hit = true;
        }
    }
    hit.then_some(out)
}
