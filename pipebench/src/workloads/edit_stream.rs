//! `edit_stream`: a stream of one-method edits against a warm on-disk check
//! cache.
//!
//! Why this workload: it is the one that makes `persist`, `semdep` and
//! replay do real work, and it puts cache writes beside reads.  Each run
//! loads the warm `CheckCache` written at setup, calls
//! `corpus::evaluate_app_incremental` on every app, and saves the cache.
//! A seeded schedule gives each run either no edit, or one edit to one
//! method of one app: layout-only (`with_layout_noise`), semantic
//! (`with_method_edit`) or syntax-breaking (`with_broken_method`).  Its
//! checker work is near zero, so checker speedups should not move it.
//!
//! Every run starts from the same warm cache file, so runs are independent
//! of each other and the schedule alone decides what each re-checks.  The
//! reference for every app is the `stable_report` of a from-scratch
//! `corpus::evaluate_app_shared` over the same (possibly edited) source,
//! made at setup.  No edit or a layout-only edit must re-check nothing; a
//! semantic edit must re-check at least one and fewer than all of the
//! edited app's labeled methods.

use super::{app_report, rng, same_report, Workload};
use crate::trace::Tracer;
use comprdl::{CheckCache, SharedMemo, TypeChecker};
use corpus::{App, AppRecheck, Table2Row};
use std::path::PathBuf;
use std::sync::Arc;

/// Runs per schedule cycle: eight of each edit kind, in seeded order.
const CYCLE: usize = 32;

/// What one scheduled run does to the corpus before checking it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    None,
    Layout,
    Semantic,
    Broken,
}

/// One schedule entry: the edit kind, and for an edit, the edited app and
/// its edited source and reference report.
struct Entry {
    kind: Kind,
    edit: Option<(usize, String, String)>,
}

/// Setup state.
pub struct EditStream {
    apps: Vec<App>,
    schedule: Vec<Entry>,
    /// Per-app reference report over the unedited sources.
    base_reports: Vec<String>,
    /// The warm cache every run loads.
    base_cache: PathBuf,
    /// Where every run saves its cache.
    run_cache: PathBuf,
}

/// One run's output.
pub struct Output {
    rows: Vec<(Table2Row, AppRecheck)>,
    /// Size of the saved cache file.
    file_bytes: u64,
}

/// A from-scratch `corpus::evaluate_app_shared` over `source` in place of
/// the app's own source, as its per-app `stable_report`.
fn from_scratch_report(app: &App, source: &str) -> Result<String, String> {
    // `App` holds `'static` text; the few distinct edited sources of a
    // schedule live for the rest of the process.
    let edited = App {
        name: app.name,
        group: app.group,
        db: app.db.clone(),
        annotate: app.annotate,
        source: Box::leak(source.to_string().into_boxed_str()),
        test_suite: app.test_suite,
        extra_annotations: app.extra_annotations,
        expected_errors: app.expected_errors,
    };
    let row = corpus::evaluate_app_shared(&edited, 1, &Arc::new(SharedMemo::new()))
        .map_err(|e| format!("reference for edited {}: {e}", app.name))?;
    Ok(app_report(&row))
}

/// Methods of `app` (only the labeled ones when `labeled_only`) whose
/// `def` line names them uniquely in the source, so an injected edit lands
/// on exactly that method.
fn edit_targets(app: &App, labeled_only: bool) -> Vec<String> {
    let env = app.build_env();
    let (program, _, _) = app.parse();
    let names: Vec<String> = if labeled_only {
        TypeChecker::labeled_methods(&env, &program, "app")
            .into_iter()
            .map(|(_, def)| def.name.clone())
            .collect()
    } else {
        program.methods().into_iter().map(|(_, def)| def.name.clone()).collect()
    };
    names
        .into_iter()
        .filter(|name| {
            let (plain, singleton) = (format!("def {name}("), format!("def self.{name}("));
            let defs = app
                .source
                .lines()
                .map(str::trim_start)
                .filter(|l| l.starts_with(&plain) || l.starts_with(&singleton))
                .count();
            defs == 1
        })
        .collect()
}

/// Draws broken edits until one leaves the app's suite runnable: a
/// poisoned method that the suite needs makes the from-scratch reference
/// itself fail, and the workload keeps to edits on which nothing fails.
const BROKEN_DRAWS: usize = 64;

impl EditStream {
    /// Draws the schedule, builds every reference and writes the warm cache
    /// under `work`.
    pub fn setup(seed: u64, work: &std::path::Path) -> Result<Self, String> {
        let apps = corpus::apps::all();
        let labeled_targets: Vec<Vec<String>> =
            apps.iter().map(|app| edit_targets(app, true)).collect();
        let all_targets: Vec<Vec<String>> =
            apps.iter().map(|app| edit_targets(app, false)).collect();
        let labeled: Vec<usize> = apps
            .iter()
            .map(|app| {
                let (program, _, _) = app.parse();
                TypeChecker::labeled_methods(&app.build_env(), &program, "app").len()
            })
            .collect();
        // A semantic edit must leave some labeled method of the app
        // unaffected, so it needs an app with two or more.
        let semantic_apps: Vec<usize> = (0..apps.len())
            .filter(|&a| !labeled_targets[a].is_empty() && labeled[a] >= 2)
            .collect();
        let broken_apps: Vec<usize> =
            (0..apps.len()).filter(|&a| !all_targets[a].is_empty()).collect();

        let mut rng = rng(seed, 2);
        let mut kinds: Vec<Kind> = [Kind::None, Kind::Layout, Kind::Semantic, Kind::Broken]
            .into_iter()
            .flat_map(|k| std::iter::repeat_n(k, CYCLE / 4))
            .collect();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.below(i as u64 + 1) as usize);
        }

        let mut schedule = Vec::with_capacity(CYCLE);
        for kind in kinds {
            let edit = match kind {
                Kind::None => None,
                Kind::Layout => {
                    let a = rng.below(apps.len() as u64) as usize;
                    let source = corpus::with_layout_noise(apps[a].source, rng.next_u64());
                    let report = from_scratch_report(&apps[a], &source)?;
                    Some((a, source, report))
                }
                Kind::Semantic => {
                    let a = semantic_apps[rng.below(semantic_apps.len() as u64) as usize];
                    let targets = &labeled_targets[a];
                    let method = &targets[rng.below(targets.len() as u64) as usize];
                    let source = corpus::with_method_edit(apps[a].source, method)
                        .ok_or_else(|| format!("{}: cannot edit `{method}`", apps[a].name))?;
                    let report = from_scratch_report(&apps[a], &source)?;
                    Some((a, source, report))
                }
                Kind::Broken => {
                    let mut drawn = None;
                    for _ in 0..BROKEN_DRAWS {
                        let a = broken_apps[rng.below(broken_apps.len() as u64) as usize];
                        let targets = &all_targets[a];
                        let method = &targets[rng.below(targets.len() as u64) as usize];
                        let Some(source) = corpus::with_broken_method(apps[a].source, method)
                        else {
                            continue;
                        };
                        if let Ok(report) = from_scratch_report(&apps[a], &source) {
                            drawn = Some((a, source, report));
                            break;
                        }
                    }
                    Some(drawn.ok_or("no breakable method found")?)
                }
            };
            schedule.push(Entry { kind, edit });
        }

        let base_reports = apps
            .iter()
            .map(|app| from_scratch_report(app, app.source))
            .collect::<Result<Vec<_>, _>>()?;

        // The warm cache: one incremental pass from an empty cache over the
        // unedited corpus.
        let base_cache = work.join("edit_stream-base.bin");
        let run_cache = work.join("edit_stream-run.bin");
        let mut cache = CheckCache::new();
        let memo = Arc::new(SharedMemo::new());
        for app in &apps {
            corpus::evaluate_app_incremental(app, None, &mut cache, &memo)
                .map_err(|e| format!("warming the cache: {e}"))?;
        }
        cache.save(&base_cache).map_err(|e| format!("saving the warm cache: {e}"))?;

        Ok(EditStream { apps, schedule, base_reports, base_cache, run_cache })
    }

    fn entry(&self, i: usize) -> &Entry {
        &self.schedule[i % self.schedule.len()]
    }

    fn source_for(&self, i: usize, a: usize) -> Option<&str> {
        match &self.entry(i).edit {
            Some((edited, source, _)) if *edited == a => Some(source.as_str()),
            _ => None,
        }
    }

    fn file_bytes(&self) -> Result<u64, String> {
        std::fs::metadata(&self.run_cache).map(|m| m.len()).map_err(|e| e.to_string())
    }
}

impl Workload for EditStream {
    type Output = Output;

    fn cycle(&self) -> usize {
        CYCLE
    }

    fn run(&mut self, i: usize) -> Result<Output, String> {
        let mut cache = CheckCache::load(&self.base_cache);
        let memo = Arc::new(SharedMemo::new());
        let mut rows = Vec::with_capacity(self.apps.len());
        for (a, app) in self.apps.iter().enumerate() {
            let source = self.source_for(i, a);
            let row = corpus::evaluate_app_incremental(app, source, &mut cache, &memo)
                .map_err(|e| e.to_string())?;
            rows.push(row);
        }
        cache.save(&self.run_cache).map_err(|e| format!("saving the cache: {e}"))?;
        Ok(Output { rows, file_bytes: self.file_bytes()? })
    }

    fn run_traced(&mut self, i: usize, t: &mut Tracer) -> Result<Output, String> {
        let mut cache = t.span("comprdl.persist.load", || CheckCache::load(&self.base_cache));
        let memo = Arc::new(SharedMemo::new());
        let mut rows = Vec::with_capacity(self.apps.len());
        for (a, app) in self.apps.iter().enumerate() {
            let source = self.source_for(i, a);
            let row = crate::replica::evaluate_app_incremental(t, app, source, &mut cache, &memo)
                .map_err(|e| e.to_string())?;
            rows.push(row);
        }
        t.span("comprdl.persist.save", || cache.save(&self.run_cache))
            .map_err(|e| format!("saving the cache: {e}"))?;
        let file_bytes = self.file_bytes()?;
        t.count("comprdl.persist.file_bytes", file_bytes as f64);
        Ok(Output { rows, file_bytes })
    }

    fn verify(&self, i: usize, out: &Output) -> Result<usize, String> {
        let entry = self.entry(i);
        if out.rows.len() != self.apps.len() || out.file_bytes == 0 {
            return Err(format!("{} rows, {} cache bytes", out.rows.len(), out.file_bytes));
        }
        let edited = entry.edit.as_ref().map(|(a, _, _)| *a);
        for (a, (row, stats)) in out.rows.iter().enumerate() {
            let name = self.apps[a].name;
            let want = match &entry.edit {
                Some((e, _, report)) if *e == a => report,
                _ => &self.base_reports[a],
            };
            same_report(name, &app_report(row), want)?;
            let must_replay_all =
                edited != Some(a) || matches!(entry.kind, Kind::None | Kind::Layout);
            if must_replay_all && !stats.all_replayed() {
                return Err(format!(
                    "{name}: {:?} run re-checked {} comp, {} plain, {} lint, {} effect methods",
                    entry.kind,
                    stats.comp.checked(),
                    stats.plain.checked(),
                    stats.lint.checked(),
                    stats.effects.checked()
                ));
            }
            if edited == Some(a) && entry.kind == Kind::Semantic {
                let (checked, total) = (stats.comp.checked(), stats.comp.total);
                if checked == 0 || checked >= total {
                    return Err(format!(
                        "{name}: semantic edit re-checked {checked} of {total} methods"
                    ));
                }
            }
        }
        Ok(out.rows.iter().map(|(_, stats)| stats.comp.total).sum())
    }
}
