//! `corpus_cold`: the paper's Table 2 run, cold, over all eight apps.
//!
//! Why this workload: it is what CompRDL's evaluation measures — type check
//! every subject app with comp types and with plain RDL, then run each test
//! suite with and without the inserted dynamic checks.  Fixed per-app costs
//! (environment build, TERM0004) and the two suites dominate it, and it
//! never touches `semdep` or `persist`, so it is the bypass workload for
//! any Merkle, replay or cache-file change: there the prediction is "no
//! change".
//!
//! Each run evaluates every app once, sequentially, against one fresh
//! runtime memo (exactly `corpus::table2()`), in an app order drawn from
//! the seed.  The reference is the hand-written app expectations, plus the
//! per-app `stable_report` of one real `corpus::table2()` made at setup.

use super::{app_report, rng, same_report, Workload};
use crate::trace::Tracer;
use comprdl::SharedMemo;
use corpus::{App, Table2Row};
use std::sync::Arc;

/// Distinct seeded app orders the runs cycle through.
const ORDERS: usize = 8;

/// Setup state: the apps, the seeded orders and the references.
pub struct CorpusCold {
    apps: Vec<App>,
    orders: Vec<Vec<usize>>,
    /// Per-app `stable_report` of the setup's real `corpus::table2()`, in
    /// corpus order.
    reference: Vec<String>,
}

impl CorpusCold {
    /// Builds the seeded app orders and the reference reports.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let apps = corpus::apps::all();
        let mut rng = rng(seed, 1);
        let orders = (0..ORDERS)
            .map(|_| {
                let mut order: Vec<usize> = (0..apps.len()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i as u64 + 1) as usize);
                }
                order
            })
            .collect();
        let rows = corpus::table2().map_err(|e| format!("reference table2: {e}"))?;
        check_expectations(&apps, &rows)?;
        let reference = rows.iter().map(app_report).collect();
        Ok(CorpusCold { apps, orders, reference })
    }

    fn order(&self, i: usize) -> &[usize] {
        &self.orders[i % self.orders.len()]
    }
}

/// The hand-written oracle: each app's seeded error count (1 in Code.org,
/// 2 in Journey, 0 elsewhere), Sequel's 3 migration blames and no blame
/// anywhere else, and comp types needing fewer casts than plain RDL.
fn check_expectations(apps: &[App], rows: &[Table2Row]) -> Result<(), String> {
    for row in rows {
        let app = apps
            .iter()
            .find(|a| a.name == row.program)
            .ok_or_else(|| format!("unknown app {}", row.program))?;
        let want_errors = match app.name {
            "Code.org" => 1,
            "Journey" => 2,
            _ => 0,
        };
        if row.errors() != want_errors || row.errors() != app.expected_errors {
            return Err(format!(
                "{}: {} errors, expected {want_errors}",
                row.program,
                row.errors()
            ));
        }
        let want_blames = if app.name == "Sequel" { 3 } else { 0 };
        if row.runtime_blames.len() != want_blames {
            return Err(format!(
                "{}: {} blames, expected {want_blames}",
                row.program,
                row.runtime_blames.len()
            ));
        }
    }
    let casts: usize = rows.iter().map(|r| r.casts).sum();
    let casts_rdl: usize = rows.iter().map(|r| r.casts_rdl).sum();
    if casts_rdl <= casts {
        return Err(format!("plain RDL needed {casts_rdl} casts, comp types {casts}"));
    }
    if rows.len() != apps.len() {
        return Err(format!("{} rows for {} apps", rows.len(), apps.len()));
    }
    Ok(())
}

impl Workload for CorpusCold {
    type Output = Vec<(usize, Table2Row)>;

    fn cycle(&self) -> usize {
        ORDERS
    }

    fn run(&mut self, i: usize) -> Result<Self::Output, String> {
        let memo = Arc::new(SharedMemo::new());
        let order = self.order(i).to_vec();
        order
            .into_iter()
            .map(|a| {
                corpus::evaluate_app_shared(&self.apps[a], 1, &memo)
                    .map(|row| (a, row))
                    .map_err(|e| e.to_string())
            })
            .collect()
    }

    fn run_traced(&mut self, i: usize, t: &mut Tracer) -> Result<Self::Output, String> {
        let memo = Arc::new(SharedMemo::new());
        let order = self.order(i).to_vec();
        order
            .into_iter()
            .map(|a| {
                crate::replica::evaluate_app_shared(t, &self.apps[a], &memo)
                    .map(|row| (a, row))
                    .map_err(|e| e.to_string())
            })
            .collect()
    }

    fn verify(&self, i: usize, out: &Self::Output) -> Result<usize, String> {
        let order = self.order(i);
        if out.iter().map(|(a, _)| *a).ne(order.iter().copied()) {
            return Err("rows do not follow the seeded app order".to_string());
        }
        let rows: Vec<Table2Row> = out.iter().map(|(_, row)| row.clone()).collect();
        check_expectations(&self.apps, &rows)?;
        for (a, row) in out {
            same_report(self.apps[*a].name, &app_report(row), &self.reference[*a])?;
        }
        Ok(rows.iter().map(|r| r.methods).sum())
    }
}
