//! `dense_schema`: one generated Rails-like app, dense with comp-typed
//! query sites, checked cold.
//!
//! Why this workload: the eight corpus apps are tiny, so per-app fixed
//! costs hide the checker.  Here `comprdl::checker`, the type-level
//! evaluator, `db-types`, `sql-tc` and the comp-type eval cache do most of
//! the work, while per-app fixed costs and the runtime do little.  It is
//! the workload for checker, evaluator and type-core changes, and the
//! bypass workload for cache-file and replay changes.
//!
//! The generator takes the seed, the method count and the size of the
//! query-shape pool as inputs.  Every method has six to nine query sites
//! drawn from the pool (so the pool size sets how often a comp type is
//! evaluated at the same argument types), including raw SQL `where`
//! strings.  A known set of sites is replaced by planted wrong-column and
//! wrong-table errors; the planted set is the reference.  The program is
//! handed only the generated source, test suite, schema and annotations,
//! and each run is one `corpus::evaluate_app_shared` over them: environment
//! build, parse, effects, the comp pass, lints, the plain pass, both
//! suites and TERM0004.

use super::{app_report, rng, same_report, Workload};
use crate::trace::Tracer;
use comprdl::{CompRdl, SharedMemo};
use corpus::{App, Table2Row};
use db_types::{ColumnType, DbRegistry};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Generated methods in the app.
pub const METHODS: usize = 300;
/// Distinct query shapes the sites are drawn from.
pub const POOL: usize = 256;
/// Planted wrong-column / wrong-table errors.
pub const PLANTED: usize = 8;
/// Methods the generated test suite calls.
const SUITE_CALLS: usize = 12;

/// A table of the generated schema: name, model class and columns.
struct Table {
    name: &'static str,
    model: &'static str,
    columns: &'static [(&'static str, ColumnType)],
}

const TABLES: &[Table] = &[
    Table {
        name: "users",
        model: "User",
        columns: &[
            ("id", ColumnType::Integer),
            ("username", ColumnType::String),
            ("staged", ColumnType::Boolean),
            ("karma", ColumnType::Integer),
        ],
    },
    Table {
        name: "emails",
        model: "Email",
        columns: &[
            ("id", ColumnType::Integer),
            ("email", ColumnType::String),
            ("user_id", ColumnType::Integer),
            ("confirmed", ColumnType::Boolean),
        ],
    },
    Table {
        name: "posts",
        model: "Post",
        columns: &[
            ("id", ColumnType::Integer),
            ("title", ColumnType::String),
            ("user_id", ColumnType::Integer),
            ("published", ColumnType::Boolean),
            ("score", ColumnType::Integer),
        ],
    },
    Table {
        name: "comments",
        model: "Comment",
        columns: &[
            ("id", ColumnType::Integer),
            ("body", ColumnType::String),
            ("post_id", ColumnType::Integer),
            ("user_id", ColumnType::Integer),
            ("flagged", ColumnType::Boolean),
        ],
    },
    Table {
        name: "tags",
        model: "Tag",
        columns: &[
            ("id", ColumnType::Integer),
            ("name", ColumnType::String),
            ("post_id", ColumnType::Integer),
        ],
    },
];

/// Associations: (owner table, associated table, foreign key on it).
const ASSOCIATIONS: &[(usize, usize, &str)] =
    &[(0, 1, "user_id"), (0, 2, "user_id"), (2, 3, "post_id"), (2, 4, "post_id")];

/// The generated inputs handed to the program.
pub struct DenseApp {
    /// The app source: model classes with ORM fixtures and the generated
    /// methods.
    pub source: String,
    /// A short suite calling some generated methods.
    pub test_suite: String,
    /// The schema.
    pub db: DbRegistry,
    /// `(class, method, signature)` for every generated method.
    pub annotations: Vec<(String, String, String)>,
    /// Source lines (1-based, app file) of the planted errors.
    pub planted: Vec<u32>,
}

/// The literal or parameter that fills a column of the given type.
fn value_for(ty: ColumnType, rng: &mut test_rng::Rng) -> &'static str {
    match ty {
        ColumnType::String => "name",
        ColumnType::Integer => "n",
        _ => {
            if rng.below(2) == 0 {
                "true"
            } else {
                "false"
            }
        }
    }
}

fn column(t: &Table, rng: &mut test_rng::Rng) -> (&'static str, ColumnType) {
    t.columns[rng.below(t.columns.len() as u64) as usize]
}

/// A column bound through a `?` placeholder in raw SQL (strings and
/// integers only, so the bound parameter always matches).
fn sql_column(t: &Table, rng: &mut test_rng::Rng) -> (&'static str, ColumnType) {
    loop {
        let c = column(t, rng);
        if c.1 != ColumnType::Boolean {
            return c;
        }
    }
}

/// One query shape of kind `kind` (0..6), with tables and columns drawn
/// from `rng`.
fn shape(kind: usize, rng: &mut test_rng::Rng) -> String {
    let pick = |rng: &mut test_rng::Rng| &TABLES[rng.below(TABLES.len() as u64) as usize];
    let assoc =
        |rng: &mut test_rng::Rng| ASSOCIATIONS[rng.below(ASSOCIATIONS.len() as u64) as usize];
    match kind {
        0 => {
            let t = pick(rng);
            let (c, ty) = column(t, rng);
            format!("{}.exists?({{ {c}: {} }})", t.model, value_for(ty, rng))
        }
        1 => {
            let t = pick(rng);
            let (c1, ty1) = column(t, rng);
            let (c2, ty2) = column(t, rng);
            format!(
                "{}.where({{ {c1}: {} }}).exists?({{ {c2}: {} }})",
                t.model,
                value_for(ty1, rng),
                value_for(ty2, rng)
            )
        }
        2 => {
            let (owner, other, _) = assoc(rng);
            let (o, a) = (&TABLES[owner], &TABLES[other]);
            let (c1, ty1) = column(o, rng);
            let (c2, ty2) = column(a, rng);
            format!(
                "{}.joins(:{}).exists?({{ {c1}: {}, {}: {{ {c2}: {} }} }})",
                o.model,
                a.name,
                value_for(ty1, rng),
                a.name,
                value_for(ty2, rng)
            )
        }
        3 => {
            let t = pick(rng);
            let (c, ty) = sql_column(t, rng);
            format!("{}.where('{c} = ?', {}).exists?()", t.model, value_for(ty, rng))
        }
        4 => {
            let (owner, other, fk) = assoc(rng);
            let (o, a) = (&TABLES[owner], &TABLES[other]);
            let (c, ty) = sql_column(a, rng);
            format!(
                "{}.where('{}.id IN (SELECT {fk} FROM {} WHERE {c} = ?)', {}).count() > 0",
                o.model,
                o.name,
                a.name,
                value_for(ty, rng)
            )
        }
        _ => {
            let t = pick(rng);
            let (c1, ty1) = column(t, rng);
            let (c2, ty2) = column(t, rng);
            if c1 == c2 {
                format!("{}.where({{ {c1}: {} }}).count() > 0", t.model, value_for(ty1, rng))
            } else {
                format!(
                    "{}.where({{ {c1}: {}, {c2}: {} }}).count() > 0",
                    t.model,
                    value_for(ty1, rng),
                    value_for(ty2, rng)
                )
            }
        }
    }
}

/// A planted error site: a column the table lacks, or a raw SQL subquery
/// over a table the schema lacks.
fn planted_site(k: usize, rng: &mut test_rng::Rng) -> String {
    if k.is_multiple_of(2) {
        let t = &TABLES[rng.below(TABLES.len() as u64) as usize];
        let (c, ty) = column(t, rng);
        format!("{}.exists?({{ {c}_missing: {} }})", t.model, value_for(ty, rng))
    } else {
        let (owner, other, fk) = ASSOCIATIONS[rng.below(ASSOCIATIONS.len() as u64) as usize];
        let (o, a) = (&TABLES[owner], &TABLES[other]);
        let (c, ty) = sql_column(a, rng);
        format!(
            "{}.where('{}.id IN (SELECT {fk} FROM {}_missing WHERE {c} = ?)', {}).count() > 0",
            o.model,
            o.name,
            a.name,
            value_for(ty, rng)
        )
    }
}

/// The ORM fixtures every model class carries, so the suites can run.
const FIXTURES: &str = "  def self.seed(rows)
    @rows = rows
  end

  def self.rows()
    @rows || []
  end

  def self.exists?(cond = nil)
    if cond.nil?()
      rows().length() > 0
    else
      rows().any? { |r| cond.all? { |k, v| r[k] == v || r[k].nil?() } }
    end
  end

  def self.where(cond, arg = nil)
    self
  end

  def self.joins(assoc)
    self
  end

  def self.count(col = nil)
    rows().length()
  end
";

/// Generates the dense app from `seed`, with `methods` generated methods
/// whose query sites are drawn from a pool of `pool` shapes.
pub fn generate(seed: u64, methods: usize, pool: usize) -> DenseApp {
    let mut rng = rng(seed, 3);
    let shapes: Vec<String> = (0..pool).map(|k| shape(k % 6, &mut rng)).collect();

    // Planted errors go to distinct methods outside the suite's calls.
    let mut planted_methods: Vec<usize> = Vec::new();
    while planted_methods.len() < PLANTED.min(methods.saturating_sub(SUITE_CALLS)) {
        let m = SUITE_CALLS + rng.below((methods - SUITE_CALLS) as u64) as usize;
        if !planted_methods.contains(&m) {
            planted_methods.push(m);
        }
    }

    let mut per_class: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for m in 0..methods {
        per_class.entry(m % TABLES.len()).or_default().push(m);
    }

    // The source as lines, so a planted site's line number is its index.
    let mut lines: Vec<String> = Vec::new();
    let mut annotations = Vec::with_capacity(methods);
    let mut planted = Vec::new();
    for (class, ms) in &per_class {
        let t = &TABLES[*class];
        lines.push(format!("class {} < ActiveRecord::Base", t.model));
        lines.extend(FIXTURES.lines().map(str::to_string));
        for &m in ms {
            lines.push(String::new());
            lines.push(format!("  def self.q{m}(name, n)"));
            let sites = 6 + m % 4;
            let bad = planted_methods
                .iter()
                .position(|&p| p == m)
                .map(|k| (rng.below(sites as u64) as usize, planted_site(k, &mut rng)));
            for s in 0..sites {
                let site = match &bad {
                    Some((at, text)) if *at == s => {
                        planted.push(lines.len() as u32 + 1);
                        text.clone()
                    }
                    _ => shapes[rng.below(shapes.len() as u64) as usize].clone(),
                };
                lines.push(format!("    a{s} = {site}"));
            }
            let result: Vec<String> = (0..sites).map(|s| format!("a{s}")).collect();
            lines.push(format!("    {}", result.join(" || ")));
            lines.push("  end".to_string());
            annotations.push((
                t.model.to_string(),
                format!("q{m}"),
                "(String, Integer) -> %bool".to_string(),
            ));
        }
        lines.push("end".to_string());
        lines.push(String::new());
    }
    let source = lines.join("\n");

    let mut test_suite = String::new();
    for (k, t) in TABLES.iter().enumerate() {
        let _ = writeln!(test_suite, "{}.seed([{{ id: 1 }}, {{ id: {} }}])", t.model, k + 2);
    }
    let _ = writeln!(test_suite, "3.times {{ |i|");
    for m in 0..SUITE_CALLS.min(methods) {
        let _ = writeln!(test_suite, "  {}.q{m}('alice', i)", TABLES[m % TABLES.len()].model);
    }
    let _ = writeln!(test_suite, "}}");

    let mut db = DbRegistry::new();
    for t in TABLES {
        db.add_table(t.name, t.columns);
        db.add_model(t.model, t.name);
    }
    for &(owner, other, _) in ASSOCIATIONS {
        db.add_association(TABLES[owner].model, TABLES[other].name, TABLES[other].name);
    }
    planted.sort_unstable();
    DenseApp { source, test_suite, db, annotations, planted }
}

/// The generated annotations, registered by [`annotate`] (an `App` takes a
/// plain function pointer, so the generated set is handed over here).
static ANNOTATIONS: Mutex<Vec<(String, String, String)>> = Mutex::new(Vec::new());

fn annotate(env: &mut CompRdl) {
    // The list is only ever replaced whole, so a poisoned lock still
    // guards a complete list.
    let annotations = ANNOTATIONS.lock().unwrap_or_else(|e| e.into_inner());
    for (class, method, sig) in annotations.iter() {
        env.type_sig_singleton(class, method, sig, Some("app"));
    }
}

/// Setup state: the generated app and its references.
pub struct DenseSchema {
    app: App,
    planted: Vec<u32>,
    reference: String,
}

impl DenseSchema {
    /// Generates the app and checks it once through the real entry point.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let gen = generate(seed, METHODS, POOL);
        *ANNOTATIONS.lock().unwrap_or_else(|e| e.into_inner()) = gen.annotations;
        let app = App {
            name: "Dense",
            group: "Rails Applications",
            db: Some(gen.db),
            annotate,
            source: Box::leak(gen.source.into_boxed_str()),
            test_suite: Box::leak(gen.test_suite.into_boxed_str()),
            extra_annotations: 0,
            expected_errors: gen.planted.len(),
        };
        let row = corpus::evaluate_app_shared(&app, 1, &Arc::new(SharedMemo::new()))
            .map_err(|e| format!("reference run: {e}"))?;
        let mut dense = DenseSchema { app, planted: gen.planted, reference: String::new() };
        dense.check_planted(&row)?;
        dense.reference = app_report(&row);
        Ok(dense)
    }

    /// The planted-error oracle: exactly one error on each planted line and
    /// none anywhere else, every generated method checked, no blame.
    fn check_planted(&self, row: &Table2Row) -> Result<(), String> {
        let mut lines: Vec<u32> = row
            .diagnostics
            .iter()
            .filter(|d| d.severity == diagnostics::Severity::Error)
            .map(|d| d.labels.first().map_or(0, |l| l.span.line))
            .collect();
        lines.sort_unstable();
        if lines != self.planted {
            return Err(format!("error lines {lines:?}, planted {:?}", self.planted));
        }
        if row.methods != METHODS {
            return Err(format!("{} methods checked of {METHODS}", row.methods));
        }
        if !row.runtime_blames.is_empty() {
            return Err(format!("{} runtime blames", row.runtime_blames.len()));
        }
        Ok(())
    }
}

impl Workload for DenseSchema {
    type Output = Table2Row;

    fn cycle(&self) -> usize {
        4
    }

    fn run(&mut self, _i: usize) -> Result<Table2Row, String> {
        corpus::evaluate_app_shared(&self.app, 1, &Arc::new(SharedMemo::new()))
            .map_err(|e| e.to_string())
    }

    fn run_traced(&mut self, _i: usize, t: &mut Tracer) -> Result<Table2Row, String> {
        crate::replica::evaluate_app_shared(t, &self.app, &Arc::new(SharedMemo::new()))
            .map_err(|e| e.to_string())
    }

    fn verify(&self, _i: usize, row: &Table2Row) -> Result<usize, String> {
        self.check_planted(row)?;
        same_report(self.app.name, &app_report(row), &self.reference)?;
        Ok(row.methods)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_seeded_and_plants_distinct_lines() {
        let a = generate(7, 40, 16);
        let b = generate(7, 40, 16);
        assert_eq!(a.source, b.source);
        assert_eq!(a.planted, b.planted);
        assert_ne!(a.source, generate(8, 40, 16).source);
        assert_eq!(a.annotations.len(), 40);
        assert_eq!(a.planted.len(), PLANTED);
        let lines: Vec<&str> = a.source.lines().collect();
        for &line in &a.planted {
            assert!(lines[line as usize - 1].contains("_missing"), "{}", lines[line as usize - 1]);
        }
    }
}
