//! The migration-churn workload for the shared run-time check memo
//! ([`comprdl::SharedMemo`]): generated migration *sequences* — many
//! epochs per run — measuring how warm hit rate degrades with mutation
//! frequency, plus the cost of an uncontended warm read (a bare lookup and
//! a full hook call).
//!
//! Besides timing, this bench is a correctness/regression gate:
//!
//! * **Namespace isolation** — under a one-app migration sequence, the
//!   *other* namespaces' hit/miss counters must be *exactly* those of the
//!   no-migration run (per-namespace epochs; the emulated global-epoch
//!   scenario shows the hit rate they would lose to a single global
//!   counter).
//! * **Bounded shards** — the eviction-pressure scenario must actually
//!   evict (and never grow past capacity).
//! * **Warm reads** — a pre-populated memo must answer every warm lookup
//!   from the table.
//! * **The type core** — the hash-consed subtype / fingerprint / render
//!   fast paths must produce outputs identical to the structural-walk
//!   oracles, beat them on the warm path (full mode only), and leave the
//!   full eight-app corpus evaluation byte-identical with the verdict
//!   cache on and off.
//!
//! Every scenario's median ns + hit/miss/invalidation/eviction counts are
//! persisted to `BENCH_SHARED_MEMO.json` at the repo root
//! ([`bench::results`]), so future PRs diff perf instead of re-reading CI
//! logs.  CI runs this bench with `BENCH_SMOKE=1` and then fails if the
//! file is missing or unparseable.

use bench::results::Scenario;
use comprdl::{
    memo_namespace, CheckConfig, CompRdlHook, HelperRegistry, InsertedCheck, MemoKey, MemoStats,
    MemoTable, SharedMemo,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rdl_types::{verdict_cache, ClassTable, HashKey, Subtyper, Type, TypeStore};
use ruby_interp::{DynamicCheckHook, Value};
use ruby_syntax::Span;
use std::sync::Arc;
use std::time::Instant;

/// Namespaces ("apps") sharing the memo in the churn scenarios.
const APPS: usize = 4;
/// Checked calls per app per churn sample.
const CALLS: usize = 3_000;
/// Warm lookups per timed warm-read sample.
const WARM_PASS: usize = 10_000;
/// The named type-level slot the generated migrations flip.
const MODE_SLOT: &str = "bench.mode";

fn site(n: usize) -> Span {
    Span::new(n * 10, n * 10 + 5, n as u32 + 1)
}

/// Two return-checked sites; the value schedule cycles three shapes per
/// site, one of which blames — so warm replays cover both the inline `Ok`
/// fast path and the blame-replay path.
fn checks() -> Vec<InsertedCheck> {
    vec![
        InsertedCheck {
            site: site(1),
            description: "Array#map".to_string(),
            expected_return: Type::array(Type::nominal("Integer")),
            consistency: None,
        },
        InsertedCheck {
            site: site(2),
            description: "Hash#[]".to_string(),
            expected_return: Type::union([Type::nominal("String"), Type::nominal("Symbol")]),
            consistency: None,
        },
    ]
}

/// The deterministic call schedule: site alternates per step, the value
/// index cycles.  Index 2 at site 2 (`Int`) fails the union check and
/// records a blame.
fn schedule_values() -> [Vec<Value>; 2] {
    [
        vec![
            Value::array(vec![Value::Int(1)]),
            Value::array(vec![Value::Int(1), Value::Int(2)]),
            Value::array(vec![]),
        ],
        vec![Value::str("a"), Value::Sym("id".into()), Value::Int(7)],
    ]
}

fn hook_on(memo: &Arc<SharedMemo>, namespace: u64) -> CompRdlHook {
    CompRdlHook::with_shared_memo(
        checks(),
        TypeStore::new(),
        ClassTable::with_builtins(),
        HelperRegistry::new(),
        CheckConfig { raise_blame: false, ..CheckConfig::default() },
        memo.clone(),
        namespace,
    )
}

/// One churn run: `APPS` hooks interleaved round-robin over the schedule;
/// app 0 migrates (a `mutate_store` flipping [`MODE_SLOT`]) every
/// `migrate_every` steps (0 = never).  With `global_bump`, every other
/// namespace's epoch is bumped alongside — emulating a single global epoch
/// so its cross-app flush cost is measurable against the per-namespace
/// behaviour.
struct ChurnOutcome {
    ns_per_call: u128,
    per_app: Vec<comprdl::CacheStats>,
    memo: MemoStats,
}

fn run_churn(migrate_every: usize, global_bump: bool) -> ChurnOutcome {
    let samples = bench::sample_size(7);
    let mut timings = Vec::with_capacity(samples);
    let mut last: Option<ChurnOutcome> = None;
    for _ in 0..samples {
        let memo = Arc::new(SharedMemo::new());
        let namespaces: Vec<u64> =
            (0..APPS).map(|i| memo.register_namespace(&format!("app-{i}"))).collect();
        let hooks: Vec<CompRdlHook> = namespaces.iter().map(|ns| hook_on(&memo, *ns)).collect();
        let values = schedule_values();
        let started = Instant::now();
        for i in 0..CALLS {
            if migrate_every != 0 && i > 0 && i.is_multiple_of(migrate_every) {
                let ty = if (i / migrate_every).is_multiple_of(2) {
                    Type::nominal("String")
                } else {
                    Type::nominal("Float")
                };
                hooks[0].mutate_store(|s| s.set_named(MODE_SLOT, ty));
                if global_bump {
                    for ns in &namespaces[1..] {
                        memo.bump_namespace_epoch(*ns);
                    }
                }
            }
            let which = i % 2;
            let value = &values[which][(i / 2) % 3];
            for hook in &hooks {
                let _ = hook.after_call(site(which + 1), value);
            }
        }
        let elapsed = started.elapsed();
        timings.push(elapsed.as_nanos() / (CALLS as u128 * APPS as u128));
        last = Some(ChurnOutcome {
            ns_per_call: 0,
            per_app: hooks.iter().map(CompRdlHook::memo_stats).collect(),
            memo: memo.stats(),
        });
    }
    let mut outcome = last.expect("at least one sample");
    outcome.ns_per_call = bench::results::median_ns(timings);
    outcome
}

/// Median ns per fully-warm hook call (single namespace, memo
/// pre-populated, every call a hit).
fn run_warm_read() -> (u128, MemoStats) {
    let memo = Arc::new(SharedMemo::new());
    let hook = hook_on(&memo, memo.register_namespace("warm"));
    let values = schedule_values();
    // Populate: one pass over every (site, value) pair.
    for i in 0..6 {
        let which = i % 2;
        let _ = hook.after_call(site(which + 1), &values[which][(i / 2) % 3]);
    }
    let samples = bench::sample_size(30);
    let mut timings = Vec::with_capacity(samples);
    for _ in 0..samples {
        let started = Instant::now();
        for i in 0..WARM_PASS {
            let which = i % 2;
            let _ = hook.after_call(site(which + 1), &values[which][(i / 2) % 3]);
        }
        timings.push(started.elapsed().as_nanos() / WARM_PASS as u128);
        // The blame list grows by one per replayed blame; drain it so the
        // timed loop measures the memo, not a growing Vec reallocation.
        let _ = hook.take_blames();
    }
    (bench::results::median_ns(timings), memo.stats())
}

/// Median ns per bare memo lookup (no hook, no value fingerprinting): the
/// isolated read-path cost, shard lock included.  The hook-level warm-read
/// scenario above it measures the end-to-end call, where fingerprinting
/// and check dispatch dilute the lookup's share.
fn run_memo_read() -> (u128, MemoStats) {
    let memo = SharedMemo::new();
    let ns_id = memo.register_namespace("probe");
    let ns = memo.namespace_state(ns_id);
    let keys: Vec<MemoKey> =
        (0..8u64).map(|i| (ns_id, site(1), 0x9E37_79B9 ^ (i * 0x10001))).collect();
    for key in &keys {
        memo.insert(MemoTable::After, key, 0, 0, &Ok(()));
    }
    let samples = bench::sample_size(30);
    let mut timings = Vec::with_capacity(samples);
    for _ in 0..samples {
        let started = Instant::now();
        for i in 0..WARM_PASS {
            black_box(memo.lookup(MemoTable::After, &keys[i % keys.len()], 0, &ns));
        }
        timings.push(started.elapsed().as_nanos() / WARM_PASS as u128);
    }
    (bench::results::median_ns(timings), memo.stats())
}

/// Eviction pressure: a one-shard, minimum-capacity memo driven over many
/// more distinct value shapes than it can hold.
fn run_eviction_pressure() -> MemoStats {
    let memo = Arc::new(SharedMemo::with_settings(1, 8));
    let check = InsertedCheck {
        site: site(9),
        description: "Integer#succ".to_string(),
        expected_return: Type::nominal("Integer"),
        consistency: None,
    };
    let hook = CompRdlHook::with_shared_memo(
        vec![check],
        TypeStore::new(),
        ClassTable::with_builtins(),
        HelperRegistry::new(),
        CheckConfig { raise_blame: false, ..CheckConfig::default() },
        memo.clone(),
        memo.register_namespace("pressure"),
    );
    for _pass in 0..3 {
        for i in 0..32i64 {
            let _ = hook.after_call(site(9), &Value::Int(i));
        }
    }
    assert!(memo.len() <= memo.capacity(), "capacity is a hard bound");
    memo.stats()
}

/// The type-core working set: signature-shaped store-free types (the kind
/// the checker compares thousands of times per run) plus store-backed
/// schema hashes, tuples and const strings, which bypass the interner and
/// exercise the per-store caches instead.
fn type_core_workload(store: &mut TypeStore) -> Vec<Type> {
    let string = Type::nominal("String");
    let integer = Type::nominal("Integer");
    let symbol = Type::nominal("Symbol");
    let mut set = vec![
        string.clone(),
        integer.clone(),
        symbol.clone(),
        Type::nominal("Numeric"),
        Type::nominal("Object"),
        Type::Bool,
        Type::nil(),
        Type::sym("emails"),
        Type::int(42),
        Type::array(integer.clone()),
        Type::array(Type::union([string.clone(), symbol.clone()])),
        Type::hash(symbol.clone(), string.clone()),
        Type::union([string.clone(), symbol.clone()]),
        Type::union([integer.clone(), Type::nominal("Float"), Type::nil()]),
        Type::Optional(Box::new(integer.clone())),
        Type::Vararg(Box::new(string.clone())),
        Type::class_of("User"),
        Type::array(Type::array(Type::union([integer.clone(), Type::nil()]))),
    ];
    // The shapes the checker actually spends its time on: wide unions
    // (structural subtyping scans all × any members) and deep generic
    // nests, where one warm verdict-cache probe replaces a quadratic walk.
    let row = |name: &str| {
        Type::union([
            Type::hash(symbol.clone(), Type::union([string.clone(), integer.clone(), Type::nil()])),
            Type::array(Type::nominal(name)),
            Type::nominal(name),
            Type::nil(),
        ])
    };
    let wide_a = Type::union([
        row("User"),
        row("Post"),
        row("Topic"),
        Type::array(Type::hash(symbol.clone(), string.clone())),
        integer.clone(),
    ]);
    let wide_b = Type::union([
        row("User"),
        row("Post"),
        row("Topic"),
        row("Badge"),
        Type::array(Type::hash(symbol.clone(), Type::union([string.clone(), symbol.clone()]))),
        Type::union([integer.clone(), Type::nominal("Float")]),
    ]);
    let mut deep = Type::hash(symbol.clone(), wide_a.clone());
    for _ in 0..4 {
        deep = Type::array(Type::hash(symbol.clone(), Type::union([deep, Type::nil()])));
    }
    set.extend([wide_a, wide_b, deep]);
    set.push(store.new_finite_hash(vec![
        (HashKey::Sym("id".into()), integer.clone()),
        (HashKey::Sym("name".into()), string.clone()),
    ]));
    set.push(store.new_finite_hash(vec![
        (HashKey::Sym("id".into()), integer.clone()),
        (HashKey::Sym("email".into()), string.clone()),
        (HashKey::Sym("age".into()), Type::union([integer, Type::nil()])),
    ]));
    set.push(store.new_tuple(vec![string.clone(), Type::Bool]));
    set.push(store.new_const_string("SELECT 1"));
    set
}

/// One full pass over the working set on either the structural (`uncached`
/// oracle APIs) or the cached path: every pairwise subtype query plus a
/// fingerprint and a render per type.  Returns the observable outputs so
/// the two paths can be gated byte-identical before they are timed.
fn type_core_pass(
    sub: &Subtyper<'_>,
    store: &TypeStore,
    set: &[Type],
    structural: bool,
) -> (Vec<bool>, Vec<u64>, Vec<String>) {
    let mut verdicts = Vec::with_capacity(set.len() * set.len());
    for a in set {
        for b in set {
            verdicts.push(if structural {
                sub.is_subtype_uncached(store, a, b)
            } else {
                sub.is_subtype(store, a, b)
            });
        }
    }
    let digests = set
        .iter()
        .map(|t| if structural { store.fingerprint_uncached(t) } else { store.fingerprint(t) })
        .collect();
    let renders = set
        .iter()
        .map(|t| if structural { store.render_uncached(t) } else { store.render(t) })
        .collect();
    (verdicts, digests, renders)
}

/// Times the type-core workload on both paths (median ns per operation,
/// warm) and returns the two scenario rows.  The interned row carries the
/// verdict-cache counter deltas of its timed passes.
fn run_type_core(smoke: bool) -> (Scenario, Scenario) {
    let classes = ClassTable::with_builtins();
    let sub = Subtyper::new(&classes);
    let mut store = TypeStore::new();
    let set = type_core_workload(&mut store);
    let ops = (set.len() * set.len() + 2 * set.len()) as u128;

    // The observational gate: before timing anything, both paths must
    // agree on every verdict, digest and rendering.
    let structural_out = type_core_pass(&sub, &store, &set, true);
    let cached_out = type_core_pass(&sub, &store, &set, false);
    assert_eq!(structural_out, cached_out, "cached type-core outputs diverged from structural");

    let samples = bench::sample_size(30);
    let time_path = |structural: bool| {
        let mut timings = Vec::with_capacity(samples);
        for _ in 0..samples {
            let started = Instant::now();
            black_box(type_core_pass(&sub, &store, &set, structural));
            timings.push(started.elapsed().as_nanos() / ops);
        }
        bench::results::median_ns(timings)
    };
    // Structural first; the gate pass above already warmed the interner and
    // the verdict cache, so the cached timings measure the warm path.
    let structural_ns = time_path(true);
    let before = verdict_cache::stats();
    let interned_ns = time_path(false);
    let after = verdict_cache::stats();

    println!(
        "type core (pairwise subtype + fingerprint + render): structural {structural_ns} ns/op, \
         interned {interned_ns} ns/op ({:.2}x)",
        structural_ns as f64 / interned_ns.max(1) as f64
    );
    if !smoke {
        assert!(
            interned_ns < structural_ns,
            "the warm interned path must beat the structural walk (interned {interned_ns} ns/op \
             vs structural {structural_ns} ns/op)"
        );
    }
    let structural_row = Scenario {
        name: "type_core/structural".to_string(),
        median_ns: structural_ns,
        hits: 0,
        misses: 0,
        invalidations: 0,
        evictions: 0,
    };
    let interned_row = Scenario {
        name: "type_core/interned".to_string(),
        median_ns: interned_ns,
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        invalidations: 0,
        evictions: after.evictions - before.evictions,
    };
    (structural_row, interned_row)
}

/// The corpus-level gate: the verdict cache (and with it the
/// id fast path) must not change a byte of the full eight-app evaluation's
/// deterministic output — diagnostics, blame renderings, cast counts.
fn assert_type_core_invisible_at_corpus_scale() {
    let rendered = |rows: &[corpus::Table2Row]| -> String {
        let mut out = corpus::stable_report(rows);
        for (app, row) in corpus::apps::all().iter().zip(rows) {
            out.push_str(&corpus::render_runtime_blames(app, row));
        }
        out
    };
    let was = verdict_cache::set_enabled(false);
    let uncached = corpus::table2().expect("uncached corpus run");
    verdict_cache::set_enabled(true);
    let cached = corpus::table2().expect("cached corpus run");
    verdict_cache::set_enabled(was);
    assert_eq!(
        rendered(&cached),
        rendered(&uncached),
        "the verdict cache changed observable corpus output"
    );
}

fn memo_churn(_c: &mut Criterion) {
    let mut scenarios = Vec::new();
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();

    // Uncontended warm reads, measured twice: bare memo lookups, where
    // the shard lock's cost is undiluted, and full hook calls, where value
    // fingerprinting and check dispatch surround the lookup.
    let (probe_ns, probe_stats) = run_memo_read();
    println!("memo read (bare lookup, all hits): {probe_ns} ns");
    assert!(probe_stats.hits >= WARM_PASS as u64, "bare reads must be all hits: {probe_stats:?}");
    scenarios.push(Scenario::from_stats("memo_read", probe_ns, probe_stats));

    let (warm_ns, warm_stats) = run_warm_read();
    println!("warm read (full hook call, all hits): {warm_ns} ns/call");
    assert!(warm_stats.hits >= WARM_PASS as u64, "warm-read runs must be all hits: {warm_stats:?}");
    scenarios.push(Scenario::from_stats("warm_read", warm_ns, warm_stats));

    // Hit rate vs mutation frequency: app 0 migrates every m steps; apps
    // 1..3 never do.  Per-namespace epochs mean their counters must be
    // *identical* to the no-migration run.
    let baseline = run_churn(0, false);
    let others_baseline: Vec<comprdl::CacheStats> = baseline.per_app[1..].to_vec();
    println!("churn m=0: {} ns/call, memo {:?}", baseline.ns_per_call, baseline.memo);
    scenarios.push(Scenario::from_stats("churn/m0", baseline.ns_per_call, baseline.memo));
    let mut m25_other_hits = 0u64;
    for migrate_every in [100, 25, 8] {
        let outcome = run_churn(migrate_every, false);
        if migrate_every == 25 {
            m25_other_hits = outcome.per_app[1..].iter().map(|s| s.hits).sum();
        }
        println!(
            "churn m={migrate_every}: {} ns/call, memo {:?} (app-0 {:?})",
            outcome.ns_per_call, outcome.memo, outcome.per_app[0]
        );
        assert!(
            outcome.per_app[0].invalidations > 0,
            "the migrating app must churn its own entries: {:?}",
            outcome.per_app[0]
        );
        assert_eq!(
            &outcome.per_app[1..],
            others_baseline.as_slice(),
            "m={migrate_every}: app 0's migrations changed another namespace's hit/miss \
             counters (per-namespace epoch isolation broken)"
        );
        scenarios.push(Scenario::from_stats(
            &format!("churn/m{migrate_every}"),
            outcome.ns_per_call,
            outcome.memo,
        ));
    }

    // The same one-app churn under an emulated global epoch: every
    // migration flushes all four namespaces, so the
    // non-migrating apps must lose hits — the cost per-namespace epochs
    // remove.
    let global = run_churn(25, true);
    let per_ns_hits = m25_other_hits;
    let global_hits: u64 = global.per_app[1..].iter().map(|s| s.hits).sum();
    println!(
        "churn m=25 global epoch: {} ns/call, other-app hits {global_hits} (vs {per_ns_hits} \
         with per-namespace epochs)",
        global.ns_per_call
    );
    assert!(
        global_hits < per_ns_hits,
        "the emulated global epoch must cost the non-migrating apps hits \
         ({global_hits} vs {per_ns_hits})"
    );
    scenarios.push(Scenario::from_stats("churn/m25_global_epoch", global.ns_per_call, global.memo));

    // Bounded shards: overflow must evict, not grow.
    let pressure = run_eviction_pressure();
    println!("eviction pressure: {pressure:?}");
    assert!(pressure.evictions > 0, "the tiny table must evict: {pressure:?}");
    scenarios.push(Scenario::from_stats("eviction_pressure", 0, pressure));

    // Sanity: registration hands back the same id the hooks derive, so the
    // churn scenarios really recorded under the labeled namespaces.
    assert_eq!(SharedMemo::new().register_namespace("app-0"), memo_namespace("app-0"));

    // The type-core rows: the hash-consed fast paths (id short-circuit +
    // verdict cache + precomputed digests + cached renders) against the
    // structural-walk oracles on a signature-shaped working set, gated on
    // identical outputs and on the full corpus being byte-identical with
    // the cache on and off.
    let (type_core_structural, type_core_interned) = run_type_core(smoke);
    scenarios.push(type_core_structural);
    scenarios.push(type_core_interned);
    assert_type_core_invisible_at_corpus_scale();

    let path = bench::results::record("memo_churn", &scenarios).expect("persist bench results");
    println!("results written to {}", path.display());
}

criterion_group!(benches, memo_churn);
criterion_main!(benches);
