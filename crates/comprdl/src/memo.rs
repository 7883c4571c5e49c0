//! The concurrent run-time check memo shared by every [`CompRdlHook`]
//! constructed over it: a sharded, bounded, `Send + Sync` table of check
//! verdicts keyed on `(namespace, call site, value fingerprint)`.
//!
//! [`CompRdlHook`]: crate::runtime::CompRdlHook
//!
//! ## One mutex per shard
//!
//! Each shard is a `Mutex` over a fixed-size, open-addressed slot table of
//! plain entries.  Every operation — lookup, insert, stale-entry removal
//! and eviction — hashes the full key (value fingerprint and before/after
//! tag included, so one hot call site still spreads over shards), takes
//! that one shard's lock, and works on ordinary data.  A lookup holds the
//! lock for one probe of at most eight slots; a blame hit clones only an
//! `Arc` under the lock and copies the diagnostic after releasing it.  The
//! per-shard lock is the only synchronisation on the table: a reader never
//! sees a half-written entry, and a stale entry is judged and removed in
//! the same critical section that found it.
//!
//! Lock order: the namespace registry's lock is never taken while a shard
//! lock is held.  Namespace counters are atomics bumped after the shard
//! lock is released, and evictions are tallied inside the shard and
//! drained to the registry by the stats readers.
//!
//! ## Per-namespace epochs
//!
//! Every namespace has its own epoch.  A hook's [`mutate_store`] (or a
//! comp-type evaluation that mutates type-level state mid-flight) bumps
//! only its own namespace's counter, and a lookup reads that namespace's
//! epoch (under the shard lock) when judging freshness, so one app's
//! mid-suite migration never costs the other apps their warm entries.  This
//! is sound because namespaces never share keys: an entry is only ever
//! replayed by hooks of the namespace that recorded it, and those hooks
//! are deterministic replays of one program whose mutations all bump the
//! same counter.
//!
//! [`mutate_store`]: crate::runtime::CompRdlHook::mutate_store
//!
//! ## Bounded shards (CLOCK eviction)
//!
//! Slot tables are **fixed-capacity** ([`SharedMemo::with_capacity`]); a
//! key probes a short window of slots, and an insert that finds its window
//! full evicts by **second-chance (CLOCK)**: every hit sets the entry's
//! referenced bit, the victim scan — starting at a hand that rotates per
//! shard — clears bits until it finds an unreferenced entry, and the
//! evicted entry simply costs its next reader a re-evaluation.  Eviction
//! can never change a verdict, only the hit rate, and long-lived runs hold
//! memo memory constant.

use crate::runtime::BlameDiagnostic;
use rdl_types::Fingerprint;
use ruby_syntax::Span;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Derives a stable memo namespace from a program / app name, so replays of
/// the same program share entries while unrelated programs never do.
pub fn memo_namespace(name: &str) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write_str(name);
    fp.finish()
}

/// Memo keys: `(namespace, call site, value fingerprint)`.  The namespace
/// keeps programs whose spans collide (every corpus app starts at file 0,
/// offset 0) from ever exchanging verdicts.
pub type MemoKey = (u64, Span, u64);

/// Which callback's verdicts a memo operation addresses (`before_call`
/// consistency checks vs `after_call` return checks); part of the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoTable {
    /// `before_call` outcomes, keyed on the receiver+argument fingerprint.
    Before,
    /// `after_call` outcomes, keyed on the return-value fingerprint.
    After,
}

/// Aggregate counters of one [`SharedMemo`] (or one namespace within it):
/// hits, misses, stamp invalidations, and capacity evictions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that fell through to evaluation.
    pub misses: u64,
    /// Entries removed because a stamp (store generation or namespace
    /// epoch) moved past them; every invalidation is also counted as a
    /// miss.
    pub invalidations: u64,
    /// Entries displaced by capacity pressure (the CLOCK second-chance
    /// victim scan), attributed to the namespace that *owned* the evicted
    /// entry.
    pub evictions: u64,
}

impl MemoStats {
    /// Total lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate as a fraction in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// A point-in-time snapshot of one namespace's counters and epoch, labeled
/// with the app name it was registered under (see
/// [`SharedMemo::register_namespace`]).
#[derive(Debug, Clone, PartialEq)]
pub struct NamespaceStats {
    /// The label the namespace was registered with (empty for namespaces
    /// that were only ever derived from a raw id).
    pub label: String,
    /// The namespace id ([`memo_namespace`] of the label, for registered
    /// namespaces).
    pub namespace: u64,
    /// The namespace's current epoch: how many store mutations its hooks
    /// have observed.
    pub epoch: u64,
    /// The namespace's counters.
    pub stats: MemoStats,
}

/// Per-namespace shared state: the epoch its entries are stamped with and
/// the counters its lookups update.  Hooks (and direct [`SharedMemo::lookup`]
/// callers) resolve their namespace's state once via
/// [`SharedMemo::namespace_state`] and then never touch the registry map
/// again.
#[derive(Debug, Default)]
pub struct NamespaceState {
    label: Mutex<String>,
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
}

impl NamespaceState {
    /// The namespace's current epoch.  Entries recorded at an older epoch
    /// are stale: some hook of this namespace's store has mutated since.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Advances the namespace's epoch, invalidating (lazily, on next
    /// lookup) every entry recorded under it.  Other namespaces' entries
    /// are untouched — they never share keys with this one.
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    fn snapshot(&self, namespace: u64) -> NamespaceStats {
        NamespaceStats {
            label: self.label.lock().unwrap_or_else(|e| e.into_inner()).clone(),
            namespace,
            epoch: self.epoch(),
            stats: MemoStats {
                hits: self.hits.load(Ordering::Relaxed),
                misses: self.misses.load(Ordering::Relaxed),
                invalidations: self.invalidations.load(Ordering::Relaxed),
                evictions: self.evictions.load(Ordering::Relaxed),
            },
        }
    }
}

/// How many consecutive slots a key may occupy (its probe window), and
/// therefore how many slots a lookup scans.  Bounded probing is what makes
/// eviction safe: a key is only ever found inside its own window, so
/// displacing any slot can only turn someone's hit into a miss.
const PROBE_WINDOW: usize = 8;

/// One recorded verdict: its full key, the stamps it was recorded under,
/// the CLOCK referenced bit, and the blame of an `Err` verdict (`None` for
/// `Ok`).
#[derive(Debug)]
struct Entry {
    table: MemoTable,
    key: MemoKey,
    generation: u64,
    epoch: u64,
    referenced: bool,
    blame: Option<Arc<BlameDiagnostic>>,
}

/// One shard, guarded as a whole by its mutex.
#[derive(Debug)]
struct ShardState {
    /// Open-addressed slot table (power-of-two length).
    slots: Vec<Option<Entry>>,
    /// CLOCK hand: rotates the victim-scan start within the probe window
    /// so eviction pressure does not always land on the window's first
    /// slot.
    clock: usize,
    /// Evictions not yet attributed to their namespace's counters, keyed
    /// by the displaced entry's namespace.  Drained to the namespace
    /// registry by the stats readers, so the insert path never takes the
    /// registry lock.
    pending_evictions: HashMap<u64, u64>,
}

impl ShardState {
    /// The slot of `window` holding exactly `key` in `table`, if any.
    fn find(&self, window: &[usize], table: MemoTable, key: &MemoKey) -> Option<usize> {
        window
            .iter()
            .copied()
            .find(|&i| self.slots[i].as_ref().is_some_and(|e| e.table == table && e.key == *key))
    }
}

/// Locks a shard.  Every update replaces a whole slot, so a shard poisoned
/// by a panicking holder is still consistent.
fn lock(shard: &Mutex<ShardState>) -> MutexGuard<'_, ShardState> {
    shard.lock().unwrap_or_else(|e| e.into_inner())
}

/// The concurrent run-time check memo shared by every
/// [`CompRdlHook`](crate::runtime::CompRdlHook) constructed over it (see
/// the module docs for the locking, epoch and eviction design).
pub struct SharedMemo {
    shards: Box<[Mutex<ShardState>]>,
    /// Slots per shard minus one (slot counts are powers of two).
    mask: usize,
    namespaces: Mutex<HashMap<u64, Arc<NamespaceState>>>,
}

impl SharedMemo {
    /// Default shard count: enough that one thread per corpus app rarely
    /// contends on a shard lock, small enough that shard occupancy stats
    /// stay readable.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Default total capacity (entries across all shards): comfortably
    /// above the live-entry count of the whole corpus harness, while
    /// bounding a long-lived server run to a few megabytes of memo.
    pub const DEFAULT_CAPACITY: usize = 16 * 1024;

    /// A memo with [`SharedMemo::DEFAULT_SHARDS`] shards and
    /// [`SharedMemo::DEFAULT_CAPACITY`] capacity.
    pub fn new() -> Self {
        SharedMemo::with_settings(Self::DEFAULT_SHARDS, Self::DEFAULT_CAPACITY)
    }

    /// A memo bounded to roughly `entries` recorded verdicts across the
    /// default shard count.  Capacity is a hard bound enforced by CLOCK
    /// second-chance eviction, never by refusing inserts: overflow costs
    /// hit rate, not correctness.
    pub fn with_capacity(entries: usize) -> Self {
        SharedMemo::with_settings(Self::DEFAULT_SHARDS, entries)
    }

    /// Full-control constructor: `shards` shards (≥ 1) and a total
    /// capacity of roughly `entries` slots (rounded up to a power of two
    /// per shard, at least the probe window).
    pub fn with_settings(shards: usize, entries: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = entries.div_ceil(shards).next_power_of_two().max(PROBE_WINDOW);
        let shard = || {
            Mutex::new(ShardState {
                slots: (0..per_shard).map(|_| None).collect(),
                clock: 0,
                pending_evictions: HashMap::new(),
            })
        };
        SharedMemo {
            shards: (0..shards).map(|_| shard()).collect(),
            mask: per_shard - 1,
            namespaces: Mutex::new(HashMap::new()),
        }
    }

    /// Total slot capacity (the hard bound on recorded entries).
    pub fn capacity(&self) -> usize {
        self.shards.len() * (self.mask + 1)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Entries currently recorded per shard, in shard order.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| lock(s).slots.iter().flatten().count()).collect()
    }

    /// Total number of recorded entries across all shards.
    pub fn len(&self) -> usize {
        self.shard_sizes().iter().sum()
    }

    /// True when no entries are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registers (or re-labels) the namespace for `name` and returns its
    /// id — [`memo_namespace`]`(name)`.  Harnesses register each app's
    /// name so [`SharedMemo::namespace_stats`] can report per-app rows.
    pub fn register_namespace(&self, name: &str) -> u64 {
        let id = memo_namespace(name);
        let state = self.namespace_state(id);
        let mut label = state.label.lock().unwrap_or_else(|e| e.into_inner());
        if label.is_empty() {
            *label = name.to_string();
        }
        id
    }

    /// The current epoch of `namespace` (0 if it has never been touched).
    pub fn namespace_epoch(&self, namespace: u64) -> u64 {
        self.namespace_state(namespace).epoch()
    }

    /// Advances `namespace`'s epoch, lazily invalidating every entry
    /// recorded under it — and only under it.  Hooks call this through
    /// [`mutate_store`](crate::runtime::CompRdlHook::mutate_store)
    /// whenever a store mutation is observed; harnesses can call it
    /// directly to model an out-of-band type-level change to one program.
    pub fn bump_namespace_epoch(&self, namespace: u64) {
        self.namespace_state(namespace).bump_epoch();
    }

    /// Aggregate hit / miss / invalidation / eviction counters across
    /// every namespace (and therefore every hook) sharing this memo.
    pub fn stats(&self) -> MemoStats {
        self.flush_evictions();
        let map = self.namespaces.lock().unwrap_or_else(|e| e.into_inner());
        let mut total = MemoStats::default();
        for state in map.values() {
            let s = state.snapshot(0).stats;
            total.hits += s.hits;
            total.misses += s.misses;
            total.invalidations += s.invalidations;
            total.evictions += s.evictions;
        }
        total
    }

    /// Per-namespace counter snapshots, sorted by label then namespace id
    /// so the rendering is deterministic.
    pub fn namespace_stats(&self) -> Vec<NamespaceStats> {
        self.flush_evictions();
        let map = self.namespaces.lock().unwrap_or_else(|e| e.into_inner());
        let mut rows: Vec<NamespaceStats> =
            map.iter().map(|(id, state)| state.snapshot(*id)).collect();
        drop(map);
        rows.sort_by(|a, b| a.label.cmp(&b.label).then(a.namespace.cmp(&b.namespace)));
        rows
    }

    /// The shared state of `namespace`, created on first use.  Hooks
    /// resolve this once at construction; per-lookup paths never touch
    /// the registry lock.
    pub fn namespace_state(&self, namespace: u64) -> Arc<NamespaceState> {
        let mut map = self.namespaces.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(namespace).or_default().clone()
    }

    /// Hashes the full key — including the value fingerprint and the
    /// before/after table tag — so a hot call site's entries spread across
    /// shards instead of serializing on one.
    fn key_hash(table: MemoTable, key: &MemoKey) -> u64 {
        let (namespace, site, value_fp) = key;
        let mut fp = Fingerprint::new();
        fp.write_u64(*namespace);
        fp.write_usize(site.start);
        fp.write_usize(site.end);
        fp.write_u64(u64::from(site.file));
        fp.write_u64(*value_fp);
        fp.write_u8(match table {
            MemoTable::Before => 0,
            MemoTable::After => 1,
        });
        fp.finish()
    }

    /// Locks the shard `hash` belongs to and returns it together with the
    /// slot indices of `hash`'s probe window within it.
    fn probe(&self, hash: u64) -> (MutexGuard<'_, ShardState>, [usize; PROBE_WINDOW]) {
        let shard = lock(&self.shards[(hash % self.shards.len() as u64) as usize]);
        // Remix: the low bits already picked the shard, so fold the high
        // half in before masking down to a slot.
        let base = (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize;
        (shard, std::array::from_fn(|i| (base + i) & self.mask))
    }

    /// Looks up a verdict, evicting stamp-stale entries (a store mutation
    /// between calls must force re-evaluation, §4).  Returns the recorded
    /// outcome (if fresh) and whether a stale entry was evicted.
    ///
    /// Freshness compares the entry's stamps against the caller's store
    /// `generation` and the **namespace's current epoch**, read from `ns`
    /// (the caller's namespace state) under the shard lock: an entry
    /// recorded before a concurrent bump is rejected, and an entry a
    /// sibling hook just recorded at the newest epoch is never evicted on
    /// the strength of an older epoch sample.
    ///
    /// Public so the `memo_churn` bench can drive the read path directly;
    /// `ns` must be [`SharedMemo::namespace_state`] of the key's namespace.
    pub fn lookup(
        &self,
        table: MemoTable,
        key: &MemoKey,
        generation: u64,
        ns: &NamespaceState,
    ) -> (Option<Result<(), BlameDiagnostic>>, bool) {
        let (mut shard, window) = self.probe(Self::key_hash(table, key));
        let Some(i) = shard.find(&window, table, key) else {
            drop(shard);
            ns.misses.fetch_add(1, Ordering::Relaxed);
            return (None, false);
        };
        let epoch = ns.epoch();
        let slot = &mut shard.slots[i];
        match slot {
            Some(entry) if entry.generation == generation && entry.epoch == epoch => {
                entry.referenced = true;
                let blame = entry.blame.clone();
                drop(shard);
                ns.hits.fetch_add(1, Ordering::Relaxed);
                (Some(blame.map_or(Ok(()), |b| Err((*b).clone()))), false)
            }
            _ => {
                *slot = None;
                drop(shard);
                ns.misses.fetch_add(1, Ordering::Relaxed);
                ns.invalidations.fetch_add(1, Ordering::Relaxed);
                (None, true)
            }
        }
    }

    /// Records a verdict for `key`, stamped with the caller's store
    /// `generation` and the namespace `epoch` the caller sampled before
    /// evaluating.  Overwrites the key's entry if present (a sibling may
    /// have inserted while we evaluated), else fills the window's first
    /// empty slot; if the window is full, evicts by second-chance and
    /// attributes the eviction to the displaced entry's namespace.
    pub fn insert(
        &self,
        table: MemoTable,
        key: &MemoKey,
        generation: u64,
        epoch: u64,
        outcome: &Result<(), BlameDiagnostic>,
    ) {
        let entry = Entry {
            table,
            key: *key,
            generation,
            epoch,
            referenced: true,
            blame: outcome.as_ref().err().map(|b| Arc::new(b.clone())),
        };
        let (mut shard, window) = self.probe(Self::key_hash(table, key));
        // The whole window is scanned for the key before an empty slot is
        // used, so a key can never occupy two slots.
        let target = shard
            .find(&window, table, key)
            .or_else(|| window.into_iter().find(|&i| shard.slots[i].is_none()));
        if let Some(i) = target {
            shard.slots[i] = Some(entry);
            return;
        }
        // Window full: CLOCK second-chance.  Clear referenced bits until
        // an unreferenced entry turns up; two passes guarantee a victim
        // (after the first pass every bit is clear).
        let start = shard.clock;
        shard.clock = (start + 1) % PROBE_WINDOW;
        let victim = (0..2 * PROBE_WINDOW)
            .map(|i| window[(start + i) % PROBE_WINDOW])
            .find(|&i| {
                let e = shard.slots[i].as_mut().expect("a full window has no empty slot");
                !std::mem::replace(&mut e.referenced, false)
            })
            .expect("the second pass finds every referenced bit clear");
        let displaced = shard.slots[victim].replace(entry).expect("the victim is occupied").key.0;
        *shard.pending_evictions.entry(displaced).or_insert(0) += 1;
    }

    /// Drains every shard's pending eviction tally into the namespace
    /// counters.  Called by the stats readers; each shard lock is held
    /// only long enough to take the tally, and the registry lock is never
    /// nested inside it.
    fn flush_evictions(&self) {
        for shard in self.shards.iter() {
            let pending = std::mem::take(&mut lock(shard).pending_evictions);
            for (namespace, count) in pending {
                self.namespace_state(namespace).evictions.fetch_add(count, Ordering::Relaxed);
            }
        }
    }
}

impl Default for SharedMemo {
    fn default() -> Self {
        SharedMemo::new()
    }
}

impl std::fmt::Debug for SharedMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMemo")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::BLAME_RETURN;

    fn key(ns: u64, n: usize, fp: u64) -> MemoKey {
        (ns, Span::new(n * 10, n * 10 + 5, n as u32 + 1), fp)
    }

    fn blame(msg: &str) -> BlameDiagnostic {
        BlameDiagnostic { site: Span::new(1, 2, 1), code: BLAME_RETURN, message: msg.to_string() }
    }

    #[test]
    fn insert_then_lookup_roundtrips_ok_and_blame() {
        let memo = SharedMemo::new();
        let ns = memo.namespace_state(7);
        let k_ok = key(7, 1, 11);
        let k_bad = key(7, 2, 22);
        memo.insert(MemoTable::After, &k_ok, 0, 0, &Ok(()));
        memo.insert(MemoTable::After, &k_bad, 0, 0, &Err(blame("nope")));
        assert_eq!(memo.lookup(MemoTable::After, &k_ok, 0, &ns), (Some(Ok(())), false));
        let (got, _) = memo.lookup(MemoTable::After, &k_bad, 0, &ns);
        assert_eq!(got, Some(Err(blame("nope"))));
        // The before/after tables are distinct key spaces.
        let (got, evicted) = memo.lookup(MemoTable::Before, &k_ok, 0, &ns);
        assert_eq!((got, evicted), (None, false));
        assert_eq!(memo.len(), 2);
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn stale_generation_and_stale_epoch_both_invalidate() {
        let memo = SharedMemo::new();
        let ns = memo.namespace_state(7);
        let k = key(7, 1, 11);
        memo.insert(MemoTable::After, &k, 0, 0, &Ok(()));
        // Newer generation: stale.
        assert_eq!(memo.lookup(MemoTable::After, &k, 1, &ns), (None, true));
        memo.insert(MemoTable::After, &k, 1, 0, &Ok(()));
        // Namespace epoch bump: stale.
        ns.bump_epoch();
        assert_eq!(memo.lookup(MemoTable::After, &k, 1, &ns), (None, true));
        assert_eq!(memo.len(), 0);
        assert_eq!(memo.stats().invalidations, 2);
    }

    #[test]
    fn epoch_bumps_do_not_cross_namespaces() {
        let memo = SharedMemo::new();
        let ns_a = memo.namespace_state(1);
        let ns_b = memo.namespace_state(2);
        let ka = key(1, 1, 11);
        let kb = key(2, 1, 11);
        memo.insert(MemoTable::After, &ka, 0, ns_a.epoch(), &Ok(()));
        memo.insert(MemoTable::After, &kb, 0, ns_b.epoch(), &Ok(()));
        memo.bump_namespace_epoch(1);
        assert_eq!(
            memo.lookup(MemoTable::After, &ka, 0, &ns_a),
            (None, true),
            "a's entry is stale after a's bump"
        );
        assert_eq!(
            memo.lookup(MemoTable::After, &kb, 0, &ns_b),
            (Some(Ok(())), false),
            "b's entry must survive a's bump"
        );
        assert_eq!(memo.namespace_epoch(1), 1);
        assert_eq!(memo.namespace_epoch(2), 0);
    }

    #[test]
    fn capacity_overflow_evicts_instead_of_growing() {
        // One shard, minimal capacity: the probe window *is* the shard.
        let memo = SharedMemo::with_settings(1, PROBE_WINDOW);
        assert_eq!(memo.capacity(), PROBE_WINDOW);
        let ns = memo.namespace_state(7);
        // All keys share one site so fingerprints alone vary: they still
        // spread over the whole window via the slot hash, and overflow
        // must displace rather than grow.
        for fp in 0..(PROBE_WINDOW as u64 * 4) {
            memo.insert(MemoTable::After, &key(7, 1, fp), 0, 0, &Ok(()));
        }
        assert!(memo.len() <= PROBE_WINDOW, "capacity is a hard bound");
        let stats = memo.stats();
        assert!(stats.evictions > 0, "overflow must evict: {stats:?}");
        // Evicted keys miss (and re-insert) rather than erroring.
        let mut hits = 0;
        for fp in 0..(PROBE_WINDOW as u64 * 4) {
            if let (Some(Ok(())), _) = memo.lookup(MemoTable::After, &key(7, 1, fp), 0, &ns) {
                hits += 1;
            }
        }
        assert!(hits > 0 && hits <= PROBE_WINDOW);
    }

    #[test]
    fn second_chance_prefers_unreferenced_victims() {
        let memo = SharedMemo::with_settings(1, PROBE_WINDOW);
        let ns = memo.namespace_state(7);
        for fp in 0..PROBE_WINDOW as u64 {
            memo.insert(MemoTable::After, &key(7, 1, fp), 0, 0, &Ok(()));
        }
        // Clear every referenced bit (one full victim scan's worth of
        // pressure), then touch fp=3 so it is the one entry with its bit
        // set again.
        memo.insert(MemoTable::After, &key(7, 2, 100), 0, 0, &Ok(()));
        let (got, _) = memo.lookup(MemoTable::After, &key(7, 1, 3), 0, &ns);
        let touched_survived = got.is_some();
        // More pressure: the next eviction must spare the just-touched
        // entry (if it survived the first round).
        memo.insert(MemoTable::After, &key(7, 2, 101), 0, 0, &Ok(()));
        if touched_survived {
            let (got, _) = memo.lookup(MemoTable::After, &key(7, 1, 3), 0, &ns);
            assert!(got.is_some(), "a referenced entry must get its second chance");
        }
        assert!(memo.stats().evictions >= 2);
    }

    #[test]
    fn registered_namespaces_report_labeled_stats() {
        let memo = SharedMemo::new();
        let a = memo.register_namespace("app-a");
        let b = memo.register_namespace("app-b");
        assert_eq!(a, memo_namespace("app-a"));
        let ns_a = memo.namespace_state(a);
        memo.insert(MemoTable::After, &key(a, 1, 1), 0, 0, &Ok(()));
        let _ = memo.lookup(MemoTable::After, &key(a, 1, 1), 0, &ns_a);
        memo.bump_namespace_epoch(b);
        let rows = memo.namespace_stats();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label, "app-a");
        assert_eq!((rows[0].stats.hits, rows[0].epoch), (1, 0));
        assert_eq!(rows[1].label, "app-b");
        assert_eq!((rows[1].stats.hits, rows[1].epoch), (0, 1));
    }

    #[test]
    fn golden_trace_pins_single_threaded_behaviour() {
        // A seeded single-threaded trace over a deliberately small memo
        // (two shards of 16 slots, so CLOCK eviction fires constantly):
        // every lookup's `(outcome, evicted)` pair, and the final counters,
        // occupancy and per-namespace rows, must match constants recorded
        // once.  Any change to keys, probing, freshness, eviction order or
        // counting shows up here.
        let memo = SharedMemo::with_settings(2, 32);
        let ids: Vec<u64> = ["golden-a", "golden-b", "golden-c"]
            .iter()
            .map(|n| memo.register_namespace(n))
            .collect();
        let states: Vec<_> = ids.iter().map(|&id| memo.namespace_state(id)).collect();
        let mut rng = test_rng::Rng::new(0x0060_1DE7);
        // Each namespace's store generation moves now and then, so most
        // lookups are fresh but stale-generation invalidations still occur.
        let mut generations = [0u64; 3];
        let mut digest = Fingerprint::new();
        for _ in 0..3_000 {
            let which = rng.below(3) as usize;
            let (id, ns) = (ids[which], &states[which]);
            let table = if rng.below(2) == 0 { MemoTable::Before } else { MemoTable::After };
            let k = key(id, rng.below(6) as usize, rng.below(3));
            if rng.below(25) == 0 {
                generations[which] = rng.below(3);
            }
            let generation = generations[which];
            match rng.below(40) {
                0..=23 => {
                    let (outcome, evicted) = memo.lookup(table, &k, generation, ns);
                    match outcome {
                        None => digest.write_u8(0),
                        Some(Ok(())) => digest.write_u8(1),
                        Some(Err(b)) => {
                            digest.write_u8(2);
                            digest.write_str(&b.message);
                        }
                    }
                    digest.write_u8(u8::from(evicted));
                }
                24..=38 => {
                    let outcome = match rng.below(4) {
                        0 => Err(blame(&format!("b{}", rng.below(100)))),
                        _ => Ok(()),
                    };
                    memo.insert(table, &k, generation, ns.epoch(), &outcome);
                }
                _ => memo.bump_namespace_epoch(id),
            }
        }
        let stats = |hits, misses, invalidations, evictions| MemoStats {
            hits,
            misses,
            invalidations,
            evictions,
        };
        assert_eq!(digest.finish(), 0x9dea_8c81_7120_1b8b);
        assert_eq!(memo.stats(), stats(238, 1526, 232, 579));
        let rows: Vec<(String, u64, MemoStats)> =
            memo.namespace_stats().into_iter().map(|r| (r.label, r.epoch, r.stats)).collect();
        assert_eq!(
            rows,
            vec![
                ("golden-a".to_string(), 33, stats(64, 508, 93, 180)),
                ("golden-b".to_string(), 18, stats(79, 523, 78, 182)),
                ("golden-c".to_string(), 28, stats(95, 495, 61, 217)),
            ]
        );
        assert_eq!(memo.shard_sizes(), vec![13, 16]);
    }
}
