//! Subtyping, least upper bounds, and constraint replay.
//!
//! Subtyping is the innermost loop of every check this system performs, so
//! [`Subtyper::is_subtype`] layers two fast paths over the structural
//! rules:
//!
//! 1. **Id short-circuit.**  Store-free operands are interned
//!    ([`crate::intern`]); hash-consing makes structural equality id
//!    equality, so `sub == sup` costs two integer compares instead of a
//!    tree walk.
//! 2. **Verdict cache.**  Non-equal store-free pairs consult a global,
//!    fixed-size slot table split into mutex-guarded shards (the same
//!    locking discipline as comprdl's runtime memo) keyed
//!    `(sub_id, sup_id, class-table stamp)`.
//!    The stamp ([`ClassTable::stamp`]) is globally unique and re-allocated
//!    on every hierarchy mutation, so stale verdicts die with their stamp
//!    and no invalidation traffic is needed.
//!
//! Store-backed operands (tuples, finite hashes, const strings — mutable,
//! per-store ids) always take the structural path: their meaning can change
//! under the cache's feet, and their ids alias across stores.
//! [`Subtyper::is_subtype_uncached`] bypasses both layers and is the oracle
//! the cached path is property-tested against (see `verdict_cache`'s
//! [`set_enabled`](verdict_cache::set_enabled) for the corpus-level
//! byte-identical gate).

use crate::class::ClassTable;
use crate::intern::{self, Node, TypeId};
use crate::store::{Constraint, TypeStore};
use crate::ty::{HashKey, SingVal, Type};

/// The global subtype-verdict cache: a fixed-size slot table split into
/// shards, each a `Mutex` over its slots and its rotating eviction hand;
/// every read and write locks the one shard its key hashes to.  Entries
/// are keyed on interned type ids plus the class-table stamp, so a verdict
/// can never outlive the exact hierarchy it was computed under.
pub mod verdict_cache {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock};

    const SHARDS: usize = 16;
    /// Slots per shard (power of two): 32k verdicts total, ~0.75 MB.
    const SLOTS: usize = 2048;
    /// Linear-probe window, mirroring the runtime memo's slot tables.
    const PROBE: usize = 8;

    struct Shard {
        /// `(sub_id << 32 | sup_id, class-table stamp, verdict)`; stamp `0`
        /// marks an empty slot (real stamps start at 1).
        slots: Box<[(u64, u64, bool)]>,
        /// Rotating eviction hand.
        hand: usize,
    }

    /// Locks the shard `key` and `stamp` hash to and returns it with the
    /// first slot of their probe window.
    fn shard(key: u64, stamp: u64) -> (MutexGuard<'static, Shard>, usize) {
        static TABLE: OnceLock<Vec<Mutex<Shard>>> = OnceLock::new();
        let table = TABLE.get_or_init(|| {
            (0..SHARDS)
                .map(|_| Mutex::new(Shard { slots: vec![(0, 0, false); SLOTS].into(), hand: 0 }))
                .collect()
        });
        let mut fp = crate::fingerprint::Fingerprint::new();
        fp.write_u64(key);
        fp.write_u64(stamp);
        let h = fp.finish();
        // Every update writes one whole slot, so a shard poisoned by a
        // panicking holder is still consistent.
        let shard = table[(h >> 56) as usize % SHARDS].lock().unwrap_or_else(|e| e.into_inner());
        (shard, h as usize % SLOTS)
    }

    static ENABLED: AtomicBool = AtomicBool::new(true);
    static HITS: AtomicU64 = AtomicU64::new(0);
    static MISSES: AtomicU64 = AtomicU64::new(0);
    static INSERTS: AtomicU64 = AtomicU64::new(0);
    static EVICTIONS: AtomicU64 = AtomicU64::new(0);

    /// Cache counters (cumulative for the process; read deltas to measure
    /// a workload).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct VerdictCacheStats {
        /// Queries answered from a slot.
        pub hits: u64,
        /// Queries that fell through to the structural rules.
        pub misses: u64,
        /// Verdicts written.
        pub inserts: u64,
        /// Occupied slots overwritten by an unrelated key.
        pub evictions: u64,
    }

    thread_local! {
        /// The calling thread's share of the counters above.
        static THREAD_STATS: Cell<VerdictCacheStats> = const {
            Cell::new(VerdictCacheStats { hits: 0, misses: 0, inserts: 0, evictions: 0 })
        };
    }

    /// Bumps one global counter and the calling thread's share of it.
    fn count(global: &AtomicU64, field: fn(&mut VerdictCacheStats) -> &mut u64) {
        global.fetch_add(1, Ordering::Relaxed);
        THREAD_STATS.with(|t| {
            let mut s = t.get();
            *field(&mut s) += 1;
            t.set(s);
        });
    }

    /// [`stats`] counted on the calling thread only.  Queries on other
    /// threads never move these, so a test can assert on its own queries
    /// while other tests share the cache.
    pub fn thread_stats() -> VerdictCacheStats {
        THREAD_STATS.with(Cell::get)
    }

    /// Current cumulative counters.
    pub fn stats() -> VerdictCacheStats {
        VerdictCacheStats {
            hits: HITS.load(Ordering::Relaxed),
            misses: MISSES.load(Ordering::Relaxed),
            inserts: INSERTS.load(Ordering::Relaxed),
            evictions: EVICTIONS.load(Ordering::Relaxed),
        }
    }

    /// Globally enables / disables the cache (and the id fast path that
    /// feeds it), returning the previous setting.  Verdicts are identical
    /// either way — disabling exists so tests and benches can compare the
    /// cached pipeline against the structural walk byte-for-byte, and it
    /// is safe to flip while other threads are mid-query (each query
    /// reads the flag once).
    pub fn set_enabled(enabled: bool) -> bool {
        ENABLED.swap(enabled, Ordering::Relaxed)
    }

    /// Whether the cache is currently consulted.
    pub fn is_enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    pub(super) fn pack(a: super::TypeId, b: super::TypeId) -> u64 {
        (u64::from(a.index()) << 32) | u64::from(b.index())
    }

    /// The cached verdict for `key` under `stamp`, if any.
    pub(super) fn get(key: u64, stamp: u64) -> Option<bool> {
        let (shard, start) = shard(key, stamp);
        (0..PROBE)
            .map(|i| shard.slots[(start + i) % SLOTS])
            .find(|&(k, st, _)| st == stamp && k == key)
            .map(|(_, _, verdict)| verdict)
    }

    pub(super) fn put(key: u64, stamp: u64, verdict: bool) {
        let (mut shard, start) = shard(key, stamp);
        // Prefer the slot already holding this key, then an empty slot,
        // then the rotating victim.
        let window = (0..PROBE).map(|i| (start + i) % SLOTS);
        let existing = window.clone().find(|&i| {
            let (k, st, _) = shard.slots[i];
            st == stamp && k == key
        });
        let idx = existing.or_else(|| window.clone().find(|&i| shard.slots[i].1 == 0));
        let idx = idx.unwrap_or_else(|| {
            let i = (start + shard.hand % PROBE) % SLOTS;
            shard.hand = shard.hand.wrapping_add(1);
            count(&EVICTIONS, |s| &mut s.evictions);
            i
        });
        shard.slots[idx] = (key, stamp, verdict);
        count(&INSERTS, |s| &mut s.inserts);
    }

    pub(super) fn note_hit() {
        count(&HITS, |s| &mut s.hits);
    }

    pub(super) fn note_miss() {
        count(&MISSES, |s| &mut s.misses);
    }
}

/// Answers subtyping queries relative to a class table.
#[derive(Debug, Clone, Copy)]
pub struct Subtyper<'a> {
    classes: &'a ClassTable,
}

impl<'a> Subtyper<'a> {
    /// Creates a subtyper over the given class hierarchy.
    pub fn new(classes: &'a ClassTable) -> Self {
        Subtyper { classes }
    }

    /// The class table this subtyper consults.
    pub fn classes(&self) -> &ClassTable {
        self.classes
    }

    /// Returns `true` if `sub <= sup`.
    ///
    /// Store-backed types are *not* promoted by this query, but already
    /// performed promotions are honoured via [`TypeStore::resolve`].
    ///
    /// Store-free operands take the interned fast path (id short-circuit
    /// plus the global [`verdict_cache`]); store-backed operands take the
    /// structural rules.  Both return exactly what
    /// [`Subtyper::is_subtype_uncached`] returns.
    pub fn is_subtype(&self, store: &TypeStore, sub: &Type, sup: &Type) -> bool {
        // Store-free operands resolve to themselves, so the fast path skips
        // the two deep clones [`TypeStore::resolve`] would make.  (A
        // store-backed operand that a promotion would resolve store-free
        // simply takes the structural path below.)
        if verdict_cache::is_enabled()
            && !sub.contains_store_backed()
            && !sup.contains_store_backed()
        {
            let a = intern::intern(sub);
            let b = intern::intern(sup);
            return self.is_subtype_ids(a, b, self.classes.stamp());
        }
        let sub = store.resolve(sub);
        let sup = store.resolve(sup);
        self.is_subtype_resolved(store, &sub, &sup)
    }

    /// [`Subtyper::is_subtype`] with the interner and verdict cache
    /// bypassed: the plain structural walk, kept public as the oracle the
    /// cached path is property-tested against and as the baseline the
    /// `type_core` bench measures.
    pub fn is_subtype_uncached(&self, store: &TypeStore, sub: &Type, sup: &Type) -> bool {
        let sub = store.resolve(sub);
        let sup = store.resolve(sup);
        self.is_subtype_resolved(store, &sub, &sup)
    }

    /// The subtype rules over interned ids, for store-free operands only.
    /// Mirrors `is_subtype_resolved` arm for arm (minus the store-backed
    /// arms, which cannot be reached: store-backedness propagates to every
    /// parent node, so the entry check above filters whole trees).
    fn is_subtype_ids(&self, a: TypeId, b: TypeId, stamp: u64) -> bool {
        // Hash-consing makes id equality structural equality — the `sub ==
        // sup` rule for free.
        if a == b {
            return true;
        }
        let key = verdict_cache::pack(a, b);
        if let Some(verdict) = verdict_cache::get(key, stamp) {
            verdict_cache::note_hit();
            return verdict;
        }
        verdict_cache::note_miss();
        let verdict = self.compute_ids(a, b, stamp);
        verdict_cache::put(key, stamp, verdict);
        verdict
    }

    fn compute_ids(&self, a: TypeId, b: TypeId, stamp: u64) -> bool {
        use Node::*;
        let na = intern::info(a).node();
        let nb = intern::info(b).node();
        match (na, nb) {
            // Dynamic is compatible in both directions; Bot/Top as usual.
            (Dynamic, _) | (_, Dynamic) => true,
            (Bot, _) => true,
            (_, Top) => true,
            (Top, _) => false,
            // `nil` is allowed wherever any object is expected.
            (Singleton(SingVal::Nil), _) => true,
            // Optional / vararg wrappers are transparent for subtyping.
            (Optional(t), _) => self.is_subtype_ids(*t, b, stamp),
            (_, Optional(t)) => self.is_subtype_ids(a, *t, stamp),
            (Vararg(t), _) => self.is_subtype_ids(*t, b, stamp),
            (_, Vararg(t)) => self.is_subtype_ids(a, *t, stamp),
            // Unions.
            (Union(ts), _) => ts.iter().all(|t| self.is_subtype_ids(*t, b, stamp)),
            (_, Union(ts)) => ts.iter().any(|t| self.is_subtype_ids(a, *t, stamp)),
            // Booleans.
            (Singleton(SingVal::True), Bool) | (Singleton(SingVal::False), Bool) => true,
            (Nominal(n), Bool) => &**n == "TrueClass" || &**n == "FalseClass" || &**n == "Boolean",
            (Bool, Nominal(n)) => self.classes.is_subclass("Boolean", n),
            (Bool, _) => false,
            // Singletons are subtypes of their class.
            (Singleton(v), Nominal(n)) => self.classes.is_subclass(v.class_of(), n),
            (Singleton(SingVal::Class(_)), Generic { base, .. }) => &**base == "Class",
            // Nominal subtyping follows the class hierarchy.
            (Nominal(x), Nominal(y)) => self.classes.is_subclass(x, y),
            // Generic types: base must be a subclass, arguments covariant.
            (Generic { base: b1, args: a1 }, Generic { base: b2, args: a2 }) => {
                self.classes.is_subclass(b1, b2)
                    && a1.len() == a2.len()
                    && a1.iter().zip(a2.iter()).all(|(x, y)| self.is_subtype_ids(*x, *y, stamp))
            }
            (Generic { base, .. }, Nominal(n)) => self.classes.is_subclass(base, n),
            (Nominal(_), Generic { .. }) => false,
            // Type variables are only compatible with themselves (equal
            // names interned to equal ids above).
            (Var(x), Var(y)) => x == y,
            (Var(_), _) | (_, Var(_)) => false,
            (Tuple(_) | FiniteHash(_) | ConstString(_), _)
            | (_, Tuple(_) | FiniteHash(_) | ConstString(_)) => {
                unreachable!("store-backed nodes never reach the id path")
            }
            _ => false,
        }
    }

    fn is_subtype_resolved(&self, store: &TypeStore, sub: &Type, sup: &Type) -> bool {
        use Type::*;
        if sub == sup {
            return true;
        }
        match (sub, sup) {
            // Dynamic is compatible in both directions; Bot/Top as usual.
            (Dynamic, _) | (_, Dynamic) => true,
            (Bot, _) => true,
            (_, Top) => true,
            (Top, _) => false,
            // `nil` is allowed wherever any object is expected (the paper's
            // λC does the same; errors surface as blame at run time).
            (Singleton(SingVal::Nil), _) => true,
            // Optional / vararg wrappers are transparent for subtyping.
            (Optional(t), _) => self.is_subtype_resolved(store, t, sup),
            (_, Optional(t)) => self.is_subtype_resolved(store, sub, t),
            (Vararg(t), _) => self.is_subtype_resolved(store, t, sup),
            (_, Vararg(t)) => self.is_subtype_resolved(store, sub, t),
            // Unions.
            (Union(ts), _) => ts.iter().all(|t| self.is_subtype_resolved(store, t, sup)),
            (_, Union(ts)) => ts.iter().any(|t| self.is_subtype_resolved(store, sub, t)),
            // Booleans.
            (Singleton(SingVal::True), Bool) | (Singleton(SingVal::False), Bool) => true,
            (Nominal(n), Bool) => n == "TrueClass" || n == "FalseClass" || n == "Boolean",
            (Bool, Nominal(n)) => self.classes.is_subclass("Boolean", n),
            (Bool, _) => false,
            // Singletons are subtypes of their class.
            (Singleton(v), Nominal(n)) => self.classes.is_subclass(v.class_of(), n),
            (Singleton(SingVal::Class(_)), Generic { base, .. }) => base == "Class",
            // Const strings behave like String (and like each other only if
            // identical, which the `sub == sup` case already covered).
            (ConstString(_), Nominal(n)) => self.classes.is_subclass("String", n),
            (ConstString(a), ConstString(b)) => {
                match (store.const_string_value(*a), store.const_string_value(*b)) {
                    (Some(x), Some(y)) => x == y,
                    _ => false,
                }
            }
            // Nominal subtyping follows the class hierarchy.
            (Nominal(a), Nominal(b)) => self.classes.is_subclass(a, b),
            // Generic types: base must be a subclass, arguments covariant.
            (Generic { base: b1, args: a1 }, Generic { base: b2, args: a2 }) => {
                self.classes.is_subclass(b1, b2)
                    && a1.len() == a2.len()
                    && a1.iter().zip(a2.iter()).all(|(x, y)| self.is_subtype_resolved(store, x, y))
            }
            (Generic { base, .. }, Nominal(n)) => self.classes.is_subclass(base, n),
            (Nominal(_), Generic { .. }) => false,
            // Tuples.
            (Tuple(id1), Tuple(id2)) => {
                let t1 = store.tuple(*id1);
                let t2 = store.tuple(*id2);
                t1.elems.len() == t2.elems.len()
                    && t1
                        .elems
                        .iter()
                        .zip(t2.elems.iter())
                        .all(|(x, y)| self.is_subtype_resolved(store, x, y))
            }
            (Tuple(id), Generic { base, args }) if base == "Array" && args.len() == 1 => {
                store.tuple(*id).elems.iter().all(|e| self.is_subtype_resolved(store, e, &args[0]))
            }
            (Tuple(_), Nominal(n)) => self.classes.is_subclass("Array", n),
            // Finite hashes.  RDL does not allow width subtyping: every key
            // of the subtype must exist in the supertype (otherwise e.g. a
            // query hash mentioning an unknown column would be accepted),
            // and every non-optional key of the supertype must be present.
            (FiniteHash(id1), FiniteHash(id2)) => {
                let h1 = store.finite_hash(*id1);
                let h2 = store.finite_hash(*id2);
                let required_present = h2.entries.iter().all(|(k, v2)| match h1.get(k) {
                    Some(v1) => self.is_subtype_resolved(store, v1, v2),
                    None => matches!(v2, Type::Optional(_)),
                });
                let no_extra_keys = h1.entries.iter().all(|(k, _)| h2.get(k).is_some());
                required_present && no_extra_keys
            }
            (FiniteHash(id), Generic { base, args }) if base == "Hash" && args.len() == 2 => {
                let h = store.finite_hash(*id);
                h.entries.iter().all(|(k, v)| {
                    let kt = match k {
                        HashKey::Sym(s) => Type::sym(s.clone()),
                        HashKey::Str(_) => Type::nominal("String"),
                        HashKey::Int(i) => Type::int(*i),
                    };
                    self.is_subtype_resolved(store, &kt, &args[0])
                        && self.is_subtype_resolved(store, v, &args[1])
                })
            }
            (FiniteHash(_), Nominal(n)) => self.classes.is_subclass("Hash", n),
            // Type variables are only compatible with themselves (and Top,
            // handled above); instantiation happens before checking.
            (Var(a), Var(b)) => a == b,
            (Var(_), _) | (_, Var(_)) => false,
            _ => false,
        }
    }

    /// Asserts `sub <= sup`, recording the constraint against any
    /// store-backed types involved so it can be replayed after weak updates.
    /// Returns whether the constraint currently holds.
    pub fn constrain(&self, store: &mut TypeStore, sub: &Type, sup: &Type, origin: &str) -> bool {
        if sub.is_store_backed() {
            store.record_constraint(sub, sub.clone(), sup.clone(), origin);
        }
        if sup.is_store_backed() && sup != sub {
            store.record_constraint(sup, sub.clone(), sup.clone(), origin);
        }
        self.is_subtype(store, sub, sup)
    }

    /// Re-checks previously recorded constraints (used after weak updates;
    /// §4).  Returns the constraints that no longer hold.
    pub fn replay(&self, store: &TypeStore, constraints: &[Constraint]) -> Vec<Constraint> {
        constraints.iter().filter(|c| !self.is_subtype(store, &c.lhs, &c.rhs)).cloned().collect()
    }

    /// The least upper bound (join) of two types, used at conditional join
    /// points.
    pub fn lub(&self, store: &TypeStore, a: &Type, b: &Type) -> Type {
        if self.is_subtype(store, a, b) {
            return store.resolve(b);
        }
        if self.is_subtype(store, b, a) {
            return store.resolve(a);
        }
        let ra = store.resolve(a);
        let rb = store.resolve(b);
        match (&ra, &rb) {
            (Type::Nominal(x), Type::Nominal(y)) => {
                let anc = self.classes.common_ancestor(x, y);
                if anc != "Object" {
                    return Type::Nominal(anc);
                }
                Type::union([ra.clone(), rb.clone()])
            }
            _ => Type::union([ra.clone(), rb.clone()]),
        }
    }

    /// The join of a whole sequence of types (`%bot` for an empty sequence).
    pub fn lub_all(&self, store: &TypeStore, types: &[Type]) -> Type {
        let mut acc = Type::Bot;
        for t in types {
            acc = self.lub(store, &acc, t);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassTable;

    fn setup() -> (ClassTable, TypeStore) {
        let mut ct = ClassTable::with_builtins();
        ct.add_model_class("User", "ActiveRecord::Base");
        (ct, TypeStore::new())
    }

    /// Serializes the tests that read or flip the process-global
    /// verdict-cache switch, and restores the previous state on drop
    /// (panic-safe): a test asserting cache hits must not run while another
    /// has the cache off.
    static CACHE_TOGGLE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    struct CacheSwitch {
        was: bool,
        _lock: std::sync::MutexGuard<'static, ()>,
    }

    impl CacheSwitch {
        fn set(enabled: bool) -> Self {
            let lock = CACHE_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
            CacheSwitch { was: verdict_cache::set_enabled(enabled), _lock: lock }
        }
    }

    impl Drop for CacheSwitch {
        fn drop(&mut self) {
            verdict_cache::set_enabled(self.was);
        }
    }

    #[test]
    fn reflexivity_and_top_bottom() {
        let (ct, store) = setup();
        let sub = Subtyper::new(&ct);
        for t in [
            Type::nominal("String"),
            Type::sym("a"),
            Type::Bool,
            Type::array(Type::nominal("Integer")),
        ] {
            assert!(sub.is_subtype(&store, &t, &t));
            assert!(sub.is_subtype(&store, &t, &Type::Top));
            assert!(sub.is_subtype(&store, &Type::Bot, &t));
        }
        assert!(!sub.is_subtype(&store, &Type::Top, &Type::nominal("String")));
    }

    #[test]
    fn singleton_and_nominal() {
        let (ct, store) = setup();
        let sub = Subtyper::new(&ct);
        assert!(sub.is_subtype(&store, &Type::sym("emails"), &Type::nominal("Symbol")));
        assert!(sub.is_subtype(&store, &Type::int(3), &Type::nominal("Integer")));
        assert!(sub.is_subtype(&store, &Type::int(3), &Type::nominal("Numeric")));
        assert!(!sub.is_subtype(&store, &Type::nominal("Symbol"), &Type::sym("emails")));
        assert!(sub.is_subtype(&store, &Type::class_of("User"), &Type::nominal("Class")));
        assert!(sub.is_subtype(&store, &Type::Singleton(SingVal::True), &Type::Bool));
        assert!(sub.is_subtype(&store, &Type::Bool, &Type::object()));
    }

    #[test]
    fn nil_is_allowed_anywhere() {
        let (ct, store) = setup();
        let sub = Subtyper::new(&ct);
        assert!(sub.is_subtype(&store, &Type::nil(), &Type::nominal("String")));
        assert!(sub.is_subtype(&store, &Type::nil(), &Type::array(Type::nominal("Integer"))));
    }

    #[test]
    fn union_rules() {
        let (ct, store) = setup();
        let sub = Subtyper::new(&ct);
        let u = Type::union([Type::nominal("Integer"), Type::nominal("String")]);
        assert!(sub.is_subtype(&store, &Type::nominal("Integer"), &u));
        assert!(sub.is_subtype(&store, &u, &Type::object()));
        assert!(!sub.is_subtype(&store, &u, &Type::nominal("Integer")));
    }

    #[test]
    fn generics_are_covariant() {
        let (ct, store) = setup();
        let sub = Subtyper::new(&ct);
        assert!(sub.is_subtype(
            &store,
            &Type::array(Type::nominal("Integer")),
            &Type::array(Type::nominal("Numeric"))
        ));
        assert!(!sub.is_subtype(
            &store,
            &Type::array(Type::nominal("Numeric")),
            &Type::array(Type::nominal("Integer"))
        ));
        assert!(sub.is_subtype(
            &store,
            &Type::array(Type::nominal("Integer")),
            &Type::nominal("Array")
        ));
    }

    #[test]
    fn tuple_subtyping_and_promotion() {
        let (ct, mut store) = setup();
        let t = store.new_tuple(vec![Type::int(1), Type::nominal("String")]);
        let sub = Subtyper::new(&ct);
        assert!(sub.is_subtype(
            &store,
            &t,
            &Type::array(Type::union([Type::nominal("Integer"), Type::nominal("String")]))
        ));
        assert!(sub.is_subtype(&store, &t, &Type::nominal("Array")));
        assert!(!sub.is_subtype(&store, &t, &Type::array(Type::nominal("Integer"))));
        // After promotion the tuple behaves as the promoted array type.
        let Type::Tuple(id) = t else { panic!() };
        store.promote_tuple(id);
        assert!(sub.is_subtype(&store, &t, &Type::nominal("Array")));
    }

    #[test]
    fn finite_hash_subtyping() {
        let (ct, mut store) = setup();
        let h = store.new_finite_hash(vec![
            (HashKey::Sym("name".into()), Type::nominal("String")),
            (HashKey::Sym("age".into()), Type::int(30)),
        ]);
        let sub = Subtyper::new(&ct);
        assert!(sub.is_subtype(&store, &h, &Type::hash(Type::nominal("Symbol"), Type::object())));
        // Width subtyping is not allowed: `h` has a key `narrower` lacks.
        let narrower =
            store.new_finite_hash(vec![(HashKey::Sym("name".into()), Type::nominal("String"))]);
        assert!(!sub.is_subtype(&store, &h, &narrower));
        assert!(!sub.is_subtype(&store, &narrower, &h));
        // But missing keys are fine when the supertype marks them optional.
        let optionalized = store.new_finite_hash(vec![
            (HashKey::Sym("name".into()), Type::Optional(Box::new(Type::nominal("String")))),
            (HashKey::Sym("age".into()), Type::Optional(Box::new(Type::nominal("Integer")))),
        ]);
        assert!(sub.is_subtype(&store, &narrower, &optionalized));
        assert!(sub.is_subtype(&store, &h, &optionalized));
    }

    #[test]
    fn const_string_is_a_string() {
        let (ct, mut store) = setup();
        let s = store.new_const_string("hello");
        let sub = Subtyper::new(&ct);
        assert!(sub.is_subtype(&store, &s, &Type::nominal("String")));
        assert!(sub.is_subtype(&store, &s, &Type::object()));
        let s2 = store.new_const_string("hello");
        let s3 = store.new_const_string("other");
        assert!(sub.is_subtype(&store, &s, &s2));
        assert!(!sub.is_subtype(&store, &s, &s3));
    }

    #[test]
    fn lub_prefers_common_ancestor() {
        let (ct, store) = setup();
        let sub = Subtyper::new(&ct);
        assert_eq!(
            sub.lub(&store, &Type::nominal("Integer"), &Type::nominal("Float")),
            Type::nominal("Numeric")
        );
        assert_eq!(
            sub.lub(&store, &Type::nominal("Integer"), &Type::nominal("Integer")),
            Type::nominal("Integer")
        );
        let u = sub.lub(&store, &Type::nominal("String"), &Type::array(Type::Top));
        assert!(matches!(u, Type::Union(_)));
        assert_eq!(sub.lub_all(&store, &[]), Type::Bot);
    }

    #[test]
    fn constrain_records_and_replays() {
        let (ct, mut store) = setup();
        let sub = Subtyper::new(&ct);
        let t = store.new_tuple(vec![Type::nominal("Integer"), Type::nominal("String")]);
        assert!(sub.constrain(
            &mut store,
            &t,
            &Type::array(Type::union([Type::nominal("Integer"), Type::nominal("String")])),
            "assignment"
        ));
        let Type::Tuple(id) = t else { panic!() };
        // Weak update with a compatible type: constraints still hold.
        let cs = store.weak_update_tuple(id, 0, Type::nominal("String"));
        assert!(sub.replay(&store, &cs).is_empty());
        // Weak update with an incompatible type: the recorded constraint is
        // now violated and replay reports it.
        let cs = store.weak_update_tuple(id, 1, Type::nominal("Float"));
        let violated = sub.replay(&store, &cs);
        assert_eq!(violated.len(), 1);
        assert_eq!(violated[0].origin, "assignment");
    }

    #[test]
    fn dynamic_is_bidirectional() {
        let (ct, store) = setup();
        let sub = Subtyper::new(&ct);
        assert!(sub.is_subtype(&store, &Type::Dynamic, &Type::nominal("String")));
        assert!(sub.is_subtype(&store, &Type::nominal("String"), &Type::Dynamic));
    }

    #[test]
    fn cached_path_matches_structural_oracle() {
        let _on = CacheSwitch::set(true);
        let (ct, store) = setup();
        let sub = Subtyper::new(&ct);
        let samples = [
            Type::Top,
            Type::Bot,
            Type::Bool,
            Type::Dynamic,
            Type::nil(),
            Type::nominal("Integer"),
            Type::nominal("Numeric"),
            Type::nominal("String"),
            Type::sym("emails"),
            Type::int(3),
            Type::class_of("User"),
            Type::Singleton(SingVal::True),
            Type::Var("t".into()),
            Type::Var("u".into()),
            Type::Optional(Box::new(Type::nominal("Integer"))),
            Type::Vararg(Box::new(Type::nominal("String"))),
            Type::union([Type::nominal("Integer"), Type::nominal("String")]),
            Type::array(Type::nominal("Integer")),
            Type::array(Type::nominal("Numeric")),
            Type::hash(Type::nominal("Symbol"), Type::object()),
            Type::Generic { base: "Class".into(), args: vec![Type::nominal("User")] },
        ];
        // Twice, so the second pass reads a warm verdict cache.
        let before = verdict_cache::thread_stats();
        for round in 0..2 {
            for a in &samples {
                for b in &samples {
                    assert_eq!(
                        sub.is_subtype(&store, a, b),
                        sub.is_subtype_uncached(&store, a, b),
                        "cached verdict diverged for {a} <= {b} (round {round})"
                    );
                }
            }
        }
        // The warm pass must actually have hit the cache: counted on this
        // thread, so other tests' queries cannot satisfy the assertion.
        let hits = verdict_cache::thread_stats().hits - before.hits;
        assert!(hits > 0, "expected verdict-cache hits on this thread, got {hits}");
    }

    #[test]
    fn verdict_cache_invalidates_on_class_mutation() {
        let mut ct = ClassTable::with_builtins();
        ct.add_class("Staff", Some("Object"));
        let store = TypeStore::new();
        let staff = Type::nominal("Staff");
        let admin = Type::nominal("Admin");
        {
            let sub = Subtyper::new(&ct);
            // Prime the cache: Admin is unknown, so it is not below Staff.
            assert!(!sub.is_subtype(&store, &admin, &staff));
            assert!(!sub.is_subtype(&store, &admin, &staff));
        }
        // Mutating the hierarchy restamps the table; the cached negative
        // verdict is keyed to the dead stamp and cannot be returned.
        ct.add_class("Admin", Some("Staff"));
        let sub = Subtyper::new(&ct);
        assert!(sub.is_subtype(&store, &admin, &staff));
        assert!(sub.is_subtype(&store, &admin, &staff), "warm re-query agrees");
    }

    #[test]
    fn disabling_the_cache_changes_no_verdicts() {
        let (ct, store) = setup();
        let sub = Subtyper::new(&ct);
        let pairs = [
            (Type::int(3), Type::nominal("Numeric")),
            (Type::array(Type::nominal("Integer")), Type::array(Type::nominal("Numeric"))),
            (Type::nominal("String"), Type::nominal("Integer")),
        ];
        let verdicts = |enabled: bool| -> Vec<bool> {
            let _switch = CacheSwitch::set(enabled);
            pairs.iter().map(|(a, b)| sub.is_subtype(&store, a, b)).collect()
        };
        let off = verdicts(false);
        let on = verdicts(true);
        assert_eq!(off, on);
        assert_eq!(on, vec![true, true, false]);
    }
}
