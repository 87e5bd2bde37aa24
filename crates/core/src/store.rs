//! Hash-consed term store.
//!
//! A global **weak interner** for process terms: structurally equal terms
//! (up to syntactic equality — α-variants stay distinct; see
//! [`Consed::canon`]) share one [`ConsCell`] carrying
//!
//! * a precomputed 64-bit structural hash,
//! * a unique, run-global [`TermId`],
//! * lazily computed, cached `free_names` and α-canonical form.
//!
//! Once two terms are consed, equality and `HashMap` keying are O(1) id
//! comparisons instead of tree walks, and the per-term caches amortise the
//! tree walks that dominate exploration and bisimulation checking
//! (`canon`, `free_names`).
//!
//! The interner holds only [`std::sync::Weak`] references: dropping every
//! `Consed` handle for a term releases its memory; stale entries are swept
//! opportunistically on insertion. A pointer-keyed fast path makes
//! re-consing a cell's *own allocation* ([`Consed::term`]) a single
//! hash-map probe with no tree walk at all — sound because a successful
//! `Weak::upgrade` of the original `Arc` proves the allocation is still
//! alive, hence its address has not been reused. Only the allocation a
//! cell was minted from is recorded there, so the pointer map holds at
//! most one entry per cell and a structural (hash) hit never takes the
//! write lock. Callers that keep terms around should keep
//! [`Consed::term`] (or the [`Consed`] itself), not their own copy.

use crate::canon::canon;
use crate::name::NameSet;
use crate::syntax::{Process, P};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, OnceLock, Weak};

/// A unique, run-global identity for a consed term: two `Consed` handles
/// have equal `TermId`s iff their terms are structurally equal.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TermId(pub u64);

/// The shared node for one equivalence class of structurally equal terms.
pub struct ConsCell {
    term: P,
    id: TermId,
    hash: u64,
    free_names: OnceLock<NameSet>,
    canon: OnceLock<P>,
}

/// A handle to a hash-consed term. Cheap to clone; equality, ordering and
/// hashing are O(1) on the precomputed id/hash.
#[derive(Clone)]
pub struct Consed {
    cell: Arc<ConsCell>,
}

impl Consed {
    /// The unique id of this term's equivalence class.
    pub fn id(&self) -> TermId {
        self.cell.id
    }

    /// The precomputed structural hash.
    pub fn hash64(&self) -> u64 {
        self.cell.hash
    }

    /// The canonical shared allocation for this term. Re-consing this
    /// handle is a pointer-map probe, so callers that keep terms around
    /// should swap their own `P` for this one.
    pub fn term(&self) -> &P {
        &self.cell.term
    }

    /// Free names, computed once per equivalence class.
    pub fn free_names(&self) -> &NameSet {
        self.cell
            .free_names
            .get_or_init(|| self.cell.term.free_names())
    }

    /// The α-canonical form, computed once per equivalence class.
    /// `a.canon()` ptr-equal / structurally equal to `b.canon()` iff the
    /// two terms are α-equivalent.
    pub fn canon(&self) -> &P {
        self.cell.canon.get_or_init(|| canon(&self.cell.term))
    }
}

impl PartialEq for Consed {
    fn eq(&self, other: &Consed) -> bool {
        self.cell.id == other.cell.id
    }
}
impl Eq for Consed {}
impl Hash for Consed {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.cell.hash);
    }
}
impl PartialOrd for Consed {
    fn partial_cmp(&self, other: &Consed) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Consed {
    fn cmp(&self, other: &Consed) -> std::cmp::Ordering {
        self.cell.id.cmp(&other.cell.id)
    }
}
impl std::fmt::Debug for Consed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Consed#{}({:?})", self.cell.id.0, self.cell.term)
    }
}

struct Store {
    /// Structural-hash buckets of live-or-stale cells.
    buckets: HashMap<u64, Vec<Weak<ConsCell>>>,
    /// Pointer fast path: a cell's own allocation address →
    /// (allocation witness, cell). The witness `Weak<Process>` upgrading
    /// successfully proves the keyed address still belongs to the
    /// original allocation.
    by_ptr: HashMap<usize, (Weak<Process>, Weak<ConsCell>)>,
    /// Sweep stale `by_ptr` entries when it grows past this watermark.
    ptr_watermark: usize,
    next_id: u64,
}

static STORE: LazyLock<RwLock<Store>> = LazyLock::new(|| {
    RwLock::new(Store {
        buckets: HashMap::new(),
        by_ptr: HashMap::new(),
        ptr_watermark: 1024,
        next_id: 0,
    })
});

static PTR_HITS: AtomicU64 = AtomicU64::new(0);
static HASH_HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Interner counters `(pointer_hits, hash_hits, misses)` since process
/// start — observability for benchmarks and cache-efficacy experiments.
pub fn store_stats() -> (u64, u64, u64) {
    (
        PTR_HITS.load(Ordering::Relaxed),
        HASH_HITS.load(Ordering::Relaxed),
        MISSES.load(Ordering::Relaxed),
    )
}

/// Number of entries in the interner's pointer map, live or stale — at
/// most one per cell minted since the last sweep.
pub fn ptr_map_len() -> usize {
    STORE.read().by_ptr.len()
}

fn structural_hash(p: &Process) -> u64 {
    let mut h = std::hash::DefaultHasher::new();
    p.hash(&mut h);
    h.finish()
}

/// Interns `p` into the global store, returning its consed handle.
///
/// Three tiers, fastest first:
/// 1. **pointer probe** — `p` is a live cell's own allocation;
/// 2. **hash probe** — a structurally equal term is live in the store
///    (read lock only: `p`'s address is not recorded);
/// 3. **miss** — mint a fresh cell with a new [`TermId`] around `p`'s
///    allocation and record that allocation in the pointer map.
pub fn cons(p: &P) -> Consed {
    let key = Arc::as_ptr(p) as usize;
    {
        let g = STORE.read();
        if let Some((witness, cell)) = g.by_ptr.get(&key) {
            if let (Some(w), Some(cell)) = (witness.upgrade(), cell.upgrade()) {
                if Arc::ptr_eq(&w, p) {
                    PTR_HITS.fetch_add(1, Ordering::Relaxed);
                    return Consed { cell };
                }
            }
        }
    }

    let hash = structural_hash(p);
    {
        let g = STORE.read();
        if let Some(cell) = probe_bucket(&g, hash, p) {
            HASH_HITS.fetch_add(1, Ordering::Relaxed);
            return Consed { cell };
        }
    }

    let mut g = STORE.write();
    // Re-probe under the write lock: another thread may have inserted.
    if let Some(cell) = probe_bucket(&g, hash, p) {
        HASH_HITS.fetch_add(1, Ordering::Relaxed);
        return Consed { cell };
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let id = TermId(g.next_id);
    g.next_id += 1;
    let cell = Arc::new(ConsCell {
        term: p.clone(),
        id,
        hash,
        free_names: OnceLock::new(),
        canon: OnceLock::new(),
    });
    let bucket = g.buckets.entry(hash).or_default();
    bucket.retain(|w| w.strong_count() > 0);
    bucket.push(Arc::downgrade(&cell));
    insert_ptr(&mut g, key, p, &cell);
    Consed { cell }
}

fn probe_bucket(g: &Store, hash: u64, p: &P) -> Option<Arc<ConsCell>> {
    for w in g.buckets.get(&hash)? {
        if let Some(cell) = w.upgrade() {
            if cell.hash == hash && (Arc::ptr_eq(&cell.term, p) || *cell.term == **p) {
                return Some(cell);
            }
        }
    }
    None
}

fn insert_ptr(g: &mut Store, key: usize, p: &P, cell: &Arc<ConsCell>) {
    if g.by_ptr.len() >= g.ptr_watermark {
        g.by_ptr
            .retain(|_, (w, c)| w.strong_count() > 0 && c.strong_count() > 0);
        g.ptr_watermark = (g.by_ptr.len() * 2).max(1024);
    }
    g.by_ptr
        .insert(key, (Arc::downgrade(p), Arc::downgrade(cell)));
}

/// The [`TermId`] of `p` (consing it if needed).
///
/// **Stability caveat:** ids identify a *live* equivalence class. If every
/// [`Consed`] handle for the class is dropped, the interner's weak entry
/// dies and a later cons of an equal term mints a *fresh* id (ids are
/// never reused, so stale ids can dangle but never alias). Tables that key
/// by identity across time must hold the [`Consed`] handle itself — which
/// pins the class — not the bare id.
pub fn term_id(p: &P) -> TermId {
    cons(p).id()
}

/// `canon(p)` through the per-class cache: the tree walk happens once per
/// structurally distinct term per run (while any handle is live).
pub fn cached_canon(p: &P) -> P {
    let c = cons(p);
    c.canon().clone()
}

/// `p.free_names()` through the per-class cache.
pub fn cached_free_names(p: &P) -> NameSet {
    let c = cons(p);
    c.free_names().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::canon::alpha_eq;
    use crate::name::Name;

    #[test]
    fn structurally_equal_terms_share_an_id() {
        let a = Name::new("a");
        let p1 = out(a, [], tau(nil()));
        let p2 = out(a, [], tau(nil()));
        assert!(!Arc::ptr_eq(&p1, &p2));
        let c1 = cons(&p1);
        let c2 = cons(&p2);
        assert_eq!(c1.id(), c2.id());
        assert_eq!(c1, c2);
        assert!(Arc::ptr_eq(c1.term(), c2.term()));
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        let [a, b] = names(["a", "b"]);
        assert_ne!(term_id(&out_(a, [])), term_id(&out_(b, [])));
        assert_ne!(term_id(&tau(nil())), term_id(&nil()));
    }

    #[test]
    fn alpha_variants_are_distinct_but_share_canon() {
        let [a, x, y] = names(["a", "x", "y"]);
        let p = inp_(a, [x]);
        let q = inp_(a, [y]);
        let cp = cons(&p);
        let cq = cons(&q);
        assert_ne!(cp.id(), cq.id());
        assert_eq!(cp.canon(), cq.canon());
        assert!(alpha_eq(&p, &q));
    }

    #[test]
    fn cached_views_agree_with_fresh_computation() {
        let [a, b, x] = names(["a", "b", "x"]);
        let p = new(x, par(out(x, [b], nil()), inp_(a, [x])));
        assert_eq!(cached_canon(&p), canon(&p));
        assert_eq!(cached_free_names(&p), p.free_names());
        // Second read hits the OnceLock, same values.
        assert_eq!(cached_canon(&p), canon(&p));
        assert_eq!(cached_free_names(&p), p.free_names());
    }

    #[test]
    fn pointer_fast_path_hits_on_reconsing_same_allocation() {
        let a = Name::new("a");
        let p = tau(out_(a, []));
        let c1 = cons(&p);
        let (ptr_before, _, _) = store_stats();
        let c2 = cons(&p);
        let (ptr_after, _, _) = store_stats();
        assert_eq!(c1, c2);
        assert!(ptr_after > ptr_before, "second cons should be a ptr hit");
    }

    #[test]
    fn dropping_all_handles_releases_the_class() {
        let a = Name::new("a");
        let p = sum(tau(nil()), out_(a, [tau_marker()]));
        fn tau_marker() -> Name {
            Name::intern_raw("storetest-unique")
        }
        let id1 = {
            let c = cons(&p);
            c.id()
        };
        // All strong refs to the cell dropped; a re-cons may mint a fresh
        // id (weak entry dead) — either way it must still round-trip.
        let c = cons(&p);
        assert!(c.id() == id1 || c.id().0 > id1.0);
        assert_eq!(*c.term(), p);
    }
}
