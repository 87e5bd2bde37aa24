//! Memoized semantic derivations and state interning.
//!
//! Transition derivation (`Lts::step_transitions`) and pool-instantiated
//! input derivation are pure functions of *(term, definition
//! environment)* — and exploration, weak closures and bisimulation graphs
//! call them over and over on the same terms. This module memoizes them
//! globally, keyed by the hash-consed [`TermId`](bpi_core::TermId) of the
//! term and the [`Defs::generation`](bpi_core::syntax::Defs::generation)
//! stamp, so a definition update invalidates exactly the entries it could
//! affect.
//!
//! [`intern_state`] turns a derived successor into an explored state:
//! structural GC, optional extruded-name folding, α-canonicalisation and
//! one `cons`. Builders keep the returned cell's own allocation as the
//! state, so every later memo probe on it is an interner pointer hit.
//!
//! **Soundness of replaying fresh names.** Scope extrusion (rule (5) of
//! Table 3) mints a globally fresh name per derivation. A memoized entry
//! replays the successors minted on first derivation instead of minting
//! again. This is sound: the replayed successors are valid transitions of
//! the *same* source term (freshness only has to hold against the names
//! of that term and its observers, which is invariant), all consumers
//! quotient states by α-equivalence or extruded-name normalisation before
//! comparing, and the `~` namespace is reserved so replayed names can
//! never collide with user names.
//!
//! Caches are append-only with a size cap; overflowing clears the map
//! (correctness never depends on a hit).

use crate::lts::Lts;
use bpi_core::action::Action;
use bpi_core::name::{Name, NameSet};
use bpi_core::syntax::P;
use bpi_core::Consed;
use bpi_obs::{counter, Counter, Det};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::{Arc, LazyLock};

/// Entries per cache before it is wholesale cleared.
const CACHE_CAP: usize = 1 << 20;

// Keys hold the `Consed` handle, not the bare `TermId`: the handle pins
// the interner's weak entry, so the class id stays stable for as long as
// the memo entry lives (a bare id could die with its cell and a later
// cons of an equal term would mint a fresh id, turning every lookup into
// a miss).
type StepKey = (Consed, u64);
type InputKey = (Consed, u64, Vec<Name>);
type NormKey = (Consed, NameSet);

type TransMemo<K> = RwLock<HashMap<K, Arc<Vec<(Action, P)>>>>;

static STEP_MEMO: LazyLock<TransMemo<StepKey>> = LazyLock::new(|| RwLock::new(HashMap::new()));
static INPUT_MEMO: LazyLock<TransMemo<InputKey>> = LazyLock::new(|| RwLock::new(HashMap::new()));
static NORM_MEMO: LazyLock<RwLock<HashMap<NormKey, Consed>>> =
    LazyLock::new(|| RwLock::new(HashMap::new()));

// Hit/miss rates are *advisory*: the memos are process-global and
// capped, so whether a lookup hits depends on what ran before.
static STEP_HITS: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.memo.step.hits", Det::Advisory));
static STEP_MISSES: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.memo.step.misses", Det::Advisory));
static INPUT_HITS: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.memo.input.hits", Det::Advisory));
static INPUT_MISSES: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.memo.input.misses", Det::Advisory));
static NORM_HITS: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.memo.norm.hits", Det::Advisory));
static NORM_MISSES: LazyLock<&Counter> =
    LazyLock::new(|| counter("semantics.memo.norm.misses", Det::Advisory));

fn insert_capped<K: std::hash::Hash + Eq, V>(map: &RwLock<HashMap<K, V>>, k: K, v: V) {
    let mut g = map.write();
    if g.len() >= CACHE_CAP {
        g.clear();
    }
    g.insert(k, v);
}

/// `lts.step_transitions(p)`, derived once per (term, defs generation).
///
/// The returned successor allocations are shared across calls.
pub fn step_transitions_cached(lts: &Lts<'_>, p: &P) -> Arc<Vec<(Action, P)>> {
    step_transitions_consed(lts, &bpi_core::cons(p))
}

/// [`step_transitions_cached`] for a term the caller already holds
/// consed: no interner probe at all.
pub fn step_transitions_consed(lts: &Lts<'_>, p: &Consed) -> Arc<Vec<(Action, P)>> {
    // Chaos delay site: memo caches must tolerate arbitrary scheduling
    // between probe and fill without changing any result.
    crate::chaos::delay("semantics.cache.step");
    let key = (p.clone(), lts.defs.generation());
    if let Some(v) = STEP_MEMO.read().get(&key) {
        STEP_HITS.inc();
        return v.clone();
    }
    STEP_MISSES.inc();
    let v = Arc::new(lts.step_transitions(p.term()));
    insert_capped(&STEP_MEMO, key, v.clone());
    v
}

/// `lts.input_transitions(p, pool)`, memoized per (term, defs generation,
/// pool).
pub fn input_transitions_consed(lts: &Lts<'_>, p: &Consed, pool: &[Name]) -> Arc<Vec<(Action, P)>> {
    let key = (p.clone(), lts.defs.generation(), pool.to_vec());
    if let Some(v) = INPUT_MEMO.read().get(&key) {
        INPUT_HITS.inc();
        return v.clone();
    }
    INPUT_MISSES.inc();
    let v = Arc::new(lts.input_transitions(p.term(), pool));
    insert_capped(&INPUT_MEMO, key, v.clone());
    v
}

/// Interns `p` as an explored state: [`bpi_core::prune`], then — when
/// `protected` is set — extruded-name folding of every free name outside
/// it, then [`bpi_core::canon`], then exactly one [`bpi_core::cons`].
/// Two successors get the same cell iff they normalise to the same
/// state. Store [`Consed::term`] (the cell's own allocation) as the
/// state: re-consing it, as every memo probe does, is a pointer hit.
///
/// The extruded-name arm ([`crate::explore::normalize_state`]) is
/// memoized per (term, protected set). The plain arm is not: probing a
/// memo would cons the raw successor, a tree walk as long as the one it
/// would save.
pub fn intern_state(p: &P, protected: Option<&NameSet>) -> Consed {
    crate::chaos::delay("semantics.cache.norm");
    let Some(prot) = protected else {
        return bpi_core::cons(&bpi_core::canon(&bpi_core::prune(p)));
    };
    let key = (bpi_core::cons(p), prot.clone());
    if let Some(c) = NORM_MEMO.read().get(&key) {
        NORM_HITS.inc();
        return c.clone();
    }
    NORM_MISSES.inc();
    let c = bpi_core::cons(&crate::explore::normalize_state(p, prot));
    insert_capped(&NORM_MEMO, key, c.clone());
    c
}

/// Interned states as their cells' own allocations, the form in which
/// graphs store them.
pub fn cell_terms(states: &[Consed]) -> Vec<P> {
    states.iter().map(|c| c.term().clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpi_core::builder::*;
    use bpi_core::syntax::Defs;

    #[test]
    fn step_memo_agrees_with_fresh_derivation() {
        let defs = Defs::new();
        let [a, v, x] = names(["a", "v", "x"]);
        let p = par(out_(a, [v]), inp(a, [x], out_(x, [])));
        let lts = Lts::new(&defs);
        let cached = step_transitions_cached(&lts, &p);
        let fresh = lts.step_transitions(&p);
        assert_eq!(cached.len(), fresh.len());
        for ((ca, cp), (fa, fp)) in cached.iter().zip(&fresh) {
            assert_eq!(ca, fa);
            assert!(bpi_core::alpha_eq(cp, fp));
        }
        // Second call replays the identical allocations.
        let again = step_transitions_cached(&lts, &p);
        assert!(Arc::ptr_eq(&cached, &again));
    }

    #[test]
    fn defs_generation_invalidates() {
        let a = bpi_core::Name::new("a");
        let id = bpi_core::Ident::new("CacheA");
        let mut defs = Defs::new();
        defs.define(id, vec![], out_(a, []));
        let p = call(id, []);
        {
            let lts = Lts::new(&defs);
            assert_eq!(step_transitions_cached(&lts, &p).len(), 1);
        }
        // Redefining bumps the generation: the τ-only body must show
        // through, not the stale cached output transition.
        defs.define(id, vec![], tau(nil()));
        let lts = Lts::new(&defs);
        let ts = step_transitions_cached(&lts, &p);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].0, Action::Tau);
    }

    #[test]
    fn interned_states_agree_with_direct_normalisation() {
        let [a, b, x] = names(["a", "b", "x"]);
        let p = par(out_(a, [b]), par(nil(), new(x, inp_(x, [b]))));
        let prot = NameSet::from_iter([a]);
        assert_eq!(
            *intern_state(&p, Some(&prot)).term(),
            crate::explore::normalize_state(&p, &prot)
        );
        let plain = intern_state(&p, None);
        assert_eq!(*plain.term(), bpi_core::canon(&bpi_core::prune(&p)));
        // The state is the cell's own allocation: interning it again is
        // the identical cell.
        assert!(Arc::ptr_eq(
            intern_state(plain.term(), None).term(),
            plain.term()
        ));
        // Distinct protected sets must not collide.
        let prot2 = NameSet::from_iter([a, b]);
        assert_eq!(
            *intern_state(&p, Some(&prot2)).term(),
            crate::explore::normalize_state(&p, &prot2)
        );
    }
}
