//! Weak transitions, barbs, and step-moves.
//!
//! * `p ⇒ p'` — zero or more `τ` steps ([`Weak::tau_closure`]);
//! * `p ↓a / p ⇓a` — strong/weak **barbs**: the ability to (eventually)
//!   broadcast on `a`. In a broadcast calculus outputs are the observable
//!   actions (we hear whatever a process says if we listen), while inputs
//!   are invisible (sending is non-blocking, so we cannot tell whether our
//!   value was received or discarded) — Section 3.1;
//! * step-moves `p —α̂→ p'` with `α̂` an output or `τ` — the autonomous
//!   moves of step-bisimilarity (Definition 5), and the step-barbs
//!   `↓ₐ^φ / ⇓ₐ^φ` defined from them.
//!
//! The closure searches are bounded by a [`Budget`]; running out surfaces
//! as `Err(EngineError)` rather than a panic, so equivalence engines can
//! answer "inconclusive" instead of aborting.
//!
//! Closures are computed once per root as a [`TauSaturation`] — the
//! reachable sub-graph together with each state's strong barbs — and
//! memoized globally per (root term id, defs generation, move kind), so
//! repeated weak queries against the same state (the common shape inside
//! bisimulation refinement) stop re-running per-state searches.

use crate::budget::{Budget, EngineError};
use crate::cache::{step_transitions_cached, step_transitions_consed};
use crate::lts::Lts;
use bpi_core::action::Action;
use bpi_core::name::{Name, NameSet};
use bpi_core::syntax::P;
use bpi_core::{cached_canon, cons, Consed};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, LazyLock};

/// Default bound on the number of distinct states a weak closure may
/// visit before giving up.
pub const DEFAULT_CLOSURE_BUDGET: usize = 65_536;

/// The saturation of one root state: every state reachable by the chosen
/// move kind (τ only, or τ-and-output "step moves"), with each state's
/// strong barbs precomputed.
pub struct TauSaturation {
    /// Reachable states (the root included), deduplicated up to
    /// α-equivalence.
    pub states: Vec<P>,
    /// `barbs[i]` — strong barbs of `states[i]`.
    pub barbs: Vec<NameSet>,
}

impl TauSaturation {
    /// Union of the strong barbs over all saturated states.
    pub fn all_barbs(&self) -> NameSet {
        let mut s = NameSet::new();
        for b in &self.barbs {
            s.extend(b);
        }
        s
    }
}

/// Which transitions a saturation follows.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum MoveKind {
    Tau,
    Step,
}

/// Global saturation memo: (root term, defs generation, move kind) →
/// saturated sub-graph. Sound because the saturation is a pure function
/// of the key; budget differences between callers are replayed on hit by
/// re-checking the budget against the saturation's state count. Keys hold
/// the `Consed` handle so the class id stays live while the entry does.
type SaturationKey = (Consed, u64, MoveKind);
static SATURATIONS: LazyLock<RwLock<HashMap<SaturationKey, Arc<TauSaturation>>>> =
    LazyLock::new(|| RwLock::new(HashMap::new()));

/// Entries kept before the saturation memo is wholesale cleared.
const SATURATION_CAP: usize = 1 << 18;

/// Weak-transition engine layered over [`Lts`].
#[derive(Clone)]
pub struct Weak<'d> {
    pub lts: Lts<'d>,
    /// Resource envelope every closure and barb search runs under.
    pub budget: Budget,
}

impl<'d> Weak<'d> {
    pub fn new(lts: Lts<'d>) -> Weak<'d> {
        Weak {
            lts,
            budget: Budget::states(DEFAULT_CLOSURE_BUDGET),
        }
    }

    /// Caps the number of distinct states any closure may visit.
    pub fn with_budget(lts: Lts<'d>, max_states: usize) -> Weak<'d> {
        Weak {
            lts,
            budget: Budget::states(max_states),
        }
    }

    /// Full control over states, deadline and cancellation.
    pub fn with_budget_spec(lts: Lts<'d>, budget: Budget) -> Weak<'d> {
        Weak { lts, budget }
    }

    /// `{p' | p ⇒ p'}` — all states reachable by `τ` steps (including `p`
    /// itself), deduplicated up to α-equivalence. `Err` when the budget
    /// runs out first.
    pub fn tau_closure(&self, p: &P) -> Result<Vec<P>, EngineError> {
        Ok(self.saturation(p, MoveKind::Tau)?.states.clone())
    }

    /// `{p' | p =α̂⇒ p'}` — all states reachable by *step moves*
    /// (`τ` or any output), including `p` itself.
    pub fn step_closure(&self, p: &P) -> Result<Vec<P>, EngineError> {
        Ok(self.saturation(p, MoveKind::Step)?.states.clone())
    }

    /// The memoized saturation of `p`: computed by one budgeted search on
    /// first demand, replayed from the global memo afterwards. A hit
    /// still re-checks the *caller's* budget against the saturation size,
    /// so a tighter budget sees the same typed exhaustion it would have
    /// hit searching.
    fn saturation(&self, p: &P, kind: MoveKind) -> Result<Arc<TauSaturation>, EngineError> {
        static HITS: LazyLock<&bpi_obs::Counter> = LazyLock::new(|| {
            bpi_obs::counter("semantics.weak.saturation.hits", bpi_obs::Det::Advisory)
        });
        static MISSES: LazyLock<&bpi_obs::Counter> = LazyLock::new(|| {
            bpi_obs::counter("semantics.weak.saturation.misses", bpi_obs::Det::Advisory)
        });
        self.budget.check(0)?;
        // Chaos delay site: the saturation memo is probed concurrently by
        // refinement workers; a stall here must not change any closure.
        crate::chaos::delay("semantics.weak.saturation");
        let root = cons(p);
        let key = (root.clone(), self.lts.defs.generation(), kind);
        if let Some(sat) = SATURATIONS.read().get(&key) {
            HITS.inc();
            self.budget.check(sat.states.len())?;
            return Ok(sat.clone());
        }
        MISSES.inc();
        let keep = |act: &Action| match kind {
            MoveKind::Tau => matches!(act, Action::Tau),
            MoveKind::Step => act.is_step_move(),
        };
        // The work list holds each reached state consed once: its canon
        // and its step derivations then cost no further interner probes.
        let mut seen: HashSet<P> = HashSet::new();
        let mut out = Vec::new();
        seen.insert(root.canon().clone());
        let mut work = vec![root];
        while let Some(q) = work.pop() {
            self.budget.check(seen.len())?;
            for (act, q2) in step_transitions_consed(&self.lts, &q).iter() {
                if keep(act) {
                    let q2 = cons(q2);
                    if seen.insert(q2.canon().clone()) {
                        work.push(q2);
                    }
                }
            }
            out.push(q.term().clone());
        }
        let barbs = out.iter().map(|q| self.strong_barbs(q)).collect();
        bpi_obs::histogram("semantics.weak.saturation.states").record(out.len() as u64);
        let sat = Arc::new(TauSaturation { states: out, barbs });
        let mut g = SATURATIONS.write();
        if g.len() >= SATURATION_CAP {
            g.clear();
        }
        g.insert(key, sat.clone());
        Ok(sat)
    }

    /// Strong barbs `{a | p ↓a}`: subjects of immediately available
    /// outputs.
    pub fn strong_barbs(&self, p: &P) -> NameSet {
        let mut s = NameSet::new();
        for (act, _) in step_transitions_cached(&self.lts, p).iter() {
            if act.is_output() {
                if let Some(a) = act.subject() {
                    s.insert(a);
                }
            }
        }
        s
    }

    /// Weak barbs `{a | p ⇓a}`: subjects of outputs reachable through `τ`
    /// steps.
    pub fn weak_barbs(&self, p: &P) -> Result<NameSet, EngineError> {
        Ok(self.saturation(p, MoveKind::Tau)?.all_barbs())
    }

    /// Strong step-barbs `{a | p ↓ₐ^φ}` — identical to strong barbs (an
    /// immediate output with subject `a`); kept separate for symmetry with
    /// the paper's notation.
    pub fn strong_step_barbs(&self, p: &P) -> NameSet {
        self.strong_barbs(p)
    }

    /// Weak step-barbs `{a | p ⇓ₐ^φ}`: a sequence of step moves ending in
    /// an output with subject `a` — i.e. some step-reachable state has a
    /// strong barb on `a`. Step moves may traverse *outputs*, not just
    /// `τ`s, which is exactly what distinguishes step- from barbed
    /// observation (Remark 2.3).
    pub fn weak_step_barbs(&self, p: &P) -> Result<NameSet, EngineError> {
        Ok(self.saturation(p, MoveKind::Step)?.all_barbs())
    }

    /// Weak τ-moves followed by one transition satisfying `pred`, followed
    /// by τ-moves: `{p' | p ⇒ —α→ ⇒ p', pred(α)}` together with the
    /// labels used.
    pub fn weak_then(
        &self,
        p: &P,
        pred: impl Fn(&Action) -> bool,
    ) -> Result<Vec<(Action, P)>, EngineError> {
        let mut out = Vec::new();
        let mut seen: HashSet<(Action, P)> = HashSet::new();
        for q in &self.saturation(p, MoveKind::Tau)?.states {
            for (act, q2) in step_transitions_cached(&self.lts, q).iter() {
                if pred(act) {
                    for q3 in &self.saturation(q2, MoveKind::Tau)?.states {
                        if seen.insert((act.clone(), cached_canon(q3))) {
                            out.push((act.clone(), q3.clone()));
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Whether `a` is a strong barb of `p`.
    pub fn has_strong_barb(&self, p: &P, a: Name) -> bool {
        self.strong_barbs(p).contains(a)
    }

    /// Whether `a` is a weak barb of `p`. `Err` when the search exceeds
    /// the budget before either finding the barb or exhausting the
    /// τ-reachable states.
    pub fn has_weak_barb(&self, p: &P, a: Name) -> Result<bool, EngineError> {
        // Early-exit search rather than materialising the closure — a
        // reachable barb must stay findable under budgets too small for
        // the full saturation.
        let root = cons(p);
        let mut seen: HashSet<P> = HashSet::new();
        seen.insert(root.canon().clone());
        let mut work = vec![root];
        while let Some(q) = work.pop() {
            self.budget.check(seen.len())?;
            for (act, q2) in step_transitions_consed(&self.lts, &q).iter() {
                if act.is_output() && act.subject() == Some(a) {
                    return Ok(true);
                }
                if matches!(act, Action::Tau) {
                    let q2 = cons(q2);
                    if seen.insert(q2.canon().clone()) {
                        work.push(q2);
                    }
                }
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpi_core::builder::*;
    use bpi_core::syntax::Defs;

    fn weak(defs: &Defs) -> Weak<'_> {
        Weak::new(Lts::new(defs))
    }

    #[test]
    fn tau_closure_collects_derivatives() {
        let defs = Defs::new();
        let a = bpi_core::Name::new("a");
        // τ.τ.ā : closure has 3 states
        let p = tau(tau(out_(a, [])));
        let w = weak(&defs);
        assert_eq!(w.tau_closure(&p).unwrap().len(), 3);
    }

    #[test]
    fn barbs_strong_vs_weak() {
        let defs = Defs::new();
        let [a, b] = names(["a", "b"]);
        // τ.ā + b̄ : strong barb {b}, weak barbs {a, b}
        let p = sum(tau(out_(a, [])), out_(b, []));
        let w = weak(&defs);
        assert_eq!(w.strong_barbs(&p).to_vec(), vec![b]);
        assert_eq!(w.weak_barbs(&p).unwrap().to_vec(), vec![a, b]);
        assert!(w.has_weak_barb(&p, a).unwrap());
        assert!(!w.has_strong_barb(&p, a));
    }

    #[test]
    fn step_barbs_traverse_outputs() {
        let defs = Defs::new();
        let [a, b] = names(["a", "b"]);
        // b̄.ā : weak barb only {b} (no τ to cross the output), but weak
        // STEP barb {a, b} — the distinction behind Remark 2.3.
        let p = out(b, [], out_(a, []));
        let w = weak(&defs);
        assert_eq!(w.weak_barbs(&p).unwrap().to_vec(), vec![b]);
        assert_eq!(w.weak_step_barbs(&p).unwrap().to_vec(), vec![a, b]);
    }

    #[test]
    fn restricted_output_is_not_a_barb() {
        // νa (āv ‖ a(x)) has no barb at all: the broadcast is internal.
        let defs = Defs::new();
        let [a, v, x] = names(["a", "v", "x"]);
        let p = new(a, par(out_(a, [v]), inp_(a, [x])));
        let w = weak(&defs);
        assert!(w.strong_barbs(&p).is_empty());
        assert!(w.weak_barbs(&p).unwrap().is_empty());
    }

    #[test]
    fn weak_then_composes() {
        let defs = Defs::new();
        let [a, b] = names(["a", "b"]);
        // τ.ā.τ.b̄ : weak output on a reaches both τ.b̄ and b̄.
        let p = tau(out(a, [], tau(out_(b, []))));
        let w = weak(&defs);
        let outs = w
            .weak_then(&p, |act| act.is_output() && act.subject() == Some(a))
            .unwrap();
        assert_eq!(outs.len(), 2);
    }

    #[test]
    fn closure_exhaustion_is_typed_not_a_panic() {
        // A recursive pump τ-steps through unboundedly many distinct
        // states; a 4-state budget must surface as an error, not abort.
        let defs = Defs::new();
        let [a, b] = names(["a", "b"]);
        let id = bpi_core::Ident::new("WPump");
        // WPump(a,b) = τ.(b̄ ‖ WPump<a,b>) — each unfolding grows the term.
        let p = rec(id, [a, b], tau(par(out_(b, []), var(id, [a, b]))), [a, b]);
        let w = Weak::with_budget(Lts::new(&defs), 4);
        assert_eq!(
            w.tau_closure(&p),
            Err(EngineError::StateBudgetExceeded { limit: 4 })
        );
        assert_eq!(
            w.has_weak_barb(&p, a),
            Err(EngineError::StateBudgetExceeded { limit: 4 })
        );
        // weak_barbs goes through the same closure: also typed.
        assert!(w.weak_barbs(&p).is_err());
    }

    #[test]
    fn cancellation_stops_closure() {
        let defs = Defs::new();
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let budget = Budget::unlimited().with_cancel_flag(flag);
        let w = Weak::with_budget_spec(Lts::new(&defs), budget);
        let a = bpi_core::Name::new("a");
        assert_eq!(
            w.tau_closure(&tau(out_(a, []))),
            Err(EngineError::Cancelled)
        );
    }
}
