//! Generic parallel frontier expansion with deterministic renumbering.
//!
//! Both reachable-graph builders in the workspace — step-move exploration
//! ([`crate::explore`]) and the pool-instantiated bisimulation graphs of
//! `bpi-equiv` — are the same algorithm: expand a frontier of interned
//! states ([`crate::cache::intern_state`]), dedup successors through a
//! visited table keyed by their cells, record per-state edge lists. This
//! module factors that machinery out once, generically over the edge
//! label and any per-state metadata, so a caller plugs in only its
//! *expansion function* (state → labelled successors + meta).
//!
//! **Determinism.** Worker scheduling makes state *numbering* racy, but
//! nothing else: the expansion function is pure, so each state's edge
//! list (labels, and targets up to renaming) and metadata are fixed. For
//! callers that need bit-for-bit reproducible graphs,
//! [`renumber_bfs`] re-indexes a *complete* outcome into canonical
//! breadth-first order — the numbering a sequential FIFO expansion would
//! have produced — after which two runs at any thread counts are
//! identical.
//!
//! **Degradation.** Budget exhaustion, cancellation, and worker panics
//! all surface as a recorded [`EngineError`] on the outcome, never a
//! panic; the `stop_on_cap` knob chooses between explore-style
//! truncation (drop the overflowing edge, keep draining) and build-style
//! abort (raise the stop flag, the caller discards the partial result).

use crate::budget::{Budget, EngineError};
use bpi_core::syntax::P;
use bpi_core::Consed;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// What expanding one state yields: labelled, **already interned**
/// successor states plus caller-defined per-state metadata (e.g. the
/// discard set of a bisimulation-graph state).
pub struct Expansion<L, M> {
    /// `(label, successor)` pairs in derivation order.
    pub succs: Vec<(L, Consed)>,
    /// Per-state payload stored alongside the edge list.
    pub meta: M,
}

/// The result of a frontier run. State indices are scheduling-dependent
/// unless post-processed with [`renumber_bfs`]; everything else is a pure
/// function of the seed and the expansion function.
pub struct FrontierOutcome<L, M> {
    /// Discovered states, each its cell's own allocation; index 0 is the
    /// seed.
    pub states: Vec<P>,
    /// `edges[i]` — the expansion of state `i`, targets resolved to
    /// indices.
    pub edges: Vec<Vec<(L, usize)>>,
    /// `metas[i]` — the metadata produced while expanding state `i`.
    pub metas: Vec<M>,
    /// Why the run stopped early, if it did.
    pub interrupted: Option<EngineError>,
}

/// Shared worker state. Exposed `pub(crate)` so the explore fault tests
/// can drive the guard machinery directly.
pub(crate) struct ParShared<L, M> {
    pub(crate) index: Mutex<HashMap<Consed, usize>>,
    pub(crate) states: Mutex<Vec<Consed>>,
    pub(crate) edges: Mutex<Vec<Vec<(L, usize)>>>,
    pub(crate) metas: Mutex<Vec<M>>,
    pub(crate) queue: Mutex<Vec<usize>>,
    pub(crate) active: AtomicUsize,
    /// Cooperative stop signal: raised on budget exhaustion,
    /// cancellation, or a worker panic so the remaining workers drain
    /// promptly instead of finishing the whole frontier.
    pub(crate) stop: AtomicBool,
    /// First recorded reason for stopping early.
    pub(crate) interrupted: Mutex<Option<EngineError>>,
}

impl<L, M> ParShared<L, M> {
    pub(crate) fn flag_stop(&self, e: EngineError) {
        self.interrupted.lock().get_or_insert(e);
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// Releases a worker's "active" claim even if the worker unwinds while
/// expanding a state. Without this, a panicking worker would leave
/// `active` forever non-zero and the surviving workers would spin
/// waiting for a frontier that never drains.
pub(crate) struct ActiveGuard<'a, L, M> {
    pub(crate) shared: &'a ParShared<L, M>,
    pub(crate) done: bool,
}

impl<'a, L, M> ActiveGuard<'a, L, M> {
    pub(crate) fn finish(mut self) {
        self.done = true;
        self.shared.active.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<'a, L, M> Drop for ActiveGuard<'a, L, M> {
    fn drop(&mut self) {
        if !self.done {
            self.shared.flag_stop(EngineError::WorkerPanicked);
            self.shared.active.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Expands the frontier of `seed` (already interned) with `threads`
/// crossbeam workers sharing a visited table and work queue; `threads <=
/// 1` runs a plain sequential loop with identical semantics. `expand` is
/// called exactly once per discovered state and must be pure. The state
/// ceiling is `cap`; the budget's deadline/cancellation are polled once
/// per expanded state.
pub fn expand_frontier<L, M, F>(
    seed: Consed,
    cap: usize,
    budget: &Budget,
    threads: usize,
    stop_on_cap: bool,
    expand: F,
) -> FrontierOutcome<L, M>
where
    L: Send,
    M: Send + Default,
    F: Fn(&Consed) -> Expansion<L, M> + Sync,
{
    if threads <= 1 {
        return expand_sequential(seed, cap, budget, stop_on_cap, expand);
    }
    let shared = ParShared {
        index: Mutex::new(HashMap::from([(seed.clone(), 0usize)])),
        states: Mutex::new(vec![seed]),
        edges: Mutex::new(vec![Vec::new()]),
        metas: Mutex::new(vec![M::default()]),
        queue: Mutex::new(vec![0usize]),
        active: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        interrupted: Mutex::new(None),
    };

    let scope_result = crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| {
                loop {
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let task = {
                        let mut q = shared.queue.lock();
                        match q.pop() {
                            Some(t) => {
                                shared.active.fetch_add(1, Ordering::SeqCst);
                                Some(t)
                            }
                            None => None,
                        }
                    };
                    let Some(i) = task else {
                        if shared.active.load(Ordering::SeqCst) == 0 {
                            break;
                        }
                        std::thread::yield_now();
                        continue;
                    };
                    let guard = ActiveGuard {
                        shared: &shared,
                        done: false,
                    };
                    // Chaos site: an injected panic here unwinds through
                    // the guard, which records WorkerPanicked — exactly
                    // the path a real worker bug would take. Callers
                    // with chaos active retry on the sequential path.
                    crate::chaos::worker_tick("semantics.frontier.worker");
                    if let Err(e) = budget.check(0) {
                        // Deadline/cancellation: stop everyone.
                        shared.flag_stop(e);
                        guard.finish();
                        break;
                    }
                    let src = shared.states.lock()[i].clone();
                    let exp = expand(&src);
                    let mut out = Vec::with_capacity(exp.succs.len());
                    for (label, state) in exp.succs {
                        let j = {
                            let mut index = shared.index.lock();
                            match index.get(&state) {
                                Some(&j) => Some(j),
                                None => {
                                    let mut states = shared.states.lock();
                                    if states.len() >= cap {
                                        let e = EngineError::StateBudgetExceeded { limit: cap };
                                        if stop_on_cap {
                                            shared.flag_stop(e);
                                        } else {
                                            shared.interrupted.lock().get_or_insert(e);
                                        }
                                        None
                                    } else {
                                        let j = states.len();
                                        index.insert(state.clone(), j);
                                        states.push(state);
                                        shared.edges.lock().push(Vec::new());
                                        shared.metas.lock().push(M::default());
                                        shared.queue.lock().push(j);
                                        Some(j)
                                    }
                                }
                            }
                        };
                        if let Some(j) = j {
                            out.push((label, j));
                        }
                    }
                    shared.edges.lock()[i] = out;
                    shared.metas.lock()[i] = exp.meta;
                    guard.finish();
                }
            });
        }
    });
    if scope_result.is_err() {
        // A worker died outside the guarded region (or the guard itself
        // could not record it); make sure the reason is visible.
        shared
            .interrupted
            .lock()
            .get_or_insert(EngineError::WorkerPanicked);
    }

    let interrupted = shared.interrupted.into_inner();
    FrontierOutcome {
        states: cell_terms(&shared.states.into_inner()),
        edges: shared.edges.into_inner(),
        metas: shared.metas.into_inner(),
        interrupted,
    }
}

/// Interned states as their cells' own allocations, the form in which
/// graphs store them.
pub fn cell_terms(states: &[Consed]) -> Vec<P> {
    states.iter().map(|c| c.term().clone()).collect()
}

fn expand_sequential<L, M, F>(
    seed: Consed,
    cap: usize,
    budget: &Budget,
    stop_on_cap: bool,
    expand: F,
) -> FrontierOutcome<L, M>
where
    M: Default,
    F: Fn(&Consed) -> Expansion<L, M>,
{
    // Consed keys make the visited probe an O(1) id comparison; the
    // cell's interior OnceLocks never feed Hash/Eq.
    #[allow(clippy::mutable_key_type)]
    let mut index: HashMap<Consed, usize> = HashMap::new();
    index.insert(seed.clone(), 0);
    let mut states = vec![seed];
    let mut edges: Vec<Vec<(L, usize)>> = vec![Vec::new()];
    let mut metas: Vec<M> = vec![M::default()];
    let mut interrupted: Option<EngineError> = None;
    let mut frontier = vec![0usize];

    'outer: while let Some(i) = frontier.pop() {
        if let Err(e) = budget.check(0) {
            interrupted = Some(e);
            break;
        }
        let src = states[i].clone();
        let exp = expand(&src);
        let mut out = Vec::with_capacity(exp.succs.len());
        for (label, state) in exp.succs {
            let j = match index.get(&state) {
                Some(&j) => j,
                None => {
                    if states.len() >= cap {
                        let e = EngineError::StateBudgetExceeded { limit: cap };
                        if stop_on_cap {
                            interrupted = Some(e);
                            break 'outer;
                        }
                        interrupted.get_or_insert(e);
                        continue;
                    }
                    let j = states.len();
                    index.insert(state.clone(), j);
                    states.push(state);
                    edges.push(Vec::new());
                    metas.push(M::default());
                    frontier.push(j);
                    j
                }
            };
            out.push((label, j));
        }
        edges[i] = out;
        metas[i] = exp.meta;
    }
    FrontierOutcome {
        states: cell_terms(&states),
        edges,
        metas,
        interrupted,
    }
}

/// Re-indexes a frontier outcome into canonical breadth-first order:
/// states are numbered in the order a FIFO expansion from state 0 would
/// first discover them, following each state's edge list left to right.
/// For a *complete* outcome this is a pure function of the underlying
/// graph, so outcomes produced at different thread counts renumber to
/// bit-for-bit identical results. States unreachable from 0 over the
/// recorded edges (possible only in truncated outcomes) are appended in
/// their old order.
pub fn renumber_bfs<L, M>(outcome: FrontierOutcome<L, M>) -> FrontierOutcome<L, M> {
    let n = outcome.states.len();
    let mut old_to_new = vec![usize::MAX; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::from([0usize]);
    if n > 0 {
        old_to_new[0] = 0;
        order.push(0);
    }
    while let Some(i) = queue.pop_front() {
        for (_, j) in &outcome.edges[i] {
            if old_to_new[*j] == usize::MAX {
                old_to_new[*j] = order.len();
                order.push(*j);
                queue.push_back(*j);
            }
        }
    }
    for (i, slot) in old_to_new.iter_mut().enumerate() {
        if *slot == usize::MAX {
            *slot = order.len();
            order.push(i);
        }
    }
    // Permute by consuming the old vectors through Options so states and
    // metas move rather than clone.
    let mut states: Vec<Option<P>> = outcome.states.into_iter().map(Some).collect();
    let mut edges: Vec<Option<Vec<(L, usize)>>> = outcome.edges.into_iter().map(Some).collect();
    let mut metas: Vec<Option<M>> = outcome.metas.into_iter().map(Some).collect();
    let mut new_states = Vec::with_capacity(n);
    let mut new_edges = Vec::with_capacity(n);
    let mut new_metas = Vec::with_capacity(n);
    for &old in &order {
        new_states.push(states[old].take().expect("each old index appears once"));
        let es = edges[old].take().expect("each old index appears once");
        new_edges.push(
            es.into_iter()
                .map(|(l, j)| (l, old_to_new[j]))
                .collect::<Vec<_>>(),
        );
        new_metas.push(metas[old].take().expect("each old index appears once"));
    }
    FrontierOutcome {
        states: new_states,
        edges: new_edges,
        metas: new_metas,
        interrupted: outcome.interrupted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpi_core::action::Action;
    use parking_lot::Mutex;

    #[test]
    fn worker_panic_yields_recorded_reason_not_a_panic() {
        // Drive the guard machinery the way a dying worker would: one
        // thread claims a task and unwinds mid-expansion while others
        // keep polling the queue. The scope must still join, `active`
        // must return to zero, and the reason must be recorded.
        let shared: ParShared<Action, ()> = ParShared {
            index: Mutex::new(HashMap::new()),
            states: Mutex::new(Vec::new()),
            edges: Mutex::new(Vec::new()),
            metas: Mutex::new(Vec::new()),
            queue: Mutex::new(vec![0usize]),
            active: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            interrupted: Mutex::new(None),
        };
        let r = crossbeam::scope(|scope| {
            // The doomed worker.
            scope.spawn(|_| {
                let _task = shared.queue.lock().pop().unwrap();
                shared.active.fetch_add(1, Ordering::SeqCst);
                let _guard = ActiveGuard {
                    shared: &shared,
                    done: false,
                };
                panic!("injected worker fault");
            });
            // A survivor that spins until the claim is released.
            scope.spawn(|_| loop {
                if shared.stop.load(Ordering::SeqCst) || shared.active.load(Ordering::SeqCst) == 0 {
                    break;
                }
                std::thread::yield_now();
            });
        });
        assert!(r.is_err(), "panic payload surfaces through the scope");
        assert_eq!(shared.active.load(Ordering::SeqCst), 0);
        assert_eq!(
            shared.interrupted.into_inner(),
            Some(EngineError::WorkerPanicked)
        );
    }

    #[test]
    fn renumber_is_canonical_bfs() {
        use bpi_core::builder::*;
        // A diamond 0 → {1, 2} → 3 presented with scrambled indices.
        let s = |k: usize| out_(bpi_core::Name::new(&format!("s{k}")), []);
        let outcome = FrontierOutcome {
            states: vec![s(0), s(3), s(2), s(1)],
            edges: vec![
                vec![(Action::Tau, 3), (Action::Tau, 2)],
                vec![],
                vec![(Action::Tau, 1)],
                vec![(Action::Tau, 1)],
            ],
            metas: vec![(), (), (), ()],
            interrupted: None,
        };
        let r = renumber_bfs(outcome);
        let spell: Vec<String> = r.states.iter().map(|p| p.to_string()).collect();
        assert_eq!(spell, vec!["s0<>", "s1<>", "s2<>", "s3<>"]);
        assert_eq!(r.edges[0], vec![(Action::Tau, 1), (Action::Tau, 2)]);
        assert_eq!(r.edges[1], vec![(Action::Tau, 3)]);
        assert_eq!(r.edges[2], vec![(Action::Tau, 3)]);
    }
}
