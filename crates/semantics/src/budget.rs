//! Resource budgets and typed exhaustion errors for the heavy engines.
//!
//! Every state-space engine in this workspace (weak closures, graph
//! exploration, bisimulation graphs, the axiomatic prover) can in
//! principle diverge on an adversarial input: the bπ LTS is finitely
//! branching but not finite-state. Historically each engine policed its
//! own `usize` bound and `panic!`ed past it; a [`Budget`] replaces those
//! ad-hoc limits with one composable description — a state-count ceiling,
//! an optional wall-clock deadline, and an optional cooperative
//! cancellation flag — and exhaustion surfaces as a typed
//! [`EngineError`] instead of a crash, so callers degrade gracefully
//! (report "inconclusive", retry with more room, or drop the work).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why an engine stopped before finishing its job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The engine visited more distinct states than the budget allows.
    StateBudgetExceeded {
        /// The configured ceiling that was hit.
        limit: usize,
    },
    /// The wall-clock deadline passed mid-run.
    DeadlineExceeded,
    /// The cooperative cancellation flag was raised by another thread.
    Cancelled,
    /// A supervised run panicked; partial results may still be usable.
    WorkerPanicked,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::StateBudgetExceeded { limit } => {
                write!(f, "state budget of {limit} states exhausted")
            }
            EngineError::DeadlineExceeded => f.write_str("wall-clock deadline exceeded"),
            EngineError::Cancelled => f.write_str("cancelled cooperatively"),
            EngineError::WorkerPanicked => f.write_str("a worker thread panicked"),
        }
    }
}

impl std::error::Error for EngineError {}

impl EngineError {
    /// Whether granting a larger state budget could change the outcome.
    /// Deadline and cancellation are external decisions; retrying against
    /// them is futile.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            EngineError::StateBudgetExceeded { .. } | EngineError::WorkerPanicked
        )
    }
}

/// A resource envelope for one engine run: state count, wall clock, and
/// cooperative cancellation. Cheap to clone; clones share the
/// cancellation flag.
#[derive(Clone, Debug)]
pub struct Budget {
    max_states: usize,
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
}

impl Budget {
    /// A budget bounded only by `max_states`.
    pub fn states(max_states: usize) -> Budget {
        Budget {
            max_states,
            deadline: None,
            cancel: None,
        }
    }

    /// No limits at all. `check` still honours a deadline or flag added
    /// later with the builder methods.
    pub fn unlimited() -> Budget {
        Budget::states(usize::MAX)
    }

    /// Adds a wall-clock deadline `timeout` from now.
    pub fn with_deadline(mut self, timeout: Duration) -> Budget {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Adds an absolute wall-clock deadline.
    pub fn with_deadline_at(mut self, deadline: Instant) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cancellation flag. Raising the flag (from any thread)
    /// makes every subsequent `check` fail with [`EngineError::Cancelled`].
    pub fn with_cancel_flag(mut self, flag: Arc<AtomicBool>) -> Budget {
        self.cancel = Some(flag);
        self
    }

    /// The state-count ceiling.
    pub fn max_states(&self) -> usize {
        self.max_states
    }

    /// The absolute wall-clock deadline, if one was set.
    pub fn deadline_at(&self) -> Option<Instant> {
        self.deadline
    }

    /// Wall-clock time left before the deadline: `None` with no
    /// deadline, `Some(ZERO)` once it has passed. Admission-control
    /// callers use this to refuse work whose deadline cannot be met
    /// instead of queueing it to die.
    pub fn time_remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Whether this budget can never trip: no state ceiling, no deadline,
    /// no cancellation flag. Engines that fan work out across threads use
    /// this to decide whether exact sequential budget-replay semantics
    /// are at stake (a limited budget keeps them on the sequential path).
    pub fn is_unlimited(&self) -> bool {
        self.max_states == usize::MAX && self.deadline.is_none() && self.cancel.is_none()
    }

    /// Whether the cancellation flag (if any) has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// Polls every constraint against the current usage. Engines call
    /// this once per state they expand.
    pub fn check(&self, states_used: usize) -> Result<(), EngineError> {
        if self.is_cancelled() {
            return Err(EngineError::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() > d {
                return Err(EngineError::DeadlineExceeded);
            }
        }
        if states_used > self.max_states {
            return Err(EngineError::StateBudgetExceeded {
                limit: self.max_states,
            });
        }
        Ok(())
    }

    /// A copy with `factor`× the state budget (saturating); deadline and
    /// cancellation flag carry over unchanged.
    pub fn grown(&self, factor: usize) -> Budget {
        Budget {
            max_states: self.max_states.saturating_mul(factor),
            deadline: self.deadline,
            cancel: self.cancel.clone(),
        }
    }
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::unlimited()
    }
}

/// Runs `run` under `initial`, retrying with an exponentially grown state
/// budget (doubling each attempt) on retryable exhaustion. Deadline and
/// cancellation errors abort immediately — no amount of state budget
/// fixes an external stop. Returns the last error after `attempts` tries.
pub fn retry_with_backoff<T>(
    initial: Budget,
    attempts: usize,
    mut run: impl FnMut(&Budget) -> Result<T, EngineError>,
) -> Result<T, EngineError> {
    let mut budget = initial;
    let mut last = EngineError::StateBudgetExceeded {
        limit: budget.max_states(),
    };
    for _ in 0..attempts.max(1) {
        match run(&budget) {
            Ok(v) => return Ok(v),
            Err(e) if e.is_retryable() => {
                last = e;
                budget = budget.grown(2);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last)
}

/// Checkpoint-aware [`retry_with_backoff`]: the closure receives the
/// checkpoint from the previous attempt (`None` on the cold start) and
/// returns its own checkpoint inside the typed
/// [`Interrupted`](crate::checkpoint::Interrupted) error, so an
/// escalated budget *resumes* instead of re-exploring from scratch.
/// Retry policy matches [`retry_with_backoff`]: the state budget doubles
/// on retryable errors, external stops abort immediately, and the last
/// interruption (checkpoint included) comes back after `attempts` tries.
pub fn retry_with_checkpoint<T, C>(
    initial: Budget,
    attempts: usize,
    mut run: impl FnMut(&Budget, Option<C>) -> Result<T, crate::checkpoint::Interrupted<C>>,
) -> Result<T, crate::checkpoint::Interrupted<C>> {
    let mut budget = initial;
    let mut carry: Option<crate::checkpoint::Interrupted<C>> = None;
    for _ in 0..attempts.max(1) {
        let resume = carry.take().map(|i| i.checkpoint);
        if resume.is_some() {
            crate::checkpoint::record_resume("retry_with_checkpoint");
        }
        match run(&budget, resume) {
            Ok(v) => return Ok(v),
            Err(i) if i.error.is_retryable() => {
                budget = budget.grown(2);
                carry = Some(i);
            }
            Err(i) => return Err(i),
        }
    }
    Err(carry.expect("at least one attempt always runs"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Interrupted;

    #[test]
    fn state_budget_trips() {
        let b = Budget::states(10);
        assert_eq!(b.check(10), Ok(()));
        assert_eq!(
            b.check(11),
            Err(EngineError::StateBudgetExceeded { limit: 10 })
        );
    }

    #[test]
    fn deadline_trips() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(b.check(0), Err(EngineError::DeadlineExceeded));
    }

    #[test]
    fn cancellation_trips_across_clones() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = Budget::unlimited().with_cancel_flag(Arc::clone(&flag));
        let c = b.clone();
        assert_eq!(c.check(0), Ok(()));
        flag.store(true, Ordering::Relaxed);
        assert_eq!(b.check(0), Err(EngineError::Cancelled));
        assert_eq!(c.check(0), Err(EngineError::Cancelled));
    }

    #[test]
    fn retry_doubles_until_enough() {
        let mut seen = Vec::new();
        let out = retry_with_backoff(Budget::states(8), 4, |b| {
            seen.push(b.max_states());
            if b.max_states() >= 32 {
                Ok(b.max_states())
            } else {
                Err(EngineError::StateBudgetExceeded {
                    limit: b.max_states(),
                })
            }
        });
        assert_eq!(out, Ok(32));
        assert_eq!(seen, vec![8, 16, 32]);
    }

    #[test]
    fn retry_gives_up_on_cancellation() {
        let mut calls = 0;
        let out: Result<(), _> = retry_with_backoff(Budget::states(8), 5, |_| {
            calls += 1;
            Err(EngineError::Cancelled)
        });
        assert_eq!(out, Err(EngineError::Cancelled));
        assert_eq!(calls, 1);
    }

    #[test]
    fn retry_exhausts_attempts() {
        let out: Result<(), _> = retry_with_backoff(Budget::states(1), 3, |b| {
            Err(EngineError::StateBudgetExceeded {
                limit: b.max_states(),
            })
        });
        assert_eq!(out, Err(EngineError::StateBudgetExceeded { limit: 4 }));
    }

    // Satellite: both retry paths — the checkpoint-free legacy closure
    // (above) and the checkpoint-aware one (below) — escalate the same
    // way, but only the latter resumes instead of re-exploring.

    #[test]
    fn retry_with_checkpoint_resumes_instead_of_restarting() {
        let mut seen: Vec<(usize, Option<u32>)> = Vec::new();
        let out = retry_with_checkpoint(Budget::states(8), 4, |b, resume| {
            seen.push((b.max_states(), resume));
            // Pretend each attempt gets halfway: progress = budget/2,
            // carried forward as the checkpoint.
            let progress = resume.unwrap_or(0) + (b.max_states() / 2) as u32;
            if progress >= 20 {
                Ok(progress)
            } else {
                Err(Interrupted {
                    error: EngineError::StateBudgetExceeded {
                        limit: b.max_states(),
                    },
                    checkpoint: progress,
                })
            }
        });
        // 4 + 8 + 16 = 28 ≥ 20 on the third attempt — the budget doubled
        // each time *and* the accumulated progress was never discarded.
        assert_eq!(out.unwrap(), 28);
        assert_eq!(seen, vec![(8, None), (16, Some(4)), (32, Some(12))]);
    }

    #[test]
    fn retry_with_checkpoint_aborts_on_external_stop() {
        let mut calls = 0;
        let out: Result<(), _> = retry_with_checkpoint(Budget::states(8), 5, |_, _| {
            calls += 1;
            Err(Interrupted {
                error: EngineError::DeadlineExceeded,
                checkpoint: 99u32,
            })
        });
        let err = out.unwrap_err();
        assert_eq!(calls, 1);
        assert_eq!(err.error, EngineError::DeadlineExceeded);
        assert_eq!(err.checkpoint, 99, "the checkpoint still comes back");
    }

    #[test]
    fn retry_with_checkpoint_returns_last_checkpoint_on_exhaustion() {
        let out: Result<(), _> = retry_with_checkpoint(Budget::states(2), 3, |b, resume| {
            Err(Interrupted {
                error: EngineError::StateBudgetExceeded {
                    limit: b.max_states(),
                },
                checkpoint: resume.unwrap_or(0) + 1u32,
            })
        });
        let err = out.unwrap_err();
        assert_eq!(err.error, EngineError::StateBudgetExceeded { limit: 8 });
        assert_eq!(err.checkpoint, 3, "one unit of progress per attempt");
    }
}
