//! Gossip Glomers: the Maelstrom distributed-systems challenge ladder
//! encoded as bπ systems.
//!
//! Each module encodes one rung of the ladder and states its correctness
//! condition as a *machine-checked* property — either a behavioural
//! equivalence against an idealized specification process (discharged by
//! the adaptive [`bpi_equiv`] engines, and compose-eligible for the
//! many-identical-node topologies) or a reachability / modal-logic
//! check. The fault-tolerant rungs are additionally exercised under
//! seeded [`bpi_semantics::FaultPlan`] sweeps (loss / crash / partition)
//! with reliability curves from the quantitative backend:
//!
//! * [`echo`] — challenge #1: request/response echo, weak equivalence
//!   against the ideal answer plus an HML diamond-chain certificate;
//! * [`unique_ids`] — challenge #2: globally-unique id generation, a
//!   recursive in-calculus duplicate detector checked exhaustively;
//! * [`broadcast`] — challenges #3a–#3c: single-node read-your-writes,
//!   multi-node atomic gossip flood, and a fault-tolerant relay chain
//!   measured under message loss;
//! * [`gcounter`] — challenge #4: a grow-only counter replica as a
//!   subset automaton whose idempotent merge *is* the CRDT laws,
//!   checked as equivalences;
//! * [`kafka`] — challenge #5: a replicated-log leader with offset
//!   monotonicity as equivalence + an in-calculus order monitor kept
//!   safe under crash faults;
//! * [`txn`] — challenge #6: totally-available transactions with
//!   read-committed isolation (no dirty reads, exhaustively) and
//!   availability-under-writer-crash reliability verdicts.
//!
//! [`verdicts`] gathers every challenge's headline checks into one
//! labelled boolean vector: the differential test replays it with and
//! without `BPI_COMPOSE` and demands bit-identical answers, and the B16
//! bench ladder times it.

pub mod broadcast;
pub mod echo;
pub mod gcounter;
pub mod kafka;
pub mod txn;
pub mod unique_ids;

/// One rung of the ladder: a label and the thunk deciding its verdict.
pub type Rung = (&'static str, fn() -> bool);

/// The ladder itself: every challenge's headline checks as labelled
/// thunks, in challenge order, at the pinned sizes. The B16 bench times
/// each rung individually; [`verdicts`] evaluates them all.
pub fn ladder() -> Vec<Rung> {
    vec![
        ("echo/rpc-equiv", || echo::correct(2)),
        ("echo/hml-done", || echo::satisfies_done(2)),
        ("echo/negative-junk-server", || !echo::broken_correct(2)),
        ("unique-ids/exhaustive", || {
            unique_ids::unique(2, 2, 100_000) == Some(true)
        }),
        ("unique-ids/negative-collision", || {
            unique_ids::collision(2, 100_000) == Some(true)
        }),
        ("broadcast/read-your-writes", || {
            broadcast::read_your_writes()
        }),
        ("broadcast/negative-stale-register", || {
            !broadcast::stale_read_your_writes()
        }),
        ("broadcast/flood-converges", || {
            broadcast::flood_converges(3)
        }),
        ("broadcast/every-run-delivers", || {
            broadcast::every_run_delivers(3, 100_000)
        }),
        ("broadcast/node-order-irrelevant", || {
            broadcast::node_order_irrelevant(3)
        }),
        ("gcounter/converges", || gcounter::converges(3)),
        ("gcounter/merge-idempotent", || {
            gcounter::merge_idempotent(3)
        }),
        ("gcounter/merge-commutative", || {
            gcounter::merge_commutative(3)
        }),
        ("gcounter/every-run-converges", || {
            gcounter::every_run_converges(3, 100_000)
        }),
        ("kafka/offsets-monotone", || kafka::offsets_monotone()),
        ("kafka/first-assign-is-first-offset", || {
            kafka::first_assign_is_first_offset(100_000) == Some(true)
        }),
        ("kafka/negative-reordering-leader", || {
            !kafka::reordered_monotone()
        }),
        ("txn/read-committed", || {
            txn::read_committed(100_000) == Some(true)
        }),
        ("txn/serial-equiv", || txn::serial_equiv()),
        ("txn/negative-dirty-writer", || {
            txn::dirty_write_detected(100_000) == Some(true)
        }),
    ]
}

/// Every challenge's headline correctness verdicts, labelled. All of
/// these must hold (negative controls are pre-negated), and the whole
/// vector must be bit-identical under every engine selection — the
/// differential suites rely on that.
pub fn verdicts() -> Vec<(&'static str, bool)> {
    ladder()
        .into_iter()
        .map(|(label, f)| (label, f()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_whole_ladder_holds() {
        for (label, ok) in verdicts() {
            assert!(ok, "glomers verdict failed: {label}");
        }
    }
}
