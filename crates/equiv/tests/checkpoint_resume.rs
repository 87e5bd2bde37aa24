//! Differential tests for PR 5's checkpoint/resume + self-chaos layer.
//!
//! The contract locked down here, building on PR 4's deterministic-vs-
//! advisory metric split:
//!
//! * **Resume is invisible.** Interrupting a checkpointed pipeline at
//!   *any* feasible boundary (every committed state, every refinement
//!   round — driven by the cooperative fuel countdown) and resuming from
//!   the serialised checkpoint yields the same fixpoint relation and the
//!   same deterministic `bpi-obs` counter deltas as the uninterrupted
//!   run, across all six variants, including for processes wrapped in
//!   the fault combinators of `bpi_semantics::faults`.
//! * **Chaos is invisible too.** A seeded [`ChaosPlan`] injects delays
//!   and supervisor-armed budget pressure, but verdicts and
//!   deterministic counters match a quiet run, and the injection log
//!   replays bit-identically for the same seed.
//!
//! The metrics registry and the chaos plan are process-global, so every
//! test serialises on [`LOCK`].

use bpi_core::builder::*;
use bpi_core::name::Name;
use bpi_core::syntax::{Defs, P};
use bpi_equiv::arbitrary::{Gen, GenCfg};
use bpi_equiv::{
    partition_safe, refine_auto, refine_budgeted, shared_pool, Checker, Checkpoint, Graph, Opts,
    RefineSnapshot, Variant,
};
use bpi_obs::CounterDelta;
use bpi_semantics::chaos::{self, ChaosPlan};
use bpi_semantics::{deafen, noise, Budget, CheckpointCfg, EngineError};
use proptest::prelude::*;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const ALL: [Variant; 6] = [
    Variant::StrongBarbed,
    Variant::StrongStep,
    Variant::StrongLabelled,
    Variant::WeakBarbed,
    Variant::WeakStep,
    Variant::WeakLabelled,
];

/// Upper bound on the fuel sweep — generously above any boundary count
/// the small pairs can have, so a non-terminating sweep fails loudly.
const FUEL_CAP: usize = 512;

/// Six structurally distinct process pairs covering output, input, sum,
/// parallel, restriction and matching (shared with the metrics oracle).
fn variants() -> Vec<(P, P)> {
    let [a, b, c, x] = names(["a", "b", "c", "x"]);
    vec![
        (out(a, [b], nil()), out(a, [c], nil())),
        (
            sum(inp(a, [x], out_(x, [])), tau(out_(b, []))),
            tau(out_(b, [])),
        ),
        (
            par(out_(a, [b]), inp(a, [x], out_(x, []))),
            out(a, [b], out_(b, [])),
        ),
        (new(x, out(a, [x], out_(x, []))), out_(a, [])),
        (
            mat(a, b, out_(a, []), out_(b, [])),
            mat(a, c, out_(a, []), out_(c, [])),
        ),
        (tau(tau(out_(a, []))), tau(out_(a, []))),
    ]
}

/// A chain of `n` output prefixes: an `n + 1`-state deterministic graph.
fn chain(n: usize, a: Name, b: Name) -> P {
    (0..n).fold(nil(), |p, _| out(a, [b], p))
}

/// Runs `f` and returns the deterministic-counter delta it produced.
fn det_delta(f: impl FnOnce()) -> CounterDelta {
    let before = bpi_obs::snapshot();
    f();
    bpi_obs::snapshot().deterministic_delta(&before)
}

/// Runs the checkpointed pipeline under `cfg`, resuming once through the
/// serialised checkpoint if interrupted, and returns the final relation
/// plus whether an interruption happened. The codec round-trip is
/// deliberate: it proves the resume would also work in a fresh process.
fn run_and_resume(
    c: &Checker,
    v: Variant,
    p: &P,
    q: &P,
    cfg: &CheckpointCfg<Checkpoint>,
) -> (Vec<Vec<bool>>, bool) {
    match c.run_with_checkpoint(v, p, q, cfg) {
        Ok((_, _, rel)) => (rel.rel, false),
        Err(i) => {
            assert_eq!(i.error, EngineError::Cancelled, "fuel stops are Cancelled");
            let ck = Checkpoint::from_text(&i.checkpoint.to_text())
                .unwrap_or_else(|e| panic!("checkpoint codec round-trip failed: {e}"));
            let (_, _, rel) = c
                .resume_from(v, ck, &CheckpointCfg::default())
                .unwrap_or_else(|i| panic!("unlimited resume interrupted: {}", i.error));
            (rel.rel, true)
        }
    }
}

/// The tentpole differential, exhaustively on small structured pairs:
/// interrupting at **every** feasible pipeline boundary (fuel = 1, 2, …
/// until the run completes) and resuming from the serialised checkpoint
/// yields the same relation and the same deterministic counter delta as
/// the straight run, for all six variants.
#[test]
fn interrupt_at_every_boundary_and_resume_matches_straight_run() {
    let _g = lock();
    let d = Defs::new();
    for (p, q) in variants() {
        for v in ALL {
            let c = Checker::new(&d);
            let mut reference = None;
            let ref_delta = det_delta(|| {
                let (_, _, rel) = c
                    .run_with_checkpoint(v, &p, &q, &CheckpointCfg::default())
                    .unwrap_or_else(|i| panic!("inert cfg interrupted: {}", i.error));
                reference = Some(rel.rel);
            });
            let reference = reference.unwrap();
            assert_eq!(ref_delta.get("equiv.refine.runs"), Some(&1));
            let mut completed = false;
            for fuel in 1..FUEL_CAP {
                let mut outcome = None;
                let delta = det_delta(|| {
                    outcome = Some(run_and_resume(&c, v, &p, &q, &CheckpointCfg::fuelled(fuel)));
                });
                let (got, interrupted) = outcome.unwrap();
                assert_eq!(
                    got, reference,
                    "fuel={fuel} {v:?} changed the fixpoint on {p} vs {q}"
                );
                assert_eq!(
                    delta, ref_delta,
                    "fuel={fuel} {v:?} perturbed deterministic counters on {p} vs {q}"
                );
                if !interrupted {
                    completed = true;
                    break;
                }
            }
            assert!(
                completed,
                "{v:?} on {p} vs {q} never completed within {FUEL_CAP} fuel"
            );
        }
    }
}

/// The acceptance-scale differential: 200 seeded random pairs × all six
/// variants, each interrupted once at a varying boundary and resumed
/// through the text codec. Verdict and deterministic counters must
/// match the straight run in every case.
#[test]
fn random_pairs_resume_differential_200x6() {
    let _g = lock();
    let d = Defs::new();
    let cfg = GenCfg::finite_monadic(names(["a", "b"]).to_vec());
    let mut gen = Gen::new(cfg, 0x5EED_C0DE);
    for i in 0..200usize {
        let (p, q) = gen.related_pair();
        for (vi, v) in ALL.into_iter().enumerate() {
            let c = Checker::new(&d);
            let mut reference = None;
            let ref_delta = det_delta(|| {
                let (_, _, rel) = c
                    .run_with_checkpoint(v, &p, &q, &CheckpointCfg::default())
                    .unwrap_or_else(|e| panic!("inert cfg interrupted: {}", e.error));
                reference = Some(rel.rel);
            });
            let reference = reference.unwrap();
            // Vary the interruption point across cases so the suite as a
            // whole lands on build-left, build-right and refine
            // boundaries.
            let fuel = 1 + (i + vi) % 9;
            let mut got = None;
            let delta = det_delta(|| {
                got = Some(run_and_resume(&c, v, &p, &q, &CheckpointCfg::fuelled(fuel)).0);
            });
            assert_eq!(
                got.as_ref(),
                Some(&reference),
                "pair #{i} {v:?} fuel={fuel}: resumed fixpoint diverged on {p} vs {q}"
            );
            assert_eq!(
                delta, ref_delta,
                "pair #{i} {v:?} fuel={fuel}: deterministic counters diverged on {p} vs {q}"
            );
        }
    }
}

/// The resume differential holds for systems wrapped in PR 1's fault
/// combinators too: a noisy listener in parallel, and deafened inputs.
#[test]
fn resume_differential_under_fault_combinators() {
    let _g = lock();
    let d = Defs::new();
    let [a] = names(["a"]);
    let mut faulty: Vec<(P, P)> = Vec::new();
    for (p, q) in variants() {
        faulty.push((par(p.clone(), noise(a, 1)), par(q.clone(), noise(a, 1))));
        faulty.push((deafen(&p, a), deafen(&q, a)));
    }
    for (fi, (p, q)) in faulty.iter().enumerate() {
        for (vi, v) in ALL.into_iter().enumerate() {
            let c = Checker::new(&d);
            let mut reference = None;
            let ref_delta = det_delta(|| {
                let (_, _, rel) = c
                    .run_with_checkpoint(v, p, q, &CheckpointCfg::default())
                    .unwrap_or_else(|e| panic!("inert cfg interrupted: {}", e.error));
                reference = Some(rel.rel);
            });
            let reference = reference.unwrap();
            let fuel = 1 + (fi + vi) % 7;
            let mut got = None;
            let delta = det_delta(|| {
                got = Some(run_and_resume(&c, v, p, q, &CheckpointCfg::fuelled(fuel)).0);
            });
            assert_eq!(
                got.as_ref(),
                Some(&reference),
                "faulty pair #{fi} {v:?}: resumed fixpoint diverged on {p} vs {q}"
            );
            assert_eq!(
                delta, ref_delta,
                "faulty pair #{fi} {v:?}: deterministic counters diverged on {p} vs {q}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite 3 as a property: for seeded random pairs (optionally
    /// fault-instrumented with PR 1's combinators), interrupting at
    /// *every* feasible state/round boundary and resuming is invisible —
    /// same fixpoint, same deterministic counter deltas.
    #[test]
    fn prop_interrupt_anywhere_resume_is_invisible(seed in 0u64..1_000_000) {
        let _g = lock();
        let d = Defs::new();
        let [a, b] = names(["a", "b"]);
        let cfg = GenCfg::finite_monadic(vec![a, b]);
        let (mut p, mut q) = Gen::new(cfg, seed).related_pair();
        // A third of the cases run fault-instrumented systems.
        match seed % 3 {
            1 => {
                p = par(p, noise(a, 1));
                q = par(q, noise(a, 1));
            }
            2 => {
                p = deafen(&p, a);
                q = deafen(&q, a);
            }
            _ => {}
        }
        let v = ALL[(seed % 6) as usize];
        let c = Checker::new(&d);
        let mut reference = None;
        let ref_delta = det_delta(|| {
            let (_, _, rel) = c
                .run_with_checkpoint(v, &p, &q, &CheckpointCfg::default())
                .unwrap_or_else(|e| panic!("inert cfg interrupted: {}", e.error));
            reference = Some(rel.rel);
        });
        let reference = reference.unwrap();
        let mut completed = false;
        for fuel in 1..FUEL_CAP {
            let mut outcome = None;
            let delta = det_delta(|| {
                outcome = Some(run_and_resume(&c, v, &p, &q, &CheckpointCfg::fuelled(fuel)));
            });
            let (got, interrupted) = outcome.unwrap();
            prop_assert_eq!(
                &got, &reference,
                "seed={} fuel={} {:?}: fixpoint diverged",
                seed, fuel, v
            );
            prop_assert_eq!(
                &delta, &ref_delta,
                "seed={} fuel={} {:?}: deterministic counters diverged",
                seed, fuel, v
            );
            if !interrupted {
                completed = true;
                break;
            }
        }
        prop_assert!(completed, "seed={} never completed within {} fuel", seed, FUEL_CAP);
    }
}

/// Supervised checks recover from budget pressure on the partition
/// engine: `chain(45)` against itself refines there (strong labelled,
/// so refinement peels the chain one block per round and runs long
/// enough to be hit by injected pressure). The supervisor
/// resumes from the partition snapshot each pressure stop leaves and
/// still answers `Holds`.
#[test]
fn supervised_check_resumes_from_partition_snapshots_under_pressure() {
    let _g = lock();
    let d = Defs::new();
    let [a, b] = names(["a", "b"]);
    let p = chain(45, a, b);
    chaos::clear();
    chaos::install(
        ChaosPlan::new(11)
            .delay_prob(0.0)
            .pressure_prob(0.1)
            .max_injections(20),
    );
    let verdict = Checker::new(&d).check_supervised(Variant::StrongLabelled, &p, &p, 24);
    let log = chaos::clear();
    assert!(
        log.events
            .iter()
            .any(|e| e.site() == "equiv.partition.pressure"),
        "pressure never stopped the partition engine: {log:?}"
    );
    assert!(
        verdict.holds(),
        "a reflexive pair must still hold under injected pressure: {verdict:?}"
    );
}

/// On partition-safe products above the pairwise cutover the checkpointed
/// pipeline refines on the partition engine (its deterministic counters
/// move, and a refine-phase park carries a partition snapshot).
/// Interrupting at every fuel boundary and resuming from the serialised
/// umbrella checkpoint gives the uninterrupted relation — the one
/// `Checker::check`'s dispatch computes — and the same deterministic
/// counter deltas, for all six variants.
#[test]
fn partition_pipeline_interrupts_anywhere_and_resumes_invisibly() {
    let _g = lock();
    let d = Defs::new();
    let [a, b] = names(["a", "b"]);
    let ladder = |n: usize| (0..n).fold(out_(a, [b]), |p, _| tau(p));
    let pairs = [
        (chain(40, a, b), chain(41, a, b)),
        (ladder(40), ladder(41)),
        (chain(36, a, b), chain(36, b, a)),
    ];
    for (p, q) in &pairs {
        let opts = Opts::default();
        let pool = shared_pool(p, q, opts.fresh_inputs);
        let g1 = Graph::build(p, &d, &pool, opts).expect("finite");
        let g2 = Graph::build(q, &d, &pool, opts).expect("finite");
        assert!(partition_safe(&g1, &g2) && g1.len() * g2.len() > 1024);
        for v in ALL {
            let c = Checker::new(&d);
            let mut reference = None;
            let ref_delta = det_delta(|| {
                let (_, _, rel) = c
                    .run_with_checkpoint(v, p, q, &CheckpointCfg::default())
                    .unwrap_or_else(|i| panic!("inert cfg interrupted: {}", i.error));
                reference = Some(rel.rel);
            });
            let reference = reference.unwrap();
            assert_eq!(
                reference,
                refine_auto(v, &g1, &g2, 1).rel,
                "{v:?} on {p} vs {q}"
            );
            assert!(
                ref_delta
                    .get("equiv.partition.rounds")
                    .is_some_and(|&r| r > 0),
                "{v:?} on {p} vs {q} did not refine on the partition engine"
            );
            let mut parked_in_refine = false;
            let mut completed = false;
            for fuel in 1..FUEL_CAP {
                let mut outcome = None;
                let delta = det_delta(|| {
                    outcome = Some(
                        match c.run_with_checkpoint(v, p, q, &CheckpointCfg::fuelled(fuel)) {
                            Ok((_, _, rel)) => (rel.rel, false),
                            Err(i) => {
                                if let Checkpoint::Refine { refine, .. } = &i.checkpoint {
                                    assert!(
                                        matches!(refine, RefineSnapshot::Partition(_)),
                                        "{v:?}: refine-phase park is not a partition snapshot"
                                    );
                                    parked_in_refine = true;
                                }
                                let ck = Checkpoint::from_text(&i.checkpoint.to_text())
                                    .expect("own checkpoint parses");
                                let (_, _, rel) = c
                                    .resume_from(v, ck, &CheckpointCfg::default())
                                    .unwrap_or_else(|i| {
                                        panic!("unlimited resume interrupted: {}", i.error)
                                    });
                                (rel.rel, true)
                            }
                        },
                    );
                });
                let (got, interrupted) = outcome.unwrap();
                assert_eq!(
                    got, reference,
                    "fuel={fuel} {v:?} changed the fixpoint on {p} vs {q}"
                );
                assert_eq!(
                    delta, ref_delta,
                    "fuel={fuel} {v:?} perturbed deterministic counters on {p} vs {q}"
                );
                if !interrupted {
                    completed = true;
                    break;
                }
            }
            assert!(
                completed,
                "{v:?} on {p} vs {q} never completed within {FUEL_CAP} fuel"
            );
            assert!(
                parked_in_refine,
                "{v:?} on {p} vs {q} never parked in the refine phase"
            );
        }
    }
}

/// A supervised `Fails` verdict carries distinguishing evidence pulled
/// from the fixpoint already in hand (no re-run).
#[test]
fn supervised_fails_verdict_carries_an_experiment() {
    let _g = lock();
    chaos::clear();
    let d = Defs::new();
    let [a, b] = names(["a", "b"]);
    let c = Checker::new(&d);
    let verdict = c.check_supervised(Variant::StrongLabelled, &out_(a, [b]), &out_(a, [a]), 1);
    match verdict {
        bpi_equiv::SupervisedVerdict::Fails(why) => {
            assert!(why.contains('⟨'), "no experiment in the verdict: {why}")
        }
        other => panic!("distinct outputs must fail: {other:?}"),
    }
}

/// Chaos invisibility: a workload that exercises graph builds, the
/// round engine, the checkpointed pipeline and supervised checks
/// produces identical verdicts and identical deterministic counter
/// deltas with a seeded chaos plan (delays, and pressure wherever a
/// supervisor arms it) installed as it does on a quiet run.
#[test]
fn chaos_run_matches_quiet_run_bit_for_bit() {
    let _g = lock();
    let d = Defs::new();
    let [a, b] = names(["a", "b"]);
    let big = chain(45, a, b);
    let opts = Opts::default();
    let pool = shared_pool(&big, &big, opts.fresh_inputs);
    let workload = || {
        let mut verdicts: Vec<Vec<Vec<bool>>> = Vec::new();
        // Builds (step-memo and interning delay sites) and the round
        // engine on the big product.
        let g1 = Graph::build(&big, &d, &pool, opts).expect("finite");
        let g2 = Graph::build(&big, &d, &pool, opts).expect("finite");
        let rounds = refine_budgeted(
            Variant::StrongBarbed,
            &g1,
            &g2,
            &Budget::unlimited(),
            &CheckpointCfg::default(),
        )
        .expect("unarmed pressure never fires");
        verdicts.push(rounds.rel);
        // The checkpointed pipeline on the structured pairs, plain and
        // supervised (pressure sites armed). More attempts than the
        // plan's injection cap, so pressure can never exhaust them.
        let c = Checker::new(&d);
        for (p, q) in variants() {
            for v in [Variant::StrongLabelled, Variant::WeakLabelled] {
                let (_, _, rel) = c
                    .run_with_checkpoint(v, &p, &q, &CheckpointCfg::default())
                    .unwrap_or_else(|e| panic!("inert cfg interrupted: {}", e.error));
                verdicts.push(rel.rel);
                let supervised = c.check_supervised(v, &p, &q, 32);
                verdicts.push(vec![vec![supervised.holds()]]);
            }
        }
        verdicts
    };

    chaos::clear();
    let mut quiet = None;
    let quiet_delta = det_delta(|| quiet = Some(workload()));
    chaos::install(ChaosPlan::new(2026).max_injections(16));
    let mut noisy = None;
    let noisy_delta = det_delta(|| noisy = Some(workload()));
    let log = chaos::clear();
    assert!(log.pressures() >= 1, "pressure never fired: {log:?}");
    assert!(
        log.events.len() > log.pressures(),
        "no delay fired: {log:?}"
    );
    assert_eq!(noisy, quiet, "chaos changed a verdict");
    assert_eq!(
        noisy_delta, quiet_delta,
        "chaos perturbed deterministic counters"
    );
}

/// Chaos replay: on a supervised workload, the same seed fires the
/// same injections at the same per-site ordinals — the log is
/// bit-identical across runs — and the supervised verdict still matches
/// the quiet one despite injected budget pressure.
#[test]
fn chaos_log_replays_deterministically_for_the_same_seed() {
    let _g = lock();
    let d = Defs::new();
    let [a, b, x] = names(["a", "b", "x"]);
    let p = par(out_(a, [b]), inp(a, [x], out_(x, [])));
    let q = out(a, [b], out_(b, []));
    chaos::clear();
    let quiet = Checker::new(&d)
        .check_supervised(Variant::WeakLabelled, &p, &q, 8)
        .holds();
    let run = |seed: u64| {
        chaos::install(
            ChaosPlan::new(seed)
                .delay_prob(0.0)
                .pressure_prob(0.6)
                .max_injections(4),
        );
        let verdict = Checker::new(&d).check_supervised(Variant::WeakLabelled, &p, &q, 8);
        let log = chaos::clear();
        assert_eq!(
            verdict.holds(),
            quiet,
            "injected pressure changed the supervised verdict"
        );
        log
    };
    let first = run(0xC4A05);
    let second = run(0xC4A05);
    assert_eq!(
        first.events, second.events,
        "same seed, same workload, different injection log"
    );
    assert!(
        !first.events.is_empty(),
        "pressure at 60% over a supervised pipeline should fire at least once"
    );
}
