//! Checkpoint-decode hardening: truncated or corrupted checkpoint
//! documents — any codec, cut or flipped anywhere — must come back as a
//! typed `Err`, never a panic, and never an absurd allocation. A served
//! daemon replays persisted checkpoints on restart, so the decode path
//! is attacker-adjacent: whatever is on disk after a crash gets parsed.

use bpi_core::builder::*;
use bpi_core::syntax::Defs;
use bpi_equiv::checkpoint::{
    Checkpoint, GraphCheckpoint, PartitionCheckpoint, RefineCheckpoint, RefineSnapshot,
};
use bpi_equiv::graph::{shared_pool, Graph, Opts};
use bpi_equiv::{refine_budgeted, Checker, SliceOutcome, Variant, Verdict};
use bpi_semantics::prob::McCheckpoint;
use bpi_semantics::{Budget, CheckpointCfg};
use bpi_semantics::{ExploreCheckpoint, FaultLog};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn sample_graph_ckpt() -> GraphCheckpoint {
    let d = Defs::new();
    let [a, b, x] = names(["a", "b", "x"]);
    let p = par(out_(a, [b]), inp(a, [x], out_(x, [])));
    let pool = shared_pool(&p, &nil(), 1);
    let g = Graph::build(&p, &d, &pool, Opts::default()).unwrap();
    GraphCheckpoint::of_graph(&g)
}

fn sample_docs() -> Vec<(&'static str, String)> {
    let left = sample_graph_ckpt();
    let refine = RefineCheckpoint {
        rel: vec![vec![true; left.states.len()]; left.states.len()],
        rounds: 2,
    };
    let umbrella = Checkpoint::Refine {
        left: left.clone(),
        right: left.clone(),
        refine: RefineSnapshot::Pairwise(refine.clone()),
    };
    let n = left.states.len();
    let umbrella_partition = Checkpoint::Refine {
        left: left.clone(),
        right: left.clone(),
        refine: RefineSnapshot::Partition(PartitionCheckpoint {
            n1: n,
            n2: n,
            blocks: (0..2 * n as u32).map(|u| u % 3).collect(),
            worklist: std::collections::VecDeque::from([1, 0, 2]),
            rounds: 4,
            splits: 2,
        }),
    };
    let partition = PartitionCheckpoint {
        n1: 3,
        n2: 2,
        blocks: vec![0, 1, 0, 2, 1],
        worklist: std::collections::VecDeque::from([4, 0]),
        rounds: 5,
        splits: 2,
    };
    let mc = McCheckpoint {
        done: 40,
        successes: 17,
    };
    vec![
        ("graph", left.to_text()),
        ("refine", refine.to_text()),
        ("partition", partition.to_text()),
        ("equiv", umbrella.to_text()),
        ("equiv-partition", umbrella_partition.to_text()),
        ("mc", mc.to_string()),
        ("faultlog", FaultLog::default().to_string()),
    ]
}

/// Decoding `s` through every codec must return (not panic); we don't
/// care which codec accepts what, only that nothing unwinds or hangs.
fn decode_all_typed(s: &str) {
    let owned = s.to_string();
    let r = catch_unwind(AssertUnwindSafe(|| {
        let _ = GraphCheckpoint::from_text(&owned);
        let _ = RefineCheckpoint::from_text(&owned);
        let _ = PartitionCheckpoint::from_text(&owned);
        let _ = Checkpoint::from_text(&owned);
        let _ = owned.parse::<McCheckpoint>();
        let _ = owned.parse::<FaultLog>();
        let _ = owned.parse::<ExploreCheckpoint>();
    }));
    assert!(r.is_ok(), "decoder panicked on {s:?}");
}

#[test]
fn every_truncation_of_every_codec_is_a_typed_error_or_valid() {
    for (name, doc) in sample_docs() {
        // Cut at every byte boundary (checkpoint files die mid-write on
        // a crash, so mid-line cuts are the common case).
        for cut in 0..doc.len() {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            decode_all_typed(&doc[..cut]);
        }
        // A strict truncation must never be accepted as the original
        // *complete* document by its own codec (the header line alone
        // can legitimately parse for list-shaped codecs like the empty
        // fault log, so compare semantics, not acceptance).
        let reparsed_ok = match name {
            "graph" => GraphCheckpoint::from_text(&doc).is_ok(),
            "refine" => RefineCheckpoint::from_text(&doc).is_ok(),
            "partition" => PartitionCheckpoint::from_text(&doc).is_ok(),
            "equiv" | "equiv-partition" => Checkpoint::from_text(&doc).is_ok(),
            "mc" => doc.parse::<McCheckpoint>().is_ok(),
            _ => doc.parse::<FaultLog>().is_ok(),
        };
        assert!(reparsed_ok, "{name}: pristine document must round-trip");
    }
}

#[test]
fn corrupted_bytes_are_typed_errors_never_panics() {
    for (_, doc) in sample_docs() {
        for (i, repl) in [(doc.len() / 3, "\u{7f}"), (doc.len() / 2, "99999999999")] {
            let i = (0..=i)
                .rev()
                .find(|&k| doc.is_char_boundary(k))
                .unwrap_or(0);
            let mut bad = String::new();
            bad.push_str(&doc[..i]);
            bad.push_str(repl);
            bad.push_str(&doc[i..]);
            decode_all_typed(&bad);
        }
        // Swapped tabs and a spliced-in junk record.
        decode_all_typed(&doc.replace('\t', " "));
        decode_all_typed(&format!("{doc}\nunknown\trecord\t1"));
    }
}

#[test]
fn partition_block_ids_are_bounded() {
    // A block id beyond the union size once made the refiner's restore
    // path allocate `max_id + 1` buckets — on a corrupt document that
    // is a multi-gigabyte allocation. It must be a typed decode error.
    let bad = "bpi-partition-checkpoint/v1\n\
               dims\t2\t1\n\
               rounds\t0\n\
               splits\t0\n\
               blocks\t0,4000000000,1\n\
               worklist\t\n";
    let err = PartitionCheckpoint::from_text(bad).unwrap_err();
    assert!(err.contains("out of range"), "got {err:?}");
}

#[test]
fn umbrella_cross_section_invariants_are_checked() {
    let complete = sample_graph_ckpt();
    let mut incomplete = complete.clone();
    incomplete.pending.push_back(0);

    // build_right with an incomplete left graph: resuming would feed
    // `Graph::from_complete_checkpoint` a pending queue — a panic
    // before hardening, a typed error now.
    let spliced = Checkpoint::BuildRight {
        left: complete.clone(),
        right: complete.clone(),
    }
    .to_text()
    .replace("pending\t", "pending\t0");
    // (Both sections got a pending entry; left completeness is checked
    // first either way.)
    let err = Checkpoint::from_text(&spliced).unwrap_err();
    assert!(err.contains("incomplete"), "got {err:?}");

    // refine whose relation dimensions disagree with the graphs: the
    // resume path's `refine_resume` asserts on this, so the codec must
    // reject it first.
    let n = complete.states.len();
    let refine_doc = Checkpoint::Refine {
        left: complete.clone(),
        right: complete.clone(),
        refine: RefineSnapshot::Pairwise(RefineCheckpoint {
            rel: vec![vec![true; n]; n],
            rounds: 0,
        }),
    }
    .to_text()
    .replace(&format!("dims\t{n}\t{n}"), &format!("dims\t{n}\t{}", n + 1));
    // The refine section's own row-width check fires — still a typed
    // error, never a panic.
    assert!(Checkpoint::from_text(&refine_doc).is_err());

    // Dimension mismatch with *consistent* refine section: build a
    // refine checkpoint over the wrong-size relation entirely.
    let small = RefineCheckpoint {
        rel: vec![vec![true; n]; 1],
        rounds: 0,
    };
    let doc = Checkpoint::Refine {
        left: complete.clone(),
        right: complete.clone(),
        refine: RefineSnapshot::Pairwise(small),
    }
    .to_text();
    let err = Checkpoint::from_text(&doc).unwrap_err();
    assert!(err.contains("over"), "got {err:?}");
}

/// A partition snapshot whose dimensions disagree with the two graphs'
/// state counts would trip `Refiner::restore`'s `assert_eq!` on resume;
/// the umbrella codec must reject it first with a typed error — and
/// never panic, on resume or decode, however the dimensions are off.
#[test]
fn partition_refine_section_dimensions_are_checked() {
    let g = sample_graph_ckpt();
    let n = g.states.len();
    for (n1, n2) in [
        (n, n + 1),
        (n + 1, n),
        (n - 1, n + 1),
        (1, 2 * n - 1),
        (0, 2 * n),
    ] {
        let doc = Checkpoint::Refine {
            left: g.clone(),
            right: g.clone(),
            refine: RefineSnapshot::Partition(PartitionCheckpoint {
                n1,
                n2,
                blocks: vec![0; n1 + n2],
                worklist: std::collections::VecDeque::new(),
                rounds: 1,
                splits: 0,
            }),
        }
        .to_text();
        let r = catch_unwind(AssertUnwindSafe(|| Checkpoint::from_text(&doc)));
        let err = r
            .unwrap_or_else(|_| panic!("decode panicked on {n1}+{n2}"))
            .expect_err("mismatched partition dimensions must not decode");
        assert!(err.contains("over"), "{n1}+{n2}: got {err:?}");
    }
    // A refine section in neither codec is a typed error too.
    let doc = Checkpoint::Refine {
        left: g.clone(),
        right: g,
        refine: RefineSnapshot::Pairwise(RefineCheckpoint {
            rel: vec![vec![true; n]; n],
            rounds: 0,
        }),
    }
    .to_text()
    .replace("bpi-refine-checkpoint/v1", "bpi-refine-checkpoint/v9");
    assert!(Checkpoint::from_text(&doc).unwrap_err().contains("neither"));
}

/// Umbrella checkpoints written before the pipeline dispatched carry
/// a `bpi-refine-checkpoint/v1` refine section — a daemon's journal may
/// hold them for in-flight jobs. They still decode, resume on the
/// pairwise engine (even on a product that would now go to the partition
/// engine) and land on the straight verdict, directly and through
/// `run_slice`.
#[test]
fn legacy_pairwise_refine_sections_still_resume() {
    let d = Defs::new();
    let [a, b] = names(["a", "b"]);
    let chain = |n: usize| (0..n).fold(nil(), |p, _| out(a, [b], p));
    let (p, q) = (chain(40), chain(41));
    let opts = Opts::default();
    let pool = shared_pool(&p, &q, opts.fresh_inputs);
    let g1 = Graph::build(&p, &d, &pool, opts).unwrap();
    let g2 = Graph::build(&q, &d, &pool, opts).unwrap();
    for v in [Variant::StrongLabelled, Variant::WeakBarbed] {
        // The pairwise engine interrupted after one round, wrapped the
        // way the pre-dispatch pipeline wrapped it.
        let fuel = CheckpointCfg::fuelled(1);
        let rck = match refine_budgeted(v, &g1, &g2, 1, &Budget::unlimited(), &fuel) {
            Err(i) => i.checkpoint,
            Ok(_) => panic!("{v:?}: one round of fuel must interrupt"),
        };
        let text = Checkpoint::Refine {
            left: GraphCheckpoint::of_graph(&g1),
            right: GraphCheckpoint::of_graph(&g2),
            refine: RefineSnapshot::Pairwise(rck),
        }
        .to_text();
        assert!(text.contains("#section refine\nbpi-refine-checkpoint/v1\n"));
        let ck = Checkpoint::from_text(&text).expect("legacy umbrella decodes");
        assert!(matches!(
            &ck,
            Checkpoint::Refine {
                refine: RefineSnapshot::Pairwise(_),
                ..
            }
        ));
        let c = Checker::new(&d);
        let straight = c.check(v, &p, &q) == Verdict::Holds;
        let (_, _, rel) = c
            .resume_from(v, ck.clone(), &CheckpointCfg::default())
            .expect("unlimited resume completes");
        assert_eq!(rel.holds(0, 0), straight, "{v:?}: legacy resume diverged");
        match c
            .run_slice(v, &p, &q, Some(ck), 1 << 20)
            .expect("no budget set")
        {
            SliceOutcome::Done { holds, .. } => assert_eq!(holds, straight, "{v:?}"),
            SliceOutcome::Parked(_) => panic!("{v:?}: a large slice must finish"),
        }
    }
}

/// The park/unpark primitive: a check chopped into fuel slices reaches
/// the same verdict as the straight run, through checkpoints that
/// survive serialisation between every slice — the invariant the
/// daemon's preemptive scheduler and crash recovery both lean on.
#[test]
fn run_slice_parks_resumes_and_agrees_with_straight_check() {
    let d = Defs::new();
    let [a, b] = names(["a", "b"]);
    let pairs = [
        (out(a, [b], tau(out_(b, []))), out(a, [b], out_(b, []))),
        (
            out(a, [b], tau(out_(b, []))),
            out(a, [b], tau(tau(out_(b, [])))),
        ),
        (out_(a, [b]), out_(b, [a])),
    ];
    for (p, q) in pairs {
        for v in [Variant::StrongLabelled, Variant::WeakLabelled] {
            let c = Checker::new(&d);
            let straight = c.check(v, &p, &q) == Verdict::Holds;
            for fuel in [1usize, 2, 3, 7] {
                let mut parked: Option<Checkpoint> = None;
                let mut slices = 0usize;
                let holds = loop {
                    slices += 1;
                    assert!(slices < 10_000, "slice loop diverged at fuel {fuel}");
                    match c
                        .run_slice(v, &p, &q, parked.take(), fuel)
                        .expect("no budget set")
                    {
                        SliceOutcome::Done { holds, .. } => break holds,
                        SliceOutcome::Parked(ck) => {
                            // Round-trip through the wire format, as the
                            // daemon's journal does between slices.
                            let text = ck.to_text();
                            parked = Some(Checkpoint::from_text(&text).expect("own output parses"));
                        }
                    }
                };
                assert_eq!(
                    holds, straight,
                    "sliced verdict diverged at fuel {fuel} for {v:?}"
                );
                if fuel == 1 {
                    assert!(slices > 1, "fuel 1 must park at least once");
                }
            }
        }
    }
}
