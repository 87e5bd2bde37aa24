//! Golden graph-checkpoint texts.
//!
//! A `bpi-server` daemon journals graph checkpoints as text and resumes
//! them after a restart, possibly on a newer build. The files under
//! `tests/golden/` hold the `GraphCheckpoint::to_text` of a few fixed
//! builds, captured once and checked in: every builder must reproduce
//! them byte for byte, and a partial checkpoint captured the same way
//! must resume to the same completed text. A change to state
//! construction (normalisation, interning, numbering) that alters any
//! state, edge or discard set fails here before it can strand a journaled
//! checkpoint.
//!
//! The cases cover a bound output with scope extrusion (the extruded
//! name is later used as an input channel), polyadic input binders,
//! a τ-cycle through `rec`, and an extrusion loop folded by
//! normalisation.

use bpi_core::parse_process;
use bpi_core::syntax::Defs;
use bpi_equiv::{shared_pool, Graph, GraphCheckpoint, Opts};
use bpi_semantics::{Budget, CheckpointCfg};

/// `(name, process, complete text, partial text)`.
const CASES: [(&str, &str, &str, &str); 4] = [
    (
        "extrusion",
        "new x.a<x>.(x(y).y<> | x<a>)",
        include_str!("golden/extrusion.complete.txt"),
        include_str!("golden/extrusion.partial.txt"),
    ),
    (
        "inputs",
        "a(x,y).(x<y> + tau.b(z).z<x>)",
        include_str!("golden/inputs.complete.txt"),
        include_str!("golden/inputs.partial.txt"),
    ),
    (
        "tau_cycle",
        "rec X(a){tau.a<>.tau.X<a> + tau.X<a>}<a> | b(x).x<>",
        include_str!("golden/tau_cycle.complete.txt"),
        include_str!("golden/tau_cycle.partial.txt"),
    ),
    (
        "extrude_loop",
        "rec X(a){new t.a<t>.X<a>}<a> | a(u).u<>",
        include_str!("golden/extrude_loop.complete.txt"),
        include_str!("golden/extrude_loop.partial.txt"),
    ),
];

/// Fuel for the partial snapshot: two states expanded, the rest pending.
const PARTIAL_FUEL: usize = 2;

fn build_inputs(src: &str) -> (bpi_core::syntax::P, Vec<bpi_core::Name>) {
    let p = parse_process(src).expect("golden case parses");
    let pool = shared_pool(&p, &p, 1);
    (p, pool)
}

#[test]
fn completed_builds_match_the_golden_texts() {
    let defs = Defs::new();
    for (name, src, complete, _) in CASES {
        let (p, pool) = build_inputs(src);
        let budget = Budget::unlimited();
        let checkpointed = Graph::build_with_checkpoint(
            &p,
            &defs,
            &pool,
            Opts::default(),
            &budget,
            &CheckpointCfg::default(),
        )
        .expect("golden build completes");
        let plain = Graph::build(&p, &defs, &pool, Opts::default()).unwrap();
        for (builder, g) in [("checkpointed", &checkpointed), ("plain", &plain)] {
            assert_eq!(
                GraphCheckpoint::of_graph(g).to_text(),
                complete,
                "{name}: {builder} build differs from its golden text"
            );
        }
    }
}

#[test]
fn golden_partial_checkpoints_resume_to_the_golden_completions() {
    let defs = Defs::new();
    for (name, src, complete, partial) in CASES {
        let (p, pool) = build_inputs(src);
        let budget = Budget::unlimited();
        let Err(interrupted) = Graph::build_with_checkpoint(
            &p,
            &defs,
            &pool,
            Opts::default(),
            &budget,
            &CheckpointCfg::fuelled(PARTIAL_FUEL),
        ) else {
            panic!("{name}: golden case has more states than the partial fuel");
        };
        assert_eq!(
            interrupted.checkpoint.to_text(),
            partial,
            "{name}: interrupted build differs from its golden snapshot"
        );
        let ck = GraphCheckpoint::from_text(partial).expect("golden snapshot decodes");
        let g = Graph::resume_from(
            ck,
            &defs,
            Opts::default(),
            &budget,
            &CheckpointCfg::default(),
        )
        .expect("golden snapshot resumes");
        assert_eq!(
            GraphCheckpoint::of_graph(&g).to_text(),
            complete,
            "{name}: resumed golden snapshot differs from the golden completion"
        );
    }
}
