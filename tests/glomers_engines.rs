//! Differential replay of the Glomers ladder across the composition
//! switch.
//!
//! Every verdict in [`bpi::encodings::glomers::verdicts`] — weak
//! equivalences, the HML certificate and the exhaustive reachability
//! sweeps — must be **bit-identical** with and without the
//! compositional route (`BPI_COMPOSE=1`, which takes the
//! minimize-then-compose path on the ladder's open many-identical-node
//! comparisons and falls back monolithically elsewhere). The refinement
//! engine is not a setting: every check refines on the one dispatch,
//! whose engines the oracle suites of `bpi-equiv` pin against each
//! other. `BPI_COMPOSE` is re-read on every check precisely so a test
//! can flip it mid-process; everything lives in **one** `#[test]`
//! because the process environment is shared state — this file is its
//! own test binary, so no other suite races the variable.

use bpi::encodings::glomers;

#[test]
fn every_engine_agrees_on_every_verdict() {
    std::env::remove_var("BPI_COMPOSE");
    let baseline = glomers::verdicts();
    for (label, ok) in &baseline {
        assert!(ok, "baseline verdict failed: {label}");
    }

    std::env::set_var("BPI_COMPOSE", "1");
    let composed = glomers::verdicts();
    std::env::remove_var("BPI_COMPOSE");
    assert_eq!(
        baseline, composed,
        "verdict vector diverged under BPI_COMPOSE=1 — engines disagree"
    );
}
