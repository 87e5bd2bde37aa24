//! The three ways the benchmark drives a check through the library:
//!
//! * [`check_plain`] — `parse_process` then `Checker::check`, exactly as
//!   a library user calls it (the timed runs);
//! * [`check_traced`] — the same path split at its layer boundaries
//!   (parse, graph build, τ-saturation, refinement), each call inside a
//!   span;
//! * [`check_sliced`] — the daemon's engine: `Checker::run_slice` at the
//!   daemon's default fuel and state budget, one span per slice.

// `run_slice` returns its checkpoint inside the error by value (see
// bpi-equiv); clippy's error-size heuristic flags the closure that
// forwards it.
#![allow(clippy::result_large_err)]

use crate::gen::Pair;
use crate::trace::Recorder;
use bpi_core::{parse_process, syntax::Defs, P};
use bpi_equiv::{
    partition_safe, refine_auto, shared_pool, Checker, Graph, Opts, SliceOutcome, Variant,
};
use bpi_semantics::Budget;
use bpi_server::SchedCfg;

/// A check that ended without a verdict: a parse error, an inconclusive
/// engine stop or a typed error.
pub type Failure = String;

fn parse_pair(pair: &Pair) -> Result<(P, P), Failure> {
    let l = parse_process(&pair.left).map_err(|e| e.to_string())?;
    let r = parse_process(&pair.right).map_err(|e| e.to_string())?;
    Ok((l, r))
}

pub fn check_plain(defs: &Defs, pair: &Pair) -> Result<bool, Failure> {
    let (l, r) = parse_pair(pair)?;
    match Checker::new(defs).check(pair.shape.variant, &l, &r) {
        bpi_equiv::Verdict::Inconclusive(e) => Err(e.to_string()),
        v => Ok(v.holds()),
    }
}

/// Work the traced path counts itself (the rest comes from the
/// `bpi_obs` registry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TracedWork {
    pub closure_entries: u64,
    pub partition_safe: u64,
    pub slices: u64,
}

/// Forces the τ- or step-closure of every state that `v`'s refinement
/// reads, returning the number of closure entries; strong variants
/// saturate nothing.
fn saturate(v: Variant, g: &Graph) -> u64 {
    let closure = |i| match v {
        Variant::WeakStep => g.step_closure(i).len() as u64,
        Variant::WeakBarbed | Variant::WeakLabelled => g.tau_closure(i).len() as u64,
        _ => 0,
    };
    if !v.is_weak() {
        return 0;
    }
    (0..g.len()).map(closure).sum()
}

/// [`check_plain`] with a span around each layer call. Builds go through
/// the same graph memo and refinement through the same engine dispatch
/// as `Checker::check`; saturation is forced before refinement so that
/// its time is not hidden inside the refiner.
pub fn check_traced(
    rec: &mut Recorder,
    defs: &Defs,
    pair: &Pair,
    job: u64,
    work: &mut TracedWork,
) -> Result<bool, Failure> {
    let v = pair.shape.variant;
    let root = rec.open("check", None, job);
    let (l, r) = rec.time("core.parse", Some(root), job, || parse_pair(pair))?;
    let opts = Opts::default();
    let budget = Budget::unlimited();
    let built = rec.time("equiv.graph.build", Some(root), job, || {
        let pool = shared_pool(&l, &r, opts.fresh_inputs);
        let g1 = Graph::build_cached(&l, defs, &pool, opts, &budget)?;
        let g2 = Graph::build_cached(&r, defs, &pool, opts, &budget)?;
        Ok::<_, bpi_semantics::EngineError>((g1, g2))
    });
    let (g1, g2) = built.map_err(|e| e.to_string())?;
    work.closure_entries += rec.time("equiv.saturate", Some(root), job, || {
        saturate(v, &g1) + saturate(v, &g2)
    });
    let rel = rec.time("equiv.refine", Some(root), job, || {
        work.partition_safe += u64::from(partition_safe(&g1, &g2));
        refine_auto(v, &g1, &g2, 1)
    });
    rec.close(root);
    Ok(rel.holds(0, 0))
}

/// Replays a check the way a `bpi-server` worker runs it: fuel-bounded
/// `run_slice` calls, resuming from each parked checkpoint, under the
/// daemon's default state budget, one span per slice.
pub fn check_sliced(
    rec: &mut Recorder,
    defs: &Defs,
    pair: &Pair,
    job: u64,
    work: &mut TracedWork,
) -> Result<bool, Failure> {
    let cfg = SchedCfg::default();
    let root = rec.open("job", None, job);
    let (l, r) = rec.time("core.parse", Some(root), job, || parse_pair(pair))?;
    let checker = Checker::new(defs)
        .with_budget(Budget::states(cfg.default_max_states))
        .with_threads(1);
    let mut from = None;
    let verdict = loop {
        let out = rec.time("equiv.checkpoint.slice", Some(root), job, || {
            checker.run_slice(pair.shape.variant, &l, &r, from.take(), cfg.fuel)
        });
        work.slices += 1;
        match out {
            Ok(SliceOutcome::Done { holds, .. }) => break Ok(holds),
            Ok(SliceOutcome::Parked(ck)) => from = Some(*ck),
            Err(i) => break Err(i.error.to_string()),
        }
    };
    rec.close(root);
    verdict
}
