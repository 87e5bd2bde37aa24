//! The congruences of Section 4.
//!
//! Strong labelled bisimilarity `~` is *not* preserved by choice,
//! substitution or prefixing (Remark 3), so the paper defines:
//!
//! * `~₊` (Definition 11) — one transfer step each way, with residuals in
//!   `~`;
//! * `~c` — `p ~c q` iff `pσ ~₊ qσ` for **all** substitutions σ.
//!
//! Theorem 2 shows `~c` is a congruence, and Theorem 3 that it coincides
//! with barbed congruence. The ∀σ quantification is decided finitely:
//! every substitution factors as an identification of free names followed
//! by an injective renaming (Lemma 17.1), and injective renamings
//! preserve `~₊` (Lemma 18) — so checking the collapsing substitutions of
//! all partitions of `fn(p, q)` suffices
//! ([`crate::graph::identification_substs`]).
//!
//! The weak counterparts (Definitions 14–15, Theorems 4–5) are also
//! provided; the paper defers their axiomatisation to future work, and so
//! do we.

use crate::bisim::{refine_auto, Checker, RelView, Variant};
use crate::graph::{identification_substs, shared_pool, Graph, Opts};
use bpi_core::syntax::{Defs, P};
use bpi_semantics::budget::{Budget, EngineError};

/// One strict transfer step: every move of `(ga, i)` — including inputs —
/// is matched by a move of `(gb, j)` carrying the **same label**, with
/// residuals in `rel`.
///
/// This is where `~₊` differs from plain `~`: in `~` an input may be
/// matched by a discard (the `a(b)?` convention), which is exactly what
/// makes `~` fail to be preserved by `+` (Remark 3 — `a ~ b` for input
/// prefixes, yet `a + c̄ ≁ b + c̄`). Requiring a *real* same-label match
/// for the first step restores closure under choice; discards then agree
/// automatically by the receive-xor-discard dichotomy and symmetry.
fn strict_dir(ga: &Graph, i: usize, gb: &Graph, j: usize, rel: RelView<'_>) -> bool {
    use bpi_core::action::Action;
    for (lid, i2) in ga.edge_ids(i) {
        let act = ga.label(lid);
        let matched = match act {
            Action::Tau => gb.tau_succs(j).any(|j2| rel.holds(i2, j2)),
            _ => match gb.csr().label_id(act) {
                Some(bl) => gb.edge_ids(j).any(|(l, j2)| l == bl && rel.holds(i2, j2)),
                None => false,
            },
        };
        if !matched {
            return false;
        }
    }
    true
}

/// `p ~₊ q` (Definition 11): every strong move of `p` is matched by a
/// same-label strong move of `q` with residuals strongly bisimilar, and
/// vice versa. `Err` when the graphs exceed `opts.max_states`.
pub fn try_sim_plus(p: &P, q: &P, defs: &Defs, opts: Opts) -> Result<bool, EngineError> {
    let c = Checker::with_opts(defs, opts);
    let (g1, g2, rel) = c.try_fixpoint(Variant::StrongLabelled, p, q)?;
    Ok(strict_dir(&g1, 0, &g2, 0, RelView::new(&rel.rel, false))
        && strict_dir(&g2, 0, &g1, 0, RelView::new(&rel.rel, true)))
}

/// Bool convenience for [`try_sim_plus`]; resource exhaustion degrades to
/// `false` (the relation could not be certified).
pub fn sim_plus(p: &P, q: &P, defs: &Defs, opts: Opts) -> bool {
    try_sim_plus(p, q, defs, opts).unwrap_or(false)
}

/// Evaluates `check` on every identification-substitution instance of
/// `(p, q)` in generation order; the first non-`Ok(true)` outcome wins.
fn sweep_substs<F>(p: &P, q: &P, check: F) -> Result<bool, EngineError>
where
    F: Fn(&P, &P) -> Result<bool, EngineError>,
{
    let fns = p.free_names().union(&q.free_names());
    for s in identification_substs(&fns) {
        if !check(&s.apply_process(p), &s.apply_process(q))? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// `p ~c q`: `pσ ~₊ qσ` for all substitutions, decided over the
/// identification substitutions of `fn(p, q)`. `Err` when any instance
/// exhausts the state budget.
pub fn try_congruent_strong(p: &P, q: &P, defs: &Defs, opts: Opts) -> Result<bool, EngineError> {
    sweep_substs(p, q, |ps, qs| try_sim_plus(ps, qs, defs, opts))
}

/// Bool convenience for [`try_congruent_strong`]; exhaustion → `false`.
pub fn congruent_strong(p: &P, q: &P, defs: &Defs, opts: Opts) -> bool {
    try_congruent_strong(p, q, defs, opts).unwrap_or(false)
}

/// One direction of the weak `≈₊` transfer (Definition 15): strong moves
/// of `(ga, i)` matched weakly by `(gb, j)` into `rel`, with
///
/// * a `τ` move matched by **at least one** `τ` (as for observational
///   congruence — required for closure under `+`),
/// * outputs and inputs matched by weak *same-label* transitions
///   (`⇒ —α→ ⇒`), and
/// * a discard of `a` matched by a weak discard of `a` (condition 4).
fn weak_plus_dir(ga: &Graph, i: usize, gb: &Graph, j: usize, rel: RelView<'_>) -> bool {
    use bpi_core::action::Action;
    for (lid, i2) in ga.edge_ids(i) {
        let act = ga.label(lid);
        let matched = match act {
            Action::Tau => {
                // q =τ⇒ q' with at least one step.
                ga_tau_plus(gb, j).iter().any(|&j2| rel.holds(i2, j2))
            }
            Action::Output { .. } | Action::Input { .. } => {
                gb.weak_label(j, act).iter().any(|&j2| rel.holds(i2, j2))
            }
            Action::Discard { .. } => true,
        };
        if !matched {
            return false;
        }
    }
    // Condition 4: p —a:→ requires q ⇒ —a:→ ⇒ with a related residual.
    for a in &ga.discarding[i] {
        if !gb.weak_discard(j, a).iter().any(|&j2| rel.holds(i, j2)) {
            return false;
        }
    }
    true
}

/// States reachable by **one or more** τ steps from `j`.
fn ga_tau_plus(g: &Graph, j: usize) -> std::collections::BTreeSet<usize> {
    let mut out = std::collections::BTreeSet::new();
    for j1 in g.tau_succs(j) {
        out.extend(g.tau_closure(j1).iter().copied());
    }
    out
}

/// `p ≈₊ q` (Definition 15): one weak transfer step each way into `≈`.
/// `Err` when the graphs exceed `opts.max_states`.
pub fn try_weak_sim_plus(p: &P, q: &P, defs: &Defs, opts: Opts) -> Result<bool, EngineError> {
    let pool = shared_pool(p, q, opts.fresh_inputs);
    let budget = Budget::unlimited();
    let g1 = Graph::build_cached(p, defs, &pool, opts, &budget)?;
    let g2 = Graph::build_cached(q, defs, &pool, opts, &budget)?;
    let rel = refine_auto(Variant::WeakLabelled, &g1, &g2, 1);
    Ok(weak_plus_dir(&g1, 0, &g2, 0, RelView::new(&rel.rel, false))
        && weak_plus_dir(&g2, 0, &g1, 0, RelView::new(&rel.rel, true)))
}

/// Bool convenience for [`try_weak_sim_plus`]; exhaustion → `false`.
pub fn weak_sim_plus(p: &P, q: &P, defs: &Defs, opts: Opts) -> bool {
    try_weak_sim_plus(p, q, defs, opts).unwrap_or(false)
}

/// `p ≈c q`: `pσ ≈₊ qσ` for all identification substitutions. `Err` when
/// any instance exhausts the state budget.
pub fn try_congruent_weak(p: &P, q: &P, defs: &Defs, opts: Opts) -> Result<bool, EngineError> {
    sweep_substs(p, q, |ps, qs| try_weak_sim_plus(ps, qs, defs, opts))
}

/// Bool convenience for [`try_congruent_weak`]; exhaustion → `false`.
pub fn congruent_weak(p: &P, q: &P, defs: &Defs, opts: Opts) -> bool {
    try_congruent_weak(p, q, defs, opts).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisim::strong_bisimilar;
    use bpi_core::builder::*;
    use bpi_core::subst::Subst;

    fn d() -> Defs {
        Defs::new()
    }

    fn o() -> Opts {
        Opts::default()
    }

    #[test]
    fn remark3_choice_breaks_plain_bisim() {
        // ā ~ b̄... is false (labels differ); the paper's Remark 3 writes
        // a ~ b for *input* prefixes: a.nil ~ b.nil holds because inputs
        // are matched by discards, yet a + c̄ ≁ b + c̄.
        let defs = d();
        let [a, b, c, x] = names(["a", "b", "c", "x"]);
        let pa = inp_(a, [x]);
        let pb = inp_(b, [x]);
        assert!(
            strong_bisimilar(&pa, &pb, &defs),
            "a ~ b (inputs invisible)"
        );
        let pac = sum(pa.clone(), out_(c, []));
        let pbc = sum(pb.clone(), out_(c, []));
        assert!(
            !strong_bisimilar(&pac, &pbc, &defs),
            "a + c̄ ≁ b + c̄ (Remark 3)"
        );
        // And ~₊ already repairs this one-step defect:
        assert!(!sim_plus(&pa, &pb, &defs, o()), "a ≁₊ b");
    }

    #[test]
    fn remark3_substitution_breaks_plain_bisim() {
        // Witness in the spirit of Remark 3: with x, y distinct free
        // names, p = (x=y)c̄ behaves as nil — so p ~ nil — but
        // identifying x and y awakens the match: p[x/y] = (x=x)c̄ ≁ nil.
        let defs = d();
        let [x, y, c] = names(["x", "y", "c"]);
        let p = mat_(x, y, out_(c, []));
        let q = nil();
        assert!(strong_bisimilar(&p, &q, &defs), "(x=y)c̄ ~ nil while x ≠ y");
        let s = Subst::single(y, x);
        let ps = s.apply_process(&p);
        let qs = s.apply_process(&q);
        assert!(!strong_bisimilar(&ps, &qs, &defs), "p[x/y] ≁ q[x/y]");
        // Hence ~c (which quantifies over substitutions) separates them.
        assert!(!congruent_strong(&p, &q, &defs, o()));
        // And ~ is therefore not preserved by (input) prefixing either:
        // a(y).p receives x and becomes p[x/y].
        let a = bpi_core::Name::new("a");
        let pp = inp(a, [y], p);
        let qq = inp(a, [y], q);
        assert!(!strong_bisimilar(&pp, &qq, &defs), "prefix closure fails");
    }

    #[test]
    fn remark4_inclusions_are_strict() {
        let defs = d();
        // ~c ⊊ ~₊ : the match witness is ~₊ (no first move on either
        // side) but not ~c.
        let [x, y, c] = names(["x", "y", "c"]);
        let p = mat_(x, y, out_(c, []));
        let q = nil();
        assert!(sim_plus(&p, &q, &defs, o()), "p ~₊ q");
        assert!(!congruent_strong(&p, &q, &defs, o()), "p ≁c q");
        // ~₊ ⊊ ~ : a ~ b (inputs are invisible to ~) but a ≁₊ b (the
        // first input must be matched by a real input in ~₊).
        let [a, b, xx] = names(["a", "b", "xq"]);
        let pa = inp_(a, [xx]);
        let pb = inp_(b, [xx]);
        assert!(strong_bisimilar(&pa, &pb, &defs));
        assert!(!sim_plus(&pa, &pb, &defs, o()));
    }

    #[test]
    fn congruence_closed_under_operators_samples() {
        // Spot-check Lemma 13 on a pair that IS ~c: p ‖ nil ~c p.
        let defs = d();
        let [a, b, x] = names(["a", "b", "x"]);
        let p = sum(out(a, [b], nil()), inp_(a, [x]));
        let pn = par(p.clone(), nil());
        assert!(congruent_strong(&p, &pn, &defs, o()));
        // Closure under prefix, sum, restriction, parallel:
        let contexts: Vec<(P, P)> = vec![
            (tau(p.clone()), tau(pn.clone())),
            (sum(p.clone(), out_(b, [])), sum(pn.clone(), out_(b, []))),
            (new(b, p.clone()), new(b, pn.clone())),
            (par(p.clone(), out_(b, [])), par(pn.clone(), out_(b, []))),
            (inp(b, [x], p.clone()), inp(b, [x], pn.clone())),
        ];
        for (cp, cq) in contexts {
            assert!(
                congruent_strong(&cp, &cq, &defs, o()),
                "congruence broken for {cp} vs {cq}"
            );
        }
    }

    #[test]
    fn weak_congruence_distinguishes_initial_tau() {
        // τ.ā ≈ ā but τ.ā ≉c ā (initial τ must be matched by ≥1 τ),
        // exactly as for CCS observational congruence.
        let defs = d();
        let a = bpi_core::Name::new("a");
        let p = tau(out_(a, []));
        let q = out_(a, []);
        assert!(crate::bisim::weak_bisimilar(&p, &q, &defs));
        assert!(!weak_sim_plus(&p, &q, &defs, o()));
        // And in a + context they really differ:
        let b = bpi_core::Name::new("b");
        let pc = sum(p, out_(b, []));
        let qc = sum(q, out_(b, []));
        assert!(!crate::bisim::weak_bisimilar(&pc, &qc, &defs));
    }

    #[test]
    fn weak_congruence_accepts_internal_tau() {
        // ā.τ.b̄ ≈c ā.b̄.
        let defs = d();
        let [a, b] = names(["a", "b"]);
        let p = out(a, [], tau(out_(b, [])));
        let q = out(a, [], out_(b, []));
        assert!(congruent_weak(&p, &q, &defs, o()));
    }

    #[test]
    fn noisy_law_is_congruent() {
        // Axiom (H) semantically: ā.p ~c ā.(p + a(x).p) when x ∉ fn(p)
        // and p does not listen on a. Take p = b̄.
        let defs = d();
        let [a, b, x] = names(["a", "b", "x"]);
        let p = out_(b, []);
        let lhs = out(a, [], p.clone());
        let rhs = out(a, [], sum(p.clone(), inp(a, [x], p.clone())));
        assert!(congruent_strong(&lhs, &rhs, &defs, o()), "(H) must hold");
    }
}
