//! `canon` against a deep-copy oracle.
//!
//! `bpi_core::canon` shares every subterm that comes out unchanged. The
//! oracle below is the earlier canonicaliser, which rebuilt every node;
//! the two must agree structurally on every term, and sharing must show
//! where it is promised: a binder-free term, or an already canonical one,
//! comes back as the identical allocation.

use bpi_core::builder::*;
use bpi_core::name::{Name, NameSet};
use bpi_core::syntax::{Defs, Prefix, Process, RecDef, P};
use bpi_core::{canon, parse_process};
use bpi_equiv::arbitrary::{Gen, GenCfg};
use bpi_semantics::Lts;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

/// The deep-copy canonicaliser: every node rebuilt, `taken` computed
/// up front from the whole term's free names.
fn oracle(p: &P) -> P {
    struct Canonizer {
        env: Vec<(Name, Name)>,
        next: usize,
        taken: NameSet,
    }
    impl Canonizer {
        fn lookup(&self, n: Name) -> Name {
            self.env
                .iter()
                .rev()
                .find(|(from, _)| *from == n)
                .map(|(_, to)| *to)
                .unwrap_or(n)
        }
        fn fresh_canonical(&mut self) -> Name {
            loop {
                let c = Name::canonical(self.next);
                self.next += 1;
                if !self.taken.contains(c) {
                    return c;
                }
            }
        }
        fn with_binders<T>(
            &mut self,
            binders: &[Name],
            f: impl FnOnce(&mut Self, &[Name]) -> T,
        ) -> T {
            let depth = self.env.len();
            let fresh: Vec<Name> = binders
                .iter()
                .map(|&b| {
                    let c = self.fresh_canonical();
                    self.env.push((b, c));
                    c
                })
                .collect();
            let out = f(self, &fresh);
            self.env.truncate(depth);
            out
        }
        fn go(&mut self, p: &P) -> P {
            let names = |me: &Self, ns: &[Name]| ns.iter().map(|&n| me.lookup(n)).collect();
            match &**p {
                Process::Nil => p.clone(),
                Process::Act(Prefix::Tau, cont) => Process::Act(Prefix::Tau, self.go(cont)).rc(),
                Process::Act(Prefix::Output(a, ys), cont) => Process::Act(
                    Prefix::Output(self.lookup(*a), names(self, ys)),
                    self.go(cont),
                )
                .rc(),
                Process::Act(Prefix::Input(a, binders), cont) => {
                    let subj = self.lookup(*a);
                    self.with_binders(binders, |me, fresh| {
                        Process::Act(Prefix::Input(subj, fresh.to_vec()), me.go(cont)).rc()
                    })
                }
                Process::Sum(l, r) => Process::Sum(self.go(l), self.go(r)).rc(),
                Process::Par(l, r) => Process::Par(self.go(l), self.go(r)).rc(),
                Process::New(x, cont) => self.with_binders(std::slice::from_ref(x), |me, fresh| {
                    Process::New(fresh[0], me.go(cont)).rc()
                }),
                Process::Match(x, y, l, r) => {
                    Process::Match(self.lookup(*x), self.lookup(*y), self.go(l), self.go(r)).rc()
                }
                Process::Call(id, args) => Process::Call(*id, names(self, args)).rc(),
                Process::Var(id, args) => Process::Var(*id, names(self, args)).rc(),
                Process::Rec(def, args) => {
                    let args2 = names(self, args);
                    self.with_binders(&def.params, |me, fresh| {
                        Process::Rec(
                            RecDef {
                                ident: def.ident,
                                params: fresh.to_vec(),
                                body: me.go(&def.body),
                            },
                            args2,
                        )
                        .rc()
                    })
                }
            }
        }
    }
    let taken = NameSet::from_iter(p.free_names().iter().filter(|n| n.is_canonical()));
    Canonizer {
        env: Vec::new(),
        next: 0,
        taken,
    }
    .go(p)
}

fn binder_free(p: &P) -> bool {
    p.bound_names().is_empty()
}

/// `canon` agrees with the oracle on `p`, and shares where promised.
fn check(p: &P) -> Result<(), TestCaseError> {
    let c = canon(p);
    prop_assert_eq!(&c, &oracle(p), "canon diverged from the oracle on {}", p);
    if binder_free(p) {
        prop_assert!(Arc::ptr_eq(&c, p), "binder-free {} was copied", p);
    }
    prop_assert!(
        Arc::ptr_eq(&canon(&c), &c),
        "canon of {} is not a fixpoint",
        c
    );
    Ok(())
}

/// `p` and every one-step successor of it (successors carry the
/// substituted, partly canonical shapes that graph builds intern).
fn with_successors(p: &P) -> Vec<P> {
    let defs = Defs::new();
    let lts = Lts::new(&defs);
    let mut out = vec![p.clone()];
    out.extend(lts.step_transitions(p).into_iter().map(|(_, q)| q));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn canon_matches_the_deep_copy_oracle(seed in 0u64..1_000_000) {
        let cfg = GenCfg {
            max_arity: 2,
            ..GenCfg::finite_monadic(names(["a", "b", "c"]).to_vec())
        };
        let p = Gen::new(cfg, seed).process();
        for q in with_successors(&p) {
            check(&q)?;
        }
    }

    /// Free canonical names force `canon` to skip indices; shadowing
    /// binder spellings exercise the scoped environment.
    #[test]
    fn canon_matches_the_oracle_with_free_canonicals_and_shadowing(seed in 0u64..1_000_000) {
        let free = vec![Name::canonical(0), Name::canonical(2), Name::new("a")];
        let cfg = GenCfg {
            max_depth: 4,
            ..GenCfg::finite_monadic(free.clone())
        };
        let p = Gen::new(cfg, seed).process();
        check(&p)?;
        let [x] = names(["x"]);
        check(&new(x, par(p.clone(), inp(free[2], [x], p.clone()))))?;
        check(&new(Name::canonical(1), p))?;
    }
}

#[test]
fn canon_matches_the_oracle_on_recursive_terms() {
    for src in [
        "rec X(a){tau.a<>.tau.X<a> + tau.X<a>}<a> | b(x).x<>",
        "rec X(a){new t.a<t>.X<a>}<a> | a(u).u<>",
        "new x.a<x>.(x(y).y<> | x<a>)",
        "rec X(a,b){a(y).(y<b> | X<b,a>)}<c,d> | new c.(c<> | d(z).[z=c]{z<>}{0})",
    ] {
        let p = parse_process(src).unwrap();
        for q in with_successors(&p) {
            check(&q).unwrap();
        }
    }
}
