//! α-canonical forms and α-equivalence (rule (1) of Table 3).
//!
//! [`canon`] renames every bound name of a term to a canonical name
//! `#0, #1, …` assigned in deterministic pre-order traversal. Two terms are
//! α-equivalent iff their canonical forms are syntactically equal, so the
//! canonical form doubles as a hash key for state-space exploration, where
//! rule (1) would otherwise make the state set infinite.

use crate::name::{Name, NameSet};
use crate::syntax::{Prefix, Process, RecDef, P};
use std::sync::Arc;

struct Canonizer<'a> {
    /// The whole input term, for computing `taken` on demand.
    root: &'a P,
    /// Scoped bindings, innermost last.
    env: Vec<(Name, Name)>,
    /// Next canonical index to try.
    next: usize,
    /// Canonical names occurring *free* in the whole input term; these
    /// indices must be skipped or a free `#i` would be conflated with a
    /// bound one. Computed when the first binder is met: a binder-free
    /// term never needs it.
    taken: Option<NameSet>,
}

impl Canonizer<'_> {
    fn lookup(&self, n: Name) -> Name {
        self.env
            .iter()
            .rev()
            .find(|(from, _)| *from == n)
            .map(|(_, to)| *to)
            .unwrap_or(n)
    }

    /// The renamed copy of `ns`, or `None` when no name changes.
    fn lookup_all(&self, ns: &[Name]) -> Option<Vec<Name>> {
        if self.env.is_empty() || ns.iter().all(|&n| self.lookup(n) == n) {
            return None;
        }
        Some(ns.iter().map(|&n| self.lookup(n)).collect())
    }

    fn fresh_canonical(&mut self) -> Name {
        let root = self.root;
        let taken = self.taken.get_or_insert_with(|| free_canonicals(root));
        loop {
            let c = Name::canonical(self.next);
            self.next += 1;
            if !taken.contains(c) {
                return c;
            }
        }
    }

    fn with_binders<T>(&mut self, binders: &[Name], f: impl FnOnce(&mut Self, &[Name]) -> T) -> T {
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

    /// The canonical form of `p`, sharing every subterm that comes out
    /// unchanged: when nothing under `p` is renamed, `p` itself.
    fn go(&mut self, p: &P) -> P {
        match &**p {
            Process::Nil => p.clone(),
            Process::Act(pre, cont) => match pre {
                Prefix::Tau => {
                    let c = self.go(cont);
                    if Arc::ptr_eq(&c, cont) {
                        return p.clone();
                    }
                    Process::Act(Prefix::Tau, c).rc()
                }
                Prefix::Output(a, ys) => {
                    let a2 = self.lookup(*a);
                    let ys2 = self.lookup_all(ys);
                    let c = self.go(cont);
                    if a2 == *a && ys2.is_none() && Arc::ptr_eq(&c, cont) {
                        return p.clone();
                    }
                    let ys2 = ys2.unwrap_or_else(|| ys.clone());
                    Process::Act(Prefix::Output(a2, ys2), c).rc()
                }
                Prefix::Input(a, binders) => {
                    let subj = self.lookup(*a);
                    self.with_binders(binders, |me, fresh| {
                        let c = me.go(cont);
                        if subj == *a && fresh == &binders[..] && Arc::ptr_eq(&c, cont) {
                            return p.clone();
                        }
                        Process::Act(Prefix::Input(subj, fresh.to_vec()), c).rc()
                    })
                }
            },
            Process::Sum(l, r) => {
                let (l2, r2) = (self.go(l), self.go(r));
                if Arc::ptr_eq(&l2, l) && Arc::ptr_eq(&r2, r) {
                    return p.clone();
                }
                Process::Sum(l2, r2).rc()
            }
            Process::Par(l, r) => {
                let (l2, r2) = (self.go(l), self.go(r));
                if Arc::ptr_eq(&l2, l) && Arc::ptr_eq(&r2, r) {
                    return p.clone();
                }
                Process::Par(l2, r2).rc()
            }
            Process::New(x, cont) => self.with_binders(std::slice::from_ref(x), |me, fresh| {
                let c = me.go(cont);
                if fresh[0] == *x && Arc::ptr_eq(&c, cont) {
                    return p.clone();
                }
                Process::New(fresh[0], c).rc()
            }),
            Process::Match(x, y, l, r) => {
                let (x2, y2) = (self.lookup(*x), self.lookup(*y));
                let (l2, r2) = (self.go(l), self.go(r));
                if x2 == *x && y2 == *y && Arc::ptr_eq(&l2, l) && Arc::ptr_eq(&r2, r) {
                    return p.clone();
                }
                Process::Match(x2, y2, l2, r2).rc()
            }
            Process::Call(id, args) => match self.lookup_all(args) {
                None => p.clone(),
                Some(args2) => Process::Call(*id, args2).rc(),
            },
            Process::Var(id, args) => match self.lookup_all(args) {
                None => p.clone(),
                Some(args2) => Process::Var(*id, args2).rc(),
            },
            Process::Rec(def, args) => {
                let args2 = self.lookup_all(args);
                self.with_binders(&def.params, |me, fresh| {
                    let body = me.go(&def.body);
                    if args2.is_none() && fresh == &def.params[..] && Arc::ptr_eq(&body, &def.body)
                    {
                        return p.clone();
                    }
                    Process::Rec(
                        RecDef {
                            ident: def.ident,
                            params: fresh.to_vec(),
                            body,
                        },
                        args2.unwrap_or_else(|| args.clone()),
                    )
                    .rc()
                })
            }
        }
    }
}

/// The canonical (`#…`) names occurring free in `p`.
fn free_canonicals(p: &P) -> NameSet {
    fn add(n: Name, bound: &[Name], out: &mut NameSet) {
        if n.is_canonical() && !bound.contains(&n) {
            out.insert(n);
        }
    }
    fn go(p: &Process, bound: &mut Vec<Name>, out: &mut NameSet) {
        let depth = bound.len();
        match p {
            Process::Nil => {}
            Process::Act(pre, cont) => {
                match pre {
                    Prefix::Tau => {}
                    Prefix::Output(a, ys) => {
                        add(*a, bound, out);
                        for &y in ys {
                            add(y, bound, out);
                        }
                    }
                    Prefix::Input(a, binders) => {
                        add(*a, bound, out);
                        bound.extend(binders.iter().copied());
                    }
                }
                go(cont, bound, out);
            }
            Process::Sum(l, r) | Process::Par(l, r) => {
                go(l, bound, out);
                go(r, bound, out);
            }
            Process::New(x, cont) => {
                bound.push(*x);
                go(cont, bound, out);
            }
            Process::Match(x, y, l, r) => {
                add(*x, bound, out);
                add(*y, bound, out);
                go(l, bound, out);
                go(r, bound, out);
            }
            Process::Call(_, args) | Process::Var(_, args) => {
                for &a in args {
                    add(a, bound, out);
                }
            }
            Process::Rec(def, args) => {
                for &a in args {
                    add(a, bound, out);
                }
                bound.extend(def.params.iter().copied());
                go(&def.body, bound, out);
            }
        }
        bound.truncate(depth);
    }
    let mut out = NameSet::new();
    go(p, &mut Vec::new(), &mut out);
    out
}

/// The α-canonical form of `p`: all binders renamed to `#0, #1, …` in
/// pre-order. `canon(p) == canon(q)` iff `p =α q`.
///
/// Unchanged subterms are shared with `p`, not copied: a binder-free or
/// already canonical `p` comes back as `p` itself (`Arc::ptr_eq`).
pub fn canon(p: &P) -> P {
    let mut c = Canonizer {
        root: p,
        env: Vec::new(),
        next: 0,
        taken: None,
    };
    c.go(p)
}

/// α-equivalence of process terms.
pub fn alpha_eq(p: &P, q: &P) -> bool {
    p == q || canon(p) == canon(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::name::Name;

    #[test]
    fn alpha_equivalent_inputs() {
        let [a, x, y] = names(["a", "x", "y"]);
        // a(x).x̄ =α a(y).ȳ
        let p = inp(a, [x], out_(x, []));
        let q = inp(a, [y], out_(y, []));
        assert!(alpha_eq(&p, &q));
        assert_ne!(p, q);
    }

    #[test]
    fn alpha_distinguishes_free_names() {
        let [a, b, x] = names(["a", "b", "x"]);
        let p = inp(a, [x], out_(x, []));
        let q = inp(b, [x], out_(x, []));
        assert!(!alpha_eq(&p, &q));
    }

    #[test]
    fn restriction_alpha() {
        let [x, y, a] = names(["x", "y", "a"]);
        // νx āx =α νy āy
        let p = new(x, out_(a, [x]));
        let q = new(y, out_(a, [y]));
        assert!(alpha_eq(&p, &q));
        // but νx āx ≠α νx āa
        let r = new(x, out_(a, [a]));
        assert!(!alpha_eq(&p, &r));
    }

    #[test]
    fn shadowing_respected() {
        let [a, x] = names(["a", "x"]);
        // a(x).a(x).x̄  vs  a(x).a(y).ȳ : equivalent (inner binder shadows)
        let y = Name::new("y");
        let p = inp(a, [x], inp(a, [x], out_(x, [])));
        let q = inp(a, [x], inp(a, [y], out_(y, [])));
        assert!(alpha_eq(&p, &q));
        // a(x).a(y).x̄ is different
        let r = inp(a, [x], inp(a, [y], out_(x, [])));
        assert!(!alpha_eq(&p, &r));
    }

    #[test]
    fn canonical_free_names_not_conflated() {
        // A term with a *free* canonical name must not collide with bound
        // canonicals: νz (z̄ ‖ #0̄) vs νz (z̄ ‖ z̄).
        let z = Name::new("z");
        let h0 = Name::canonical(0);
        let p = new(z, par(out_(z, []), out_(h0, [])));
        let q = new(z, par(out_(z, []), out_(z, [])));
        assert!(!alpha_eq(&p, &q));
    }

    #[test]
    fn canon_is_idempotent() {
        let [a, x] = names(["a", "x"]);
        let p = new(x, inp(a, [x], out_(x, [])));
        let c1 = canon(&p);
        let c2 = canon(&c1);
        assert_eq!(c1, c2);
    }

    #[test]
    fn renamed_terms_share_their_unchanged_subterms() {
        let [a, b, x] = names(["a", "b", "x"]);
        let fixed = out(a, [b], nil());
        let p = par(fixed.clone(), new(x, out_(x, [])));
        let c = canon(&p);
        let Process::Par(l, _) = &*c else {
            panic!("canon keeps the top-level shape: {c:?}")
        };
        assert!(Arc::ptr_eq(l, &fixed));
    }

    #[test]
    fn rec_params_are_canonicalised() {
        let [x, y, a] = names(["x", "y", "a"]);
        let xid = crate::syntax::Ident::new("XC");
        let p = rec(xid, [x], out(x, [], var(xid, [x])), [a]);
        let q = rec(xid, [y], out(y, [], var(xid, [y])), [a]);
        assert!(alpha_eq(&p, &q));
    }
}
