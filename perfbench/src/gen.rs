//! Seeded input generation with a known answer for every check.
//!
//! Every pair is built so that its verdict follows from how it was
//! built, not from running a checker:
//!
//! * a product whose right side permutes and re-brackets the parallel
//!   components of the left side holds in all six variants (`‖` is
//!   associative and commutative up to strong labelled bisimilarity,
//!   which implies the other five);
//! * a product whose right side also renames the first output channel of
//!   one component to a fresh name fails in all six variants (the right
//!   root has a barb on that fresh name and the left side never has one);
//! * a τ-ladder `τⁿ.t̄` against `τⁿ⁺¹.t̄` holds weakly and fails
//!   strongly;
//! * a τ-cycle product `Πᵢ rec X(){ τᵏ.X + āᵢ.b̄ᵢ }` against the `k = 1`
//!   version holds weakly and fails strongly.
//!
//! The product families have the shapes of the `bpi_bench` builders of
//! the same names (the tests pin that). Every check gets its own name
//! tag, so no two checks share a term and every library check is cold.

use bpi_equiv::Variant;

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The families a pair can come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `Πᵢ (āᵢ + τ.b̄ᵢ)`, distinct channels (`bpi_bench::wide_par`).
    WidePar,
    /// `Πᵢ āᵢ.b̄ᵢ`, distinct channels (`bpi_bench::independent_components`).
    Independent,
    /// `Πⁿ (ā + τ.b̄.a())`, shared channels (`bpi_bench::identical_stations`).
    Stations,
    /// `Πⁿ ā.b̄`, shared channels (`bpi_bench::shared_components`).
    Shared,
    /// Nested sums of `c̄.τ.c̄` leaves, one side re-associated
    /// (`bpi_bench::scaled_pair`).
    ScaledPair,
    /// `τⁿ.t̄` against `τⁿ⁺¹.t̄`.
    Ladder,
    /// `Πᵢ rec X(){ τᵏ.X + āᵢ.b̄ᵢ }` against the `k = 1` version.
    TauCycle,
}

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::WidePar => "wide_par",
            Family::Independent => "independent_components",
            Family::Stations => "identical_stations",
            Family::Shared => "shared_components",
            Family::ScaledPair => "scaled_pair",
            Family::Ladder => "tau_ladder",
            Family::TauCycle => "tau_cycle",
        }
    }
}

/// How the right side relates to the left.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relation {
    /// Same components, permuted and re-bracketed (or re-associated).
    Permuted,
    /// As `Permuted`, with one component's continuation renamed.
    Mutated,
    /// A τ-ladder one step longer, or a τ-cycle product with `k = 1`.
    TauPadded,
}

/// One shape of check: a family at a size, a relation and a variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    pub family: Family,
    /// Components for products, leaves for `ScaledPair`, τ steps for
    /// `Ladder`.
    pub n: usize,
    /// τ-cycle length (`TauCycle` only).
    pub k: usize,
    pub rel: Relation,
    pub variant: Variant,
}

/// A generated check: source text for both sides and its known answer.
#[derive(Clone, Debug)]
pub struct Pair {
    pub shape: Shape,
    pub left: String,
    pub right: String,
    pub expected: bool,
}

/// The verdict a pair of this shape must get, by construction.
pub fn expected(rel: Relation, v: Variant) -> bool {
    match rel {
        Relation::Permuted => true,
        Relation::Mutated => false,
        Relation::TauPadded => v.is_weak(),
    }
}

pub const STRONG: [Variant; 3] = [
    Variant::StrongLabelled,
    Variant::StrongBarbed,
    Variant::StrongStep,
];
pub const WEAK: [Variant; 3] = [
    Variant::WeakLabelled,
    Variant::WeakBarbed,
    Variant::WeakStep,
];

/// Text of one product component `i` under name tag `t`; `mutate`
/// renames its first output channel to a fresh one.
fn component(f: Family, t: &str, i: usize, k: usize, mutate: bool) -> String {
    let z = if mutate { "z" } else { "a" };
    match f {
        Family::WidePar => format!("({t}w{z}{i}<> + tau.{t}wb{i}<>)"),
        Family::Independent => format!("{t}e{z}{i}<>.{t}eb{i}<>"),
        Family::Stations => format!("({t}s{z}<> + tau.{t}sb<>.{t}sa())"),
        Family::Shared => format!("{t}c{z}<>.{t}cb<>"),
        Family::TauCycle => {
            let taus = "tau.".repeat(k);
            format!("rec X(){{ {taus}X<> + {t}ka{i}<>.{t}kb{i}<> }}")
        }
        Family::ScaledPair | Family::Ladder => unreachable!("not a product family"),
    }
}

/// `p₁ | (p₂ | (… | pₙ))`: the nesting `bpi_core::builder::par_of` builds.
fn right_nested(parts: &[String]) -> String {
    match parts {
        [] => "0".to_string(),
        [p] => p.clone(),
        [p, rest @ ..] => format!("{p} | ({})", right_nested(rest)),
    }
}

/// A random binary bracketing of `parts` in the given order.
fn random_bracketing(parts: &[String], rng: &mut Rng) -> String {
    if parts.len() == 1 {
        return parts[0].clone();
    }
    let cut = 1 + rng.below(parts.len() - 1);
    format!(
        "({}) | ({})",
        random_bracketing(&parts[..cut], rng),
        random_bracketing(&parts[cut..], rng)
    )
}

/// `c̄.τ.c̄` leaves on channels `a, b, c` in turn, summed onto the front
/// (`left`) or onto the back (`!left`) as `bpi_bench::scaled_pair`
/// does; `mutant` renames the first output channel of that leaf.
fn scaled_sum(t: &str, n: usize, left: bool, mutant: Option<usize>) -> String {
    let mut acc = String::from("0");
    for i in 0..n {
        let ch = ["a", "b", "c"][i % 3];
        let first = if mutant == Some(i) { "z" } else { ch };
        let leaf = format!("{t}p{first}<>.tau.{t}p{ch}<>");
        acc = if left {
            format!("{leaf} + ({acc})")
        } else {
            format!("({acc}) + {leaf}")
        };
    }
    acc
}

/// Builds the pair of `shape` under name tag `tag`, drawing the
/// permutation, bracketing and mutated component from `rng`.
pub fn make_pair(shape: Shape, tag: &str, rng: &mut Rng) -> Pair {
    let Shape {
        family: f,
        n,
        k,
        rel,
        ..
    } = shape;
    let (left, right) = match f {
        Family::Ladder => {
            let t = |m: usize| format!("{}{tag}t<>", "tau.".repeat(m));
            (t(n), t(n + 1))
        }
        Family::ScaledPair => {
            let mutant = (rel == Relation::Mutated).then(|| rng.below(n));
            (
                scaled_sum(tag, n, true, None),
                scaled_sum(tag, n, false, mutant),
            )
        }
        _ => {
            let lk = if rel == Relation::TauPadded { k } else { 0 };
            let rk = if rel == Relation::TauPadded { 1 } else { 0 };
            let left: Vec<String> = (0..n).map(|i| component(f, tag, i, lk, false)).collect();
            let mutant = (rel == Relation::Mutated).then(|| rng.below(n));
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            let right: Vec<String> = order
                .iter()
                .map(|&i| component(f, tag, i, rk, mutant == Some(i)))
                .collect();
            (right_nested(&left), random_bracketing(&right, rng))
        }
    };
    Pair {
        shape,
        left,
        right,
        expected: expected(rel, shape.variant),
    }
}

/// Product shapes of `lib-strong`: 130 to 2,200 states per side, plus
/// the wide root sum of `scaled_pair`.
const STRONG_PRODUCTS: [(Family, usize); 6] = [
    (Family::WidePar, 5),
    (Family::WidePar, 7),
    (Family::Independent, 6),
    (Family::Stations, 5),
    (Family::Shared, 6),
    (Family::ScaledPair, 240),
];

/// Product shapes of `lib-weak`: weak checks cost several times as much
/// per state, so the largest product is one component smaller.
const WEAK_PRODUCTS: [(Family, usize); 6] = [
    (Family::WidePar, 5),
    (Family::WidePar, 6),
    (Family::Independent, 6),
    (Family::Stations, 5),
    (Family::Shared, 6),
    (Family::ScaledPair, 240),
];

fn product_shapes(products: &[(Family, usize)], variants: &[Variant]) -> Vec<Shape> {
    let mut out = Vec::new();
    for &(family, n) in products {
        for &variant in variants {
            for rel in [Relation::Permuted, Relation::Mutated] {
                out.push(Shape {
                    family,
                    n,
                    k: 0,
                    rel,
                    variant,
                });
            }
        }
    }
    out
}

/// One batch of `lib-strong`: every product shape once, strong variants.
pub fn lib_strong_batch() -> Vec<Shape> {
    product_shapes(&STRONG_PRODUCTS, &STRONG)
}

/// One batch of `lib-weak`: every product shape once plus the τ-ladders
/// and τ-cycle products, weak variants.
pub fn lib_weak_batch() -> Vec<Shape> {
    let mut out = product_shapes(&WEAK_PRODUCTS, &WEAK);
    for &variant in &WEAK {
        for n in [200, 500] {
            out.push(Shape {
                family: Family::Ladder,
                n,
                k: 0,
                rel: Relation::TauPadded,
                variant,
            });
        }
        out.push(Shape {
            family: Family::TauCycle,
            n: 3,
            k: 4,
            rel: Relation::TauPadded,
            variant,
        });
    }
    out
}

/// A shuffled batch of pairs for a library workload, tagged
/// `b{batch}c{index}` so every check in a run is cold.
pub fn lib_batch(shapes: &[Shape], seed: u64, batch: u64) -> Vec<Pair> {
    let mut rng = Rng::new(seed.wrapping_mul(0x1000_0000_01b3) ^ batch);
    let mut shapes = shapes.to_vec();
    rng.shuffle(&mut shapes);
    shapes
        .iter()
        .enumerate()
        .map(|(i, &s)| make_pair(s, &format!("b{batch}c{i}"), &mut rng))
        .collect()
}

/// The fresh shapes of one `served` block, 9 to 730 states per side,
/// strong and weak variants, six holding and six failing.
#[rustfmt::skip]
pub const SERVED_FRESH: [(Family, usize, usize, Relation, Variant); 12] = [
    (Family::WidePar,     6,   0, Relation::Permuted,  Variant::StrongLabelled),
    (Family::WidePar,     4,   0, Relation::Mutated,   Variant::WeakBarbed),
    (Family::Independent, 4,   0, Relation::Permuted,  Variant::WeakLabelled),
    (Family::Independent, 5,   0, Relation::Mutated,   Variant::StrongStep),
    (Family::Stations,    4,   0, Relation::Permuted,  Variant::StrongBarbed),
    (Family::Stations,    4,   0, Relation::Mutated,   Variant::WeakStep),
    (Family::Shared,      5,   0, Relation::Permuted,  Variant::WeakStep),
    (Family::Shared,      5,   0, Relation::Mutated,   Variant::StrongLabelled),
    (Family::Ladder,      200, 0, Relation::TauPadded, Variant::StrongLabelled),
    (Family::Ladder,      40,  0, Relation::TauPadded, Variant::WeakLabelled),
    (Family::TauCycle,    3,   2, Relation::TauPadded, Variant::WeakBarbed),
    // Two components, not three: a failing strong check's explanation
    // grows ~18x per τ-cycle component and `bpi_server::json::parse`
    // decodes strings in quadratic time, so at three components every
    // such response takes seconds to decode (7 KB here, 125 KB there).
    (Family::TauCycle,    2,   3, Relation::TauPadded, Variant::StrongStep),
];

/// Jobs per `served` block: the fresh shapes plus this many repeats.
pub const SERVED_REPEATS: usize = 4;

/// One `served` job: a pair under a job id unique in the run.
#[derive(Clone, Debug)]
pub struct Job {
    /// Position in the stream; the id is `j{index}`.
    pub index: usize,
    pub id: String,
    pub pair: std::sync::Arc<Pair>,
    pub repeat: bool,
}

/// The seeded, unbounded job sequence of `served`, generated a block at
/// a time: each block holds every fresh shape once and
/// [`SERVED_REPEATS`] repeats, shuffled. Repeats cycle through the
/// shapes (every three blocks repeat each shape once) and pick an earlier
/// pair of their shape at random, so the work per block does not depend
/// on the seed.
pub struct JobStream {
    seed: u64,
    next_id: usize,
    block: u64,
    queue: std::collections::VecDeque<Job>,
    /// Pairs generated so far, by index into [`SERVED_FRESH`].
    history: Vec<Vec<std::sync::Arc<Pair>>>,
}

impl JobStream {
    pub fn new(seed: u64) -> JobStream {
        JobStream {
            seed,
            next_id: 0,
            block: 0,
            queue: Default::default(),
            history: vec![Vec::new(); SERVED_FRESH.len()],
        }
    }

    /// Generates the next block of jobs.
    pub fn fill(&mut self) {
        let mut rng = Rng::new(self.seed.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ self.block);
        let shapes = SERVED_FRESH.len();
        let repeats =
            (0..SERVED_REPEATS).map(|j| (self.block as usize * SERVED_REPEATS + j) % shapes);
        let mut slots: Vec<(usize, bool)> = (0..shapes)
            .map(|i| (i, false))
            .chain(repeats.map(|i| (i, true)))
            .collect();
        rng.shuffle(&mut slots);
        if self.block == 0 {
            // A repeat needs an earlier pair of its shape.
            slots.sort_by_key(|&(_, repeat)| repeat);
        }
        for (i, repeat) in slots {
            let id = format!("j{}", self.next_id);
            let pair = if repeat {
                self.history[i][rng.below(self.history[i].len())].clone()
            } else {
                let (family, n, k, rel, variant) = SERVED_FRESH[i];
                let shape = Shape {
                    family,
                    n,
                    k,
                    rel,
                    variant,
                };
                let pair =
                    std::sync::Arc::new(make_pair(shape, &format!("s{}", self.next_id), &mut rng));
                self.history[i].push(pair.clone());
                pair
            };
            self.queue.push_back(Job {
                index: self.next_id,
                id,
                pair,
                repeat,
            });
            self.next_id += 1;
        }
        self.block += 1;
    }

    pub fn next_job(&mut self) -> Job {
        if self.queue.is_empty() {
            self.fill();
        }
        self.queue.pop_front().expect("a filled block")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpi_core::parse_process;

    fn tagged_builder(f: Family, n: usize, tag: &str) -> bpi_core::syntax::P {
        match f {
            Family::WidePar => bpi_bench::wide_par_tagged(n, tag),
            Family::Independent => bpi_bench::independent_components_tagged(n, tag),
            Family::Stations => bpi_bench::identical_stations_tagged(n, tag),
            Family::Shared => bpi_bench::shared_components_tagged(n, tag),
            _ => unreachable!(),
        }
    }

    #[test]
    fn product_left_sides_are_the_bpi_bench_families() {
        let mut rng = Rng::new(7);
        for f in [
            Family::WidePar,
            Family::Independent,
            Family::Stations,
            Family::Shared,
        ] {
            let shape = Shape {
                family: f,
                n: 4,
                k: 0,
                rel: Relation::Permuted,
                variant: Variant::StrongLabelled,
            };
            let pair = make_pair(shape, "q", &mut rng);
            let parsed = parse_process(&pair.left).unwrap();
            assert_eq!(parsed, tagged_builder(f, 4, "q"), "{}", f.name());
        }
    }

    #[test]
    fn scaled_pair_sides_are_the_bpi_bench_pair_up_to_names() {
        let (p, q) = bpi_bench::scaled_pair(5);
        let mut rng = Rng::new(1);
        let shape = Shape {
            family: Family::ScaledPair,
            n: 5,
            k: 0,
            rel: Relation::Permuted,
            variant: Variant::StrongLabelled,
        };
        let pair = make_pair(shape, "", &mut rng);
        let strip = |s: String| s.replace("pa", "a").replace("pb", "b").replace("pc", "c");
        let (l, r) = (strip(pair.left), strip(pair.right));
        assert_eq!(
            bpi_core::prune(&parse_process(&l).unwrap()),
            bpi_core::prune(&p)
        );
        assert_eq!(
            bpi_core::prune(&parse_process(&r).unwrap()),
            bpi_core::prune(&q)
        );
    }

    #[test]
    fn batches_are_seeded_and_cold() {
        let shapes = lib_weak_batch();
        let a = lib_batch(&shapes, 3, 0);
        let b = lib_batch(&shapes, 3, 0);
        let c = lib_batch(&shapes, 4, 0);
        let texts = |v: &[Pair]| v.iter().map(|p| p.right.clone()).collect::<Vec<_>>();
        assert_eq!(texts(&a), texts(&b));
        assert_ne!(texts(&a), texts(&c));
        let next = lib_batch(&shapes, 3, 1);
        assert!(a.iter().all(|p| next.iter().all(|q| q.left != p.left)));
        for p in a.iter().chain(&c) {
            parse_process(&p.left).unwrap();
            parse_process(&p.right).unwrap();
        }
    }

    #[test]
    fn served_stream_repeats_a_quarter_under_new_ids() {
        let mut s = JobStream::new(9);
        let jobs: Vec<Job> = (0..64).map(|_| s.next_job()).collect();
        assert!(!jobs[0].repeat);
        assert_eq!(jobs.iter().filter(|j| j.repeat).count(), 16);
        let ids: std::collections::BTreeSet<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(ids.len(), 64);
        for j in jobs.iter().filter(|j| j.repeat) {
            assert!(jobs.iter().any(|o| !o.repeat && o.pair.left == j.pair.left));
        }
        // Every three blocks repeat each fresh shape exactly once.
        let repeated: std::collections::BTreeSet<String> = jobs[..48]
            .iter()
            .filter(|j| j.repeat)
            .map(|j| format!("{:?}", j.pair.shape))
            .collect();
        assert_eq!(repeated.len(), SERVED_FRESH.len());
        let again: Vec<String> = {
            let mut s = JobStream::new(9);
            (0..64).map(|_| s.next_job().pair.right.clone()).collect()
        };
        assert_eq!(
            again,
            jobs.iter()
                .map(|j| j.pair.right.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn known_answers_follow_the_construction() {
        assert!(expected(Relation::Permuted, Variant::StrongStep));
        assert!(!expected(Relation::Mutated, Variant::WeakBarbed));
        assert!(expected(Relation::TauPadded, Variant::WeakLabelled));
        assert!(!expected(Relation::TauPadded, Variant::StrongLabelled));
    }
}
