//! The same verdict on every path.
//!
//! A check can be answered four ways: [`Checker::check`] (the library
//! path), [`Checker::check_supervised`], [`Checker::run_slice`] chopped
//! into fuel-bounded slices with the parked checkpoint serialised and
//! parsed back between slices (what the daemon's scheduler and journal
//! do), and a `check` job served by an in-process `bpi-server`. All four
//! must agree on `holds` for every pair and all six variants; where the
//! check fails, the sliced, supervised and served paths must also give
//! the same explanation string.
//!
//! The corpora are the oracle suites': the promoted regression seeds
//! (891, 1624, and the mixed-arity parser corners 45352 and 9724, whose
//! products take the pairwise fallback), the partition oracle's
//! structured pairs, and a few partition-safe products above the naive
//! cutover, where the checkpointed paths refine on the partition engine.

use bpi::core::builder::*;
use bpi::core::parse_process;
use bpi::core::syntax::{Defs, P};
use bpi::equiv::arbitrary::{shuffle, Gen, GenCfg};
use bpi::equiv::{Checker, Checkpoint, SliceOutcome, SupervisedVerdict, Variant};
use bpi::server::json::Json;
use bpi::server::protocol::variant_to_str;
use bpi::server::{server, Client, ServerCfg};
use rand::SeedableRng;

const ALL: [Variant; 6] = [
    Variant::StrongBarbed,
    Variant::StrongStep,
    Variant::StrongLabelled,
    Variant::WeakBarbed,
    Variant::WeakStep,
    Variant::WeakLabelled,
];

const FUELS: [usize; 4] = [1, 3, 7, 2048];

/// Every pair of the corpus, as the daemon would see it: printed and
/// parsed back, so all four paths check the very same terms.
fn corpus() -> Vec<(P, P)> {
    let mut pairs: Vec<(P, P)> = Vec::new();

    // Seed 891: three blocks with same-channel summands, paired every way.
    let mut cfg = GenCfg::sequential(names(["a", "b", "c"]).to_vec());
    cfg.max_depth = 2;
    let mut g = Gen::new(cfg, 891);
    let blocks = [g.process(), g.process(), g.process()];
    for p in &blocks {
        for q in &blocks {
            pairs.push((p.clone(), q.clone()));
        }
    }

    // Seed 1624: a double-τ-guarded input against its own shuffle.
    let cfg = GenCfg::finite_monadic(names(["a", "b"]).to_vec());
    let p = Gen::new(cfg, 1624).process();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1624 ^ 0x5151);
    let q = shuffle(&p, &mut rng);
    pairs.push((p, q));

    // Seeds 45352 and 9724: polyadic parser corners, mixed arities.
    let cfg = GenCfg {
        names: names(["a", "b", "c"]).to_vec(),
        max_depth: 4,
        allow_restriction: true,
        allow_match: true,
        allow_par: true,
        max_arity: 3,
    };
    let p = Gen::new(cfg.clone(), 45352).process();
    let q = Gen::new(cfg, 9724).process();
    pairs.extend([(p.clone(), q.clone()), (p.clone(), p), (q.clone(), q)]);

    // The partition oracle's structured pairs.
    let [a, b, c, x] = names(["a", "b", "c", "x"]);
    pairs.extend([
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
        (tau(tau(out_(a, []))), tau(out_(a, []))),
    ]);

    // Partition-safe products above the naive cutover: an output chain
    // and a τ-ladder one step apart, and a product of τ-cycles against
    // its 1-step cycles.
    let chain = |n: usize| (0..n).fold(nil(), |p, _| out(a, [b], p));
    let ladder = |n: usize| (0..n).fold(out_(a, []), |p, _| tau(p));
    pairs.extend([(chain(33), chain(34)), (ladder(33), ladder(34))]);
    let cycles = |k: usize| {
        let cycle = |i: usize| format!("rec X(){{ {}X<> + ka{i}<>.kb{i}<> }}", "tau.".repeat(k));
        parse_process(&format!("{} | ({} | {})", cycle(0), cycle(1), cycle(2))).unwrap()
    };
    pairs.push((cycles(2), cycles(1)));

    pairs
        .into_iter()
        .map(|(p, q)| {
            let reparse = |t: &P| {
                parse_process(&t.to_string())
                    .unwrap_or_else(|e| panic!("printed term {t} does not parse: {e}"))
            };
            (reparse(&p), reparse(&q))
        })
        .collect()
}

/// `run_slice` to completion at `fuel` units per slice, through the
/// checkpoint text codec between slices.
fn sliced(c: &Checker, v: Variant, p: &P, q: &P, fuel: usize) -> (bool, Option<String>) {
    let mut parked: Option<Checkpoint> = None;
    loop {
        match c.run_slice(v, p, q, parked.take(), fuel) {
            Ok(SliceOutcome::Done { holds, explanation }) => return (holds, explanation),
            Ok(SliceOutcome::Parked(ck)) => {
                let text = ck.to_text();
                parked = Some(Checkpoint::from_text(&text).expect("own checkpoint parses"));
            }
            Err(i) => panic!("{v:?} slice stopped without a verdict: {}", i.error),
        }
    }
}

#[test]
fn every_path_gives_the_same_verdict() {
    let defs = Defs::new();
    let c = Checker::new(&defs);
    let dir = std::env::temp_dir().join(format!("bpi-verdict-paths-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = server::start(ServerCfg::new(&dir)).expect("start the daemon");
    let mut client = Client::connect(daemon.addr).expect("connect to the daemon");

    let mut job = 0usize;
    let mut failing = 0usize;
    for (p, q) in corpus() {
        for v in ALL {
            let case = format!("{v:?} on {p} vs {q}");
            let holds = c.check(v, &p, &q).holds();

            let supervised = match c.check_supervised(v, &p, &q, 1) {
                SupervisedVerdict::Holds => None,
                SupervisedVerdict::Fails(why) => Some(why),
                other => panic!("{case}: supervised check inconclusive: {other:?}"),
            };
            assert_eq!(supervised.is_none(), holds, "{case}: supervised diverged");

            job += 1;
            let r = client
                .check(
                    &format!("vp-{job}"),
                    "verdict-paths",
                    variant_to_str(v),
                    &p.to_string(),
                    &q.to_string(),
                    "normal",
                    None,
                )
                .expect("daemon answers");
            assert_eq!(r.str_field("status"), Some("ok"), "{case}: served {r}");
            assert_eq!(
                r.get("holds").and_then(Json::as_bool),
                Some(holds),
                "{case}: served diverged"
            );
            let served = r.str_field("explanation").map(str::to_string);

            for fuel in FUELS {
                let (sliced_holds, explanation) = sliced(&c, v, &p, &q, fuel);
                assert_eq!(
                    sliced_holds, holds,
                    "{case}: sliced at fuel {fuel} diverged"
                );
                assert_eq!(
                    explanation, served,
                    "{case}: sliced (fuel {fuel}) and served explanations differ"
                );
            }
            if !holds {
                failing += 1;
                let explained = served.unwrap_or_else(|| format!("{v:?} fails at the root pair"));
                assert_eq!(
                    supervised.as_deref(),
                    Some(explained.as_str()),
                    "{case}: supervised and served explanations differ"
                );
            }
        }
    }
    drop(client);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        failing > 0 && failing < job,
        "the corpus must hold and fail somewhere"
    );
}
