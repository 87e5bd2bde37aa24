//! The bpi benchmark: end-to-end metrics of the checker as a library and
//! as a daemon, and a traced run that attributes the time to layers.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1
//!           --server-bin PATH --state-dir DIR [--cleared VARS]
//! ```
//!
//! `perfbench/run.py` builds this binary and the `bpi-server` daemon and
//! runs it; see there for the workloads and the metrics. The last line
//! of standard output is the result object; the line before it is a
//! report of the run's details (tail percentile and sample count,
//! `nproc`, deterministic counters, the layer-to-metric map).

mod gen;
mod library;
mod pass;
mod pipeline;
mod served;
mod stats;
mod sys;
mod trace;

use bpi_server::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// A seed that no tuning of this benchmark used, kept for confirming a
/// claimed gain after it was measured on other seeds.
const HELD_OUT_SEED: u64 = 20_011_701;

/// Environment knobs that change which engine or path runs; the
/// benchmark measures the program as users get it, without them.
const KNOBS: [&str; 5] = [
    "BPI_ENGINE",
    "BPI_COMPOSE",
    "BPI_THREADS",
    "BPI_CHAOS",
    "BPI_TRACE",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LibStrong,
    LibWeak,
    Served,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "lib-strong" => Some(Workload::LibStrong),
            "lib-weak" => Some(Workload::LibWeak),
            "served" => Some(Workload::Served),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::LibStrong => "lib-strong",
            Workload::LibWeak => "lib-weak",
            Workload::Served => "served",
        }
    }

    pub fn batch_shapes(self) -> Vec<gen::Shape> {
        match self {
            Workload::LibStrong => gen::lib_strong_batch(),
            Workload::LibWeak => gen::lib_weak_batch(),
            Workload::Served => unreachable!("served has a job stream, not batches"),
        }
    }
}

pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub report: Vec<(&'static str, Json)>,
}

pub fn describe(pair: &gen::Pair, holds: bool) -> String {
    format!(
        "{} n={} {:?} {:?}: got holds={holds}, expected {} ({} vs {})",
        pair.shape.family.name(),
        pair.shape.n,
        pair.shape.rel,
        pair.shape.variant,
        pair.expected,
        pair.left,
        pair.right
    )
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Starts this binary again with `args`, stdout piped, stderr shared.
pub fn spawn_self(args: &[&str]) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| e.to_string())
}

/// Which end-to-end metric each per-layer metric should move, and on
/// which workload, written down before any optimisation is measured.
const LAYER_MAP: [(&str, &str); 30] = [
    ("core.parse.ms", "control: should move nothing"),
    (
        "equiv.graph.build.ms",
        "checks_per_s, latency_p50_ms on lib-strong; less on lib-weak; ~5% on served",
    ),
    (
        "equiv.graph.build.us_per_state",
        "checks_per_s, latency_p50_ms on lib-strong",
    ),
    ("equiv.graph.states", "work count: fixed for a seed"),
    ("equiv.graph.edges", "work count: fixed for a seed"),
    ("equiv.graph.csr_freeze.ms", "negligible on every workload"),
    (
        "semantics.memo.step.hit_ratio",
        "peak_rss_mb everywhere; checks_per_s on served",
    ),
    (
        "semantics.memo.norm.hit_ratio",
        "peak_rss_mb everywhere; checks_per_s on served",
    ),
    (
        "semantics.memo.input.hit_ratio",
        "peak_rss_mb everywhere; checks_per_s on served",
    ),
    (
        "equiv.graph.memo.hit_ratio",
        "peak_rss_mb everywhere; checks_per_s on served",
    ),
    (
        "equiv.saturate.ms",
        "latency_tail_ms, checks_per_s on lib-weak; ~0 on lib-strong",
    ),
    (
        "equiv.saturate.closure_entries",
        "latency_tail_ms, checks_per_s on lib-weak; 0 on lib-strong",
    ),
    (
        "equiv.refine.ms",
        "checks_per_s, latency_tail_ms on lib-weak most",
    ),
    ("equiv.partition.blocks", "lib-weak most"),
    ("equiv.partition.splits", "lib-weak most"),
    ("equiv.partition.rounds", "lib-weak most"),
    ("equiv.partition.safe_frac", "lib-weak most"),
    ("equiv.refine.pairs", "checks_per_s, latency_* on served"),
    ("equiv.refine.kills", "checks_per_s, latency_* on served"),
    (
        "equiv.checkpoint.slice.ms",
        "checks_per_s, latency_* on served",
    ),
    (
        "equiv.checkpoint.slices_per_job",
        "checks_per_s, latency_* on served",
    ),
    ("server.roundtrip.ms", "latency_p50_ms on served"),
    ("server.queue_wait.ms", "latency_tail_ms on served"),
    ("server.journal.append.ms", "latency_p50_ms on served"),
    ("server.json.ms", "latency_p50_ms on served"),
    ("server.journal.recover.ms", "restart time on served"),
    ("server.admitted", "served: jobs admitted"),
    ("server.rejected", "served: must stay 0 at default settings"),
    ("server.preempted", "served: slices parked"),
    (
        "trace.overhead_ratio",
        "traced pass total over untraced pass total",
    ),
];

fn unit_of(metric: &str) -> &'static str {
    if metric.ends_with(".ms") {
        "ms"
    } else if metric.ends_with(".us_per_state") {
        "us"
    } else if metric.ends_with("_ratio") || metric.ends_with("_frac") || metric.ends_with("per_job")
    {
        "ratio"
    } else {
        "count"
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: PathBuf,
    state_dir: PathBuf,
    cleared: String,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let need = |name: &str| flag(args, name).ok_or(format!("missing {name}"));
    let num = |name: &str| -> Result<u64, String> {
        need(name)?.parse().map_err(|_| format!("bad {name}"))
    };
    Ok(Args {
        workload: Workload::parse(need("--workload")?).ok_or("unknown --workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        server_bin: need("--server-bin")?.into(),
        state_dir: need("--state-dir")?.into(),
        cleared: flag(args, "--cleared").unwrap_or("").to_string(),
    })
}

/// Runs a pass in a fresh process and returns its report; a traced pass
/// writes its spans to `spans`.
fn pass_child(w: Workload, seed: u64, spans: Option<&Path>) -> Result<Json, String> {
    let seed = seed.to_string();
    let mut args = vec!["pass", "--workload", w.name(), "--seed", &seed];
    let path = spans.map(|p| p.to_string_lossy().into_owned());
    if let Some(p) = &path {
        args.extend(["--spans", p]);
    }
    let out = spawn_self(&args)?
        .wait_with_output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), text.lines().last()) {
        (true, Some(line)) => bpi_server::json::parse(line),
        _ => Err(format!("pass failed ({})", out.status)),
    }
}

/// Checks that `counters` equal the record kept for this workload and
/// seed by an earlier run in the same checkout, or keeps them as that
/// record.
fn counters_repeat(state: &Path, w: Workload, seed: u64, counters: &Json) -> Result<bool, String> {
    let path = state.join(format!("counters-{}-{seed}.json", w.name()));
    match std::fs::read_to_string(&path) {
        Ok(prev) => Ok(prev.trim() == counters.to_string()),
        Err(_) => {
            std::fs::write(&path, format!("{counters}\n")).map_err(|e| e.to_string())?;
            Ok(true)
        }
    }
}

/// The traced run: a plain pass, two traced passes over the same checks,
/// and for `served` a live phase observed from outside the daemon.
fn traced(a: &Args) -> Result<Outcome, String> {
    let w = a.workload;
    std::fs::create_dir_all(&a.state_dir).map_err(|e| e.to_string())?;
    let spans = |k: &str| {
        a.state_dir
            .join(format!("spans-{}-{}-{k}.jsonl", w.name(), a.seed))
    };
    let plain = pass_child(w, a.seed, None)?;
    let runs = [
        pass_child(w, a.seed, Some(&spans("pass1")))?,
        pass_child(w, a.seed, Some(&spans("pass2")))?,
    ];
    for p in std::iter::once(&plain).chain(&runs) {
        if let Some(m) = p
            .get("mismatches")
            .and_then(Json::as_arr)
            .and_then(|m| m.first())
        {
            return Err(format!("wrong verdict: {}", m.as_str().unwrap_or("?")));
        }
    }
    let counters = runs[0].get("counters").cloned().unwrap_or(Json::Null);
    let same_twice = runs[1].get("counters") == Some(&counters);
    let same_as_before = counters_repeat(&a.state_dir, w, a.seed, &counters)?;
    let num = |p: &Json, path: &[&str]| -> f64 {
        path.iter()
            .try_fold(p, |j, k| j.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let checks = num(&runs[0], &["checks"]);
    // Mean over the two traced passes of a layer's self time, in ms.
    let layer_ms = |name: &str| -> (f64, f64) {
        let (mut ms, mut count) = (0.0, 0.0);
        for r in &runs {
            if let Some(v) = r
                .get("layers")
                .and_then(|l| l.get(name))
                .and_then(Json::as_arr)
            {
                ms += v[0].as_f64().unwrap_or(0.0) / 1e6 / 2.0;
                count = v[1].as_f64().unwrap_or(0.0);
            }
        }
        (ms, count)
    };
    let hist_ms = |name: &str| runs.iter().map(|r| num(r, &["hist_us", name])).sum::<f64>() / 2e3;
    let count = |name: &str| num(&runs[0], &["counters", name]);
    let memo_ratio = |memo: &str| {
        let hits = count(&format!("{memo}.hits"));
        ratio(hits, hits + count(&format!("{memo}.misses")))
    };
    let served = w == Workload::Served;
    let build_ms = if served {
        hist_ms("equiv.graph.build_checkpointed.us")
    } else {
        layer_ms("equiv.graph.build").0
    };
    let states = count("equiv.graph.states");
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("core.parse.ms", layer_ms("core.parse").0 / checks);
    m.insert("equiv.graph.build.ms", build_ms / checks);
    m.insert(
        "equiv.graph.build.us_per_state",
        ratio(build_ms * 1e3, states),
    );
    m.insert("equiv.graph.states", states);
    m.insert("equiv.graph.edges", count("equiv.graph.edges"));
    m.insert(
        "equiv.graph.csr_freeze.ms",
        hist_ms("equiv.graph.csr_freeze.us") / checks,
    );
    m.insert("equiv.refine.pairs", count("equiv.refine.pairs"));
    m.insert("equiv.refine.kills", count("equiv.refine.kills"));
    let traced_s = (num(&runs[0], &["total_s"]) + num(&runs[1], &["total_s"])) / 2.0;
    m.insert("trace.overhead_ratio", traced_s / num(&plain, &["total_s"]));
    let mut attempted = 3 * checks as u64;
    let mut failed: u64 = std::iter::once(&plain)
        .chain(&runs)
        .map(|p| num(p, &["failed"]) as u64)
        .sum();
    let mut report = vec![
        ("counters", counters.clone()),
        ("counters_repeat_in_run", Json::Bool(same_twice)),
        ("counters_repeat_across_runs", Json::Bool(same_as_before)),
        ("pass_checks", Json::num(checks)),
        ("traced_pass_s", Json::num(traced_s)),
        ("plain_pass_s", Json::num(num(&plain, &["total_s"]))),
    ];
    if served {
        let (slice_ms, slices) = layer_ms("equiv.checkpoint.slice");
        m.insert("equiv.checkpoint.slice.ms", ratio(slice_ms, slices));
        m.insert(
            "equiv.checkpoint.slices_per_job",
            count("bench.slices") / checks,
        );
        // Memo hit ratios come from the daemon's registry, server counts
        // and times from the live phase.
        let dir = served::run_dir(&a.state_dir);
        let live = served::traced_live(&a.server_bin, &dir, a.seed, a.seconds, &spans("live"));
        let _ = std::fs::remove_dir_all(&dir);
        let (server, jobs, live_failed) = live?;
        m.extend(server);
        attempted += jobs;
        failed += live_failed;
        report.push(("live_jobs", Json::num(jobs as f64)));
    } else {
        for (name, memo) in [
            ("semantics.memo.step.hit_ratio", "semantics.memo.step"),
            ("semantics.memo.norm.hit_ratio", "semantics.memo.norm"),
            ("semantics.memo.input.hit_ratio", "semantics.memo.input"),
            ("equiv.graph.memo.hit_ratio", "equiv.graph.memo"),
        ] {
            m.insert(name, memo_ratio(memo));
        }
        m.insert("equiv.saturate.ms", layer_ms("equiv.saturate").0 / checks);
        m.insert(
            "equiv.saturate.closure_entries",
            count("bench.closure_entries"),
        );
        m.insert("equiv.refine.ms", layer_ms("equiv.refine").0 / checks);
        for c in [
            "equiv.partition.blocks",
            "equiv.partition.splits",
            "equiv.partition.rounds",
        ] {
            m.insert(c, count(c));
        }
        m.insert(
            "equiv.partition.safe_frac",
            count("bench.partition_safe") / checks,
        );
    }
    // Layers this workload's path does not run report 0 and are listed.
    let na: Vec<Json> = LAYER_MAP
        .iter()
        .filter(|(n, _)| !m.contains_key(n))
        .map(|(n, _)| Json::str(*n))
        .collect();
    report.push(("not_applicable", Json::Arr(na)));
    report.push(("spans_dir", Json::str(a.state_dir.to_string_lossy())));
    report.push((
        "layer_map",
        Json::Obj(
            LAYER_MAP
                .iter()
                .map(|(n, why)| (n.to_string(), Json::str(*why)))
                .collect(),
        ),
    ));
    Ok(Outcome {
        correct: same_twice && same_as_before,
        attempted,
        failed,
        metrics: LAYER_MAP
            .iter()
            .map(|(n, _)| Metric::new(n, m.get(n).copied().unwrap_or(0.0), unit_of(n)))
            .collect(),
        report,
    })
}

fn run(a: &Args) -> Result<Outcome, String> {
    match (a.workload, a.trace) {
        (_, true) => traced(a),
        (Workload::Served, false) => {
            let dir = served::run_dir(&a.state_dir);
            let out = served::timed(&a.server_bin, &dir, a.seed, a.seconds);
            let _ = std::fs::remove_dir_all(&dir);
            out
        }
        (w, false) => library::timed(w, a.seed, a.seconds),
    }
}

fn final_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> Json {
    let metrics = metrics
        .iter()
        .map(|m| {
            let v = Json::obj(vec![
                ("value", Json::num(m.value)),
                ("unit", Json::str(m.unit)),
            ]);
            (m.name.to_string(), v)
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let set: Vec<&str> = KNOBS
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; unset it",
            set.join(", ")
        );
        std::process::exit(2);
    }
    let need = |name: &str| flag(&args, name).unwrap_or_default().to_string();
    let workload = || Workload::parse(&need("--workload")).expect("--workload");
    let seed = || need("--seed").parse::<u64>().expect("--seed");
    match args.first().map(String::as_str) {
        Some("batch") => {
            let batch = need("--batch").parse().expect("--batch");
            println!("{}", library::batch_child(workload(), seed(), batch));
            return;
        }
        Some("pass") => {
            let spans = flag(&args, "--spans").map(Path::new);
            println!("{}", pass::run(workload(), seed(), spans));
            return;
        }
        _ => {}
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&a) {
        Ok(out) => {
            let mut report = vec![
                ("workload", Json::str(a.workload.name())),
                ("seed", Json::num(a.seed as f64)),
                ("held_out_seed", Json::num(HELD_OUT_SEED as f64)),
                ("nproc", Json::num(sys::nproc() as f64)),
                ("cleared_env", Json::str(a.cleared.as_str())),
            ];
            report.extend(out.report);
            println!("{}", Json::obj(report));
            println!(
                "{}",
                final_line(out.correct, out.attempted, out.failed, &out.metrics)
            );
            if !out.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            println!("{}", final_line(false, 1, 1, &[]));
            std::process::exit(1);
        }
    }
}
