//! A pass: one fixed, seeded set of checks run once in a fresh process,
//! either plainly or traced. The traced run compares a plain pass with
//! two traced ones: the traced total against the plain total is the
//! tracing overhead, and the two traced passes must count exactly the
//! same work.

use crate::gen::{self, JobStream, Pair};
use crate::pipeline::{check_plain, check_sliced, check_traced, TracedWork};
use crate::trace::{by_name, Recorder};
use crate::Workload;
use bpi_core::syntax::Defs;
use bpi_server::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Jobs replayed by a `served` pass: four blocks of the job stream.
const SERVED_PASS_JOBS: usize = 64;

/// The checks of a pass: the first batch of a library workload, or the
/// first jobs of the `served` stream (repeats included).
fn pass_pairs(w: Workload, seed: u64) -> Vec<std::sync::Arc<Pair>> {
    match w {
        Workload::LibStrong | Workload::LibWeak => gen::lib_batch(&w.batch_shapes(), seed, 0)
            .into_iter()
            .map(std::sync::Arc::new)
            .collect(),
        Workload::Served => {
            let mut s = JobStream::new(seed);
            (0..SERVED_PASS_JOBS).map(|_| s.next_job().pair).collect()
        }
    }
}

/// Registry counters whose totals a pass must repeat exactly. Memo hits
/// and misses are advisory in the registry (they depend on what ran
/// before), but a pass runs fixed work alone in a fresh process.
fn counted(name: &str, det: bpi_obs::Det) -> bool {
    det == bpi_obs::Det::Deterministic || name.ends_with(".hits") || name.ends_with(".misses")
}

/// Runs the pass and returns its report as one JSON object; a traced
/// pass also writes its spans to `spans`.
pub fn run(w: Workload, seed: u64, spans: Option<&std::path::Path>) -> Json {
    let traced = spans.is_some();
    let defs = Defs::new();
    let pairs = pass_pairs(w, seed);
    bpi_obs::set_metrics_enabled(traced);
    let mut rec = if traced {
        Recorder::default()
    } else {
        Recorder::off()
    };
    let mut work = TracedWork::default();
    let (mut failed, mut mismatches) = (0u64, Vec::new());
    let t0 = Instant::now();
    for (job, pair) in pairs.iter().enumerate() {
        let job = job as u64;
        let verdict = match (w, traced) {
            (Workload::Served, _) => check_sliced(&mut rec, &defs, pair, job, &mut work),
            (_, true) => check_traced(&mut rec, &defs, pair, job, &mut work),
            (_, false) => check_plain(&defs, pair),
        };
        match verdict {
            Ok(holds) if holds != pair.expected => {
                mismatches.push(Json::str(crate::describe(pair, holds)))
            }
            Ok(_) => {}
            Err(_) => failed += 1,
        }
    }
    let total_s = t0.elapsed().as_secs_f64();
    if let Some(path) = spans {
        if let Err(e) = rec.write_jsonl(path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    let snap = bpi_obs::snapshot();
    let mut counters: BTreeMap<String, Json> = snap
        .counters
        .iter()
        .filter(|(name, (det, _))| counted(name, *det))
        .map(|(name, (_, v))| (name.to_string(), Json::num(*v as f64)))
        .collect();
    counters.insert(
        "bench.closure_entries".into(),
        Json::num(work.closure_entries as f64),
    );
    counters.insert(
        "bench.partition_safe".into(),
        Json::num(work.partition_safe as f64),
    );
    counters.insert("bench.slices".into(), Json::num(work.slices as f64));
    let layers = by_name(&rec.spans)
        .into_iter()
        .map(|(name, (ns, n))| {
            (
                name.to_string(),
                Json::Arr(vec![Json::num(ns as f64), Json::num(n as f64)]),
            )
        })
        .collect();
    let hist_us = snap
        .histograms
        .iter()
        .map(|(name, h)| (name.to_string(), Json::num(h.sum as f64)))
        .collect();
    Json::obj(vec![
        ("total_s", Json::num(total_s)),
        ("checks", Json::num(pairs.len() as f64)),
        ("failed", Json::num(failed as f64)),
        ("mismatches", Json::Arr(mismatches)),
        ("layers", Json::Obj(layers)),
        ("counters", Json::Obj(counters.into_iter().collect())),
        ("hist_us", Json::Obj(hist_us)),
    ])
}
