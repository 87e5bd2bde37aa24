//! The `lib-strong` and `lib-weak` workloads: one caller in a closed
//! loop calling `parse_process` then `Checker::check` on cold pairs.
//!
//! The caller runs in a child process that checks one batch (every shape
//! of the workload once, shuffled) and exits; the run starts batch after
//! batch until its time is up, and lets the last one finish. The library's memos only grow until they
//! reach their entry caps, so a process's peak RSS depends on how many
//! cold checks it has run: a fixed batch per process makes `peak_rss_mb`
//! a reading at a fixed amount of work, not at however many checks the
//! host's speed allowed.

use crate::gen;
use crate::pipeline::check_plain;
use crate::stats::{median, tail};
use crate::{describe, spawn_self, Metric, Outcome, Workload};
use bpi_core::syntax::Defs;
use bpi_server::Json;
use std::io::{BufRead, BufReader, Write};
use std::time::{Duration, Instant};

/// Checks one batch in this process: prints `READY` once its inputs
/// exist, then one JSON line with what it measured. A wrong verdict
/// ends the batch at once.
pub fn batch_child(w: Workload, seed: u64, batch: u64) -> Json {
    let pairs = gen::lib_batch(&w.batch_shapes(), seed, batch);
    let defs = Defs::new();
    println!("READY");
    std::io::stdout().flush().ok();
    let cpu0 = crate::sys::cpu_s(None).unwrap_or(0.0);
    let t0 = Instant::now();
    let (mut lat_ms, mut failed, mut mismatch) = (Vec::new(), 0u64, None);
    for pair in &pairs {
        let t = Instant::now();
        let verdict = check_plain(&defs, pair);
        lat_ms.push(Json::num(t.elapsed().as_secs_f64() * 1e3));
        match verdict {
            Ok(holds) if holds != pair.expected => {
                mismatch = Some(describe(pair, holds));
                break;
            }
            Ok(_) => {}
            Err(_) => failed += 1,
        }
    }
    let loop_s = t0.elapsed().as_secs_f64();
    let cpu_s = crate::sys::cpu_s(None).unwrap_or(0.0) - cpu0;
    Json::obj(vec![
        ("latency_ms", Json::Arr(lat_ms)),
        ("failed", Json::num(failed as f64)),
        ("mismatch", mismatch.map_or(Json::Null, Json::str)),
        ("loop_s", Json::num(loop_s)),
        ("cpu_s", Json::num(cpu_s)),
        (
            "peak_rss_mb",
            Json::num(crate::sys::peak_rss_mb(None).unwrap_or(0.0)),
        ),
    ])
}

/// Spawns one batch child; returns its set-up time and its report.
fn run_batch(w: Workload, seed: u64, batch: u64) -> Result<(f64, Json), String> {
    let t0 = Instant::now();
    let mut child = spawn_self(&[
        "batch",
        "--workload",
        w.name(),
        "--seed",
        &seed.to_string(),
        "--batch",
        &batch.to_string(),
    ])?;
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let ready = lines.next().and_then(Result::ok);
    let setup_s = t0.elapsed().as_secs_f64();
    let report = lines.map_while(Result::ok).last();
    let status = child.wait().map_err(|e| e.to_string())?;
    match (ready.as_deref(), report, status.success()) {
        (Some("READY"), Some(line), true) => Ok((setup_s, bpi_server::json::parse(&line)?)),
        _ => Err(format!("batch child {batch} failed ({status})")),
    }
}

/// The timed run: whole batches, started until `seconds` have passed.
/// Each rate is the median over batches, so a batch slowed by other
/// load on the host moves it less than a pooled total would.
pub fn timed(w: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let limit = Duration::from_secs(seconds);
    let t0 = Instant::now();
    let (mut setups, mut lat, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rates, mut cpu, mut p50s) = (Vec::new(), Vec::new(), Vec::new());
    let mut failed = 0u64;
    while t0.elapsed() < limit {
        let (setup, r) = run_batch(w, seed, setups.len() as u64)?;
        setups.push(setup);
        if let Some(m) = r.str_field("mismatch") {
            return Err(format!("wrong verdict: {m}"));
        }
        let num = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let batch: Vec<f64> = r
            .get("latency_ms")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        let n = batch.len() as f64;
        rates.push(n / num("loop_s"));
        cpu.push(num("cpu_s") * 1e3 / n);
        p50s.push(median(&batch));
        rss.push(num("peak_rss_mb"));
        failed += num("failed") as u64;
        lat.extend(batch);
    }
    let checks = lat.len() as f64;
    let (tail_ms, tail_pct) =
        tail(&lat).ok_or("too few checks for a tail percentile; raise --seconds")?;
    Ok(Outcome {
        attempted: lat.len() as u64,
        failed,
        metrics: vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("checks_per_s", median(&rates), "1/s"),
            Metric::new("latency_p50_ms", median(&p50s), "ms"),
            Metric::new("latency_tail_ms", tail_ms, "ms"),
            Metric::new("cpu_ms_per_check", median(&cpu), "ms"),
            Metric::new("peak_rss_mb", median(&rss), "MB"),
            Metric::new(
                "verdict_frac",
                (checks - failed as f64) / checks,
                "fraction",
            ),
        ],
        report: vec![
            ("latency_tail_percentile", Json::num(tail_pct)),
            ("latency_samples", Json::num(checks)),
            ("batches", Json::num(setups.len() as f64)),
            ("run_s", Json::num(t0.elapsed().as_secs_f64())),
        ],
        correct: true,
    })
}
