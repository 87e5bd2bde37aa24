//! The `served` workload: the `bpi-server` daemon in its own process at
//! its default scheduler settings, two blocking clients in a closed loop
//! sending `check` jobs from the seeded job stream, then a restart on the
//! same journal that must re-serve every verdict byte for byte.

use crate::gen::{Job, JobStream};
use crate::stats::{median, tail};
use crate::trace::Recorder;
use crate::{describe, Metric, Outcome};
use bpi_server::{json, Client, Journal, Json};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Blocking clients in the closed loop: one per CPU of the 2-CPU host
/// the workload was sized on.
const CLIENTS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Jobs per group: three blocks of the job stream, which repeat every
/// fresh shape once, so every group holds the same work. Each rate is the
/// median over groups, so a stretch slowed by other load on the host
/// moves it less than a pooled total would, and no group's rate depends
/// on which jobs it happened to contain.
const GROUP: usize = 3 * (crate::gen::SERVED_FRESH.len() + crate::gen::SERVED_REPEATS);

/// Jobs answered when the daemon's peak RSS is read. Its memos grow with
/// every fresh job, so the reading is taken at a fixed amount of work,
/// not at however many jobs the host's speed allowed.
const RSS_AT_JOBS: usize = 256;

/// Journal records the traced run replays through `Journal` appends.
const JOURNAL_REPLAY_JOBS: usize = 128;

/// A daemon child process, killed on drop if it is still running.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(bin: &Path, journal: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .arg("--journal")
            .arg(journal)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
        let addr = read
            .ok()
            .and_then(|_| line.trim().strip_prefix("LISTENING ")?.parse().ok());
        match addr {
            Some(addr) => Ok(Daemon { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("bpi-server did not start: {line:?}"))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `shutdown` and waits for the process to end.
    fn stop(mut self) -> Result<(), String> {
        let mut c = Client::connect(self.addr).map_err(|e| e.to_string())?;
        c.shutdown().map_err(|e| e.to_string())?;
        drop(c);
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(30) {
            if self.child.try_wait().map_err(|e| e.to_string())?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("bpi-server did not stop within 30 s".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn connect(d: &Daemon) -> Result<Client, String> {
    Client::connect(d.addr).map_err(|e| e.to_string())
}

/// One set-up: generate the first inputs, start the daemon on an empty
/// journal and connect the clients. Returns its time in seconds.
fn set_up(
    bin: &Path,
    journal: &Path,
    seed: u64,
) -> Result<(f64, JobStream, Daemon, Vec<Client>), String> {
    let _ = std::fs::remove_dir_all(journal);
    let t0 = Instant::now();
    let mut stream = JobStream::new(seed);
    stream.fill();
    let daemon = Daemon::spawn(bin, journal)?;
    let clients = (0..CLIENTS)
        .map(|_| connect(&daemon))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((t0.elapsed().as_secs_f64(), stream, daemon, clients))
}

/// A finished job as the client saw it.
struct Done {
    job: Job,
    request: String,
    response: String,
    start: Instant,
    end: Instant,
    /// The daemon's CPU seconds when the response arrived.
    cpu_s: f64,
}

fn request(job: &Job) -> Json {
    Json::obj(vec![
        ("op", Json::str("check")),
        ("id", Json::str(job.id.as_str())),
        (
            "variant",
            Json::str(bpi_server::protocol::variant_to_str(job.pair.shape.variant)),
        ),
        ("left", Json::str(job.pair.left.as_str())),
        ("right", Json::str(job.pair.right.as_str())),
    ])
}

/// The closed loop: each client takes the next job, sends it and waits
/// for the verdict, until `limit` has passed since `t0`. The daemon's CPU
/// seconds are read after every response, and its peak RSS once
/// [`RSS_AT_JOBS`] jobs have been answered.
fn live(
    clients: Vec<Client>,
    stream: JobStream,
    t0: Instant,
    limit: Duration,
    pid: u32,
) -> Result<(Vec<Done>, u64, Option<f64>), String> {
    let stream = Mutex::new(stream);
    let stop = AtomicBool::new(false);
    let answered = AtomicUsize::new(0);
    let rss = Mutex::new(None);
    let results: Vec<Result<(Vec<Done>, u64), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut c| {
                let (stream, stop, answered, rss) = (&stream, &stop, &answered, &rss);
                s.spawn(move || {
                    let (mut done, mut failed) = (Vec::new(), 0u64);
                    while t0.elapsed() < limit && !stop.load(Ordering::SeqCst) {
                        let job = stream.lock().expect("job stream lock").next_job();
                        let req = request(&job);
                        let start = Instant::now();
                        let resp = c.roundtrip(&req);
                        let end = Instant::now();
                        let cpu_s = crate::sys::cpu_s(Some(pid)).map_err(|e| e.to_string())?;
                        if answered.fetch_add(1, Ordering::SeqCst) + 1 == RSS_AT_JOBS {
                            *rss.lock().expect("rss lock") =
                                crate::sys::peak_rss_mb(Some(pid)).ok();
                        }
                        let resp = resp.map_err(|e| format!("job {}: {e}", job.id))?;
                        match (
                            resp.str_field("status"),
                            resp.get("holds").and_then(Json::as_bool),
                        ) {
                            (Some("ok"), Some(holds)) if holds != job.pair.expected => {
                                stop.store(true, Ordering::SeqCst);
                                return Err(format!(
                                    "wrong verdict: {}",
                                    describe(&job.pair, holds)
                                ));
                            }
                            (Some("ok"), Some(_)) => {}
                            _ => failed += 1,
                        }
                        done.push(Done {
                            job,
                            request: req.to_string(),
                            response: resp.to_string(),
                            start,
                            end,
                            cpu_s,
                        });
                    }
                    Ok((done, failed))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut all = Vec::new();
    let mut failed = 0;
    for r in results {
        let (d, f) = r?;
        all.extend(d);
        failed += f;
    }
    all.sort_by_key(|d| d.job.index);
    Ok((all, failed, rss.into_inner().expect("rss lock")))
}

/// Restarts the daemon on `journal` and fetches every id with `result`;
/// each response must be byte-identical to the live one. Returns the
/// time from spawn until the last verdict was re-served.
fn restart_check(bin: &Path, journal: &Path, done: &[Done]) -> Result<f64, String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(bin, journal)?;
    let mut c = connect(&daemon)?;
    for d in done {
        let again = c
            .result_of(&d.job.id)
            .map_err(|e| e.to_string())?
            .to_string();
        if again != d.response {
            return Err(format!(
                "restart re-served {} as {again}, live was {}",
                d.job.id, d.response
            ));
        }
    }
    let recover_s = t0.elapsed().as_secs_f64();
    drop(c);
    daemon.stop()?;
    Ok(recover_s)
}

fn stat_num(stats: &Json, group: &str, name: &str, field: Option<&str>) -> f64 {
    let v = stats.get(group).and_then(|g| g.get(name));
    let v = match field {
        Some(f) => v.and_then(|h| h.get(f)),
        None => v,
    };
    v.and_then(Json::as_f64).unwrap_or(0.0)
}

/// What a served run measured, before it becomes metrics.
struct Live {
    setups: Vec<f64>,
    done: Vec<Done>,
    failed: u64,
    phase: (Instant, Instant),
    cpu0: f64,
    peak_rss_mb: f64,
    stats: Json,
    recover_s: f64,
}

fn run_live(bin: &Path, dir: &Path, seed: u64, seconds: u64) -> Result<Live, String> {
    let journal = dir.join("journal");
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        let (s, _, daemon, clients) = set_up(bin, &journal, seed)?;
        setups.push(s);
        drop(clients);
        daemon.stop()?;
    }
    let (s, stream, daemon, clients) = set_up(bin, &journal, seed)?;
    setups.push(s);
    let cpu0 = crate::sys::cpu_s(Some(daemon.pid())).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let (done, failed, rss) = live(
        clients,
        stream,
        t0,
        Duration::from_secs(seconds),
        daemon.pid(),
    )?;
    let phase = (t0, Instant::now());
    let peak_rss_mb = rss.ok_or(format!(
        "fewer than {RSS_AT_JOBS} jobs answered; raise --seconds"
    ))?;
    let stats = connect(&daemon)?.stats().map_err(|e| e.to_string())?;
    daemon.stop()?;
    let recover_s = restart_check(bin, &journal, &done)?;
    Ok(Live {
        setups,
        done,
        failed,
        phase,
        cpu0,
        peak_rss_mb,
        stats,
        recover_s,
    })
}

/// The timed run.
pub fn timed(bin: &Path, dir: &Path, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let l = run_live(bin, dir, seed, seconds)?;
    let ms = |d: &Done| (d.end - d.start).as_secs_f64() * 1e3;
    let lat: Vec<f64> = l.done.iter().map(ms).collect();
    let n = lat.len() as f64;
    let (tail_ms, tail_pct) =
        tail(&lat).ok_or("too few jobs for a tail percentile; raise --seconds")?;
    // Groups of consecutive jobs tile the phase: each ends when its last
    // job is answered, and its time and CPU run from the previous end.
    let (mut rates, mut cpu, mut p50s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut from, mut cpu_from) = (l.phase.0, l.cpu0);
    for group in l.done.chunks_exact(GROUP) {
        let last = group.iter().max_by_key(|d| d.end).expect("non-empty group");
        rates.push(GROUP as f64 / (last.end - from).as_secs_f64());
        cpu.push((last.cpu_s - cpu_from) * 1e3 / GROUP as f64);
        p50s.push(median(&group.iter().map(ms).collect::<Vec<_>>()));
        (from, cpu_from) = (last.end, last.cpu_s);
    }
    if rates.is_empty() {
        return Err(format!("fewer than {GROUP} jobs answered; raise --seconds"));
    }
    Ok(Outcome {
        correct: true,
        attempted: l.done.len() as u64,
        failed: l.failed,
        metrics: vec![
            Metric::new("setup_s", median(&l.setups), "s"),
            Metric::new("checks_per_s", median(&rates), "1/s"),
            Metric::new("latency_p50_ms", median(&p50s), "ms"),
            Metric::new("latency_tail_ms", tail_ms, "ms"),
            Metric::new("cpu_ms_per_check", median(&cpu), "ms"),
            Metric::new("peak_rss_mb", l.peak_rss_mb, "MB"),
            Metric::new("verdict_frac", (n - l.failed as f64) / n, "fraction"),
        ],
        report: vec![
            ("latency_tail_percentile", Json::num(tail_pct)),
            ("latency_samples", Json::num(n)),
            (
                "repeats",
                Json::num(l.done.iter().filter(|d| d.job.repeat).count() as f64),
            ),
            ("restart_reserved", Json::num(n)),
            ("restart_s", Json::num(l.recover_s)),
            ("setup_samples", Json::num(l.setups.len() as f64)),
            ("groups", Json::num(rates.len() as f64)),
            (
                "run_s",
                Json::num((l.phase.1 - l.phase.0).as_secs_f64() + l.recover_s),
            ),
        ],
    })
}

/// The live part of the traced run: the same phase with a span per
/// round trip, the daemon's own counters, and replays of the run's
/// journal records and protocol lines through `Journal` and `json`.
pub fn traced_live(
    bin: &Path,
    dir: &Path,
    seed: u64,
    seconds: u64,
    spans: &Path,
) -> Result<(BTreeMap<&'static str, f64>, u64, u64), String> {
    let mut rec = Recorder::default();
    let l = run_live(bin, dir, seed, seconds)?;
    let phase = rec.push("served.phase", l.phase.0, l.phase.1, None, 0);
    for (i, d) in l.done.iter().enumerate() {
        rec.push("server.roundtrip", d.start, d.end, Some(phase), i as u64);
    }
    rec.write_jsonl(spans).map_err(|e| e.to_string())?;
    let layers = crate::trace::by_name(&rec.spans);
    let n = l.done.len().max(1) as f64;
    let mut m = BTreeMap::new();
    m.insert(
        "server.roundtrip.ms",
        layers
            .get("server.roundtrip")
            .map_or(0.0, |&(ns, c)| ns as f64 / 1e6 / c as f64),
    );
    let completed = stat_num(&l.stats, "counters", "server.completed", None).max(1.0);
    let wait_ms = stat_num(&l.stats, "histograms", "server.latency_ms", Some("sum"))
        - stat_num(&l.stats, "histograms", "server.slice_ms", Some("sum"));
    m.insert("server.queue_wait.ms", wait_ms / completed);
    for name in ["server.admitted", "server.rejected", "server.preempted"] {
        m.insert(name, stat_num(&l.stats, "counters", name, None));
    }
    for (metric, memo) in [
        ("semantics.memo.step.hit_ratio", "semantics.memo.step"),
        ("semantics.memo.norm.hit_ratio", "semantics.memo.norm"),
        ("semantics.memo.input.hit_ratio", "semantics.memo.input"),
        ("equiv.graph.memo.hit_ratio", "equiv.graph.memo"),
    ] {
        let hits = stat_num(&l.stats, "counters", &format!("{memo}.hits"), None);
        let misses = stat_num(&l.stats, "counters", &format!("{memo}.misses"), None);
        m.insert(metric, crate::ratio(hits, hits + misses));
    }
    m.insert("server.journal.recover.ms", l.recover_s * 1e3);

    // Journal appends of this run's records, into a journal of our own.
    let replay_dir = dir.join("journal-replay");
    let _ = std::fs::remove_dir_all(&replay_dir);
    let j = Journal::open(&replay_dir).map_err(|e| e.to_string())?;
    let recs = l
        .done
        .iter()
        .take(JOURNAL_REPLAY_JOBS)
        .map(|d| {
            Ok((
                d.job.id.as_str(),
                json::parse(&d.request)?,
                json::parse(&d.response)?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let t = Instant::now();
    for (id, req, resp) in &recs {
        j.record_admitted(id, req).map_err(|e| e.to_string())?;
        j.record_done(id, resp).map_err(|e| e.to_string())?;
    }
    let appends = (2 * recs.len()).max(1) as f64;
    m.insert(
        "server.journal.append.ms",
        t.elapsed().as_secs_f64() * 1e3 / appends,
    );
    drop(j);
    let _ = std::fs::remove_dir_all(&replay_dir);

    // The protocol codec on every line the run sent and received.
    let t = Instant::now();
    let mut bytes = 0;
    for d in &l.done {
        for line in [&d.request, &d.response] {
            bytes += std::hint::black_box(json::parse(line)?.to_string()).len();
        }
    }
    std::hint::black_box(bytes);
    m.insert(
        "server.json.ms",
        t.elapsed().as_secs_f64() * 1e3 / (2.0 * n),
    );
    Ok((m, l.done.len() as u64, l.failed))
}

/// A scratch directory for this run's journals, inside `state`.
pub fn run_dir(state: &Path) -> PathBuf {
    state.join(format!("served-{}", std::process::id()))
}
