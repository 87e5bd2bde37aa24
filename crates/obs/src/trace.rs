//! Structured tracing: a process-global [`TraceSink`] slot behind an
//! atomic fast flag, JSON-lines and in-memory collectors, and
//! span-scoped timers.
//!
//! The hot-path contract: with no sink installed, [`emit`] is one
//! relaxed atomic load and a branch — the field closure is never
//! called. `BPI_TRACE=json` installs a JSON-lines sink on stderr the
//! first time any instrumented code asks whether tracing is enabled,
//! so every binary in the workspace (tests included) can be traced via
//! the environment alone.

use crate::metrics::histogram;
use parking_lot::{Mutex, RwLock};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, OnceLock};
use std::time::Instant;

/// A typed field value carried by a [`TraceEvent`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl Value {
    /// Renders the value as a JSON fragment.
    fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::F64(v) => {
                if v.is_finite() {
                    out.push_str(&v.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", c as u32));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

/// One structured event: a `target` (the subsystem, e.g. `equiv.graph`),
/// an event `name`, and typed fields.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    pub target: &'static str,
    pub name: &'static str,
    pub fields: Vec<(&'static str, Value)>,
}

impl TraceEvent {
    /// One JSON object, no trailing newline.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"target\":\"");
        out.push_str(self.target);
        out.push_str("\",\"event\":\"");
        out.push_str(self.name);
        out.push('"');
        for (k, v) in &self.fields {
            out.push_str(",\"");
            out.push_str(k);
            out.push_str("\":");
            v.write_json(&mut out);
        }
        out.push('}');
        out
    }

    /// The value of the named field, if present.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Consumer of trace events. Implementations must tolerate concurrent
/// calls: the daemon runs jobs on several worker threads.
pub trait TraceSink: Send + Sync {
    fn event(&self, ev: &TraceEvent);
    fn flush(&self) {}
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static SINK: LazyLock<RwLock<Option<Arc<dyn TraceSink>>>> = LazyLock::new(|| RwLock::new(None));
static ENV_INIT: OnceLock<()> = OnceLock::new();

fn init_from_env() {
    if matches!(std::env::var("BPI_TRACE").as_deref(), Ok("json")) {
        // Not `install_sink`: it touches `ENV_INIT`, whose initializer
        // this is, and a reentrant `get_or_init` blocks forever.
        set_sink(Arc::new(JsonLinesSink::stderr()));
    }
}

fn set_sink(sink: Arc<dyn TraceSink>) {
    *SINK.write() = Some(sink);
    ACTIVE.store(true, Ordering::Release);
}

/// Whether a sink is installed (the fast-path check every instrumented
/// site performs). First call consults `BPI_TRACE`.
#[inline]
pub fn tracing_enabled() -> bool {
    ENV_INIT.get_or_init(init_from_env);
    ACTIVE.load(Ordering::Relaxed)
}

/// Installs `sink` as the process-global trace sink, replacing any
/// previous one. An explicit install wins over `BPI_TRACE`: the env
/// sink is only ever auto-installed before the first explicit call.
pub fn install_sink(sink: Arc<dyn TraceSink>) {
    ENV_INIT.get_or_init(|| ()); // suppress later BPI_TRACE re-install
    set_sink(sink);
}

/// Removes the global sink (flushing it first); tracing reverts to the
/// disabled fast path.
pub fn clear_sink() {
    ENV_INIT.get_or_init(|| ()); // suppress later BPI_TRACE re-install
    ACTIVE.store(false, Ordering::Release);
    let prev = SINK.write().take();
    if let Some(s) = prev {
        s.flush();
    }
}

/// Emits an event if a sink is installed. `fields` is only evaluated on
/// the slow path, so call sites may close over expensive formatting.
#[inline]
pub fn emit(
    target: &'static str,
    name: &'static str,
    fields: impl FnOnce() -> Vec<(&'static str, Value)>,
) {
    if !tracing_enabled() {
        return;
    }
    emit_slow(target, name, fields());
}

#[cold]
fn emit_slow(target: &'static str, name: &'static str, fields: Vec<(&'static str, Value)>) {
    let sink = SINK.read().clone();
    if let Some(sink) = sink {
        sink.event(&TraceEvent {
            target,
            name,
            fields,
        });
    }
}

/// JSON-lines sink: one event per line on an arbitrary writer, with a
/// monotone `seq` field so interleaved worker output can be ordered.
pub struct JsonLinesSink {
    out: Mutex<Box<dyn Write + Send>>,
    seq: AtomicU64,
}

impl JsonLinesSink {
    pub fn new(out: Box<dyn Write + Send>) -> JsonLinesSink {
        JsonLinesSink {
            out: Mutex::new(out),
            seq: AtomicU64::new(0),
        }
    }

    pub fn stderr() -> JsonLinesSink {
        JsonLinesSink::new(Box::new(std::io::stderr()))
    }

    pub fn to_file(path: &std::path::Path) -> std::io::Result<JsonLinesSink> {
        Ok(JsonLinesSink::new(Box::new(std::io::BufWriter::new(
            std::fs::File::create(path)?,
        ))))
    }
}

impl TraceSink for JsonLinesSink {
    fn event(&self, ev: &TraceEvent) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let body = ev.to_json();
        // Splice the seq in front: {"seq":N,...rest}.
        let mut line = String::with_capacity(body.len() + 16);
        line.push_str("{\"seq\":");
        line.push_str(&seq.to_string());
        line.push(',');
        line.push_str(&body[1..]);
        line.push('\n');
        let mut out = self.out.lock();
        let _ = out.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = self.out.lock().flush();
    }
}

/// In-memory sink for tests and the `observe` example.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    pub fn new() -> Arc<MemorySink> {
        Arc::new(MemorySink::default())
    }

    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out the captured events.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Drains the captured events.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events.lock())
    }

    pub fn clear(&self) {
        self.events.lock().clear();
    }
}

impl TraceSink for MemorySink {
    fn event(&self, ev: &TraceEvent) {
        self.events.lock().push(ev.clone());
    }
}

/// A one-line configuration warning: printed to stderr **once per
/// distinct (target, message) per process** and mirrored as a trace
/// event (`name = "warn"`) when a sink is installed, so misread
/// environment knobs (`BPI_COMPOSE`, `BPI_CHAOS`, …) surface exactly
/// once instead of silently falling back — or flooding a hot loop.
/// Returns whether this call was the first occurrence (tests use the
/// return value to probe the dedup without scraping stderr).
pub fn warn_once(target: &'static str, message: &str) -> bool {
    static SEEN: LazyLock<Mutex<std::collections::BTreeSet<String>>> =
        LazyLock::new(|| Mutex::new(std::collections::BTreeSet::new()));
    let key = format!("{target}: {message}");
    let fresh = SEEN.lock().insert(key);
    if fresh {
        eprintln!("warning: {target}: {message}");
        emit(target, "warn", || vec![("message", Value::from(message))]);
    }
    fresh
}

/// A span-scoped timer: on drop it records the elapsed microseconds in
/// the advisory histogram `"<target>.<name>.us"` and, when tracing,
/// emits a `span` event. When both metrics and tracing are off the
/// clock is never read.
pub struct Span {
    target: &'static str,
    name: &'static str,
    start: Option<Instant>,
}

/// Opens a span over `target`/`name`. Hold the returned guard for the
/// region's lifetime.
pub fn span(target: &'static str, name: &'static str) -> Span {
    let live = crate::metrics::metrics_enabled() || tracing_enabled();
    Span {
        target,
        name,
        start: live.then(Instant::now),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let us = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        histogram(&format!("{}.{}.us", self.target, self.name)).record(us);
        let (target, name) = (self.target, self.name);
        emit(target, "span", || {
            vec![
                ("name", Value::Str(name.to_string())),
                ("us", Value::U64(us)),
            ]
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sink slot is process-global; serialise sink-swapping tests.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn memory_sink_captures_and_fast_path_skips() {
        let _g = LOCK.lock();
        let mem = MemorySink::new();
        install_sink(mem.clone());
        emit("obs.test", "hello", || vec![("n", Value::U64(7))]);
        clear_sink();
        // Disabled: the closure must not run.
        emit("obs.test", "after", || {
            panic!("field closure ran while disabled")
        });
        let evs = mem.take();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].target, "obs.test");
        assert_eq!(evs[0].name, "hello");
        assert_eq!(evs[0].field("n"), Some(&Value::U64(7)));
    }

    #[test]
    fn warn_once_dedups_and_traces() {
        let _g = LOCK.lock();
        let mem = MemorySink::new();
        install_sink(mem.clone());
        assert!(warn_once("obs.test", "first occurrence warns"));
        assert!(
            !warn_once("obs.test", "first occurrence warns"),
            "an identical message is deduplicated"
        );
        assert!(
            warn_once("obs.test2", "first occurrence warns"),
            "dedup is keyed per (target, message)"
        );
        clear_sink();
        let evs = mem.take();
        assert_eq!(evs.len(), 2, "one trace event per fresh warning");
        assert_eq!(evs[0].name, "warn");
        assert_eq!(
            evs[0].field("message"),
            Some(&Value::Str("first occurrence warns".to_string()))
        );
    }

    #[test]
    fn json_escaping_and_shape() {
        let ev = TraceEvent {
            target: "t",
            name: "e",
            fields: vec![
                ("s", Value::Str("a\"b\\c\nd".to_string())),
                ("f", Value::F64(1.5)),
                ("b", Value::Bool(true)),
                ("i", Value::I64(-3)),
            ],
        };
        assert_eq!(
            ev.to_json(),
            r#"{"target":"t","event":"e","s":"a\"b\\c\nd","f":1.5,"b":true,"i":-3}"#
        );
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_event() {
        let _g = LOCK.lock();
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = Arc::new(JsonLinesSink::new(Box::new(Shared(buf.clone()))));
        install_sink(sink);
        emit("obs.test", "a", Vec::new);
        emit("obs.test", "b", || vec![("k", Value::from("v"))]);
        clear_sink();
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"seq\":0,"), "{}", lines[0]);
        assert!(lines[1].contains("\"k\":\"v\""), "{}", lines[1]);
    }

    #[test]
    fn span_records_histogram_and_event() {
        let _g = LOCK.lock();
        let mem = MemorySink::new();
        install_sink(mem.clone());
        let h = crate::metrics::histogram("obs.test-span.work.us");
        let before = h.count();
        {
            let _s = span("obs.test-span", "work");
        }
        clear_sink();
        assert_eq!(h.count(), before + 1);
        let evs = mem.take();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, "span");
        assert!(evs[0].field("us").is_some());
    }
}
