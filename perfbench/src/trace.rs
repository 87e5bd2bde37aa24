//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-time arithmetic that attributes time to layers.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! job it belongs to. Spans stay in memory until the run ends. A span's
//! self time is its duration minus the part of its interval that its
//! child spans cover, so overlapping children (two client threads under
//! one phase) are not subtracted twice.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

/// Collects spans in memory. A recorder made with [`Recorder::off`]
/// keeps nothing, so the untraced runs share the traced code paths.
pub struct Recorder {
    origin: Instant,
    on: bool,
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            origin: Instant::now(),
            on: true,
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    pub fn off() -> Recorder {
        Recorder {
            on: false,
            ..Recorder::default()
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, job: u64) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            job,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if self.on {
            self.spans[id].end = self.now();
        }
    }

    /// Adds a span timed elsewhere, such as on another thread.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        job: u64,
    ) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: ns(start),
            end: ns(end),
            parent,
            job,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, job);
        let out = f();
        self.close(id);
        out
    }
}

impl Recorder {
    /// Writes every span as one JSON line: name, start and end in
    /// nanoseconds from the recorder's origin, parent index and job id.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use bpi_server::Json;
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj(vec![
                ("name", Json::str(s.name)),
                ("start_ns", Json::num(s.start as f64)),
                ("end_ns", Json::num(s.end as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                ),
                ("job", Json::num(s.job as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span, in nanoseconds, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end - s.start) - covered(kids, s.start, s.end))
        .collect()
}

/// Total self time and span count per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, usize)> {
    let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += t;
        e.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            job: 0,
        }
    }

    #[test]
    fn nested_children_subtract_only_from_their_parent() {
        let spans = [
            span("check", 0, 100, None),
            span("build", 10, 60, Some(0)),
            span("freeze", 20, 30, Some(1)),
            span("refine", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 10, 30]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span("phase", 0, 100, None),
            span("roundtrip", 10, 50, Some(0)),
            span("roundtrip", 30, 70, Some(0)),
            span("roundtrip", 80, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 40, 10]);
        let names = by_name(&spans);
        assert_eq!(names["roundtrip"], (90, 3));
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span("a", 10, 20, None),
            span("b", 0, 15, Some(0)),
            span("c", 18, 40, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 3);
    }

    #[test]
    fn recorder_nests_by_parent_id() {
        let mut r = Recorder::default();
        let root = r.open("check", None, 7);
        let v = r.time("parse", Some(root), 7, || 41 + 1);
        r.close(root);
        assert_eq!(v, 42);
        assert_eq!(r.spans[1].parent, Some(root));
        assert!(r.spans[0].start <= r.spans[1].start && r.spans[1].end <= r.spans[0].end);
        let st = self_times(&r.spans);
        assert_eq!(st[0] + st[1], r.spans[0].end - r.spans[0].start);
        let mut off = Recorder::off();
        let id = off.open("check", None, 1);
        off.close(id);
        assert!(off.spans.is_empty());
    }
}
