//! Spans the benchmark records around its own calls into each layer.
//!
//! A span has a name, a start and an end (host nanoseconds since the
//! recorder was made), the span that caused it, and the unit it belongs
//! to. Spans stay in memory and are written out once, at the end of the
//! run, as a Chrome/Perfetto trace through `bench::trace`. With the
//! recorder off (every end-to-end run) `timed` only reads the clock.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sldl_sim::{Record, RecordKind, SimTime};

/// Index of a recorded span (`NONE` when the recorder is off).
pub type SpanId = usize;

/// The id returned while recording is off, and the parent of root spans.
pub const NONE: SpanId = usize::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    lane: String,
    start: u64,
    end: u64,
    parent: SpanId,
    unit: u64,
}

/// In-memory span recorder shared by the benchmark's threads.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    on: bool,
    spans: Mutex<Vec<Span>>,
}

/// Per-name totals derived from the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration.
    pub total: Duration,
    /// Summed duration not covered by child spans.
    pub self_time: Duration,
}

impl Spans {
    /// A recorder; `on` selects whether spans are kept.
    #[must_use]
    pub fn new(on: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            on,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span on `lane` (one lane per benchmark thread).
    pub fn open(&self, name: &'static str, lane: &str, parent: SpanId, unit: u64) -> SpanId {
        if !self.on {
            return NONE;
        }
        let start = self.now_ns();
        let mut spans = self.spans.lock().expect("span recorder lock poisoned");
        spans.push(Span {
            name,
            lane: lane.to_string(),
            start,
            end: start,
            parent,
            unit,
        });
        spans.len() - 1
    }

    /// Closes a span opened by [`open`](Self::open).
    pub fn close(&self, id: SpanId) {
        if id == NONE {
            return;
        }
        let end = self.now_ns();
        let mut spans = self.spans.lock().expect("span recorder lock poisoned");
        spans[id].end = end;
    }

    /// Runs `f` inside a span and returns its result with its host time.
    /// The time is measured whether or not spans are kept.
    pub fn timed<R>(
        &self,
        name: &'static str,
        lane: &str,
        parent: SpanId,
        unit: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> (R, Duration) {
        let id = self.open(name, lane, parent, unit);
        let started = Instant::now();
        let r = f(id);
        let took = started.elapsed();
        self.close(id);
        (r, took)
    }

    /// Number of spans kept.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span recorder lock poisoned")
            .len()
    }

    /// Whether no span was kept.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count, total and self time per span name. A span's self time is
    /// its duration less the part of it that its children cover.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let spans = self.spans.lock().expect("span recorder lock poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if s.parent != NONE {
                children[s.parent].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            let covered = union_within(kids, s.start, s.end);
            let entry = out.entry(s.name).or_default();
            entry.count += 1;
            entry.total += Duration::from_nanos(s.end - s.start);
            entry.self_time += Duration::from_nanos(s.end - s.start - covered);
        }
        out
    }

    /// The spans as trace records: one track per `(lane, name)`, so
    /// nested and parallel spans never share a track. Labels carry the
    /// unit and the parent span.
    #[must_use]
    pub fn records(&self) -> Vec<Record> {
        let spans = self.spans.lock().expect("span recorder lock poisoned");
        // (time, closes-before-opens, sequence) orders the records; every
        // span lasts at least 1 ns so its own end never precedes its start.
        let mut keyed: Vec<(u64, u8, usize, RecordKind)> = Vec::with_capacity(spans.len() * 2);
        for (id, s) in spans.iter().enumerate() {
            let track = format!("{}:{}", s.lane, s.name);
            let parent = if s.parent == NONE {
                "-".to_string()
            } else {
                format!("#{}", s.parent)
            };
            keyed.push((
                s.start,
                1,
                id,
                RecordKind::SpanBegin {
                    track: track.clone(),
                    label: format!("{} #{id} unit={} parent={parent}", s.name, s.unit),
                },
            ));
            keyed.push((s.end.max(s.start + 1), 0, id, RecordKind::SpanEnd { track }));
        }
        keyed.sort_by_key(|(t, order, id, _)| (*t, *order, *id));
        keyed
            .into_iter()
            .map(|(t, _, _, kind)| Record {
                time: SimTime::from_nanos(t),
                kind,
            })
            .collect()
    }

    /// Writes the spans as a Chrome/Perfetto trace; returns the number of
    /// trace events written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<usize> {
        bench::trace::write_chrome_trace(path, &self.records())
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlaps_once_and_clips() {
        let mut iv = vec![(5, 10), (0, 3), (8, 20), (25, 40)];
        assert_eq!(union_within(&mut iv, 2, 30), 1 + 15 + 5);
    }

    #[test]
    fn self_time_excludes_children() {
        let spans = Spans::new(true);
        let (_, outer) = spans.timed("unit", "main", NONE, 0, |id| {
            spans.timed("run", "main", id, 0, |_| {
                std::thread::sleep(Duration::from_millis(2));
            });
        });
        let t = spans.self_times();
        assert_eq!(t["unit"].count, 1);
        assert!(t["unit"].self_time < outer);
        assert!(t["run"].total >= Duration::from_millis(2));
        assert_eq!(t["run"].self_time, t["run"].total);
        assert_eq!(spans.records().len(), 4);
    }

    #[test]
    fn off_recorder_keeps_nothing() {
        let spans = Spans::new(false);
        let (v, _) = spans.timed("unit", "main", NONE, 0, |id| {
            assert_eq!(id, NONE);
            7
        });
        assert_eq!(v, 7);
        assert!(spans.is_empty());
    }
}
