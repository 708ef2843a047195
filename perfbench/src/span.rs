//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from outside the program, around calls into a
//! layer's public functions: `id, parent, name, start_ns, end_ns` on one
//! monotonic clock. They stay in memory until the run ends. A span's self
//! time is its duration minus the part of it that its children cover
//! (children of one parent may overlap when client threads run side by
//! side, so coverage is the union of their intervals).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Identifier of a recorded span; 0 means "no parent".
pub type SpanId = u64;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Single-threaded recorder. Client threads each own one (made with
/// [`Recorder::fork`]) and the main recorder absorbs them at join.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Off in untraced runs: the clock still serves latency stamps, but
    /// nothing is stored.
    enabled: bool,
    spans: Vec<Span>,
    next_id: SpanId,
    forks: u64,
}

/// Id space reserved for each forked recorder.
const FORK_ID_STRIDE: SpanId = 1 << 40;

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            next_id: 1,
            forks: 0,
        }
    }

    /// A recorder on the same clock, for one client thread, whose ids
    /// cannot collide with this recorder's or with another fork's.
    pub fn fork(&mut self, capacity: usize) -> Recorder {
        self.forks += 1;
        Recorder {
            epoch: self.epoch,
            enabled: self.enabled,
            spans: Vec::with_capacity(if self.enabled { capacity } else { 0 }),
            next_id: self.forks * FORK_ID_STRIDE,
            forks: 0,
        }
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let now = self.now_ns();
        self.record(name, parent, now, now)
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: SpanId) {
        if id == 0 {
            return;
        }
        let now = self.now_ns();
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.end_ns = now;
        }
    }

    /// Records a finished span from stamps the caller already took (the
    /// same stamps its latency sample uses, so tracing adds one push).
    /// Returns 0, the "no parent" id, when recording is off.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Takes over a forked recorder's spans.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals_by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

/// Self time of each span, in input order: duration minus the union of
/// its direct children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let duration = s.end_ns - s.start_ns;
            let Some(kids) = children.get_mut(&s.id) else {
                return duration;
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            duration - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 90)];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two client threads' ops overlap under one phase root.
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 40, 80)];
        assert_eq!(self_times(&spans)[0], 30, "union covers 10..80");
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span(1, 0, 10, 50), span(2, 1, 0, 20), span(3, 1, 40, 70)];
        assert_eq!(self_times(&spans)[0], 20, "only 10..20 and 40..50 covered");
    }

    #[test]
    fn grandchildren_do_not_reduce_the_grandparent_twice() {
        let spans = [span(1, 0, 0, 100), span(2, 1, 0, 80), span(3, 2, 10, 20)];
        assert_eq!(self_times(&spans), vec![20, 70, 10]);
    }

    #[test]
    fn forks_share_the_clock_and_never_collide() {
        let mut main = Recorder::new(true);
        let root = main.open("phase", 0);
        let mut a = main.fork(4);
        let mut b = main.fork(4);
        let ia = a.record("op", root, 1, 2);
        let ib = b.record("op", root, 1, 3);
        assert_ne!(ia, ib);
        main.absorb(a);
        main.absorb(b);
        main.close(root);
        assert_eq!(main.spans().len(), 3);
        let totals = main.totals_by_name();
        assert_eq!(totals["op"].count, 2);
        assert_eq!(totals["op"].total_ns, 3);
        assert!(main.spans()[0].end_ns >= main.spans()[0].start_ns);
    }

    #[test]
    fn a_disabled_recorder_keeps_time_but_stores_nothing() {
        let mut rec = Recorder::new(false);
        let root = rec.open("phase", 0);
        assert_eq!(root, 0);
        assert_eq!(rec.record("op", root, 1, 2), 0);
        rec.close(root);
        assert!(rec.spans().is_empty());
        let a = rec.now_ns();
        assert!(rec.now_ns() >= a);
        assert!(rec.fork(8).spans().is_empty(), "forks inherit the switch");
    }
}
