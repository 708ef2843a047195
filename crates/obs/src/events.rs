//! Structured, severity-leveled event log — the third observability
//! pillar next to metrics ([`crate::registry`]) and tracing
//! ([`crate::trace`]).
//!
//! Metrics answer "how much", traces answer "where did the time go";
//! the event log answers "**what happened**": discrete, operationally
//! significant state changes — an OSD marked down, the Bloom filter
//! crossing its overfill threshold, a WAL checkpoint, a flush-stage
//! conflict, a rate-control band transition — each stamped with the
//! virtual time the stack had reached when it fired.
//!
//! An [`EventLog`] is a cloneable handle (like [`crate::Registry`]) to a
//! shared **bounded ring**: when the ring is full the oldest event is
//! dropped and counted, so a misbehaving subsystem can flood the log
//! without unbounded memory growth. Events carry a typed payload as
//! ordered key/value fields and render as one JSON object each
//! ([`Event::to_json`]), the lines of the `<figure>.events.jsonl`
//! sidecar.
//!
//! # Virtual-time stamping
//!
//! Emitting layers fall into two groups: those that know the current
//! virtual time (foreground ops, background ticks — they call
//! [`EventLog::emit_at`]) and those that don't (cluster admin paths like
//! `mark_down`, WAL recovery). The log therefore tracks a monotonic
//! *latest observed* virtual time — advanced by every `emit_at` and by
//! explicit [`EventLog::advance`] calls on the hot paths — and
//! [`EventLog::emit`] stamps with that. An event is never stamped
//! earlier than one already in the ring.
//!
//! # Cost discipline
//!
//! The emitting subsystems hold an `Option<EventLog>`; every emission
//! site is gated on it, so the disabled path is a branch on a `None` —
//! no allocation, no lock, no virtual cost (events only *observe* the
//! virtual timeline, they never add legs to it). This is the same
//! zero-cost-when-off contract the tracer upholds, and the
//! `obs_off_is_free` test enforces it.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dedup_sim::SimTime;

use crate::registry::json_escape;

/// How bad the news is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Expected lifecycle progress (checkpoint taken, band relaxed).
    Info,
    /// Degradation worth an operator's attention (overfull Bloom filter,
    /// OSD down, torn WAL tail dropped).
    Warn,
    /// Something failed (worker error, unrecoverable object).
    Error,
}

impl Severity {
    /// Stable lowercase name (`info`/`warn`/`error`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    fn index(self) -> usize {
        match self {
            Severity::Info => 0,
            Severity::Warn => 1,
            Severity::Error => 2,
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number (never reused, survives ring eviction).
    pub seq: u64,
    /// Virtual time the stack had reached when the event fired.
    pub at: SimTime,
    /// Severity level.
    pub severity: Severity,
    /// Emitting subsystem, e.g. `engine.bloom`, `cluster.wal`.
    pub source: &'static str,
    /// Event type within the source, e.g. `overfill`, `osd_down`.
    pub kind: &'static str,
    /// Ordered payload fields (insertion order preserved).
    pub fields: Vec<(&'static str, String)>,
}

impl Event {
    /// The value of payload field `key`, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Renders the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"seq\":{},\"at_ns\":{},\"severity\":\"{}\",\"source\":\"{}\",\"kind\":\"{}\"",
            self.seq,
            self.at.as_nanos(),
            self.severity.as_str(),
            json_escape(self.source),
            json_escape(self.kind),
        );
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<Event>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    by_severity: [u64; 3],
}

#[derive(Debug)]
struct EventLogInner {
    ring: Mutex<Ring>,
    /// Latest virtual time observed by any emitter (nanoseconds).
    latest_ns: AtomicU64,
}

/// Cloneable handle to a shared bounded event ring; see the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct EventLog {
    inner: Arc<EventLogInner>,
}

/// Default ring capacity: enough for any figure run's interesting events
/// while bounding a pathological flood to a few hundred KiB.
const DEFAULT_CAPACITY: usize = 4096;

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new()
    }
}

impl EventLog {
    /// Creates a log with the default ring capacity (4096 events).
    pub fn new() -> Self {
        EventLog::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a log bounded at `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "event ring capacity must be positive");
        EventLog {
            inner: Arc::new(EventLogInner {
                ring: Mutex::new(Ring {
                    events: VecDeque::with_capacity(capacity.min(DEFAULT_CAPACITY)),
                    capacity,
                    next_seq: 1,
                    dropped: 0,
                    by_severity: [0; 3],
                }),
                latest_ns: AtomicU64::new(0),
            }),
        }
    }

    /// Advances the log's notion of "now" (monotonic: earlier times are
    /// ignored). Hot paths that know the virtual time call this so later
    /// clock-less emitters ([`EventLog::emit`]) stamp correctly.
    pub fn advance(&self, now: SimTime) {
        self.inner
            .latest_ns
            .fetch_max(now.as_nanos(), Ordering::Relaxed);
    }

    /// The latest virtual time any emitter has observed.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.inner.latest_ns.load(Ordering::Relaxed))
    }

    /// Records an event at an explicit virtual time (also advances the
    /// log's clock).
    pub fn emit_at(
        &self,
        at: SimTime,
        severity: Severity,
        source: &'static str,
        kind: &'static str,
        fields: Vec<(&'static str, String)>,
    ) {
        self.advance(at);
        self.push(at.max(self.now()), severity, source, kind, fields);
    }

    /// Records an event stamped with the latest observed virtual time —
    /// for emitters (admin paths, recovery) that have no clock of their
    /// own.
    pub fn emit(
        &self,
        severity: Severity,
        source: &'static str,
        kind: &'static str,
        fields: Vec<(&'static str, String)>,
    ) {
        self.push(self.now(), severity, source, kind, fields);
    }

    fn push(
        &self,
        at: SimTime,
        severity: Severity,
        source: &'static str,
        kind: &'static str,
        fields: Vec<(&'static str, String)>,
    ) {
        let mut ring = self.inner.ring.lock().expect("event ring lock");
        let seq = ring.next_seq;
        ring.next_seq += 1;
        ring.by_severity[severity.index()] += 1;
        if ring.events.len() >= ring.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(Event {
            seq,
            at,
            severity,
            source,
            kind,
            fields,
        });
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .ring
            .lock()
            .expect("event ring lock")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Events currently retained in the ring.
    pub fn len(&self) -> usize {
        self.inner
            .ring
            .lock()
            .expect("event ring lock")
            .events
            .len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.ring.lock().expect("event ring lock").dropped
    }

    /// Lifetime count of events at `severity` (including evicted ones).
    pub fn count(&self, severity: Severity) -> u64 {
        self.inner.ring.lock().expect("event ring lock").by_severity[severity.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_stamped_and_ordered() {
        let log = EventLog::new();
        log.emit_at(
            SimTime::from_secs(1),
            Severity::Info,
            "engine",
            "start",
            vec![],
        );
        log.emit_at(
            SimTime::from_secs(2),
            Severity::Warn,
            "engine.bloom",
            "overfill",
            vec![("fill_ppm", "600000".into())],
        );
        let events = log.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 1);
        assert_eq!(events[1].seq, 2);
        assert_eq!(events[1].at, SimTime::from_secs(2));
        assert_eq!(events[1].field("fill_ppm"), Some("600000"));
        assert_eq!(log.count(Severity::Warn), 1);
        assert_eq!(log.count(Severity::Error), 0);
    }

    #[test]
    fn clockless_emit_uses_latest_observed_time() {
        let log = EventLog::new();
        log.advance(SimTime::from_secs(5));
        log.advance(SimTime::from_secs(3)); // monotonic: ignored
        log.emit(Severity::Error, "service.worker", "error", vec![]);
        assert_eq!(log.events()[0].at, SimTime::from_secs(5));
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let log = EventLog::with_capacity(4);
        for i in 0..10u64 {
            log.emit_at(SimTime::from_nanos(i), Severity::Info, "t", "tick", vec![]);
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.dropped(), 6);
        // Oldest retained is seq 7, newest seq 10: eviction is FIFO.
        let events = log.events();
        assert_eq!(events.first().map(|e| e.seq), Some(7));
        assert_eq!(events.last().map(|e| e.seq), Some(10));
        // Lifetime severity counts include evicted events.
        assert_eq!(log.count(Severity::Info), 10);
    }

    #[test]
    fn clones_share_the_ring() {
        let log = EventLog::new();
        let clone = log.clone();
        clone.emit_at(SimTime::ZERO, Severity::Info, "a", "b", vec![]);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn json_is_one_object_with_escaping() {
        let log = EventLog::new();
        log.emit_at(
            SimTime::from_nanos(42),
            Severity::Warn,
            "cluster.osd",
            "osd_down",
            vec![("osd", "3".into()), ("detail", "said \"bye\"".into())],
        );
        let line = log.events()[0].to_json();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"seq\":1,\"at_ns\":42,\"severity\":\"warn\""));
        assert!(line.contains("\"source\":\"cluster.osd\""));
        assert!(line.contains("\"kind\":\"osd_down\""));
        assert!(line.contains("\\\"bye\\\""));
        assert!(line.ends_with('}'));
    }
}
