//! Chrome `trace_event` (Perfetto-loadable) export of [`TraceExport`]s.
//!
//! [`render`] turns one or more labeled exports into a JSON object with a
//! `traceEvents` array, the format consumed by `chrome://tracing` and
//! [ui.perfetto.dev](https://ui.perfetto.dev):
//!
//! - Each export becomes a **process** (pid) named after its label, with
//!   one **thread track per simulated resource** (`osd.3/disk`,
//!   `node.0/nic`, ...) plus tracks for resource-free legs.
//! - Ops render as async `b`/`e` pairs (id = op id, category = op kind),
//!   so a proxied read's overall latency brackets its per-leg spans.
//! - Spans render as complete `X` events with microsecond `ts`/`dur`
//!   (fractional, so nanosecond precision survives) and byte counts in
//!   `args`.
//! - Wall-clock ops and spans go to a separate `<label> (wall clock)`
//!   process with one track per real flush-worker thread, keeping the two
//!   clock domains from overlapping on a shared timeline.
//!
//! [`validate_chrome_trace`] is a dependency-free structural check (the
//! traced fig05 golden test runs it): it parses the JSON and asserts every
//! event carries `ph`, `ts`, `pid` and `tid`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::registry::json_escape;
use crate::trace::{Clock, Span, TraceExport, Track};

/// Formats nanoseconds as fractional microseconds (trace_event unit).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Track layout for one process: tid 0 is the op track, resources get
/// 1..=N, named software threads follow.
struct TidMap {
    pid: u32,
    resource_base: u32,
    threads: BTreeMap<String, u32>,
    next: u32,
}

impl TidMap {
    fn new(pid: u32, resources: usize) -> Self {
        TidMap {
            pid,
            resource_base: 1,
            threads: BTreeMap::new(),
            next: 1 + resources as u32,
        }
    }

    fn tid(&mut self, track: &Track) -> u32 {
        match track {
            Track::Resource(idx) => self.resource_base + idx,
            Track::Thread(name) => {
                if let Some(&t) = self.threads.get(name) {
                    t
                } else {
                    let t = self.next;
                    self.next += 1;
                    self.threads.insert(name.clone(), t);
                    t
                }
            }
        }
    }
}

fn push_span(out: &mut Vec<String>, tids: &mut TidMap, span: &Span) {
    let tid = tids.tid(&span.track);
    let dur = span.end_ns.saturating_sub(span.start_ns);
    let mut ev = format!(
        "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}",
        json_escape(&span.name),
        us(span.start_ns),
        us(dur),
        tids.pid,
        tid
    );
    if span.bytes > 0 {
        let _ = write!(ev, ",\"args\":{{\"bytes\":{}}}", span.bytes);
    }
    ev.push('}');
    out.push(ev);
}

fn push_meta(out: &mut Vec<String>, pid: u32, tid: Option<u32>, name: &str) {
    let (ph_name, tid) = match tid {
        None => ("process_name", 0),
        Some(t) => ("thread_name", t),
    };
    out.push(format!(
        "{{\"name\":\"{ph_name}\",\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\"tid\":{tid},\
         \"args\":{{\"name\":\"{}\"}}}}",
        json_escape(name)
    ));
}

/// Renders labeled exports as a Chrome `trace_event` JSON document.
pub fn render(exports: &[(String, TraceExport)]) -> String {
    let mut out: Vec<String> = Vec::new();
    for (i, (label, export)) in exports.iter().enumerate() {
        let vpid = 1 + i as u32;
        let wpid = 100 + i as u32;
        let mut vtids = TidMap::new(vpid, export.resource_names.len());
        let mut wtids = TidMap::new(wpid, 0);

        push_meta(&mut out, vpid, None, label);
        push_meta(&mut out, vpid, Some(0), "ops");
        for (r, name) in export.resource_names.iter().enumerate() {
            push_meta(&mut out, vpid, Some(1 + r as u32), name);
        }

        let mut wall_used = false;
        for op in &export.ops {
            let (pid, tids) = match op.clock {
                Clock::Virtual => (vpid, &mut vtids),
                Clock::Wall => {
                    wall_used = true;
                    (wpid, &mut wtids)
                }
            };
            let name = if op.detail.is_empty() {
                op.kind.clone()
            } else {
                format!("{} {}", op.kind, op.detail)
            };
            out.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"b\",\"id\":{},\"ts\":{},\
                 \"pid\":{pid},\"tid\":0,\"args\":{{\"detail\":\"{}\",\"slow\":{}}}}}",
                json_escape(&name),
                json_escape(&op.kind),
                op.id,
                us(op.start_ns),
                json_escape(&op.detail),
                op.slow
            ));
            if let Some(end) = op.end_ns {
                out.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"e\",\"id\":{},\"ts\":{},\
                     \"pid\":{pid},\"tid\":0}}",
                    json_escape(&name),
                    json_escape(&op.kind),
                    op.id,
                    us(end)
                ));
            }
            for span in &op.spans {
                push_span(&mut out, tids, span);
            }
        }
        for span in &export.wall_spans {
            wall_used = true;
            push_span(&mut out, &mut wtids, span);
        }

        if wall_used {
            push_meta(&mut out, wpid, None, &format!("{label} (wall clock)"));
            push_meta(&mut out, wpid, Some(0), "ops");
        }
        for (name, tid) in vtids.threads {
            push_meta(&mut out, vpid, Some(tid), &name);
        }
        for (name, tid) in wtids.threads {
            push_meta(&mut out, wpid, Some(tid), &name);
        }
    }
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
        out.join(",\n")
    )
}

// ---------------------------------------------------------------------------
// Structural validation (dependency-free mini JSON parser)
// ---------------------------------------------------------------------------

/// A parsed JSON value, just enough for schema checks.
#[derive(Debug)]
enum Value {
    Null,
    Bool,
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool),
            Some(b'f') => self.literal("false", Value::Bool),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("unexpected token")),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "utf8")?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(b) => {
                    // Consume one multi-byte UTF-8 scalar. Length comes
                    // from the leading byte so validation stays O(1) per
                    // character (validating the whole remaining input here
                    // would make parsing quadratic).
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let slice = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .ok_or_else(|| self.err("invalid utf8"))?;
                    let s = std::str::from_utf8(slice).map_err(|_| self.err("invalid utf8"))?;
                    // `from_utf8` on a non-empty slice guarantees a first
                    // char, but a scanner must never turn malformed input
                    // into a panic — fail as a parse error instead.
                    let c = s.chars().next().ok_or_else(|| self.err("invalid utf8"))?;
                    out.push(c);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Validates that `text` is well-formed JSON shaped like a Chrome trace:
/// a top-level object with a `traceEvents` array in which every event is
/// an object carrying a string `ph` and numeric `ts`, `pid` and `tid`.
/// Returns the number of events.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let mut parser = Parser::new(text);
    let root = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing data"));
    }
    let events = match root.get("traceEvents") {
        Some(Value::Array(events)) => events,
        Some(_) => return Err("traceEvents is not an array".into()),
        None => return Err("missing traceEvents".into()),
    };
    for (i, event) in events.iter().enumerate() {
        if !matches!(event, Value::Object(_)) {
            return Err(format!("event {i} is not an object"));
        }
        match event.get("ph") {
            Some(Value::String(ph)) if !ph.is_empty() => {}
            _ => return Err(format!("event {i}: missing string 'ph'")),
        }
        for key in ["ts", "pid", "tid"] {
            match event.get(key) {
                Some(Value::Number(n)) if n.is_finite() => {}
                _ => return Err(format!("event {i}: missing numeric '{key}'")),
            }
        }
        // Op events carry a boolean slow-flag; reject corrupted ones.
        if let Some(args) = event.get("args") {
            match args.get("slow") {
                None | Some(Value::Bool) => {}
                Some(_) => return Err(format!("event {i}: 'slow' arg is not a bool")),
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::OpTrace;

    fn sample_export() -> TraceExport {
        TraceExport {
            resource_names: vec!["osd.0/disk".into(), "node.0/nic".into()],
            ops: vec![OpTrace {
                id: 1,
                kind: "read".into(),
                detail: "obj \"7\"".into(),
                clock: Clock::Virtual,
                start_ns: 0,
                end_ns: Some(2_500_000),
                slow: true,
                spans: vec![
                    Span {
                        name: "read/fetch".into(),
                        track: Track::Resource(0),
                        start_ns: 0,
                        end_ns: 2_000_000,
                        parent: None,
                        bytes: 4096,
                    },
                    Span {
                        name: "service".into(),
                        track: Track::Resource(0),
                        start_ns: 500_000,
                        end_ns: 2_000_000,
                        parent: Some(0),
                        bytes: 4096,
                    },
                    Span {
                        name: "wait".into(),
                        track: Track::Thread("delay".into()),
                        start_ns: 0,
                        end_ns: 100,
                        parent: None,
                        bytes: 0,
                    },
                ],
                dropped_spans: 0,
            }],
            wall_spans: vec![Span {
                name: "flush.stage".into(),
                track: Track::Thread("dedup-worker".into()),
                start_ns: 10,
                end_ns: 50,
                parent: None,
                bytes: 0,
            }],
        }
    }

    #[test]
    fn render_is_valid_and_carries_tracks() {
        let json = render(&[("fig05:dedup".into(), sample_export())]);
        let events = validate_chrome_trace(&json).expect("valid trace");
        assert!(events >= 7, "meta + async pair + spans, got {events}");
        assert!(json.contains("\"osd.0/disk\""));
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"e\""));
        assert!(json.contains("fig05:dedup (wall clock)"));
        assert!(json.contains("\"dedup-worker\""));
        // Escaped detail string survives round-trip.
        assert!(json.contains("obj \\\"7\\\""));
    }

    #[test]
    fn nanosecond_precision_survives_as_fractional_us() {
        let json = render(&[("t".into(), sample_export())]);
        assert!(json.contains("\"ts\":0.100") || json.contains("\"dur\":0.100"));
    }

    #[test]
    fn parser_round_trips_literals() {
        let mut p = Parser::new(" [true, false, null, -1.5e3, \"a\\u0041\"] ");
        let Value::Array(items) = p.value().expect("parses") else {
            panic!("not an array");
        };
        assert!(matches!(items[0], Value::Bool));
        assert!(matches!(items[1], Value::Bool));
        assert!(matches!(items[2], Value::Null));
        assert!(matches!(items[3], Value::Number(n) if n == -1500.0));
        assert!(matches!(&items[4], Value::String(s) if s == "aA"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":3}").is_err());
        let missing_ph = "{\"traceEvents\":[{\"ts\":0,\"pid\":1,\"tid\":0}]}";
        assert!(validate_chrome_trace(missing_ph).is_err());
        let ok = "{\"traceEvents\":[{\"ph\":\"X\",\"ts\":0.5,\"pid\":1,\"tid\":0}]}";
        assert_eq!(validate_chrome_trace(ok), Ok(1));
    }

    #[test]
    fn empty_export_renders_empty_event_list_edge() {
        let json = render(&[]);
        assert_eq!(validate_chrome_trace(&json), Ok(0));
    }

    #[test]
    fn malformed_strings_are_parse_errors_not_panics() {
        // Every case here must produce Err — never a panic — no matter
        // how the string scanner's input is mangled.
        let cases: Vec<String> = vec![
            // Backslash at end of input: escape with nothing after it.
            "{\"traceEvents\":[{\"ph\":\"X".to_string() + "\\",
            // Truncated \u escape at end of input.
            "{\"traceEvents\":[{\"name\":\"a\\u00".to_string(),
            // \u escape whose "hex" is not ASCII (from_utf8 on the slice
            // fails before from_str_radix sees it).
            format!("{{\"traceEvents\":[{{\"name\":\"\\u{}1\"", "\u{e9}"),
            // Unterminated string.
            "{\"traceEvents\":[{\"name\":\"abc".to_string(),
        ];
        for case in cases {
            assert!(
                validate_chrome_trace(&case).is_err(),
                "must reject: {case:?}"
            );
        }
        // Byte-level mangling reaches the scanner paths &str input can't
        // express as valid UTF-8 only via escapes, but the multibyte arm
        // is also reachable with real multibyte chars — these must parse.
        let ok =
            "{\"traceEvents\":[{\"ph\":\"\u{e9}\u{4e2d}\u{1f600}\",\"ts\":0,\"pid\":1,\"tid\":0}]}";
        assert_eq!(validate_chrome_trace(ok), Ok(1), "multibyte ph parses");
        let mut p = Parser::new("\"caf\u{e9} \u{4e2d}\u{6587} \u{1f600}\"");
        let Value::String(s) = p.value().expect("multibyte string parses") else {
            panic!("not a string");
        };
        assert_eq!(s, "caf\u{e9} \u{4e2d}\u{6587} \u{1f600}");
    }
}
