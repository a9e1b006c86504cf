//! Parsers for the JSON documents this crate exports.
//!
//! The multi-process conformance harness (`raincore-procher`) ships each
//! node's [`Snapshot::to_json`] document and [`TraceJournal::render_json`]
//! array across a process boundary as files, then rebuilds typed values on
//! the parent side so the same auditors that gate the simulator can gate
//! real sockets. The workspace builds fully offline, so this is a small
//! hand-rolled JSON reader scoped to exactly the documents `export.rs` and
//! `trace.rs` emit: objects, arrays, strings with the escapes `json_escape`
//! produces, booleans, `null`, and *integer* numbers (nothing in our
//! exports is fractional). Nesting is bounded (`MAX_DEPTH`), so any file
//! handed to `tracectl` fails with a [`JsonError`], never a stack overflow.
//!
//! Every typed field is read by one function, `field`. A journal event's
//! fields are not listed here: [`parse_journal_json`] reads the
//! `t_ns`/`node`/`event` header and hands the rest to the reader the
//! event table in `trace.rs` generates, from the same row as the writer.
//!
//! [`TraceJournal::render_json`]: crate::TraceJournal::render_json

use crate::hist::HistSummary;
use crate::metrics::{MetricKey, Snapshot, SnapshotEntry, SnapshotValue};
use crate::trace::{TraceEvent, TraceKind};

/// Where and why a parse failed. `pos` is a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub pos: usize,
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value. Numbers are `i128` — wide enough for both the
/// `u64` counters and `i64` gauges the exporters emit.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(i128),
    Str(String),
    Arr(Vec<JsonValue>),
    /// Key/value pairs in document order (duplicate keys keep both).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            b: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.b.len() {
            return Err(p.err("trailing garbage after document"));
        }
        Ok(v)
    }

    /// Object field lookup (first occurrence).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        let JsonValue::Obj(fields) = self else {
            return None;
        };
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn as_i128(&self) -> Option<i128> {
        if let JsonValue::Num(n) = self {
            Some(*n)
        } else {
            None
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        self.as_i128().and_then(|n| u64::try_from(n).ok())
    }

    pub fn as_i64(&self) -> Option<i64> {
        self.as_i128().and_then(|n| i64::try_from(n).ok())
    }

    pub fn as_u32(&self) -> Option<u32> {
        self.as_i128().and_then(|n| u32::try_from(n).ok())
    }

    pub fn as_bool(&self) -> Option<bool> {
        if let JsonValue::Bool(b) = self {
            Some(*b)
        } else {
            None
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        if let JsonValue::Str(s) = self {
            Some(s)
        } else {
            None
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        if let JsonValue::Arr(a) = self {
            Some(a)
        } else {
            None
        }
    }
}

/// How deeply arrays and objects may nest. Our deepest export nests 4
/// (`{"metrics":[{"labels":{}}]}`); the bound keeps a hostile file from
/// overflowing the stack of the recursive reader.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.eat_lit("true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.eat_lit("false").map(|()| JsonValue::Bool(false)),
            Some(b'n') => self.eat_lit("null").map(|()| JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object a level deeper, refusing past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("arrays and objects nest too deeply"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    // A run of plain ASCII is appended wholesale —
                    // validating from here to end-of-input per character
                    // would make parsing quadratic in document size.
                    let start = self.pos;
                    while matches!(self.b.get(self.pos),
                        Some(&c) if c != b'"' && c != b'\\' && c < 0x80)
                    {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.b[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    out.push_str(s);
                }
                Some(lead) => {
                    // One multi-byte UTF-8 scalar: decode just its bytes.
                    let len = match lead {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (self.pos + len).min(self.b.len());
                    let s = std::str::from_utf8(&self.b[self.pos..end])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    let c = s
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("invalid utf-8 in string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("fractional numbers are not used by obs exports"));
        }
        let text = std::str::from_utf8(&self.b[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<i128>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("number out of range"))
    }
}

/// A scalar an export field holds: the one typed field reader
/// ([`field`]) reads any of them.
pub(crate) trait Scalar: Sized {
    /// What the error names when a field is missing or of another type.
    const WHAT: &'static str;
    fn from_json(v: &JsonValue) -> Option<Self>;
}

macro_rules! scalars {
    ($($ty:ty: $what:literal $get:ident),*) => {$(
        impl Scalar for $ty {
            const WHAT: &'static str = $what;
            fn from_json(v: &JsonValue) -> Option<Self> {
                v.$get()
            }
        }
    )*};
}

scalars!(
    u64: "integer" as_u64,
    u32: "integer" as_u32,
    i64: "integer" as_i64,
    bool: "boolean" as_bool
);

/// Field `key` of object `obj` as a `T`; `pos` locates the error.
pub(crate) fn field<T: Scalar>(obj: &JsonValue, key: &str, pos: usize) -> Result<T, JsonError> {
    obj.get(key)
        .and_then(T::from_json)
        .ok_or_else(|| JsonError {
            pos,
            msg: format!("missing or non-{} field {key:?}", T::WHAT),
        })
}

impl Snapshot {
    /// Rebuild a snapshot from [`Snapshot::to_json`] output.
    ///
    /// The JSON document carries histogram *summaries* but not raw
    /// buckets, so histogram entries come back with empty `buckets`;
    /// everything else round-trips exactly.
    pub fn parse_json(input: &str) -> Result<Snapshot, JsonError> {
        let doc = JsonValue::parse(input)?;
        let metrics = doc
            .get("metrics")
            .and_then(JsonValue::as_arr)
            .ok_or(JsonError {
                pos: 0,
                msg: "missing \"metrics\" array".to_string(),
            })?;
        let mut entries = Vec::with_capacity(metrics.len());
        for m in metrics {
            let name = m
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or(JsonError {
                    pos: 0,
                    msg: "metric entry missing \"name\"".to_string(),
                })?
                .to_string();
            let mut labels = Vec::new();
            if let Some(JsonValue::Obj(pairs)) = m.get("labels") {
                for (k, v) in pairs {
                    let v = v.as_str().ok_or(JsonError {
                        pos: 0,
                        msg: format!("label {k:?} is not a string"),
                    })?;
                    labels.push((k.clone(), v.to_string()));
                }
            }
            labels.sort();
            let kind = m.get("type").and_then(JsonValue::as_str).ok_or(JsonError {
                pos: 0,
                msg: "metric entry missing \"type\"".to_string(),
            })?;
            let value = match kind {
                "counter" => SnapshotValue::Counter(field(m, "value", 0)?),
                "gauge" => SnapshotValue::Gauge(field(m, "value", 0)?),
                "histogram" => SnapshotValue::Histogram {
                    summary: HistSummary {
                        count: field(m, "count", 0)?,
                        sum: field(m, "sum", 0)?,
                        min: field(m, "min", 0)?,
                        max: field(m, "max", 0)?,
                        p50: field(m, "p50", 0)?,
                        p90: field(m, "p90", 0)?,
                        p99: field(m, "p99", 0)?,
                    },
                    buckets: Vec::new(),
                },
                other => {
                    return Err(JsonError {
                        pos: 0,
                        msg: format!("unknown metric type {other:?}"),
                    })
                }
            };
            entries.push(SnapshotEntry {
                key: MetricKey { name, labels },
                value,
            });
        }
        Ok(Snapshot { entries })
    }

    /// Counter value for `name{labels}`, if present (labels in any order).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        if let SnapshotValue::Counter(v) = self.find(name, labels)? {
            Some(*v)
        } else {
            None
        }
    }

    /// Gauge value for `name{labels}`, if present (labels in any order).
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        if let SnapshotValue::Gauge(v) = self.find(name, labels)? {
            Some(*v)
        } else {
            None
        }
    }

    /// All entries whose metric name equals `name`, in snapshot order.
    pub fn entries_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SnapshotEntry> {
        self.entries.iter().filter(move |e| e.key.name == name)
    }

    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SnapshotValue> {
        let key = MetricKey::new(name, labels);
        self.entries.iter().find(|e| e.key == key).map(|e| &e.value)
    }
}

/// Rebuild a journal event list from `TraceJournal::render_json` output.
pub fn parse_journal_json(input: &str) -> Result<Vec<TraceEvent>, JsonError> {
    let doc = JsonValue::parse(input)?;
    let items = doc.as_arr().ok_or(JsonError {
        pos: 0,
        msg: "journal document is not an array".to_string(),
    })?;
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let t_ns = field(item, "t_ns", i)?;
        let node = field(item, "node", i)?;
        let label = item
            .get("event")
            .and_then(JsonValue::as_str)
            .ok_or(JsonError {
                pos: i,
                msg: "journal event missing \"event\" label".to_string(),
            })?;
        let kind = TraceKind::read_json(label, item, i)?;
        out.push(TraceEvent { t_ns, node, kind });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structure() {
        let v = JsonValue::parse(r#"{"a":1,"b":-2,"c":true,"d":null,"e":[1,"x"],"f":{}}"#)
            .expect("parse");
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(v.get("b").and_then(JsonValue::as_i64), Some(-2));
        assert_eq!(v.get("c").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("d"), Some(&JsonValue::Null));
        assert_eq!(
            v.get("e").and_then(JsonValue::as_arr).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(v.get("f"), Some(&JsonValue::Obj(Vec::new())));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "quote\" slash\\ nl\n tab\t bell\u{7}";
        let encoded = format!("\"{}\"", crate::export::json_escape(original));
        let v = JsonValue::parse(&encoded).expect("parse escaped string");
        assert_eq!(v.as_str(), Some(original));
    }

    #[test]
    fn u64_extremes_survive() {
        let text = format!("[{},{}]", u64::MAX, i64::MIN);
        let v = JsonValue::parse(&text).expect("parse extremes");
        let arr = v.as_arr().expect("array");
        assert_eq!(arr[0].as_u64(), Some(u64::MAX));
        assert_eq!(arr[1].as_i64(), Some(i64::MIN));
    }

    #[test]
    fn span_and_cause_events_round_trip_byte_stable() {
        use crate::trace::{render_events_json, TraceJournal};
        let mut j = TraceJournal::new(16);
        j.push(
            100,
            3,
            TraceKind::HopSpan {
                circ: (5u64 << 40) | 9,
                hop: 12,
                parent: 8,
                recv_ns: 1_200,
                decode_ns: 300,
                protocol_ns: 2_000,
                encode_ns: 400,
                send_ns: 800,
            },
        );
        j.push(110, 3, TraceKind::CauseStarving { circ: 7, hop: 12 });
        j.push(
            120,
            3,
            TraceKind::Cause911 {
                circ: 7,
                hop: 12,
                req_id: 4,
            },
        );
        j.push(
            130,
            3,
            TraceKind::CauseMember {
                circ: 7,
                hop: 13,
                member: 9,
                added: false,
            },
        );
        j.push(
            140,
            3,
            TraceKind::CauseRegen {
                circ: 7,
                hop: 13,
                new_circ: (3u64 << 40) | 14,
            },
        );
        j.push(150, 3, TraceKind::Gap { dropped: 42 });
        j.push(
            160,
            3,
            TraceKind::EarlyPass {
                circ: 7,
                hop: 14,
                held_ns: 35_000,
                load: 8_400,
            },
        );
        let exported = j.render_json();
        let events = parse_journal_json(&exported).expect("parse span export");
        assert_eq!(events.len(), 7);
        assert!(matches!(
            events[0].kind,
            TraceKind::HopSpan {
                hop: 12,
                parent: 8,
                protocol_ns: 2_000,
                ..
            }
        ));
        // Re-export must be byte-identical: the parser loses nothing.
        assert_eq!(render_events_json(&events), exported);
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let err = JsonValue::parse(&"[".repeat(1_000_000)).expect_err("a million open arrays");
        assert!(err.msg.contains("nest too deeply"), "{err}");
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&at_bound).is_ok());
        assert!(JsonValue::parse(&format!("[{at_bound}]")).is_err());
        assert!(JsonValue::parse(r#"{"metrics":[{"labels":{}}]}"#).is_ok());
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("{\"a\":}").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{} trailing").is_err());
        assert!(JsonValue::parse("1.5").is_err(), "floats are out of scope");
    }
}
