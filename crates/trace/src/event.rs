//! Trace events and their JSONL wire format.
//!
//! One event is one JSON object on one line. The schema is deliberately
//! flat so any JSONL consumer (jq, a spreadsheet import, the summary
//! renderer) can use it without a schema registry:
//!
//! ```json
//! {"seq":3,"us":1412,"kind":"span","name":"creator.pass","dur_us":95,
//!  "fields":{"pass":"unrolling","variants_in":8,"variants_out":64}}
//! ```
//!
//! Encoding and decoding go through the workspace's one JSON codec,
//! [`mc_report::json`]: the event fields are [`Value`]s (its `Json`), written by
//! its writer and read back by walking its byte cursor directly, so
//! decoding a record builds no intermediate tree.

use mc_report::json::{self, Cursor};
use std::fmt;

/// A field value is the workspace's JSON value. Constructors normalize
/// non-negative integers to `UInt`, so a value survives an encode→parse
/// round trip structurally, not just numerically.
pub use mc_report::json::Json as Value;

/// What a [`TraceEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span: a named region with a duration.
    Span,
    /// A point-in-time event.
    Event,
    /// A routed diagnostic message (the old `eprintln!` traffic).
    Diag,
}

impl EventKind {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Event => "event",
            EventKind::Diag => "diag",
        }
    }

    /// Parses the wire name.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "span" => EventKind::Span,
            "event" => EventKind::Event,
            "diag" => EventKind::Diag,
            _ => return None,
        })
    }
}

/// One structured trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotonic sequence number, stamped by the tracer.
    pub seq: u64,
    /// Microseconds since the tracer's epoch (first installed sink).
    pub micros: u64,
    /// Record kind.
    pub kind: EventKind,
    /// Dotted event name, e.g. `creator.pass` or `launcher.experiment`.
    pub name: String,
    /// Wall time of the region, for spans.
    pub duration_micros: Option<u64>,
    /// Named scalar payload, in insertion order.
    pub fields: Vec<(String, Value)>,
}

impl TraceEvent {
    /// A bare event with no payload.
    pub fn new(kind: EventKind, name: impl Into<String>) -> Self {
        TraceEvent {
            seq: 0,
            micros: 0,
            kind,
            name: name.into(),
            duration_micros: None,
            fields: Vec::new(),
        }
    }

    /// Appends one field (builder style).
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.fields.push((key.into(), value.into()));
        self
    }

    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Encodes the event as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96 + self.fields.len() * 24);
        let mut object = json::Object::open(&mut out);
        object.field("seq", self.seq).field("us", self.micros);
        json::write_str(object.key("kind"), self.kind.name());
        json::write_str(object.key("name"), &self.name);
        if let Some(d) = self.duration_micros {
            object.field("dur_us", d);
        }
        if !self.fields.is_empty() {
            let mut fields = json::Object::open(object.key("fields"));
            for (k, v) in &self.fields {
                v.write(fields.key(k));
            }
            fields.close();
        }
        object.close();
        out
    }

    /// Parses one JSON line produced by [`TraceEvent::to_json`]. Unknown
    /// keys and a missing `kind` are errors.
    pub fn from_json(line: &str) -> Result<TraceEvent, String> {
        let mut p = Cursor::new(line);
        p.expect(b'{')?;
        let mut event = TraceEvent::new(EventKind::Event, "");
        let mut seen_kind = false;
        loop {
            let key = p.string()?;
            p.expect(b':')?;
            match key.as_str() {
                "seq" => event.seq = p.u64()?,
                "us" => event.micros = p.u64()?,
                "dur_us" => event.duration_micros = Some(p.u64()?),
                "kind" => {
                    let k = p.string()?;
                    event.kind = EventKind::from_name(&k)
                        .ok_or_else(|| format!("unknown event kind `{k}`"))?;
                    seen_kind = true;
                }
                "name" => event.name = p.string()?,
                "fields" => {
                    p.expect(b'{')?;
                    if !p.eat(b'}') {
                        loop {
                            let k = p.string()?;
                            p.expect(b':')?;
                            event.fields.push((k, p.value()?));
                            if !p.eat(b',') {
                                break;
                            }
                        }
                        p.expect(b'}')?;
                    }
                }
                other => return Err(format!("unknown event key `{other}`")),
            }
            if !p.eat(b',') {
                break;
            }
        }
        p.expect(b'}')?;
        p.end()?;
        if !seen_kind {
            return Err("event missing `kind`".into());
        }
        Ok(event)
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_value_shapes() {
        let mut event = TraceEvent::new(EventKind::Span, "creator.pass")
            .with("pass", "unrolling")
            .with("variants_in", 8u64)
            .with("delta", -3i64)
            .with("ratio", 0.125f64)
            .with("ran", true)
            .with("whole", 4.0f64);
        event.seq = 42;
        event.micros = 1_000_001;
        event.duration_micros = Some(95);
        let line = event.to_json();
        let back = TraceEvent::from_json(&line).unwrap();
        assert_eq!(back, event);
    }

    /// The wire bytes are pinned: stores, journals and indexes written by
    /// older builds must keep reading back, and newer ones must stay
    /// byte-identical to them.
    #[test]
    fn wire_bytes_are_pinned() {
        let mut event = TraceEvent::new(EventKind::Span, "creator.pass")
            .with("pass", "unrolling")
            .with("variants_in", 8u64)
            .with("delta", -3i64)
            .with("ratio", 0.125f64)
            .with("ran", true)
            .with("whole", 4.0f64);
        event.seq = 42;
        event.micros = 1_000_001;
        event.duration_micros = Some(95);
        assert_eq!(
            event.to_json(),
            r#"{"seq":42,"us":1000001,"kind":"span","name":"creator.pass","dur_us":95,"fields":{"pass":"unrolling","variants_in":8,"delta":-3,"ratio":0.125,"ran":true,"whole":4.0}}"#
        );
        let odd =
            TraceEvent::new(EventKind::Event, "x").with("v", f64::NAN).with("i", f64::NEG_INFINITY);
        assert_eq!(
            odd.to_json(),
            r#"{"seq":0,"us":0,"kind":"event","name":"x","fields":{"v":"NaN","i":"-inf"}}"#
        );
        let hostile = TraceEvent::new(EventKind::Diag, "d\u{7f}\u{2028}\u{1}\"\\\n");
        assert_eq!(
            hostile.to_json(),
            r#"{"seq":0,"us":0,"kind":"diag","name":"d\u007f\u2028\u0001\"\\\n"}"#
        );
    }

    #[test]
    fn strings_escape_and_unescape() {
        let event = TraceEvent::new(EventKind::Diag, "cli.diag")
            .with("msg", "a \"quoted\"\tline\nwith \\ and \u{1}");
        let back = TraceEvent::from_json(&event.to_json()).unwrap();
        assert_eq!(back.field("msg"), event.field("msg"));
    }

    #[test]
    fn del_and_line_separators_escape_to_u_sequences() {
        // DEL and U+2028/U+2029 are legal raw in JSON strings but break
        // line-oriented consumers; they must leave as \uXXXX and come
        // back as themselves.
        let hostile = "del:\u{7f} ls:\u{2028} ps:\u{2029}";
        let event = TraceEvent::new(EventKind::Event, hostile).with("msg", hostile);
        let line = event.to_json();
        assert!(line.contains("\\u007f"), "{line}");
        assert!(line.contains("\\u2028"), "{line}");
        assert!(line.contains("\\u2029"), "{line}");
        for raw in ['\u{7f}', '\u{2028}', '\u{2029}'] {
            assert!(!line.contains(raw), "raw {:?} survived in {line}", raw);
        }
        let back = TraceEvent::from_json(&line).unwrap();
        assert_eq!(back.name, hostile);
        assert_eq!(back.field("msg"), event.field("msg"));
    }

    #[test]
    fn nonfinite_floats_encode_as_strings() {
        let event = TraceEvent::new(EventKind::Event, "x").with("v", f64::NAN);
        let back = TraceEvent::from_json(&event.to_json()).unwrap();
        assert_eq!(back.field("v").and_then(Value::as_str), Some("NaN"));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{",
            "{\"kind\":\"span\"",
            "{\"kind\":\"warp\",\"name\":\"x\"}",
            "{\"name\":\"x\"}",
            "{\"kind\":\"event\",\"name\":\"x\"} trailing",
            "{\"kind\":\"event\",\"name\":\"x\",\"fields\":{\"k\":}}",
            "{\"kind\":\"event\",\"name\":\"x\",\"extra\":1}",
        ] {
            assert!(TraceEvent::from_json(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn prop_malformed_lines_err_without_panicking() {
        use mc_report::prop::{check, coin, pick, printable};
        // The reproducer: trailing multi-byte input after a complete event
        // once panicked while slicing the error message.
        let reproducer = format!("{{\"kind\":\"event\",\"name\":\"x\"}} a{}", "é".repeat(40));
        assert!(TraceEvent::from_json(&reproducer).is_err());
        let line = TraceEvent::new(EventKind::Span, "créateur.passe→")
            .with("msg", "é😀\u{2028}\"")
            .with("n", -3i64)
            .with("r", 0.5f64)
            .to_json();
        for (cut, _) in line.char_indices() {
            assert!(TraceEvent::from_json(&line[..cut]).is_err(), "accepted prefix {cut}");
        }
        let pieces = ["é", "😀", "→", "{", "}", "\"", "\\", ":", ",", "\"kind\"", "\"span\"", "1"];
        check(512, |rng| {
            let len = rng.gen_range(0..48usize);
            let text: String = (0..len)
                .map(|_| if coin(rng) { pick(rng, &pieces).to_owned() } else { printable(rng, 2) })
                .collect();
            let _ = TraceEvent::from_json(&text);
            let _ = TraceEvent::from_json(&format!("{{\"kind\":\"event\",\"name\":\"x\"}}{text}"));
        });
    }

    #[test]
    fn field_lookup_and_accessors() {
        let event = TraceEvent::new(EventKind::Event, "x")
            .with("n", 3u64)
            .with("f", 1.5f64)
            .with("s", "text")
            .with("b", false);
        assert_eq!(event.field("n").and_then(Value::as_u64), Some(3));
        assert_eq!(event.field("n").and_then(Value::as_f64), Some(3.0));
        assert_eq!(event.field("f").and_then(Value::as_f64), Some(1.5));
        assert_eq!(event.field("s").and_then(Value::as_str), Some("text"));
        assert_eq!(event.field("b").and_then(Value::as_bool), Some(false));
        assert!(event.field("missing").is_none());
    }
}
