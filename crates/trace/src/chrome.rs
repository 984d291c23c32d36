//! Chrome-trace (Perfetto) export.
//!
//! [`ChromeTraceSink`] renders the event stream in the Trace Event
//! Format that `chrome://tracing` and [ui.perfetto.dev] load directly:
//! one JSON document with a `traceEvents` array. Spans become `"X"`
//! (complete) events carrying `ts`/`dur` in microseconds, so the
//! creator-pass pipeline and every launcher run show up as bars on a
//! per-thread timeline; point events and diagnostics become `"i"`
//! (instant) markers.
//!
//! [ui.perfetto.dev]: https://ui.perfetto.dev
//!
//! Unlike the JSONL sink, the output is a single document, not a line
//! protocol — so the sink buffers rendered entries and rewrites the
//! complete file on every [`TraceSink::flush`]. The file on disk is
//! therefore always valid JSON, even if the process dies between
//! flushes, at the cost of O(events) rewrite work per flush. Traces
//! from a `--quick` reproduction are a few thousand events; that trade
//! is fine.

use crate::event::{EventKind, TraceEvent};
use crate::sink::TraceSink;
use mc_report::json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Renders the trace as one Chrome-trace JSON document.
pub struct ChromeTraceSink {
    entries: Mutex<Vec<String>>,
    path: Option<PathBuf>,
}

/// Small dense thread ordinals: Chrome's UI sorts rows by `tid`, and the
/// OS thread ids are large and arbitrary. First thread to record gets 0
/// (the main timeline), workers count up from there.
fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|t| *t)
}

impl ChromeTraceSink {
    /// A sink rewriting `path` on every flush. Creates the file eagerly
    /// (with an empty trace) so path errors surface at startup, not at
    /// the end of the run.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let sink = ChromeTraceSink { entries: Mutex::new(Vec::new()), path: Some(path.into()) };
        mc_report::atomic_write(path, sink.render().as_bytes())?;
        Ok(sink)
    }

    /// A sink that only buffers; read the document back with
    /// [`ChromeTraceSink::render`]. Used by tests and `--metrics`-style
    /// in-process consumers.
    pub fn in_memory() -> Self {
        ChromeTraceSink { entries: Mutex::new(Vec::new()), path: None }
    }

    /// The complete Chrome-trace JSON document for everything recorded
    /// so far.
    pub fn render(&self) -> String {
        let entries = self.entries.lock().expect("chrome sink poisoned");
        let mut out =
            String::with_capacity(64 + entries.iter().map(|e| e.len() + 2).sum::<usize>());
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, entry) in entries.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(entry);
        }
        out.push_str("\n]}\n");
        out
    }

    fn render_entry(event: &TraceEvent) -> String {
        let mut out = String::with_capacity(96 + event.fields.len() * 24);
        let mut entry = json::Object::open(&mut out);
        json::write_str(entry.key("name"), &event.name);
        // Category = first dotted segment (creator, launcher, insight…);
        // Perfetto can filter and color by it.
        json::write_str(entry.key("cat"), event.name.split('.').next().unwrap_or("trace"));
        match event.kind {
            EventKind::Span => {
                json::write_str(entry.key("ph"), "X");
                entry.field("ts", event.micros).field("dur", event.duration_micros.unwrap_or(0));
            }
            EventKind::Event | EventKind::Diag => {
                // Thread-scoped instant marker.
                json::write_str(entry.key("ph"), "i");
                json::write_str(entry.key("s"), "t");
                entry.field("ts", event.micros);
            }
        }
        entry.field("pid", std::process::id()).field("tid", thread_ordinal());
        let mut args = json::Object::open(entry.key("args"));
        args.field("seq", event.seq);
        for (key, value) in &event.fields {
            value.write(args.key(key));
        }
        args.close();
        entry.close();
        out
    }
}

impl TraceSink for ChromeTraceSink {
    fn record(&self, event: &TraceEvent) {
        let entry = Self::render_entry(event);
        self.entries.lock().expect("chrome sink poisoned").push(entry);
    }

    fn flush(&self) {
        if let Some(path) = &self.path {
            let _ = mc_report::atomic_write(path, self.render().as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Value;
    // The document must be *real* JSON for Perfetto to load it.
    use mc_report::Json;

    fn span(name: &str, micros: u64, dur: u64) -> TraceEvent {
        let mut e = TraceEvent::new(EventKind::Span, name);
        e.micros = micros;
        e.duration_micros = Some(dur);
        e
    }

    /// Pulls a numeric field out of a rendered entry line.
    fn grab(line: &str, key: &str) -> u64 {
        let at = line.find(&format!("\"{key}\":")).unwrap_or_else(|| panic!("no {key} in {line}"));
        line[at + key.len() + 3..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap()
    }

    #[test]
    fn document_is_valid_json_with_escapes_and_all_kinds() {
        let sink = ChromeTraceSink::in_memory();
        sink.record(&span("creator.pass", 10, 90).with("pass", "a \"quoted\"\npass"));
        sink.record(
            &TraceEvent::new(EventKind::Event, "insight.attribution")
                .with("share", Value::Float(0.93)),
        );
        sink.record(&TraceEvent::new(EventKind::Diag, "diag").with("msg", "warn\tme"));
        let doc = sink.render();
        Json::parse(&doc).unwrap_or_else(|e| panic!("{e}\nin {doc}"));
        assert!(doc.contains("\"ph\":\"X\""), "{doc}");
        assert!(doc.contains("\"ph\":\"i\""), "{doc}");
        assert!(doc.contains("\"cat\":\"insight\""), "{doc}");
    }

    #[test]
    fn hostile_names_round_trip_as_valid_single_line_entries() {
        // Names straight out of a fuzzer: C0 controls, DEL, the Unicode
        // line separators, quotes and backslashes. The document must stay
        // parseable JSON with one physical line per entry — U+2028/U+2029
        // would otherwise split lines in JavaScript-based viewers.
        let hostile = [
            "ctrl \u{1}\u{1f} end",
            "del \u{7f} end",
            "sep \u{2028} and \u{2029} end",
            "quote \" slash \\ tab \t",
        ];
        let sink = ChromeTraceSink::in_memory();
        for (i, name) in hostile.iter().enumerate() {
            sink.record(&span(name, i as u64 * 10, 5).with("arg", *name));
        }
        let doc = sink.render();
        Json::parse(&doc).unwrap_or_else(|e| panic!("{e}\nin {doc}"));
        for raw in ['\u{1}', '\u{1f}', '\u{7f}', '\u{2028}', '\u{2029}'] {
            assert!(!doc.contains(raw), "raw {raw:?} in {doc}");
        }
        // The opening wrapper, one line per entry, and the closing `]}`.
        assert_eq!(doc.lines().count(), 2 + hostile.len(), "{doc}");
        // The escaping must be reversible: the event codec decodes the
        // same \uXXXX sequences back to the original strings.
        for name in hostile {
            let event = TraceEvent::new(EventKind::Event, name).with("arg", name);
            let back = TraceEvent::from_json(&event.to_json()).unwrap();
            assert_eq!(back.name, name);
            assert_eq!(back.field("arg"), event.field("arg"));
        }
    }

    #[test]
    fn empty_trace_is_still_a_valid_document() {
        let sink = ChromeTraceSink::in_memory();
        Json::parse(&sink.render()).unwrap();
    }

    #[test]
    fn nested_spans_telescope_on_the_timeline() {
        // Spans emit at drop, so the inner one is recorded first; the
        // rendered `ts`/`dur` intervals must still nest outer ⊇ inner.
        let sink = ChromeTraceSink::in_memory();
        sink.record(&span("launcher.measure", 120, 40));
        sink.record(&span("launcher.run", 100, 200));
        let doc = sink.render();
        Json::parse(&doc).unwrap_or_else(|e| panic!("{e}\nin {doc}"));
        let inner = doc.lines().find(|l| l.contains("launcher.measure")).unwrap();
        let outer = doc.lines().find(|l| l.contains("\"launcher.run\"")).unwrap();
        let (its, idur) = (grab(inner, "ts"), grab(inner, "dur"));
        let (ots, odur) = (grab(outer, "ts"), grab(outer, "dur"));
        assert!(ots <= its && its + idur <= ots + odur, "inner {its}+{idur} outer {ots}+{odur}");
    }

    #[test]
    fn flush_rewrites_a_complete_file_every_time() {
        let dir = std::env::temp_dir().join("mc-trace-chrome-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-{}.json", std::process::id()));
        let sink = ChromeTraceSink::create(&path).unwrap();
        // Eager create: valid (empty) document before any event.
        Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        sink.record(&span("a", 0, 5));
        sink.flush();
        let first = std::fs::read_to_string(&path).unwrap();
        Json::parse(&first).unwrap();
        sink.record(&span("b", 5, 5));
        sink.flush();
        let second = std::fs::read_to_string(&path).unwrap();
        Json::parse(&second).unwrap();
        assert!(second.contains("\"name\":\"a\"") && second.contains("\"name\":\"b\""));
        // The atomic rewrite must not leave a `.trace-<pid>.json.*.tmp`
        // temp file behind.
        let prefix = format!(".trace-{}.json.", std::process::id());
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with(&prefix) && n.ends_with(".tmp"))
            .count();
        assert_eq!(leftovers, 0, "temp file survived the rename");
        std::fs::remove_file(&path).unwrap();
    }
}
