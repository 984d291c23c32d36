//! Pluggable event sinks.

use crate::event::TraceEvent;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

/// Where emitted events go. Implementations must be cheap enough to sit
/// on the generation hot path when tracing *is* enabled, and are never
/// called when it is not.
pub trait TraceSink: Send + Sync {
    /// Records one event.
    fn record(&self, event: &TraceEvent);

    /// Flushes buffered output (end of run).
    fn flush(&self) {}
}

/// Writes one JSON line per event to any writer (file, stderr, buffer).
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// A sink over an arbitrary writer.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer: Mutex::new(writer) }
    }
}

impl JsonlSink<std::io::BufWriter<std::fs::File>> {
    /// A sink writing to a freshly created file.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(JsonlSink::new(std::io::BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&self, event: &TraceEvent) {
        let mut writer = self.writer.lock().expect("jsonl sink poisoned");
        let _ = writeln!(writer, "{}", event.to_json());
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("jsonl sink poisoned").flush();
    }
}

/// Collects events in memory — the tests' sink.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A copy of every event recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("memory sink poisoned").len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all recorded events.
    pub fn clear(&self) {
        self.events.lock().expect("memory sink poisoned").clear();
    }
}

impl TraceSink for MemorySink {
    fn record(&self, event: &TraceEvent) {
        self.events.lock().expect("memory sink poisoned").push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn sample(name: &str) -> TraceEvent {
        TraceEvent::new(EventKind::Event, name).with("k", 1u64)
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let sink = JsonlSink::new(Vec::new());
        sink.record(&sample("a"));
        sink.record(&sample("b"));
        let buffer = sink.writer.into_inner().unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let events: Vec<TraceEvent> =
            text.lines().map(|l| TraceEvent::from_json(l).unwrap()).collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].name, "b");
    }

    #[test]
    fn memory_sink_collects_and_clears() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        sink.record(&sample("x"));
        assert_eq!(sink.events()[0].name, "x");
        sink.clear();
        assert!(sink.is_empty());
    }
}
