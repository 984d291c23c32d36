//! Pluggable event sinks.

use crate::event::TraceEvent;
use std::fs::{self, File, OpenOptions};
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex;

/// Appends one record line to a JSONL file opened with read and append
/// access: the record plus its `'\n'` go out in a single `O_APPEND`
/// write, so concurrent appenders interleave whole lines. When the file
/// does not end in `'\n'` — a crash tore its last line — the write
/// starts with a `'\n'`, so the new record is not glued onto the torn
/// one. That can leave a blank line, which readers skip; nothing is ever
/// truncated. Durability (`sync_data`/`sync_all`) stays with the caller.
pub fn append_line(mut file: &File, record: &str) -> std::io::Result<()> {
    let len = file.metadata()?.len();
    let mut last = [b'\n'];
    if len > 0 {
        file.seek(SeekFrom::Start(len - 1))?;
        file.read_exact(&mut last)?;
    }
    let mut bytes = Vec::with_capacity(record.len() + 2);
    if last[0] != b'\n' {
        bytes.push(b'\n');
    }
    bytes.extend_from_slice(record.as_bytes());
    bytes.push(b'\n');
    file.write_all(&bytes)
}

/// Appends `event` to the JSONL event file at `path` (created if missing)
/// as one [`append_line`] record. Returns the open file so the caller
/// picks its durability (`sync_data`/`sync_all`).
pub fn append_event(path: &Path, event: &TraceEvent) -> std::io::Result<File> {
    let file = OpenOptions::new().create(true).read(true).append(true).open(path)?;
    append_line(&file, &event.to_json())?;
    Ok(file)
}

/// Reads the JSONL event file at `path` in order: empty when it does not
/// exist, and torn or unparseable lines (a crash mid-append, a foreign
/// writer) skipped, never fatal.
pub fn read_events(path: &Path) -> std::io::Result<Vec<TraceEvent>> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    Ok(text.lines().filter_map(|line| TraceEvent::from_json(line).ok()).collect())
}

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

/// Collects events in memory — the summary renderer's and the tests'
/// sink.
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

/// Broadcasts each event to several sinks (e.g. a JSONL file plus the
/// in-memory buffer behind `--metrics`).
pub struct FanoutSink {
    sinks: Vec<std::sync::Arc<dyn TraceSink>>,
}

impl FanoutSink {
    /// A sink over the given targets.
    pub fn new(sinks: Vec<std::sync::Arc<dyn TraceSink>>) -> Self {
        FanoutSink { sinks }
    }
}

impl TraceSink for FanoutSink {
    fn record(&self, event: &TraceEvent) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use std::sync::Arc;

    #[test]
    fn append_line_starts_a_fresh_line_after_a_torn_tail() {
        let path =
            std::env::temp_dir().join(format!("mc-trace-append-{}.jsonl", std::process::id()));
        let open = || {
            std::fs::OpenOptions::new().create(true).read(true).append(true).open(&path).unwrap()
        };
        std::fs::write(&path, "").unwrap();
        append_line(&open(), "{\"a\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\":1}\n");
        std::fs::write(&path, "{\"a\":1}\n{\"to").unwrap();
        let file = open();
        append_line(&file, "{\"b\":2}").unwrap();
        append_line(&file, "{\"c\":3}").unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"a\":1}\n{\"to\n{\"b\":2}\n{\"c\":3}\n"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn event_files_append_and_read_back_past_torn_lines() {
        let path =
            std::env::temp_dir().join(format!("mc-trace-events-{}.jsonl", std::process::id()));
        let _ = fs::remove_file(&path);
        assert!(read_events(&path).unwrap().is_empty(), "a missing file is empty");
        append_event(&path, &sample("a")).unwrap();
        fs::OpenOptions::new().append(true).open(&path).unwrap().write_all(b"{\"torn").unwrap();
        append_event(&path, &sample("b")).unwrap().sync_data().unwrap();
        let names: Vec<String> = read_events(&path).unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["a", "b"]);
        fs::remove_file(&path).unwrap();
        assert!(read_events(&std::env::temp_dir()).is_err(), "other errors surface");
    }

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

    #[test]
    fn fanout_reaches_every_target() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let fan = FanoutSink::new(vec![a.clone(), b.clone()]);
        fan.record(&sample("x"));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }
}
