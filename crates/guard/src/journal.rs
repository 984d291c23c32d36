//! The checkpoint journal: a sidecar JSONL file of completed points.
//!
//! Each record is one [`mc_trace::TraceEvent`] line (`name` = `"ok"` or
//! `"failed"`, a `key` field naming the evaluation, and the caller's
//! payload fields), so the file is both the resume state and an ordinary
//! JSONL document any trace consumer can read.
//!
//! Every record is one whole-line `O_APPEND` write
//! ([`mc_trace::append_line`]) followed by an fsync, so a checkpoint
//! costs O(record) — not the O(file) rewrite it once did, which made long
//! sweeps quadratic in journal size. A `SIGKILL` mid-write can leave at
//! most one torn trailing line; the next append starts a fresh line
//! after it, and loading tolerates torn or foreign lines (skipped, not
//! fatal), so a journal written by an older build or a crashed writer
//! still resumes and loses no later record.

use mc_trace::{EventKind, TraceEvent, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// One journaled evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEntry {
    /// The point completed; the payload fields reconstruct the result.
    Ok(Vec<(String, Value)>),
    /// The point failed terminally with this error. Failed entries are
    /// *not* skipped on resume — the point is re-evaluated.
    Failed(String),
}

struct JournalState {
    entries: HashMap<String, JournalEntry>,
    file: Option<std::fs::File>,
}

/// A checkpoint journal bound to one sidecar file.
pub struct Journal {
    path: PathBuf,
    state: Mutex<JournalState>,
}

fn open_append(path: &Path, truncate: bool) -> std::io::Result<std::fs::File> {
    let mut options = std::fs::OpenOptions::new();
    options.create(true).read(true).append(true);
    if truncate {
        // `truncate` conflicts with `append` on some platforms; explicit
        // create-then-reopen keeps the semantics unambiguous.
        std::fs::File::create(path)?;
    }
    options.open(path)
}

impl Journal {
    /// Creates (or truncates) a fresh journal at `path`.
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<Journal> {
        let path = path.into();
        let file = open_append(&path, true)?;
        Ok(Journal {
            path,
            state: Mutex::new(JournalState { entries: HashMap::new(), file: Some(file) }),
        })
    }

    /// Opens an existing journal for resumption, loading every parseable
    /// record. Returns the journal and the number of `ok` entries that
    /// will be skipped on re-evaluation. A missing file is an empty
    /// journal, not an error.
    pub fn resume(path: impl Into<PathBuf>) -> std::io::Result<(Journal, usize)> {
        let path = path.into();
        let mut entries = HashMap::new();
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                for line in text.lines() {
                    let Some((key, entry)) = decode_line(line) else {
                        continue; // torn tail or foreign line
                    };
                    entries.insert(key, entry);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let ok = entries.values().filter(|e| matches!(e, JournalEntry::Ok(_))).count();
        let file = open_append(&path, false)?;
        Ok((Journal { path, state: Mutex::new(JournalState { entries, file: Some(file) }) }, ok))
    }

    /// The sidecar path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Looks up the journaled outcome for `key`.
    pub fn lookup(&self, key: &str) -> Option<JournalEntry> {
        self.state.lock().expect("journal lock poisoned").entries.get(key).cloned()
    }

    /// Number of journaled entries (ok + failed).
    pub fn len(&self) -> usize {
        self.state.lock().expect("journal lock poisoned").entries.len()
    }

    /// True when nothing is journaled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records a completed point with its result payload.
    pub fn record_ok(&self, key: &str, fields: Vec<(String, Value)>) {
        self.record(key, JournalEntry::Ok(fields));
    }

    /// Records a terminal failure.
    pub fn record_failed(&self, key: &str, error: &str) {
        self.record(key, JournalEntry::Failed(error.to_owned()));
    }

    fn record(&self, key: &str, entry: JournalEntry) {
        let line = encode_line(key, &entry);
        let mut state = self.state.lock().expect("journal lock poisoned");
        state.entries.insert(key.to_owned(), entry);
        // Checkpointing is best-effort durability: a full disk must not
        // fail the sweep itself, so write errors are diagnosed, not
        // propagated. The whole line goes out in one append, so readers
        // of a live journal see only complete records (plus at most one
        // torn tail after a crash, which resume skips).
        let appended = match &state.file {
            Some(file) => mc_trace::append_line(file, &line).and_then(|()| file.sync_data()),
            None => Err(std::io::Error::other("journal file unavailable")),
        };
        if let Err(e) = appended {
            mc_trace::diag!("checkpoint: cannot write {}: {e}", self.path.display());
        }
        if mc_trace::metrics_enabled() {
            mc_trace::metrics().inc("guard.journal.records", 1);
        }
    }
}

fn encode_line(key: &str, entry: &JournalEntry) -> String {
    let mut event = match entry {
        JournalEntry::Ok(fields) => {
            let mut e = TraceEvent::new(EventKind::Event, "ok");
            e.fields = fields.clone();
            e
        }
        JournalEntry::Failed(error) => {
            TraceEvent::new(EventKind::Event, "failed").with("error", error.as_str())
        }
    };
    event.fields.insert(0, ("key".to_owned(), Value::Str(key.to_owned())));
    event.to_json()
}

fn decode_line(line: &str) -> Option<(String, JournalEntry)> {
    let event = TraceEvent::from_json(line.trim()).ok()?;
    let key = event.field("key")?.as_str()?.to_owned();
    match event.name.as_str() {
        "ok" => {
            let fields = event.fields.into_iter().filter(|(k, _)| k != "key").collect::<Vec<_>>();
            Some((key, JournalEntry::Ok(fields)))
        }
        "failed" => {
            let error = event.field("error").and_then(Value::as_str).unwrap_or("").to_owned();
            Some((key, JournalEntry::Failed(error)))
        }
        _ => None,
    }
}

fn journal_slot() -> &'static RwLock<Option<Arc<Journal>>> {
    static JOURNAL: OnceLock<RwLock<Option<Arc<Journal>>>> = OnceLock::new();
    JOURNAL.get_or_init(|| RwLock::new(None))
}

/// Installs the process-wide journal consulted by supervised batches.
pub fn install_journal(journal: Arc<Journal>) {
    *journal_slot().write().expect("journal slot poisoned") = Some(journal);
}

/// The installed journal, if any.
pub fn journal() -> Option<Arc<Journal>> {
    journal_slot().read().expect("journal slot poisoned").clone()
}

/// Removes the installed journal.
pub fn clear_journal() {
    *journal_slot().write().expect("journal slot poisoned") = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mc-guard-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn create_record_resume_round_trip() {
        let path = scratch("roundtrip");
        let journal = Journal::create(&path).unwrap();
        journal.record_ok(
            "aaaa-bbbb",
            vec![("cycles".into(), Value::Float(1.25)), ("name".into(), "ker,nel".into())],
        );
        journal.record_failed("cccc-dddd", "injected panic");
        assert_eq!(journal.len(), 2);

        let (resumed, ok) = Journal::resume(&path).unwrap();
        assert_eq!(ok, 1);
        assert_eq!(
            resumed.lookup("aaaa-bbbb"),
            Some(JournalEntry::Ok(vec![
                ("cycles".into(), Value::Float(1.25)),
                ("name".into(), Value::Str("ker,nel".into())),
            ]))
        );
        assert_eq!(
            resumed.lookup("cccc-dddd"),
            Some(JournalEntry::Failed("injected panic".into()))
        );
        assert_eq!(resumed.lookup("missing"), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn later_records_overwrite_earlier_ones_for_a_key() {
        let path = scratch("overwrite");
        let journal = Journal::create(&path).unwrap();
        journal.record_failed("k", "first try died");
        journal.record_ok("k", vec![("v".into(), Value::UInt(1))]);
        let (resumed, ok) = Journal::resume(&path).unwrap();
        assert_eq!(ok, 1);
        assert!(matches!(resumed.lookup("k"), Some(JournalEntry::Ok(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_and_foreign_lines_are_skipped_on_resume() {
        let path = scratch("torn");
        let journal = Journal::create(&path).unwrap();
        journal.record_ok("good", vec![("v".into(), Value::UInt(7))]);
        // Simulate a crash mid-write of the next record plus a foreign line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"seq\":0,\"us\":0,\"kind\":\"event\",\"name\":\"ok\",\"fie");
        std::fs::write(&path, text).unwrap();
        let (resumed, ok) = Journal::resume(&path).unwrap();
        assert_eq!(ok, 1);
        assert!(resumed.lookup("good").is_some());
        // A record appended after the tear must survive the next resume.
        resumed.record_ok("after", vec![("v".into(), Value::UInt(8))]);
        let (again, ok) = Journal::resume(&path).unwrap();
        assert_eq!(ok, 2);
        assert_eq!(
            again.lookup("after"),
            Some(JournalEntry::Ok(vec![("v".into(), Value::UInt(8))]))
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_of_a_missing_file_is_an_empty_journal() {
        let path = scratch("missing-never-created");
        let _ = std::fs::remove_file(&path);
        let (journal, ok) = Journal::resume(&path).unwrap();
        assert_eq!(ok, 0);
        assert!(journal.is_empty());
    }

    #[test]
    fn the_file_on_disk_is_always_a_complete_document() {
        let path = scratch("complete");
        let journal = Journal::create(&path).unwrap();
        for i in 0..5u64 {
            journal.record_ok(&format!("k{i}"), vec![("v".into(), Value::UInt(i))]);
            // After every record the file parses fully: no torn state.
            let text = std::fs::read_to_string(&path).unwrap();
            let parsed = text.lines().filter(|l| decode_line(l).is_some()).count();
            assert_eq!(parsed, i as usize + 1);
        }
        std::fs::remove_file(&path).unwrap();
    }
}
