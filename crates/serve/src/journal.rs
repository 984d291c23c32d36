//! The accepted-job journal: what makes the daemon crash-safe.
//!
//! Every admitted submission is appended to `journal.jsonl` in the state
//! directory *before* the client sees `202 Accepted`; terminal outcomes
//! (`done`, `failed`, `canceled`) append matching lines as they happen.
//! The format is mc-trace's JSONL event encoding — the same
//! torn-tail-tolerant, append-only shape mc-store's ledger uses —
//! written with [`mc_trace::append_event`] (`O_APPEND`) + `sync_data` so a
//! SIGKILL can at worst tear the final line, and the next append starts
//! a fresh line after it.
//!
//! On startup [`JobJournal::replay`] folds the journal: jobs with a
//! terminal line are remembered (so `GET /jobs/<id>` answers across
//! restarts), jobs accepted but never finished are re-queued in their
//! original admission order. Because job IDs are content-derived
//! (kernel-XML fingerprint + options hash), a re-run of a half-finished
//! job regenerates the same programs under the same options, so it
//! warm-hits every evaluation the previous process already stored:
//! restart recovery costs only the work that was genuinely lost.
//!
//! Journal appends run through [`mc_guard::fire_write`], so `enospc@I`
//! chaos plans cover the daemon's own persistence too.

use mc_trace::{EventKind, TraceEvent};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Journal file name inside the daemon state directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// One admitted submission, as journaled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcceptedJob {
    /// Content-derived job ID (`xmlfp-optionsfp`, both `%016x`).
    pub id: String,
    /// Submitting client.
    pub client: String,
    /// Document/kernel name.
    pub name: String,
    /// Whitespace-separated launcher option args.
    pub options_args: Vec<String>,
    /// The kernel description XML.
    pub xml: String,
}

/// A job's journaled terminal outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Result document written, `bytes` long.
    Done { bytes: u64 },
    /// Terminal failure of `kind` ("panic", "timeout", …).
    Failed { kind: String, message: String },
    /// Canceled by request.
    Canceled,
}

/// What a replay recovered.
#[derive(Debug, Default)]
pub struct Replay {
    /// Jobs with a terminal outcome, in admission order, each with its
    /// last outcome.
    pub finished: Vec<(AcceptedJob, Outcome)>,
    /// Jobs accepted but not finished, in admission order — the restart
    /// work queue.
    pub pending: Vec<AcceptedJob>,
}

/// Append-only journal handle.
#[derive(Debug)]
pub struct JobJournal {
    path: PathBuf,
}

impl JobJournal {
    /// A journal living in `state_dir` (created lazily on first append).
    pub fn open(state_dir: &Path) -> JobJournal {
        JobJournal { path: state_dir.join(JOURNAL_FILE) }
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn append(&self, event: &TraceEvent) -> std::io::Result<()> {
        mc_guard::fire_write(JOURNAL_FILE)?;
        if let Some(parent) = self.path.parent() {
            fs::create_dir_all(parent)?;
        }
        mc_trace::append_event(&self.path, event)?.sync_data()
    }

    /// Journals an admission. Must succeed before the job is queued.
    pub fn accepted(&self, job: &AcceptedJob) -> std::io::Result<()> {
        self.append(
            &TraceEvent::new(EventKind::Event, "serve.accepted")
                .with("job", job.id.as_str())
                .with("client", job.client.as_str())
                .with("name", job.name.as_str())
                .with("options", job.options_args.join(" "))
                .with("xml", job.xml.as_str()),
        )
    }

    /// Journals a completion.
    pub fn done(&self, id: &str, bytes: u64) -> std::io::Result<()> {
        self.append(
            &TraceEvent::new(EventKind::Event, "serve.done").with("job", id).with("bytes", bytes),
        )
    }

    /// Journals a terminal failure.
    pub fn failed(&self, id: &str, kind: &str, message: &str) -> std::io::Result<()> {
        self.append(
            &TraceEvent::new(EventKind::Event, "serve.failed")
                .with("job", id)
                .with("kind", kind)
                .with("message", message),
        )
    }

    /// Journals a cancellation.
    pub fn canceled(&self, id: &str) -> std::io::Result<()> {
        self.append(&TraceEvent::new(EventKind::Event, "serve.canceled").with("job", id))
    }

    /// Folds the journal into finished and still-pending jobs, in one pass
    /// over its lines and one over its jobs. A job's first admission and
    /// last outcome win. Unparseable lines (the torn tail of a crash) and
    /// outcome lines for unknown jobs are skipped, never fatal.
    pub fn replay(&self) -> Replay {
        let Ok(events) = mc_trace::read_events(&self.path) else { return Replay::default() };
        // Duplicates collapse: the same content-derived ID is only one job
        // however many times it was submitted.
        let mut admitted: HashSet<String> = HashSet::new();
        let mut accepted: Vec<AcceptedJob> = Vec::new();
        let mut outcomes: HashMap<String, Outcome> = HashMap::new();
        for event in &events {
            let field = |key: &str| {
                event.field(key).and_then(|v| v.as_str()).map(str::to_owned).unwrap_or_default()
            };
            match event.name.as_str() {
                "serve.accepted" if admitted.insert(field("job")) => accepted.push(AcceptedJob {
                    id: field("job"),
                    client: field("client"),
                    name: field("name"),
                    options_args: field("options").split_whitespace().map(str::to_owned).collect(),
                    xml: field("xml"),
                }),
                "serve.done" => {
                    let bytes = event.field("bytes").and_then(|v| v.as_u64()).unwrap_or(0);
                    outcomes.insert(field("job"), Outcome::Done { bytes });
                }
                "serve.failed" => {
                    let outcome =
                        Outcome::Failed { kind: field("kind"), message: field("message") };
                    outcomes.insert(field("job"), outcome);
                }
                "serve.canceled" => {
                    outcomes.insert(field("job"), Outcome::Canceled);
                }
                _ => {}
            }
        }
        let mut replay = Replay::default();
        for job in accepted {
            match outcomes.remove(&job.id) {
                Some(outcome) => replay.finished.push((job, outcome)),
                None => replay.pending.push(job),
            }
        }
        replay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mc-serve-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn job(id: &str) -> AcceptedJob {
        AcceptedJob {
            id: id.to_owned(),
            client: "alice".to_owned(),
            name: "loadstore".to_owned(),
            options_args: vec!["--repetitions=4".to_owned(), "--tripcount=64".to_owned()],
            xml: "<kernel name=\"k\">\n</kernel>".to_owned(),
        }
    }

    #[test]
    fn replay_separates_finished_from_pending_in_admission_order() {
        let dir = temp_dir("replay");
        let journal = JobJournal::open(&dir);
        journal.accepted(&job("aa-1")).unwrap();
        journal.accepted(&job("bb-2")).unwrap();
        journal.accepted(&job("cc-3")).unwrap();
        journal.done("bb-2", 123).unwrap();
        journal.failed("cc-3", "panic", "boom").unwrap();
        let replay = journal.replay();
        assert_eq!(replay.pending.len(), 1);
        assert_eq!(replay.pending[0], job("aa-1"), "fields survive the round trip");
        assert_eq!(replay.finished.len(), 2);
        assert_eq!(replay.finished[0].1, Outcome::Done { bytes: 123 });
        assert_eq!(
            replay.finished[1].1,
            Outcome::Failed { kind: "panic".to_owned(), message: "boom".to_owned() }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_tail_and_duplicate_admissions_are_tolerated() {
        let dir = temp_dir("torn");
        let journal = JobJournal::open(&dir);
        journal.accepted(&job("aa-1")).unwrap();
        journal.accepted(&job("aa-1")).unwrap(); // duplicate submission
                                                 // Simulate a crash mid-append: garbage trailing bytes.
        let mut file = fs::OpenOptions::new().append(true).open(journal.path()).unwrap();
        file.write_all(b"{\"seq\":9,\"us\":1,\"kind\":\"ev").unwrap();
        drop(file);
        let replay = journal.replay();
        assert_eq!(replay.pending.len(), 1, "duplicate collapses, torn tail skipped");
        assert!(replay.finished.is_empty());
        // An admission journaled after the tear is not lost with it.
        journal.accepted(&job("bb-2")).unwrap();
        let replay = journal.replay();
        let pending: Vec<&str> = replay.pending.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(pending, ["aa-1", "bb-2"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_missing_journal_replays_to_nothing() {
        let dir = temp_dir("missing");
        let replay = JobJournal::open(&dir.join("nope")).replay();
        assert!(replay.pending.is_empty() && replay.finished.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_admissions_and_repeated_outcomes_fold_per_job() {
        let dir = temp_dir("fold");
        let journal = JobJournal::open(&dir);
        let resubmitted = AcceptedJob { client: "bob".to_owned(), ..job("aa-1") };
        journal.accepted(&job("aa-1")).unwrap();
        journal.accepted(&job("bb-2")).unwrap();
        journal.failed("aa-1", "timeout", "slow").unwrap();
        journal.accepted(&resubmitted).unwrap();
        journal.done("aa-1", 5).unwrap();
        journal.accepted(&job("cc-3")).unwrap();
        journal.canceled("bb-2").unwrap();
        journal.accepted(&job("dd-4")).unwrap();
        journal.done("bb-2", 9).unwrap();
        journal.accepted(&job("bb-2")).unwrap();
        journal.accepted(&job("cc-3")).unwrap();
        journal.done("zz-9", 1).unwrap(); // an outcome for no admitted job
        let replay = journal.replay();
        // The first admission's fields and the last outcome win.
        assert_eq!(
            replay.finished,
            [(job("aa-1"), Outcome::Done { bytes: 5 }), (job("bb-2"), Outcome::Done { bytes: 9 })]
        );
        let pending: Vec<&str> = replay.pending.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(pending, ["cc-3", "dd-4"], "admission order");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_costs_about_what_parsing_the_journal_costs() {
        // A restart replays the whole, never compacted, history: folding
        // it must stay linear, within a small factor of parsing its lines.
        let dir = temp_dir("scale");
        let journal = JobJournal::open(&dir);
        journal.accepted(&job("JOB")).unwrap();
        journal.done("JOB", 1).unwrap();
        let pair = fs::read_to_string(journal.path()).unwrap();
        let jobs = 8000;
        let text: String =
            (0..jobs).map(|i| pair.replace("JOB", &format!("{i:016x}-{i:016x}"))).collect();
        fs::write(journal.path(), &text).unwrap();
        let fastest = |f: &dyn Fn()| {
            let runs = (0..3).map(|_| {
                let start = std::time::Instant::now();
                f();
                start.elapsed()
            });
            runs.min().expect("three runs")
        };
        let parse = fastest(&|| {
            for line in text.lines() {
                std::hint::black_box(TraceEvent::from_json(line).ok());
            }
        });
        let replay = fastest(&|| assert_eq!(journal.replay().finished.len(), jobs));
        // A linear fold reads ~2.5x in a debug build; a scan per job reads
        // ~19x at this size and grows with it.
        assert!(replay < parse * 6, "replay {replay:?} vs parsing its lines {parse:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
