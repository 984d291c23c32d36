//! The accepted-job journal: what makes the daemon crash-safe.
//!
//! Every admitted submission is appended to `journal.frames` in the state
//! directory *before* the client sees `202 Accepted`; terminal outcomes
//! (`done`, `failed`, `canceled`) append matching records as they happen.
//! Each record is one trace event's JSON in an [`mc_report::fsio`] frame,
//! one `O_APPEND` write plus `sync_data`: a SIGKILL can at worst tear the
//! final record, which replay skips. An older `journal.jsonl` is ignored.
//!
//! On startup [`JobJournal::compact`] folds the journal: jobs with a
//! terminal record are remembered (so `GET /jobs/<id>` answers across
//! restarts), jobs accepted but never finished are re-queued in their
//! original admission order, and the file is cut to one admission and one
//! last outcome per job. Because job IDs are content-derived
//! (kernel-XML fingerprint + options hash), a re-run of a half-finished
//! job regenerates the same programs under the same options, so it
//! warm-hits every evaluation the previous process already stored:
//! restart recovery costs only the work that was genuinely lost.
//!
//! Journal appends run through [`mc_guard::fire_write`], so `enospc@I`
//! chaos plans cover the daemon's own persistence too.

use mc_report::fsio;
use mc_trace::{EventKind, TraceEvent};
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Journal file name inside the daemon state directory, and the record
/// kind of its frames.
pub const JOURNAL_FILE: &str = "journal.frames";
const KIND: &str = "journal";

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
#[derive(Debug, Default, PartialEq, Eq)]
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
        fsio::append_frame(&self.path, &record(event))?.sync_data()
    }

    /// Journals an admission. Must succeed before the job is queued.
    pub fn accepted(&self, job: &AcceptedJob) -> std::io::Result<()> {
        self.append(&admission_event(job))
    }

    /// Journals a job's terminal outcome. A failed append is diagnosed,
    /// not fatal: a restart re-runs the job.
    pub fn finished(&self, id: &str, outcome: &Outcome) {
        if let Err(e) = self.append(&outcome_event(id, outcome)) {
            mc_trace::diag!("mc-serve: cannot journal the outcome of {id}: {e}");
        }
    }

    /// Folds the journal into finished and still-pending jobs, in one pass
    /// over its records and one over its jobs. A job's first admission and
    /// last outcome win. Damaged records (the torn tail of a crash) and
    /// outcomes for unknown jobs are skipped, never fatal.
    pub fn replay(&self) -> Replay {
        self.fold().0
    }

    /// [`replay`](JobJournal::replay), then, when the journal holds more
    /// than one admission and one last outcome per job, replaces it by
    /// exactly those records ([`fsio::replace`]), which replay the same. A
    /// failed rewrite is diagnosed and leaves the journal as it was.
    pub fn compact(&self) -> Replay {
        let (replay, records) = self.fold();
        let mut kept = (replay.finished.iter())
            .flat_map(|(job, end)| [admission_event(job), outcome_event(&job.id, end)])
            .chain(replay.pending.iter().map(admission_event));
        if records > 2 * replay.finished.len() + replay.pending.len() {
            let rewritten = fsio::replace(&self.path, |out| {
                kept.try_for_each(|event| out.write_all(&record(&event)))
            });
            if let Err(e) = rewritten {
                mc_trace::diag!("mc-serve: cannot compact {}: {e}", self.path.display());
            }
        }
        replay
    }

    /// The replay and the number of journal records it folded.
    fn fold(&self) -> (Replay, usize) {
        let payloads = fsio::read_log(&self.path, KIND).unwrap_or_default();
        // Duplicates collapse: the same content-derived ID is only one job
        // however many times it was submitted.
        let mut admitted: HashSet<String> = HashSet::new();
        let mut accepted: Vec<AcceptedJob> = Vec::new();
        let mut outcomes: HashMap<String, Outcome> = HashMap::new();
        for event in payloads.iter().filter_map(|p| TraceEvent::from_json(p).ok()) {
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
        (replay, payloads.len())
    }
}

/// The journal frame of `event`.
fn record(event: &TraceEvent) -> Vec<u8> {
    fsio::encode(0, 0, KIND, &event.name, &event.to_json())
}

/// The journal event of an admission.
fn admission_event(job: &AcceptedJob) -> TraceEvent {
    TraceEvent::new(EventKind::Event, "serve.accepted")
        .with("job", job.id.as_str())
        .with("client", job.client.as_str())
        .with("name", job.name.as_str())
        .with("options", job.options_args.join(" "))
        .with("xml", job.xml.as_str())
}

/// The journal event of job `id`'s terminal outcome.
fn outcome_event(id: &str, outcome: &Outcome) -> TraceEvent {
    let event = |name| TraceEvent::new(EventKind::Event, name).with("job", id);
    match outcome {
        Outcome::Done { bytes } => event("serve.done").with("bytes", *bytes),
        Outcome::Failed { kind, message } => {
            event("serve.failed").with("kind", kind.as_str()).with("message", message.as_str())
        }
        Outcome::Canceled => event("serve.canceled"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::os::unix::fs::MetadataExt;

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

    fn failed(kind: &str, message: &str) -> Outcome {
        Outcome::Failed { kind: kind.to_owned(), message: message.to_owned() }
    }

    /// Compacts the journal as a daemon restart does and checks that the
    /// compacted journal replays exactly as the history did.
    fn compacted(journal: &JobJournal) -> Replay {
        let before = journal.replay();
        assert_eq!(journal.compact(), before, "compaction returns the replay");
        assert_eq!(journal.replay(), before, "the compacted journal replays the same");
        before
    }

    #[test]
    fn replay_separates_finished_from_pending_in_admission_order() {
        let dir = temp_dir("replay");
        let journal = JobJournal::open(&dir);
        journal.accepted(&job("aa-1")).unwrap();
        journal.accepted(&job("bb-2")).unwrap();
        journal.accepted(&job("cc-3")).unwrap();
        journal.finished("bb-2", &Outcome::Done { bytes: 123 });
        journal.finished("cc-3", &failed("panic", "boom"));
        let replay = compacted(&journal);
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
    fn duplicate_admissions_collapse() {
        let dir = temp_dir("duplicate");
        let journal = JobJournal::open(&dir);
        journal.accepted(&job("aa-1")).unwrap();
        journal.accepted(&job("aa-1")).unwrap(); // duplicate submission
        let replay = compacted(&journal);
        assert_eq!(replay.pending, [job("aa-1")]);
        assert!(replay.finished.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stray_byte_loses_no_record() {
        let dir = temp_dir("stray");
        let journal = JobJournal::open(&dir);
        for id in ["aa-1", "bb-2", "cc-3"] {
            journal.accepted(&job(id)).unwrap();
        }
        let mut file = fs::OpenOptions::new().append(true).open(journal.path()).unwrap();
        file.write_all(&[0xff]).unwrap();
        drop(file);
        journal.accepted(&job("dd-4")).unwrap();
        journal.finished("aa-1", &Outcome::Done { bytes: 7 });
        let replay = compacted(&journal);
        let pending: Vec<&str> = replay.pending.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(pending, ["bb-2", "cc-3", "dd-4"]);
        assert_eq!(replay.finished, [(job("aa-1"), Outcome::Done { bytes: 7 })]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_missing_journal_replays_to_nothing() {
        let dir = temp_dir("missing");
        let journal = JobJournal::open(&dir.join("nope"));
        assert_eq!(compacted(&journal), Replay::default());
        assert!(!journal.path().exists(), "compacting nothing writes nothing");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_admissions_and_repeated_outcomes_fold_per_job() {
        let dir = temp_dir("fold");
        let journal = JobJournal::open(&dir);
        let resubmitted = AcceptedJob { client: "bob".to_owned(), ..job("aa-1") };
        journal.accepted(&job("aa-1")).unwrap();
        journal.accepted(&job("bb-2")).unwrap();
        journal.finished("aa-1", &failed("timeout", "slow"));
        journal.accepted(&resubmitted).unwrap();
        journal.finished("aa-1", &Outcome::Done { bytes: 5 });
        journal.accepted(&job("cc-3")).unwrap();
        journal.finished("bb-2", &Outcome::Canceled);
        journal.accepted(&job("dd-4")).unwrap();
        journal.finished("bb-2", &Outcome::Done { bytes: 9 });
        journal.accepted(&job("bb-2")).unwrap();
        journal.accepted(&job("cc-3")).unwrap();
        journal.finished("zz-9", &Outcome::Done { bytes: 1 }); // an outcome for no admitted job
        let replay = compacted(&journal);
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
    fn restarts_over_a_long_history_keep_one_admission_and_outcome_per_job() {
        let dir = temp_dir("restarts");
        // Each of 6 processes compacts at open (as `Daemon::open` does),
        // then resubmits every job twice and fails, cancels or finishes most.
        for process in 0..6 {
            let journal = JobJournal::open(&dir);
            let before = journal.replay();
            assert_eq!(journal.compact(), before);
            assert_eq!(journal.replay(), before, "compaction keeps the replay");
            // A compacted journal has nothing to drop: it is not rewritten.
            let inode = || fs::metadata(journal.path()).map(|m| m.ino()).ok();
            let (first, _) = (inode(), journal.compact());
            assert_eq!(inode(), first);
            let payloads = fsio::read_log(journal.path(), KIND).unwrap();
            let kept: Vec<TraceEvent> =
                payloads.iter().map(|p| TraceEvent::from_json(p).unwrap()).collect();
            assert_eq!(kept.len(), 2 * before.finished.len() + before.pending.len());
            for i in 0..40 {
                let id = format!("{i:02}-job");
                let of = |name: &str| {
                    let ours =
                        |e: &&TraceEvent| e.field("job").and_then(|v| v.as_str()) == Some(&id);
                    kept.iter().filter(ours).filter(|e| e.name == name).count()
                };
                let outcomes = of("serve.done") + of("serve.failed") + of("serve.canceled");
                assert_eq!(of("serve.accepted"), usize::from(process > 0), "{id} at {process}");
                assert!(outcomes <= 1, "{id} at {process}: {outcomes} outcomes");
                journal.accepted(&job(&id)).unwrap();
                journal.accepted(&job(&id)).unwrap();
                match (i + process) % 4 {
                    0 => journal.finished(&id, &Outcome::Done { bytes: i }),
                    1 => journal.finished(&id, &failed("panic", "boom")),
                    2 => journal.finished(&id, &Outcome::Canceled),
                    _ => {}
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_costs_about_what_parsing_the_journal_costs() {
        // A restart folds the whole journal once: folding it must stay
        // linear, within a small factor of parsing its records.
        let dir = temp_dir("scale");
        let journal = JobJournal::open(&dir);
        let jobs = 8000;
        let events: Vec<TraceEvent> = (0..jobs)
            .flat_map(|i| {
                let id = format!("{i:016x}-{i:016x}");
                [admission_event(&job(&id)), outcome_event(&id, &Outcome::Done { bytes: 1 })]
            })
            .collect();
        let payloads: Vec<String> = events.iter().map(TraceEvent::to_json).collect();
        fs::write(journal.path(), events.iter().flat_map(record).collect::<Vec<u8>>()).unwrap();
        let fastest = |f: &dyn Fn()| {
            let runs = (0..3).map(|_| {
                let start = std::time::Instant::now();
                f();
                start.elapsed()
            });
            runs.min().expect("three runs")
        };
        let parse = fastest(&|| {
            for payload in &payloads {
                std::hint::black_box(TraceEvent::from_json(payload).ok());
            }
        });
        let replay = fastest(&|| assert_eq!(journal.replay().finished.len(), jobs));
        // A linear fold reads ~2.5x in a debug build; a scan per job reads
        // ~19x at this size and grows with it.
        assert!(replay < parse * 6, "replay {replay:?} vs parsing its records {parse:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
