//! The daemon core: admission, the journaled job queue, and the
//! scheduler that drives jobs through the shared evaluation engine.
//!
//! ## Life of a submission
//!
//! `submit` validates cheaply (launcher options parse, kernel XML parse —
//! no generation, no simulation), derives the content-addressed job ID,
//! and walks the admission ladder: duplicate collapse → per-client error
//! budget → bounded queue → token bucket. Only then is the job journaled
//! (crash safety) and queued. Every rejection is typed and carries a
//! retry hint, so clients distinguish "slow down" from "go away".
//!
//! ## Life of a job
//!
//! Jobs evaluate through the process run context
//! ([`mc_launcher::Ctx::process`]): its memos, and the store
//! `ServeConfig::store_dir` attaches to it. Each job parses its kernel
//! XML and takes its programs from that context's generation memo
//! ([`mc_launcher::Ctx::generate_shared`]), keyed by the parsed
//! description: the jobs of a frequency sweep over one kernel, or two
//! spellings of it, share one generated set.
//! One scheduler thread owns job execution; within a job, evaluation
//! points fan out across the process-wide `mc-exec` pool, so `--jobs`
//! controls intra-job parallelism while jobs themselves serialize —
//! measurements never fight each other for the machine, which is the
//! whole point of MicroLauncher's §4 environment control. Points run in
//! chunks so the scheduler can observe cancellation, deadlines, drain,
//! and halt between chunks; completed chunks live in the evaluation
//! store, so any interrupted job re-runs warm.
//!
//! ## Determinism contract
//!
//! A job's result document depends only on its kernel XML and launcher
//! options: the manifest omits the worker count, wall-clock timestamps,
//! and submitting client. `jobs=1` and `jobs=8` daemons produce
//! byte-identical payloads, as do chaos and fault-free runs for the
//! jobs the chaos plan spares.

use crate::journal::{AcceptedJob, JobJournal, Outcome};
use crate::quota::{ClientQuotas, QuotaConfig, Take};
use mc_launcher::launcher::RunReport;
use mc_launcher::{Ctx, EvalPoint, LauncherOptions};
use mc_pulse::{HttpLimits, Registry, RunRecord};
use mc_report::RunManifest;
use mc_store::StoreCounters;
use mc_trace::{diag, EventKind, TraceEvent};
use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Points evaluated per scheduler slice; flags (cancel, deadline, drain,
/// halt) are observed between slices.
const CHUNK: usize = 8;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// State directory: journal, result documents.
    pub state_dir: PathBuf,
    /// Evaluation store root (`None` = no persistent store).
    pub store_dir: Option<PathBuf>,
    /// Registry root for the drain-time run record (`None` = skip).
    pub registry_root: Option<PathBuf>,
    /// Maximum queued (not yet running) jobs before submissions shed.
    pub queue_depth: usize,
    /// Per-client admission quotas.
    pub quota: QuotaConfig,
    /// Per-job wall-clock deadline in milliseconds (0 = none).
    pub job_deadline_ms: u64,
    /// HTTP hardening limits for the API listener.
    pub limits: HttpLimits,
}

impl ServeConfig {
    /// A config rooted at `state_dir` with defaults everywhere else.
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            state_dir: state_dir.into(),
            store_dir: None,
            registry_root: None,
            queue_depth: 64,
            quota: QuotaConfig::default(),
            job_deadline_ms: 0,
            limits: HttpLimits::default(),
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for the scheduler.
    Queued,
    /// Being evaluated.
    Running,
    /// Result document written (`bytes` long).
    Done {
        /// Result document size.
        bytes: u64,
    },
    /// Terminal failure.
    Failed {
        /// Failure class ("panic", "timeout", "generation", …).
        kind: String,
        /// Human-readable detail.
        message: String,
    },
    /// Canceled by request.
    Canceled,
}

impl JobState {
    /// Short wire name.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
            JobState::Canceled => "canceled",
        }
    }

    /// True for states that never change again.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done { .. } | JobState::Failed { .. } | JobState::Canceled)
    }
}

/// A typed admission rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reject {
    /// The submission failed validation (bad options, bad XML).
    Invalid(String),
    /// The client's token bucket is empty; retry after the hint.
    RateLimited {
        /// Milliseconds until a token is available.
        retry_after_ms: u64,
    },
    /// The job queue is at capacity; retry after the hint.
    QueueFull {
        /// Suggested backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The client spent its error budget; refused until restart.
    OverErrorBudget {
        /// Terminal failures recorded for the client.
        failures: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The daemon is draining and admits nothing.
    Draining,
    /// The daemon could not persist the admission (e.g. full disk).
    Unavailable(String),
}

/// What a submission produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submitted {
    /// Newly admitted at this queue position (1-based).
    Accepted {
        /// Content-derived job ID.
        job: String,
        /// 1-based queue position at admission.
        position: usize,
    },
    /// The same content was already submitted; no new work.
    Duplicate {
        /// The existing job's ID.
        job: String,
        /// Its current state name.
        state: String,
    },
    /// Refused, with the reason.
    Rejected(Reject),
}

/// One parsed submission, before admission.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Submitting client (quota key).
    pub client: String,
    /// Document name override (`None` = the kernel's own name).
    pub name: Option<String>,
    /// Launcher option args (`--key=value`, no whitespace inside).
    pub options_args: Vec<String>,
    /// Kernel description XML.
    pub xml: String,
}

/// A read-only job snapshot for the API layer.
#[derive(Debug, Clone)]
pub struct JobView {
    /// Content-derived job ID.
    pub id: String,
    /// Submitting client.
    pub client: String,
    /// Document name.
    pub name: String,
    /// Current state.
    pub state: JobState,
}

/// Daemon health counters for `/healthz`.
#[derive(Debug, Clone, Default)]
pub struct Health {
    /// Queued jobs.
    pub queued: u64,
    /// Running jobs (0 or 1).
    pub running: u64,
    /// Completed jobs.
    pub done: u64,
    /// Failed jobs.
    pub failed: u64,
    /// Canceled jobs.
    pub canceled: u64,
    /// True once drain was requested.
    pub draining: bool,
    /// Evaluation-store counters, when a store is attached.
    pub store: Option<StoreCounters>,
}

struct JobEntry {
    job: AcceptedJob,
    state: JobState,
    cancel: bool,
    events: Vec<String>,
}

impl JobEntry {
    fn push_event(&mut self, event: TraceEvent) {
        self.events.push(event.to_json());
    }

    fn state_event(&self) -> TraceEvent {
        TraceEvent::new(EventKind::Event, "serve.job")
            .with("job", self.job.id.as_str())
            .with("state", self.state.name())
    }
}

struct Inner {
    jobs: BTreeMap<String, JobEntry>,
    queue: VecDeque<String>,
    quotas: ClientQuotas,
}

/// The sweep daemon: admission control, journaled queue, scheduler.
pub struct Daemon {
    config: ServeConfig,
    journal: JobJournal,
    inner: Mutex<Inner>,
    wake: Condvar,
    draining: AtomicBool,
    halted: AtomicBool,
}

impl Daemon {
    /// Opens (or re-opens) a daemon over `config.state_dir`: creates the
    /// state layout, attaches the evaluation store, and replays the job
    /// journal — finished jobs become queryable history, unfinished ones
    /// re-enter the queue in admission order.
    pub fn open(config: ServeConfig) -> std::io::Result<Arc<Daemon>> {
        fs::create_dir_all(config.state_dir.join("results"))?;
        Ctx::process().set_store(config.store_dir.as_deref());
        let journal = JobJournal::open(&config.state_dir);
        let replay = journal.replay();
        let mut inner = Inner {
            jobs: BTreeMap::new(),
            queue: VecDeque::new(),
            quotas: ClientQuotas::new(config.quota),
        };
        for (job, outcome) in replay.finished {
            let state = match outcome {
                Outcome::Done { bytes } => JobState::Done { bytes },
                Outcome::Failed { kind, message } => JobState::Failed { kind, message },
                Outcome::Canceled => JobState::Canceled,
            };
            let id = job.id.clone();
            let mut entry = JobEntry { job, state, cancel: false, events: Vec::new() };
            entry.push_event(entry.state_event());
            inner.jobs.insert(id, entry);
        }
        let recovered = replay.pending.len();
        for job in replay.pending {
            let id = job.id.clone();
            let mut entry =
                JobEntry { job, state: JobState::Queued, cancel: false, events: Vec::new() };
            entry.push_event(
                TraceEvent::new(EventKind::Event, "serve.job")
                    .with("job", id.as_str())
                    .with("state", "queued")
                    .with("recovered", true),
            );
            inner.jobs.insert(id.clone(), entry);
            inner.queue.push_back(id);
        }
        if recovered > 0 {
            diag!("mc-serve: recovered {recovered} unfinished job(s) from the journal");
        }
        Ok(Arc::new(Daemon {
            config,
            journal,
            inner: Mutex::new(inner),
            wake: Condvar::new(),
            draining: AtomicBool::new(false),
            halted: AtomicBool::new(false),
        }))
    }

    /// The governing configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Starts the scheduler thread. Call once; join the handle after
    /// [`Daemon::drain`] or [`Daemon::halt`].
    pub fn start(self: &Arc<Self>) -> std::thread::JoinHandle<()> {
        let daemon = Arc::clone(self);
        std::thread::Builder::new()
            .name("mc-serve-sched".into())
            .spawn(move || daemon.scheduler())
            .expect("spawn scheduler")
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Validates and admits one submission at `now`.
    pub fn submit(&self, submission: &Submission, now: Instant) -> Submitted {
        if self.draining.load(Ordering::Acquire) {
            return Submitted::Rejected(Reject::Draining);
        }
        if let Some(bad) = submission.options_args.iter().find(|a| a.contains(char::is_whitespace))
        {
            return Submitted::Rejected(Reject::Invalid(format!(
                "option argument contains whitespace: `{bad}`"
            )));
        }
        let options = match LauncherOptions::from_args_over(
            LauncherOptions::default(),
            &submission.options_args,
        ) {
            Ok(o) => o,
            Err(e) => return Submitted::Rejected(Reject::Invalid(e)),
        };
        let desc = match mc_kernel::xml::parse_kernel(&submission.xml) {
            Ok(d) => d,
            Err(e) => {
                return Submitted::Rejected(Reject::Invalid(format!("kernel XML rejected: {e}")))
            }
        };
        let name = submission.name.clone().unwrap_or(desc.name);
        let id = job_id(&submission.xml, &options);
        let mut inner = self.lock();
        if let Some(entry) = inner.jobs.get(&id) {
            return Submitted::Duplicate { job: id, state: entry.state.name().to_owned() };
        }
        if inner.quotas.over_budget(&submission.client) {
            return Submitted::Rejected(Reject::OverErrorBudget {
                failures: inner.quotas.failure_count(&submission.client),
                budget: inner.quotas.config().max_failures,
            });
        }
        if inner.queue.len() >= self.config.queue_depth {
            // Suggest waiting roughly one queue-drain interval, bounded.
            let retry_after_ms = ((inner.queue.len() as u64) * 250).clamp(250, 5_000);
            return Submitted::Rejected(Reject::QueueFull { retry_after_ms });
        }
        if let Take::Denied { retry_after_ms } = inner.quotas.try_take(&submission.client, now) {
            return Submitted::Rejected(Reject::RateLimited { retry_after_ms });
        }
        let job = AcceptedJob {
            id: id.clone(),
            client: submission.client.clone(),
            name,
            options_args: submission.options_args.clone(),
            xml: submission.xml.clone(),
        };
        // Journal before queueing: once the client sees 202, a crash
        // cannot lose the job.
        if let Err(e) = self.journal.accepted(&job) {
            return Submitted::Rejected(Reject::Unavailable(format!("journal append failed: {e}")));
        }
        let mut entry =
            JobEntry { job, state: JobState::Queued, cancel: false, events: Vec::new() };
        entry.push_event(entry.state_event());
        inner.jobs.insert(id.clone(), entry);
        inner.queue.push_back(id.clone());
        let position = inner.queue.len();
        drop(inner);
        self.wake.notify_all();
        Submitted::Accepted { job: id, position }
    }

    /// One job's snapshot.
    pub fn job(&self, id: &str) -> Option<JobView> {
        let inner = self.lock();
        inner.jobs.get(id).map(|entry| JobView {
            id: entry.job.id.clone(),
            client: entry.job.client.clone(),
            name: entry.job.name.clone(),
            state: entry.state.clone(),
        })
    }

    /// Every job's snapshot, in ID order.
    pub fn jobs(&self) -> Vec<JobView> {
        let inner = self.lock();
        inner
            .jobs
            .values()
            .map(|entry| JobView {
                id: entry.job.id.clone(),
                client: entry.job.client.clone(),
                name: entry.job.name.clone(),
                state: entry.state.clone(),
            })
            .collect()
    }

    /// A job's progress events as JSONL text.
    pub fn events_text(&self, id: &str) -> Option<String> {
        let inner = self.lock();
        inner.jobs.get(id).map(|entry| {
            let mut out = String::new();
            for line in &entry.events {
                out.push_str(line);
                out.push('\n');
            }
            out
        })
    }

    /// The result document path for a job ID.
    pub fn result_path(&self, id: &str) -> PathBuf {
        self.config.state_dir.join("results").join(format!("{id}.csv"))
    }

    /// The result document, once the job is done.
    pub fn result_bytes(&self, id: &str) -> Option<Vec<u8>> {
        match self.job(id)?.state {
            JobState::Done { .. } => fs::read(self.result_path(id)).ok(),
            _ => None,
        }
    }

    /// Requests cancellation. Queued jobs cancel immediately; running
    /// jobs cancel at the next chunk boundary. Returns the resulting
    /// state name, or `Err` with the state of an already-terminal job.
    pub fn cancel(&self, id: &str) -> Result<&'static str, String> {
        let mut inner = self.lock();
        let Some(entry) = inner.jobs.get_mut(id) else {
            return Err("unknown job".to_owned());
        };
        match entry.state {
            JobState::Queued => {
                entry.state = JobState::Canceled;
                entry.cancel = true;
                let event = entry.state_event();
                entry.push_event(event);
                inner.queue.retain(|queued| queued != id);
                drop(inner);
                if let Err(e) = self.journal.canceled(id) {
                    diag!("mc-serve: journal cancel failed: {e}");
                }
                Ok("canceled")
            }
            JobState::Running => {
                entry.cancel = true;
                Ok("canceling")
            }
            ref state => Err(format!("job already {}", state.name())),
        }
    }

    /// Health counters for `/healthz`.
    pub fn health(&self) -> Health {
        let inner = self.lock();
        let mut health = Health {
            draining: self.draining.load(Ordering::Acquire),
            store: Ctx::process().disk_store().map(|s| s.counters()),
            ..Health::default()
        };
        for entry in inner.jobs.values() {
            match entry.state {
                JobState::Queued => health.queued += 1,
                JobState::Running => health.running += 1,
                JobState::Done { .. } => health.done += 1,
                JobState::Failed { .. } => health.failed += 1,
                JobState::Canceled => health.canceled += 1,
            }
        }
        health
    }

    /// True once drain was requested.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Begins a graceful drain: stop admitting, let the running job
    /// checkpoint at its next chunk boundary, keep queued jobs journaled
    /// for the next process. Join the scheduler handle, then call
    /// [`Daemon::finish_drain`].
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Release);
        self.wake.notify_all();
    }

    /// Hard stop with no flush — the in-process stand-in for SIGKILL
    /// (and the test hook proving journal recovery). The scheduler exits
    /// at the next chunk boundary; nothing is flushed or registered.
    pub fn halt(&self) {
        self.halted.store(true, Ordering::Release);
        self.wake.notify_all();
    }

    /// Drain epilogue, after the scheduler thread is joined: flush (and
    /// possibly compact) the store ledger, then register the serving run
    /// in the pulse registry so `mc-report history` sees daemon sessions.
    pub fn finish_drain(&self) {
        if let Some(store) = Ctx::process().disk_store() {
            store.flush_ledger();
        }
        let Some(root) = &self.config.registry_root else { return };
        let health = self.health();
        let mut manifest = RunManifest::new();
        manifest.set("tool", "mc-serve");
        manifest.set("state", self.config.state_dir.display().to_string());
        manifest.set("jobs_done", health.done.to_string());
        manifest.set("jobs_failed", health.failed.to_string());
        manifest.set("jobs_canceled", health.canceled.to_string());
        manifest.set("jobs_pending", (health.queued + health.running).to_string());
        if let Some(counters) = &health.store {
            manifest.set("store_hit_disk", counters.hit_disk.to_string());
            manifest.set("store_saved", counters.saved.to_string());
        }
        let record = RunRecord::new("mc-serve", env!("CARGO_PKG_VERSION"), 0, manifest);
        match Registry::open(root).register(&record) {
            Ok(run_id) => diag!("mc-serve: registered drain record {run_id}"),
            Err(e) => diag!("mc-serve: registry record failed: {e}"),
        }
    }

    fn scheduler(&self) {
        loop {
            let next = {
                let mut inner = self.lock();
                loop {
                    if self.halted.load(Ordering::Acquire) || self.draining.load(Ordering::Acquire)
                    {
                        break None;
                    }
                    if let Some(id) = inner.queue.pop_front() {
                        break Some(id);
                    }
                    let (guard, _timeout) = self
                        .wake
                        .wait_timeout(inner, Duration::from_millis(100))
                        .unwrap_or_else(|e| e.into_inner());
                    inner = guard;
                }
            };
            let Some(id) = next else { return };
            self.run_job(&id);
        }
    }

    /// Marks `id` failed, journals it, and charges the client's budget.
    fn fail_job(&self, id: &str, kind: &str, message: &str) {
        if let Err(e) = self.journal.failed(id, kind, message) {
            diag!("mc-serve: journal failure record failed: {e}");
        }
        let mut inner = self.lock();
        let Some(entry) = inner.jobs.get_mut(id) else { return };
        entry.state = JobState::Failed { kind: kind.to_owned(), message: message.to_owned() };
        let event = entry.state_event().with("kind", kind).with("message", message);
        entry.push_event(event);
        let client = entry.job.client.clone();
        inner.quotas.note_failure(&client);
    }

    fn run_job(&self, id: &str) {
        let job = {
            let mut inner = self.lock();
            let Some(entry) = inner.jobs.get_mut(id) else { return };
            if entry.state != JobState::Queued {
                // Canceled while queued (entry already terminal).
                return;
            }
            entry.state = JobState::Running;
            let event = entry.state_event();
            entry.push_event(event);
            entry.job.clone()
        };
        let options =
            match LauncherOptions::from_args_over(LauncherOptions::default(), &job.options_args) {
                Ok(o) => o,
                Err(e) => return self.fail_job(id, "invalid", &e),
            };
        // Generation runs outside guard supervision (it is per job, not
        // per point), so catch panics here.
        let generated = catch_unwind(AssertUnwindSafe(|| {
            let desc = mc_kernel::xml::parse_kernel(&job.xml).map_err(|e| e.to_string())?;
            Ctx::process().generate_shared(&desc)
        }));
        let programs = match generated {
            Ok(Ok(programs)) => programs,
            Ok(Err(message)) => return self.fail_job(id, "generation", &message),
            Err(panic) => return self.fail_job(id, "panic", &panic_message(&panic)),
        };
        if programs.is_empty() {
            return self.fail_job(id, "generation", "kernel generated no programs");
        }
        let base = Arc::new(options);
        let deadline = (self.config.job_deadline_ms > 0)
            .then(|| Instant::now() + Duration::from_millis(self.config.job_deadline_ms));
        let total = programs.len();
        let mut rows: Vec<String> = Vec::with_capacity(total);
        for chunk in programs.chunks(CHUNK) {
            // Observe control flags between chunks. Halt and drain leave
            // the job without a terminal journal line: the next process
            // re-runs it and warm-hits everything evaluated so far.
            if self.halted.load(Ordering::Acquire) || self.draining.load(Ordering::Acquire) {
                return;
            }
            {
                let inner = self.lock();
                if inner.jobs.get(id).is_some_and(|entry| entry.cancel) {
                    drop(inner);
                    if let Err(e) = self.journal.canceled(id) {
                        diag!("mc-serve: journal cancel failed: {e}");
                    }
                    let mut inner = self.lock();
                    if let Some(entry) = inner.jobs.get_mut(id) {
                        entry.state = JobState::Canceled;
                        let event = entry.state_event();
                        entry.push_event(event);
                    }
                    return;
                }
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return self.fail_job(
                    id,
                    "timeout",
                    &format!("job deadline of {} ms exceeded", self.config.job_deadline_ms),
                );
            }
            let points: Vec<EvalPoint> =
                chunk.iter().map(|p| EvalPoint::new(p.clone(), base.clone())).collect();
            for (program, result) in
                chunk.iter().zip(Ctx::process().try_run_batch_supervised(points))
            {
                match result {
                    Ok(report) => rows.push(report.csv_row()),
                    Err(error) => {
                        // One faulted point fails the whole job, typed:
                        // partial sweeps are not useful measurements.
                        return self.fail_job(
                            id,
                            error.kind.name(),
                            &format!("{}: {error}", program.name),
                        );
                    }
                }
            }
            let mut inner = self.lock();
            if let Some(entry) = inner.jobs.get_mut(id) {
                entry.push_event(
                    TraceEvent::new(EventKind::Event, "serve.progress")
                        .with("job", id)
                        .with("points_done", rows.len())
                        .with("points_total", total),
                );
            }
        }
        let document = render_document(&base, id, &job.name, &rows);
        let bytes = document.len() as u64;
        if let Err(e) = self.write_result(id, &document) {
            return self.fail_job(id, "io", &format!("result write failed: {e}"));
        }
        // Result first, journal second: a crash between the two re-runs
        // the job, which rewrites the identical document.
        if let Err(e) = self.journal.done(id, bytes) {
            diag!("mc-serve: journal completion record failed: {e}");
        }
        let mut inner = self.lock();
        if let Some(entry) = inner.jobs.get_mut(id) {
            entry.state = JobState::Done { bytes };
            let event = entry.state_event().with("bytes", bytes);
            entry.push_event(event);
        }
    }

    /// Atomically writes a result document (`mc_report::atomic_write`:
    /// unique temp, fsync, rename, directory fsync), under `fire_write`
    /// chaos coverage.
    fn write_result(&self, id: &str, document: &str) -> std::io::Result<()> {
        let path = self.result_path(id);
        mc_guard::fire_write("result.csv")?;
        fs::create_dir_all(path.parent().expect("results dir"))?;
        mc_report::atomic_write(&path, document.as_bytes())
    }
}

/// Content-derived job ID: kernel-XML fingerprint plus the options'
/// [`LauncherOptions::provenance_hash`] (the manifest's `options_hash`),
/// rendered like the evaluation store's keys.
pub fn job_id(xml: &str, options: &LauncherOptions) -> String {
    format!("{:016x}-{:016x}", mc_report::fnv1a64(xml.trim().as_bytes()), options.provenance_hash())
}

/// The deterministic result document: provenance manifest (minus every
/// volatile key), CSV header, rows in generation order.
fn render_document(base: &LauncherOptions, id: &str, name: &str, rows: &[String]) -> String {
    let full = base.manifest("mc-serve", env!("CARGO_PKG_VERSION"));
    let mut manifest = RunManifest::new();
    for (key, value) in full.entries() {
        // The worker count changes nothing about the measurements and
        // would break the jobs=1 ≡ jobs=8 byte-identity contract.
        if key == "jobs" {
            continue;
        }
        manifest.set(key, value.clone());
    }
    manifest.set("job", id);
    manifest.set("kernel", name);
    let mut document = manifest.render();
    document.push_str(RunReport::csv_header());
    document.push('\n');
    for row in rows {
        document.push_str(row);
        document.push('\n');
    }
    document
}

/// Best-effort panic payload extraction.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}
