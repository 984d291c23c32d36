//! # mc-tools — the MicroTools command-line binaries
//!
//! The paper ships two tools; this crate packages their command-line
//! incarnations plus an architecture prober:
//!
//! * **`microcreator`** — XML kernel description in, benchmark programs
//!   out (`.s` or `.c` files), with per-pass statistics (§3).
//! * **`microlauncher`** — a kernel (generated `.s`, or an XML description
//!   to generate-and-run) measured in the controlled environment, CSV out
//!   (§4). Accepts the full 33-option surface via `--key=value` flags.
//! * **`microprobe`** — characterizes one of the Table 1 machine models:
//!   hierarchy latencies/bandwidths, saturation knees, energy optima —
//!   and, with `--explain`, names what the canonical kernels are bound on.
//! * **`mc-report`** — CSV and registry utilities: `diff` compares two
//!   run documents by manifest provenance and flags movement beyond the
//!   noise band; `history`/`trend` read runs persisted by `--register`
//!   and gate on cross-run regressions; `import-bench` backfills the
//!   historical `BENCH_*.json` snapshots.
//!
//! The binaries are thin wrappers: everything they do is library API
//! (`mc-creator`, `mc-launcher`, `mc-simarch`), so scripted studies can
//! skip the process boundary entirely.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// Shared exit-code convention for the binaries.
///
/// Every binary in this crate (and the `reproduce` driver in mc-bench)
/// maps its outcome onto the same four codes, so scripts and the CI
/// recovery smoke can branch on them uniformly:
///
/// | code | meaning |
/// |------|---------|
/// | 0    | success |
/// | 2    | bad usage or malformed input (flags, XML, assembly) |
/// | 3    | evaluation failures exceeded the error budget (`--max-failures`) |
/// | 4    | regression: a diff or paper shape-check failed on valid runs |
pub mod exitcode {
    /// Success.
    pub const OK: u8 = 0;
    /// Bad command-line usage or input that failed to parse/validate.
    pub const USAGE: u8 = 2;
    /// Evaluation failures (panics, timeouts, errors) exceeded the
    /// error budget.
    pub const EVAL: u8 = 3;
    /// A regression or shape-check failure over otherwise valid runs.
    pub const REGRESSION: u8 = 4;
}

/// Splits args into flags (`--x[=v]`) and positionals.
pub fn split_args(args: &[String]) -> (Vec<String>, Vec<String>) {
    let mut flags = Vec::new();
    let mut positional = Vec::new();
    for a in args {
        if a.starts_with("--") {
            flags.push(a.clone());
        } else {
            positional.push(a.clone());
        }
    }
    (flags, positional)
}

/// Pulls `--name=value` out of a flag list, returning the remainder.
pub fn take_flag(flags: &mut Vec<String>, name: &str) -> Option<String> {
    let prefix = format!("{name}=");
    let pos = flags.iter().position(|f| f.starts_with(&prefix) || f == name)?;
    let flag = flags.remove(pos);
    match flag.split_once('=') {
        Some((_, v)) => Some(v.to_owned()),
        None => Some(String::new()),
    }
}

/// The observability flags every binary shares, and the end-of-run
/// reporting they imply. `mc-report` uses this part alone; the
/// evaluating binaries get it inside [`Run`].
///
/// * `--trace=PATH` — stream every event as one JSON line to `PATH`
///   (`stderr` streams to standard error). Falls back to the
///   `MICROTOOLS_TRACE` environment variable when the flag is absent;
///   `MICROTOOLS_TRACE_FILTER` restricts emission to an event-name
///   prefix (e.g. `creator.`).
/// * `--trace-format=json|chrome` — wire format for `--trace`. `json`
///   (default) is the JSONL line protocol; `chrome` writes one
///   Chrome-trace/Perfetto document (load it in `chrome://tracing` or
///   ui.perfetto.dev), and requires a file path rather than `stderr`.
/// * `--metrics` — buffer events in memory and print the end-of-run
///   pass-timing/span tables plus the metrics registry to stderr.
/// * `--quiet` — suppress diagnostic output (`mc_trace::diag!` lines).
///
/// The installed sink is flushed on drop even when [`Trace::finish`] was
/// never reached — a panic or early exit must not leave a truncated
/// JSONL file or an empty Chrome trace.
#[derive(Debug)]
pub struct Trace {
    buffer: Option<Arc<mc_trace::MemorySink>>,
    metrics: bool,
    finished: bool,
}

impl Trace {
    /// Extracts the observability flags, installs the matching sinks,
    /// and returns the handle. Call [`Trace::finish`] at exit.
    pub fn from_flags(flags: &mut Vec<String>) -> Result<Trace, String> {
        mc_trace::set_quiet(take_flag(flags, "--quiet").is_some());
        let metrics = take_flag(flags, "--metrics").is_some();
        let chrome = match take_flag(flags, "--trace-format").as_deref() {
            None | Some("json") => false,
            Some("chrome") => true,
            Some(other) => {
                return Err(format!("--trace-format: unknown format `{other}` (json or chrome)"))
            }
        };
        let trace_target = match take_flag(flags, "--trace") {
            Some(path) if path.is_empty() => {
                return Err("--trace requires a file path (or `stderr`)".into())
            }
            Some(path) => Some(path),
            None => std::env::var("MICROTOOLS_TRACE").ok().filter(|v| !v.is_empty()),
        };
        if let Ok(prefix) = std::env::var("MICROTOOLS_TRACE_FILTER") {
            if !prefix.is_empty() {
                mc_trace::set_filter(Some(&prefix));
            }
        }
        if chrome && trace_target.is_none() {
            return Err("--trace-format=chrome requires --trace=PATH".into());
        }
        let buffer = if metrics { Some(Arc::new(mc_trace::MemorySink::new())) } else { None };
        let mut sinks: Vec<Arc<dyn mc_trace::TraceSink>> = Vec::new();
        if let Some(target) = &trace_target {
            if chrome {
                // A Chrome trace is one JSON document rewritten per flush;
                // it cannot stream to stderr.
                if target == "stderr" {
                    return Err("--trace-format=chrome requires a file path, not stderr".into());
                }
                let sink = mc_trace::ChromeTraceSink::create(Path::new(target))
                    .map_err(|e| format!("--trace: cannot create {target}: {e}"))?;
                sinks.push(Arc::new(sink));
            } else if target == "stderr" {
                sinks.push(Arc::new(mc_trace::JsonlSink::new(std::io::stderr())));
            } else {
                let sink = mc_trace::JsonlSink::create(Path::new(target))
                    .map_err(|e| format!("--trace: cannot create {target}: {e}"))?;
                sinks.push(Arc::new(sink));
            }
        }
        if let Some(buffer) = &buffer {
            sinks.push(buffer.clone());
        }
        match sinks.len() {
            0 => {}
            1 => mc_trace::install(sinks.pop().expect("one sink")),
            _ => mc_trace::install(Arc::new(mc_trace::FanoutSink::new(sinks))),
        }
        if metrics {
            mc_trace::enable_metrics(true);
        }
        Ok(Trace { buffer, metrics, finished: false })
    }

    /// Flushes the trace and, under `--metrics`, prints the end-of-run
    /// tables to stderr (stdout stays machine-readable: CSV, listings).
    /// `--quiet` wins over `--metrics`: a quiet run prints no summary
    /// tables, matching the diagnostics it already suppresses.
    pub fn finish(&mut self) {
        self.finished = true;
        mc_trace::flush();
        if !self.metrics || mc_trace::quiet() {
            return;
        }
        let events = self.buffer.as_ref().map(|b| b.events()).unwrap_or_default();
        if events.iter().any(|e| e.name.starts_with("creator.pass")) {
            eprintln!("── pass timing ──");
            eprint!("{}", mc_trace::summary::render_pass_table(&events));
        }
        let other_spans: Vec<mc_trace::TraceEvent> =
            events.iter().filter(|e| e.name != "creator.pass").cloned().collect();
        if other_spans.iter().any(|e| e.duration_micros.is_some()) {
            eprintln!("── span summary ──");
            eprint!("{}", mc_trace::summary::render_span_summary(&other_spans));
        }
        let snapshot = mc_trace::metrics().snapshot();
        if !snapshot.is_empty() {
            eprintln!("── metrics ──");
            eprint!("{}", mc_trace::summary::render_metrics(&snapshot));
        }
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        // Whatever was traced before a panic or early exit still lands on
        // disk instead of dying in a BufWriter.
        if !self.finished {
            mc_trace::flush();
        }
    }
}

/// Environment variable selecting the persistent evaluation store root.
pub const STORE_ENV: &str = "MICROTOOLS_STORE";

/// Environment variable selecting the evaluation-profile directory.
pub const PROFILE_ENV: &str = "MICROTOOLS_PROFILE";

/// One run of an evaluating binary (`microcreator`, `microlauncher`,
/// `microprobe`, `reproduce`): every shared flag parsed once, the
/// process-wide sinks it selects installed, the run context
/// ([`Run::ctx`]) the binary evaluates through built, and the end-of-run
/// teardown in one place.
///
/// [`Run::from_flags`] consumes the shared flags in the order they
/// depend on each other:
///
/// 1. **Observability** ([`Trace`]): `--trace`, `--trace-format`,
///    `--metrics`, `--quiet`. First, so `--quiet` is in effect before
///    the progress flags decide whether to install a sink.
/// 2. **Evaluation engine**: `--jobs=N`, the batch worker count. Without
///    the flag the count comes from `MICROTOOLS_JOBS`, then available
///    parallelism.
/// 3. **Supervision**: `--deadline-ms=N` (per-evaluation wall-clock
///    deadline; a blown deadline is a failed attempt), `--retries=N`
///    (retries with deterministic exponential backoff),
///    `--max-failures=N` (the error budget: exit 3 only past N terminal
///    failures), `--keep-going` (the default, stated explicitly) and
///    `--fail-fast` (skip the remaining points once the budget is spent).
///    `MICROTOOLS_FAULT` gives the run a deterministic fault plan
///    (`panic@I`, `delay@I:MS`, `io@I`, `flaky@I:N`, `enospc@I`,
///    comma-separated); the recovery tests and the CI smoke use it to
///    make evaluations fail on purpose. The policy, the plan's
///    evaluation half, the eval indices and the failure count belong to
///    the run context's guard, which [`Run::exit_code`] reads.
/// 4. **Registry and live view** (mc-pulse): `--register` persists the
///    run (manifest, extracted points, metrics snapshot) for
///    `mc-report history/trend`; the root defaults to `.microtools`,
///    overridden by `MICROTOOLS_REGISTRY` or `--registry=DIR` (which
///    implies `--register`). `--progress[=tty|jsonl|jsonl:PATH]` shows
///    live sweep progress: `tty` repaints one stderr line and
///    auto-disables off a terminal, `jsonl` streams deterministic records
///    plus time-gated heartbeats, and `--quiet` suppresses both.
///    `--metrics-listen=ADDR` serves the live metrics as OpenMetrics text
///    for the lifetime of the process (port 0 picks a free port).
/// 5. **Persistent store**: `--store=DIR`, else `MICROTOOLS_STORE`, else
///    `<registry root>/store` when the run registers, else none (memoized
///    in the run context only). Records persisted under another report schema or
///    simulator calibration self-invalidate, and corrupt records are
///    skipped with a counted warning. A killed run resumes by rerunning
///    it against the same store: finished points load from disk.
/// 6. **Profiles**: `--profile=DIR` writes one mc-scope `<key>.jsonl`
///    profile per evaluated kernel; bare `--profile` defaults to
///    `<registry root>/profiles` when the run registers, else
///    `profiles/`; `MICROTOOLS_PROFILE` applies without the flag.
///    Profiling is observation only: it never reaches the memo or store
///    fingerprints, and memo or store hits record no profile.
///
/// [`Run::finish`] tears the run down in the order its artifacts depend
/// on: progress display off and the run registered (which yields the run
/// ID), profiles stamped with that ID, the store's hit ledger flushed,
/// then the trace flushed and the `--metrics` tables printed. Dropping an
/// unfinished run (a panic, or a flag error part-way through
/// `from_flags`) does the same teardown except that it registers nothing
/// and prints no tables. The run context goes with the run.
pub struct Run {
    trace: Trace,
    registry: Option<mc_pulse::Registry>,
    tty: Option<Arc<mc_pulse::TtyProgress>>,
    /// Held only to keep the endpoint serving until the process ends.
    _server: Option<mc_pulse::MetricsServer>,
    ctx: mc_launcher::Ctx,
    documents: Vec<(String, String)>,
}

/// How `--progress` renders, after validation.
enum ProgressMode {
    /// Repainted single line on stderr (only when stderr is a TTY).
    Tty,
    /// JSONL stream to stderr or a file.
    Jsonl(Option<String>),
}

impl Run {
    /// Extracts every shared flag, installs what it selects, and returns
    /// the run. Call [`Run::finish`] once the product output is complete.
    pub fn from_flags(flags: &mut Vec<String>) -> Result<Run, String> {
        let mut run = Run {
            trace: Trace::from_flags(flags)?,
            registry: None,
            tty: None,
            _server: None,
            ctx: mc_launcher::Ctx::default(),
            documents: Vec::new(),
        };
        if let Some(value) = take_flag(flags, "--jobs") {
            mc_exec::set_jobs(mc_exec::parse_jobs(&value)?);
        }
        let guard = guard_from_flags(flags)?;
        run.start_pulse(flags)?;

        let root = run.registry.as_ref().map(|r| r.root().to_path_buf());
        let store_dir = match take_flag(flags, "--store") {
            Some(dir) if dir.is_empty() => return Err("--store requires a directory path".into()),
            Some(dir) => Some(PathBuf::from(dir)),
            None => match std::env::var(STORE_ENV).ok().filter(|v| !v.is_empty()) {
                Some(dir) => Some(PathBuf::from(dir)),
                None => root.as_ref().map(|root| root.join("store")),
            },
        };
        let profile_dir = match take_flag(flags, "--profile") {
            Some(dir) if dir.is_empty() => {
                Some(root.map_or_else(|| PathBuf::from("profiles"), |r| r.join("profiles")))
            }
            Some(dir) => Some(PathBuf::from(dir)),
            None => std::env::var(PROFILE_ENV).ok().filter(|v| !v.is_empty()).map(PathBuf::from),
        };
        let profiler = match profile_dir {
            Some(dir) => Some(Arc::new(
                mc_launcher::profile::Profiler::new(dir).map_err(|e| format!("--profile: {e}"))?,
            )),
            None => None,
        };
        run.ctx = mc_launcher::Ctx::new(guard, profiler);
        run.ctx.set_store(store_dir.as_deref());
        Ok(run)
    }

    /// The run context (memos, `--store`, `--profile`, the guard) this
    /// run evaluates in.
    pub fn ctx(&self) -> &mc_launcher::Ctx {
        &self.ctx
    }

    /// The exit code a finished run ends with: [`exitcode::EVAL`] when
    /// its context's terminal failures exceeded the error budget, else
    /// [`exitcode::REGRESSION`] when `regressed`, else [`exitcode::OK`].
    pub fn exit_code(&self, regressed: bool) -> u8 {
        if self.ctx.guard().over_budget() {
            exitcode::EVAL
        } else if regressed {
            exitcode::REGRESSION
        } else {
            exitcode::OK
        }
    }

    /// The mc-pulse part of [`Run::from_flags`]: registry, live progress
    /// and the metrics endpoint. Every pulse flag is consumed before any
    /// is validated.
    fn start_pulse(&mut self, flags: &mut Vec<String>) -> Result<(), String> {
        use std::io::IsTerminal;
        let register = match take_flag(flags, "--register") {
            None => false,
            Some(v) if v.is_empty() => true,
            Some(v) => return Err(format!("--register takes no value (got `{v}`)")),
        };
        let registry_flag = take_flag(flags, "--registry");
        if registry_flag.as_deref() == Some("") {
            return Err("--registry requires a directory path".into());
        }
        let progress = take_flag(flags, "--progress");
        let listen = take_flag(flags, "--metrics-listen");

        let mode = match progress.as_deref() {
            None => None,
            Some("") | Some("tty") => Some(ProgressMode::Tty),
            Some("jsonl") => Some(ProgressMode::Jsonl(None)),
            Some(v) if v.starts_with("jsonl:") => {
                Some(ProgressMode::Jsonl(Some(v["jsonl:".len()..].to_owned())))
            }
            Some(other) => {
                return Err(format!("--progress: unknown mode `{other}` (tty, jsonl, jsonl:PATH)"))
            }
        };

        if register || registry_flag.is_some() {
            // Registered records carry a metrics snapshot, so turn the
            // registry on even without --metrics.
            mc_trace::enable_metrics(true);
            self.registry = Some(mc_pulse::Registry::resolve(registry_flag.as_deref()));
        }

        match listen.as_deref() {
            None => {}
            Some("") => {
                return Err("--metrics-listen requires an address (e.g. 127.0.0.1:9464)".into())
            }
            Some(addr) => {
                mc_trace::enable_metrics(true);
                let server = mc_pulse::MetricsServer::start(addr)
                    .map_err(|e| format!("--metrics-listen: cannot bind {addr}: {e}"))?;
                mc_trace::diag!("serving OpenMetrics on http://{}/", server.local_addr());
                self._server = Some(server);
            }
        }

        if mc_trace::quiet() {
            return Ok(());
        }
        match mode {
            None => {}
            // Off-TTY (redirected stderr, CI logs) the repainting line
            // would be noise; auto-disable instead of erroring.
            Some(ProgressMode::Tty) if std::io::stderr().is_terminal() => {
                let sink = Arc::new(mc_pulse::TtyProgress::new());
                mc_trace::install_progress(sink.clone());
                self.tty = Some(sink);
            }
            Some(ProgressMode::Tty) => {}
            Some(ProgressMode::Jsonl(None)) => {
                mc_trace::install_progress(Arc::new(mc_pulse::JsonlProgress::new(
                    std::io::stderr(),
                )));
            }
            Some(ProgressMode::Jsonl(Some(path))) => {
                let file = std::fs::File::create(&path)
                    .map_err(|e| format!("--progress: cannot create {path}: {e}"))?;
                mc_trace::install_progress(Arc::new(mc_pulse::JsonlProgress::new(file)));
            }
        }
        Ok(())
    }

    /// True when this run will be registered — callers can skip
    /// assembling documents otherwise.
    pub fn registering(&self) -> bool {
        self.registry.is_some()
    }

    /// Queues a produced CSV document (launcher or reproduce schema) for
    /// point extraction at registration. No-op when not registering.
    pub fn record_document(&mut self, name: &str, text: &str) {
        if self.registry.is_some() {
            self.documents.push((name.to_owned(), text.to_owned()));
        }
    }

    /// Adds the `# store:` line to a manifest when a persistent store is
    /// installed. The path only: hit counts vary between cold and warm
    /// runs and would break byte-identical documents and content-derived
    /// run IDs.
    pub fn note_store(&self, manifest: &mut mc_report::RunManifest) {
        if let Some(store) = self.ctx.disk_store() {
            manifest.set("store", store.root().display().to_string());
        }
    }

    /// Ends the run and returns the process exit code `code`. `manifest`
    /// is the run's provenance when it produced its output; under
    /// `--register` it is registered with the recorded documents and the
    /// exit code. `None` (a usage error, a failed input) registers
    /// nothing but tears down the same way.
    pub fn finish(
        mut self,
        tool: &str,
        manifest: Option<mc_report::RunManifest>,
        code: u8,
    ) -> ExitCode {
        self.close(manifest.map(|m| (tool, m, code)));
        self.trace.finish();
        ExitCode::from(code)
    }

    /// Everything [`Run::finish`] and `Drop` share, in dependency order;
    /// each step runs at most once.
    fn close(&mut self, registration: Option<(&str, mc_report::RunManifest, u8)>) {
        mc_trace::uninstall_progress();
        if let Some(tty) = self.tty.take() {
            tty.clear();
        }
        let run_id = match (self.registry.take(), registration) {
            (Some(registry), Some((tool, manifest, status))) => {
                register(&registry, tool, manifest, status, &self.documents)
            }
            _ => None,
        };
        // Taken, so a second close finds nothing; dropping it is its teardown.
        let ctx = std::mem::take(&mut self.ctx);
        if let Some(profiler) = ctx.profiling() {
            let count = profiler.finish(run_id.as_deref());
            if count > 0 {
                mc_trace::diag!(
                    "profiles: {count} evaluation profile(s) in {}",
                    profiler.dir().display()
                );
            }
        }
        if let Some(store) = ctx.disk_store() {
            store.flush_ledger();
            let c = store.counters();
            if !c.is_empty() {
                mc_trace::diag!(
                    "store: {} mem hits, {} disk hits, {} misses, {} saved{} ({})",
                    c.hit_mem,
                    c.hit_disk,
                    c.miss,
                    c.saved,
                    if c.skipped_corrupt + c.stale > 0 {
                        format!(", {} corrupt, {} stale skipped", c.skipped_corrupt, c.stale)
                    } else {
                        String::new()
                    },
                    store.root().display(),
                );
            }
        }
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        // A panic or early exit must not leave a progress sink installed,
        // profiles unwritten or the ledger unflushed; the `trace` field's
        // own drop then flushes the sink.
        self.close(None);
    }
}

/// Writes the run record into the registry and returns its run ID, so
/// companion artifacts (evaluation profiles) can link back to the run.
fn register(
    registry: &mc_pulse::Registry,
    tool: &str,
    manifest: mc_report::RunManifest,
    status: u8,
    documents: &[(String, String)],
) -> Option<String> {
    let mut record =
        mc_pulse::RunRecord::new(tool, env!("CARGO_PKG_VERSION"), i32::from(status), manifest);
    for (name, text) in documents {
        if let Err(e) = record.add_document(name, text) {
            mc_trace::diag!("pulse: cannot extract points from {name}: {e}");
        }
    }
    record.metrics_text = mc_pulse::registry::snapshot_metrics();
    match registry.register(&record) {
        Ok(run_id) => {
            mc_trace::diag!("registered run {run_id} in {}", registry.root().display());
            Some(run_id)
        }
        Err(e) => {
            mc_trace::diag!("pulse: registration failed: {e}");
            None
        }
    }
}

/// The supervision part of [`Run::from_flags`]: the run's guard, under
/// the policy the flags select and the fault plan in `MICROTOOLS_FAULT`,
/// whose durable-write half is installed process-wide.
fn guard_from_flags(flags: &mut Vec<String>) -> Result<mc_guard::Guard, String> {
    let mut policy = mc_guard::GuardPolicy::default();
    if let Some(v) = take_flag(flags, "--deadline-ms") {
        let ms: u64 = v.parse().map_err(|_| format!("--deadline-ms: not a number: `{v}`"))?;
        if ms == 0 {
            return Err("--deadline-ms: deadline must be positive".into());
        }
        policy.deadline = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(v) = take_flag(flags, "--retries") {
        policy.retries = v.parse().map_err(|_| format!("--retries: not a number: `{v}`"))?;
    }
    if let Some(v) = take_flag(flags, "--max-failures") {
        policy.max_failures =
            v.parse().map_err(|_| format!("--max-failures: not a number: `{v}`"))?;
    }
    let keep_going = take_flag(flags, "--keep-going").is_some();
    let fail_fast = take_flag(flags, "--fail-fast").is_some();
    if keep_going && fail_fast {
        return Err("--keep-going and --fail-fast are mutually exclusive".into());
    }
    policy.fail_fast = fail_fast;

    let spec = std::env::var("MICROTOOLS_FAULT").unwrap_or_default();
    let plan = mc_guard::FaultPlan::parse(&spec).map_err(|e| format!("MICROTOOLS_FAULT: {e}"))?;
    mc_guard::install_write_faults(&plan);
    Ok(mc_guard::Guard::new(policy, plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// A [`Run`] installs process-wide state (trace and progress sinks),
    /// so the tests that build one take turns.
    static GLOBALS: Mutex<()> = Mutex::new(());

    fn globals() -> MutexGuard<'static, ()> {
        GLOBALS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn owned(flags: &[&str]) -> Vec<String> {
        flags.iter().map(|s| s.to_string()).collect()
    }

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mc-cli-{tag}-{}", std::process::id()))
    }

    #[test]
    fn split_separates_flags_from_positionals() {
        let args = owned(&["input.xml", "--format=c", "out", "--limit=5"]);
        let (flags, pos) = split_args(&args);
        assert_eq!(flags, vec!["--format=c", "--limit=5"]);
        assert_eq!(pos, vec!["input.xml", "out"]);
    }

    #[test]
    fn take_flag_removes_and_returns() {
        let mut flags = owned(&["--format=c", "--verbose"]);
        assert_eq!(take_flag(&mut flags, "--format"), Some("c".into()));
        assert_eq!(take_flag(&mut flags, "--verbose"), Some(String::new()));
        assert_eq!(take_flag(&mut flags, "--missing"), None);
        assert!(flags.is_empty());
    }

    #[test]
    fn shared_flag_misuse_is_rejected_and_consumed() {
        let _guard = globals();
        let cases: &[(&[&str], &str)] = &[
            (&["--trace"], "--trace"),
            (&["--trace-format=xml"], "--trace-format"),
            (&["--trace-format=chrome"], "requires --trace"),
            (&["--trace=stderr", "--trace-format=chrome"], "file path"),
            (&["--jobs=zero"], "--jobs"),
            (&["--keep-going", "--fail-fast"], "mutually exclusive"),
            (&["--deadline-ms=0"], "positive"),
            (&["--register=yes"], "--register"),
            (&["--registry"], "directory"),
            (&["--progress=csv"], "csv"),
            (&["--metrics-listen"], "address"),
            (&["--store="], "--store"),
        ];
        for (bad, expected) in cases {
            let mut flags = owned(bad);
            flags.push("--other=1".into());
            let err = Run::from_flags(&mut flags).err().unwrap_or_else(|| panic!("{bad:?}"));
            assert!(err.contains(expected), "{bad:?}: {err}");
            // The shared flags are consumed even on error paths; the
            // caller's unknown-flag check must not see them.
            assert_eq!(flags, vec!["--other=1"], "{bad:?}");
        }
    }

    #[test]
    fn a_run_without_flags_is_inert() {
        let _guard = globals();
        let mut flags = owned(&["--other=1"]);
        let mut run = Run::from_flags(&mut flags).unwrap();
        assert_eq!(flags, vec!["--other=1"]);
        assert!(!run.registering());
        assert!(run.ctx().disk_store().is_none());
        assert!(run.ctx().profiling().is_none());
        assert!(!mc_trace::progress_enabled());
        run.record_document("ignored", "key,value\n");
        assert!(run.documents.is_empty(), "no registry, nothing buffered");
        let mut manifest = mc_report::RunManifest::new();
        run.note_store(&mut manifest);
        assert_eq!(manifest.get("store"), None);
        // Finishing a run that set nothing up is a no-op, not a panic.
        assert_eq!(run.finish("test", Some(manifest), 3), ExitCode::from(3));
    }

    #[test]
    fn guard_flags_configure_the_policy_and_are_consumed() {
        let _guard = globals();
        let mut flags = owned(&[
            "--deadline-ms=500",
            "--retries=2",
            "--max-failures=3",
            "--fail-fast",
            "--other=1",
        ]);
        let run = Run::from_flags(&mut flags).unwrap();
        assert_eq!(flags, vec!["--other=1"]);
        let p = run.ctx().guard().policy();
        assert_eq!(p.deadline, Some(std::time::Duration::from_millis(500)));
        assert_eq!(p.retries, 2);
        assert_eq!(p.max_failures, 3);
        assert!(p.fail_fast);
        assert_eq!(run.exit_code(false), exitcode::OK);
        assert_eq!(run.exit_code(true), exitcode::REGRESSION);
        run.finish("test", None, exitcode::OK);
    }

    #[test]
    fn profile_flag_resolves_directories() {
        let _guard = globals();
        let base = scratch("profile");
        let mut explicit = vec![format!("--profile={}", base.join("p").display())];
        let run = Run::from_flags(&mut explicit).unwrap();
        assert!(explicit.is_empty());
        let dir = |run: &Run| run.ctx().profiling().map(|p| p.dir().to_path_buf());
        assert_eq!(dir(&run), Some(base.join("p")));
        run.finish("test", None, exitcode::OK);

        // Bare --profile lands beside the registry when the run registers.
        let mut bare = vec!["--profile".to_owned(), format!("--registry={}", base.display())];
        let run = Run::from_flags(&mut bare).unwrap();
        assert_eq!(dir(&run), Some(base.join("profiles")));
        run.finish("test", None, exitcode::OK);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn registry_flag_implies_registration_and_a_store_beside_it() {
        let _guard = globals();
        let dir = scratch("pulse");
        let mut flags = vec![format!("--registry={}", dir.display())];
        let mut run = Run::from_flags(&mut flags).unwrap();
        assert!(run.registering(), "--registry alone registers");
        assert!(flags.is_empty());
        let store_root = run.ctx().disk_store().map(|s| s.root().to_path_buf());
        assert_eq!(store_root, Some(dir.join("store")));
        run.record_document("doc", "not,a,launcher,csv\n");
        let mut manifest = mc_report::RunManifest::new();
        manifest.set("kernel", "t");
        run.note_store(&mut manifest);
        assert_eq!(manifest.get("store"), Some(dir.join("store").display().to_string().as_str()));
        run.finish("test", Some(manifest), exitcode::OK);
        let index = mc_pulse::Registry::open(&dir).load_index().unwrap();
        assert_eq!(index.len(), 1, "run landed despite the unparseable document");
        assert_eq!(index[0].tool, "test");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dropping_an_unfinished_run_tears_everything_down() {
        let _guard = globals();
        let dir = scratch("drop");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.json");
        let store = dir.join("store");
        let mut flags = vec![
            format!("--trace={}", trace.display()),
            "--trace-format=chrome".into(),
            format!("--store={}", store.display()),
            format!("--profile={}", dir.join("profiles").display()),
            format!("--progress=jsonl:{}", dir.join("progress.jsonl").display()),
        ];
        let run = Run::from_flags(&mut flags).unwrap();
        assert!(flags.is_empty());
        assert!(run.ctx().profiling().is_some());
        assert!(mc_trace::progress_enabled());
        let installed = run.ctx().disk_store().expect("store attached");
        assert_eq!(installed.load(mc_launcher::store::EVAL_KIND, "00000000000000ff"), None);
        mc_trace::event("cli.test", vec![("n", mc_trace::Value::from(1u64))]);
        // No finish(): the Drop alone must tear the run down.
        drop((run, installed));
        assert_eq!(mc_store::ledger_totals(&store).counters.miss, 1, "ledger flushed");
        assert!(!mc_trace::progress_enabled(), "progress uninstalled");
        mc_trace::uninstall();
        let text = std::fs::read_to_string(&trace).unwrap();
        assert!(text.contains("\"traceEvents\""), "{text}");
        assert!(text.contains("cli.test"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
