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

/// Extracts `--jobs=N` and configures the process-wide worker count for
/// batch evaluation. Without the flag the count comes from the
/// `MICROTOOLS_JOBS` environment variable, then available parallelism.
pub fn take_jobs_flag(flags: &mut Vec<String>) -> Result<(), String> {
    if let Some(value) = take_flag(flags, "--jobs") {
        mc_exec::set_jobs(mc_exec::parse_jobs(&value)?);
    }
    Ok(())
}

/// The supervision flags every evaluating binary shares.
///
/// * `--deadline-ms=N` — per-evaluation wall-clock deadline; a blown
///   deadline counts as a failed attempt.
/// * `--retries=N` — retries after a failed attempt, with deterministic
///   exponential backoff (0 = single attempt, the default).
/// * `--max-failures=N` — error budget: the run exits with code 3 only
///   when more than N evaluations fail terminally (default 0).
/// * `--keep-going` — evaluate every point regardless of failures (the
///   default; the flag exists to state it explicitly).
/// * `--fail-fast` — once the budget is spent, skip the remaining
///   points instead of evaluating them.
///
/// A killed run resumes by rerunning it against the same persistent
/// store (see [`take_store_flags`]): finished points load from disk, and
/// failed and missing points evaluate.
///
/// The `MICROTOOLS_FAULT` environment variable installs a deterministic
/// fault plan (`panic@I`, `delay@I:MS`, `io@I`, `flaky@I:N`,
/// comma-separated) — the recovery tests and the CI smoke use it to
/// make evaluations fail on purpose.
pub fn take_guard_flags(flags: &mut Vec<String>) -> Result<(), String> {
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
    mc_guard::set_policy(policy);

    if let Ok(spec) = std::env::var("MICROTOOLS_FAULT") {
        if !spec.is_empty() {
            mc_guard::install_fault_spec(&spec).map_err(|e| format!("MICROTOOLS_FAULT: {e}"))?;
        }
    }
    Ok(())
}

/// The exit code a supervised run ends with: [`exitcode::EVAL`] when
/// terminal failures exceeded the error budget, [`exitcode::OK`]
/// otherwise. Call after the sweep completes.
pub fn guard_exit_code() -> u8 {
    if mc_guard::over_budget() {
        exitcode::EVAL
    } else {
        exitcode::OK
    }
}

/// The observability flags every binary shares, and the end-of-run
/// reporting they imply.
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
/// The session flushes the installed sink on drop even when
/// [`TraceSession::finish`] was never reached — a panic or early exit
/// must not leave a truncated JSONL file or an empty Chrome trace.
#[derive(Debug)]
pub struct TraceSession {
    buffer: Option<std::sync::Arc<mc_trace::MemorySink>>,
    metrics: bool,
    finished: std::sync::atomic::AtomicBool,
}

impl TraceSession {
    /// Extracts the shared flags, installs the matching sinks, and
    /// returns the session handle. Call [`TraceSession::finish`] at exit.
    pub fn from_flags(flags: &mut Vec<String>) -> Result<TraceSession, String> {
        use std::sync::Arc;
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
                let sink = mc_trace::ChromeTraceSink::create(std::path::Path::new(target))
                    .map_err(|e| format!("--trace: cannot create {target}: {e}"))?;
                sinks.push(Arc::new(sink));
            } else if target == "stderr" {
                sinks.push(Arc::new(mc_trace::JsonlSink::new(std::io::stderr())));
            } else {
                let sink = mc_trace::JsonlSink::create(std::path::Path::new(target))
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
        Ok(TraceSession { buffer, metrics, finished: std::sync::atomic::AtomicBool::new(false) })
    }

    /// Flushes the trace and, under `--metrics`, prints the end-of-run
    /// tables to stderr (stdout stays machine-readable: CSV, listings).
    /// `--quiet` wins over `--metrics`: a quiet run prints no summary
    /// tables, matching the diagnostics it already suppresses.
    pub fn finish(&self) {
        self.finished.store(true, std::sync::atomic::Ordering::Release);
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

impl Drop for TraceSession {
    fn drop(&mut self) {
        // Guard against panics and early `return`s between installing the
        // sink and calling finish(): whatever was traced still lands on
        // disk instead of dying in a BufWriter.
        if !*self.finished.get_mut() {
            mc_trace::flush();
        }
    }
}

/// How `--progress` renders, after validation.
enum ProgressMode {
    /// Repainted single line on stderr (only when stderr is a TTY).
    Tty,
    /// JSONL stream to stderr or a file.
    Jsonl(Option<String>),
}

/// The mc-pulse flags every measuring binary shares, and the end-of-run
/// registration they imply.
///
/// * `--register` — persist this run (manifest, extracted points,
///   metrics snapshot) into the run registry; `mc-report history/trend`
///   read it back. The registry root defaults to `.microtools`,
///   overridden by `MICROTOOLS_REGISTRY` or `--registry=DIR` (which
///   implies `--register`).
/// * `--progress[=tty|jsonl|jsonl:PATH]` — live sweep progress. The
///   default `tty` mode repaints one stderr status line (throughput,
///   ETA, cache hit rate, failures) and auto-disables when stderr is not
///   a terminal; `jsonl` streams deterministic progress records plus
///   time-gated heartbeats. `--quiet` suppresses every progress display.
/// * `--metrics-listen=ADDR` — serve the live metrics registry and
///   progress gauges as OpenMetrics text on `ADDR` (e.g.
///   `127.0.0.1:9464`; port 0 picks a free port) for the lifetime of the
///   process.
///
/// Call [`PulseSession::finish`] with the run's manifest and exit code
/// once the product output is complete.
pub struct PulseSession {
    registry: Option<mc_pulse::Registry>,
    tty: Option<std::sync::Arc<mc_pulse::TtyProgress>>,
    server: Option<mc_pulse::MetricsServer>,
    documents: Vec<(String, String)>,
    finished: bool,
}

impl PulseSession {
    /// Extracts the pulse flags, installs progress sinks and the metrics
    /// endpoint, and returns the session handle.
    pub fn from_flags(flags: &mut Vec<String>) -> Result<PulseSession, String> {
        use std::io::IsTerminal;
        use std::sync::Arc;
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

        let registry = if register || registry_flag.is_some() {
            // Registered records carry a metrics snapshot, so turn the
            // registry on even without --metrics.
            mc_trace::enable_metrics(true);
            Some(mc_pulse::Registry::resolve(registry_flag.as_deref()))
        } else {
            None
        };

        let mut server = None;
        match listen.as_deref() {
            None => {}
            Some("") => {
                return Err("--metrics-listen requires an address (e.g. 127.0.0.1:9464)".into())
            }
            Some(addr) => {
                mc_trace::enable_metrics(true);
                let s = mc_pulse::MetricsServer::start(addr)
                    .map_err(|e| format!("--metrics-listen: cannot bind {addr}: {e}"))?;
                mc_trace::diag!("serving OpenMetrics on http://{}/", s.local_addr());
                server = Some(s);
            }
        }

        let mut tty = None;
        if !mc_trace::quiet() {
            match mode {
                None => {}
                // Off-TTY (redirected stderr, CI logs) the repainting
                // line would be noise; auto-disable instead of erroring.
                Some(ProgressMode::Tty) if std::io::stderr().is_terminal() => {
                    let sink = Arc::new(mc_pulse::TtyProgress::new());
                    mc_trace::install_progress(sink.clone());
                    tty = Some(sink);
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
        }

        Ok(PulseSession { registry, tty, server, documents: Vec::new(), finished: false })
    }

    /// True when this run will be registered — callers can skip
    /// assembling documents otherwise.
    pub fn active(&self) -> bool {
        self.registry.is_some()
    }

    /// Queues a produced CSV document (launcher or reproduce schema) for
    /// point extraction at registration. No-op when not registering.
    pub fn record_document(&mut self, name: &str, text: &str) {
        if self.registry.is_some() {
            self.documents.push((name.to_owned(), text.to_owned()));
        }
    }

    /// Tears down live monitoring and, under `--register`, writes the
    /// run record. Call once, after the product output is complete, with
    /// the exit code the process is about to return. Returns the
    /// registered run ID so companion artifacts (evaluation profiles)
    /// can link back to the run.
    pub fn finish(
        &mut self,
        tool: &str,
        manifest: mc_report::RunManifest,
        status: u8,
    ) -> Option<String> {
        self.finished = true;
        mc_trace::uninstall_progress();
        if let Some(tty) = &self.tty {
            tty.clear();
        }
        let registry = self.registry.as_ref()?;
        let mut record =
            mc_pulse::RunRecord::new(tool, env!("CARGO_PKG_VERSION"), i32::from(status), manifest);
        for (name, text) in &self.documents {
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

    /// The OpenMetrics endpoint's bound address, when listening.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(mc_pulse::MetricsServer::local_addr)
    }

    /// The registry root, when this run registers — the persistent
    /// store's default home (`<root>/store`).
    pub fn registry_root(&self) -> Option<&std::path::Path> {
        self.registry.as_ref().map(mc_pulse::Registry::root)
    }
}

impl Drop for PulseSession {
    fn drop(&mut self) {
        // A panic or early exit must not leave a progress sink installed
        // or a half-painted status line on the terminal.
        if !self.finished {
            mc_trace::uninstall_progress();
            if let Some(tty) = &self.tty {
                tty.clear();
            }
        }
    }
}

/// Environment variable selecting the persistent evaluation store root.
pub const STORE_ENV: &str = "MICROTOOLS_STORE";

/// What [`take_store_flags`] set up: the installed persistent evaluation
/// store, if any, plus the end-of-run bookkeeping it implies.
#[derive(Default)]
pub struct StoreSession {
    store: Option<std::sync::Arc<mc_store::DiskStore>>,
}

/// Extracts `--store=DIR` and installs the persistent two-tier
/// evaluation store for the run.
///
/// Resolution order: the `--store=DIR` flag, the `MICROTOOLS_STORE`
/// environment variable, then — when the run registers (`--register` /
/// `--registry`) — `<registry root>/store`, so registered sweeps warm
/// up across processes by default. With none of the three, no store is
/// installed and evaluation is memoized in-process only.
///
/// Records persisted under a different report schema or simulator
/// calibration self-invalidate, and corrupt records are skipped with a
/// counted warning — a damaged store can cost simulator time, never
/// correctness.
pub fn take_store_flags(
    flags: &mut Vec<String>,
    registry_root: Option<&std::path::Path>,
) -> Result<StoreSession, String> {
    let dir = match take_flag(flags, "--store") {
        Some(dir) if dir.is_empty() => return Err("--store requires a directory path".into()),
        Some(dir) => Some(std::path::PathBuf::from(dir)),
        None => match std::env::var(STORE_ENV).ok().filter(|v| !v.is_empty()) {
            Some(dir) => Some(std::path::PathBuf::from(dir)),
            None => registry_root.map(|root| root.join("store")),
        },
    };
    let Some(dir) = dir else { return Ok(StoreSession::default()) };
    Ok(StoreSession { store: Some(mc_launcher::store::install_store(&dir)) })
}

impl StoreSession {
    /// True when a persistent store is installed for this run.
    pub fn active(&self) -> bool {
        self.store.is_some()
    }

    /// The store root, for the `# store:` manifest line. Carries only
    /// the path — counters vary between warm and cold runs and would
    /// break byte-identical output and content-derived run IDs.
    pub fn root(&self) -> Option<&std::path::Path> {
        self.store.as_deref().map(mc_store::DiskStore::root)
    }

    /// Flushes this process's tallies to the store's hit ledger, prints
    /// a diagnostic summary, and uninstalls the store. Call once, after
    /// the product output is complete.
    pub fn finish(&mut self) {
        let Some(store) = self.store.take() else { return };
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
        mc_launcher::store::clear_store();
    }
}

impl Drop for StoreSession {
    fn drop(&mut self) {
        // A panic or early exit still flushes the ledger and clears the
        // process-wide slot.
        self.finish();
    }
}

/// Environment variable selecting the evaluation-profile directory.
pub const PROFILE_ENV: &str = "MICROTOOLS_PROFILE";

/// What [`take_profile_flags`] set up: the installed mc-scope evaluation
/// profiler, if any, plus the end-of-run finalization it implies.
#[derive(Default)]
pub struct ProfileSession {
    profiler: Option<std::sync::Arc<mc_launcher::profile::Profiler>>,
}

/// Extracts `--profile[=DIR]` and installs the per-evaluation profiler.
///
/// * `--profile=DIR` writes one `<key>.jsonl` profile per evaluated
///   kernel into `DIR`.
/// * Bare `--profile` defaults to `<registry root>/profiles` when the
///   run registers (`--register` / `--registry`), else `profiles/`.
/// * Without the flag, the `MICROTOOLS_PROFILE` environment variable
///   supplies the directory.
///
/// Profiling is observation only: it is not a launcher option, never
/// reaches the memo/store fingerprints, and a profiled run produces
/// byte-identical CSV output and store records. Memo and store warm
/// hits skip evaluation entirely and therefore record no profile — a
/// profile documents an evaluation that actually ran.
pub fn take_profile_flags(
    flags: &mut Vec<String>,
    registry_root: Option<&std::path::Path>,
) -> Result<ProfileSession, String> {
    let dir = match take_flag(flags, "--profile") {
        Some(dir) if dir.is_empty() => Some(
            registry_root
                .map_or_else(|| std::path::PathBuf::from("profiles"), |r| r.join("profiles")),
        ),
        Some(dir) => Some(std::path::PathBuf::from(dir)),
        None => {
            std::env::var(PROFILE_ENV).ok().filter(|v| !v.is_empty()).map(std::path::PathBuf::from)
        }
    };
    let Some(dir) = dir else { return Ok(ProfileSession::default()) };
    let profiler =
        mc_launcher::profile::install_profiler(&dir).map_err(|e| format!("--profile: {e}"))?;
    Ok(ProfileSession { profiler: Some(profiler) })
}

impl ProfileSession {
    /// True when profiling is on for this run.
    pub fn active(&self) -> bool {
        self.profiler.is_some()
    }

    /// The profile directory, when profiling.
    pub fn dir(&self) -> Option<&std::path::Path> {
        self.profiler.as_deref().map(mc_launcher::profile::Profiler::dir)
    }

    /// Stamps the registered run ID into the collected profiles, writes
    /// the `index.jsonl` ledger, prints a diagnostic summary, and
    /// uninstalls the profiler. Call once, after [`PulseSession::finish`]
    /// (whose return value is the `run_id`).
    pub fn finish(&mut self, run_id: Option<&str>) {
        let Some(profiler) = self.profiler.take() else { return };
        mc_launcher::profile::clear_profiler();
        let count = profiler.finish(run_id);
        if count > 0 {
            mc_trace::diag!(
                "profiles: {count} evaluation profile(s) in {}",
                profiler.dir().display()
            );
        }
    }
}

impl Drop for ProfileSession {
    fn drop(&mut self) {
        // A panic or early exit still lands the collected profiles
        // (without a run ID) and clears the process-wide slot.
        self.finish(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_separates_flags_from_positionals() {
        let args: Vec<String> =
            ["input.xml", "--format=c", "out", "--limit=5"].iter().map(|s| s.to_string()).collect();
        let (flags, pos) = split_args(&args);
        assert_eq!(flags, vec!["--format=c", "--limit=5"]);
        assert_eq!(pos, vec!["input.xml", "out"]);
    }

    #[test]
    fn trace_session_rejects_empty_path_and_consumes_flags() {
        let mut flags: Vec<String> = vec!["--trace".into(), "--other=1".into()];
        let err = TraceSession::from_flags(&mut flags).unwrap_err();
        assert!(err.contains("--trace"), "{err}");
        // The shared flags are consumed even on error paths; the caller's
        // unknown-flag check must not see them.
        assert_eq!(flags, vec!["--other=1"]);
        mc_trace::set_quiet(false);
    }

    #[test]
    fn jobs_flag_rejects_garbage_and_is_consumed() {
        let mut flags: Vec<String> = vec!["--jobs=zero".into(), "--other".into()];
        let err = take_jobs_flag(&mut flags).unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
        assert_eq!(flags, vec!["--other"]);
        let mut none: Vec<String> = vec!["--other".into()];
        assert!(take_jobs_flag(&mut none).is_ok());
    }

    #[test]
    fn trace_format_flag_is_validated() {
        let mut bad: Vec<String> = vec!["--trace-format=xml".into()];
        let err = TraceSession::from_flags(&mut bad).unwrap_err();
        assert!(err.contains("--trace-format"), "{err}");
        assert!(bad.is_empty(), "flag consumed even on error: {bad:?}");

        let mut orphan: Vec<String> = vec!["--trace-format=chrome".into()];
        let err = TraceSession::from_flags(&mut orphan).unwrap_err();
        assert!(err.contains("requires --trace"), "{err}");

        let mut to_stderr: Vec<String> =
            vec!["--trace=stderr".into(), "--trace-format=chrome".into()];
        let err = TraceSession::from_flags(&mut to_stderr).unwrap_err();
        assert!(err.contains("file path"), "{err}");
        mc_trace::set_quiet(false);
    }

    #[test]
    fn dropped_session_flushes_the_chrome_trace() {
        let path = std::env::temp_dir().join(format!("mc-cli-drop-{}.json", std::process::id()));
        let mut flags: Vec<String> =
            vec![format!("--trace={}", path.display()), "--trace-format=chrome".into()];
        let session = TraceSession::from_flags(&mut flags).unwrap();
        mc_trace::event("cli.test", vec![("n", mc_trace::Value::from(1u64))]);
        // No finish(): the Drop guard alone must land the event on disk.
        drop(session);
        mc_trace::uninstall();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"traceEvents\""), "{text}");
        assert!(text.contains("cli.test"), "{text}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn guard_flags_configure_the_policy_and_are_consumed() {
        let mut flags: Vec<String> = vec![
            "--deadline-ms=500".into(),
            "--retries=2".into(),
            "--max-failures=3".into(),
            "--fail-fast".into(),
            "--other=1".into(),
        ];
        take_guard_flags(&mut flags).unwrap();
        assert_eq!(flags, vec!["--other=1"]);
        let p = mc_guard::policy();
        assert_eq!(p.deadline, Some(std::time::Duration::from_millis(500)));
        assert_eq!(p.retries, 2);
        assert_eq!(p.max_failures, 3);
        assert!(p.fail_fast);
        mc_guard::set_policy(mc_guard::GuardPolicy::default());
    }

    #[test]
    fn guard_flag_misuse_is_rejected() {
        let mut both: Vec<String> = vec!["--keep-going".into(), "--fail-fast".into()];
        let err = take_guard_flags(&mut both).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");

        let mut zero: Vec<String> = vec!["--deadline-ms=0".into()];
        let err = take_guard_flags(&mut zero).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        mc_guard::set_policy(mc_guard::GuardPolicy::default());
    }

    #[test]
    fn take_flag_removes_and_returns() {
        let mut flags: Vec<String> =
            ["--format=c", "--verbose"].iter().map(|s| s.to_string()).collect();
        assert_eq!(take_flag(&mut flags, "--format"), Some("c".into()));
        assert_eq!(take_flag(&mut flags, "--verbose"), Some(String::new()));
        assert_eq!(take_flag(&mut flags, "--missing"), None);
        assert!(flags.is_empty());
    }

    #[test]
    fn pulse_flag_misuse_is_rejected_and_flags_are_consumed() {
        let mut valued: Vec<String> = vec!["--register=yes".into(), "--other".into()];
        let err = PulseSession::from_flags(&mut valued).err().unwrap();
        assert!(err.contains("--register"), "{err}");
        assert_eq!(valued, vec!["--other"]);

        let mut empty_dir: Vec<String> = vec!["--registry".into()];
        let err = PulseSession::from_flags(&mut empty_dir).err().unwrap();
        assert!(err.contains("directory"), "{err}");
        assert!(empty_dir.is_empty());

        let mut bad_mode: Vec<String> = vec!["--progress=csv".into()];
        let err = PulseSession::from_flags(&mut bad_mode).err().unwrap();
        assert!(err.contains("csv"), "{err}");

        let mut no_addr: Vec<String> = vec!["--metrics-listen".into()];
        let err = PulseSession::from_flags(&mut no_addr).err().unwrap();
        assert!(err.contains("address"), "{err}");
    }

    #[test]
    fn pulse_session_without_flags_is_inert() {
        let mut flags: Vec<String> = vec!["--other=1".into()];
        let mut session = PulseSession::from_flags(&mut flags).unwrap();
        assert!(!session.active());
        assert!(session.metrics_addr().is_none());
        session.record_document("ignored", "key,value\n");
        assert!(session.documents.is_empty(), "no registry, nothing buffered");
        // finish() without a registry is a no-op, not a panic.
        session.finish("test", mc_report::RunManifest::new(), 0);
        assert_eq!(flags, vec!["--other=1"]);
    }

    #[test]
    fn profile_session_without_flags_is_inert() {
        let mut flags: Vec<String> = vec!["--other=1".into()];
        let mut session = take_profile_flags(&mut flags, None).unwrap();
        assert!(!session.active());
        assert!(session.dir().is_none());
        session.finish(None);
        assert_eq!(flags, vec!["--other=1"]);
    }

    #[test]
    fn profile_flag_resolves_directories() {
        let base = std::env::temp_dir().join(format!("mc-cli-profile-{}", std::process::id()));
        let mut explicit: Vec<String> = vec![format!("--profile={}", base.join("p").display())];
        let mut session = take_profile_flags(&mut explicit, None).unwrap();
        assert!(session.active());
        assert!(explicit.is_empty());
        assert_eq!(session.dir(), Some(base.join("p").as_path()));
        session.finish(None);
        assert!(!session.active(), "finish uninstalls");

        // Bare --profile lands beside the registry when the run registers.
        let mut bare: Vec<String> = vec!["--profile".into()];
        let mut session = take_profile_flags(&mut bare, Some(&base)).unwrap();
        assert_eq!(session.dir(), Some(base.join("profiles").as_path()));
        session.finish(None);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn registry_flag_implies_registration() {
        let dir = std::env::temp_dir().join(format!("mc-cli-pulse-{}", std::process::id()));
        let mut flags: Vec<String> = vec![format!("--registry={}", dir.display())];
        let mut session = PulseSession::from_flags(&mut flags).unwrap();
        assert!(session.active(), "--registry alone registers");
        assert!(flags.is_empty());
        session.record_document("doc", "not,a,launcher,csv\n");
        let mut manifest = mc_report::RunManifest::new();
        manifest.set("kernel", "t");
        session.finish("test", manifest, 0);
        let registry = mc_pulse::Registry::open(&dir);
        let index = registry.load_index().unwrap();
        assert_eq!(index.len(), 1, "run landed despite the unparseable document");
        assert_eq!(index[0].tool, "test");
        std::fs::remove_dir_all(&dir).ok();
    }
}
