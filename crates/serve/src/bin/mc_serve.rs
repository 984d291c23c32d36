//! `mc-serve` — the long-running sweep daemon.
//!
//! ```text
//! mc-serve --listen=127.0.0.1:7199 --state=DIR [--store=DIR] [--registry=DIR]
//!          [--queue-depth=N] [--quota-capacity=N] [--quota-refill=N/S]
//!          [--max-failures=N] [--deadline-ms=N] [--jobs=N]
//! ```
//!
//! The daemon admits kernel submissions (`POST /submit`), runs them on
//! the shared evaluation engine, and serves results and progress; see
//! `mc_serve::api` for the routes. SIGTERM and SIGINT begin a graceful
//! drain: admission stops (503), the running job checkpoints, the store
//! ledger is flushed, a run record lands in the registry, and the
//! process exits 0. SIGKILL is safe at any instant — the accepted-job
//! journal replays on the next start.
//!
//! `MICROTOOLS_FAULT` installs a chaos plan (see mc-guard) covering the
//! evaluation path and every persistence write, so fault drills run
//! against the real daemon binary.

use mc_report::Flags;
use mc_serve::{ApiServer, Daemon, ServeConfig};
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> &'static str {
    "usage: mc-serve --listen=ADDR --state=DIR [options]\n\
     options:\n  \
     --listen=ADDR       bind address (default 127.0.0.1:7199)\n  \
     --state=DIR         state directory: journal + results (required)\n  \
     --store=DIR         evaluation store root\n  \
     --registry=DIR      pulse registry for the drain record\n  \
     --queue-depth=N     queued-job bound before shedding (default 64)\n  \
     --quota-capacity=N  per-client token-bucket burst (default 16)\n  \
     --quota-refill=N    per-client tokens per second (default 4)\n  \
     --max-failures=N    per-client error budget (default 8)\n  \
     --deadline-ms=N     per-job wall-clock deadline (default none)\n  \
     --jobs=N            evaluation workers (default: available parallelism)\n\
     env: MICROTOOLS_FAULT=PLAN (chaos injection; see mc-guard)"
}

/// SIGTERM/SIGINT latch, raised from the signal handler.
static TERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // Hand-rolled libc binding: the workspace is std-only and only
    // needs `signal(2)`'s handler registration here.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::Release);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term as *const () as usize);
        signal(SIGINT, on_term as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// The daemon's configuration and listen address from the command line.
fn config(mut flags: Flags) -> Result<(ServeConfig, String), String> {
    let listen = flags.value("--listen").unwrap_or_else(|| "127.0.0.1:7199".to_owned());
    let mut config = ServeConfig::new(flags.value("--state").unwrap_or_default());
    config.store_dir = flags.value("--store").map(Into::into);
    config.registry_root = flags.value("--registry").map(Into::into);
    if let Some(depth) = flags.parse("--queue-depth")? {
        config.queue_depth = depth;
    }
    if let Some(capacity) = flags.parse("--quota-capacity")? {
        config.quota.capacity = capacity;
    }
    if let Some(refill) = flags.parse("--quota-refill")? {
        config.quota.refill_per_sec = refill;
    }
    if let Some(max_failures) = flags.parse("--max-failures")? {
        config.quota.max_failures = max_failures;
    }
    if let Some(deadline_ms) = flags.parse("--deadline-ms")? {
        config.job_deadline_ms = deadline_ms;
    }
    if let Some(jobs) = flags.parse::<NonZeroUsize>("--jobs")? {
        mc_exec::set_jobs(jobs.get());
    }
    flags.finish()?;
    if config.state_dir.as_os_str().is_empty() {
        return Err("--state=DIR is required".into());
    }
    Ok((config, listen))
}

fn main() -> ExitCode {
    let (config, listen) = match config(Flags::from_env(usage())) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let state = config.state_dir.display().to_string();
    match mc_guard::env_faults() {
        Ok((spec, _)) if spec.is_empty() => {}
        // Jobs evaluate in the process context, so its guard fires the
        // evaluation faults; the durable-write half is process-wide.
        Ok((spec, plan)) => {
            mc_launcher::Ctx::process().guard().set_faults(plan);
            eprintln!("mc-serve: chaos plan active: {spec}");
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    }

    install_signal_handlers();
    // `GET /metrics` serves the registry, which records nothing until
    // enabled. The binary turns it on; an embedded `Daemon` leaves the
    // choice (and its cost) to its host.
    mc_trace::enable_metrics(true);
    let daemon = match Daemon::open(config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("mc-serve: cannot open state at {state}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scheduler = daemon.start();
    let drain_flag = Arc::new(AtomicBool::new(false));
    let server = match ApiServer::start(Arc::clone(&daemon), &listen, Arc::clone(&drain_flag)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mc-serve: cannot bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("mc-serve: listening on {} (state: {state})", server.addr());
    while !TERM.load(Ordering::Acquire) && !drain_flag.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("mc-serve: draining…");
    daemon.drain();
    let _ = scheduler.join();
    daemon.finish_drain();
    server.stop();
    eprintln!("mc-serve: drained clean");
    ExitCode::SUCCESS
}
