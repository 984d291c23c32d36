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

use mc_serve::{ApiServer, Daemon, QuotaConfig, ServeConfig};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> &'static str {
    "usage: mc-serve --listen=ADDR --state=DIR [options]\n\
     options:\n  \
     --listen=ADDR       bind address (default 127.0.0.1:7199)\n  \
     --state=DIR         state directory: journal + results (required)\n  \
     --store=DIR         evaluation store root (MICROTOOLS_STORE)\n  \
     --registry=DIR      pulse registry for the drain record\n  \
     --queue-depth=N     queued-job bound before shedding (default 64)\n  \
     --quota-capacity=N  per-client token-bucket burst (default 16)\n  \
     --quota-refill=N    per-client tokens per second (default 4)\n  \
     --max-failures=N    per-client error budget (default 8)\n  \
     --deadline-ms=N     per-job wall-clock deadline (default none)\n  \
     --jobs=N            evaluation workers (MICROTOOLS_JOBS)\n\
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

fn parse_flag<'a>(arg: &'a str, name: &str) -> Option<&'a str> {
    arg.strip_prefix(name).and_then(|rest| rest.strip_prefix('='))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let mut listen = "127.0.0.1:7199".to_owned();
    let mut state: Option<String> = None;
    let mut store: Option<String> = None;
    let mut registry: Option<String> = None;
    let mut queue_depth = 64usize;
    let mut quota = QuotaConfig::default();
    let mut deadline_ms = 0u64;
    for arg in &args {
        if let Some(v) = parse_flag(arg, "--listen") {
            listen = v.to_owned();
        } else if let Some(v) = parse_flag(arg, "--state") {
            state = Some(v.to_owned());
        } else if let Some(v) = parse_flag(arg, "--store") {
            store = Some(v.to_owned());
        } else if let Some(v) = parse_flag(arg, "--registry") {
            registry = Some(v.to_owned());
        } else if let Some(v) = parse_flag(arg, "--queue-depth") {
            match v.parse() {
                Ok(n) => queue_depth = n,
                Err(_) => return flag_error(arg),
            }
        } else if let Some(v) = parse_flag(arg, "--quota-capacity") {
            match v.parse() {
                Ok(n) => quota.capacity = n,
                Err(_) => return flag_error(arg),
            }
        } else if let Some(v) = parse_flag(arg, "--quota-refill") {
            match v.parse() {
                Ok(n) => quota.refill_per_sec = n,
                Err(_) => return flag_error(arg),
            }
        } else if let Some(v) = parse_flag(arg, "--max-failures") {
            match v.parse() {
                Ok(n) => quota.max_failures = n,
                Err(_) => return flag_error(arg),
            }
        } else if let Some(v) = parse_flag(arg, "--deadline-ms") {
            match v.parse() {
                Ok(n) => deadline_ms = n,
                Err(_) => return flag_error(arg),
            }
        } else if let Some(v) = parse_flag(arg, "--jobs") {
            match v.parse() {
                Ok(n) => mc_exec::set_jobs(n),
                Err(_) => return flag_error(arg),
            }
        } else {
            eprintln!("unknown flag `{arg}`\n{}", usage());
            return ExitCode::from(2);
        }
    }
    let Some(state) = state else {
        eprintln!("--state=DIR is required\n{}", usage());
        return ExitCode::from(2);
    };
    if let Ok(spec) = std::env::var("MICROTOOLS_FAULT") {
        let plan = match mc_guard::FaultPlan::parse(&spec) {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("MICROTOOLS_FAULT rejected: {e}");
                return ExitCode::from(2);
            }
        };
        // Jobs evaluate in the process context, so its guard fires the
        // evaluation faults; the durable-write half is process-wide.
        mc_guard::install_write_faults(&plan);
        mc_launcher::Ctx::process().guard().set_faults(plan);
        eprintln!("mc-serve: chaos plan active: {spec}");
    }
    let mut config = ServeConfig::new(&state);
    config.store_dir = store.map(Into::into);
    config.registry_root = registry.map(Into::into);
    config.queue_depth = queue_depth;
    config.quota = quota;
    config.job_deadline_ms = deadline_ms;

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

fn flag_error(arg: &str) -> ExitCode {
    eprintln!("bad flag value `{arg}`\n{}", usage());
    ExitCode::from(2)
}
