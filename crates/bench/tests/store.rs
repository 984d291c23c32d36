//! The persistent evaluation store at figure-suite scale: a warm second
//! process must reproduce experiments with near-zero simulator work and
//! unchanged shape verdicts, a store written under `jobs=8` must warm a
//! `jobs=1` run bit-identically, concurrent handles over one directory
//! must never tear records, a real second process (the `reproduce`
//! binary, run twice with `--store`) must hit the disk tier, and a
//! damaged store must degrade to recomputation — never fail a sweep.
//!
//! Each simulated process is a fresh run context over the shared store
//! directory. The worker count and the metrics registry are
//! process-global, so every test that runs figures serializes on one
//! lock and restores the configuration it found.

use mc_bench::figures::{quick_options, run_many, FigureResult};
use mc_launcher::Ctx;
use mc_report::experiments::ExperimentId;
use mc_store::DiskStore;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

static EXEC_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    EXEC_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Restores every piece of process-global state a test here touches.
fn restore_defaults() {
    mc_trace::enable_metrics(false);
    mc_trace::metrics().reset();
}

/// A fresh store directory per test (removed first, so reruns start
/// cold).
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mc_bench_store_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create store dir");
    dir
}

/// What a freshly started process sharing the store directory sees: a
/// new context with empty memos, and its own handle on the store.
fn fresh_process(dir: &Path) -> (Ctx, Arc<DiskStore>) {
    let ctx = Ctx::default();
    let store = ctx.set_store(Some(dir)).expect("store attached");
    (ctx, store)
}

/// Simulator evaluations the measurement protocol actually ran (one per
/// measured point; warm store hits never reach it).
fn measurements() -> u64 {
    mc_trace::metrics().snapshot().counter("launcher.measurements").unwrap_or(0)
}

fn run_counted(ctx: &Ctx, figures: &[ExperimentId]) -> (u64, Vec<FigureResult>) {
    mc_trace::metrics().reset();
    mc_trace::enable_metrics(true);
    let results = run_many(ctx, figures, &quick_options()).expect("figures run");
    mc_trace::enable_metrics(false);
    (measurements(), results)
}

fn assert_identical(a: &FigureResult, b: &FigureResult, what: &str) {
    assert_eq!(a.series.len(), b.series.len(), "{what}: series count");
    for (sa, sb) in a.series.iter().zip(&b.series) {
        assert_eq!(sa.label, sb.label, "{what}: series label");
        assert_eq!(sa.points, sb.points, "{what}: series `{}`", sa.label);
    }
    let verdicts = |r: &FigureResult| r.outcome.checks.iter().map(|c| c.passed).collect::<Vec<_>>();
    assert_eq!(verdicts(a), verdicts(b), "{what}: check verdicts");
}

/// The figures the store tests sweep: cheap, but covering generation,
/// core sweeps, and frequency sweeps.
const FIGURES: &[ExperimentId] = &[ExperimentId::Fig11, ExperimentId::Fig13, ExperimentId::Fig14];

/// Offsets of the frames in a namespace log: every position of the
/// frame magic, whose first byte never occurs in a UTF-8 payload.
fn frame_starts(log: &[u8]) -> Vec<usize> {
    let magic = mc_report::fsio::MAGIC;
    (0..log.len().saturating_sub(magic.len()))
        .filter(|&i| log[i..i + magic.len()] == magic)
        .collect()
}

/// Offset of the payload of the frame starting at `start`.
fn payload_start(log: &[u8], start: usize) -> usize {
    let header = mc_report::fsio::Header::parse(&log[start..]).expect("a frame header");
    start + mc_report::fsio::HEADER_LEN + header.key_len as usize
}

/// The headline claim: a second process sharing the store directory
/// reproduces the figures from disk with at least 5x fewer simulator
/// evaluations — in practice zero, since every point and every generated
/// program set replays from the persistent tier. The printed counts are
/// the source for BENCH_pr8.json.
#[test]
fn quick_options_key_is_pinned() {
    // The options half of every key the figure suite memoizes and stores
    // its points under (each point's delta applied on top). A change here
    // cold-misses every such record in existing stores; make it on
    // purpose.
    assert_eq!(quick_options().fingerprint(), 0xda93_438a_d97d_9e7f);
}

#[test]
fn warm_process_runs_at_least_5x_fewer_simulator_evaluations() {
    let _guard = lock();
    mc_exec::set_jobs(4);
    let dir = fresh_dir("warm");

    let (ctx, cold_store) = fresh_process(&dir);
    let (cold_evals, cold) = run_counted(&ctx, FIGURES);

    let (ctx, store) = fresh_process(&dir);
    let (warm_evals, warm) = run_counted(&ctx, FIGURES);
    let counters = store.counters();
    restore_defaults();

    println!(
        "simulator evaluations: cold {cold_evals}, warm {warm_evals}; \
         cold store saved={}; warm store hit_disk={} miss={} saved={}",
        cold_store.counters().saved,
        counters.hit_disk,
        counters.miss,
        counters.saved
    );
    assert!(cold_evals > 0, "cold run must evaluate");
    assert!(
        (warm_evals as f64) <= cold_evals as f64 / 5.0,
        "warm process saved less than 5x ({cold_evals} -> {warm_evals})"
    );
    assert!(counters.hit_disk > 0, "warm run never touched the disk tier");
    assert_eq!(counters.skipped_corrupt, 0, "healthy store reported corruption");
    for (a, b) in cold.iter().zip(&warm) {
        assert_identical(a, b, a.id.key());
    }
}

/// A store written by a `jobs=8` run warms a `jobs=1` run to zero
/// simulator evaluations, and the two produce bit-identical series —
/// persistence must not loosen the engine's scheduling-independence
/// guarantee.
#[test]
fn store_written_under_jobs_8_warms_jobs_1_bit_identically() {
    let _guard = lock();
    let dir = fresh_dir("jobs");

    mc_exec::set_jobs(8);
    let (cold_evals, parallel) = run_counted(&fresh_process(&dir).0, FIGURES);

    mc_exec::set_jobs(1);
    let (warm_evals, serial) = run_counted(&fresh_process(&dir).0, FIGURES);
    restore_defaults();

    assert!(cold_evals > 0, "cold jobs=8 run must evaluate");
    assert_eq!(warm_evals, 0, "jobs=1 run recomputed {warm_evals} points a jobs=8 run persisted");
    for (a, b) in parallel.iter().zip(&serial) {
        assert_identical(a, b, a.id.key());
    }
}

/// Two handles over one directory — the in-process stand-in for two
/// concurrent processes. Writers save while readers load the same keys;
/// every successful load returns the exact payload (one append per record
/// means a reader sees a complete frame or nothing).
#[test]
fn concurrent_handles_over_one_directory_never_tear_records() {
    let dir = fresh_dir("threads");
    let schema = mc_launcher::store::schema_fingerprint();
    let calib = mc_launcher::store::calib_fingerprint();
    let payload = |i: usize| format!("payload line {i}\nsecond line {i}\n").repeat(20);

    let writer_dir = dir.clone();
    let writer = std::thread::spawn(move || {
        let store = mc_store::DiskStore::open(&writer_dir, schema, calib);
        for i in 0..200 {
            store.save("eval", &format!("{i:016x}"), &payload(i));
        }
    });
    let reader_dir = dir.clone();
    let reader = std::thread::spawn(move || {
        let store = mc_store::DiskStore::open(&reader_dir, schema, calib);
        let mut hits = 0u32;
        for round in 0..20 {
            for i in 0..200 {
                if let Some(seen) = store.load("eval", &format!("{i:016x}")) {
                    assert_eq!(seen, payload(i), "torn read of record {i} (round {round})");
                    hits += 1;
                }
            }
        }
        (hits, store.counters().skipped_corrupt)
    });
    writer.join().expect("writer thread");
    let (_racing_hits, corrupt) = reader.join().expect("reader thread");
    assert_eq!(corrupt, 0, "concurrent writes produced a corrupt read");
    // With the writer done, a third handle must see every record whole.
    let store = mc_store::DiskStore::open(&dir, schema, calib);
    for i in 0..200 {
        let seen = store.load("eval", &format!("{i:016x}"));
        assert_eq!(seen.as_deref(), Some(payload(i).as_str()), "record {i} lost or torn");
    }
}

/// The cross-process acceptance check, with real processes: running the
/// `reproduce` binary twice against one `--store` directory must make
/// the second process serve at least 90% of its lookups from disk and
/// persist nothing new.
#[test]
fn second_reproduce_process_runs_warm_from_the_shared_store() {
    let dir = fresh_dir("procs");
    let exe = env!("CARGO_BIN_EXE_reproduce");
    let run = || {
        std::process::Command::new(exe)
            .args(["--exp", "fig13", "--summary", "--quiet"])
            .arg(format!("--store={}", dir.display()))
            .output()
            .expect("spawn reproduce")
    };

    let first = run();
    assert!(first.status.success(), "cold run failed: {}", String::from_utf8_lossy(&first.stderr));
    let after_first = mc_store::ledger_totals(&dir);
    assert_eq!(after_first.processes, 1, "cold process did not ledger");
    assert!(after_first.counters.saved > 0, "cold process persisted nothing");
    assert_eq!(after_first.counters.hit_disk, 0, "cold process claimed disk hits");

    let second = run();
    assert!(
        second.status.success(),
        "warm run failed: {}",
        String::from_utf8_lossy(&second.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&first.stdout),
        String::from_utf8_lossy(&second.stdout),
        "warm process printed a different document"
    );
    let after_second = mc_store::ledger_totals(&dir);
    assert_eq!(after_second.processes, 2, "warm process did not ledger");
    let warm_hits = after_second.counters.hit_disk - after_first.counters.hit_disk;
    let warm_misses = after_second.counters.miss - after_first.counters.miss;
    assert!(warm_hits > 0, "warm process never hit the disk tier");
    assert!(
        warm_hits >= 9 * warm_misses,
        "warm process hit rate under 90%: {warm_hits} hits, {warm_misses} misses"
    );
    assert_eq!(
        after_second.counters.saved, after_first.counters.saved,
        "warm process recomputed and re-persisted records"
    );
}

/// Resuming is rerunning against the same store; the checkpoint journal
/// flags that used to do it are unknown arguments now.
#[test]
fn retired_checkpoint_flags_are_usage_errors() {
    for retired in ["--checkpoint=run.jsonl", "--resume"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(["--exp", "counts", "--summary", retired])
            .output()
            .expect("spawn reproduce");
        assert_eq!(out.status.code(), Some(2), "{retired}");
    }
}

/// `reproduce` shares the evaluating binaries' flag parsing: the same
/// misuse is a usage error before any experiment runs.
#[test]
fn shared_flag_misuse_is_a_usage_error() {
    for bad in ["--jobs=0", "--store=", "--progress=bogus"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(["--exp", "counts", "--summary", bad])
            .output()
            .expect("spawn reproduce");
        assert_eq!(out.status.code(), Some(2), "{bad}");
        assert!(out.stdout.is_empty(), "{bad}: reproduce ran before failing");
    }
}

/// The degradation guarantee: truncated records, garbage bytes, and
/// future format versions are each skipped and counted — the sweep
/// recomputes those points and its results never change.
#[test]
fn damaged_records_degrade_to_recomputation_never_failure() {
    let _guard = lock();
    mc_exec::set_jobs(4);
    let dir = fresh_dir("damage");

    let (cold_evals, cold) = run_counted(&fresh_process(&dir).0, &[ExperimentId::Fig13]);
    let log_path = dir.join("eval.log");
    let mut log = std::fs::read(&log_path).expect("read the eval log");
    let starts = frame_starts(&log);
    assert!(starts.len() >= 3, "expected at least 3 records, found {}", starts.len());

    // Three distinct failure modes across three real records, applied
    // back to front so earlier offsets stay put: garbage over a payload,
    // a future format version, and a payload truncated with the next
    // frame glued onto it.
    let garbage = payload_start(&log, starts[2])..starts.get(3).copied().unwrap_or(log.len());
    log[garbage].fill(b'#');
    log[starts[1] + 4..starts[1] + 8].copy_from_slice(&99u32.to_le_bytes());
    let torn = payload_start(&log, starts[0]);
    log.drain(torn + (starts[1] - torn) / 2..starts[1]);
    std::fs::write(&log_path, &log).expect("write the damaged log");

    // A fresh handle, as a new process would open: damaged entries are
    // misses, the rest still hit, and the figure's shape is unchanged.
    let (ctx, store) = fresh_process(&dir);
    let (damaged_evals, damaged) = run_counted(&ctx, &[ExperimentId::Fig13]);
    let counters = store.counters();
    restore_defaults();

    assert!(counters.skipped_corrupt >= 2, "corrupt records not counted: {counters:?}");
    assert!(counters.stale >= 1, "future-version record not counted stale: {counters:?}");
    assert!(counters.hit_disk > 0, "undamaged records stopped hitting");
    assert!(
        damaged_evals > 0 && damaged_evals < cold_evals,
        "expected partial recomputation, got {damaged_evals} of {cold_evals}"
    );
    for (a, b) in cold.iter().zip(&damaged) {
        assert_identical(a, b, a.id.key());
    }
}
