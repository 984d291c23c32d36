//! Serialized accounting tests for the evaluation cache and the exec
//! metrics: exact hit/miss tallies under `jobs=1` (where no benign
//! duplicate compute can occur) and the `exec.*` counters and gauges a
//! sweep must publish under `--metrics`.
//!
//! Everything here touches process-global state (the cache, the worker
//! count, the metrics registry), so each test takes one shared lock.

use mc_creator::MicroCreator;
use mc_kernel::builder::load_stream;
use mc_kernel::Program;
use mc_launcher::batch::{cache_stats, clear_cache, set_cache_enabled, verify_cache_stats};
use mc_launcher::sweeps::unroll_by_level_sweep;
use mc_launcher::{EvalPoint, LauncherOptions, RunReport};
use mc_simarch::config::Level;
use std::sync::{Arc, Mutex};

static EXEC_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    EXEC_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn program(unroll: u32) -> Arc<Program> {
    let desc = load_stream(mc_asm::Mnemonic::Movaps, unroll, unroll);
    Arc::new(MicroCreator::new().generate(&desc).expect("generation").programs.remove(0))
}

fn options() -> LauncherOptions {
    LauncherOptions { repetitions: 4, meta_repetitions: 3, ..LauncherOptions::default() }
}

#[test]
fn serial_hit_miss_accounting_is_exact() {
    let _guard = lock();
    mc_exec::set_jobs(1);
    clear_cache();
    let base = Arc::new(options());
    let points: Vec<EvalPoint> = (0..6).map(|_| EvalPoint::new(program(4), base.clone())).collect();
    let (h0, m0) = cache_stats();
    mc_launcher::run_batch(points).expect("batch runs");
    let (hits, misses) = cache_stats();
    // Six identical points under one worker: the first computes, the
    // other five replay it. No race can double-count in serial mode.
    assert_eq!(misses - m0, 1, "one compute");
    assert_eq!(hits - h0, 5, "five replays");
}

#[test]
fn distinct_points_never_hit() {
    let _guard = lock();
    mc_exec::set_jobs(1);
    clear_cache();
    let base = Arc::new(options());
    let points: Vec<EvalPoint> =
        (1..=4).map(|u| EvalPoint::new(program(u), base.clone())).collect();
    mc_launcher::run_batch(points).expect("batch runs");
    let (hits, misses) = cache_stats();
    assert_eq!(hits, 0);
    assert_eq!(misses, 4);
}

#[test]
fn sweep_publishes_exec_metrics() {
    let _guard = lock();
    mc_exec::set_jobs(4);
    clear_cache();
    mc_trace::metrics().reset();
    mc_trace::enable_metrics(true);
    let desc = load_stream(mc_asm::Mnemonic::Movaps, 1, 8);
    let series = unroll_by_level_sweep(&options(), &desc, &[Level::L1, Level::Ram], false)
        .expect("sweep runs");
    mc_trace::enable_metrics(false);
    assert_eq!(series.len(), 2);
    let snapshot = mc_trace::metrics().snapshot();
    // 2 levels × 8 unroll factors, all cold: 16 misses, one batch.
    assert_eq!(snapshot.counter("exec.cache.miss"), Some(16));
    assert!(snapshot.counter("exec.cache.hit").is_none());
    assert_eq!(snapshot.counter("exec.batch.count"), Some(1));
    assert_eq!(snapshot.counter("exec.batch.points"), Some(16));
    assert_eq!(snapshot.gauge("exec.pool.workers"), Some(4.0));
    let utilization = snapshot.gauge("exec.pool.utilization").expect("utilization gauge");
    assert!((0.0..=1.0).contains(&utilization), "utilization {utilization} out of range");
    let wall = snapshot.histogram("exec.batch.wall_ms").expect("wall-time histogram");
    assert_eq!(wall.count, 1);

    // The warm re-run hits for every point.
    mc_trace::enable_metrics(true);
    unroll_by_level_sweep(&options(), &desc, &[Level::L1, Level::Ram], false).expect("warm sweep");
    mc_trace::enable_metrics(false);
    let snapshot = mc_trace::metrics().snapshot();
    assert_eq!(snapshot.counter("exec.cache.hit"), Some(16));
    assert_eq!(snapshot.counter("exec.cache.miss"), Some(16));
}

struct QuietSink;

impl mc_trace::ProgressSink for QuietSink {
    fn on_progress(&self, _: mc_trace::ProgressEvent, _: &mc_trace::ProgressSnapshot) {}
}

#[test]
fn frequency_sweep_verifies_each_program_once() {
    let _guard = lock();
    mc_exec::set_jobs(1);
    let program = program(4);
    let points = || -> Vec<EvalPoint> {
        (0..8)
            .map(|i| {
                let frequency_ghz = 1.6 + 0.2 * f64::from(i);
                EvalPoint::new(
                    program.clone(),
                    Arc::new(LauncherOptions { frequency_ghz, ..options() }),
                )
            })
            .collect()
    };

    clear_cache();
    mc_trace::install_progress(Arc::new(QuietSink));
    let memoized: Vec<RunReport> = mc_launcher::run_batch(points()).expect("memo-on batch");
    let progress = mc_trace::progress_snapshot();
    mc_trace::uninstall_progress();
    // Eight frequencies are eight evaluations but one verification.
    assert_eq!(verify_cache_stats(), (7, 1), "one interpreter run, seven replays");
    assert_eq!(cache_stats(), (0, 8));
    // Progress cache counts are evaluation lookups only, not the
    // verification memo's.
    assert_eq!((progress.cache_hits, progress.cache_misses), (0, 8));

    clear_cache();
    set_cache_enabled(false);
    let computed = mc_launcher::run_batch(points());
    set_cache_enabled(true);
    assert_eq!(verify_cache_stats(), (0, 0), "a disabled memo is never consulted");
    assert_eq!(computed.expect("memo-off batch"), memoized, "memo on and off agree");
    assert!(memoized.iter().all(|r| r.verify.as_ref().is_some_and(|v| v.passed)));
}
