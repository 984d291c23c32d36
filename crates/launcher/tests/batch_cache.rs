//! Accounting tests for the evaluation cache and the exec metrics: exact
//! hit/miss tallies under `jobs=1` (where no benign duplicate compute can
//! occur), the `exec.*` counters and gauges a sweep must publish under
//! `--metrics`, and the isolation of two run contexts.
//!
//! Each test evaluates on its own context, but the worker count and the
//! metrics registry are process-global, so the tests that set or read
//! them take one shared lock.

use mc_creator::MicroCreator;
use mc_kernel::builder::load_stream;
use mc_kernel::Program;
use mc_launcher::store::EVAL_KIND;
use mc_launcher::sweeps::unroll_by_level_sweep;
use mc_launcher::{Ctx, EvalPoint, KernelInput, LauncherOptions, MicroLauncher, RunReport};
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
    let ctx = Ctx::default();
    let base = Arc::new(options());
    let points: Vec<EvalPoint> = (0..6).map(|_| EvalPoint::new(program(4), base.clone())).collect();
    ctx.run_batch(points).expect("batch runs");
    // Six identical points under one worker: the first computes, the
    // other five replay it. No race can double-count in serial mode.
    assert_eq!(ctx.cache_stats(), (5, 1), "five replays of one compute");
}

#[test]
fn distinct_points_never_hit() {
    let _guard = lock();
    mc_exec::set_jobs(1);
    let ctx = Ctx::default();
    let base = Arc::new(options());
    let points: Vec<EvalPoint> =
        (1..=4).map(|u| EvalPoint::new(program(u), base.clone())).collect();
    ctx.run_batch(points).expect("batch runs");
    assert_eq!(ctx.cache_stats(), (0, 4));
}

#[test]
fn sweep_publishes_exec_metrics() {
    let _guard = lock();
    mc_exec::set_jobs(4);
    let ctx = Ctx::default();
    mc_trace::metrics().reset();
    mc_trace::enable_metrics(true);
    let desc = load_stream(mc_asm::Mnemonic::Movaps, 1, 8);
    let series = unroll_by_level_sweep(&ctx, &options(), &desc, &[Level::L1, Level::Ram], false)
        .expect("sweep runs");
    mc_trace::enable_metrics(false);
    assert_eq!(series.len(), 2);
    let snapshot = mc_trace::metrics().snapshot();
    // 2 levels × 8 unroll factors, all cold: 16 misses, one batch.
    assert_eq!(snapshot.counter("exec.cache.miss"), Some(16));
    assert!(snapshot.counter("exec.cache.hit").is_none());
    let batch = snapshot.span("exec.batch").expect("batch span aggregate");
    assert_eq!(batch.count, 1);
    assert_eq!(snapshot.counter("exec.batch.points"), Some(16));
    assert_eq!(snapshot.gauge("exec.pool.workers"), Some(4.0));
    let utilization = snapshot.gauge("exec.pool.utilization").expect("utilization gauge");
    assert!((0.0..=1.0).contains(&utilization), "utilization {utilization} out of range");

    // The warm re-run hits for every point.
    mc_trace::enable_metrics(true);
    unroll_by_level_sweep(&ctx, &options(), &desc, &[Level::L1, Level::Ram], false)
        .expect("warm sweep");
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

    let ctx = Ctx::default();
    mc_trace::install_progress(Arc::new(QuietSink));
    let memoized: Vec<RunReport> = ctx.run_batch(points()).expect("memo-on batch");
    let progress = mc_trace::progress_snapshot();
    mc_trace::uninstall_progress();
    // Eight frequencies are eight evaluations but one verification.
    assert_eq!(ctx.verify_cache_stats(), (7, 1), "one interpreter run, seven replays");
    assert_eq!(ctx.cache_stats(), (0, 8));
    // Progress cache counts are evaluation lookups only, not the
    // verification memo's.
    assert_eq!((progress.cache_hits, progress.cache_misses), (0, 8));

    // Runs without a context verify afresh and agree with the memo.
    let computed: Vec<RunReport> = points()
        .iter()
        .map(|p| {
            let launcher = MicroLauncher::new(LauncherOptions::clone(&p.options));
            launcher.run(&KernelInput::program(p.program.clone())).expect("memo-free run")
        })
        .collect();
    assert_eq!(ctx.verify_cache_stats(), (7, 1), "a context-free run consults no memo");
    assert_eq!(computed, memoized, "memo on and off agree");
    assert!(memoized.iter().all(|r| r.verify.as_ref().is_some_and(|v| v.passed)));
}

/// A fresh store directory per test.
fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mc_batch_cache_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn two_contexts_share_neither_memos_nor_store_records() {
    // Its lookups tick the process-wide metrics the sweep test counts.
    let _guard = lock();
    let (dir_a, dir_b) = (fresh_dir("a"), fresh_dir("b"));
    let (a, b) = (Ctx::default(), Ctx::default());
    let store_a = a.set_store(Some(&dir_a)).expect("store a");
    let store_b = b.set_store(Some(&dir_b)).expect("store b");
    let base = Arc::new(options());
    let point = |unroll| vec![EvalPoint::new(program(unroll), base.clone())];

    let from_a = a.run_batch(point(2)).expect("a evaluates");
    // The same point on `b` misses both of its tiers: `a`'s memo entry
    // and `a`'s store record are not `b`'s.
    let from_b = b.run_batch(point(2)).expect("b evaluates");
    assert_eq!(from_a, from_b);
    assert_eq!((a.cache_stats(), b.cache_stats()), ((0, 1), (0, 1)));
    for store in [&store_a, &store_b] {
        let counters = store.counters();
        assert_eq!((counters.hit_disk, counters.miss, counters.saved), (0, 1, 1));
    }
    // A point only `b` evaluates lands in `b`'s store alone.
    b.run_batch(point(3)).expect("b evaluates again");
    assert_eq!((store_a.keys(EVAL_KIND).len(), store_b.keys(EVAL_KIND).len()), (1, 2));
    // Generation memos are per context too.
    let desc = load_stream(mc_asm::Mnemonic::Movaps, 1, 2);
    let (gen_a, gen_b) = (a.generate_shared(&desc).unwrap(), b.generate_shared(&desc).unwrap());
    assert!(!Arc::ptr_eq(&gen_a, &gen_b), "each context generates its own set");
    assert_eq!(gen_a, gen_b);
    assert!(Arc::ptr_eq(&gen_a, &a.generate_shared(&desc).unwrap()));
    drop((a, b, store_a, store_b));
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
