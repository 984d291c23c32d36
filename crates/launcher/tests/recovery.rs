//! Recovery tests: the mc-guard supervision layer driven through real
//! launcher batches — panic isolation, deadlines, retries, store-backed
//! resume, and worker-count determinism under injected faults.
//!
//! Each test evaluates on its own run context, but the fault plan, the
//! eval-index sequence, the guard policy, the worker count and the
//! metrics registry are process-global, so each test takes one shared
//! lock and resets that state up front.

use mc_creator::MicroCreator;
use mc_guard::{EvalErrorKind, FaultPlan, GuardPolicy};
use mc_kernel::builder::load_stream;
use mc_kernel::Program;
use mc_launcher::{Ctx, EvalPoint, LauncherOptions, RunReport};
use std::sync::{Arc, Mutex};

static EXEC_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    EXEC_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Resets every piece of process-global guard/exec state a previous test
/// (or test ordering) could have left behind.
fn reset() {
    mc_guard::clear_faults();
    mc_guard::clear_quarantine();
    mc_guard::reset_indices();
    mc_guard::set_policy(GuardPolicy::default());
}

fn program(unroll: u32) -> Arc<Program> {
    let desc = load_stream(mc_asm::Mnemonic::Movaps, unroll, unroll);
    Arc::new(MicroCreator::new().generate(&desc).expect("generation").programs.remove(0))
}

fn options() -> LauncherOptions {
    LauncherOptions { repetitions: 2, meta_repetitions: 2, ..LauncherOptions::default() }
}

/// `count` evaluation points sharing one program and base options.
fn identical_points(count: usize) -> Vec<EvalPoint> {
    let p = program(4);
    let base = Arc::new(options());
    (0..count).map(|_| EvalPoint::new(p.clone(), base.clone())).collect()
}

/// Eight distinct points (unroll 1..=8), so every evaluation computes.
fn distinct_points() -> Vec<EvalPoint> {
    let base = Arc::new(options());
    (1..=8).map(|u| EvalPoint::new(program(u), base.clone())).collect()
}

fn store_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("mc-launcher-recovery-tests")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_panic_at_one_index_leaves_the_other_99_points_alive() {
    let _guard = lock();
    reset();
    mc_exec::set_jobs(4);
    mc_guard::install_faults(FaultPlan::new().panic_at(5));
    let results = Ctx::default().try_run_batch_supervised(identical_points(100));
    mc_guard::clear_faults();
    assert_eq!(results.len(), 100);
    let failures: Vec<usize> =
        results.iter().enumerate().filter(|(_, r)| r.is_err()).map(|(i, _)| i).collect();
    assert_eq!(failures, vec![5], "exactly the poisoned index fails");
    let error = results[5].as_ref().unwrap_err();
    assert_eq!(error.kind, EvalErrorKind::Panic);
    assert!(error.message.contains("injected panic"), "{}", error.message);
    // The quarantine names the point; the default zero budget is blown.
    let quarantined = mc_guard::quarantine_snapshot();
    assert_eq!(quarantined.len(), 1);
    assert_eq!(quarantined[0].index, 5);
    assert_eq!(mc_guard::failure_count(), 1);
    assert!(mc_guard::over_budget());
}

#[test]
fn a_deadline_fires_deterministically_on_a_delayed_eval() {
    let _guard = lock();
    reset();
    mc_exec::set_jobs(2);
    mc_guard::set_policy(GuardPolicy {
        deadline: Some(std::time::Duration::from_millis(50)),
        ..GuardPolicy::default()
    });
    // Index 1 sleeps 400 ms against a 50 ms deadline; index 0 is clean.
    mc_guard::install_faults(FaultPlan::new().delay_at(1, 400));
    let results = Ctx::default().try_run_batch_supervised(identical_points(2));
    mc_guard::clear_faults();
    assert!(results[0].is_ok(), "{:?}", results[0]);
    let error = results[1].as_ref().unwrap_err();
    assert_eq!(error.kind, EvalErrorKind::Timeout);
    assert_eq!(error.attempts, 1);
}

#[test]
fn transient_faults_are_retried_and_recover() {
    let _guard = lock();
    reset();
    mc_exec::set_jobs(1);
    mc_guard::set_policy(GuardPolicy { retries: 2, backoff_base_ms: 1, ..GuardPolicy::default() });
    // Fails the first attempt at index 0, then succeeds on the retry.
    mc_guard::install_faults(FaultPlan::new().flaky_at(0, 1));
    mc_trace::metrics().reset();
    mc_trace::enable_metrics(true);
    let results = Ctx::default().try_run_batch_supervised(identical_points(1));
    mc_trace::enable_metrics(false);
    mc_guard::clear_faults();
    assert!(results[0].is_ok(), "{:?}", results[0]);
    let snapshot = mc_trace::metrics().snapshot();
    assert_eq!(snapshot.counter("guard.retries"), Some(1));
    assert_eq!(snapshot.counter("guard.recovered"), Some(1));
    assert!(snapshot.counter("guard.failures").is_none());
    assert_eq!(mc_guard::failure_count(), 0, "a recovered eval is not quarantined");
}

#[test]
fn resume_skips_exactly_the_stored_set() {
    let _guard = lock();
    reset();
    mc_exec::set_jobs(2);
    let dir = store_dir("resume");
    // Interrupted run: point 3 fails with an injected I/O error, the
    // other seven are saved to the store as they finish.
    let ctx = Ctx::default();
    ctx.set_store(Some(&dir));
    mc_guard::install_faults(FaultPlan::new().io_error_at(3));
    let first = ctx.try_run_batch_supervised(distinct_points());
    mc_guard::clear_faults();
    assert_eq!(first.iter().filter(|r| r.is_ok()).count(), 7);
    assert_eq!(first[3].as_ref().unwrap_err().kind, EvalErrorKind::Failed);

    // Resume as a new process would: a fresh context, so a cold memo
    // cache and a fresh store handle on the same directory. Seven points
    // load from disk, only the failed one evaluates and is saved.
    mc_guard::clear_quarantine();
    let ctx = Ctx::default();
    let store = ctx.set_store(Some(&dir)).expect("store attached");
    let second = ctx.try_run_batch_supervised(distinct_points());
    assert!(second.iter().all(Result::is_ok), "resume completes cleanly");
    let counters = store.counters();
    assert_eq!(counters.hit_disk, 7, "seven points served from the store");
    assert_eq!(counters.miss, 1, "one re-evaluation");
    assert_eq!(counters.saved, 1, "only the re-evaluated point is saved");
    // Stored reports are bit-identical to freshly computed ones.
    for (a, b) in first.iter().zip(&second) {
        if let (Ok(a), Ok(b)) = (a, b) {
            assert_eq!(a, b);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `launcher.measurements` is the one count of evaluations that ran: a
/// batch answered entirely by a warm store adds none, and supervision
/// counts no evaluations of its own.
#[test]
fn a_warm_store_batch_counts_no_evaluations() {
    let _guard = lock();
    reset();
    mc_exec::set_jobs(2);
    let dir = store_dir("warm-count");
    let cold_ctx = Ctx::default();
    cold_ctx.set_store(Some(&dir));
    mc_trace::metrics().reset();
    mc_trace::enable_metrics(true);
    let measurements = || mc_trace::metrics().snapshot().counter("launcher.measurements");
    let cold = cold_ctx.try_run_batch_supervised(distinct_points());
    let after_cold = measurements();

    // A new process on the same store: a fresh context, so a cold memo
    // and a fresh handle.
    let warm_ctx = Ctx::default();
    let store = warm_ctx.set_store(Some(&dir)).expect("store attached");
    let warm = warm_ctx.try_run_batch_supervised(distinct_points());
    let after_warm = measurements();
    let snapshot = mc_trace::metrics().snapshot();
    mc_trace::enable_metrics(false);

    assert!(cold.iter().chain(&warm).all(Result::is_ok));
    assert_eq!(after_cold, Some(8), "the cold batch measures every point");
    assert_eq!(store.counters().hit_disk, 8, "the warm batch loads every point");
    assert_eq!(after_warm, after_cold, "a warm batch measures nothing");
    assert_eq!(snapshot.counter("guard.eval.executed"), None);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn worker_count_does_not_change_the_csv_under_faults() {
    let _guard = lock();
    reset();
    let render = |jobs: usize| -> Vec<String> {
        mc_exec::set_jobs(jobs);
        mc_guard::reset_indices();
        mc_guard::clear_quarantine();
        // Reinstall per run: flaky fire budgets are consumed state.
        mc_guard::install_faults(FaultPlan::new().panic_at(2).io_error_at(6));
        let base = Arc::new(options());
        let points: Vec<EvalPoint> =
            (1..=8).map(|u| EvalPoint::new(program(u), base.clone())).collect();
        let rows = Ctx::default()
            .try_run_batch_supervised(points)
            .into_iter()
            .enumerate()
            .map(|(i, result)| match result {
                Ok(report) => report.csv_row(),
                Err(error) => {
                    let name = format!("point{i}");
                    RunReport::failed_csv_row(&name, &name, &options(), error.kind.name())
                }
            })
            .collect();
        mc_guard::clear_faults();
        rows
    };
    let serial = render(1);
    let parallel = render(8);
    assert_eq!(serial, parallel, "jobs=1 and jobs=8 agree row for row");
    assert_eq!(serial.iter().filter(|r| r.ends_with(",panic")).count(), 1);
    assert_eq!(serial.iter().filter(|r| r.ends_with(",failed")).count(), 1);
    assert_eq!(serial.iter().filter(|r| r.ends_with(",ok")).count(), 6);
}

#[test]
fn fail_fast_skips_points_after_the_budget_is_spent() {
    let _guard = lock();
    reset();
    // Serial execution makes "after the failure" well defined.
    mc_exec::set_jobs(1);
    mc_guard::set_policy(GuardPolicy { fail_fast: true, ..GuardPolicy::default() });
    mc_guard::install_faults(FaultPlan::new().panic_at(2));
    let results = Ctx::default().try_run_batch_supervised(identical_points(6));
    mc_guard::clear_faults();
    assert!(results[0].is_ok() && results[1].is_ok());
    assert_eq!(results[2].as_ref().unwrap_err().kind, EvalErrorKind::Panic);
    for r in &results[3..] {
        assert_eq!(r.as_ref().unwrap_err().kind, EvalErrorKind::Skipped);
    }
    // Skipped points are not failures: the quarantine holds one entry.
    assert_eq!(mc_guard::failure_count(), 1);
}
