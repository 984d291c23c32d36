//! Recovery tests: the mc-guard supervision layer driven through real
//! launcher batches — panic isolation, deadlines, retries, store-backed
//! resume, and worker-count determinism under injected faults.
//!
//! Each test evaluates on its own run context, whose guard holds the
//! policy, the fault plan, the eval-index sequence and the failure
//! count. Only the worker count and the metrics registry are
//! process-global, so each test takes one shared lock for them.

use mc_creator::MicroCreator;
use mc_guard::{EvalErrorKind, FaultPlan, Guard, GuardPolicy};
use mc_kernel::builder::load_stream;
use mc_kernel::Program;
use mc_launcher::{Ctx, EvalPoint, LauncherOptions, RunReport};
use std::sync::{Arc, Mutex};

static EXEC_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    EXEC_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A fresh run context supervised under `policy`, firing `plan`.
fn guarded(policy: GuardPolicy, plan: FaultPlan) -> Ctx {
    Ctx::new(Guard::new(policy, plan), None)
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
    mc_exec::set_jobs(4);
    let ctx = guarded(GuardPolicy::default(), FaultPlan::new().panic_at(5));
    let results = ctx.try_run_batch_supervised(identical_points(100));
    assert_eq!(results.len(), 100);
    let failures: Vec<usize> =
        results.iter().enumerate().filter(|(_, r)| r.is_err()).map(|(i, _)| i).collect();
    assert_eq!(failures, vec![5], "exactly the poisoned index fails");
    let error = results[5].as_ref().unwrap_err();
    assert_eq!(error.kind, EvalErrorKind::Panic);
    assert!(error.message.contains("injected panic"), "{}", error.message);
    // The guard counts the failure; the default zero budget is blown.
    assert_eq!(ctx.guard().failures(), 1);
    assert!(ctx.guard().over_budget());
}

#[test]
fn a_deadline_fires_deterministically_on_a_delayed_eval() {
    let _guard = lock();
    mc_exec::set_jobs(2);
    // Index 1 sleeps 400 ms against a 50 ms deadline; index 0 is clean.
    let ctx = guarded(
        GuardPolicy {
            deadline: Some(std::time::Duration::from_millis(50)),
            ..GuardPolicy::default()
        },
        FaultPlan::new().delay_at(1, 400),
    );
    let results = ctx.try_run_batch_supervised(identical_points(2));
    assert!(results[0].is_ok(), "{:?}", results[0]);
    let error = results[1].as_ref().unwrap_err();
    assert_eq!(error.kind, EvalErrorKind::Timeout);
    assert_eq!(error.attempts, 1);
}

#[test]
fn transient_faults_are_retried_and_recover() {
    let _guard = lock();
    mc_exec::set_jobs(1);
    // Fails the first attempt at index 0, then succeeds on the retry.
    let ctx = guarded(
        GuardPolicy { retries: 2, ..GuardPolicy::default() },
        FaultPlan::new().flaky_at(0, 1),
    );
    mc_trace::metrics().reset();
    mc_trace::enable_metrics(true);
    let results = ctx.try_run_batch_supervised(identical_points(1));
    mc_trace::enable_metrics(false);
    assert!(results[0].is_ok(), "{:?}", results[0]);
    let snapshot = mc_trace::metrics().snapshot();
    assert_eq!(snapshot.counter("guard.retries"), Some(1));
    assert_eq!(snapshot.counter("guard.recovered"), Some(1));
    assert!(snapshot.counter("guard.failures").is_none());
    assert_eq!(ctx.guard().failures(), 0, "a recovered eval is not counted");
}

#[test]
fn resume_skips_exactly_the_stored_set() {
    let _guard = lock();
    mc_exec::set_jobs(2);
    let dir = store_dir("resume");
    // Interrupted run: point 3 fails with an injected I/O error, the
    // other seven are saved to the store as they finish.
    let ctx = guarded(GuardPolicy::default(), FaultPlan::new().io_error_at(3));
    ctx.set_store(Some(&dir));
    let first = ctx.try_run_batch_supervised(distinct_points());
    assert_eq!(first.iter().filter(|r| r.is_ok()).count(), 7);
    assert_eq!(first[3].as_ref().unwrap_err().kind, EvalErrorKind::Failed);

    // Resume as a new process would: a fresh context, so a cold memo
    // cache, a fresh guard and a fresh store handle on the same
    // directory. Seven points load from disk, only the failed one
    // evaluates and is saved.
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
    let render = |jobs: usize| -> Vec<String> {
        mc_exec::set_jobs(jobs);
        // A fresh context per run: indices restart at 0, and flaky fire
        // budgets are consumed state.
        let ctx = guarded(GuardPolicy::default(), FaultPlan::new().panic_at(2).io_error_at(6));
        let base = Arc::new(options());
        let points: Vec<EvalPoint> =
            (1..=8).map(|u| EvalPoint::new(program(u), base.clone())).collect();
        ctx.try_run_batch_supervised(points)
            .into_iter()
            .enumerate()
            .map(|(i, result)| match result {
                Ok(report) => report.csv_row(),
                Err(error) => {
                    let name = format!("point{i}");
                    RunReport::failed_csv_row(&name, &name, &options(), error.kind.name())
                }
            })
            .collect()
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
    // Serial execution makes "after the failure" well defined.
    mc_exec::set_jobs(1);
    let ctx = guarded(
        GuardPolicy { fail_fast: true, ..GuardPolicy::default() },
        FaultPlan::new().panic_at(2),
    );
    let results = ctx.try_run_batch_supervised(identical_points(6));
    assert!(results[0].is_ok() && results[1].is_ok());
    assert_eq!(results[2].as_ref().unwrap_err().kind, EvalErrorKind::Panic);
    for r in &results[3..] {
        assert_eq!(r.as_ref().unwrap_err().kind, EvalErrorKind::Skipped);
    }
    // Skipped points are not failures: the guard counts one.
    assert_eq!(ctx.guard().failures(), 1);
}

#[test]
fn two_contexts_keep_their_faults_budgets_and_indices_apart() {
    let _guard = lock();
    mc_exec::set_jobs(2);
    // Both fail fast on a zero budget; only A has a fault.
    let fail_fast = || GuardPolicy { fail_fast: true, ..GuardPolicy::default() };
    let a = guarded(fail_fast(), FaultPlan::new().panic_at(0));
    let b = guarded(fail_fast(), FaultPlan::new());
    let (first_a, first_b) = std::thread::scope(|s| {
        let run_a = s.spawn(|| a.try_run_batch_supervised(identical_points(8)));
        let run_b = s.spawn(|| b.try_run_batch_supervised(identical_points(8)));
        (run_a.join().unwrap(), run_b.join().unwrap())
    });
    assert_eq!(first_a[0].as_ref().unwrap_err().kind, EvalErrorKind::Panic);
    assert_eq!(a.guard().failures(), 1);
    assert!(a.guard().over_budget());
    assert!(first_b.iter().all(Result::is_ok), "A's panic@0 must not fire in B");
    assert_eq!(b.guard().failures(), 0);
    assert_eq!(b.guard().next_index(), 8, "B's indices start at 0");

    // A's spent budget skips A's next batch and nothing of B's.
    let second_a = a.try_run_batch_supervised(identical_points(2));
    assert!(second_a.iter().all(|r| r.as_ref().unwrap_err().kind == EvalErrorKind::Skipped));
    let second_b = b.try_run_batch_supervised(identical_points(2));
    assert!(second_b.iter().all(Result::is_ok), "{second_b:?}");
    assert_eq!((b.guard().failures(), b.guard().next_index()), (0, 10));
}
