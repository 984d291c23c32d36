//! Adaptive repetition control at figure-suite scale: the μOpTime-style
//! controller must (a) cut the number of timed kernel calls by at least
//! 3x against the paper's fixed stability budget, (b) leave every shape
//! claim intact, and (c) stay bit-deterministic across worker counts and
//! reruns — sampling decisions depend only on the samples, never on the
//! schedule.
//!
//! The sampling policy travels as each run's base options, and every run
//! evaluates cold on its own context. The worker count and the metrics
//! registry are process-global, so every test serializes on one lock and
//! restores the configuration it found.

use mc_bench::figures::{quick_options, run_all, run_many, FigureResult};
use mc_launcher::{Ctx, LauncherOptions};
use mc_report::experiments::ExperimentId;
use std::sync::Mutex;

static EXEC_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    EXEC_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Restores every piece of process-global state a test here touches.
fn restore_defaults() {
    mc_trace::enable_metrics(false);
    mc_trace::metrics().reset();
}

/// The figures whose shape claims stay pinned under adaptive mode.
const SHAPE_FIGURES: &[ExperimentId] = &[
    ExperimentId::Fig5,
    ExperimentId::Fig13,
    ExperimentId::Fig14,
    ExperimentId::Fig15,
    ExperimentId::Fig16,
    ExperimentId::Fig17,
];

/// `base` under adaptive control with the reproduce default bounds.
fn adaptive(base: LauncherOptions) -> LauncherOptions {
    LauncherOptions { adaptive: true, min_samples: 2, max_samples: 8, ..base }
}

/// Runs the full suite cold on `base` and returns the number of timed
/// kernel calls the measurement protocol issued.
fn timed_calls_for_full_suite(base: &LauncherOptions) -> (u64, Vec<FigureResult>) {
    mc_trace::metrics().reset();
    mc_trace::enable_metrics(true);
    let results = run_all(&Ctx::default(), base).expect("full suite runs");
    mc_trace::enable_metrics(false);
    let calls =
        mc_trace::metrics().snapshot().counter("launcher.timed_calls").expect("timed calls metric");
    (calls, results)
}

fn assert_identical(a: &FigureResult, b: &FigureResult, what: &str) {
    assert_eq!(a.series.len(), b.series.len(), "{what}: series count");
    for (sa, sb) in a.series.iter().zip(&b.series) {
        assert_eq!(sa.label, sb.label, "{what}: series label");
        assert_eq!(sa.points, sb.points, "{what}: series `{}`", sa.label);
    }
    assert_eq!(a.table, b.table, "{what}: rendered table");
    let verdicts = |r: &FigureResult| r.outcome.checks.iter().map(|c| c.passed).collect::<Vec<_>>();
    assert_eq!(verdicts(a), verdicts(b), "{what}: check verdicts");
}

/// The headline claim: against the paper's full stability budget of 8
/// outer experiments per point, adaptive control (2..8) reproduces the
/// whole figure suite with >= 3x fewer timed kernel calls — the
/// simulated points are quiet, so nearly every point settles at the
/// 2-sample floor. The printed counts are the source for BENCH_pr6.json.
#[test]
fn adaptive_mode_cuts_timed_calls_at_least_3x_over_the_full_suite() {
    let _guard = lock();
    mc_exec::set_jobs(4);
    let full_budget = LauncherOptions { meta_repetitions: 8, ..quick_options() };

    let (fixed_calls, fixed) = timed_calls_for_full_suite(&full_budget);
    let (adaptive_calls, adaptive) = timed_calls_for_full_suite(&adaptive(full_budget));

    restore_defaults();

    assert!(fixed_calls > 0 && adaptive_calls > 0, "{fixed_calls} vs {adaptive_calls}");
    let ratio = fixed_calls as f64 / adaptive_calls as f64;
    println!(
        "timed kernel calls: fixed(budget=8) {fixed_calls}, adaptive(2..8) {adaptive_calls}, \
         ratio {ratio:.2}x"
    );
    assert!(ratio >= 3.0, "adaptive saved only {ratio:.2}x ({fixed_calls} -> {adaptive_calls})");

    // Cheaper must not mean different conclusions: every experiment's
    // verdicts match the fixed-budget run's.
    for (a, b) in fixed.iter().zip(&adaptive) {
        let verdicts =
            |r: &FigureResult| r.outcome.checks.iter().map(|c| c.passed).collect::<Vec<_>>();
        assert_eq!(verdicts(a), verdicts(b), "{}: verdicts diverged under adaptive", a.id.key());
    }
}

/// The named figures keep their paper-shape claims under adaptive
/// sampling.
#[test]
fn shape_claims_hold_under_adaptive_sampling() {
    let _guard = lock();
    mc_exec::set_jobs(4);
    let results =
        run_many(&Ctx::default(), SHAPE_FIGURES, &adaptive(quick_options())).expect("figures run");
    restore_defaults();
    for r in &results {
        for check in &r.outcome.checks {
            assert!(
                check.passed,
                "{}: `{}` failed under adaptive sampling",
                r.id.key(),
                check.name
            );
        }
    }
}

/// Adaptive sampling decisions ride on the samples alone, so the worker
/// count cannot change them: `jobs=1` and `jobs=8` produce bit-identical
/// series, and a rerun under the same seed replays exactly.
#[test]
fn adaptive_runs_are_identical_across_jobs_and_reruns() {
    let _guard = lock();
    let base = adaptive(quick_options());
    let run_with_jobs = |jobs: usize| -> Vec<FigureResult> {
        mc_exec::set_jobs(jobs);
        run_many(&Ctx::default(), SHAPE_FIGURES, &base).expect("experiments run")
    };
    let serial = run_with_jobs(1);
    let parallel = run_with_jobs(8);
    let rerun = run_with_jobs(8);
    restore_defaults();
    for (a, b) in serial.iter().zip(&parallel) {
        assert_identical(a, b, a.id.key());
    }
    for (a, b) in parallel.iter().zip(&rerun) {
        assert_identical(a, b, &format!("{} rerun", a.id.key()));
    }
}
