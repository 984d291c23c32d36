//! Parallel execution must be invisible in the data: for every
//! experiment, the series produced under `jobs=1` and `jobs=8` must be
//! *identical* — same labels, same points, bit for bit. The engine
//! guarantees this by construction (index-ordered collection over a pure
//! simulation); these tests enforce it per figure.
//!
//! The worker count and the caches are process-global, so every test
//! serializes on one lock and restores the configuration it found.

use mc_bench::figures::{quick_options, run_all, run_many, FigureResult};
use mc_report::experiments::ExperimentId;
use std::collections::HashSet;
use std::sync::Mutex;

static EXEC_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    EXEC_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs a set of experiments under a fixed worker count, with the
/// evaluation cache dropped first so no run feeds the next.
fn run_with_jobs(ids: &[ExperimentId], jobs: usize) -> Vec<FigureResult> {
    mc_exec::set_jobs(jobs);
    mc_launcher::batch::clear_cache();
    run_many(ids, &quick_options()).expect("experiments run")
}

fn assert_identical(a: &FigureResult, b: &FigureResult, what: &str) {
    assert_eq!(a.series.len(), b.series.len(), "{what}: series count");
    for (sa, sb) in a.series.iter().zip(&b.series) {
        assert_eq!(sa.label, sb.label, "{what}: series label");
        // Bit-identical, not approximately equal: the engine promises the
        // parallel schedule cannot leak into the arithmetic.
        assert_eq!(sa.points, sb.points, "{what}: series `{}`", sa.label);
    }
    assert_eq!(a.table, b.table, "{what}: rendered table");
    let verdicts = |r: &FigureResult| r.outcome.checks.iter().map(|c| c.passed).collect::<Vec<_>>();
    assert_eq!(verdicts(a), verdicts(b), "{what}: check verdicts");
}

#[test]
fn every_experiment_is_identical_serial_vs_parallel() {
    let _guard = lock();
    let serial = run_with_jobs(&ExperimentId::ALL, 1);
    let parallel = run_with_jobs(&ExperimentId::ALL, 8);
    for (a, b) in serial.iter().zip(&parallel) {
        assert_identical(a, b, a.id.key());
    }
}

#[test]
fn cache_reuse_is_identical_to_cold_evaluation() {
    let _guard = lock();
    mc_exec::set_jobs(4);
    mc_launcher::batch::clear_cache();
    // Cold pass populates the cache; the warm pass must replay it exactly.
    let cold =
        run_many(&[ExperimentId::Fig11, ExperimentId::Fig13], &quick_options()).expect("cold run");
    let (_, misses_cold) = mc_launcher::batch::cache_stats();
    assert!(misses_cold > 0, "cold pass must populate the cache");
    let warm =
        run_many(&[ExperimentId::Fig11, ExperimentId::Fig13], &quick_options()).expect("warm run");
    let (hits_warm, _) = mc_launcher::batch::cache_stats();
    assert!(hits_warm > 0, "warm pass must hit the cache");
    for (a, b) in cold.iter().zip(&warm) {
        assert_identical(a, b, a.id.key());
    }
    // The cold pass finished most of its points from a shared model.
    let models = mc_launcher::batch::model_cache_stats();
    assert!(models.0 > models.1, "model memo hits {} <= misses {}", models.0, models.1);
    // And a pass with every memo off, the model memo included, agrees
    // with both.
    mc_launcher::batch::set_cache_enabled(false);
    let uncached = run_many(&[ExperimentId::Fig11, ExperimentId::Fig13], &quick_options())
        .expect("uncached run");
    mc_launcher::batch::set_cache_enabled(true);
    assert_eq!(mc_launcher::batch::model_cache_stats(), models, "a disabled memo was consulted");
    for (a, b) in cold.iter().zip(&uncached) {
        assert_identical(a, b, a.id.key());
    }
}

#[test]
fn a_cold_pass_analyzes_each_program_once_per_machine() {
    use mc_launcher::store::{clear_store, decode_report, install_store, EVAL_KIND};
    let _guard = lock();
    // One worker: two workers racing on one key may both compute it.
    mc_exec::set_jobs(1);
    mc_launcher::batch::clear_cache();
    let dir = std::env::temp_dir().join(format!("mc-determinism-models-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = install_store(&dir);
    let result = run_all(&quick_options());
    clear_store();
    assert_eq!(result.expect("experiments run").len(), ExperimentId::ALL.len());
    let (hits, misses) = mc_launcher::batch::model_cache_stats();
    // Every batch evaluation is saved under `<program_fp>-<options_fp>`
    // with a report that names its machine, so the saved records give the
    // distinct (program, machine) pairs the pass estimated.
    let keys = store.keys(EVAL_KIND);
    let mut pairs = HashSet::new();
    for key in &keys {
        let payload = store.load(EVAL_KIND, key).expect("a record the pass saved");
        let report = decode_report(&payload).expect("a decodable report");
        let program_fp = key.split('-').next().expect("program half").to_owned();
        pairs.insert((program_fp, report.machine));
    }
    let _ = std::fs::remove_dir_all(&dir);
    // The keys also pin the set of points the suite evaluates: a sweep
    // point whose effective options move changes its key's options half.
    // Golden values; a change here changes what the figures measure.
    let digest = mc_report::fnv1a64(keys.join("\n").as_bytes());
    assert_eq!(
        (keys.len(), format!("{digest:016x}")),
        (7384, "8daba49d3014ee25".to_owned()),
        "the set of evaluated points moved"
    );
    assert!(pairs.len() > 1, "{} pairs", pairs.len());
    assert_eq!(misses, pairs.len() as u64, "one model per distinct (program, machine)");
    assert!(hits > 10 * misses, "{hits} model hits over {misses} models");
}

#[test]
fn exec_metrics_cover_a_full_figure_run() {
    let _guard = lock();
    mc_exec::set_jobs(4);
    mc_launcher::batch::clear_cache();
    mc_trace::metrics().reset();
    mc_trace::enable_metrics(true);
    let result = run_many(&[ExperimentId::Fig14], &quick_options()).expect("figure runs");
    mc_trace::enable_metrics(false);
    assert_eq!(result.len(), 1);
    let snapshot = mc_trace::metrics().snapshot();
    assert!(
        snapshot.counter("exec.cache.miss").unwrap_or(0) > 0,
        "figure evaluations must be counted"
    );
    assert!(snapshot.counter("exec.batch.count").unwrap_or(0) > 0, "batches must be counted");
    assert!(snapshot.counter("exec.batch.points").unwrap_or(0) >= 12, "one point per core count");
    let utilization = snapshot.gauge("exec.pool.utilization").expect("utilization gauge");
    assert!((0.0..=1.0).contains(&utilization), "utilization {utilization} out of range");
    assert!(snapshot.gauge("exec.pool.workers").is_some(), "worker gauge");
}
