//! Parallel execution must be invisible in the data: for every
//! experiment, the series produced under `jobs=1` and `jobs=8` must be
//! *identical* — same labels, same points, bit for bit. The engine
//! guarantees this by construction (index-ordered collection over a pure
//! simulation); these tests enforce it per figure.
//!
//! Every run evaluates on its own context, but the worker count and the
//! metrics registry are process-global, so every test serializes on one
//! lock.

use mc_bench::figures::{quick_options, run_all, run_many, FigureResult};
use mc_launcher::Ctx;
use mc_report::experiments::ExperimentId;
use std::collections::HashSet;
use std::sync::Mutex;

static EXEC_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    EXEC_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs a set of experiments under a fixed worker count, on a fresh
/// context so no run feeds the next.
fn run_with_jobs(ids: &[ExperimentId], jobs: usize) -> Vec<FigureResult> {
    mc_exec::set_jobs(jobs);
    run_many(&Ctx::default(), ids, &quick_options()).expect("experiments run")
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
    let ctx = Ctx::default();
    let figures = [ExperimentId::Fig11, ExperimentId::Fig13];
    // Cold pass populates the cache; the warm pass must replay it exactly.
    let cold = run_many(&ctx, &figures, &quick_options()).expect("cold run");
    let (_, misses_cold) = ctx.cache_stats();
    assert!(misses_cold > 0, "cold pass must populate the cache");
    let models = ctx.model_cache_stats();
    let warm = run_many(&ctx, &figures, &quick_options()).expect("warm run");
    let (hits_warm, _) = ctx.cache_stats();
    assert!(hits_warm > 0, "warm pass must hit the cache");
    for (a, b) in cold.iter().zip(&warm) {
        assert_identical(a, b, a.id.key());
    }
    // The cold pass finished most of its points from a shared model.
    assert!(models.0 > models.1, "model memo hits {} <= misses {}", models.0, models.1);
}

#[test]
fn a_cold_pass_analyzes_each_program_once_per_machine() {
    use mc_launcher::store::{decode_report, EVAL_KIND};
    let _guard = lock();
    // One worker: two workers racing on one key may both compute it.
    mc_exec::set_jobs(1);
    let ctx = Ctx::default();
    let dir = std::env::temp_dir().join(format!("mc-determinism-models-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ctx.set_store(Some(&dir)).expect("store attached");
    let result = run_all(&ctx, &quick_options());
    assert_eq!(result.expect("experiments run").len(), ExperimentId::ALL.len());
    let (hits, misses) = ctx.model_cache_stats();
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

/// The memo picks a key's shard from its top bits, so the keys of a full
/// run fill every shard evenly: within ±25% of the mean. (Low-bit shards
/// filled half of them, since FNV-1a's low bit is its input's parity.)
#[test]
fn a_full_runs_eval_keys_spread_evenly_across_memo_shards() {
    use mc_exec::cache::{shard_of, SHARDS};
    let _guard = lock();
    mc_exec::set_jobs(4);
    let ctx = Ctx::default();
    let dir = std::env::temp_dir().join(format!("mc-determinism-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ctx.set_store(Some(&dir)).expect("store attached");
    run_all(&ctx, &quick_options()).expect("experiments run");
    let keys = store.keys(mc_launcher::store::EVAL_KIND);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(keys.len(), 7384, "the full suite's evaluation keys");
    let mut per_shard = [0usize; SHARDS];
    for key in &keys {
        let (program, options) = key.split_once('-').expect("<program>-<options>");
        let half = |hex| u64::from_str_radix(hex, 16).expect("hex key half");
        per_shard[shard_of(&(half(program), half(options)))] += 1;
    }
    let mean = keys.len() / SHARDS;
    let (low, high) = (mean * 3 / 4, mean * 5 / 4);
    assert!(
        per_shard.iter().all(|&n| (low..=high).contains(&n)),
        "shard loads {per_shard:?} stray outside {low}..={high}"
    );
}

#[test]
fn exec_metrics_cover_a_full_figure_run() {
    let _guard = lock();
    mc_exec::set_jobs(4);
    mc_trace::metrics().reset();
    mc_trace::enable_metrics(true);
    let result =
        run_many(&Ctx::default(), &[ExperimentId::Fig14], &quick_options()).expect("figure runs");
    mc_trace::enable_metrics(false);
    assert_eq!(result.len(), 1);
    let snapshot = mc_trace::metrics().snapshot();
    assert!(
        snapshot.counter("exec.cache.miss").unwrap_or(0) > 0,
        "figure evaluations must be counted"
    );
    assert!(snapshot.span("exec.batch").is_some_and(|h| h.count > 0), "batches must be counted");
    assert!(snapshot.counter("exec.batch.points").unwrap_or(0) >= 12, "one point per core count");
    let utilization = snapshot.gauge("exec.pool.utilization").expect("utilization gauge");
    assert!((0.0..=1.0).contains(&utilization), "utilization {utilization} out of range");
    assert!(snapshot.gauge("exec.pool.workers").is_some(), "worker gauge");
}
