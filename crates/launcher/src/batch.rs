//! Batch evaluation: many `(Program, LauncherOptions)` points through the
//! mc-exec engine, with process-wide memoization.
//!
//! An [`EvalPoint`] is a program and the options it runs under, each
//! behind an `Arc`: a sweep driver builds every distinct option set once
//! and shares it across the programs at that setting. A point's options
//! are cloned only when it actually evaluates; memo and disk hits read
//! nothing but its key. Results come back in submission order, so a
//! parallel batch is bit-identical to the serial loop it replaces.
//!
//! ## Cache key derivation
//!
//! Three process-wide memos share one program fingerprint (FNV-1a over
//! the program's `Debug` rendering), computed once per distinct `Arc` in
//! the batch, not per point:
//!
//! * **evaluation** — `(program fingerprint, options fingerprint)` → the
//!   finished [`RunReport`]. The options half is
//!   [`LauncherOptions::fingerprint`] of the point's options: every
//!   field, explicitly, in declaration order, so two separately built but
//!   equal option sets share one entry. Only `Ok` reports are cached;
//!   errors always re-evaluate.
//! * **verification** — `(program fingerprint,
//!   KernelEnvironment::verify_fingerprint)` → the interpreter's verdict.
//!   The verify-input half hashes only what verification reads, so the
//!   points of a frequency or core sweep share one verification per
//!   program.
//! * **estimate model** — `(program fingerprint, machine preset)` → the
//!   program-and-machine half of the estimate
//!   ([`mc_simarch::ProgramModel`]); each point only finishes it with its
//!   own workload, frequency and cores.
//!
//! [`clear_cache`] and [`set_cache_enabled`] govern all three.
//!
//! When a persistent store is installed ([`crate::store::install_store`])
//! the memo cache gains a disk tier: a miss consults the store under the
//! same key before evaluating, and fresh results are written back — so a
//! *new process* re-running a sweep warms up from records an earlier
//! process paid for. Store records self-invalidate on schema or
//! simulator-calibration changes, and a damaged store degrades to
//! misses, never wrong results. The store is also how a killed sweep
//! resumes: each point is appended to the store's log as it finishes
//! (one fsync per batch makes the batch durable), so a rerun against
//! the same store evaluates only what the first process never finished.
//! Failed points are never saved, so a rerun evaluates them again.
//!
//! ## Supervision
//!
//! Every point runs through [`mc_guard::supervise`]: a panic inside the
//! generate→simulate→measure chain, a blown per-eval deadline, or an
//! exhausted retry budget yields a structured [`mc_guard::EvalError`]
//! for that point while the rest of the batch completes — one poisoned
//! variant no longer kills the pool. Memo hits, disk hits and
//! evaluations all happen inside the supervised attempt, so an armed
//! fault fires at its eval index however the point is then answered.

use crate::input::KernelInput;
use crate::launcher::{MicroLauncher, RunReport, VerifyReport};
use crate::options::LauncherOptions;
use mc_exec::MemoCache;
use mc_guard::EvalError;
use mc_kernel::Program;
use mc_simarch::ProgramModel;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// One evaluation point of a sweep: a program and the options it runs
/// under, both shared by every point that uses them.
#[derive(Debug, Clone)]
pub struct EvalPoint {
    /// The kernel to evaluate.
    pub program: Arc<Program>,
    /// The options this point runs under.
    pub options: Arc<LauncherOptions>,
}

impl EvalPoint {
    /// A point evaluating `program` under `options`.
    pub fn new(program: Arc<Program>, options: Arc<LauncherOptions>) -> Self {
        EvalPoint { program, options }
    }
}

/// The process-wide evaluation cache, shared across sweeps and figures.
fn eval_cache() -> &'static MemoCache<(u64, u64), RunReport> {
    static CACHE: OnceLock<MemoCache<(u64, u64), RunReport>> = OnceLock::new();
    CACHE.get_or_init(|| MemoCache::new("exec.cache"))
}

/// The process-wide verification memo: `(program fingerprint,
/// verify-input fingerprint)` → the interpreter's verdict. Verification
/// never reads frequency, cores, seed, noise or the sampling policy, so
/// evaluations that differ only there share one interpreter run.
pub(crate) fn verify_memo() -> &'static MemoCache<(u64, u64), VerifyReport> {
    static CACHE: OnceLock<MemoCache<(u64, u64), VerifyReport>> = OnceLock::new();
    CACHE.get_or_init(|| MemoCache::new("simarch.verify"))
}

/// The process-wide estimate-model memo: `(program fingerprint, machine
/// preset)` → the program-and-machine half of the estimate. Every option
/// point of a sweep that shares a program and a machine finishes the same
/// model.
pub(crate) fn model_memo() -> &'static MemoCache<(u64, u64), Arc<ProgramModel<'static>>> {
    static CACHE: OnceLock<MemoCache<(u64, u64), Arc<ProgramModel<'static>>>> = OnceLock::new();
    CACHE.get_or_init(|| MemoCache::new("simarch.model"))
}

/// Enables or disables evaluation, verification and estimate-model
/// memoization process-wide (off = always compute).
pub fn set_cache_enabled(on: bool) {
    eval_cache().set_enabled(on);
    verify_memo().set_enabled(on);
    model_memo().set_enabled(on);
}

/// Drops every memoized evaluation, verification and estimate model.
pub fn clear_cache() {
    eval_cache().clear();
    verify_memo().clear();
    model_memo().clear();
}

/// Lifetime `(hits, misses)` of the evaluation cache.
pub fn cache_stats() -> (u64, u64) {
    eval_cache().stats()
}

/// Lifetime `(hits, misses)` of the verification memo.
pub fn verify_cache_stats() -> (u64, u64) {
    verify_memo().stats()
}

/// Lifetime `(hits, misses)` of the estimate-model memo.
pub fn model_cache_stats() -> (u64, u64) {
    model_memo().stats()
}

/// A stable fingerprint of a program (FNV-1a over its `Debug` form).
pub fn program_fingerprint(program: &Program) -> u64 {
    mc_report::fnv1a64(format!("{program:?}").as_bytes())
}

/// Evaluates every point under guard supervision, keeping structured
/// per-point failures: `results[i]` corresponds to `points[i]`.
/// Failures are neither cached nor persisted, so a rerun retries them.
///
/// Eval indices for fault injection are reserved contiguously at
/// submission time, so `results[i]` always carries global index
/// `base + i` regardless of worker count — the foundation of the
/// "jobs=1 and jobs=8 agree under injected faults" guarantee.
pub fn try_run_batch_supervised(points: Vec<EvalPoint>) -> Vec<Result<RunReport, EvalError>> {
    let mut span = mc_trace::span("launcher.batch");
    span.field("points", points.len() as u64);
    span.field("jobs", mc_exec::jobs() as u64);
    let base_index = mc_guard::reserve_indices(points.len());
    // One fingerprint per distinct program allocation, not per point.
    let mut fingerprints: HashMap<*const Program, u64> = HashMap::new();
    let prepared: Vec<(u64, u64, EvalPoint)> = points
        .into_iter()
        .enumerate()
        .map(|(i, point)| {
            let fp = *fingerprints
                .entry(Arc::as_ptr(&point.program))
                .or_insert_with(|| program_fingerprint(&point.program));
            (base_index + i as u64, fp, point)
        })
        .collect();
    let results = mc_exec::engine().run(prepared, |(index, program_fp, point)| {
        let EvalPoint { program, options } = point;
        let key = (program_fp, options.fingerprint());
        let label = program.name.clone();
        mc_guard::supervise(index, &label, move || {
            let store = crate::store::store();
            let mut computed = false;
            let report = eval_cache().get_or_try_compute(key, || {
                computed = true;
                // Second tier: a record persisted by an earlier process
                // answers without touching the simulator.
                let stored = store.as_ref().map(|store| (store, crate::store::eval_key(key)));
                if let Some(report) = stored
                    .as_ref()
                    .and_then(|(store, store_key)| store.load(crate::store::EVAL_KIND, store_key))
                    .and_then(|payload| crate::store::decode_report(&payload))
                {
                    return Ok(report);
                }
                // Only an evaluation clones the options.
                let report = MicroLauncher::new(LauncherOptions::clone(&options))
                    .run_fingerprinted(&KernelInput::program(program.clone()), program_fp)?;
                if let Some((store, store_key)) = &stored {
                    let payload = crate::store::encode_report(&report);
                    store.save(crate::store::EVAL_KIND, store_key, &payload);
                }
                Ok(report)
            });
            // Progress counts evaluation-memo lookups only; a disabled
            // memo computes without a lookup, so it counts neither.
            if !computed {
                mc_trace::progress_cache_hit();
                if let Some(store) = &store {
                    store.note_mem_hit();
                }
            } else if report.is_ok() && eval_cache().is_enabled() {
                mc_trace::progress_cache_miss();
            }
            report
        })
    });
    // One fsync per batch makes every record it saved durable.
    if let Some(store) = crate::store::store() {
        store.sync();
    }
    results
}

/// Evaluates every point, keeping per-point failures as strings:
/// `results[i]` corresponds to `points[i]`. Failures are not cached.
pub fn try_run_batch(points: Vec<EvalPoint>) -> Vec<Result<RunReport, String>> {
    try_run_batch_supervised(points)
        .into_iter()
        .map(|result| result.map_err(|error| error.to_string()))
        .collect()
}

/// Evaluates every point, failing on the first error (in submission
/// order, so the reported error is deterministic too).
pub fn run_batch(points: Vec<EvalPoint>) -> Result<Vec<RunReport>, String> {
    try_run_batch(points).into_iter().collect()
}

impl MicroLauncher {
    /// Evaluates a batch of programs under this launcher's options,
    /// fanned across the process-wide evaluation engine. `results[i]`
    /// corresponds to `programs[i]`.
    pub fn run_batch(&self, programs: &[Arc<Program>]) -> Result<Vec<RunReport>, String> {
        let base = Arc::new(self.options().clone());
        run_batch(programs.iter().map(|p| EvalPoint::new(p.clone(), base.clone())).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_creator::MicroCreator;
    use mc_kernel::builder::load_stream;

    fn movaps_program(unroll: u32) -> Arc<Program> {
        let desc = load_stream(mc_asm::Mnemonic::Movaps, unroll, unroll);
        Arc::new(MicroCreator::new().generate(&desc).unwrap().programs.remove(0))
    }

    fn opts() -> LauncherOptions {
        LauncherOptions { repetitions: 4, meta_repetitions: 3, ..LauncherOptions::default() }
    }

    #[test]
    fn batch_matches_serial_runs_exactly() {
        let programs: Vec<Arc<Program>> = (1..=8).map(movaps_program).collect();
        let launcher = MicroLauncher::new(opts());
        let serial: Vec<RunReport> = programs
            .iter()
            .map(|p| launcher.run(&KernelInput::program(p.clone())).unwrap())
            .collect();
        let batched = launcher.run_batch(&programs).unwrap();
        assert_eq!(serial, batched);
    }

    #[test]
    fn options_take_effect_per_point() {
        use mc_simarch::config::Level;
        let program = movaps_program(8);
        let at = |level| Arc::new(LauncherOptions { residence: Some(level), ..opts() });
        let points = vec![
            EvalPoint::new(program.clone(), at(Level::L1)),
            EvalPoint::new(program.clone(), at(Level::Ram)),
        ];
        let reports = run_batch(points).unwrap();
        assert_eq!(reports[0].residence, Some(Level::L1));
        assert_eq!(reports[1].residence, Some(Level::Ram));
        assert!(reports[1].cycles_per_iteration > reports[0].cycles_per_iteration);
    }

    #[test]
    fn identical_points_agree_through_the_cache() {
        // The cache and its stats are process-global and other tests run
        // concurrently, so this asserts result equality only; hit/miss
        // accounting is covered by the serialized integration tests.
        let program = movaps_program(4);
        let base = Arc::new(opts());
        let points: Vec<EvalPoint> =
            (0..6).map(|_| EvalPoint::new(program.clone(), base.clone())).collect();
        let reports = run_batch(points).unwrap();
        for r in &reports[1..] {
            assert_eq!(r, &reports[0]);
        }
    }

    #[test]
    fn fixed_and_adaptive_queries_never_share_a_cache_entry() {
        // The memo key hashes the full option surface, so the adaptive
        // toggle and its bounds separate cache entries: a fixed-mode
        // result (meta_repetitions samples) must never answer an adaptive
        // query (which settles at min_samples on the quiet simulator).
        let program = movaps_program(4);
        let fixed_base = Arc::new(opts());
        let adaptive_base =
            Arc::new(LauncherOptions { adaptive: true, min_samples: 2, max_samples: 8, ..opts() });
        let reports = run_batch(vec![
            EvalPoint::new(program.clone(), fixed_base.clone()),
            EvalPoint::new(program.clone(), adaptive_base.clone()),
            EvalPoint::new(program.clone(), fixed_base.clone()),
        ])
        .unwrap();
        assert_eq!(reports[0].samples_used, 3, "fixed mode pays the full budget");
        assert!(!reports[0].adaptive);
        assert_eq!(reports[1].samples_used, 2, "adaptive answer came from a fixed entry");
        assert!(reports[1].adaptive);
        assert_eq!(reports[2], reports[0]);
        assert_eq!(
            reports[0].cycles_per_iteration, reports[1].cycles_per_iteration,
            "policies disagree only in sampling, not in the reported cycles"
        );
    }

    #[test]
    fn per_point_errors_stay_per_point() {
        let good = movaps_program(2);
        let base = Arc::new(opts());
        let results = try_run_batch(vec![
            EvalPoint::new(good.clone(), base.clone()),
            EvalPoint::new(good, Arc::new(LauncherOptions { trip_count: 3, ..opts() })),
        ]);
        assert!(results[0].is_ok());
        // The second point either errors or reports a failed verification;
        // either way it must not poison the first.
        if let Ok(report) = &results[1] {
            assert!(report.verify.is_some());
        }
    }
}
