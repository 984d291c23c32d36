//! Study drivers: the parameter sweeps behind the paper's figures.
//!
//! Each driver wraps [`crate::MicroLauncher`] runs over one swept
//! parameter and returns [`mc_report::Series`] data ready for plotting and
//! shape checking. The `mc-bench` harness composes these into the exact
//! figures.

use crate::batch::{run_batch, EvalPoint};
use crate::options::{LauncherOptions, Mode};
use mc_creator::MicroCreator;
use mc_exec::MemoCache;
use mc_kernel::{KernelDesc, Program};
use mc_report::series::Series;
use mc_simarch::align::alignment_grid;
use mc_simarch::config::Level;
use std::sync::{Arc, OnceLock};

/// The process-wide generation cache: figure drivers sweep the same
/// `KernelDesc` several times (e.g. a frequency sweep and a core sweep on
/// one kernel); generating once and sharing the programs by `Arc` keeps
/// MicroCreator off the sweep hot path. Keyed by the description's
/// structural fingerprint (FNV-1a over its derived `Hash`), so two
/// spellings of one kernel share an entry; all entries use
/// MicroCreator's default configuration.
fn generation_cache() -> &'static MemoCache<u64, Arc<Vec<Arc<Program>>>> {
    static CACHE: OnceLock<MemoCache<u64, Arc<Vec<Arc<Program>>>>> = OnceLock::new();
    CACHE.get_or_init(|| MemoCache::new("exec.gen"))
}

/// Bumped whenever the bytes a description key hashes change shape.
const DESC_KEY_VERSION: u64 = 2;

/// Drops every memoized generation (the in-memory tier only; persisted
/// store records survive). Tests use this to simulate a fresh process.
pub fn clear_generation_cache() {
    generation_cache().clear();
}

/// Generates all programs for a description once per process, shared via
/// `Arc` (default MicroCreator configuration). With a persistent store
/// installed, generation also checks the disk tier — a set persisted by
/// an earlier process is reparsed instead of regenerated, and fresh sets
/// are written back (only when they provably round-trip, because the
/// evaluation keys hash the programs themselves).
pub fn generate_shared(desc: &KernelDesc) -> Result<Arc<Vec<Arc<Program>>>, String> {
    let key = mc_report::Fnv64::new().u64(DESC_KEY_VERSION).hashed(desc).finish();
    let store = crate::store::store();
    let mut computed = false;
    let programs = generation_cache().get_or_try_compute(key, || {
        computed = true;
        if let Some(store) = &store {
            let store_key = crate::store::gen_key(key);
            if let Some(programs) = store
                .load(crate::store::GEN_KIND, &store_key)
                .and_then(|payload| crate::store::decode_programs(&payload))
            {
                return Ok(Arc::new(programs));
            }
            let programs: Vec<Arc<Program>> = MicroCreator::new()
                .generate(desc)
                .map(|r| r.programs.into_iter().map(Arc::new).collect())
                .map_err(|e| e.to_string())?;
            if let Some(payload) = crate::store::encode_programs(&programs) {
                store.save(crate::store::GEN_KIND, &store_key, &payload);
            }
            return Ok(Arc::new(programs));
        }
        MicroCreator::new()
            .generate(desc)
            .map(|r| Arc::new(r.programs.into_iter().map(Arc::new).collect::<Vec<_>>()))
            .map_err(|e| e.to_string())
    });
    if !computed {
        if let Some(store) = &store {
            store.note_mem_hit();
        }
    }
    programs
}

/// One shared program per unroll factor (taking the pure-load variant
/// when operand swaps produce several).
pub fn programs_by_unroll_shared(desc: &KernelDesc) -> Result<Vec<Arc<Program>>, String> {
    let all = generate_shared(desc)?;
    let mut out: Vec<Arc<Program>> = Vec::new();
    for unroll in desc.unrolling.factors() {
        let p = all
            .iter()
            .filter(|p| p.meta.unroll == unroll)
            .max_by_key(|p| p.load_count())
            .ok_or_else(|| format!("no program at unroll {unroll}"))?;
        out.push(p.clone());
    }
    Ok(out)
}

/// Generates one program per unroll factor from a description (taking the
/// pure-load variant when operand swaps produce several). Owned-value
/// compatibility wrapper over [`programs_by_unroll_shared`].
pub fn programs_by_unroll(desc: &KernelDesc) -> Result<Vec<Program>, String> {
    Ok(programs_by_unroll_shared(desc)?.into_iter().map(|p| (*p).clone()).collect())
}

/// Cycles-per-iteration across unroll factors, one series per memory
/// hierarchy level (Figures 11/12 when divided by the instruction count).
pub fn unroll_by_level_sweep(
    base: &LauncherOptions,
    desc: &KernelDesc,
    levels: &[Level],
    per_instruction: bool,
) -> Result<Vec<Series>, String> {
    let mut sweep_span = mc_trace::span("launcher.sweep");
    sweep_span.field("sweep", "unroll_by_level");
    sweep_span.field("levels", levels.len() as u64);
    let programs = programs_by_unroll_shared(desc)?;
    sweep_span.field("programs", programs.len() as u64);
    let mut points = Vec::with_capacity(levels.len() * programs.len());
    for &level in levels {
        let options = Arc::new(LauncherOptions { residence: Some(level), ..base.clone() });
        points.extend(programs.iter().map(|p| EvalPoint::new(p.clone(), options.clone())));
    }
    let reports = run_batch(points)?;
    let mut series = Vec::with_capacity(levels.len());
    for (li, &level) in levels.iter().enumerate() {
        let points = programs
            .iter()
            .enumerate()
            .map(|(pi, p)| {
                let report = &reports[li * programs.len() + pi];
                let denom = if per_instruction {
                    (p.load_count() + p.store_count()).max(1) as f64
                } else {
                    1.0
                };
                (f64::from(p.meta.unroll), report.cycles_per_iteration / denom)
            })
            .collect();
        series.push(Series::new(level.name(), points));
    }
    Ok(series)
}

/// Reference cycles per memory instruction across core frequencies, one
/// series per hierarchy level (Figure 13).
pub fn frequency_sweep(
    base: &LauncherOptions,
    program: &Arc<Program>,
    levels: &[Level],
) -> Result<Vec<Series>, String> {
    let mut sweep_span = mc_trace::span("launcher.sweep");
    sweep_span.field("sweep", "frequency");
    sweep_span.field("levels", levels.len() as u64);
    let steps = &base.machine.config().frequency_steps_ghz;
    sweep_span.field("steps", steps.len() as u64);
    let denom = (program.load_count() + program.store_count()).max(1) as f64;
    let mut eval_points = Vec::with_capacity(levels.len() * steps.len());
    for &level in levels {
        for &frequency_ghz in steps {
            let options = LauncherOptions { residence: Some(level), frequency_ghz, ..base.clone() };
            eval_points.push(EvalPoint::new(program.clone(), Arc::new(options)));
        }
    }
    let reports = run_batch(eval_points)?;
    let mut series = Vec::with_capacity(levels.len());
    for (li, &level) in levels.iter().enumerate() {
        let points = steps
            .iter()
            .enumerate()
            .map(|(si, &ghz)| (ghz, reports[li * steps.len() + si].cycles_per_iteration / denom))
            .collect();
        series.push(Series::new(level.name(), points));
    }
    Ok(series)
}

/// Cycles per iteration as the fork-mode core count grows (Figure 14).
pub fn core_sweep(
    base: &LauncherOptions,
    program: &Arc<Program>,
    max_cores: u32,
) -> Result<Series, String> {
    let mut sweep_span = mc_trace::span("launcher.sweep");
    sweep_span.field("sweep", "cores");
    sweep_span.field("max_cores", u64::from(max_cores));
    let eval_points = (1..=max_cores)
        .map(|cores| {
            let options = LauncherOptions { mode: Mode::Fork, cores, ..base.clone() };
            EvalPoint::new(program.clone(), Arc::new(options))
        })
        .collect();
    let reports = run_batch(eval_points)?;
    let points = reports
        .iter()
        .zip(1..=max_cores)
        .map(|(report, cores)| (f64::from(cores), report.cycles_per_iteration))
        .collect();
    Ok(Series::new(format!("{} fork", program.name), points))
}

/// One measured alignment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignmentPoint {
    /// Per-array offsets.
    pub offsets: Vec<u64>,
    /// Measured cycles per iteration.
    pub cycles_per_iteration: f64,
}

/// Sweeps alignment configurations (Figures 4, 15, 16): every combination
/// of per-array offsets `0..=max_offset` step `step`.
pub fn alignment_sweep(
    base: &LauncherOptions,
    program: &Arc<Program>,
    step: u64,
    max_offset: u64,
) -> Result<Vec<AlignmentPoint>, String> {
    let mut sweep_span = mc_trace::span("launcher.sweep");
    sweep_span.field("sweep", "alignment");
    let grid = alignment_grid(program.nb_arrays as usize, step, max_offset);
    sweep_span.field("configs", grid.len() as u64);
    alignment_batch(base, program, grid)
}

/// Shared tail of the alignment sweeps: one shared program, one option
/// set per grid configuration. Verification is O(configs) here; one pass
/// outside suffices, so every point disables it.
fn alignment_batch(
    base: &LauncherOptions,
    program: &Arc<Program>,
    configs: Vec<Vec<u64>>,
) -> Result<Vec<AlignmentPoint>, String> {
    let eval_points = configs
        .iter()
        .map(|offsets| {
            let options =
                LauncherOptions { alignments: offsets.clone(), verify: false, ..base.clone() };
            EvalPoint::new(program.clone(), Arc::new(options))
        })
        .collect();
    let reports = run_batch(eval_points)?;
    Ok(configs
        .into_iter()
        .zip(reports)
        .map(|(offsets, report)| AlignmentPoint {
            offsets,
            cycles_per_iteration: report.cycles_per_iteration,
        })
        .collect())
}

/// Randomly samples alignment configurations instead of the full grid —
/// needed when the grid explodes (8 arrays × 8 offsets = 16.7M configs;
/// the paper's Figure 15 study reports "upwards of 2500" tested
/// configurations). Sampling is seeded and deterministic, and always
/// includes the all-zero (worst) and evenly-spread (best) corners.
pub fn alignment_sweep_sampled(
    base: &LauncherOptions,
    program: &Arc<Program>,
    step: u64,
    max_offset: u64,
    samples: usize,
    seed: u64,
) -> Result<Vec<AlignmentPoint>, String> {
    let mut sweep_span = mc_trace::span("launcher.sweep");
    sweep_span.field("sweep", "alignment_sampled");
    sweep_span.field("configs", samples as u64);
    let n_arrays = program.nb_arrays as usize;
    let n_offsets = max_offset / step + 1;
    let mut rng = mc_report::SplitMix64::seed_from_u64(seed);
    let mut configs: Vec<Vec<u64>> = Vec::with_capacity(samples);
    configs.push(vec![0; n_arrays]);
    configs.push((0..n_arrays as u64).map(|i| (i % n_offsets) * step).collect());
    while configs.len() < samples {
        configs.push((0..n_arrays).map(|_| rng.gen_range(0..n_offsets) * step).collect());
    }
    // The sampled configurations are fixed (seeded) before batch
    // submission, so the worker count never changes which points run.
    alignment_batch(base, program, configs)
}

/// Converts alignment points to a Series over the configuration index.
pub fn alignment_series(label: &str, points: &[AlignmentPoint]) -> Series {
    Series::new(
        label,
        points.iter().enumerate().map(|(i, p)| (i as f64, p.cycles_per_iteration)).collect(),
    )
}

/// Sequential-vs-OpenMP unroll sweep (Figures 17/18, Table 2). Returns
/// `(sequential, openmp)` series of cycles per iteration, plus total
/// wall-clock seconds for `invocations` repeated calls (Table 2's
/// "execution time of the benchmark program").
pub fn openmp_comparison(
    base: &LauncherOptions,
    desc: &KernelDesc,
    elements: u64,
    threads: u32,
    invocations: u64,
) -> Result<OmpComparison, String> {
    let mut sweep_span = mc_trace::span("launcher.sweep");
    sweep_span.field("sweep", "openmp_comparison");
    sweep_span.field("threads", u64::from(threads));
    let programs = programs_by_unroll_shared(desc)?;
    sweep_span.field("programs", programs.len() as u64);
    let vector_bytes = elements * u64::from(desc.element_bytes.max(1));
    // Two points per program, interleaved [seq, omp, seq, omp, …].
    let mut eval_points = Vec::with_capacity(programs.len() * 2);
    for p in &programs {
        let epi = p.elements_per_iteration.max(1);
        let trip_count = (elements / epi).max(1) * epi;
        let seq = LauncherOptions { vector_bytes, trip_count, ..base.clone() };
        let omp = LauncherOptions { mode: Mode::OpenMp, omp_threads: threads, ..seq.clone() };
        eval_points.push(EvalPoint::new(p.clone(), Arc::new(seq)));
        eval_points.push(EvalPoint::new(p.clone(), Arc::new(omp)));
    }
    let reports = run_batch(eval_points)?;
    let mut seq_points = Vec::new();
    let mut omp_points = Vec::new();
    let mut seq_seconds = Vec::new();
    let mut omp_seconds = Vec::new();
    for (i, p) in programs.iter().enumerate() {
        let epi = p.elements_per_iteration.max(1);
        let trip = (elements / epi).max(1) * epi;
        let (seq, omp) = (&reports[2 * i], &reports[2 * i + 1]);
        let x = f64::from(p.meta.unroll);
        // Per-element normalization keeps unroll factors comparable (an
        // iteration of the u8 kernel does 8× the work of the u1 kernel).
        seq_points.push((x, seq.cycles_per_iteration / epi as f64));
        omp_points.push((x, omp.cycles_per_iteration / epi as f64));
        let iterations = trip / epi;
        let machine_ghz = base.machine.config().nominal_ghz;
        let seq_invocation = seq.cycles_per_iteration * iterations as f64 / (machine_ghz * 1e9);
        let omp_invocation = omp
            .region_seconds
            .unwrap_or(omp.cycles_per_iteration * iterations as f64 / (machine_ghz * 1e9));
        seq_seconds.push((x, seq_invocation * invocations as f64));
        omp_seconds.push((x, omp_invocation * invocations as f64));
    }
    Ok(OmpComparison {
        sequential: Series::new("Sequential", seq_points),
        openmp: Series::new("OpenMP", omp_points),
        sequential_seconds: Series::new("Seq. time (s)", seq_seconds),
        openmp_seconds: Series::new("OpenMP time (s)", omp_seconds),
    })
}

/// The four series of an OpenMP study.
#[derive(Debug, Clone, PartialEq)]
pub struct OmpComparison {
    /// Sequential cycles per element vs unroll.
    pub sequential: Series,
    /// OpenMP cycles per element vs unroll.
    pub openmp: Series,
    /// Sequential total seconds vs unroll (Table 2 column).
    pub sequential_seconds: Series,
    /// OpenMP total seconds vs unroll (Table 2 column).
    pub openmp_seconds: Series,
}

/// Arithmetic-hiding study (§3.5): cycles per iteration of a memory stream
/// as independent FP additions are piled on. Returns the series plus the
/// largest arithmetic count that stays within `tolerance` of the bare
/// stream — the "hidden" instruction budget.
pub fn arithmetic_hiding_sweep(
    base: &LauncherOptions,
    mem_mnemonic: mc_asm::Mnemonic,
    max_arith: u32,
    level: Level,
    tolerance: f64,
) -> Result<(Series, u32), String> {
    let mut sweep_span = mc_trace::span("launcher.sweep");
    sweep_span.field("sweep", "arithmetic_hiding");
    sweep_span.field("configs", u64::from(max_arith) + 1);
    let options = Arc::new(LauncherOptions { residence: Some(level), ..base.clone() });
    let mut eval_points = Vec::with_capacity(max_arith as usize + 1);
    for k in 0..=max_arith {
        let desc = mc_kernel::builder::try_arithmetic_hiding(mem_mnemonic, k)
            .map_err(|e| e.to_string())?;
        let program = generate_shared(&desc)?
            .first()
            .cloned()
            .ok_or_else(|| "arithmetic_hiding produced no programs".to_owned())?;
        eval_points.push(EvalPoint::new(program, options.clone()));
    }
    let reports = run_batch(eval_points)?;
    let points: Vec<(f64, f64)> = reports
        .iter()
        .enumerate()
        .map(|(k, report)| (k as f64, report.cycles_per_iteration))
        .collect();
    let baseline = points[0].1;
    let hidden = points
        .iter()
        .take_while(|(_, c)| *c <= baseline * (1.0 + tolerance))
        .count()
        .saturating_sub(1) as u32;
    Ok((
        Series::new(format!("{} + k·addps ({})", mem_mnemonic.name(), level.name()), points),
        hidden,
    ))
}

/// Stride study (§3.5): cycles per access as the stream stride grows —
/// the prefetcher cliff. Returns `(stride_bytes, cycles_per_access)`.
pub fn stride_sweep(
    base: &LauncherOptions,
    mnemonic: mc_asm::Mnemonic,
    element_strides: &[i64],
    level: Level,
) -> Result<Series, String> {
    let mut sweep_span = mc_trace::span("launcher.sweep");
    sweep_span.field("sweep", "stride");
    sweep_span.field("configs", element_strides.len() as u64);
    let desc = mc_kernel::builder::try_strided_stream(mnemonic, element_strides)
        .map_err(|e| e.to_string())?;
    let programs = generate_shared(&desc)?;
    let options = Arc::new(LauncherOptions { residence: Some(level), ..base.clone() });
    let eval_points = programs.iter().map(|p| EvalPoint::new(p.clone(), options.clone())).collect();
    let reports = run_batch(eval_points)?;
    let mut points: Vec<(f64, f64)> = programs
        .iter()
        .zip(&reports)
        .map(|(program, report)| {
            let stride = program.meta.strides.first().copied().unwrap_or(1).unsigned_abs();
            (stride as f64, report.cycles_per_iteration)
        })
        .collect();
    points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite strides"));
    Ok(Series::new(format!("{} stride sweep ({})", mnemonic.name(), level.name()), points))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::MachinePreset;
    use mc_asm::inst::Mnemonic;
    use mc_kernel::builder::{load_stream, multi_array_traversal};

    fn opts() -> LauncherOptions {
        LauncherOptions { meta_repetitions: 3, repetitions: 4, ..LauncherOptions::default() }
    }

    #[test]
    fn programs_by_unroll_covers_range() {
        let desc = load_stream(Mnemonic::Movaps, 1, 8);
        let ps = programs_by_unroll(&desc).unwrap();
        assert_eq!(ps.len(), 8);
        for (i, p) in ps.iter().enumerate() {
            assert_eq!(p.meta.unroll, i as u32 + 1);
            assert_eq!(p.load_count(), i + 1, "pure-load variant selected");
        }
    }

    #[test]
    fn unroll_sweep_orders_hierarchy() {
        let desc = load_stream(Mnemonic::Movaps, 1, 8);
        let series = unroll_by_level_sweep(&opts(), &desc, &Level::ALL, true).unwrap();
        assert_eq!(series.len(), 4);
        // At unroll 8 the levels are strictly ordered.
        let at_u8: Vec<f64> = series.iter().map(|s| s.points[7].1).collect();
        for w in at_u8.windows(2) {
            assert!(w[0] < w[1], "hierarchy ordering violated: {at_u8:?}");
        }
        // Unrolling amortizes: cycles/load at u8 ≤ u1 for every level.
        for s in &series {
            assert!(s.points[7].1 <= s.points[0].1, "{}: {:?}", s.label, s.points);
        }
    }

    #[test]
    fn frequency_sweep_scales_l1_not_ram() {
        let desc = load_stream(Mnemonic::Movaps, 8, 8);
        let p = programs_by_unroll_shared(&desc).unwrap().remove(0);
        let series = frequency_sweep(&opts(), &p, &[Level::L1, Level::Ram]).unwrap();
        let l1 = &series[0];
        let ram = &series[1];
        assert!(l1.points.first().unwrap().1 > l1.points.last().unwrap().1 * 1.4);
        assert!(ram.is_flat(0.05), "RAM series should be flat: {:?}", ram.points);
    }

    #[test]
    fn core_sweep_has_knee() {
        let desc = load_stream(Mnemonic::Movaps, 8, 8);
        let p = programs_by_unroll_shared(&desc).unwrap().remove(0);
        let mut o = opts();
        o.residence = Some(Level::Ram);
        let series = core_sweep(&o, &p, 12).unwrap();
        assert_eq!(series.points.len(), 12);
        let knee = mc_report::experiments::knee_x(&series, 1.1);
        assert!(matches!(knee, Some(x) if (5.0..=9.0).contains(&x)), "knee at {knee:?}");
    }

    #[test]
    fn alignment_sweep_produces_spread_on_multi_arrays() {
        let desc = multi_array_traversal(Mnemonic::Movss, 4);
        let p = Arc::new(MicroCreator::new().generate(&desc).unwrap().programs.remove(0));
        let mut o = opts();
        o.machine = MachinePreset::NehalemX7550;
        o.mode = Mode::Fork;
        o.cores = 8;
        o.residence = Some(Level::Ram);
        let points = alignment_sweep(&o, &p, 1024, 3072).unwrap();
        assert_eq!(points.len(), 256, "4 arrays × 4 offsets");
        let series = alignment_series("fig15", &points);
        let ys = series.ys();
        let (min, max) =
            ys.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &y| (lo.min(y), hi.max(y)));
        assert!(max / min > 1.2, "alignment spread too small: {min}..{max}");
    }

    #[test]
    fn ram_streams_hide_arithmetic_l1_streams_do_not() {
        // From RAM, several additions ride free under the memory latency;
        // from L1 the port pressure shows immediately.
        let (ram_series, ram_hidden) =
            arithmetic_hiding_sweep(&opts(), Mnemonic::Movaps, 10, Level::Ram, 0.02).unwrap();
        let (_, l1_hidden) =
            arithmetic_hiding_sweep(&opts(), Mnemonic::Movaps, 10, Level::L1, 0.02).unwrap();
        assert!(ram_hidden >= 4, "RAM should hide ≥4 addps, hid {ram_hidden}");
        assert!(ram_hidden > l1_hidden, "RAM hides more than L1: {ram_hidden} vs {l1_hidden}");
        // Past the hidden budget the cost grows.
        let last = ram_series.points.last().unwrap().1;
        let first = ram_series.points[0].1;
        assert!(last > first, "eventually arithmetic dominates: {first} → {last}");
    }

    #[test]
    fn stride_sweep_shows_prefetch_cliff() {
        // Unit-stride streaming is bandwidth-bound; page-stride accesses
        // defeat the prefetcher and pay latency per access.
        let series =
            stride_sweep(&opts(), Mnemonic::Movss, &[1, 2, 4, 16, 64, 1024], Level::Ram).unwrap();
        assert_eq!(series.points.len(), 6);
        let unit = series.points[0].1;
        let page = series.points.last().unwrap().1;
        assert!(page > unit * 2.0, "page stride {page} vs unit {unit}");
        assert!(series.is_non_decreasing(0.01), "{:?}", series.points);
    }

    #[test]
    fn openmp_comparison_shapes() {
        let desc = load_stream(Mnemonic::Movss, 1, 8);
        let mut o = opts();
        o.machine = MachinePreset::SandyBridgeE31240;
        let cmp = openmp_comparison(&o, &desc, 128 * 1024, 4, 1000).unwrap();
        // Sequential improves with unrolling…
        let seq_gain = cmp.sequential.points[0].1 / cmp.sequential.points[7].1;
        assert!(seq_gain > 1.15, "sequential unroll gain {seq_gain}");
        // …OpenMP barely moves (bandwidth + overhead bound).
        let omp_gain = cmp.openmp.points[0].1 / cmp.openmp.points[7].1;
        assert!(omp_gain < seq_gain, "OpenMP should gain less: {omp_gain} vs {seq_gain}");
        // And OpenMP is faster in absolute terms at this size.
        assert!(cmp.openmp.points[0].1 < cmp.sequential.points[0].1);
        // Seconds columns exist for Table 2.
        assert_eq!(cmp.sequential_seconds.points.len(), 8);
    }
}
