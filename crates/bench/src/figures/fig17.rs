//! Figure 17: sequential vs OpenMP unrolled movss loads, 128k elements.
//!
//! "Figures 17 and 18 show the number of cycles per iteration of a program
//! using movss instructions. … Comparing the minimum and maximum values
//! obtained across ten runs shows the stability of the results. … the
//! OpenMP ones have a logarithmic scale." (§5.2.3) At 128k floats the
//! OpenMP version wins clearly and stays flat across unroll factors while
//! the sequential version improves.

use super::FigureResult;
use mc_asm::inst::Mnemonic;
use mc_kernel::builder::load_stream;
use mc_launcher::options::{MachinePreset, Mode};
use mc_launcher::sweeps::programs_by_unroll_shared;
use mc_launcher::{Ctx, EvalPoint, LauncherOptions};
use mc_report::experiments::{ExperimentId, ShapeCheck, ShapeOutcome};
use mc_report::series::{Scale, Series};
use std::sync::Arc;

/// Elements in the traversed array.
pub const ELEMENTS: u64 = 128 * 1024;

/// Builds the four series (seq/omp × min/max over ten noisy runs).
pub fn series_for(ctx: &Ctx, base: &LauncherOptions, elements: u64) -> Result<Vec<Series>, String> {
    let programs = programs_by_unroll_shared(ctx, &load_stream(Mnemonic::Movss, 1, 8))?;
    let base = LauncherOptions {
        machine: MachinePreset::SandyBridgeE31240,
        vector_bytes: elements * 4,
        // Ten outer experiments with mild environmental noise: the min/max
        // band demonstrates the stability the paper reports.
        meta_repetitions: 10,
        noise_amplitude: 0.04,
        ..base.clone()
    };
    // Two points per program, interleaved [seq, omp, seq, omp, …].
    let mut eval_points = Vec::with_capacity(programs.len() * 2);
    for p in &programs {
        let epi = p.elements_per_iteration.max(1);
        let seq = LauncherOptions { trip_count: (elements / epi).max(1) * epi, ..base.clone() };
        let omp = LauncherOptions { mode: Mode::OpenMp, omp_threads: 4, ..seq.clone() };
        eval_points.push(EvalPoint::new(p.clone(), Arc::new(seq)));
        eval_points.push(EvalPoint::new(p.clone(), Arc::new(omp)));
    }
    let reports = ctx.run_batch(eval_points)?;
    let mut seq_min = Vec::new();
    let mut seq_max = Vec::new();
    let mut omp_min = Vec::new();
    let mut omp_max = Vec::new();
    for (i, p) in programs.iter().enumerate() {
        let x = f64::from(p.meta.unroll);
        let epi = p.elements_per_iteration.max(1) as f64;
        let (seq, omp) = (&reports[2 * i], &reports[2 * i + 1]);
        seq_min.push((x, seq.summary.min / epi));
        seq_max.push((x, seq.summary.max / epi));
        omp_min.push((x, omp.summary.min / epi));
        omp_max.push((x, omp.summary.max / epi));
    }
    Ok(vec![
        Series::new("Sequential min", seq_min),
        Series::new("Sequential max", seq_max),
        Series::new("OpenMP min", omp_min),
        Series::new("OpenMP max", omp_max),
    ])
}

/// Applies the Figure 17/18 shape checks shared by both sizes.
pub fn common_checks(outcome: &mut ShapeOutcome, series: &[Series], omp_flat_tol: f64) {
    let (seq_min, seq_max, omp_min, omp_max) = (&series[0], &series[1], &series[2], &series[3]);
    let seq_gain = seq_min.points[0].1 / seq_min.points[7].1;
    outcome.push(ShapeCheck::new(
        "sequential improves with unrolling",
        seq_gain > 1.15,
        format!("u1/u8 = {seq_gain:.2}"),
    ));
    outcome.push(ShapeCheck::new(
        "OpenMP is flat across unroll factors (parallel setup/bandwidth bound)",
        omp_min.is_flat(omp_flat_tol),
        format!(
            "{:?}",
            omp_min.ys().iter().map(|y| (y * 1000.0).round() / 1000.0).collect::<Vec<_>>()
        ),
    ));
    // OpenMP wins clearly wherever the sequential code is un- or mildly
    // unrolled; at unroll 8 the curves may meet (the sequential code has
    // amortized its overhead while the team is bandwidth-capped).
    let wins_low = omp_min.points.iter().zip(&seq_min.points).take(4).all(|(o, s)| o.1 < s.1);
    outcome.push(ShapeCheck::new(
        "OpenMP beats sequential at unroll ≤ 4",
        wins_low,
        format!(
            "omp u1 {:.3} vs seq u1 {:.3} cycles/element",
            omp_min.points[0].1, seq_min.points[0].1
        ),
    ));
    let u8_ratio = omp_min.points[7].1 / seq_min.points[7].1;
    outcome.push(ShapeCheck::new(
        "at unroll 8 OpenMP stays within 20% of sequential",
        u8_ratio < 1.20,
        format!("omp/seq at u8 = {u8_ratio:.2}"),
    ));
    // Stability: min and max across the ten runs stay close.
    for (lo, hi, label) in [(seq_min, seq_max, "sequential"), (omp_min, omp_max, "OpenMP")] {
        let worst = lo.points.iter().zip(&hi.points).map(|(l, h)| h.1 / l.1).fold(0.0f64, f64::max);
        outcome.push(ShapeCheck::new(
            format!("{label} min/max band is tight across ten runs"),
            worst < 1.10,
            format!("worst max/min = {worst:.3}"),
        ));
    }
}

/// Runs the 128k study.
pub fn run(ctx: &Ctx, base: &LauncherOptions) -> Result<FigureResult, String> {
    let mut result = FigureResult::new(
        ExperimentId::Fig17,
        "Figure 17: sequential vs OpenMP movss loads, 128k elements (E31240, log scale)",
    );
    result.scale = Scale::Log10;
    let series = series_for(ctx, base, ELEMENTS)?;
    common_checks(&mut result.outcome, &series, 0.15);
    let speedup = series[0].points[0].1 / series[2].points[0].1;
    result.notes.push(format!(
        "u1 OpenMP speedup {speedup:.1}× at 128k elements; OpenMP flat across unroll \
         (paper: OpenMP wins and is flat; sequential improves)"
    ));
    result.series = series;
    Ok(result)
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig17_passes() {
        let r = super::run(&mc_launcher::Ctx::default(), &crate::figures::quick_options()).unwrap();
        assert!(r.outcome.passed(), "{}", r.outcome.render());
        assert_eq!(r.series.len(), 4);
    }
}
