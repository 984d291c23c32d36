//! Figure 11: average cycles per load/store using `movaps` across unroll
//! factors and memory-hierarchy levels (X5650).
//!
//! Shape claims (§5.1): unrolling amortizes overhead at every level; the
//! levels order L1 < L2 < L3 < RAM; `movapd` behaves identically to
//! `movaps`; at unroll 8 the vectorized L3 stream runs below two cycles
//! per load.

use super::FigureResult;
use mc_asm::inst::Mnemonic;
use mc_kernel::builder::load_stream;
use mc_launcher::sweeps::unroll_by_level_sweep;
use mc_launcher::{Ctx, LauncherOptions};
use mc_report::experiments::{check_ordered, ExperimentId, ShapeCheck};
use mc_simarch::config::Level;

/// Runs the movaps sweep.
pub fn run(ctx: &Ctx, base: &LauncherOptions) -> Result<FigureResult, String> {
    let mut result = FigureResult::new(
        ExperimentId::Fig11,
        "Figure 11: cycles per movaps load vs unroll factor and hierarchy level (X5650)",
    );
    let desc = load_stream(Mnemonic::Movaps, 1, 8);
    let series = unroll_by_level_sweep(ctx, base, &desc, &Level::ALL, true)?;

    result.outcome.push(check_ordered(
        "hierarchy ordering L1 < L2 < L3 < RAM",
        &series.iter().collect::<Vec<_>>(),
    ));
    for s in &series {
        result.outcome.push(ShapeCheck::new(
            format!("{}: unrolling never hurts", s.label),
            s.is_non_increasing(0.01),
            format!("{:?}", s.ys().iter().map(|y| (y * 100.0).round() / 100.0).collect::<Vec<_>>()),
        ));
    }
    let l3_u8 = series[2].points[7].1;
    result.outcome.push(ShapeCheck::new(
        "L3 at unroll 8 below two cycles per load (§5.1)",
        l3_u8 < 2.0,
        format!("{l3_u8:.2} cycles/load"),
    ));
    // movapd must be indistinguishable ("The movapd figures are the same
    // as their movaps counterparts").
    let apd =
        unroll_by_level_sweep(ctx, base, &load_stream(Mnemonic::Movapd, 1, 8), &Level::ALL, true)?;
    let identical = series
        .iter()
        .zip(&apd)
        .all(|(a, b)| a.points.iter().zip(&b.points).all(|(p, q)| (p.1 - q.1).abs() < 1e-9));
    result.outcome.push(ShapeCheck::new(
        "movapd series identical to movaps",
        identical,
        "per-point equality".to_owned(),
    ));
    result.notes.push(format!(
        "u8 cycles/load: L1 {:.2}, L2 {:.2}, L3 {:.2}, RAM {:.2} \
         (paper: ≈1 in L1, <2 in L3, RAM highest)",
        series[0].points[7].1, series[1].points[7].1, series[2].points[7].1, series[3].points[7].1
    ));
    result.series = series;
    Ok(result)
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig11_passes() {
        let r = super::run(&mc_launcher::Ctx::default(), &crate::figures::quick_options()).unwrap();
        assert!(r.outcome.passed(), "{}", r.outcome.render());
        assert_eq!(r.series.len(), 4);
    }
}
