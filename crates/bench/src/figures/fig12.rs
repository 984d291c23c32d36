//! Figure 12: the `movss` counterpart of Figure 11.
//!
//! Shape claims (§5.1): same staircase as movaps but with cheaper
//! per-instruction memory cost (4 bytes vs 16); "the 8 unrolled case, the
//! movss cycle number per iteration is one cycle per load in L3"; movsd is
//! "similar … with slightly higher latencies because of the higher data
//! movement rate"; vectorized RAM accesses cost more per instruction than
//! scalar ones.

use super::FigureResult;
use mc_asm::inst::Mnemonic;
use mc_kernel::builder::load_stream;
use mc_launcher::sweeps::unroll_by_level_sweep;
use mc_launcher::{Ctx, LauncherOptions};
use mc_report::experiments::{ExperimentId, ShapeCheck};
use mc_simarch::config::Level;

/// Runs the movss sweep.
pub fn run(ctx: &Ctx, base: &LauncherOptions) -> Result<FigureResult, String> {
    let mut result = FigureResult::new(
        ExperimentId::Fig12,
        "Figure 12: cycles per movss load vs unroll factor and hierarchy level (X5650)",
    );
    let movss =
        unroll_by_level_sweep(ctx, base, &load_stream(Mnemonic::Movss, 1, 8), &Level::ALL, true)?;
    let movsd =
        unroll_by_level_sweep(ctx, base, &load_stream(Mnemonic::Movsd, 1, 8), &Level::ALL, true)?;
    let movaps =
        unroll_by_level_sweep(ctx, base, &load_stream(Mnemonic::Movaps, 1, 8), &Level::ALL, true)?;

    // Scalar 4-byte loads saturate the load port before any cache level's
    // bandwidth, so L1/L2/L3 converge (the paper itself reports 1 c/l in
    // L3 at unroll 8); only RAM must stand strictly above.
    let means: Vec<f64> =
        movss.iter().map(|s| s.ys().iter().sum::<f64>() / s.points.len() as f64).collect();
    let ordered =
        means.windows(2).all(|w| w[0] <= w[1] * (1.0 + 1e-3)) && means[3] > means[2] * 1.05;
    result.outcome.push(ShapeCheck::new(
        "hierarchy ordering L1 ≤ L2 ≤ L3 < RAM",
        ordered,
        format!("means {means:?}"),
    ));
    let l3_u8 = movss[2].points[7].1;
    result.outcome.push(ShapeCheck::new(
        "movss L3 at unroll 8 ≈ one cycle per load (§5.1)",
        (0.7..=1.4).contains(&l3_u8),
        format!("{l3_u8:.2} cycles/load"),
    ));
    // movsd RAM ≥ movss RAM (more data per instruction).
    let (ss_ram, sd_ram) = (movss[3].points[7].1, movsd[3].points[7].1);
    result.outcome.push(ShapeCheck::new(
        "movsd slightly above movss in RAM (higher data rate)",
        sd_ram >= ss_ram && sd_ram <= ss_ram * 3.0,
        format!("movsd {sd_ram:.2} vs movss {ss_ram:.2}"),
    ));
    // Vectorized RAM accesses pay for 4× the data per instruction…
    let aps_ram = movaps[3].points[7].1;
    result.outcome.push(ShapeCheck::new(
        "movaps RAM cycles/load exceed movss (4× the data)",
        aps_ram > 2.0 * ss_ram,
        format!("movaps {aps_ram:.2} vs movss {ss_ram:.2}"),
    ));
    // …but win per byte where bandwidth still has headroom: "Four movss
    // instructions are the same workload as the movaps version. Therefore,
    // the vectorized version is better since it executes at less than two
    // cycles per load" — an L3 comparison in the paper (§5.1).
    let (ss_l3, aps_l3) = (movss[2].points[7].1, movaps[2].points[7].1);
    result.outcome.push(ShapeCheck::new(
        "movaps beats 4× movss per byte in L3 (§5.1)",
        aps_l3 < 4.0 * ss_l3,
        format!("movaps {aps_l3:.2} < 4 × movss {ss_l3:.2}"),
    ));
    result.notes.push(format!(
        "movss u8 cycles/load: L1 {:.2}, L2 {:.2}, L3 {:.2}, RAM {:.2} (paper: 1 c/l in L3)",
        movss[0].points[7].1, movss[1].points[7].1, movss[2].points[7].1, movss[3].points[7].1
    ));
    result.series = movss;
    Ok(result)
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig12_passes() {
        let r = super::run(&mc_launcher::Ctx::default(), &crate::figures::quick_options()).unwrap();
        assert!(r.outcome.passed(), "{}", r.outcome.render());
    }
}
