//! Memory-hierarchy characterization (Figures 11–13): cycles per load for
//! `movaps` and `movss` streams across unroll factors and cache levels,
//! plus the frequency study separating core from uncore.
//!
//! Run with: `cargo run --example memory_hierarchy`

use microtools::launcher::sweeps::{
    frequency_sweep, programs_by_unroll_shared, unroll_by_level_sweep,
};
use microtools::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = microtools::launcher::Ctx::default();
    let opts = LauncherOptions::default();

    for (mnemonic, figure) in [(Mnemonic::Movaps, "Figure 11"), (Mnemonic::Movss, "Figure 12")] {
        println!("── {figure}: cycles per {} load ──", mnemonic.name());
        let desc = load_stream(mnemonic, 1, 8);
        let series = unroll_by_level_sweep(&ctx, &opts, &desc, &Level::ALL, true)?;
        println!("{}", render_chart(&series, 64, 14, Scale::Linear));
        for s in &series {
            let u8 = s.points.last().expect("8 points").1;
            println!("  {:4}: {:.2} cycles/load at unroll 8", s.label, u8);
        }
        println!();
    }

    println!("── Figure 13: frequency sweep (movaps ×8) ──");
    let program = programs_by_unroll_shared(&ctx, &load_stream(Mnemonic::Movaps, 8, 8))?.remove(0);
    let series = frequency_sweep(&ctx, &opts, &program, &Level::ALL)?;
    println!("{}", render_chart(&series, 64, 14, Scale::Linear));
    for s in &series {
        let slow = s.points.first().expect("points").1;
        let fast = s.points.last().expect("points").1;
        println!(
            "  {:4}: {:.2} cycles/load at 1.60 GHz vs {:.2} at 2.67 GHz ({})",
            s.label,
            slow,
            fast,
            if slow / fast > 1.3 { "core-clock domain" } else { "uncore domain — flat" }
        );
    }
    println!(
        "\n→ on-core frequency changes move L1/L2 but not L3/RAM — the paper's §5.1 observation"
    );
    Ok(())
}
