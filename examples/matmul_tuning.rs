//! The paper's §2 motivation end-to-end: tuning a matrix multiply.
//!
//! Three studies on the simulated dual-socket Nehalem X5650:
//! 1. size sweep (Figure 3) — where does the working set fall out of cache?
//! 2. alignment sweep at 200² (Figure 4) — does alignment matter here?
//! 3. unroll sweep (Figure 5) — how much does unrolling buy?
//!
//! Run with: `cargo run --example matmul_tuning`

use microtools::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = microtools::launcher::Ctx::default();
    let creator = MicroCreator::new();

    // --- 1. Size sweep (Figure 3) --------------------------------------
    println!("── matrix size sweep (Figure 3) ──");
    let mut size_points = Vec::new();
    for size in [50u64, 100, 200, 400, 600, 800, 1200] {
        let desc = matmul_inner(size);
        let program = creator
            .generate(&desc)?
            .programs
            .into_iter()
            .find(|p| p.meta.unroll == 1)
            .expect("unroll-1 variant");
        let opts = LauncherOptions {
            vector_bytes: 3 * size * size * 8 / 2, // three size² matrices
            trip_count: size,
            verify: false,
            ..LauncherOptions::default()
        };
        let report = MicroLauncher::new(opts).run(&KernelInput::program(program))?;
        println!(
            "  size {size:>5}: {:>6.2} cycles/iteration ({} resident)",
            report.cycles_per_iteration,
            report.residence.map_or("?", Level::name),
        );
        size_points.push((size as f64, report.cycles_per_iteration));
    }
    println!("{}", render_chart(&[Series::new("matmul", size_points)], 64, 12, Scale::Linear));

    // --- 2. Alignment sweep at 200² (Figure 4) -------------------------
    println!("── alignment sweep at 200² (Figure 4) ──");
    let desc = matmul_inner(200);
    let program = creator
        .generate(&desc)?
        .programs
        .into_iter()
        .find(|p| p.meta.unroll == 1)
        .map(std::sync::Arc::new)
        .expect("unroll-1 variant");
    let opts = LauncherOptions {
        residence: Some(Level::L2), // 200² tiles fit in the cache (§2)
        trip_count: 200,
        ..LauncherOptions::default()
    };
    let points = microtools::launcher::sweeps::alignment_sweep(&ctx, &opts, &program, 512, 3584)?;
    let (mut min, mut max) = (f64::MAX, f64::MIN);
    for p in &points {
        min = min.min(p.cycles_per_iteration);
        max = max.max(p.cycles_per_iteration);
    }
    println!(
        "  {} configurations: {:.3} – {:.3} cycles/iteration (spread {:.2}%)",
        points.len(),
        min,
        max,
        (max - min) / min * 100.0
    );
    println!("  → alignment does not matter for this kernel (paper: <3%)\n");

    // --- 3. Unroll sweep (Figure 5) ------------------------------------
    println!("── unroll sweep at 200² (Figure 5) ──");
    let programs =
        microtools::launcher::sweeps::programs_by_unroll_shared(&ctx, &matmul_inner(200))?;
    let mut unroll_points = Vec::new();
    for program in &programs {
        let opts = LauncherOptions {
            residence: Some(Level::L2),
            trip_count: 200,
            verify: false,
            ..LauncherOptions::default()
        };
        let report = MicroLauncher::new(opts).run(&KernelInput::program(program.clone()))?;
        let per_element =
            report.cycles_per_iteration / program.elements_per_iteration.max(1) as f64;
        println!("  unroll {}: {per_element:.3} cycles/element", program.meta.unroll);
        unroll_points.push((f64::from(program.meta.unroll), per_element));
    }
    let gain = (unroll_points[0].1 - unroll_points[7].1) / unroll_points[0].1 * 100.0;
    println!("  → unrolling 8× gains {gain:.1}% (paper: ~9%, predicted 8.2%)");
    println!(
        "  → recommendation: use compiler unroll hints or rewrite the kernel in assembly (§2)"
    );
    Ok(())
}
