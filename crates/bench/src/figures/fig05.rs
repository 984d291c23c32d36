//! Figure 5: matmul unroll sweep — the actual (compiler-style) code vs the
//! MicroCreator microbenchmark equivalent.
//!
//! "unrolling provides a 9% difference between not unrolling the code and
//! unrolling it eight times. In the MicroTools version, the expected
//! improvement was 8.2%, which is similar" (§2). The "actual" line below
//! is a hand-unrolled Figure 2-style kernel (with the extra iteration
//! counter the compiler's code carries); the "MicroTools" line is the
//! abstracted kernel description expanded by MicroCreator.

use super::FigureResult;
use mc_kernel::builder::matmul_inner;
use mc_kernel::Program;
use mc_launcher::{Ctx, EvalPoint, LauncherOptions};
use mc_report::experiments::{check_improvement, ExperimentId, ShapeCheck};
use mc_report::series::Series;
use mc_simarch::config::Level;
use std::fmt::Write as _;

/// Builds the hand-unrolled "actual code" kernel for one unroll factor:
/// the Figure 2 instruction mix (load, load-multiply, accumulate) with the
/// compiler's per-iteration counter, on a 200×200 matrix walk.
pub fn actual_code(unroll: u32, matrix_size: u64) -> Result<Program, String> {
    let row_bytes = 8 * matrix_size;
    let mut text = String::from(".L3:\n");
    for i in 0..unroll {
        let xmm = i % 8;
        let _ = writeln!(text, "movsd {}(%rsi), %xmm{xmm}", 8 * i);
        let _ = writeln!(text, "mulsd {}(%rdx), %xmm{xmm}", u64::from(i) * row_bytes);
        let _ = writeln!(text, "addsd %xmm{xmm}, %xmm15");
    }
    let _ = writeln!(text, "addl $1, %eax");
    let _ = writeln!(text, "addq ${}, %rsi", 8 * unroll);
    let _ = writeln!(text, "addq ${}, %rdx", u64::from(unroll) * row_bytes);
    let _ = writeln!(text, "subq ${unroll}, %rdi");
    text.push_str("jge .L3\n");
    let mut program = Program::from_asm_text(format!("matmul_actual_u{unroll}"), &text)
        .map_err(|e| e.to_string())?;
    program.nb_arrays = 2;
    program.element_bytes = 8;
    program.elements_per_iteration = u64::from(unroll);
    program.meta.unroll = unroll;
    Ok(program)
}

/// Runs the comparison.
pub fn run(ctx: &Ctx, base: &LauncherOptions) -> Result<FigureResult, String> {
    let mut result = FigureResult::new(
        ExperimentId::Fig5,
        "Figure 5: matmul unroll factors — actual code vs microbenchmark (200², X5650)",
    );
    let desc = matmul_inner(200);
    let generated = ctx.generate_shared(&desc)?;

    // Interleave [actual, micro] per unroll factor into one batch.
    let mut programs = Vec::with_capacity(16);
    for unroll in 1..=8u32 {
        programs.push(std::sync::Arc::new(actual_code(unroll, 200)?));
        let micro = generated
            .iter()
            .find(|p| p.meta.unroll == unroll)
            .ok_or_else(|| format!("no microbenchmark at unroll {unroll}"))?;
        programs.push(micro.clone());
    }
    let mut opts = base.clone();
    opts.residence = Some(Level::L2); // 200² tiles are cache-resident (§2)
    opts.trip_count = 200;
    let opts = std::sync::Arc::new(opts);
    let points = programs.iter().map(|p| EvalPoint::new(p.clone(), opts.clone())).collect();
    let reports = ctx.run_batch(points)?;
    let per_element = |i: usize| {
        reports[i].cycles_per_iteration / programs[i].elements_per_iteration.max(1) as f64
    };
    let mut actual_points = Vec::new();
    let mut micro_points = Vec::new();
    for unroll in 1..=8u32 {
        let i = (unroll as usize - 1) * 2;
        actual_points.push((f64::from(unroll), per_element(i)));
        micro_points.push((f64::from(unroll), per_element(i + 1)));
    }
    let actual = Series::new("actual code", actual_points);
    let micro = Series::new("MicroTools", micro_points);

    result.outcome.push(check_improvement(
        "actual code gains ~9% from unrolling (paper: 9%)",
        &actual,
        0.04,
        0.20,
    ));
    result.outcome.push(check_improvement(
        "microbenchmark predicts a similar gain (paper: 8.2%)",
        &micro,
        0.04,
        0.20,
    ));
    let gain = |s: &Series| (s.points[0].1 - s.points[7].1) / s.points[0].1;
    let (ga, gm) = (gain(&actual), gain(&micro));
    result.outcome.push(ShapeCheck::new(
        "the two gains agree within 3 percentage points",
        (ga - gm).abs() < 0.03,
        format!("actual {:.1}% vs microbenchmark {:.1}%", ga * 100.0, gm * 100.0),
    ));
    let rel = (actual.points[7].1 - micro.points[7].1).abs() / micro.points[7].1;
    result.outcome.push(ShapeCheck::new(
        "absolute cycles agree within 25%",
        rel < 0.25,
        format!(
            "u8: actual {:.3} vs microbenchmark {:.3} cycles/element",
            actual.points[7].1, micro.points[7].1
        ),
    ));
    result.notes.push(format!(
        "unroll gain: actual {:.1}% vs microbenchmark {:.1}% (paper: 9% vs 8.2%)",
        ga * 100.0,
        gm * 100.0
    ));
    result.series.push(actual);
    result.series.push(micro);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_passes() {
        let r = run(&mc_launcher::Ctx::default(), &crate::figures::quick_options()).unwrap();
        assert!(r.outcome.passed(), "{}", r.outcome.render());
    }

    #[test]
    fn actual_code_is_well_formed() {
        let p = actual_code(3, 200).unwrap();
        assert_eq!(p.load_count(), 6, "2 loads per unrolled copy");
        assert_eq!(p.elements_per_iteration, 3);
        // It runs and terminates in the interpreter.
        let mut interp = mc_simarch::interp::Interpreter::new();
        interp.set_gpr(mc_asm::reg::GprName::Rdi, 30 - 3);
        interp.set_gpr(mc_asm::reg::GprName::Rsi, 0x100000);
        interp.set_gpr(mc_asm::reg::GprName::Rdx, 0x200000);
        let o = interp.run(&p, 100_000);
        assert_eq!(o.stop, mc_simarch::interp::StopReason::FellThrough);
        assert_eq!(o.loop_iterations, 10);
        assert_eq!(o.eax, 10, "the compiler-style counter tracks iterations");
    }
}
