//! Property tests for the batch evaluation path: over arbitrary kernel
//! shapes and option settings, the memoization cache must be invisible —
//! a cached batch returns the `RunReport`s of the uncached oracle (one
//! context-free `MicroLauncher::run` per point), cold and warm.
//!
//! Every case runs on its own context, so the cases run in parallel.

use mc_creator::MicroCreator;
use mc_kernel::builder::load_stream;
use mc_kernel::Program;
use mc_launcher::{Ctx, EvalPoint, KernelInput, LauncherOptions, MicroLauncher, RunReport};
use mc_report::prop::check;
use mc_simarch::config::Level;
use std::sync::Arc;

fn program(unroll: u32) -> Arc<Program> {
    let desc = load_stream(mc_asm::Mnemonic::Movaps, unroll, unroll);
    Arc::new(MicroCreator::new().generate(&desc).expect("generation").programs.remove(0))
}

fn options(repetitions: u32, seed: u64) -> LauncherOptions {
    LauncherOptions { repetitions, meta_repetitions: 3, seed, ..LauncherOptions::default() }
}

/// The uncached oracle: each point run alone, with no context.
fn oracle(points: &[EvalPoint]) -> Vec<RunReport> {
    points
        .iter()
        .map(|p| {
            let launcher = MicroLauncher::new(LauncherOptions::clone(&p.options));
            launcher.run(&KernelInput::program(p.program.clone())).expect("oracle run")
        })
        .collect()
}

fn level(index: u8) -> Level {
    match index % 4 {
        0 => Level::L1,
        1 => Level::L2,
        2 => Level::L3,
        _ => Level::Ram,
    }
}

/// Memoization never changes an answer: the same batch evaluated by the
/// oracle, cold, and warm yields identical reports.
#[test]
fn cache_on_and_off_agree() {
    check(16, |rng| {
        let unroll = rng.gen_range(1..=8u32);
        let repetitions = rng.gen_range(2..=6u32);
        let seed = rng.gen_range(0..1024u64);
        let level_index = rng.gen_range(0..4u8);
        let residence = Some(level(level_index));
        let opts = Arc::new(LauncherOptions { residence, ..options(repetitions, seed) });
        let points = || -> Vec<EvalPoint> {
            (0..4).map(|_| EvalPoint::new(program(unroll), opts.clone())).collect()
        };
        let uncached = oracle(&points());
        let ctx = Ctx::default();
        let cold = ctx.run_batch(points()).expect("cold batch");
        let warm = ctx.run_batch(points()).expect("warm batch");
        assert_eq!(&uncached, &cold);
        assert_eq!(&cold, &warm);
    });
}

/// A parallel batch matches the serial launcher loop point for point.
#[test]
fn batch_matches_serial() {
    check(16, |rng| {
        let max_unroll = rng.gen_range(2..=6u32);
        let seed = rng.gen_range(0..1024u64);
        let opts = Arc::new(options(4, seed));
        let points: Vec<EvalPoint> =
            (1..=max_unroll).map(|u| EvalPoint::new(program(u), opts.clone())).collect();
        let serial = oracle(&points);
        assert_eq!(serial, Ctx::default().run_batch(points).expect("batched run"));
    });
}
