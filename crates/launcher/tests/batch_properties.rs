//! Property tests for the batch evaluation path: over arbitrary kernel
//! shapes and option settings, the memoization cache must be invisible —
//! cache-on and cache-off evaluations return identical `RunReport`s, and
//! batch evaluation matches the serial launcher run for run.
//!
//! The cache and the worker count are process-global; every property
//! serializes on one lock so the cases cannot interleave.

use mc_creator::MicroCreator;
use mc_kernel::builder::load_stream;
use mc_kernel::Program;
use mc_launcher::batch::{clear_cache, set_cache_enabled};
use mc_launcher::{EvalPoint, KernelInput, LauncherOptions, MicroLauncher};
use mc_report::prop::check;
use mc_simarch::config::Level;
use std::sync::{Arc, Mutex};

static EXEC_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    EXEC_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn program(unroll: u32) -> Arc<Program> {
    let desc = load_stream(mc_asm::Mnemonic::Movaps, unroll, unroll);
    Arc::new(MicroCreator::new().generate(&desc).expect("generation").programs.remove(0))
}

fn options(repetitions: u32, seed: u64) -> LauncherOptions {
    LauncherOptions { repetitions, meta_repetitions: 3, seed, ..LauncherOptions::default() }
}

fn level(index: u8) -> Level {
    match index % 4 {
        0 => Level::L1,
        1 => Level::L2,
        2 => Level::L3,
        _ => Level::Ram,
    }
}

/// Memoization never changes an answer: the same batch evaluated with
/// the cache off, cold, and warm yields identical reports.
#[test]
fn cache_on_and_off_agree() {
    check(16, |rng| {
        let unroll = rng.gen_range(1..=8u32);
        let repetitions = rng.gen_range(2..=6u32);
        let seed = rng.gen_range(0..1024u64);
        let level_index = rng.gen_range(0..4u8);
        let _guard = lock();
        let residence = Some(level(level_index));
        let opts = Arc::new(LauncherOptions { residence, ..options(repetitions, seed) });
        let points = || -> Vec<EvalPoint> {
            (0..4).map(|_| EvalPoint::new(program(unroll), opts.clone())).collect()
        };
        set_cache_enabled(false);
        let uncached = mc_launcher::run_batch(points()).expect("uncached batch");
        set_cache_enabled(true);
        clear_cache();
        let cold = mc_launcher::run_batch(points()).expect("cold batch");
        let warm = mc_launcher::run_batch(points()).expect("warm batch");
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
        let _guard = lock();
        set_cache_enabled(false);
        let programs: Vec<Arc<Program>> = (1..=max_unroll).map(program).collect();
        let opts = options(4, seed);
        let launcher = MicroLauncher::new(opts);
        let serial: Vec<_> = programs
            .iter()
            .map(|p| launcher.run(&KernelInput::program(p.clone())).expect("serial run"))
            .collect();
        let batched = launcher.run_batch(&programs).expect("batched run");
        set_cache_enabled(true);
        assert_eq!(serial, batched);
    });
}
