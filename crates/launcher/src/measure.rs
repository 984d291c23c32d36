//! The measurement protocol — Figure 10's timing pseudo-algorithm.
//!
//! ```text
//! overhead ← time of an empty call (minimum over a calibration loop)
//! call kernel once                      # heat instruction & data caches
//! for e in 0..experiments:              # outer loop: stability
//!     t0 ← clock
//!     for r in 0..repetitions:          # inner loop: amplification
//!         iterations += call kernel
//!     sample[e] ← (clock − t0 − overhead·repetitions) / iterations
//! report aggregate(sample)              # cycles per iteration
//! ```
//!
//! "The overhead calculation removes the function call cost and any other
//! noise from the final calculation" (§4.5). The protocol is generic over
//! the clock and the kernel call, so the simulated and native paths share
//! it verbatim.
//!
//! ## Adaptive repetition control
//!
//! In fixed mode the outer loop always runs `meta_repetitions`
//! experiments. Adaptive mode (μOpTime-style) starts from `min_samples`
//! experiments and grows the count geometrically only while the samples'
//! coefficient of variation exceeds `stability_threshold`, stopping at
//! the `max_samples` ceiling. A quiet clock stabilizes at `min_samples`;
//! a noisy one escalates toward the full budget. The number of
//! experiments actually executed is reported as
//! [`Measurement::samples_used`].
//!
//! ## Sample validity
//!
//! A sample whose timed window does not exceed the calibrated overhead
//! (`elapsed ≤ overhead × repetitions`) carries no information about the
//! kernel — it is dropped from aggregation and counted in
//! [`Measurement::clamped_samples`] instead of being clamped to `0.0`
//! (which `Aggregation::Min` would otherwise happily report as
//! "0.00 cycles/iter"). A run whose samples *all* clamp is an error.

use crate::clock::Clock;
use crate::options::Aggregation;
use crate::stability;
use mc_report::stats::Summary;

/// Protocol parameters (subset of the launcher options).
#[derive(Debug, Clone, Copy)]
pub struct MeasureConfig {
    /// Inner repetitions per experiment.
    pub repetitions: u32,
    /// Outer experiments (fixed mode).
    pub meta_repetitions: u32,
    /// Cache-heating calls before timing.
    pub warmup_runs: u32,
    /// Sample aggregation policy.
    pub aggregation: Aggregation,
    /// Stability threshold on the samples' coefficient of variation.
    pub stability_threshold: f64,
    /// Adaptive repetition control: grow the outer experiment count from
    /// `min_samples` while the samples' CV exceeds the threshold.
    pub adaptive: bool,
    /// Smallest outer experiment count adaptive mode may settle on.
    pub min_samples: u32,
    /// Adaptive ceiling on outer experiments.
    pub max_samples: u32,
}

impl MeasureConfig {
    /// Builds from launcher options. `--max-samples=0` means "use the
    /// fixed budget (`--meta-repetitions`) as the adaptive ceiling".
    pub fn from_options(o: &crate::options::LauncherOptions) -> Self {
        let min_samples = o.min_samples.max(1);
        let max_samples = if o.max_samples > 0 {
            o.max_samples.max(min_samples)
        } else {
            o.meta_repetitions.max(1).max(min_samples)
        };
        MeasureConfig {
            repetitions: o.repetitions.max(1),
            meta_repetitions: o.meta_repetitions.max(1),
            warmup_runs: if o.heat_cache { o.warmup_runs.max(1) } else { 0 },
            aggregation: o.aggregation,
            stability_threshold: o.stability_threshold,
            adaptive: o.adaptive,
            min_samples,
            max_samples,
        }
    }

    /// The outer-experiment budget: the most experiments this
    /// configuration may execute.
    pub fn sample_budget(&self) -> u32 {
        if self.adaptive {
            self.max_samples.max(self.min_samples).max(1)
        } else {
            self.meta_repetitions.max(1)
        }
    }
}

/// Result of one measured kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Cycles per iteration, per valid outer experiment.
    pub samples: Vec<f64>,
    /// The aggregated (reported) cycles per iteration.
    pub cycles_per_iteration: f64,
    /// Sample statistics.
    pub summary: Summary,
    /// Whether the run met the stability threshold.
    pub stable: bool,
    /// Calibrated per-call overhead in cycles.
    pub overhead_cycles: f64,
    /// Total cycles across all timed calls (the `--full-function` number).
    pub total_cycles: u64,
    /// Loop iterations executed per call.
    pub iterations_per_call: u64,
    /// Outer experiments actually executed (equals `meta_repetitions` in
    /// fixed mode; between `min_samples` and `max_samples` in adaptive
    /// mode).
    pub samples_used: u32,
    /// Whether adaptive repetition control produced this measurement.
    pub adaptive: bool,
    /// Experiments dropped because overhead subtraction consumed the
    /// entire timed window (see the module docs on sample validity).
    pub clamped_samples: u32,
}

/// Runs the protocol. `call` executes the kernel once and returns the
/// number of loop iterations it performed; `noop` is an "empty" call used
/// for overhead calibration (same call path, no kernel work).
pub fn measure<C, F, N>(
    clock: &C,
    cfg: &MeasureConfig,
    mut call: F,
    mut noop: N,
) -> Result<Measurement, String>
where
    C: Clock,
    F: FnMut() -> u64,
    N: FnMut(),
{
    // One check up front: the trace instrumentation below (extra clock
    // reads, per-repetition events) must cost nothing when tracing is off.
    let tracing = mc_trace::enabled();

    // Overhead calibration: minimum of a short loop.
    let mut overhead = u64::MAX;
    for _ in 0..16 {
        let t0 = clock.now_cycles();
        noop();
        overhead = overhead.min(clock.now_cycles() - t0);
    }
    let overhead = overhead as f64;

    // Cache heating.
    let mut iterations_per_call = 0u64;
    {
        let mut warmup = mc_trace::span("launcher.warmup");
        for _ in 0..cfg.warmup_runs {
            iterations_per_call = call();
        }
        if warmup.is_active() {
            warmup.field("runs", u64::from(cfg.warmup_runs));
        }
    }

    let budget = cfg.sample_budget();
    let mut target = if cfg.adaptive { cfg.min_samples.clamp(1, budget) } else { budget };
    let mut samples = Vec::with_capacity(target as usize);
    // One clock read per repetition when tracing; the buffer is reused
    // across experiments so the timed window never sees an allocation.
    let mut rep_marks: Vec<u64> =
        Vec::with_capacity(if tracing { cfg.repetitions as usize } else { 0 });
    let mut total_cycles = 0u64;
    let mut executed = 0u32;
    let mut clamped = 0u32;
    // Bug guard: `call()` must report the same trip count every time; a
    // varying count means the amplification loop measured different work
    // per repetition and the cycles-per-iteration division is meaningless.
    let mut expected_per_call: Option<u64> = None;

    loop {
        while executed < target {
            let experiment = executed;
            let t0 = clock.now_cycles();
            let mut iterations = 0u64;
            if tracing {
                // Buffer one clock read per repetition; the events are
                // emitted only after `elapsed` is captured, so the sink
                // cost cannot leak into the timed window.
                rep_marks.clear();
                for _ in 0..cfg.repetitions {
                    iterations += call();
                    rep_marks.push(clock.now_cycles());
                }
            } else {
                for _ in 0..cfg.repetitions {
                    iterations += call();
                }
            }
            let elapsed = clock.now_cycles() - t0;
            total_cycles += elapsed;
            executed += 1;
            if iterations == 0 {
                return Err("kernel reported zero iterations".into());
            }
            if !iterations.is_multiple_of(u64::from(cfg.repetitions)) {
                return Err(format!(
                    "inconsistent iteration counts within experiment {experiment}: \
                     {iterations} total iterations do not divide across {} repetitions",
                    cfg.repetitions
                ));
            }
            let per_call = iterations / u64::from(cfg.repetitions);
            match expected_per_call {
                None => expected_per_call = Some(per_call),
                Some(expected) if expected != per_call => {
                    return Err(format!(
                        "inconsistent iteration counts across experiments: \
                         {expected} then {per_call} iterations per call"
                    ));
                }
                Some(_) => {}
            }
            iterations_per_call = per_call;
            let net = elapsed as f64 - overhead * f64::from(cfg.repetitions);
            // A window the calibrated overhead swallows whole measures
            // nothing; drop it instead of reporting 0 cycles/iteration.
            let valid = net > 0.0;
            if valid {
                samples.push(net / iterations as f64);
            } else {
                clamped += 1;
            }
            if tracing {
                let mut rep_start = t0;
                for (repetition, &mark) in rep_marks.iter().enumerate() {
                    mc_trace::event(
                        "launcher.repetition",
                        vec![
                            ("experiment", u64::from(experiment).into()),
                            ("repetition", (repetition as u64).into()),
                            ("cycles", mark.saturating_sub(rep_start).into()),
                        ],
                    );
                    rep_start = mark;
                }
                let mut fields = vec![
                    ("experiment", u64::from(experiment).into()),
                    ("cycles", elapsed.into()),
                    ("iterations", iterations.into()),
                ];
                if valid {
                    fields.push(("cycles_per_iteration", (net / iterations as f64).into()));
                } else {
                    fields.push(("clamped", true.into()));
                }
                mc_trace::event("launcher.experiment", fields);
            }
        }
        if !cfg.adaptive || target >= budget {
            break;
        }
        if stability::is_stable(&samples, cfg.stability_threshold) {
            break;
        }
        // Still unstable: grow geometrically toward the ceiling.
        target = target.saturating_mul(2).min(budget);
    }

    if samples.is_empty() {
        return Err(format!(
            "all {executed} samples were zero-clamped: the calibrated overhead \
             ({overhead} cycles × {} repetitions) exceeded every timed window — \
             the noop calibration is slower than the kernel call",
            cfg.repetitions
        ));
    }
    let summary = Summary::of(&samples).ok_or("no valid samples")?;
    let cycles_per_iteration =
        stability::aggregate(&samples, cfg.aggregation).ok_or("aggregation failed")?;
    let stable = stability::is_stable(&samples, cfg.stability_threshold);
    if tracing {
        // Stability metadata across the outer experiments: the spread
        // (max − min) is the figure-of-merit the §4.5 protocol minimizes.
        mc_trace::event(
            "launcher.measure",
            vec![
                ("experiments", u64::from(executed).into()),
                ("repetitions", u64::from(cfg.repetitions).into()),
                ("overhead_cycles", overhead.into()),
                ("min", summary.min.into()),
                ("median", summary.median.into()),
                ("max", summary.max.into()),
                ("spread", (summary.max - summary.min).into()),
                ("stable", stable.into()),
                ("cycles_per_iteration", cycles_per_iteration.into()),
                ("adaptive", cfg.adaptive.into()),
                ("samples_used", u64::from(executed).into()),
                ("clamped_samples", u64::from(clamped).into()),
            ],
        );
    }
    if mc_trace::metrics_enabled() {
        let metrics = mc_trace::metrics();
        metrics.inc("launcher.measurements", 1);
        if !stable {
            metrics.inc("launcher.unstable_runs", 1);
        }
        metrics.observe("launcher.cycles_per_iteration", cycles_per_iteration);
        metrics.observe("launcher.sample_spread", summary.max - summary.min);
        metrics.observe("launcher.overhead_cycles", overhead);
        metrics.inc("launcher.timed_calls", u64::from(executed) * u64::from(cfg.repetitions));
        if clamped > 0 {
            metrics.inc("launcher.clamped_samples", u64::from(clamped));
        }
        if cfg.adaptive {
            metrics.inc("launcher.samples_saved", u64::from(budget.saturating_sub(executed)));
        }
    }
    Ok(Measurement {
        stable,
        samples,
        cycles_per_iteration,
        summary,
        overhead_cycles: overhead,
        total_cycles,
        iterations_per_call,
        samples_used: executed,
        adaptive: cfg.adaptive,
        clamped_samples: clamped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;

    fn cfg() -> MeasureConfig {
        MeasureConfig {
            repetitions: 8,
            meta_repetitions: 5,
            warmup_runs: 1,
            aggregation: Aggregation::Min,
            stability_threshold: 0.05,
            adaptive: false,
            min_samples: 3,
            max_samples: 0,
        }
    }

    fn adaptive_cfg(min: u32, max: u32) -> MeasureConfig {
        MeasureConfig { adaptive: true, min_samples: min, max_samples: max, ..cfg() }
    }

    #[test]
    fn exact_simulated_kernel_measures_exactly() {
        // A kernel of 100 iterations at 3.25 cycles each, 50-cycle call
        // overhead; the protocol must recover 3.25.
        let clock = SimClock::new(2.67);
        let m = measure(
            &clock,
            &cfg(),
            || {
                clock.advance_cycles(50 + 325);
                100
            },
            || clock.advance_cycles(50),
        )
        .unwrap();
        assert!((m.cycles_per_iteration - 3.25).abs() < 1e-9, "{m:?}");
        assert!(m.stable);
        assert_eq!(m.iterations_per_call, 100);
        assert_eq!(m.overhead_cycles, 50.0);
        assert_eq!(m.samples_used, 5, "fixed mode runs the full budget");
        assert!(!m.adaptive);
        assert_eq!(m.clamped_samples, 0);
    }

    #[test]
    fn noisy_kernel_min_recovers_floor() {
        use crate::stability::NoiseModel;
        let clock = SimClock::new(2.67);
        let noise = std::cell::RefCell::new(NoiseModel::new(11, 0.4, true, true));
        let m = measure(
            &clock,
            &MeasureConfig { meta_repetitions: 16, ..cfg() },
            || {
                let cycles = noise.borrow_mut().disturb(400.0);
                clock.advance_cycles(cycles as u64);
                100
            },
            || {},
        )
        .unwrap();
        // Noise inflates some samples; min stays near 4 cycles/iter.
        assert!((m.cycles_per_iteration - 4.0).abs() < 0.1, "{}", m.cycles_per_iteration);
        assert!(m.summary.max >= m.summary.min);
    }

    #[test]
    fn unstable_run_is_flagged() {
        let clock = SimClock::new(1.0);
        let step = std::cell::Cell::new(0u64);
        let m = measure(
            &clock,
            &MeasureConfig { stability_threshold: 0.01, aggregation: Aggregation::Median, ..cfg() },
            || {
                step.set(step.get() + 1);
                clock.advance_cycles(100 + step.get() * 40);
                10
            },
            || {},
        )
        .unwrap();
        assert!(!m.stable, "steadily drifting samples must be flagged: {:?}", m.samples);
    }

    #[test]
    fn zero_iterations_is_an_error() {
        let clock = SimClock::new(1.0);
        let err = measure(&clock, &cfg(), || 0, || {}).unwrap_err();
        assert!(err.contains("zero iterations"), "{err}");
    }

    #[test]
    fn warmup_runs_are_not_timed() {
        // The first (cold) call is 10× slower; the protocol's warm-up
        // absorbs it so samples only see the warm cost.
        let clock = SimClock::new(1.0);
        let calls = std::cell::Cell::new(0u32);
        let m = measure(
            &clock,
            &cfg(),
            || {
                let cold = calls.get() == 0;
                calls.set(calls.get() + 1);
                clock.advance_cycles(if cold { 10_000 } else { 1_000 });
                100
            },
            || {},
        )
        .unwrap();
        assert!((m.cycles_per_iteration - 10.0).abs() < 1e-9, "cold call leaked into timing");
    }

    #[test]
    fn overhead_is_subtracted() {
        let clock = SimClock::new(1.0);
        // Call overhead 500 dwarfs kernel work 100 → without subtraction
        // the result would be 6 cycles/iter instead of 1.
        let m = measure(
            &clock,
            &cfg(),
            || {
                clock.advance_cycles(600);
                100
            },
            || clock.advance_cycles(500),
        )
        .unwrap();
        assert!((m.cycles_per_iteration - 1.0).abs() < 1e-9);
    }

    #[test]
    fn full_function_total_accumulates() {
        let clock = SimClock::new(1.0);
        let m = measure(
            &clock,
            &cfg(),
            || {
                clock.advance_cycles(1000);
                10
            },
            || {},
        )
        .unwrap();
        // 5 experiments × 8 reps × 1000 cycles.
        assert_eq!(m.total_cycles, 40_000);
    }

    // -- Zero-clamp bugfix ---------------------------------------------------

    #[test]
    fn noop_slower_than_kernel_is_an_error_not_zero() {
        // Regression: a noop (500 cycles) slower than the kernel call
        // (100 cycles) over-subtracts every window. The old protocol
        // clamped each sample to 0.0 and Min aggregation reported
        // "0.00 cycles/iter"; now the run fails loudly.
        let clock = SimClock::new(1.0);
        let err = measure(
            &clock,
            &cfg(),
            || {
                clock.advance_cycles(100);
                10
            },
            || clock.advance_cycles(500),
        )
        .unwrap_err();
        assert!(err.contains("zero-clamped"), "{err}");
        assert!(err.contains("noop calibration is slower"), "{err}");
    }

    #[test]
    fn partially_clamped_samples_are_dropped_from_aggregation() {
        // One noisy overhead calibration: the first experiment's calls are
        // cheaper than the calibrated overhead (its window clamps), the
        // rest measure real work. Min aggregation must see only the valid
        // samples — not a silent 0.0.
        let clock = SimClock::new(1.0);
        let calls = std::cell::Cell::new(0u32);
        let m = measure(
            &clock,
            &cfg(),
            || {
                let n = calls.get();
                calls.set(n + 1);
                // warm-up call + experiment 0 (8 calls): cheaper than the
                // 500-cycle overhead; later experiments: 700 cycles.
                clock.advance_cycles(if n < 9 { 100 } else { 700 });
                10
            },
            || clock.advance_cycles(500),
        )
        .unwrap();
        assert_eq!(m.clamped_samples, 1, "{m:?}");
        assert_eq!(m.samples.len(), 4, "dropped from aggregation, not zeroed");
        // (700 − 500) / 10 = 20 cycles/iter from the valid windows.
        assert!((m.cycles_per_iteration - 20.0).abs() < 1e-9, "{}", m.cycles_per_iteration);
        assert_eq!(m.samples_used, 5, "clamped experiments still count as executed");
    }

    // -- Inconsistent-iterations bugfix --------------------------------------

    #[test]
    fn varying_iteration_counts_across_experiments_are_an_error() {
        let clock = SimClock::new(1.0);
        let calls = std::cell::Cell::new(0u32);
        let err = measure(
            &clock,
            &cfg(),
            || {
                let n = calls.get();
                calls.set(n + 1);
                clock.advance_cycles(100);
                // Warm-up + experiment 0 report 100; every later
                // experiment reports 50 per call.
                if n < 9 {
                    100
                } else {
                    50
                }
            },
            || {},
        )
        .unwrap_err();
        assert!(err.contains("inconsistent iteration counts across experiments"), "{err}");
        assert!(err.contains("100 then 50"), "{err}");
    }

    #[test]
    fn varying_iteration_counts_within_an_experiment_are_an_error() {
        let clock = SimClock::new(1.0);
        let calls = std::cell::Cell::new(0u32);
        let err = measure(
            &clock,
            &cfg(),
            || {
                let n = calls.get();
                calls.set(n + 1);
                clock.advance_cycles(100);
                // One call in the middle of an experiment drops an
                // iteration: the total no longer divides by repetitions.
                if n == 4 {
                    99
                } else {
                    100
                }
            },
            || {},
        )
        .unwrap_err();
        assert!(err.contains("inconsistent iteration counts within experiment"), "{err}");
    }

    // -- Adaptive repetition control -----------------------------------------

    #[test]
    fn adaptive_mode_stops_at_min_samples_on_a_quiet_clock() {
        let clock = SimClock::new(1.0);
        let m = measure(
            &clock,
            &adaptive_cfg(2, 16),
            || {
                clock.advance_cycles(800);
                100
            },
            || {},
        )
        .unwrap();
        assert_eq!(m.samples_used, 2, "quiet clock must settle at the floor");
        assert!(m.adaptive);
        assert!(m.stable);
        assert!((m.cycles_per_iteration - 8.0).abs() < 1e-9, "{m:?}");
    }

    #[test]
    fn adaptive_mode_matches_fixed_mode_on_a_quiet_clock() {
        let run = |cfg: &MeasureConfig| {
            let clock = SimClock::new(1.0);
            measure(
                &clock,
                cfg,
                || {
                    clock.advance_cycles(1234);
                    100
                },
                || clock.advance_cycles(34),
            )
            .unwrap()
        };
        let fixed = run(&MeasureConfig { meta_repetitions: 16, ..cfg() });
        let adaptive = run(&adaptive_cfg(2, 16));
        assert_eq!(fixed.cycles_per_iteration, adaptive.cycles_per_iteration);
        assert!(adaptive.samples_used < fixed.samples_used);
    }

    #[test]
    fn adaptive_mode_grows_geometrically_until_stable() {
        // The first experiment is inflated 2×; with one outlier over an
        // otherwise-flat sample set the CV is √(n−1)/(n+1): 0.333 at n=2,
        // 0.346 at n=4, 0.294 at n=8 — so a 0.3 threshold forces exactly
        // two doublings (2 → 4 → 8) before stability is declared, well
        // short of the 32-sample ceiling.
        let clock = SimClock::new(1.0);
        let calls = std::cell::Cell::new(0u32);
        let m = measure(
            &clock,
            &MeasureConfig { stability_threshold: 0.3, ..adaptive_cfg(2, 32) },
            || {
                let n = calls.get();
                calls.set(n + 1);
                // Warm-up + experiment 0: 2000 cycles; later calls: 1000.
                clock.advance_cycles(if n < 9 { 2000 } else { 1000 });
                10
            },
            || {},
        )
        .unwrap();
        assert_eq!(m.samples_used, 8, "expected 2 → 4 → 8 growth: {m:?}");
        assert!(m.stable);
    }

    #[test]
    fn adaptive_mode_caps_at_the_ceiling_when_never_stable() {
        let clock = SimClock::new(1.0);
        let step = std::cell::Cell::new(0u64);
        let m = measure(
            &clock,
            &MeasureConfig { stability_threshold: 0.01, ..adaptive_cfg(2, 8) },
            || {
                step.set(step.get() + 1);
                clock.advance_cycles(100 + step.get() * 50);
                10
            },
            || {},
        )
        .unwrap();
        assert_eq!(m.samples_used, 8, "unstable run must stop at the ceiling");
        assert!(!m.stable);
    }

    #[test]
    fn single_sample_cv_cannot_terminate_growth_before_min_samples() {
        // CV of one sample is 0 (trivially "stable"); the floor must
        // still be honored — stability is only consulted once
        // `min_samples` experiments have run.
        let clock = SimClock::new(1.0);
        let m = measure(
            &clock,
            &adaptive_cfg(3, 16),
            || {
                clock.advance_cycles(500);
                10
            },
            || {},
        )
        .unwrap();
        assert_eq!(m.samples_used, 3, "must not stop before the floor");
    }
}
