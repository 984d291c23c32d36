//! The MicroLauncher facade: one entry point dispatching over execution
//! modes and input kinds, producing a [`RunReport`] and its CSV row.

use crate::clock::{Clock, RdtscClock, SimClock};
use crate::ctx::Ctx;
use crate::env::KernelEnvironment;
use crate::input::KernelInput;
use crate::measure::{measure, MeasureConfig, Measurement};
use crate::options::{LauncherOptions, Mode};
use crate::stability::NoiseModel;
use mc_insight::{attribute, Attribution};
use mc_kernel::Program;
use mc_ompsim::model::OmpCostModel;
use mc_ompsim::team::ParallelTeam;
use mc_report::stats::Summary;
use mc_scope::NoopSink;
use mc_simarch::config::Level;
use mc_simarch::exec::{estimate, ExecEnv, ProgramModel};
use mc_simarch::interp::{Interpreter, StopReason};
use std::borrow::Cow;
use std::cell::{OnceCell, RefCell};
use std::sync::Arc;

/// Most accesses a `--verify-cache` trace records. A kernel that makes
/// more is reported unverified rather than judged on a prefix.
const TRACE_CAP: usize = 16 << 20;

/// Semantics-verification result (the interpreter pass, §4.4's contract).
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// All checks passed.
    pub passed: bool,
    /// Loop iterations the interpreter observed.
    pub loop_iterations: u64,
    /// Iterations expected from the trip count.
    pub expected_iterations: u64,
    /// Memory operations per loop iteration.
    pub memory_ops_per_iteration: f64,
    /// Distinct cache lines touched.
    pub footprint_lines: u64,
    /// Residence level observed by replaying the address trace through the
    /// cache simulator (`--verify-cache` only).
    pub observed_residence: Option<&'static str>,
    /// Failure explanation, empty when passed.
    pub detail: String,
}

/// The result of one launcher run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Kernel name.
    pub name: String,
    /// User label (`--label`).
    pub label: String,
    /// Machine model name.
    pub machine: String,
    /// Execution mode.
    pub mode: Mode,
    /// Workers (cores or threads) used.
    pub workers: u32,
    /// Reference cycles per loop iteration (the default output, §4.3).
    pub cycles_per_iteration: f64,
    /// Full kernel-function execution time in seconds (`--full-function`).
    pub seconds_full_function: f64,
    /// Per-experiment sample statistics.
    pub summary: Summary,
    /// Stability verdict.
    pub stable: bool,
    /// Working-set residence (simulated runs).
    pub residence: Option<Level>,
    /// Core ids the workers were pinned to.
    pub pin_cores: Vec<u32>,
    /// Interpreter verification, when requested.
    pub verify: Option<VerifyReport>,
    /// Per parallel-region wall time (OpenMP mode).
    pub region_seconds: Option<f64>,
    /// Modelled energy per loop iteration in nanojoules (simulated runs) —
    /// the paper's "power utilization" metric (§7).
    pub energy_nj_per_iteration: Option<f64>,
    /// Bottleneck attribution: what the variant is bound on (simulated
    /// runs; native measurements carry no model decomposition).
    pub bottleneck: Option<Attribution>,
    /// Outer experiments the measurement protocol actually executed
    /// (fixed mode: `meta_repetitions`; adaptive mode: wherever growth
    /// stopped between `min_samples` and `max_samples`).
    pub samples_used: u32,
    /// Whether adaptive repetition control produced this report.
    pub adaptive: bool,
}

impl RunReport {
    /// CSV header matching [`RunReport::csv_row`].
    pub fn csv_header() -> &'static str {
        "kernel,label,machine,mode,workers,cycles_per_iteration,energy_nj,seconds_full,min,median,max,stable,residence,verified,bottleneck,bound_cycles,bound_share,samples_used,status"
    }

    /// The CSV row for this run (§4.3: "The output of the launcher is a
    /// generic CSV file"). Successful evaluations carry `status=ok`; see
    /// [`RunReport::failed_csv_row`] for the failure shape.
    pub fn csv_row(&self) -> String {
        let mode = self.mode.name();
        format!(
            "{},{},{},{},{},{:.4},{},{:.6e},{:.4},{:.4},{:.4},{},{},{},{},{},{},{},ok",
            self.name,
            self.label,
            self.machine.replace(',', ";"),
            mode,
            self.workers,
            self.cycles_per_iteration,
            self.energy_nj_per_iteration.map_or("-".to_owned(), |e| format!("{e:.3}")),
            self.seconds_full_function,
            self.summary.min,
            self.summary.median,
            self.summary.max,
            self.stable,
            self.residence.map_or("-", Level::name),
            self.verify.as_ref().map_or("-".to_owned(), |v| v.passed.to_string()),
            self.bottleneck.as_ref().map_or("-", |a| a.class.name()),
            self.bottleneck.as_ref().map_or("-".to_owned(), |a| format!("{:.4}", a.bound_cycles)),
            self.bottleneck.as_ref().map_or("-".to_owned(), |a| format!("{:.2}", a.share())),
            self.samples_used,
        )
    }

    /// The CSV row for a point whose evaluation failed: identity columns
    /// are filled from what was submitted, every measurement column is
    /// `-`, and `status` names the failure kind (`failed`, `panic`,
    /// `timeout`, `skipped`). Keeps failed points visible in the output
    /// instead of silently shrinking the sweep.
    pub fn failed_csv_row(
        name: &str,
        label: &str,
        options: &LauncherOptions,
        status: &str,
    ) -> String {
        format!(
            "{},{},{},{},{},-,-,-,-,-,-,-,{},-,-,-,-,-,{}",
            name,
            label,
            options.machine.name().replace(',', ";"),
            options.mode.name(),
            options.cores.max(1),
            options.residence.map_or("-", Level::name),
            status,
        )
    }
}

/// MicroLauncher.
pub struct MicroLauncher {
    options: LauncherOptions,
}

impl MicroLauncher {
    /// A launcher with the given options.
    pub fn new(options: LauncherOptions) -> Self {
        MicroLauncher { options }
    }

    /// A launcher with default options.
    pub fn with_defaults() -> Self {
        MicroLauncher { options: LauncherOptions::default() }
    }

    /// Runs one kernel input with no context (no memo, no profile). Traced
    /// as one `launcher.run` span carrying the kernel name, mode, and the
    /// reported result.
    pub fn run(&self, input: &KernelInput) -> Result<RunReport, String> {
        self.run_input(None, input, None)
    }

    /// [`Self::run`] under `ctx`: verification and the estimate model go
    /// through its memos, and its profiler records the evaluation.
    pub fn run_in(&self, ctx: &Ctx, input: &KernelInput) -> Result<RunReport, String> {
        self.run_input(Some(ctx), input, None)
    }

    /// The batch hands in the program's fingerprint it already holds.
    pub(crate) fn run_input(
        &self,
        ctx: Option<&Ctx>,
        input: &KernelInput,
        program_fp: Option<u64>,
    ) -> Result<RunReport, String> {
        let mut span = mc_trace::span("launcher.run");
        let result = match input {
            KernelInput::Native(kernel) => self.run_native(kernel.as_ref()),
            KernelInput::Standalone { program, iterations } => {
                self.run_standalone(program, *iterations)
            }
            _ => {
                let program = input.as_program().expect("program-backed input");
                self.run_simulated(ctx, program, program_fp)
            }
        };
        if span.is_active() {
            span.field("mode", self.options.mode.name());
            span.field("machine", self.options.machine.name());
            match &result {
                Ok(report) => {
                    span.field("kernel", report.name.as_str());
                    span.field("workers", u64::from(report.workers));
                    span.field("cycles_per_iteration", report.cycles_per_iteration);
                    span.field("stable", report.stable);
                    if let Some(b) = &report.bottleneck {
                        span.field("bottleneck", b.class.name());
                    }
                }
                Err(error) => span.field("error", error.as_str()),
            }
        }
        result
    }

    // -- Simulated path -----------------------------------------------------

    fn run_simulated(
        &self,
        ctx: Option<&Ctx>,
        program: &Program,
        program_fp: Option<u64>,
    ) -> Result<RunReport, String> {
        let o = &self.options;
        let env = KernelEnvironment::prepare(o, program)?;
        // Hashed at most once, and only when verification or a profile
        // needs it and the caller did not hand it in.
        let fp_cell = program_fp.map_or_else(OnceCell::new, OnceCell::from);
        let program_fp = || *fp_cell.get_or_init(|| crate::batch::program_fingerprint(program));
        let verify = if o.verify {
            let verify = || {
                let _span = mc_trace::span("simarch.verify");
                self.verify_program(program, &env)
            };
            // Verification reads only the program and the verify inputs,
            // so every point of a frequency or core sweep shares one run.
            let key = || (program_fp(), env.verify_fingerprint(o));
            Some(match ctx {
                Some(ctx) => ctx.0.verdicts.get_or_try_compute(key(), verify)?,
                None => verify()?,
            })
        } else {
            None
        };

        let workers = match o.mode {
            Mode::Fork => o.cores.max(1),
            Mode::OpenMp => o.omp_threads.max(1),
            _ => 1,
        };
        let exec_env = ExecEnv {
            machine: Cow::Borrowed(env.machine),
            core_ghz: o.effective_frequency(),
            active_cores: workers,
            placement: o.placement,
        };
        let workload = env.workload();
        // The program-and-machine half of the estimate is shared by every
        // point of a sweep. It is memoized once the program's fingerprint
        // is known (handed in, or hashed for verification); a single run
        // analyzes directly rather than hash the program for one lookup.
        let analyze = || Arc::new(ProgramModel::analyze(program, env.machine));
        let model = match (ctx, fp_cell.get()) {
            (Some(ctx), Some(&fp)) => ctx.0.models.get_or_compute((fp, o.machine as u64), analyze),
            _ => analyze(),
        };
        let profiler = ctx.and_then(Ctx::profiling);
        let mut collector =
            profiler.as_ref().map(|_| mc_scope::Collector::new(program.name.clone()));
        let timing = match collector.as_mut() {
            Some(c) => {
                let timing = model.finish(&workload, &exec_env, c);
                model.emit_scope(program, c);
                self.profile_cache_stream(program, &env, c);
                timing
            }
            None => model.finish(&workload, &exec_env, &mut NoopSink),
        };
        let bottleneck = attribute(&timing, env.machine);
        if let (Some(profiler), Some(collector)) = (profiler, collector) {
            let mut profile = collector.finish();
            profile.program_fingerprint = format!("{:016x}", program_fp());
            profile.options_fingerprint = format!("{:016x}", o.fingerprint());
            profile.set_verdict(mc_insight::verdict_of(&bottleneck));
            profiler.record(profile);
        }
        if mc_trace::enabled() {
            mc_trace::event(
                "insight.attribution",
                vec![
                    ("kernel", program.name.as_str().into()),
                    ("class", bottleneck.class.name().into()),
                    ("bound_cycles", bottleneck.bound_cycles.into()),
                    ("measured_cycles", bottleneck.measured_cycles.into()),
                    ("share", bottleneck.share().into()),
                    ("runner_up", bottleneck.runner_up.map_or("-", |c| c.name()).into()),
                ],
            );
        }
        let epi = program.elements_per_iteration.max(1);
        let total_iterations = (env.trip_count / epi).max(1);

        let nominal = env.machine.nominal_ghz;
        let clock = SimClock::new(nominal);
        let noise = RefCell::new(NoiseModel::new(
            o.seed,
            o.noise_amplitude,
            true, // the launcher always pins
            env.interrupts_disabled,
        ));
        // A function-call entry/exit cost, removed by the overhead pass.
        let call_overhead_cycles = 120u64;

        let (measurement, region_seconds) = match o.mode {
            Mode::OpenMp => {
                let omp = self.omp_model();
                let work_total = timing.seconds_per_iteration * total_iterations as f64;
                let region = omp.region_seconds(workers, work_total);
                let m = self.measure_sim(&clock, &noise, call_overhead_cycles, || {
                    clock.advance_seconds(region);
                    total_iterations
                })?;
                (m, Some(region))
            }
            _ => {
                let per_call = timing.seconds_per_iteration * total_iterations as f64;
                // Compulsory misses: the very first execution streams the
                // whole working set from memory — the cost §4.7's cache
                // heating exists to keep out of the measurement.
                let cold_penalty_seconds =
                    env.working_set_bytes() as f64 / (env.machine.ram.bandwidth * 1e9);
                let cold = std::cell::Cell::new(true);
                let m = self.measure_sim(&clock, &noise, call_overhead_cycles, || {
                    clock.advance_cycles(call_overhead_cycles);
                    if cold.replace(false) {
                        clock.advance_seconds(cold_penalty_seconds);
                    }
                    clock.advance_seconds(per_call);
                    total_iterations
                })?;
                (m, None)
            }
        };

        let energy = {
            let model = mc_simarch::energy::EnergyModel::for_machine(env.machine);
            model.iteration_nanojoules(
                env.machine,
                o.effective_frequency(),
                &timing,
                program.bytes_per_iteration() as f64,
            )
        };
        Ok(self.report(
            program.name.clone(),
            o.mode,
            workers,
            &env,
            Some(timing.residence),
            verify,
            region_seconds,
            measurement,
            nominal,
            Some(energy),
            Some(bottleneck),
        ))
    }

    fn measure_sim<F>(
        &self,
        clock: &SimClock,
        noise: &RefCell<NoiseModel>,
        call_overhead_cycles: u64,
        mut body: F,
    ) -> Result<Measurement, String>
    where
        F: FnMut() -> u64,
    {
        let cfg = MeasureConfig::from_options(&self.options);
        measure(
            clock,
            &cfg,
            || {
                let before = clock.now_cycles();
                let iters = body();
                let elapsed = clock.now_cycles() - before;
                // Environmental disturbance inflates the call in place.
                let disturbed = noise.borrow_mut().disturb(elapsed as f64);
                clock.advance_cycles((disturbed - elapsed as f64).max(0.0) as u64);
                iters
            },
            || clock.advance_cycles(call_overhead_cycles),
        )
    }

    fn omp_model(&self) -> OmpCostModel {
        let mut model = OmpCostModel::default();
        if self.options.omp_overhead_ns > 0.0 {
            // The user override replaces the fork+barrier cost, split
            // evenly between fixed parts.
            model.fork_base_ns = self.options.omp_overhead_ns / 2.0;
            model.barrier_base_ns = self.options.omp_overhead_ns / 2.0;
            model.fork_per_thread_ns = 0.0;
            model.barrier_per_thread_ns = 0.0;
            model.dispatch_per_thread_ns = 0.0;
        }
        model
    }

    fn verify_program(
        &self,
        program: &Program,
        env: &KernelEnvironment,
    ) -> Result<VerifyReport, String> {
        let epi = program.elements_per_iteration.max(1);
        // Cap the functional run so verification stays fast on huge trips.
        let verify_trip = env.trip_count.min(epi * 256);
        let mut interp = env.interpreter(program);
        interp.set_gpr(mc_asm::reg::GprName::Rdi, verify_trip.saturating_sub(epi));
        let outcome = interp.run(program, self.options.max_interp_steps);

        let expected_iterations = verify_trip / epi;
        let body_memory_ops = program.load_count() as u64 + program.store_count() as u64;
        let mut problems = Vec::new();
        if outcome.stop != StopReason::FellThrough {
            problems.push(format!("kernel did not exit cleanly: {:?}", outcome.stop));
        }
        if outcome.loop_iterations != expected_iterations {
            problems.push(format!(
                "iterations {} != expected {}",
                outcome.loop_iterations, expected_iterations
            ));
        }
        let mem_ops_per_iter = if outcome.loop_iterations > 0 {
            (outcome.loads + outcome.stores) as f64 / outcome.loop_iterations as f64
        } else {
            0.0
        };
        if body_memory_ops > 0 && (mem_ops_per_iter - body_memory_ops as f64).abs() > 1e-9 {
            problems.push(format!(
                "memory ops/iteration {} != body count {}",
                mem_ops_per_iter, body_memory_ops
            ));
        }
        // Deep verification: replay the trace through the cache simulator
        // and compare the observed residence with the analytic rule.
        let observed_residence = if self.options.verify_cache {
            self.verify_residence(program, env, TRACE_CAP, &mut problems)
        } else {
            None
        };
        Ok(VerifyReport {
            passed: problems.is_empty(),
            loop_iterations: outcome.loop_iterations,
            expected_iterations,
            memory_ops_per_iteration: mem_ops_per_iter,
            footprint_lines: outcome.unique_lines,
            observed_residence,
            detail: problems.join("; "),
        })
    }

    /// Runs the kernel over its full trip recording at most `cap`
    /// accesses. The heating and the steady-state pass of the cache
    /// protocol would both start from this same fresh environment, so
    /// they would record this same trace: it is recorded once and
    /// replayed twice.
    fn full_trip_trace(
        &self,
        program: &Program,
        env: &KernelEnvironment,
        cap: usize,
    ) -> Interpreter {
        let mut interp = env.interpreter(program);
        interp.record_trace(cap);
        interp.run(program, self.options.max_interp_steps);
        interp
    }

    /// Replays the kernel's full-trip trace through the LRU hierarchy
    /// twice (heat, then steady state, with counters reset between) and
    /// checks the observed residence against the analytic model. A trace
    /// that outgrew `cap` is reported as a problem, not judged: its
    /// prefix says nothing about the residence of the whole run.
    fn verify_residence(
        &self,
        program: &Program,
        env: &KernelEnvironment,
        cap: usize,
        problems: &mut Vec<String>,
    ) -> Option<&'static str> {
        use mc_simarch::cachesim::CacheHierarchy;
        let interp = self.full_trip_trace(program, env, cap);
        if interp.trace_truncated() {
            problems.push(format!(
                "cache simulation skipped: the kernel makes more than {cap} memory accesses"
            ));
            return None;
        }
        let mut hierarchy = CacheHierarchy::for_machine(env.machine);
        hierarchy.replay(interp.trace());
        hierarchy.reset_counters();
        hierarchy.replay(interp.trace());
        let observed = hierarchy.observed_residence(0.9);
        let expected = env.machine.residence(env.working_set_bytes()).name();
        if observed != expected {
            problems.push(format!(
                "cache simulation observed {observed} residence, analytic model says {expected}"
            ));
        }
        Some(observed)
    }

    /// Feeds the profile collector a steady-state cache-access stream:
    /// the same heat-then-replay protocol as [`Self::verify_residence`],
    /// with the steady pass replayed through the scope sink so the
    /// profile records which level served each line.
    fn profile_cache_stream(
        &self,
        program: &Program,
        env: &KernelEnvironment,
        sink: &mut dyn mc_scope::ScopeSink,
    ) {
        use mc_simarch::cachesim::CacheHierarchy;
        let interp = self.full_trip_trace(program, env, TRACE_CAP);
        let mut hierarchy = CacheHierarchy::for_machine(env.machine);
        hierarchy.replay(interp.trace());
        hierarchy.reset_counters();
        hierarchy.replay_with_scope(interp.trace(), sink);
    }

    fn run_standalone(&self, program: &Program, iterations: u64) -> Result<RunReport, String> {
        let o = &self.options;
        let env = KernelEnvironment::prepare(o, program)?;
        let workers = if o.mode == Mode::Fork { o.cores.max(1) } else { 1 };
        let exec_env = ExecEnv {
            machine: Cow::Borrowed(env.machine),
            core_ghz: o.effective_frequency(),
            active_cores: workers,
            placement: o.placement,
        };
        let timing = estimate(program, &env.workload(), &exec_env);
        let bottleneck = attribute(&timing, env.machine);
        let seconds = timing.seconds_per_iteration * iterations as f64;
        let summary = Summary::of(&[timing.cycles_per_iteration]).ok_or("empty")?;
        Ok(RunReport {
            name: program.name.clone(),
            label: o.label.clone(),
            machine: env.machine.name.to_owned(),
            mode: Mode::Standalone,
            workers,
            cycles_per_iteration: timing.cycles_per_iteration,
            seconds_full_function: seconds,
            summary,
            stable: true,
            residence: Some(timing.residence),
            pin_cores: env.pin.core_of.clone(),
            verify: None,
            region_seconds: None,
            energy_nj_per_iteration: Some(
                mc_simarch::energy::EnergyModel::for_machine(env.machine).iteration_nanojoules(
                    env.machine,
                    o.effective_frequency(),
                    &timing,
                    program.bytes_per_iteration() as f64,
                ),
            ),
            bottleneck: Some(bottleneck),
            samples_used: 1,
            adaptive: false,
        })
    }

    // -- Native path ---------------------------------------------------------

    fn run_native(
        &self,
        kernel: &(dyn crate::input::NativeKernel + Send),
    ) -> Result<RunReport, String> {
        let o = &self.options;
        let machine = o.machine.config();
        let nominal = machine.nominal_ghz;
        let bytes = if o.vector_bytes > 0 { o.vector_bytes } else { 16 << 10 };
        let elements = (bytes / 4).max(1) as usize;
        let n = if o.trip_count > 0 { o.trip_count as usize } else { elements };
        let nb = o.nb_vectors.max(1) as usize;

        let clock = RdtscClock::new(nominal);
        let cfg = MeasureConfig::from_options(o);
        let measurement = match o.mode {
            Mode::OpenMp => {
                let team = ParallelTeam::new(o.omp_threads.max(1) as usize);
                // Per-thread private arrays, OpenMP-style chunked trip.
                let team_arrays: Vec<std::sync::Mutex<Vec<Vec<f32>>>> = (0..team.len())
                    .map(|_| std::sync::Mutex::new(vec![vec![0.0f32; elements]; nb]))
                    .collect();
                measure(
                    &clock,
                    &cfg,
                    || {
                        use std::sync::atomic::{AtomicU64, Ordering};
                        let iters = AtomicU64::new(0);
                        team.parallel_region(|tid| {
                            let chunk = team.static_chunk(n, tid);
                            let mut arrays = team_arrays[tid]
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                            let done = kernel.run(chunk.len(), &mut arrays);
                            iters.fetch_add(done as u64, Ordering::Relaxed);
                        });
                        iters.into_inner().max(1)
                    },
                    || {},
                )?
            }
            _ => {
                let mut arrays: Vec<Vec<f32>> = vec![vec![0.0f32; elements]; nb];
                measure(&clock, &cfg, || kernel.run(n, &mut arrays) as u64, || {})?
            }
        };
        let workers = if o.mode == Mode::OpenMp { o.omp_threads.max(1) } else { 1 };
        Ok(RunReport {
            name: kernel.name().to_owned(),
            label: o.label.clone(),
            machine: format!("native host (reported as {})", machine.name),
            mode: o.mode,
            workers,
            cycles_per_iteration: measurement.cycles_per_iteration,
            seconds_full_function: measurement.total_cycles as f64 / (nominal * 1e9),
            summary: measurement.summary,
            stable: measurement.stable,
            residence: None,
            pin_cores: vec![o.pin_core],
            verify: None,
            region_seconds: None,
            energy_nj_per_iteration: None,
            bottleneck: None,
            samples_used: measurement.samples_used,
            adaptive: measurement.adaptive,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn report(
        &self,
        name: String,
        mode: Mode,
        workers: u32,
        env: &KernelEnvironment,
        residence: Option<Level>,
        verify: Option<VerifyReport>,
        region_seconds: Option<f64>,
        measurement: Measurement,
        nominal_ghz: f64,
        energy_nj_per_iteration: Option<f64>,
        bottleneck: Option<Attribution>,
    ) -> RunReport {
        RunReport {
            name,
            label: self.options.label.clone(),
            machine: env.machine.name.to_owned(),
            mode,
            workers,
            cycles_per_iteration: measurement.cycles_per_iteration,
            seconds_full_function: measurement.total_cycles as f64 / (nominal_ghz * 1e9),
            summary: measurement.summary,
            stable: measurement.stable,
            residence,
            pin_cores: env.pin.core_of.clone(),
            verify,
            region_seconds,
            energy_nj_per_iteration,
            bottleneck,
            samples_used: measurement.samples_used,
            adaptive: measurement.adaptive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::FnKernel;
    use crate::options::{Aggregation, MachinePreset};
    use mc_creator::MicroCreator;
    use mc_kernel::builder::load_stream;

    fn movaps_input(unroll: u32) -> KernelInput {
        let desc = load_stream(mc_asm::Mnemonic::Movaps, unroll, unroll);
        let p = MicroCreator::new().generate(&desc).unwrap().programs.remove(0);
        KernelInput::program(p)
    }

    #[test]
    fn sequential_simulated_run_reports_and_verifies() {
        let launcher = MicroLauncher::with_defaults();
        let report = launcher.run(&movaps_input(8)).unwrap();
        assert!(report.cycles_per_iteration > 0.0);
        assert!(report.stable, "deterministic simulation must be stable");
        assert_eq!(report.residence, Some(Level::L1));
        let v = report.verify.as_ref().expect("verification on by default");
        assert!(v.passed, "{}", v.detail);
        assert_eq!(v.memory_ops_per_iteration, 8.0);
        // ~1 cycle/load on the Nehalem load port.
        let cpl = report.cycles_per_iteration / 8.0;
        assert!((0.8..=1.6).contains(&cpl), "cycles/load {cpl}");
    }

    #[test]
    fn profiled_run_records_a_complete_eval_profile() {
        let dir = std::env::temp_dir().join(format!("mc_profiled_run_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let desc = load_stream(mc_asm::Mnemonic::Movaps, 8, 8);
        let program = MicroCreator::new().generate(&desc).unwrap().programs.remove(0);
        let profiler = Arc::new(crate::profile::Profiler::new(&dir).unwrap());
        let ctx = Ctx::new(mc_guard::Guard::default(), Some(profiler.clone()));
        let input = KernelInput::program(program);
        let report = MicroLauncher::with_defaults().run_in(&ctx, &input).unwrap();
        assert_eq!(profiler.kernels(), vec![report.name.clone()], "one evaluation, one profile");
        MicroLauncher::with_defaults().run(&input).unwrap();
        assert_eq!(profiler.len(), 1, "a run without the context records nothing");
        assert_eq!(profiler.finish(Some("run-under-test")), 1);

        let index = std::fs::read_to_string(dir.join("index.jsonl")).unwrap();
        let [line] = index.lines().collect::<Vec<_>>()[..] else {
            panic!("one index entry per profile: {index}");
        };
        let file = line.split("\"file\":\"").nth(1).unwrap().split('"').next().unwrap();
        let profile =
            mc_scope::jsonl::decode(&std::fs::read_to_string(dir.join(file)).unwrap()).unwrap();

        // The profile documents the run it came from.
        assert_eq!(profile.run_id, "run-under-test");
        assert_eq!(profile.kernel, report.name);
        let verdict = profile.verdict().expect("verdict recorded");
        let b = report.bottleneck.as_ref().unwrap();
        assert_eq!(verdict.class, b.class.name());
        assert_eq!(verdict.bound_cycles, b.bound_cycles);
        // And carries the full evidence: instructions, bounds, the
        // scheduler reconstruction, and the cache-access stream.
        assert!(!profile.insts().is_empty());
        assert!(!profile.bounds().is_empty());
        assert!(!profile.timeline().is_empty());
        assert!(!profile.port_windows().is_empty());
        let (_, cache) = profile.cache_stream().expect("cache stream recorded");
        assert!(cache.totals.iter().any(|(_, n)| *n > 0), "{cache:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let launcher = MicroLauncher::with_defaults();
        let report = launcher.run(&movaps_input(4)).unwrap();
        let header_fields = RunReport::csv_header().split(',').count();
        assert_eq!(report.csv_row().split(',').count(), header_fields);
    }

    #[test]
    fn simulated_runs_carry_attribution_into_the_csv() {
        let r = MicroLauncher::with_defaults().run(&movaps_input(8)).unwrap();
        let b = r.bottleneck.expect("simulated runs are attributed");
        assert_eq!(b.class.name(), "load-port", "{b:?}");
        assert!(b.bound_cycles > 0.0);
        let row = r.csv_row();
        assert!(row.contains(",load-port,"), "{row}");
        assert!(row.ends_with(",ok"), "{row}");
        // Last three fields are bound_share, samples_used, status.
        let share: f64 = row.rsplit(',').nth(2).unwrap().parse().unwrap();
        assert!((0.0..=1.0).contains(&share), "share {share}");
    }

    #[test]
    fn failed_rows_match_header_arity_and_carry_status() {
        let opts = LauncherOptions::default();
        let row = RunReport::failed_csv_row("movaps_u8", "movaps_u8", &opts, "panic");
        let header_fields = RunReport::csv_header().split(',').count();
        assert_eq!(row.split(',').count(), header_fields, "{row}");
        assert!(row.ends_with(",panic"), "{row}");
        assert!(row.starts_with("movaps_u8,movaps_u8,"), "{row}");
    }

    #[test]
    fn adaptive_run_settles_early_and_matches_fixed_mode() {
        // The simulator is quiet: adaptive mode must stop at the floor,
        // report the same cycles as fixed mode, and record samples_used
        // in the CSV row.
        let fixed_opts = LauncherOptions::default();
        let fixed = MicroLauncher::new(fixed_opts.clone()).run(&movaps_input(8)).unwrap();
        assert_eq!(fixed.samples_used, fixed_opts.meta_repetitions);
        assert!(!fixed.adaptive);

        let adaptive_opts = LauncherOptions {
            adaptive: true,
            min_samples: 2,
            max_samples: 8,
            ..LauncherOptions::default()
        };
        let adaptive = MicroLauncher::new(adaptive_opts).run(&movaps_input(8)).unwrap();
        assert!(adaptive.adaptive);
        assert_eq!(adaptive.samples_used, 2, "quiet simulation settles at the floor");
        assert_eq!(adaptive.cycles_per_iteration, fixed.cycles_per_iteration);
        let row = adaptive.csv_row();
        assert!(row.ends_with(",2,ok"), "samples_used lands in the CSV: {row}");
    }

    #[test]
    fn noise_is_defeated_by_min_aggregation() {
        let quiet_opts = LauncherOptions { meta_repetitions: 16, ..LauncherOptions::default() };
        let quiet = MicroLauncher::new(quiet_opts.clone()).run(&movaps_input(8)).unwrap();

        let mut noisy_opts = quiet_opts;
        noisy_opts.noise_amplitude = 0.4;
        noisy_opts.aggregation = Aggregation::Min;
        let noisy = MicroLauncher::new(noisy_opts).run(&movaps_input(8)).unwrap();
        let rel = (noisy.cycles_per_iteration - quiet.cycles_per_iteration).abs()
            / quiet.cycles_per_iteration;
        assert!(rel < 0.05, "stability protocol failed: {rel}");
    }

    #[test]
    fn fork_mode_on_ram_shows_contention() {
        let mut o = LauncherOptions { residence: Some(Level::Ram), ..LauncherOptions::default() };
        let seq = MicroLauncher::new(o.clone()).run(&movaps_input(8)).unwrap();
        o.mode = Mode::Fork;
        o.cores = 12;
        let forked = MicroLauncher::new(o).run(&movaps_input(8)).unwrap();
        assert!(
            forked.cycles_per_iteration > seq.cycles_per_iteration * 1.5,
            "12-core RAM streaming must contend: {} vs {}",
            forked.cycles_per_iteration,
            seq.cycles_per_iteration
        );
        assert_eq!(forked.pin_cores.len(), 12);
    }

    #[test]
    fn openmp_mode_reports_region_time() {
        let o = LauncherOptions {
            mode: Mode::OpenMp,
            omp_threads: 4,
            machine: MachinePreset::SandyBridgeE31240,
            residence: Some(Level::L3),
            ..LauncherOptions::default()
        };
        let r = MicroLauncher::new(o).run(&movaps_input(4)).unwrap();
        let region = r.region_seconds.expect("OpenMP reports region time");
        assert!(region > 0.0);
        assert_eq!(r.workers, 4);
    }

    #[test]
    fn standalone_mode_times_whole_program() {
        let o = LauncherOptions { mode: Mode::Standalone, ..LauncherOptions::default() };
        let launcher = MicroLauncher::new(o);
        let desc = load_stream(mc_asm::Mnemonic::Movss, 2, 2);
        let p = MicroCreator::new().generate(&desc).unwrap().programs.remove(0);
        let input = KernelInput::standalone(p, 1_000_000);
        let r = launcher.run(&input).unwrap();
        assert_eq!(r.mode, Mode::Standalone);
        assert!(r.seconds_full_function > 0.0);
    }

    #[test]
    fn native_kernel_measures_on_host() {
        let o = LauncherOptions {
            repetitions: 4,
            meta_repetitions: 3,
            vector_bytes: 4 << 10,
            ..LauncherOptions::default()
        };
        let launcher = MicroLauncher::new(o);
        let input = KernelInput::native(FnKernel::new("touch", |n, arrays| {
            let a = &mut arrays[0];
            for v in a.iter_mut().take(n) {
                *v += 1.0;
            }
            n
        }));
        let r = launcher.run(&input).unwrap();
        assert!(r.cycles_per_iteration >= 0.0);
        assert_eq!(r.name, "touch");
        assert!(r.residence.is_none(), "native runs have no modelled residence");
    }

    #[test]
    fn frequency_option_scales_l1_results() {
        let mut o = LauncherOptions::default();
        let base = MicroLauncher::new(o.clone()).run(&movaps_input(8)).unwrap();
        o.frequency_ghz = 1.6;
        let slow = MicroLauncher::new(o).run(&movaps_input(8)).unwrap();
        let ratio = slow.cycles_per_iteration / base.cycles_per_iteration;
        assert!(ratio > 1.4, "L1-resident run must scale with core frequency: {ratio}");
    }

    #[test]
    fn cache_heating_absorbs_the_cold_start() {
        // §4.7: "Inner core stability issues are handled by heating the
        // instruction and data cache." Without the warm-up call, the mean
        // over experiments carries the compulsory-miss cost; with it (or
        // with min aggregation) the cold start never reaches the report.
        let base = LauncherOptions {
            aggregation: Aggregation::Mean,
            repetitions: 2,
            meta_repetitions: 4,
            ..LauncherOptions::default()
        };
        let heated = MicroLauncher::new(base.clone()).run(&movaps_input(8)).unwrap();
        let mut cold_opts = base.clone();
        cold_opts.heat_cache = false;
        let cold = MicroLauncher::new(cold_opts).run(&movaps_input(8)).unwrap();
        assert!(
            cold.cycles_per_iteration > heated.cycles_per_iteration * 1.05,
            "cold start must leak into the unheated mean: {} vs {}",
            cold.cycles_per_iteration,
            heated.cycles_per_iteration
        );
        // The min aggregation recovers the warm value even without heating.
        let mut cold_min = base;
        cold_min.heat_cache = false;
        cold_min.aggregation = Aggregation::Min;
        let recovered = MicroLauncher::new(cold_min).run(&movaps_input(8)).unwrap();
        let rel = (recovered.cycles_per_iteration - heated.cycles_per_iteration).abs()
            / heated.cycles_per_iteration;
        assert!(rel < 0.02, "min aggregation recovers the warm cost: {rel}");
    }

    #[test]
    fn full_function_seconds_accumulate_over_all_timed_calls() {
        let o =
            LauncherOptions { repetitions: 8, meta_repetitions: 4, ..LauncherOptions::default() };
        let r = MicroLauncher::new(o.clone()).run(&movaps_input(4)).unwrap();
        // 32 timed calls; each takes iterations × cycles/iter at 2.67 GHz
        // plus the per-call entry cost the protocol calibrates away from
        // the per-iteration number (but which full-function time keeps).
        let iterations = 4096 / 16; // full traversal of the L1 working set
        let per_call = r.cycles_per_iteration * iterations as f64 / 2.67e9;
        let expected = per_call * f64::from(o.repetitions * o.meta_repetitions);
        assert!(
            r.seconds_full_function >= expected,
            "full-function {} must include call overhead beyond {expected}",
            r.seconds_full_function
        );
        assert!(
            r.seconds_full_function < expected * 1.25,
            "full-function {} should stay near {expected}",
            r.seconds_full_function
        );
    }

    #[test]
    fn energy_is_reported_and_grows_with_hierarchy_depth() {
        let energy_at = |level| {
            let o = LauncherOptions {
                residence: Some(level),
                verify: false,
                ..LauncherOptions::default()
            };
            MicroLauncher::new(o)
                .run(&movaps_input(8))
                .unwrap()
                .energy_nj_per_iteration
                .expect("simulated runs report energy")
        };
        let l1 = energy_at(Level::L1);
        let ram = energy_at(Level::Ram);
        assert!(ram > 2.0 * l1, "RAM {ram} nJ vs L1 {l1} nJ");
        // And it lands in the CSV row.
        let r = MicroLauncher::with_defaults().run(&movaps_input(8)).unwrap();
        let row = r.csv_row();
        let energy_field = row.split(',').nth(6).unwrap();
        assert!(energy_field.parse::<f64>().is_ok(), "csv energy field: {energy_field}");
    }

    #[test]
    fn cache_verification_confirms_residence_on_every_level() {
        use mc_simarch::config::Level;
        for level in [Level::L1, Level::L2, Level::L3] {
            let o = LauncherOptions {
                residence: Some(level),
                verify_cache: true,
                repetitions: 2,
                meta_repetitions: 2,
                ..LauncherOptions::default()
            };
            let r = MicroLauncher::new(o).run(&movaps_input(4)).unwrap();
            let v = r.verify.unwrap();
            assert!(v.passed, "{}: {}", level.name(), v.detail);
            assert_eq!(v.observed_residence, Some(level.name()));
        }
    }

    #[test]
    fn truncated_cache_trace_is_a_problem_not_a_verdict() {
        let desc = load_stream(mc_asm::Mnemonic::Movaps, 4, 4);
        let p = MicroCreator::new().generate(&desc).unwrap().programs.remove(0);
        let o = LauncherOptions { verify_cache: true, ..LauncherOptions::default() };
        let env = KernelEnvironment::prepare(&o, &p).unwrap();
        let launcher = MicroLauncher::new(o);
        // The full L1 traversal makes 1024 loads: a cap of 1024 holds them.
        let mut problems = Vec::new();
        let observed = launcher.verify_residence(&p, &env, 1024, &mut problems);
        assert_eq!((observed, problems.len()), (Some("L1"), 0), "{problems:?}");
        let observed = launcher.verify_residence(&p, &env, 1023, &mut problems);
        assert_eq!(observed, None, "a prefix is not judged");
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("more than 1023 memory accesses"), "{}", problems[0]);
    }

    #[test]
    fn verification_catches_broken_kernels() {
        // A kernel whose loop never terminates (increment 0 would be
        // rejected at description level; instead break the branch).
        let desc = load_stream(mc_asm::Mnemonic::Movss, 1, 1);
        let mut p = MicroCreator::new().generate(&desc).unwrap().programs.remove(0);
        // Make the branch unconditional: loop forever.
        if let Some(mc_asm::format::AsmLine::Inst(inst)) = p.lines.last_mut() {
            inst.mnemonic = mc_asm::Mnemonic::Jmp;
        }
        let o = LauncherOptions { max_interp_steps: 10_000, ..LauncherOptions::default() };
        let r = MicroLauncher::new(o).run(&KernelInput::program(p)).unwrap();
        let v = r.verify.unwrap();
        assert!(!v.passed);
        assert!(v.detail.contains("did not exit"), "{}", v.detail);
    }
}
