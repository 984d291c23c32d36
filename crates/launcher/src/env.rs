//! Execution environment: array allocation with alignment, pinning, and
//! the interpreter setup implementing the MicroLauncher calling
//! convention.

use crate::options::LauncherOptions;
use mc_asm::reg::GprName;
use mc_creator::passes::regalloc::ARRAY_REGS;
use mc_kernel::Program;
use mc_ompsim::pinning::PinMap;
use mc_simarch::config::MachineConfig;
use mc_simarch::exec::{EnvPlacement, Workload};
use mc_simarch::interp::Interpreter;

/// One allocated data array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayAllocation {
    /// Page-aligned allocation base.
    pub base: u64,
    /// Alignment offset added to the base (the launcher's per-array knob).
    pub offset: u64,
    /// Usable bytes.
    pub bytes: u64,
}

impl ArrayAllocation {
    /// The pointer handed to the kernel.
    pub fn pointer(&self) -> u64 {
        self.base + self.offset
    }
}

/// The prepared environment for one run.
#[derive(Debug, Clone)]
pub struct KernelEnvironment {
    /// The machine model (a static preset, borrowed).
    pub machine: &'static MachineConfig,
    /// Allocated arrays, in kernel argument order.
    pub arrays: Vec<ArrayAllocation>,
    /// Trip count `n` (elements).
    pub trip_count: u64,
    /// Worker→core pinning.
    pub pin: PinMap,
    /// Whether (simulated) interrupts are masked during measurement.
    pub interrupts_disabled: bool,
}

impl KernelEnvironment {
    /// Builds the environment for a program under the given options.
    ///
    /// Array sizing: explicit `--vector-bytes` wins; otherwise the
    /// `--residence` level's working set (paper §5.1 convention) divided
    /// across the program's arrays; otherwise L1.
    pub fn prepare(options: &LauncherOptions, program: &Program) -> Result<Self, String> {
        let machine = options.machine.config();
        let nb_arrays = program.nb_arrays.max(1) as u64;
        let per_array_bytes = if options.vector_bytes > 0 {
            options.vector_bytes
        } else {
            let level = options.residence.unwrap_or(mc_simarch::config::Level::L1);
            (machine.working_set_for(level) / nb_arrays).max(64)
        };
        let element_bytes =
            if options.element_bytes > 0 { options.element_bytes } else { program.element_bytes }
                as u64;

        // Arrays spaced a page past their size so offsets never overlap.
        let mut arrays = Vec::with_capacity(nb_arrays as usize);
        let slot = (per_array_bytes + 2 * 4096).next_multiple_of(4096);
        for i in 0..nb_arrays {
            let offset = options.alignments.get(i as usize).copied().unwrap_or(0);
            arrays.push(ArrayAllocation {
                base: 0x1000_0000 + i * slot,
                offset,
                bytes: per_array_bytes,
            });
        }

        let elements = per_array_bytes / element_bytes.max(1);
        let epi = program.elements_per_iteration.max(1);
        let trip_count = if options.trip_count > 0 {
            options.trip_count
        } else {
            // Full traversal of one array, rounded down to whole loop
            // iterations.
            (elements / epi).max(1) * epi
        };

        let workers = match options.mode {
            crate::options::Mode::Fork => options.cores.max(1),
            crate::options::Mode::OpenMp => options.omp_threads.max(1),
            _ => 1,
        };
        let pin = if workers == 1 {
            PinMap::single(options.pin_core)
        } else {
            match options.placement {
                EnvPlacement::RoundRobinSockets => {
                    PinMap::round_robin(workers, machine.sockets, machine.cores_per_socket)
                }
                EnvPlacement::FillFirstSocket => {
                    PinMap::compact(workers, machine.sockets, machine.cores_per_socket)
                }
            }
        };
        if !pin.is_exclusive() {
            return Err("pinning assigns two workers to one core".into());
        }

        Ok(KernelEnvironment {
            machine,
            arrays,
            trip_count,
            pin,
            interrupts_disabled: options.disable_interrupts,
        })
    }

    /// Total working-set bytes.
    pub fn working_set_bytes(&self) -> u64 {
        self.arrays.iter().map(|a| a.bytes).sum()
    }

    /// The simulator workload for this environment.
    pub fn workload(&self) -> Workload {
        Workload::with_bytes(self.working_set_bytes())
            .aligned(self.arrays.iter().map(|a| a.offset).collect())
    }

    /// Prepares an interpreter per the §4.4 linkage: trip count in `%rdi`
    /// (pre-decremented by one loop pass, as the emitted prologue does)
    /// and array pointers in the `ARRAY_REGS` binding order.
    pub fn interpreter(&self, program: &Program) -> Interpreter {
        let mut interp = Interpreter::new();
        let epi = program.elements_per_iteration.max(1);
        interp.set_gpr(GprName::Rdi, self.trip_count.saturating_sub(epi));
        for (i, array) in self.arrays.iter().enumerate() {
            if let Some(&reg) = ARRAY_REGS.get(i) {
                interp.set_gpr(reg, array.pointer());
            }
        }
        interp
    }

    /// The verify-input fingerprint: FNV over exactly what interpreter
    /// verification reads besides the program — the trip count, every
    /// array's base/offset/bytes, the step cap, the cache-replay toggle
    /// and the machine preset. Frequency, cores, pinning, seed, noise and
    /// the sampling policy never reach it, so a frequency or core sweep
    /// verifies each program once. An option that changes verification
    /// must act through this environment (as `--tripcount`, `--residence`
    /// and `--vector-bytes` do) or be folded in here.
    pub fn verify_fingerprint(&self, options: &LauncherOptions) -> u64 {
        let mut key = mc_report::Fnv64::new()
            .bytes(options.machine.name().as_bytes())
            .u64(options.max_interp_steps)
            .u64(u64::from(options.verify_cache))
            .u64(self.trip_count)
            .u64(self.arrays.len() as u64);
        for array in &self.arrays {
            key = key.u64(array.base).u64(array.offset).u64(array.bytes);
        }
        key.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{LauncherOptions, Mode};
    use mc_creator::MicroCreator;
    use mc_kernel::builder::{load_stream, multi_array_traversal};
    use mc_simarch::config::Level;

    fn movaps_program() -> Program {
        let desc = load_stream(mc_asm::Mnemonic::Movaps, 4, 4);
        MicroCreator::new().generate(&desc).unwrap().programs.remove(0)
    }

    #[test]
    fn default_environment_is_l1_sized() {
        let p = movaps_program();
        let env = KernelEnvironment::prepare(&LauncherOptions::default(), &p).unwrap();
        assert_eq!(env.arrays.len(), 1);
        assert_eq!(env.working_set_bytes(), 16 << 10, "half of 32 KiB L1");
        assert_eq!(env.machine.residence(env.working_set_bytes()), Level::L1);
        // Full traversal: 4096 floats, 16 per iteration.
        assert_eq!(env.trip_count, 4096);
    }

    #[test]
    fn residence_option_sizes_arrays() {
        let p = movaps_program();
        let o = LauncherOptions { residence: Some(Level::Ram), ..LauncherOptions::default() };
        let env = KernelEnvironment::prepare(&o, &p).unwrap();
        assert_eq!(env.machine.residence(env.working_set_bytes()), Level::Ram);
    }

    #[test]
    fn multi_array_split_and_alignment() {
        let desc = multi_array_traversal(mc_asm::Mnemonic::Movss, 4);
        let p = MicroCreator::new().generate(&desc).unwrap().programs.remove(0);
        let o =
            LauncherOptions { alignments: vec![0, 512, 1024, 1536], ..LauncherOptions::default() };
        let env = KernelEnvironment::prepare(&o, &p).unwrap();
        assert_eq!(env.arrays.len(), 4);
        let offsets: Vec<u64> = env.arrays.iter().map(|a| a.offset).collect();
        assert_eq!(offsets, vec![0, 512, 1024, 1536]);
        // Bases don't collide even with offsets applied.
        for w in env.arrays.windows(2) {
            assert!(w[0].pointer() + w[0].bytes <= w[1].base);
        }
        assert_eq!(env.workload().alignments, offsets);
    }

    #[test]
    fn explicit_vector_bytes_win() {
        let p = movaps_program();
        let o = LauncherOptions {
            vector_bytes: 1 << 20,
            residence: Some(Level::L1),
            ..LauncherOptions::default()
        };
        let env = KernelEnvironment::prepare(&o, &p).unwrap();
        assert_eq!(env.working_set_bytes(), 1 << 20);
    }

    #[test]
    fn fork_mode_pins_round_robin() {
        let p = movaps_program();
        let o = LauncherOptions { mode: Mode::Fork, cores: 6, ..LauncherOptions::default() };
        let env = KernelEnvironment::prepare(&o, &p).unwrap();
        assert_eq!(env.pin.len(), 6);
        assert!(env.pin.is_exclusive());
        let sockets = env.pin.sockets(env.machine.cores_per_socket);
        assert_eq!(sockets.iter().filter(|&&s| s == 0).count(), 3);
    }

    #[test]
    fn interpreter_runs_full_traversal() {
        let p = movaps_program();
        let env = KernelEnvironment::prepare(&LauncherOptions::default(), &p).unwrap();
        let mut interp = env.interpreter(&p);
        let outcome = interp.run(&p, 10_000_000);
        assert_eq!(outcome.stop, mc_simarch::interp::StopReason::FellThrough);
        assert_eq!(outcome.loop_iterations, env.trip_count / p.elements_per_iteration);
        // Footprint equals the array size in lines.
        assert_eq!(outcome.unique_lines, env.working_set_bytes() / 64);
    }

    fn verify_key(options: &LauncherOptions, program: &Program) -> u64 {
        KernelEnvironment::prepare(options, program).unwrap().verify_fingerprint(options)
    }

    #[test]
    fn verify_key_ignores_what_verification_never_reads() {
        let p = movaps_program();
        let base = LauncherOptions::default();
        let key = verify_key(&base, &p);
        let unread = [
            LauncherOptions { frequency_ghz: 1.6, ..base.clone() },
            LauncherOptions { cores: 4, ..base.clone() },
            LauncherOptions { mode: Mode::Fork, cores: 4, ..base.clone() },
            LauncherOptions { seed: 7, ..base.clone() },
            LauncherOptions { noise_amplitude: 0.2, ..base.clone() },
            LauncherOptions { repetitions: 9, ..base.clone() },
            LauncherOptions { adaptive: true, ..base.clone() },
        ];
        for options in &unread {
            assert_eq!(verify_key(options, &p), key, "{options:?}");
        }
    }

    #[test]
    fn verify_key_separates_every_verify_input() {
        use crate::options::MachinePreset;
        let p = movaps_program();
        let base = LauncherOptions::default();
        let variants = [
            base.clone(),
            LauncherOptions { trip_count: 160, ..base.clone() },
            LauncherOptions { alignments: vec![64], ..base.clone() },
            LauncherOptions { vector_bytes: 1 << 20, ..base.clone() },
            LauncherOptions { residence: Some(Level::L2), ..base.clone() },
            LauncherOptions { element_bytes: 8, ..base.clone() },
            LauncherOptions { max_interp_steps: 10_000, ..base.clone() },
            LauncherOptions { verify_cache: true, ..base.clone() },
            LauncherOptions { machine: MachinePreset::SandyBridgeE31240, ..base.clone() },
        ];
        let keys: std::collections::HashSet<u64> =
            variants.iter().map(|o| verify_key(o, &p)).collect();
        assert_eq!(keys.len(), variants.len(), "two verify inputs share a key");
    }

    #[test]
    fn verify_key_is_pinned() {
        // Golden value: the default options on the canonical 4x-unrolled
        // movaps stream — FNV-1a over "x5650", then the little-endian
        // u64s 50_000_000 (step cap), 0 (no cache replay), 4096 (trip),
        // 1 (arrays), 0x1000_0000 (base), 0 (offset), 16384 (bytes).
        // A change here changes which evaluations share a verification;
        // make it on purpose.
        let p = movaps_program();
        assert_eq!(verify_key(&LauncherOptions::default(), &p), 0x3b79_8360_d2d3_926c);
    }

    #[test]
    fn explicit_trip_count_wins() {
        let p = movaps_program();
        let o = LauncherOptions { trip_count: 160, ..LauncherOptions::default() };
        let env = KernelEnvironment::prepare(&o, &p).unwrap();
        assert_eq!(env.trip_count, 160);
    }
}
