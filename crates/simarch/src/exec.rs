//! The timing engine: combines the port, dependency, memory, alignment,
//! contention and frequency models into a cycles-per-iteration estimate
//! for a generated program.

use crate::align::{alignment_effect, ArrayPlacement};
use crate::config::{Level, MachineConfig};
use crate::deps::{self, LoopBody};
use crate::memory::{memory_cost, Stream};
use crate::multicore::Placement;
use crate::ports::PortPressure;
use crate::uops::decompose;
use mc_asm::inst::Inst;
use mc_asm::reg::Reg;
use mc_kernel::Program;
use mc_scope::{NoopSink, ScopeSink};

/// Re-export of the placement policy for launcher convenience.
pub type EnvPlacement = Placement;

/// The data arrays a run touches.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Total working-set bytes (all arrays); decides the residence level.
    pub working_set_bytes: u64,
    /// Per-array alignment offsets, in the program's array binding order.
    /// Missing entries default to 0 (page-aligned).
    pub alignments: Vec<u64>,
}

impl Workload {
    /// A workload resident at `level` on `machine`, using the paper's §5.1
    /// sizing convention, with page-aligned arrays.
    pub fn resident_at(machine: &MachineConfig, level: Level) -> Self {
        Workload { working_set_bytes: machine.working_set_for(level), alignments: Vec::new() }
    }

    /// A workload of explicit size.
    pub fn with_bytes(bytes: u64) -> Self {
        Workload { working_set_bytes: bytes, alignments: Vec::new() }
    }

    /// Sets per-array alignment offsets.
    pub fn aligned(mut self, alignments: Vec<u64>) -> Self {
        self.alignments = alignments;
        self
    }
}

/// Execution environment: machine, DVFS state and core population.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecEnv {
    /// The machine model.
    pub machine: MachineConfig,
    /// Current core frequency in GHz (defaults to nominal).
    pub core_ghz: f64,
    /// Number of cores running a copy of the kernel (fork mode).
    pub active_cores: u32,
    /// Placement of those cores over sockets.
    pub placement: Placement,
}

impl ExecEnv {
    /// Single-core execution at nominal frequency.
    pub fn single_core(machine: MachineConfig) -> Self {
        ExecEnv {
            core_ghz: machine.nominal_ghz,
            machine,
            active_cores: 1,
            placement: Placement::RoundRobinSockets,
        }
    }

    /// Fork-mode execution on `n` cores.
    pub fn forked(machine: MachineConfig, n: u32) -> Self {
        ExecEnv {
            core_ghz: machine.nominal_ghz,
            machine,
            active_cores: n,
            placement: Placement::RoundRobinSockets,
        }
    }

    /// Overrides the core frequency (Figure 13 sweeps).
    pub fn at_frequency(mut self, ghz: f64) -> Self {
        self.core_ghz = ghz;
        self
    }
}

/// The individual bounds that entered the estimate, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimingBounds {
    /// Front-end fused-µop bound (core cycles / iteration).
    pub frontend: f64,
    /// Execution-port bound (core cycles / iteration).
    pub ports: f64,
    /// Loop-carried dependency bound (core cycles / iteration).
    pub recurrence: f64,
    /// Core-domain memory cost (core cycles / iteration).
    pub memory_core: f64,
    /// Uncore memory cost (ns / iteration), before contention.
    pub memory_uncore_ns: f64,
    /// Multi-core bandwidth contention multiplier (≥ 1).
    pub contention: f64,
    /// Alignment penalty multiplier (≥ 1).
    pub alignment: f64,
}

/// The estimate for one program under one workload and environment.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Reference (`rdtsc`) cycles per loop iteration.
    pub cycles_per_iteration: f64,
    /// Wall-clock seconds per loop iteration.
    pub seconds_per_iteration: f64,
    /// Residence level of the working set.
    pub residence: Level,
    /// The contributing bounds.
    pub bounds: TimingBounds,
    /// Per-class µop pressure of the loop — the decomposition behind
    /// `bounds.ports`, kept so the insight layer can name the binding
    /// port class without re-walking the program.
    pub pressure: PortPressure,
    /// The core frequency the estimate ran at, in GHz. Core-domain bounds
    /// are in core cycles; converting them to reference cycles needs this.
    pub core_ghz: f64,
}

impl TimingReport {
    /// Reference cycles per memory instruction (the paper's "cycles per
    /// load" metric in Figures 11–13).
    pub fn cycles_per_memory_instruction(&self, memory_instructions: usize) -> f64 {
        self.cycles_per_iteration / memory_instructions.max(1) as f64
    }
}

/// Per-base-register stream extracted from a program body.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamInfo {
    /// The base (array pointer) register.
    pub reg: Reg,
    /// Bytes loaded per iteration.
    pub load_bytes: f64,
    /// Bytes stored per iteration.
    pub store_bytes: f64,
    /// Bytes of one access.
    pub access_bytes: f64,
    /// Bytes the pointer advances per loop iteration.
    pub advance_per_iter: u64,
    /// Number of accesses per iteration.
    pub accesses: u32,
    /// True when every store on this stream is non-temporal.
    pub streaming_store: bool,
}

impl StreamInfo {
    /// Address stride between consecutive accesses.
    pub fn stride_bytes(&self) -> u64 {
        if self.accesses == 0 {
            return 1;
        }
        (self.advance_per_iter / u64::from(self.accesses)).max(1)
    }
}

/// Groups a loop's memory instructions into per-array streams. `insts` is
/// the whole loop in program order ([`Program::instructions`]).
pub fn extract_streams(insts: &[&Inst]) -> Vec<StreamInfo> {
    let mut streams: Vec<StreamInfo> = Vec::new();
    for inst in Program::body_of(insts) {
        let (mem, load) = match (inst.load_ref(), inst.store_ref()) {
            (Some(m), _) => (m, true),
            (None, Some(m)) => (m, false),
            (None, None) => continue,
        };
        let Some(base) = mem.base else { continue };
        let bytes = f64::from(if load { inst.load_bytes() } else { inst.store_bytes() });
        let entry = match streams.iter_mut().find(|s| s.reg == base) {
            Some(e) => e,
            None => {
                streams.push(StreamInfo {
                    reg: base,
                    load_bytes: 0.0,
                    store_bytes: 0.0,
                    access_bytes: bytes,
                    advance_per_iter: 0,
                    accesses: 0,
                    streaming_store: true,
                });
                streams.last_mut().expect("just pushed")
            }
        };
        if load {
            entry.load_bytes += bytes;
        } else {
            entry.store_bytes += bytes;
            let nt = inst.mnemonic.mem_move().is_some_and(|m| m.streaming);
            entry.streaming_store &= nt;
        }
        entry.access_bytes = entry.access_bytes.max(bytes);
        entry.accesses += 1;
    }
    // Pointer advances come from the induction updates in the tail.
    for inst in insts {
        let delta =
            match (inst.mnemonic, inst.operands.first().and_then(mc_asm::inst::Operand::as_imm)) {
                (mc_asm::Mnemonic::Add(_), Some(v)) => v,
                (mc_asm::Mnemonic::Sub(_), Some(v)) => -v,
                _ => continue,
            };
        if let Some(Reg::Gpr(g)) = inst.dst().and_then(mc_asm::inst::Operand::as_reg) {
            for s in &mut streams {
                if let Reg::Gpr(sg) = s.reg {
                    if sg.name == g.name {
                        s.advance_per_iter = delta.unsigned_abs();
                    }
                }
            }
        }
    }
    streams
}

/// Estimates the steady-state cost of one loop iteration.
pub fn estimate(program: &Program, workload: &Workload, env: &ExecEnv) -> TimingReport {
    estimate_with_scope(program, workload, env, &mut NoopSink)
}

/// [`estimate`], additionally emitting the estimate's internals to a
/// profile sink.
///
/// Every emit site is guarded by [`ScopeSink::enabled`] and feeds the
/// sink values the estimate computes anyway, so with the [`NoopSink`]
/// this *is* `estimate` — same arithmetic, bit-identical report.
pub fn estimate_with_scope(
    program: &Program,
    workload: &Workload,
    env: &ExecEnv,
    sink: &mut dyn ScopeSink,
) -> TimingReport {
    let machine = &env.machine;
    let insts: Vec<&Inst> = program.instructions().collect();

    // Core-side bounds over the whole loop (body + updates + branch).
    let pressure = PortPressure::of(&insts);
    let frontend = pressure.frontend_cycles(machine);
    let ports = pressure.bound_cycles(machine);
    // The branch ends the iteration; recurrence flows through the rest.
    let body =
        LoopBody::lower(insts.iter().copied().enumerate().filter(|(_, i)| !i.mnemonic.is_branch()));
    let chain = body.recurrence();
    let recurrence = chain.bound;

    // Memory side.
    let residence = machine.residence(workload.working_set_bytes);
    let streams = extract_streams(&insts);
    let mem_streams: Vec<Stream> = streams
        .iter()
        .map(|s| Stream {
            load_bytes_per_iteration: s.load_bytes,
            store_bytes_per_iteration: s.store_bytes,
            streaming_store: s.streaming_store,
            access_bytes: s.access_bytes,
            stride_bytes: s.stride_bytes(),
            dependent: false,
        })
        .collect();
    let mem = memory_cost(machine, residence, &mem_streams);

    // Alignment.
    let placements: Vec<ArrayPlacement> = streams
        .iter()
        .enumerate()
        .map(|(i, s)| ArrayPlacement {
            offset: workload.alignments.get(i).copied().unwrap_or(0),
            stored: s.store_bytes > 0.0,
            access_bytes: s.access_bytes as u64,
        })
        .collect();
    let align = alignment_effect(machine, &placements);

    // Loop control partially serializes with the body (amortized away by
    // unrolling — the mechanism behind Figure 5's matmul gain). The
    // alignment penalty degrades only the memory path: a dependency- or
    // port-bound kernel shrugs it off (Figure 4) while a bandwidth-bound
    // one eats it whole (Figures 15/16).
    let loop_control = machine.loop_control_overhead_cycles * pressure.branches;
    let core_cycles_base =
        frontend.max(ports).max(recurrence).max(mem.core_cycles * align.memory_factor.max(1.0))
            + align.extra_core_cycles
            + loop_control;
    let core_secs = core_cycles_base / (env.core_ghz * 1e9);
    let uncore_base_secs = mem.uncore_ns * 1e-9;

    // Contention: traffic through socket-shared resources (L3, RAM). The
    // worst socket's aggregate demand is capped by its bandwidth, giving
    // the closed form: per-core uncore time cannot drop below
    // `bytes × cores_on_socket / socket_bandwidth`. Below the cap the
    // single-core time stands (Figure 14's flat region); past it every
    // core slows in proportion (the saturated region).
    let mut topology = None;
    let contention = if env.active_cores > 1 && !residence.is_core_domain() {
        let bytes_per_iter: f64 = mem_streams
            .iter()
            .map(|s| {
                let store_factor = if s.streaming_store { 1.0 } else { 2.0 };
                s.load_bytes_per_iteration
                    + s.store_bytes_per_iteration
                        * if residence == Level::Ram { store_factor } else { 1.0 }
            })
            .sum();
        let socket_bw = match residence {
            Level::Ram => machine.ram_socket_bandwidth_gbs,
            Level::L3 => machine.l3_socket_bandwidth_gbs,
            _ => unreachable!("core-domain levels filtered above"),
        };
        let per_socket =
            crate::multicore::cores_per_socket(machine, env.active_cores, env.placement);
        let worst_socket_cores = per_socket.iter().copied().max().unwrap_or(1);
        if sink.enabled() {
            topology = Some(mc_scope::TopologyScope {
                active_cores: env.active_cores,
                sockets: per_socket,
                socket_bandwidth_gbs: socket_bw,
                bytes_per_iteration: bytes_per_iter,
            });
        }
        let capped_ns = bytes_per_iter * f64::from(worst_socket_cores) / socket_bw;
        if uncore_base_secs > 0.0 {
            (capped_ns * 1e-9 / uncore_base_secs).max(1.0)
        } else {
            1.0
        }
    } else {
        1.0
    };
    // Alignment conflicts waste bandwidth even at saturation, so the
    // penalty applies on top of the contention cap.
    let uncore_secs = uncore_base_secs * contention * align.memory_factor.max(1.0);
    let total_secs = core_secs.max(uncore_secs);
    let cycles = total_secs * machine.nominal_ghz * 1e9;

    if mc_trace::metrics_enabled() {
        // Expose the already-computed port pressure and bounds; gauges
        // hold the latest estimate, histograms the distribution across a
        // sweep.
        let metrics = mc_trace::metrics();
        metrics.inc("simarch.estimates", 1);
        metrics.gauge_set("simarch.pressure.loads", pressure.loads);
        metrics.gauge_set("simarch.pressure.stores", pressure.stores);
        metrics.gauge_set("simarch.pressure.fp_add", pressure.fp_add);
        metrics.gauge_set("simarch.pressure.fp_mul", pressure.fp_mul);
        metrics.gauge_set("simarch.pressure.fused_uops", pressure.fused_uops);
        metrics.gauge_set("simarch.bound.frontend", frontend);
        metrics.gauge_set("simarch.bound.ports", ports);
        metrics.gauge_set("simarch.bound.recurrence", recurrence);
        metrics.gauge_set("simarch.bound.contention", contention);
        metrics.observe("simarch.cycles_per_iteration", cycles);
    }

    if sink.enabled() {
        sink.machine(mc_scope::MachineScope {
            name: machine.name.to_string(),
            frontend_width: machine.frontend_width,
            load_ports: machine.load_ports,
            store_ports: machine.store_ports,
            int_alu_ports: machine.int_alu_ports,
            fp_add_ports: machine.fp_add_ports,
            fp_mul_ports: machine.fp_mul_ports,
            div_block_cycles: crate::uops::compute_latency(mc_asm::Mnemonic::Divsd),
            taken_branch_cycles: machine.taken_branch_cycles,
            nominal_ghz: machine.nominal_ghz,
        });
        if let Some(t) = topology {
            sink.topology(t);
        }
        for (index, inst) in insts.iter().enumerate() {
            sink.instruction(mc_scope::InstScope {
                index,
                text: inst.to_string(),
                reads: inst.regs_read().into_iter().map(deps::reg_name).collect(),
                writes: inst.regs_written().into_iter().map(deps::reg_name).collect(),
                fused_uops: u32::from(inst.fused_uops()),
                uops: decompose(inst)
                    .into_iter()
                    .map(|u| mc_scope::UopScope {
                        port: u.port.name().to_string(),
                        latency: u.latency,
                    })
                    .collect(),
            });
        }
        pressure.emit_scope(machine, sink);
        for (name, value) in [
            ("frontend", frontend),
            ("ports", ports),
            ("recurrence", recurrence),
            ("memory_core", mem.core_cycles),
            ("memory_uncore_ns", mem.uncore_ns),
            ("loop_control", loop_control),
            ("alignment_factor", align.memory_factor),
            ("contention_factor", contention),
            ("core_cycles_per_iteration", core_cycles_base),
            ("total_cycles_per_iteration", cycles),
        ] {
            sink.bound(mc_scope::BoundScope { name: name.to_string(), cycles: value });
        }
        sink.note(mc_scope::NoteScope {
            key: "residence".to_string(),
            value: residence.name().to_string(),
        });
        sink.note(mc_scope::NoteScope {
            key: "core_ghz".to_string(),
            value: format!("{}", env.core_ghz),
        });
        if let Some(carrier) = chain.carrier() {
            sink.note(mc_scope::NoteScope {
                key: "recurrence_carrier".to_string(),
                value: carrier,
            });
        }
        body.emit_scope(sink);
    }

    TimingReport {
        cycles_per_iteration: cycles,
        seconds_per_iteration: total_secs,
        residence,
        bounds: TimingBounds {
            frontend,
            ports,
            recurrence,
            memory_core: mem.core_cycles,
            memory_uncore_ns: mem.uncore_ns,
            contention,
            alignment: align.memory_factor,
        },
        pressure,
        core_ghz: env.core_ghz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_asm::inst::Mnemonic;
    use mc_creator::MicroCreator;
    use mc_kernel::builder::load_stream;

    /// Generates the pure-load kernel with the given mnemonic and unroll.
    fn load_program(m: Mnemonic, unroll: u32) -> Program {
        let desc = load_stream(m, unroll, unroll);
        MicroCreator::new().generate(&desc).unwrap().programs.remove(0)
    }

    fn x5650() -> MachineConfig {
        MachineConfig::nehalem_x5650_dual()
    }

    #[test]
    fn stream_extraction_figure8_style() {
        let p = load_program(Mnemonic::Movaps, 3);
        let streams = extract_streams(&p.instructions().collect::<Vec<_>>());
        assert_eq!(streams.len(), 1);
        let s = &streams[0];
        assert_eq!(s.accesses, 3);
        assert_eq!(s.load_bytes, 48.0);
        assert_eq!(s.store_bytes, 0.0);
        assert_eq!(s.access_bytes, 16.0);
        assert_eq!(s.advance_per_iter, 48);
        assert_eq!(s.stride_bytes(), 16);
    }

    #[test]
    fn l1_movaps_loads_are_port_bound() {
        let p = load_program(Mnemonic::Movaps, 8);
        let env = ExecEnv::single_core(x5650());
        let w = Workload::resident_at(&env.machine, Level::L1);
        let r = estimate(&p, &w, &env);
        assert_eq!(r.residence, Level::L1);
        // 8 loads on 1 Nehalem load port ≈ 1 cycle per load.
        let cpl = r.cycles_per_memory_instruction(8);
        assert!((0.9..=1.5).contains(&cpl), "cycles/load {cpl}");
    }

    #[test]
    fn hierarchy_ordering_l1_l2_l3_ram() {
        let p = load_program(Mnemonic::Movaps, 8);
        let env = ExecEnv::single_core(x5650());
        let mut last = 0.0;
        for level in Level::ALL {
            let w = Workload::resident_at(&env.machine, level);
            let r = estimate(&p, &w, &env);
            assert!(r.cycles_per_iteration > last, "{} ≤ previous level", level.name());
            last = r.cycles_per_iteration;
        }
    }

    #[test]
    fn unrolling_amortizes_overhead() {
        // Figures 11/12: cycles per load fall as the unroll factor grows.
        let env = ExecEnv::single_core(x5650());
        let w = Workload::resident_at(&env.machine, Level::L1);
        let u1 =
            estimate(&load_program(Mnemonic::Movaps, 1), &w, &env).cycles_per_memory_instruction(1);
        let u8 =
            estimate(&load_program(Mnemonic::Movaps, 8), &w, &env).cycles_per_memory_instruction(8);
        assert!(u8 < u1, "u8 {u8} must beat u1 {u1}");
        assert!(u1 / u8 >= 1.5, "amortization should be substantial");
    }

    #[test]
    fn ram_movaps_costs_more_than_movss_per_instruction() {
        // §5.1: vectorized RAM accesses pay for 4× the data.
        let env = ExecEnv::single_core(x5650());
        let w = Workload::resident_at(&env.machine, Level::Ram);
        let aps =
            estimate(&load_program(Mnemonic::Movaps, 8), &w, &env).cycles_per_memory_instruction(8);
        let ss =
            estimate(&load_program(Mnemonic::Movss, 8), &w, &env).cycles_per_memory_instruction(8);
        assert!(aps > 2.0 * ss, "movaps {aps} vs movss {ss}");
    }

    #[test]
    fn movaps_still_wins_per_byte_in_l3() {
        // §5.1: "the vectorized version is better since it executes at less
        // than two cycles per load per iteration" vs 1 c/l for movss —
        // i.e. 16 bytes in <2 cycles beats 4 bytes per cycle.
        let env = ExecEnv::single_core(x5650());
        let w = Workload::resident_at(&env.machine, Level::L3);
        let aps = estimate(&load_program(Mnemonic::Movaps, 8), &w, &env);
        let ss = estimate(&load_program(Mnemonic::Movss, 8), &w, &env);
        let aps_per_byte = aps.cycles_per_iteration / 128.0;
        let ss_per_byte = ss.cycles_per_iteration / 32.0;
        assert!(aps_per_byte < ss_per_byte);
        let cpl = aps.cycles_per_memory_instruction(8);
        assert!(cpl < 2.0, "movaps L3 cycles/load {cpl} < 2 (§5.1)");
    }

    #[test]
    fn frequency_moves_l1_but_not_ram() {
        // Figure 13 shape.
        let machine = x5650();
        let p = load_program(Mnemonic::Movaps, 8);
        for (level, should_scale) in [(Level::L1, true), (Level::L2, true), (Level::Ram, false)] {
            let w = Workload::resident_at(&machine, level);
            let fast = estimate(&p, &w, &ExecEnv::single_core(machine.clone()).at_frequency(2.67));
            let slow = estimate(&p, &w, &ExecEnv::single_core(machine.clone()).at_frequency(1.60));
            let ratio = slow.cycles_per_iteration / fast.cycles_per_iteration;
            if should_scale {
                assert!(ratio > 1.4, "{} should scale with frequency: {ratio}", level.name());
            } else {
                assert!((ratio - 1.0).abs() < 0.05, "{} should be flat: {ratio}", level.name());
            }
        }
    }

    #[test]
    fn fork_mode_saturates_past_six_cores() {
        // Figure 14 shape: flat to ~6 cores, then climbing.
        let machine = x5650();
        let p = load_program(Mnemonic::Movaps, 8);
        let w = Workload::resident_at(&machine, Level::Ram);
        let c1 = estimate(&p, &w, &ExecEnv::forked(machine.clone(), 1)).cycles_per_iteration;
        let c4 = estimate(&p, &w, &ExecEnv::forked(machine.clone(), 4)).cycles_per_iteration;
        let c12 = estimate(&p, &w, &ExecEnv::forked(machine.clone(), 12)).cycles_per_iteration;
        assert!((c4 / c1) < 1.15, "4 cores ≈ flat: {}", c4 / c1);
        assert!((c12 / c1) > 1.5, "12 cores saturated: {}", c12 / c1);
    }

    #[test]
    fn alignment_collisions_slow_multi_stream_kernels() {
        use mc_kernel::builder::multi_array_traversal;
        let desc = multi_array_traversal(Mnemonic::Movss, 4);
        let p = MicroCreator::new().generate(&desc).unwrap().programs.remove(0);
        let machine = MachineConfig::nehalem_x7550_quad();
        let env = ExecEnv::forked(machine.clone(), 8);
        let base = Workload::resident_at(&machine, Level::Ram).aligned(vec![0, 1024, 2048, 3072]);
        let clash = Workload::resident_at(&machine, Level::Ram).aligned(vec![0, 0, 0, 0]);
        let good = estimate(&p, &base, &env).cycles_per_iteration;
        let bad = estimate(&p, &clash, &env).cycles_per_iteration;
        assert!(bad / good > 1.2, "alignment swing {} too small", bad / good);
    }

    #[test]
    fn loop_control_term_creates_the_unroll_gain() {
        // With the term zeroed, a recurrence-bound kernel shows no unroll
        // benefit; with it, amortization appears (the Figure 5 mechanism).
        use mc_kernel::builder::matmul_inner;
        let programs: Vec<Program> = {
            let gen = MicroCreator::new().generate(&matmul_inner(200)).unwrap();
            (1..=8)
                .map(|u| gen.programs.iter().find(|p| p.meta.unroll == u).unwrap().clone())
                .collect()
        };
        let gain = |machine: MachineConfig| {
            let env = ExecEnv::single_core(machine);
            let w = Workload::resident_at(&env.machine, Level::L2);
            let per_el = |p: &Program| {
                estimate(p, &w, &env).cycles_per_iteration / p.elements_per_iteration as f64
            };
            (per_el(&programs[0]) - per_el(&programs[7])) / per_el(&programs[0])
        };
        let with_term = gain(x5650());
        let mut no_term = x5650();
        no_term.loop_control_overhead_cycles = 0.0;
        let without_term = gain(no_term);
        assert!(with_term > 0.05, "gain with the term: {with_term}");
        assert!(without_term.abs() < 0.02, "no gain without it: {without_term}");
    }

    #[test]
    fn scoped_estimate_is_bit_identical_to_plain_estimate() {
        // The tentpole contract: with profiling enabled or disabled, the
        // numbers are the same bits.
        let env = ExecEnv::forked(x5650(), 8);
        for (mnemonic, level) in [
            (Mnemonic::Movaps, Level::L1),
            (Mnemonic::Movaps, Level::Ram),
            (Mnemonic::Movss, Level::L3),
        ] {
            let p = load_program(mnemonic, 8);
            let w = Workload::resident_at(&env.machine, level);
            let plain = estimate(&p, &w, &env);
            let noop = estimate_with_scope(&p, &w, &env, &mut mc_scope::NoopSink);
            let mut collector = mc_scope::Collector::new("k");
            let scoped = estimate_with_scope(&p, &w, &env, &mut collector);
            assert_eq!(plain, noop);
            assert_eq!(plain, scoped, "collecting a profile must not move the estimate");
        }
    }

    #[test]
    fn collector_captures_the_estimate_internals() {
        let p = load_program(Mnemonic::Movaps, 8);
        let env = ExecEnv::forked(x5650(), 8);
        let w = Workload::resident_at(&env.machine, Level::Ram);
        let mut collector = mc_scope::Collector::new("fig14");
        let r = estimate_with_scope(&p, &w, &env, &mut collector);
        let profile = collector.finish();
        // Instructions: 8 loads + induction updates + branch.
        assert_eq!(profile.insts().len(), p.instructions().count());
        assert_eq!(profile.port_bounds().len(), 7);
        // The recorded bounds echo the report.
        let bound = |name: &str| {
            profile.bounds().iter().find_map(|(_, b)| (b.name == name).then_some(b.cycles)).unwrap()
        };
        assert_eq!(bound("frontend"), r.bounds.frontend);
        assert_eq!(bound("ports"), r.bounds.ports);
        assert_eq!(bound("recurrence"), r.bounds.recurrence);
        assert_eq!(bound("contention_factor"), r.bounds.contention);
        assert_eq!(bound("total_cycles_per_iteration"), r.cycles_per_iteration);
        // RAM-resident fork mode has a contention topology.
        let topo = profile.records.iter().find_map(|rec| match rec {
            mc_scope::Record::Topology(t) => Some(t),
            _ => None,
        });
        assert_eq!(topo.unwrap().active_cores, 8);
        // Dependency edges and the reconstruction rode along.
        assert!(!profile.dep_edges().is_empty());
        assert!(!profile.timeline().is_empty());
        assert!(!profile.port_windows().is_empty());
        // Residence note names RAM.
        assert!(profile.notes().iter().any(|(_, n)| n.key == "residence" && n.value == "RAM"));
    }

    #[test]
    fn report_bounds_are_populated() {
        let p = load_program(Mnemonic::Movaps, 4);
        let env = ExecEnv::single_core(x5650());
        let w = Workload::resident_at(&env.machine, Level::L2);
        let r = estimate(&p, &w, &env);
        assert!(r.bounds.frontend > 0.0);
        assert!(r.bounds.ports > 0.0);
        assert!(r.bounds.recurrence >= 1.0);
        assert!(r.bounds.memory_core > 0.0);
        assert_eq!(r.bounds.contention, 1.0);
        assert_eq!(r.bounds.alignment, 1.0);
        assert!(r.seconds_per_iteration > 0.0);
        // The pressure decomposition rides along for attribution.
        assert_eq!(r.pressure.loads, 4.0);
        assert_eq!(r.pressure.bound_cycles(&env.machine), r.bounds.ports);
        assert_eq!(r.core_ghz, env.core_ghz);
    }

    /// One random operand of any kind the parser accepts: a GPR view of
    /// any width, an XMM register, an immediate, or a register-based or
    /// absolute memory reference — whether or not it suits the mnemonic.
    fn any_operand(rng: &mut mc_report::rng::SplitMix64) -> String {
        use mc_asm::inst::Width;
        use mc_asm::reg::GprName;
        use mc_report::prop::pick;
        let gpr = |rng: &mut mc_report::rng::SplitMix64| {
            let width = pick(rng, &[Width::Q, Width::L, Width::W, Width::B]);
            pick(rng, &GprName::ALL).name_for_width(width)
        };
        match rng.gen_range(0..6) {
            0 => format!("%{}", gpr(rng)),
            1 => format!("%xmm{}", rng.gen_range(0..16u8)),
            2 => format!("${}", rng.gen_range(-1024..1024i64)),
            3 => format!("{}(%{})", rng.gen_range(-64..64i64), gpr(rng)),
            4 => format!("(%{},%{},{})", gpr(rng), gpr(rng), pick(rng, &[1, 2, 4, 8])),
            _ => format!("{}", rng.gen_range(1..4096i64)),
        }
    }

    #[test]
    fn estimate_never_panics_on_a_parsed_listing() {
        use mc_report::prop::pick;
        const MNEMONICS: &[&str] = &[
            "movss", "movsd", "movaps", "movapd", "movups", "movupd", "movdqa", "movdqu",
            "movntps", "movntpd", "addss", "addsd", "addps", "addpd", "subss", "subsd", "subps",
            "subpd", "mulss", "mulsd", "mulps", "mulpd", "divss", "divsd", "divps", "divpd",
            "xorps", "xorpd", "sqrtsd", "maxsd", "minsd", "addq", "subl", "imulw", "andb", "orq",
            "xorl", "cmpq", "testl", "movq", "movb", "leaq", "shlq", "shrl",
        ];
        const UNARY: &[&str] = &["incq", "decl", "negq"];
        const BRANCHES: &[&str] = &["jmp", "jge", "jne", "jl", "jae", "jns"];
        let machines = MachineConfig::table1();
        let mut parsed = 0;
        mc_report::prop::check(300, |rng| {
            let mut text = String::new();
            for _ in 0..rng.gen_range(0..14) {
                let line = match rng.gen_range(0..12) {
                    0 => ".L0:".to_string(),
                    1 => ".p2align 4".to_string(),
                    2 => format!("{} .L0", pick(rng, BRANCHES)),
                    3 => pick(rng, &["ret", "nop"]).to_string(),
                    4 => format!("{} {}", pick(rng, UNARY), any_operand(rng)),
                    _ => {
                        format!(
                            "{} {}, {}",
                            pick(rng, MNEMONICS),
                            any_operand(rng),
                            any_operand(rng)
                        )
                    }
                };
                text.push_str(&line);
                text.push('\n');
            }
            let Ok(program) = Program::from_asm_text("random", &text) else { return };
            parsed += 1;
            let machine = pick(rng, &machines);
            let level = pick(rng, &Level::ALL);
            let workload = Workload::resident_at(&machine, level)
                .aligned((0..4).map(|_| rng.gen_range(0..64u64)).collect());
            let env = ExecEnv::forked(machine, rng.gen_range(1..9u32));
            let plain = estimate(&program, &workload, &env);
            let mut collector = mc_scope::Collector::new("random");
            let scoped = estimate_with_scope(&program, &workload, &env, &mut collector);
            assert_eq!(plain, scoped, "{text}");
            collector.finish();
        });
        assert!(parsed >= 250, "only {parsed} of 300 listings parsed");
    }
}
