//! Golden model panel: the exact `estimate` output for four canonical
//! kernels on each of the three Table 1 machines.
//!
//! The values are pinned as `f64` bit patterns, so any change to the
//! model's arithmetic — a reordered sum, a new bound, a retuned latency —
//! fails here loudly instead of drifting silently into every figure. A
//! deliberate model change updates the table in the same commit, and the
//! diff of this file then shows exactly which estimates moved.

use mc_asm::inst::Mnemonic;
use mc_creator::MicroCreator;
use mc_kernel::builder::{arithmetic_hiding, load_stream, matmul_inner, multi_array_traversal};
use mc_kernel::{KernelDesc, Program};
use mc_simarch::exec::estimate;
use mc_simarch::{ExecEnv, Level, MachineConfig, Workload};

/// The first generated variant whose unroll factor is `unroll`.
fn variant(desc: &KernelDesc, unroll: u32) -> Program {
    MicroCreator::new()
        .generate(desc)
        .expect("canonical kernel generates")
        .programs
        .into_iter()
        .find(|p| p.meta.unroll == unroll)
        .expect("variant with the requested unroll")
}

/// One panel kernel: its program and the run it is estimated under.
struct Case {
    name: &'static str,
    program: Program,
    workload: fn(&MachineConfig) -> Workload,
    env: fn(MachineConfig) -> ExecEnv,
}

fn panel() -> Vec<Case> {
    vec![
        Case {
            // Figures 11-14: a RAM-resident stream forked over four cores
            // (memory, uncore and contention path).
            name: "movaps_u8_ram_4cores",
            program: variant(&load_stream(Mnemonic::Movaps, 8, 8), 8),
            workload: |m| Workload::resident_at(m, Level::Ram),
            env: |m| ExecEnv::forked(m, 4),
        },
        Case {
            // Figure 2/5: the accumulate chain (recurrence path).
            name: "matmul200_u1_l1",
            program: variant(&matmul_inner(200), 1),
            workload: |m| Workload::resident_at(m, Level::L1),
            env: ExecEnv::single_core,
        },
        Case {
            // Figure 15: eight misaligned arrays in L3 (alignment path).
            name: "movss_8arrays_l3_misaligned",
            program: variant(&multi_array_traversal(Mnemonic::Movss, 8), 1),
            workload: |m| {
                Workload::resident_at(m, Level::L3).aligned((0..8).map(|i| i * 36).collect())
            },
            env: ExecEnv::single_core,
        },
        Case {
            // §3.5 arithmetic hiding: six addps beside a load (port path).
            name: "movaps_6addps_l1",
            program: variant(&arithmetic_hiding(Mnemonic::Movaps, 6), 1),
            workload: |m| Workload::resident_at(m, Level::L1),
            env: ExecEnv::single_core,
        },
    ]
}

/// `(kernel, machine, cycles_per_iteration bits, bounds.recurrence bits)`.
const GOLDEN: [(&str, &str, u64, u64); 12] = [
    (
        "movaps_u8_ram_4cores",
        "Sandy Bridge Intel Xeon E31240 - 3.30 GHz",
        0x4057777777777777,
        0x3ff0000000000000,
    ),
    (
        "movaps_u8_ram_4cores",
        "Dual-Socket Nehalem Intel Xeon X5650 - 2.67 GHz",
        0x404869536202ecfb,
        0x3ff0000000000000,
    ),
    (
        "movaps_u8_ram_4cores",
        "Quad-Socket Nehalem Intel Xeon X7550",
        0x404c71c71c71c71c,
        0x3ff0000000000000,
    ),
    (
        "matmul200_u1_l1",
        "Sandy Bridge Intel Xeon E31240 - 3.30 GHz",
        0x4009ffffffffffff,
        0x4008000000000000,
    ),
    (
        "matmul200_u1_l1",
        "Dual-Socket Nehalem Intel Xeon X5650 - 2.67 GHz",
        0x400acccccccccccd,
        0x4008000000000000,
    ),
    (
        "matmul200_u1_l1",
        "Quad-Socket Nehalem Intel Xeon X7550",
        0x400acccccccccccd,
        0x4008000000000000,
    ),
    (
        "movss_8arrays_l3_misaligned",
        "Sandy Bridge Intel Xeon E31240 - 3.30 GHz",
        0x40130300c0fa049c,
        0x3ff0000000000000,
    ),
    (
        "movss_8arrays_l3_misaligned",
        "Dual-Socket Nehalem Intel Xeon X5650 - 2.67 GHz",
        0x4020b33333333332,
        0x3ff0000000000000,
    ),
    (
        "movss_8arrays_l3_misaligned",
        "Quad-Socket Nehalem Intel Xeon X7550",
        0x4020b33333333333,
        0x3ff0000000000000,
    ),
    (
        "movaps_6addps_l1",
        "Sandy Bridge Intel Xeon E31240 - 3.30 GHz",
        0x4019000000000000,
        0x3ff0000000000000,
    ),
    (
        "movaps_6addps_l1",
        "Dual-Socket Nehalem Intel Xeon X5650 - 2.67 GHz",
        0x4019666666666665,
        0x3ff0000000000000,
    ),
    (
        "movaps_6addps_l1",
        "Quad-Socket Nehalem Intel Xeon X7550",
        0x4019666666666666,
        0x3ff0000000000000,
    ),
];

#[test]
fn estimates_match_the_golden_panel() {
    let mut actual = Vec::new();
    for case in panel() {
        for machine in MachineConfig::table1() {
            let workload = (case.workload)(&machine);
            let name = machine.name;
            let report = estimate(&case.program, &workload, &(case.env)(machine));
            actual.push((
                case.name,
                name,
                report.cycles_per_iteration.to_bits(),
                report.bounds.recurrence.to_bits(),
            ));
        }
    }
    let table: String = actual
        .iter()
        .map(|(k, m, c, r)| format!("    ({k:?}, {m:?}, {c:#018x}, {r:#018x}),\n"))
        .collect();
    assert_eq!(actual, GOLDEN, "estimate panel moved; the current values are:\n{table}");
}
