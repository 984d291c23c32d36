//! # mc-simarch — the simulated micro-architecture
//!
//! The paper evaluates MicroTools on three Intel machines (Table 1): a
//! Sandy Bridge Xeon E31240, a dual-socket Nehalem X5650 and a quad-socket
//! Nehalem X7550. This reproduction has none of them, so this crate builds
//! the measurement *substrate*: a deterministic, analytic model of the
//! first-order mechanisms every figure in the paper exercises, plus a
//! functional interpreter that actually executes generated kernels to
//! validate their semantics.
//!
//! ## Timing model ([`exec`])
//!
//! Steady-state cycles per loop iteration are the maximum of independent
//! bounds:
//!
//! * **front-end** — fused-domain µops ÷ decode width,
//! * **ports** — per-class execution-port pressure (1 load port on
//!   Nehalem, 2 on Sandy Bridge, 1 store port, FP add/mul pipes, taken-
//!   branch throughput),
//! * **recurrence** — the longest loop-carried dependency chain
//!   ([`deps`]),
//! * **memory** — stream traffic ÷ the residence level's sustainable
//!   bandwidth, with prefetch, strided-access and alignment effects
//!   ([`memory`], [`align`]),
//! * **contention** — shared per-socket memory bandwidth across cores
//!   ([`multicore`]).
//!
//! Costs are split into a *core-clock* part (L1/L2, execution) and an
//! *uncore-time* part (L3/RAM), so scaling the core frequency moves L1/L2
//! results but leaves L3/RAM flat in reference-(`rdtsc`)-cycle terms —
//! exactly the behaviour Figure 13 demonstrates ([`freq`]).
//!
//! ## Functional interpreter ([`interp`])
//!
//! Executes kernel programs instruction-by-instruction over a sparse
//! simulated memory: registers, SSE lanes, flags, loads/stores, branches.
//! The launcher uses it to verify the MicroLauncher linkage contract (trip
//! count consumed, iteration count returned in `%eax`) and tests use it to
//! prove generated variants are semantically equivalent.

pub mod align;
pub mod cachesim;
pub mod config;
pub mod deps;
pub mod energy;
pub mod exec;
pub mod freq;
pub mod interp;
pub mod memory;
pub mod multicore;
pub mod ports;
pub mod uops;

pub use cachesim::CacheHierarchy;
pub use config::{CacheLevel, Level, MachineConfig};
pub use energy::EnergyModel;
pub use exec::{
    estimate_with_scope, EnvPlacement, ExecEnv, ProgramModel, TimingBounds, TimingReport, Workload,
};
pub use interp::{ExecOutcome, Interpreter, MemAccess, SimMemory};
