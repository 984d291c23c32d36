//! # mc-launcher — MicroLauncher
//!
//! "MicroLauncher executes a benchmark program in a contained and
//! controlled environment" (§4). This crate reproduces the whole harness:
//!
//! * [`options`] — the 30+ configuration options (§4.2) with a CLI-style
//!   parser,
//! * [`input`] — the accepted kernel inputs: generated programs, AT&T
//!   assembly text, native Rust kernels, and standalone applications
//!   (§4.1),
//! * [`clock`] — the evaluation library: an `rdtsc`-style reference-cycle
//!   clock for native runs and the simulated clock for modelled runs
//!   ("The user may switch the evaluation library", §4.2),
//! * [`mod@env`] — array allocation with per-array alignment, cache heating,
//!   and CPU pinning (§4.7),
//! * [`stability`] — the environmental-noise model and the stability
//!   protocol that defeats it,
//! * [`measure`] — the timing algorithm of Figure 10 (overhead
//!   subtraction, warm-up call, inner repetition loop, outer experiment
//!   loop, cycles-per-iteration from the returned trip count),
//! * [`launcher`] — the facade: sequential, fork multi-core (§4.6) and
//!   OpenMP (§5.2.3) execution modes with CSV output (§4.3),
//! * [`sweeps`] — the study drivers behind the paper's figures: alignment
//!   sweeps, core-count sweeps, unroll sweeps, frequency sweeps,
//! * [`store`] — the persistent evaluation store's fingerprints and
//!   payload codecs; rerunning a killed sweep against the same store
//!   resumes it,
//! * [`Ctx`] — the run context: memos, store and profiler.

pub mod batch;
pub mod clock;
mod ctx;
pub mod env;
pub mod input;
pub mod launcher;
pub mod measure;
pub mod options;
pub mod profile;
pub mod stability;
pub mod store;
pub mod sweeps;

pub use batch::{try_run_batch_supervised, EvalPoint};
pub use clock::{Clock, RdtscClock, SimClock};
pub use ctx::Ctx;
pub use input::{KernelInput, NativeKernel};
pub use launcher::{MicroLauncher, RunReport};
pub use options::{Aggregation, LauncherOptions, MachinePreset, Mode};
