//! Launcher configuration — the paper's "more than thirty options … for
//! behavior tweaking" (§4.2), exposed both as a builder-style struct and a
//! `--key=value` command-line parser.

use mc_simarch::config::{Level, MachineConfig};
use mc_simarch::exec::EnvPlacement;
use std::sync::OnceLock;

/// Version tag leading every [`LauncherOptions::fingerprint`].
const OPTIONS_KEY_VERSION: u64 = 1;

/// Which Table 1 machine model to run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachinePreset {
    /// Sandy Bridge Xeon E31240.
    SandyBridgeE31240,
    /// Dual-socket Nehalem X5650.
    NehalemX5650,
    /// Quad-socket Nehalem X7550.
    NehalemX7550,
}

impl MachinePreset {
    /// The machine model. Built once per process; every evaluation
    /// borrows it.
    pub fn config(self) -> &'static MachineConfig {
        static PRESETS: OnceLock<[MachineConfig; 3]> = OnceLock::new();
        let presets = PRESETS.get_or_init(|| {
            [
                MachineConfig::sandy_bridge_e31240(),
                MachineConfig::nehalem_x5650_dual(),
                MachineConfig::nehalem_x7550_quad(),
            ]
        });
        &presets[self as usize]
    }

    /// Parses the command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "sandybridge" | "e31240" => MachinePreset::SandyBridgeE31240,
            "nehalem2" | "x5650" => MachinePreset::NehalemX5650,
            "nehalem4" | "x7550" => MachinePreset::NehalemX7550,
            _ => return None,
        })
    }

    /// The canonical command-line name (inverse of
    /// [`MachinePreset::from_name`]).
    pub fn name(self) -> &'static str {
        match self {
            MachinePreset::SandyBridgeE31240 => "e31240",
            MachinePreset::NehalemX5650 => "x5650",
            MachinePreset::NehalemX7550 => "x7550",
        }
    }
}

/// Execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One pinned core (§4 default).
    Sequential,
    /// Fork-per-core with synchronized start (§4.6).
    Fork,
    /// OpenMP team (§5.2.3).
    OpenMp,
    /// Standalone application timing (§4.1).
    Standalone,
}

impl Mode {
    /// The short command-line / CSV name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Sequential => "seq",
            Mode::Fork => "fork",
            Mode::OpenMp => "omp",
            Mode::Standalone => "standalone",
        }
    }

    /// Parses the short name (inverse of [`Mode::name`]).
    pub fn from_name(name: &str) -> Option<Mode> {
        Some(match name {
            "seq" => Mode::Sequential,
            "fork" => Mode::Fork,
            "omp" => Mode::OpenMp,
            "standalone" => Mode::Standalone,
            _ => return None,
        })
    }
}

/// How the outer-loop samples reduce to the reported number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Minimum across experiments — the paper's figure convention ("the
    /// minimum value was taken though the variance was minimal", §5.1).
    Min,
    /// Median across experiments.
    Median,
    /// Mean across experiments.
    Mean,
}

impl Aggregation {
    /// Manifest/CSV name.
    pub fn name(self) -> &'static str {
        match self {
            Aggregation::Min => "min",
            Aggregation::Median => "median",
            Aggregation::Mean => "mean",
        }
    }
}

/// The full option surface of MicroLauncher.
///
/// The paper: "there are currently more than thirty options in the
/// MicroLauncher tool" — every public field here is one option;
/// [`LauncherOptions::OPTION_NAMES`] enumerates them and a unit test pins
/// the count above thirty.
#[derive(Debug, Clone, PartialEq)]
pub struct LauncherOptions {
    // -- Input selection (§4.1) --
    /// Kernel entry-point name (`--function`): which symbol to call.
    pub function: String,
    /// Number of data arrays to allocate and pass (`--nbvectors`).
    pub nb_vectors: u32,
    /// Free-form label copied into the CSV (`--label`).
    pub label: String,

    // -- Workload shape --
    /// Trip count `n` passed as the kernel's first argument (`--tripcount`).
    pub trip_count: u64,
    /// Per-array size in bytes (`--vector-bytes`); overrides
    /// `--residence` when non-zero.
    pub vector_bytes: u64,
    /// Element size override in bytes (`--element-bytes`, 0 = program's).
    pub element_bytes: u8,
    /// Target residence level (`--residence l1|l2|l3|ram`).
    pub residence: Option<Level>,
    /// Per-array alignment offsets (`--align o1,o2,…`).
    pub alignments: Vec<u64>,
    /// Alignment sweep step in bytes (`--align-step`, 0 = no sweep).
    pub align_step: u64,
    /// Alignment sweep maximum offset (`--align-max`).
    pub align_max: u64,

    // -- Stability protocol (§4.5, §4.7) --
    /// Inner repetitions per experiment (`--repetitions`).
    pub repetitions: u32,
    /// Outer experiments (`--meta-repetitions`).
    pub meta_repetitions: u32,
    /// Adaptive repetition control (`--adaptive`): start from
    /// `--min-samples` outer experiments and grow geometrically only
    /// while the samples' CV exceeds `--stability-threshold`.
    pub adaptive: bool,
    /// Smallest outer experiment count adaptive mode may settle on
    /// (`--min-samples`).
    pub min_samples: u32,
    /// Adaptive ceiling on outer experiments (`--max-samples`;
    /// 0 = use `--meta-repetitions` as the ceiling).
    pub max_samples: u32,
    /// Cache-heating runs before measuring (`--warmup`).
    pub warmup_runs: u32,
    /// Whether to heat instruction/data caches at all (`--heat-cache`).
    pub heat_cache: bool,
    /// Disable (simulated) interrupts during measurement
    /// (`--disable-interrupts`).
    pub disable_interrupts: bool,
    /// Sample aggregation (`--aggregate min|median|mean`).
    pub aggregation: Aggregation,
    /// Maximum accepted coefficient of variation across experiments
    /// (`--stability-threshold`); runs above it are flagged unstable.
    pub stability_threshold: f64,
    /// Environmental-noise amplitude for the simulated environment
    /// (`--noise`, 0 disables; used to demonstrate the protocol).
    pub noise_amplitude: f64,
    /// RNG seed for the noise model (`--seed`).
    pub seed: u64,

    // -- Placement & machine (§4.6) --
    /// Machine preset (`--machine`).
    pub machine: MachinePreset,
    /// Core to pin sequential runs to (`--pin`).
    pub pin_core: u32,
    /// Number of cores for fork mode (`--cores`).
    pub cores: u32,
    /// Socket placement policy (`--placement rr|compact`).
    pub placement: EnvPlacement,
    /// Core frequency in GHz (`--frequency`, 0 = nominal).
    pub frequency_ghz: f64,

    // -- OpenMP mode (§5.2.3) --
    /// Team size (`--omp-threads`).
    pub omp_threads: u32,
    /// Fork+barrier overhead override in ns (`--omp-overhead`, 0 = model
    /// default).
    pub omp_overhead_ns: f64,

    // -- Execution & verification --
    /// Execution mode (`--mode seq|fork|omp|standalone`).
    pub mode: Mode,
    /// Use the custom (simulated) evaluation library instead of `rdtsc`
    /// (`--eval-library rdtsc|sim`) — §4.2's switchable timing library.
    pub sim_clock: bool,
    /// Functionally execute the kernel in the interpreter and verify the
    /// linkage contract (`--verify`).
    pub verify: bool,
    /// Additionally replay the interpreter's address trace through the
    /// set-associative cache simulator and check the observed residence
    /// against the analytic model (`--verify-cache`). Costs two full
    /// traversals; off by default.
    pub verify_cache: bool,
    /// Interpreter step budget (`--max-steps`).
    pub max_interp_steps: u64,

    // -- Output (§4.3) --
    /// Emit a CSV row per run (`--csv`).
    pub csv: bool,
    /// Report the full kernel-function execution (time for all
    /// repetitions) instead of per-iteration cycles (`--full-function`).
    pub full_function: bool,
    /// Verbose progress output (`--verbose`).
    pub verbose: bool,
}

impl Default for LauncherOptions {
    fn default() -> Self {
        LauncherOptions {
            function: "kernel".into(),
            nb_vectors: 1,
            label: String::new(),
            trip_count: 0,
            vector_bytes: 0,
            element_bytes: 0,
            residence: None,
            alignments: Vec::new(),
            align_step: 0,
            align_max: 0,
            repetitions: 32,
            meta_repetitions: 8,
            adaptive: false,
            min_samples: 3,
            max_samples: 0,
            warmup_runs: 1,
            heat_cache: true,
            disable_interrupts: true,
            aggregation: Aggregation::Min,
            stability_threshold: 0.05,
            noise_amplitude: 0.0,
            seed: 0x4d4c_2012,
            machine: MachinePreset::NehalemX5650,
            pin_core: 0,
            cores: 1,
            placement: EnvPlacement::RoundRobinSockets,
            frequency_ghz: 0.0,
            omp_threads: 4,
            omp_overhead_ns: 0.0,
            mode: Mode::Sequential,
            sim_clock: true,
            verify: true,
            verify_cache: false,
            max_interp_steps: 50_000_000,
            csv: true,
            full_function: false,
            verbose: false,
        }
    }
}

impl LauncherOptions {
    /// Every command-line option name, for `--help` and the >30 contract.
    pub const OPTION_NAMES: [&'static str; 37] = [
        "--function",
        "--nbvectors",
        "--label",
        "--tripcount",
        "--vector-bytes",
        "--element-bytes",
        "--residence",
        "--align",
        "--align-step",
        "--align-max",
        "--repetitions",
        "--meta-repetitions",
        "--adaptive",
        "--min-samples",
        "--max-samples",
        "--warmup",
        "--heat-cache",
        "--disable-interrupts",
        "--aggregate",
        "--stability-threshold",
        "--noise",
        "--seed",
        "--machine",
        "--pin",
        "--cores",
        "--placement",
        "--frequency",
        "--omp-threads",
        "--omp-overhead",
        "--mode",
        "--eval-library",
        "--verify",
        "--verify-cache",
        "--max-steps",
        "--csv",
        "--full-function",
        "--verbose",
    ];

    /// Parses `--key=value` / `--flag` arguments over the defaults.
    pub fn from_args<S: AsRef<str>>(args: &[S]) -> Result<LauncherOptions, String> {
        Self::from_args_over(LauncherOptions::default(), args)
    }

    /// Parses `--key=value` / `--flag` arguments over an explicit base:
    /// fields the arguments do not name keep the base's values.
    pub fn from_args_over<S: AsRef<str>>(
        base: LauncherOptions,
        args: &[S],
    ) -> Result<LauncherOptions, String> {
        let mut opts = base;
        for raw in args {
            let raw = raw.as_ref();
            let (key, value) = match raw.split_once('=') {
                Some((k, v)) => (k, Some(v)),
                None => (raw, None),
            };
            let want = |what: &str| -> Result<&str, String> {
                value.ok_or_else(|| format!("{key} requires a value ({what})"))
            };
            let parse_u32 = |what: &str| -> Result<u32, String> {
                want(what)?.parse().map_err(|_| format!("{key}: invalid integer"))
            };
            match key {
                "--function" => opts.function = want("name")?.to_owned(),
                "--nbvectors" => opts.nb_vectors = parse_u32("count")?,
                "--label" => opts.label = want("text")?.to_owned(),
                "--tripcount" => {
                    opts.trip_count =
                        want("n")?.parse().map_err(|_| "--tripcount: invalid integer")?
                }
                "--vector-bytes" => {
                    opts.vector_bytes =
                        want("bytes")?.parse().map_err(|_| "--vector-bytes: invalid integer")?
                }
                "--element-bytes" => {
                    opts.element_bytes =
                        want("bytes")?.parse().map_err(|_| "--element-bytes: invalid integer")?
                }
                "--residence" => {
                    opts.residence = Some(match want("level")? {
                        "l1" | "L1" => Level::L1,
                        "l2" | "L2" => Level::L2,
                        "l3" | "L3" => Level::L3,
                        "ram" | "RAM" => Level::Ram,
                        other => return Err(format!("--residence: unknown level `{other}`")),
                    })
                }
                "--align" => {
                    opts.alignments = want("offsets")?
                        .split(',')
                        .map(|o| o.trim().parse().map_err(|_| "--align: invalid offset".to_owned()))
                        .collect::<Result<_, _>>()?
                }
                "--align-step" => {
                    opts.align_step =
                        want("bytes")?.parse().map_err(|_| "--align-step: invalid integer")?
                }
                "--align-max" => {
                    opts.align_max =
                        want("bytes")?.parse().map_err(|_| "--align-max: invalid integer")?
                }
                "--repetitions" => opts.repetitions = parse_u32("count")?,
                "--meta-repetitions" => opts.meta_repetitions = parse_u32("count")?,
                "--adaptive" => opts.adaptive = parse_bool(key, value)?,
                "--min-samples" => opts.min_samples = parse_u32("count")?,
                "--max-samples" => opts.max_samples = parse_u32("count")?,
                "--warmup" => opts.warmup_runs = parse_u32("count")?,
                "--heat-cache" => opts.heat_cache = parse_bool(key, value)?,
                "--disable-interrupts" => opts.disable_interrupts = parse_bool(key, value)?,
                "--aggregate" => {
                    opts.aggregation = match want("min|median|mean")? {
                        "min" => Aggregation::Min,
                        "median" => Aggregation::Median,
                        "mean" => Aggregation::Mean,
                        other => return Err(format!("--aggregate: unknown mode `{other}`")),
                    }
                }
                "--stability-threshold" => {
                    opts.stability_threshold = want("fraction")?
                        .parse()
                        .map_err(|_| "--stability-threshold: invalid float")?
                }
                "--noise" => {
                    opts.noise_amplitude =
                        want("fraction")?.parse().map_err(|_| "--noise: invalid float")?
                }
                "--seed" => {
                    opts.seed = want("seed")?.parse().map_err(|_| "--seed: invalid integer")?
                }
                "--machine" => {
                    opts.machine = MachinePreset::from_name(want("name")?)
                        .ok_or_else(|| "--machine: unknown machine".to_owned())?
                }
                "--pin" => opts.pin_core = parse_u32("core")?,
                "--cores" => opts.cores = parse_u32("count")?,
                "--placement" => {
                    opts.placement = match want("rr|compact")? {
                        "rr" => EnvPlacement::RoundRobinSockets,
                        "compact" => EnvPlacement::FillFirstSocket,
                        other => return Err(format!("--placement: unknown policy `{other}`")),
                    }
                }
                "--frequency" => {
                    opts.frequency_ghz =
                        want("ghz")?.parse().map_err(|_| "--frequency: invalid float")?
                }
                "--omp-threads" => opts.omp_threads = parse_u32("count")?,
                "--omp-overhead" => {
                    opts.omp_overhead_ns =
                        want("ns")?.parse().map_err(|_| "--omp-overhead: invalid float")?
                }
                "--mode" => {
                    let name = want("seq|fork|omp|standalone")?;
                    opts.mode = Mode::from_name(name)
                        .ok_or_else(|| format!("--mode: unknown mode `{name}`"))?
                }
                "--eval-library" => {
                    opts.sim_clock = match want("rdtsc|sim")? {
                        "rdtsc" => false,
                        "sim" => true,
                        other => return Err(format!("--eval-library: unknown library `{other}`")),
                    }
                }
                "--verify" => opts.verify = parse_bool(key, value)?,
                "--verify-cache" => opts.verify_cache = parse_bool(key, value)?,
                "--max-steps" => {
                    opts.max_interp_steps =
                        want("steps")?.parse().map_err(|_| "--max-steps: invalid integer")?
                }
                "--csv" => opts.csv = parse_bool(key, value)?,
                "--full-function" => opts.full_function = parse_bool(key, value)?,
                "--verbose" => opts.verbose = parse_bool(key, value)?,
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        Ok(opts)
    }

    /// The sampling policy as a manifest string: `fixed:N` or
    /// `adaptive:MIN..MAX` — what `mc-report diff` compares to warn when
    /// two runs were sampled differently.
    pub fn sampling_policy(&self) -> String {
        if self.adaptive {
            let min = self.min_samples.max(1);
            let max = if self.max_samples > 0 {
                self.max_samples.max(min)
            } else {
                self.meta_repetitions.max(1).max(min)
            };
            format!("adaptive:{min}..{max}")
        } else {
            format!("fixed:{}", self.meta_repetitions.max(1))
        }
    }

    /// The effective core frequency: explicit override or the machine's
    /// nominal.
    pub fn effective_frequency(&self) -> f64 {
        if self.frequency_ghz > 0.0 {
            self.frequency_ghz
        } else {
            self.machine.config().nominal_ghz
        }
    }

    /// The identity key of the full option surface: the options half of
    /// the evaluation memo key, the persistent store key and a profile's
    /// key.
    ///
    /// FNV-1a over every field in declaration order after a version tag:
    /// integers and booleans as little-endian `u64`, `f64` as its bits
    /// (so `-0.0` and `0.0` differ), enums as their discriminant, strings
    /// and vectors length-prefixed. The destructuring names every field,
    /// so a new option does not compile until it is hashed here. Bump
    /// `OPTIONS_KEY_VERSION` when the encoding changes.
    pub fn fingerprint(&self) -> u64 {
        let LauncherOptions {
            function,
            nb_vectors,
            label,
            trip_count,
            vector_bytes,
            element_bytes,
            residence,
            alignments,
            align_step,
            align_max,
            repetitions,
            meta_repetitions,
            adaptive,
            min_samples,
            max_samples,
            warmup_runs,
            heat_cache,
            disable_interrupts,
            aggregation,
            stability_threshold,
            noise_amplitude,
            seed,
            machine,
            pin_core,
            cores,
            placement,
            frequency_ghz,
            omp_threads,
            omp_overhead_ns,
            mode,
            sim_clock,
            verify,
            verify_cache,
            max_interp_steps,
            csv,
            full_function,
            verbose,
        } = self;
        let text = |key: mc_report::Fnv64, s: &str| key.u64(s.len() as u64).bytes(s.as_bytes());
        let mut key = mc_report::Fnv64::new().u64(OPTIONS_KEY_VERSION);
        key = text(key, function).u64(u64::from(*nb_vectors));
        key = text(key, label)
            .u64(*trip_count)
            .u64(*vector_bytes)
            .u64(u64::from(*element_bytes))
            .u64(residence.map_or(0, |level| 1 + level as u64))
            .u64(alignments.len() as u64);
        for &offset in alignments {
            key = key.u64(offset);
        }
        key.u64(*align_step)
            .u64(*align_max)
            .u64(u64::from(*repetitions))
            .u64(u64::from(*meta_repetitions))
            .u64(u64::from(*adaptive))
            .u64(u64::from(*min_samples))
            .u64(u64::from(*max_samples))
            .u64(u64::from(*warmup_runs))
            .u64(u64::from(*heat_cache))
            .u64(u64::from(*disable_interrupts))
            .u64(*aggregation as u64)
            .u64(stability_threshold.to_bits())
            .u64(noise_amplitude.to_bits())
            .u64(*seed)
            .u64(*machine as u64)
            .u64(u64::from(*pin_core))
            .u64(u64::from(*cores))
            .u64(*placement as u64)
            .u64(frequency_ghz.to_bits())
            .u64(u64::from(*omp_threads))
            .u64(omp_overhead_ns.to_bits())
            .u64(*mode as u64)
            .u64(u64::from(*sim_clock))
            .u64(u64::from(*verify))
            .u64(u64::from(*verify_cache))
            .u64(*max_interp_steps)
            .u64(u64::from(*csv))
            .u64(u64::from(*full_function))
            .u64(u64::from(*verbose))
            .finish()
    }

    /// The provenance hash: FNV-1a over the `Debug` rendering, as the
    /// `options_hash` of every run manifest and the options half of every
    /// daemon job ID have always carried it. Computed once per run or job,
    /// never per point; identity keys use [`LauncherOptions::fingerprint`].
    /// Result documents pinned by `perfbench/digests.txt` (serve-sweep)
    /// and registry records written so far carry these values.
    pub fn provenance_hash(&self) -> u64 {
        mc_report::fnv1a64(format!("{self:?}").as_bytes())
    }

    /// The provenance manifest for a run under these options:
    /// tool/version, machine preset, options provenance hash, seed, mode, and
    /// the evaluation-engine worker count. Callers add timestamps or
    /// extra keys before rendering.
    pub fn manifest(&self, tool: &str, version: &str) -> mc_report::RunManifest {
        let mut m = mc_report::RunManifest::for_run(
            tool,
            version,
            self.machine.name(),
            self.provenance_hash(),
            self.seed,
        );
        m.set("mode", self.mode.name());
        m.set("jobs", mc_exec::jobs().to_string());
        // Stability provenance: diff reports trust a baseline only when
        // they can see how it was aggregated and over how many samples.
        m.set("aggregation", self.aggregation.name());
        m.set("samples", self.meta_repetitions.to_string());
        m.set("adaptive", if self.adaptive { "true" } else { "false" });
        m.set("sampling", self.sampling_policy());
        m
    }
}

fn parse_bool(key: &str, value: Option<&str>) -> Result<bool, String> {
    match value {
        None | Some("true") | Some("1") | Some("yes") => Ok(true),
        Some("false") | Some("0") | Some("no") => Ok(false),
        Some(other) => Err(format!("{key}: invalid boolean `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_than_thirty_options() {
        // §4.2: "there are currently more than thirty options in the
        // MicroLauncher tool".
        assert!(LauncherOptions::OPTION_NAMES.len() > 30);
        // Names are unique.
        let mut names = LauncherOptions::OPTION_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LauncherOptions::OPTION_NAMES.len());
    }

    #[test]
    fn every_listed_option_parses() {
        // Each documented option must be accepted by the parser.
        for name in LauncherOptions::OPTION_NAMES {
            let arg = match name {
                "--function" | "--label" => format!("{name}=x"),
                "--residence" => format!("{name}=l1"),
                "--align" => format!("{name}=0,64"),
                "--aggregate" => format!("{name}=median"),
                "--machine" => format!("{name}=x5650"),
                "--placement" => format!("{name}=compact"),
                "--mode" => format!("{name}=fork"),
                "--eval-library" => format!("{name}=sim"),
                "--heat-cache"
                | "--adaptive"
                | "--disable-interrupts"
                | "--verify"
                | "--verify-cache"
                | "--csv"
                | "--full-function"
                | "--verbose" => name.to_owned(),
                "--stability-threshold" | "--noise" | "--frequency" | "--omp-overhead" => {
                    format!("{name}=1.5")
                }
                _ => format!("{name}=4"),
            };
            LauncherOptions::from_args(&[arg.as_str()])
                .unwrap_or_else(|e| panic!("{name} failed to parse: {e}"));
        }
    }

    #[test]
    fn defaults_are_sane() {
        let o = LauncherOptions::default();
        assert_eq!(o.mode, Mode::Sequential);
        assert_eq!(o.aggregation, Aggregation::Min);
        assert!(o.heat_cache);
        assert!(o.verify);
        assert!(o.repetitions > 1);
        assert!(o.meta_repetitions > 1);
        assert_eq!(o.noise_amplitude, 0.0);
    }

    #[test]
    fn parse_combinations() {
        let o = LauncherOptions::from_args(&[
            "--machine=x7550",
            "--mode=fork",
            "--cores=32",
            "--residence=ram",
            "--align=0,512,1024,1536",
            "--aggregate=min",
            "--repetitions=64",
        ])
        .unwrap();
        assert_eq!(o.machine, MachinePreset::NehalemX7550);
        assert_eq!(o.mode, Mode::Fork);
        assert_eq!(o.cores, 32);
        assert_eq!(o.residence, Some(Level::Ram));
        assert_eq!(o.alignments, vec![0, 512, 1024, 1536]);
        assert_eq!(o.repetitions, 64);
    }

    #[test]
    fn bad_values_are_rejected() {
        assert!(LauncherOptions::from_args(&["--mode=warp"]).is_err());
        assert!(LauncherOptions::from_args(&["--residence=l9"]).is_err());
        assert!(LauncherOptions::from_args(&["--cores=banana"]).is_err());
        assert!(LauncherOptions::from_args(&["--unknown=1"]).is_err());
        assert!(LauncherOptions::from_args(&["--align=1,x"]).is_err());
        assert!(LauncherOptions::from_args(&["--machine"]).is_err());
    }

    #[test]
    fn bare_flags_mean_true() {
        let o = LauncherOptions::from_args(&["--verbose", "--csv=false"]).unwrap();
        assert!(o.verbose);
        assert!(!o.csv);
    }

    #[test]
    fn effective_frequency_override() {
        let mut o = LauncherOptions::default();
        assert_eq!(o.effective_frequency(), 2.67);
        o.frequency_ghz = 1.6;
        assert_eq!(o.effective_frequency(), 1.6);
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = LauncherOptions::default();
        let mut b = LauncherOptions::default();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.repetitions += 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_sampling_policies() {
        // The memo cache and the persistent store key on this fingerprint:
        // a cached fixed-mode result must never answer an adaptive query.
        let fixed = LauncherOptions::default();
        let adaptive = LauncherOptions { adaptive: true, ..LauncherOptions::default() };
        assert_ne!(fixed.fingerprint(), adaptive.fingerprint());
        let tighter = LauncherOptions { max_samples: 4, ..adaptive.clone() };
        assert_ne!(adaptive.fingerprint(), tighter.fingerprint());
    }

    #[test]
    fn adaptive_flags_parse() {
        let o = LauncherOptions::from_args(&["--adaptive", "--min-samples=2", "--max-samples=16"])
            .unwrap();
        assert!(o.adaptive);
        assert_eq!(o.min_samples, 2);
        assert_eq!(o.max_samples, 16);
        let off = LauncherOptions::from_args(&["--adaptive=false"]).unwrap();
        assert!(!off.adaptive);
    }

    #[test]
    fn explicit_flags_win_over_the_base() {
        let base = LauncherOptions {
            adaptive: true,
            min_samples: 2,
            max_samples: 8,
            ..LauncherOptions::default()
        };
        let o = LauncherOptions::from_args_over(base, &["--adaptive=false"]).unwrap();
        assert!(!o.adaptive, "explicit flags must override the base");
        assert_eq!(o.min_samples, 2, "fields the flags do not name survive");
    }

    #[test]
    fn sampling_policy_strings() {
        let fixed = LauncherOptions::default();
        assert_eq!(fixed.sampling_policy(), "fixed:8");
        let adaptive = LauncherOptions {
            adaptive: true,
            min_samples: 2,
            max_samples: 0,
            ..LauncherOptions::default()
        };
        // max-samples 0 falls back to the fixed budget as the ceiling.
        assert_eq!(adaptive.sampling_policy(), "adaptive:2..8");
        let bounded = LauncherOptions { max_samples: 16, ..adaptive };
        assert_eq!(bounded.sampling_policy(), "adaptive:2..16");
    }

    #[test]
    fn adaptive_options_reach_the_manifest() {
        let o = LauncherOptions {
            adaptive: true,
            min_samples: 2,
            max_samples: 8,
            ..LauncherOptions::default()
        };
        let m = o.manifest("t", "v");
        assert_eq!(m.get("adaptive"), Some("true"));
        assert_eq!(m.get("sampling"), Some("adaptive:2..8"));
        let m = LauncherOptions::default().manifest("t", "v");
        assert_eq!(m.get("adaptive"), Some("false"));
    }

    #[test]
    fn manifest_carries_provenance() {
        let o = LauncherOptions::default();
        let m = o.manifest("microlauncher", "0.1.0");
        assert_eq!(m.get("tool"), Some("microlauncher"));
        assert_eq!(m.get("machine"), Some("x5650"));
        assert_eq!(m.get("mode"), Some("seq"));
        assert_eq!(m.get("seed"), Some(o.seed.to_string().as_str()));
        assert_eq!(m.get("options_hash"), Some(format!("{:016x}", o.provenance_hash()).as_str()));
        let jobs: usize = m.get("jobs").expect("worker count recorded").parse().unwrap();
        assert!(jobs >= 1);
        assert_eq!(m.get("aggregation"), Some(o.aggregation.name()));
        assert_eq!(m.get("samples"), Some(o.meta_repetitions.to_string().as_str()));
    }

    #[test]
    fn fingerprint_is_pinned() {
        // Golden value: FNV-1a over the version tag and the default
        // options' fields. A change here re-keys every memo entry and
        // store record; make it on purpose, and bump
        // OPTIONS_KEY_VERSION when the encoding itself changes.
        assert_eq!(LauncherOptions::default().fingerprint(), 0xa2b1_e9c6_8827_0275);
    }

    #[test]
    fn every_field_reaches_the_fingerprint() {
        let base = LauncherOptions { alignments: vec![0, 64, 128], ..LauncherOptions::default() };
        let b = || base.clone();
        let variants: Vec<(&str, LauncherOptions)> = vec![
            ("function", LauncherOptions { function: "other".into(), ..b() }),
            ("nb_vectors", LauncherOptions { nb_vectors: 2, ..b() }),
            ("label", LauncherOptions { label: "x".into(), ..b() }),
            ("trip_count", LauncherOptions { trip_count: 160, ..b() }),
            ("vector_bytes", LauncherOptions { vector_bytes: 1 << 20, ..b() }),
            ("element_bytes", LauncherOptions { element_bytes: 8, ..b() }),
            ("residence", LauncherOptions { residence: Some(Level::L1), ..b() }),
            ("alignments: one element", LauncherOptions { alignments: vec![0, 64, 192], ..b() }),
            ("alignments: one fewer", LauncherOptions { alignments: vec![0, 64], ..b() }),
            ("align_step", LauncherOptions { align_step: 64, ..b() }),
            ("align_max", LauncherOptions { align_max: 4096, ..b() }),
            ("repetitions", LauncherOptions { repetitions: 33, ..b() }),
            ("meta_repetitions", LauncherOptions { meta_repetitions: 9, ..b() }),
            ("adaptive", LauncherOptions { adaptive: true, ..b() }),
            ("min_samples", LauncherOptions { min_samples: 2, ..b() }),
            ("max_samples", LauncherOptions { max_samples: 16, ..b() }),
            ("warmup_runs", LauncherOptions { warmup_runs: 2, ..b() }),
            ("heat_cache", LauncherOptions { heat_cache: false, ..b() }),
            ("disable_interrupts", LauncherOptions { disable_interrupts: false, ..b() }),
            ("aggregation", LauncherOptions { aggregation: Aggregation::Median, ..b() }),
            ("stability_threshold", LauncherOptions { stability_threshold: 0.1, ..b() }),
            ("noise_amplitude", LauncherOptions { noise_amplitude: 0.2, ..b() }),
            ("noise_amplitude: -0.0", LauncherOptions { noise_amplitude: -0.0, ..b() }),
            ("seed", LauncherOptions { seed: 7, ..b() }),
            ("machine", LauncherOptions { machine: MachinePreset::NehalemX7550, ..b() }),
            ("pin_core", LauncherOptions { pin_core: 3, ..b() }),
            ("cores", LauncherOptions { cores: 4, ..b() }),
            ("placement", LauncherOptions { placement: EnvPlacement::FillFirstSocket, ..b() }),
            ("frequency_ghz", LauncherOptions { frequency_ghz: 1.6, ..b() }),
            ("frequency_ghz: -0.0", LauncherOptions { frequency_ghz: -0.0, ..b() }),
            ("omp_threads", LauncherOptions { omp_threads: 8, ..b() }),
            ("omp_overhead_ns", LauncherOptions { omp_overhead_ns: 100.0, ..b() }),
            ("omp_overhead_ns: -0.0", LauncherOptions { omp_overhead_ns: -0.0, ..b() }),
            ("mode", LauncherOptions { mode: Mode::Fork, ..b() }),
            ("sim_clock", LauncherOptions { sim_clock: false, ..b() }),
            ("verify", LauncherOptions { verify: false, ..b() }),
            ("verify_cache", LauncherOptions { verify_cache: true, ..b() }),
            ("max_interp_steps", LauncherOptions { max_interp_steps: 10_000, ..b() }),
            ("csv", LauncherOptions { csv: false, ..b() }),
            ("full_function", LauncherOptions { full_function: true, ..b() }),
            ("verbose", LauncherOptions { verbose: true, ..b() }),
        ];
        let mut keys = std::collections::HashMap::new();
        keys.insert(base.fingerprint(), "base");
        for (name, options) in &variants {
            // `Debug` tells -0.0 from 0.0, where `==` does not.
            assert_ne!(format!("{options:?}"), format!("{base:?}"), "{name} perturbs nothing");
            if let Some(other) = keys.insert(options.fingerprint(), name) {
                panic!("{name} shares a key with {other}");
            }
        }
        // Strings are length-prefixed: moving a byte across a boundary
        // changes the key.
        let split = |function: &str, label: &str| {
            LauncherOptions { function: function.into(), label: label.into(), ..b() }.fingerprint()
        };
        assert_ne!(split("kernel", ""), split("kerne", "l"));
    }

    #[test]
    fn a_restated_value_keeps_its_key() {
        // Two option sets built apart, one by restating every field a
        // sweep varies, share one memo entry and one store record.
        let base = LauncherOptions { alignments: vec![0, 64], ..LauncherOptions::default() };
        let restated = LauncherOptions {
            residence: base.residence,
            alignments: vec![0, 64],
            frequency_ghz: base.frequency_ghz,
            mode: base.mode,
            cores: base.cores,
            omp_threads: base.omp_threads,
            trip_count: base.trip_count,
            vector_bytes: base.vector_bytes,
            verify: base.verify,
            ..LauncherOptions::default()
        };
        assert_eq!(restated.fingerprint(), base.fingerprint());
    }

    #[test]
    fn preset_and_mode_names_round_trip() {
        for preset in [
            MachinePreset::SandyBridgeE31240,
            MachinePreset::NehalemX5650,
            MachinePreset::NehalemX7550,
        ] {
            assert_eq!(MachinePreset::from_name(preset.name()), Some(preset));
        }
        assert_eq!(Mode::Fork.name(), "fork");
    }

    #[test]
    fn machine_presets_are_built_once() {
        for preset in [
            MachinePreset::SandyBridgeE31240,
            MachinePreset::NehalemX5650,
            MachinePreset::NehalemX7550,
        ] {
            assert!(std::ptr::eq(preset.config(), preset.config()), "{preset:?} rebuilt");
        }
        assert_eq!(
            *MachinePreset::SandyBridgeE31240.config(),
            MachineConfig::sandy_bridge_e31240()
        );
        assert_eq!(*MachinePreset::NehalemX5650.config(), MachineConfig::nehalem_x5650_dual());
        assert_eq!(*MachinePreset::NehalemX7550.config(), MachineConfig::nehalem_x7550_quad());
    }

    #[test]
    fn machine_preset_names() {
        assert_eq!(MachinePreset::from_name("x5650"), Some(MachinePreset::NehalemX5650));
        assert_eq!(MachinePreset::from_name("e31240"), Some(MachinePreset::SandyBridgeE31240));
        assert_eq!(MachinePreset::from_name("q6600"), None);
        assert_eq!(MachinePreset::NehalemX7550.config().total_cores(), 32);
    }
}
