//! The launcher's side of the persistent evaluation store.
//!
//! `mc-store` is payload-agnostic; this module owns the meaning of its
//! bytes — the fingerprints that scope a record's validity and the
//! codecs that turn evaluation results and generated programs into
//! payloads and back:
//!
//! * **schema fingerprint** — hashes the payload codec version together
//!   with the [`RunReport`] CSV header, so a report that grows a field
//!   invalidates every persisted entry at once;
//! * **calibration fingerprint** — hashes the simulated-machine
//!   configuration tables ([`mc_simarch::config::MachineConfig::table1`]),
//!   so recalibrating the simulator invalidates results computed under
//!   the old model;
//! * **eval payloads** — the report's fields tab-separated in one fixed
//!   order, with no field names and no JSON parse. Floats travel as the
//!   hex of their bits, so a decoded report is bit-identical to the
//!   computed one; text fields escape backslash, tab and newline; an
//!   absent optional section is one `-` field. A record missing a field,
//!   carrying an extra one, or one of the wrong shape decodes to `None`:
//!   the point is re-evaluated;
//! * **gen payloads** — one JSON line per generated program (assembly
//!   text plus variant metadata), persisted only after an in-memory
//!   decode verifies the exact round trip, because evaluation keys hash
//!   every field of the program and a lossy decode would silently kill
//!   every downstream warm hit.
//!
//! The installed store is a process-wide slot: binaries install it once
//! at startup and the batch/sweep hot paths consult it on memo-cache
//! misses.

use crate::launcher::{RunReport, VerifyReport};
use crate::options::Mode;
use mc_insight::{Attribution, BottleneckClass};
use mc_kernel::program::{MemDir, Program, VariantMeta};
use mc_report::stats::Summary;
use mc_simarch::config::Level;
use mc_store::DiskStore;
use mc_trace::{EventKind, TraceEvent, Value};
use std::fmt::Write;
use std::path::Path;
use std::sync::{Arc, OnceLock, RwLock};

/// Store namespace of evaluation results.
pub const EVAL_KIND: &str = "eval";

/// Store namespace of generated program sets.
pub const GEN_KIND: &str = "gen";

/// Bumped when either payload codec changes shape.
const PAYLOAD_CODEC: &str = "store-payload-v2";

/// Fingerprint scoping record validity to this build's payload shapes.
pub fn schema_fingerprint() -> u64 {
    mc_report::fnv1a64(format!("{PAYLOAD_CODEC} {}", RunReport::csv_header()).as_bytes())
}

/// Fingerprint scoping record validity to this build's simulator
/// calibration (the machine configuration tables).
pub fn calib_fingerprint() -> u64 {
    static FP: OnceLock<u64> = OnceLock::new();
    *FP.get_or_init(|| {
        mc_report::fnv1a64(format!("{:?}", mc_simarch::config::MachineConfig::table1()).as_bytes())
    })
}

/// The store key of an evaluation memo key, `<program_fp>-<options_fp>`
/// in fixed-width hex: the same rendering as profile file names, so the
/// two correlate.
pub fn eval_key(key: (u64, u64)) -> String {
    format!("{:016x}-{:016x}", key.0, key.1)
}

/// The store key of a generation-cache key.
pub fn gen_key(key: u64) -> String {
    format!("{key:016x}")
}

fn store_slot() -> &'static RwLock<Option<Arc<DiskStore>>> {
    static STORE: OnceLock<RwLock<Option<Arc<DiskStore>>>> = OnceLock::new();
    STORE.get_or_init(|| RwLock::new(None))
}

/// Opens a disk store rooted at `dir` under this build's fingerprints
/// and installs it process-wide. Returns the handle (for end-of-run
/// counter reporting and ledger flushing).
pub fn install_store(dir: impl AsRef<Path>) -> Arc<DiskStore> {
    let store = Arc::new(DiskStore::open(dir.as_ref(), schema_fingerprint(), calib_fingerprint()));
    *store_slot().write().expect("store slot poisoned") = Some(store.clone());
    store
}

/// The installed store, if any.
pub fn store() -> Option<Arc<DiskStore>> {
    store_slot().read().expect("store slot poisoned").clone()
}

/// Removes the installed store.
pub fn clear_store() {
    *store_slot().write().expect("store slot poisoned") = None;
}

/// Renders a report as a store payload: its fields tab-separated in one
/// fixed order. Floats travel as the hex of their bits, so a decoded
/// report is bit-identical to the computed one; text fields escape `\\`,
/// tab and newline; an absent optional field or section is one `-`.
pub fn encode_report(report: &RunReport) -> String {
    let mut out = Fields::default();
    out.text(&report.name).text(&report.label).text(&report.machine);
    out.word(report.mode.name()).uint(report.workers.into());
    out.float(report.cycles_per_iteration).float(report.seconds_full_function);
    let s = &report.summary;
    out.uint(s.count as u64).float(s.min).float(s.max).float(s.mean).float(s.median);
    out.float(s.stddev).flag(report.stable);
    out.word(report.residence.map_or("-", Level::name)).word(&join(&report.pin_cores));
    out.uint(report.samples_used.into()).flag(report.adaptive);
    out.optional_float(report.region_seconds).optional_float(report.energy_nj_per_iteration);
    match &report.verify {
        Some(v) => {
            out.flag(v.passed).uint(v.loop_iterations).uint(v.expected_iterations);
            out.float(v.memory_ops_per_iteration).uint(v.footprint_lines);
            out.word(v.observed_residence.unwrap_or("-")).text(&v.detail)
        }
        None => out.word("-"),
    };
    match &report.bottleneck {
        Some(b) => {
            out.word(b.class.name()).float(b.bound_cycles).float(b.measured_cycles);
            out.word(b.runner_up.map_or("-", BottleneckClass::name)).float(b.runner_up_cycles)
        }
        None => out.word("-"),
    };
    let mut payload = out.0;
    payload.pop();
    payload
}

/// Reconstructs a report from a store payload. `None` on any mismatch —
/// a missing, extra or malformed field — and the caller re-evaluates.
pub fn decode_report(payload: &str) -> Option<RunReport> {
    let mut f = payload.split('\t');
    let mut next = || f.next();
    let text = |field: Option<&str>| unescape(field?);
    let float = |field: Option<&str>| Some(f64::from_bits(u64::from_str_radix(field?, 16).ok()?));
    let uint = |field: Option<&str>| field?.parse::<u64>().ok();
    let flag = |field: Option<&str>| match field? {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    };
    let (name, label, machine) = (text(next())?, text(next())?, text(next())?);
    let mode = Mode::from_name(next()?)?;
    let workers = u32::try_from(uint(next())?).ok()?;
    let (cycles_per_iteration, seconds_full_function) = (float(next())?, float(next())?);
    let summary = Summary {
        count: usize::try_from(uint(next())?).ok()?,
        min: float(next())?,
        max: float(next())?,
        mean: float(next())?,
        median: float(next())?,
        stddev: float(next())?,
    };
    let stable = flag(next())?;
    let residence = match next()? {
        "-" => None,
        name => Some(Level::from_name(name)?),
    };
    let pin_cores = parsed_list(next()?)?;
    let samples_used = u32::try_from(uint(next())?).ok()?;
    let adaptive = flag(next())?;
    let optional_float = |field: Option<&str>| match field? {
        "-" => Some(None),
        bits => float(Some(bits)).map(Some),
    };
    let region_seconds = optional_float(next())?;
    let energy_nj_per_iteration = optional_float(next())?;
    let verify = match next()? {
        "-" => None,
        passed => Some(VerifyReport {
            passed: flag(Some(passed))?,
            loop_iterations: uint(next())?,
            expected_iterations: uint(next())?,
            memory_ops_per_iteration: float(next())?,
            footprint_lines: uint(next())?,
            // Map through `Level` to recover the `&'static str` name.
            observed_residence: match next()? {
                "-" => None,
                name => Some(Level::from_name(name)?.name()),
            },
            detail: text(next())?,
        }),
    };
    let bottleneck = match next()? {
        "-" => None,
        class => Some(Attribution {
            class: BottleneckClass::from_name(class)?,
            bound_cycles: float(next())?,
            measured_cycles: float(next())?,
            runner_up: match next()? {
                "-" => None,
                name => Some(BottleneckClass::from_name(name)?),
            },
            runner_up_cycles: float(next())?,
        }),
    };
    if next().is_some() {
        return None;
    }
    Some(RunReport {
        name,
        label,
        machine,
        mode,
        workers,
        cycles_per_iteration,
        seconds_full_function,
        summary,
        stable,
        residence,
        pin_cores,
        verify,
        region_seconds,
        energy_nj_per_iteration,
        bottleneck,
        samples_used,
        adaptive,
    })
}

/// The tab-separated field writer of [`encode_report`].
#[derive(Default)]
struct Fields(String);

impl Fields {
    /// Appends one field verbatim, and its separator: the caller
    /// guarantees it holds no tab.
    fn word(&mut self, field: &str) -> &mut Self {
        self.0.push_str(field);
        self.0.push('\t');
        self
    }

    fn text(&mut self, field: &str) -> &mut Self {
        let escaped = field.replace('\\', "\\\\").replace('\t', "\\t").replace('\n', "\\n");
        self.word(&escaped)
    }

    fn uint(&mut self, field: u64) -> &mut Self {
        let _ = write!(self.0, "{field}\t");
        self
    }

    fn float(&mut self, field: f64) -> &mut Self {
        let _ = write!(self.0, "{:x}\t", field.to_bits());
        self
    }

    fn flag(&mut self, field: bool) -> &mut Self {
        self.word(if field { "1" } else { "0" })
    }

    fn optional_float(&mut self, field: Option<f64>) -> &mut Self {
        match field {
            Some(value) => self.float(value),
            None => self.word("-"),
        }
    }
}

/// Reverses [`Fields::text`]: `None` on a dangling or unknown escape.
fn unescape(field: &str) -> Option<String> {
    if !field.contains('\\') {
        return Some(field.to_owned());
    }
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => match chars.next()? {
                '\\' => '\\',
                't' => '\t',
                'n' => '\n',
                _ => return None,
            },
            c => c,
        });
    }
    Some(out)
}

fn join<T: ToString>(values: &[T]) -> String {
    values.iter().map(ToString::to_string).collect::<Vec<_>>().join(" ")
}

fn encode_program(program: &Program) -> String {
    let meta = &program.meta;
    let mut event = TraceEvent::new(EventKind::Event, "program")
        .with("name", program.name.as_str())
        .with("asm", program.to_asm_string().as_str())
        .with("nb_arrays", program.nb_arrays)
        .with("element_bytes", u64::from(program.element_bytes))
        .with("elements_per_iteration", program.elements_per_iteration)
        .with("meta.kernel", meta.kernel.as_str())
        .with("meta.unroll", meta.unroll)
        .with("meta.directions", meta.directions.iter().map(|d| d.code()).collect::<String>())
        .with("meta.strides", join(&meta.strides).as_str())
        .with("meta.immediates", join(&meta.immediates).as_str());
    if let Some(m) = meta.mnemonic {
        event = event.with("meta.mnemonic", m.name().as_str());
    }
    if let Some(r) = meta.repeat {
        event = event.with("meta.repeat", r);
    }
    event = event.with("meta.extra.len", meta.extra.len() as u64);
    for (i, (k, v)) in meta.extra.iter().enumerate() {
        event = event.with(format!("meta.extra.{i}.k"), k.as_str());
        event = event.with(format!("meta.extra.{i}.v"), v.as_str());
    }
    event.to_json()
}

fn parsed_list<T: std::str::FromStr>(joined: &str) -> Option<Vec<T>> {
    joined.split_whitespace().map(|part| part.parse().ok()).collect()
}

fn decode_program(line: &str) -> Option<Program> {
    let event = TraceEvent::from_json(line.trim()).ok()?;
    if event.name != "program" {
        return None;
    }
    let text = |key: &str| event.field(key).and_then(Value::as_str).map(str::to_owned);
    let uint = |key: &str| event.field(key).and_then(Value::as_u64);
    let directions = text("meta.directions")?
        .chars()
        .map(|c| match c {
            'L' => Some(MemDir::Load),
            'S' => Some(MemDir::Store),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    let mnemonic = match text("meta.mnemonic") {
        Some(name) => Some(mc_asm::Mnemonic::from_name(&name)?),
        None => None,
    };
    let mut extra = Vec::new();
    for i in 0..uint("meta.extra.len")? {
        extra.push((text(&format!("meta.extra.{i}.k"))?, text(&format!("meta.extra.{i}.v"))?));
    }
    let name = text("name")?;
    let mut program = Program::from_asm_text(name, &text("asm")?).ok()?;
    program.nb_arrays = u32::try_from(uint("nb_arrays")?).ok()?;
    program.element_bytes = u8::try_from(uint("element_bytes")?).ok()?;
    program.elements_per_iteration = uint("elements_per_iteration")?;
    program.meta = VariantMeta {
        kernel: text("meta.kernel")?,
        unroll: u32::try_from(uint("meta.unroll")?).ok()?,
        mnemonic,
        directions,
        strides: parsed_list(&text("meta.strides")?)?,
        immediates: parsed_list(&text("meta.immediates")?)?,
        repeat: match uint("meta.repeat") {
            Some(r) => Some(u32::try_from(r).ok()?),
            None => None,
        },
        extra,
    };
    Some(program)
}

/// Renders a generated program set as a store payload (one JSON line per
/// program) — but only when every program provably round-trips: the
/// evaluation key hashes every field of the program, so an encode
/// the decoder cannot reproduce exactly must not be persisted at all.
/// `None` means "do not persist"; generation simply stays per-process.
pub fn encode_programs(programs: &[Arc<Program>]) -> Option<String> {
    let mut lines = Vec::with_capacity(programs.len());
    for program in programs {
        let line = encode_program(program);
        if decode_program(&line).as_ref() != Some(program) {
            mc_trace::diag!("store: program `{}` does not round-trip; not persisted", program.name);
            return None;
        }
        lines.push(line);
    }
    Some(lines.join("\n"))
}

/// Reconstructs a program set from a store payload. `None` on any
/// mismatch — the caller regenerates.
pub fn decode_programs(payload: &str) -> Option<Vec<Arc<Program>>> {
    payload.lines().map(|line| decode_program(line).map(Arc::new)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::KernelInput;
    use crate::launcher::MicroLauncher;
    use crate::options::LauncherOptions;
    use mc_creator::MicroCreator;
    use mc_kernel::builder::{load_stream, multi_array_traversal};

    /// The v1 payload codec (`store-payload-v1`): one trace-event JSON
    /// line of flat report fields with dotted section prefixes. Kept as
    /// the oracle the field-order codec is checked against.
    mod v1 {
        use super::super::*;
        use mc_trace::{EventKind, TraceEvent, Value};

        /// Renders a report as a store payload: one trace-event JSON line over
        /// the flat report fields.
        pub(super) fn encode_report(report: &RunReport) -> String {
            let mut fields: Vec<(String, Value)> = vec![
                ("name".into(), report.name.as_str().into()),
                ("label".into(), report.label.as_str().into()),
                ("machine".into(), report.machine.as_str().into()),
                ("mode".into(), report.mode.name().into()),
                ("workers".into(), report.workers.into()),
                ("cycles_per_iteration".into(), report.cycles_per_iteration.into()),
                ("seconds_full_function".into(), report.seconds_full_function.into()),
                ("summary.count".into(), report.summary.count.into()),
                ("summary.min".into(), report.summary.min.into()),
                ("summary.max".into(), report.summary.max.into()),
                ("summary.mean".into(), report.summary.mean.into()),
                ("summary.median".into(), report.summary.median.into()),
                ("summary.stddev".into(), report.summary.stddev.into()),
                ("stable".into(), report.stable.into()),
                ("samples_used".into(), report.samples_used.into()),
                ("adaptive".into(), report.adaptive.into()),
                ("pin_cores".into(), join(&report.pin_cores).into()),
            ];
            if let Some(residence) = report.residence {
                fields.push(("residence".into(), residence.name().into()));
            }
            if let Some(verify) = &report.verify {
                fields.push(("verify.passed".into(), verify.passed.into()));
                fields.push(("verify.loop_iterations".into(), verify.loop_iterations.into()));
                fields
                    .push(("verify.expected_iterations".into(), verify.expected_iterations.into()));
                fields.push((
                    "verify.memory_ops_per_iteration".into(),
                    verify.memory_ops_per_iteration.into(),
                ));
                fields.push(("verify.footprint_lines".into(), verify.footprint_lines.into()));
                if let Some(observed) = verify.observed_residence {
                    fields.push(("verify.observed_residence".into(), observed.into()));
                }
                fields.push(("verify.detail".into(), verify.detail.as_str().into()));
            }
            if let Some(region) = report.region_seconds {
                fields.push(("region_seconds".into(), region.into()));
            }
            if let Some(energy) = report.energy_nj_per_iteration {
                fields.push(("energy_nj_per_iteration".into(), energy.into()));
            }
            if let Some(b) = &report.bottleneck {
                fields.push(("bottleneck.class".into(), b.class.name().into()));
                fields.push(("bottleneck.bound_cycles".into(), b.bound_cycles.into()));
                fields.push(("bottleneck.measured_cycles".into(), b.measured_cycles.into()));
                if let Some(runner_up) = b.runner_up {
                    fields.push(("bottleneck.runner_up".into(), runner_up.name().into()));
                }
                fields.push(("bottleneck.runner_up_cycles".into(), b.runner_up_cycles.into()));
            }
            let mut event = TraceEvent::new(EventKind::Event, "report");
            event.fields = fields;
            event.to_json()
        }

        /// Reconstructs a report from a store payload. `None` on any mismatch —
        /// the caller re-evaluates.
        pub(super) fn decode_report(payload: &str) -> Option<RunReport> {
            let event = TraceEvent::from_json(payload.trim()).ok()?;
            if event.name != "report" {
                return None;
            }
            let text = |key: &str| event.field(key).and_then(Value::as_str).map(str::to_owned);
            let float = |key: &str| event.field(key).and_then(Value::as_f64);
            let uint = |key: &str| event.field(key).and_then(Value::as_u64);
            let flag = |key: &str| event.field(key).and_then(Value::as_bool);
            let verify = match event.field("verify.passed") {
                Some(_) => Some(VerifyReport {
                    passed: flag("verify.passed")?,
                    loop_iterations: uint("verify.loop_iterations")?,
                    expected_iterations: uint("verify.expected_iterations")?,
                    memory_ops_per_iteration: float("verify.memory_ops_per_iteration")?,
                    footprint_lines: uint("verify.footprint_lines")?,
                    // Map through `Level` to recover the `&'static str` name.
                    observed_residence: match text("verify.observed_residence") {
                        Some(name) => Some(Level::from_name(&name)?.name()),
                        None => None,
                    },
                    detail: text("verify.detail")?,
                }),
                None => None,
            };
            let bottleneck = match event.field("bottleneck.class") {
                Some(_) => Some(Attribution {
                    class: BottleneckClass::from_name(&text("bottleneck.class")?)?,
                    bound_cycles: float("bottleneck.bound_cycles")?,
                    measured_cycles: float("bottleneck.measured_cycles")?,
                    runner_up: match text("bottleneck.runner_up") {
                        Some(name) => Some(BottleneckClass::from_name(&name)?),
                        None => None,
                    },
                    runner_up_cycles: float("bottleneck.runner_up_cycles")?,
                }),
                None => None,
            };
            let residence = match text("residence") {
                Some(name) => Some(Level::from_name(&name)?),
                None => None,
            };
            Some(RunReport {
                name: text("name")?,
                label: text("label")?,
                machine: text("machine")?,
                mode: Mode::from_name(&text("mode")?)?,
                workers: uint("workers")? as u32,
                cycles_per_iteration: float("cycles_per_iteration")?,
                seconds_full_function: float("seconds_full_function")?,
                summary: Summary {
                    count: uint("summary.count")? as usize,
                    min: float("summary.min")?,
                    max: float("summary.max")?,
                    mean: float("summary.mean")?,
                    median: float("summary.median")?,
                    stddev: float("summary.stddev")?,
                },
                stable: flag("stable")?,
                residence,
                pin_cores: parsed_list(&text("pin_cores")?)?,
                verify,
                region_seconds: float("region_seconds"),
                energy_nj_per_iteration: float("energy_nj_per_iteration"),
                bottleneck,
                samples_used: uint("samples_used")? as u32,
                adaptive: flag("adaptive")?,
            })
        }
    }

    fn real_report() -> RunReport {
        let desc = load_stream(mc_asm::Mnemonic::Movaps, 4, 4);
        let p = MicroCreator::new().generate(&desc).unwrap().programs.remove(0);
        let opts =
            LauncherOptions { repetitions: 2, meta_repetitions: 2, ..LauncherOptions::default() };
        MicroLauncher::new(opts).run(&KernelInput::program(p)).unwrap()
    }

    /// A report with every optional section present and awkward values
    /// (a comma, a non-terminating float, an integral float).
    fn fixed_report() -> RunReport {
        RunReport {
            name: "movaps_u4".into(),
            label: "golden".into(),
            machine: "Xeon X5650, 2.67 GHz".into(),
            mode: Mode::Fork,
            workers: 4,
            cycles_per_iteration: 2.375,
            seconds_full_function: 1.25e-6,
            summary: Summary {
                count: 3,
                min: 2.25,
                max: 2.5,
                mean: 2.375,
                median: 2.375,
                stddev: 0.10206207261596575,
            },
            stable: true,
            residence: Some(Level::L2),
            pin_cores: vec![0, 2, 4, 6],
            verify: Some(VerifyReport {
                passed: false,
                loop_iterations: 31,
                expected_iterations: 32,
                memory_ops_per_iteration: 4.0,
                footprint_lines: 128,
                observed_residence: Some("L2"),
                detail: "loop ran 31 of 32 iterations".into(),
            }),
            region_seconds: Some(3.5e-5),
            energy_nj_per_iteration: Some(0.1 + 0.2),
            bottleneck: Some(Attribution {
                class: BottleneckClass::Memory(Level::L2),
                bound_cycles: 2.0,
                measured_cycles: 2.375,
                runner_up: Some(BottleneckClass::Port(mc_simarch::uops::PortClass::Load)),
                runner_up_cycles: 1.0,
            }),
            samples_used: 3,
            adaptive: false,
        }
    }

    /// The payload bytes of [`fixed_report`] under `store-payload-v1`, as
    /// written by builds before the field-order codec: pins the oracle.
    const GOLDEN_REPORT: &str = concat!(
        r#"{"seq":0,"us":0,"kind":"event","name":"report","fields":{"name":"movaps_u4","#,
        r#""label":"golden","machine":"Xeon X5650, 2.67 GHz","mode":"fork","workers":4,"#,
        r#""cycles_per_iteration":2.375,"seconds_full_function":1.25e-6,"summary.count":3,"#,
        r#""summary.min":2.25,"summary.max":2.5,"summary.mean":2.375,"summary.median":2.375,"#,
        r#""summary.stddev":0.10206207261596575,"stable":true,"samples_used":3,"#,
        r#""adaptive":false,"pin_cores":"0 2 4 6","residence":"L2","verify.passed":false,"#,
        r#""verify.loop_iterations":31,"verify.expected_iterations":32,"#,
        r#""verify.memory_ops_per_iteration":4.0,"verify.footprint_lines":128,"#,
        r#""verify.observed_residence":"L2","verify.detail":"loop ran 31 of 32 iterations","#,
        r#""region_seconds":3.5e-5,"energy_nj_per_iteration":0.30000000000000004,"#,
        r#""bottleneck.class":"l2-bound","bottleneck.bound_cycles":2.0,"#,
        r#""bottleneck.measured_cycles":2.375,"bottleneck.runner_up":"load-port","#,
        r#""bottleneck.runner_up_cycles":1.0}}"#,
    );

    #[test]
    fn report_payload_bytes_are_pinned() {
        assert_eq!(v1::encode_report(&fixed_report()), GOLDEN_REPORT);
        assert_eq!(v1::decode_report(GOLDEN_REPORT), Some(fixed_report()));
        assert_eq!(decode_report(GOLDEN_REPORT), None, "a v1 payload is no v2 record");
    }

    /// The payload bytes of [`fixed_report`] under `store-payload-v2`:
    /// this encoding may only change together with `PAYLOAD_CODEC`.
    const GOLDEN_REPORT_V2: &str = concat!(
        "movaps_u4\tgolden\tXeon X5650, 2.67 GHz\tfork\t4\t4003000000000000\t",
        "3eb4f8b588e368f1\t3\t4002000000000000\t4004000000000000\t4003000000000000\t",
        "4003000000000000\t3fba20bd700c2c3e\t1\tL2\t0 2 4 6\t3\t0\t",
        "3f02599ed7c6fbd2\t3fd3333333333334\t",
        "0\t31\t32\t4010000000000000\t128\tL2\tloop ran 31 of 32 iterations\t",
        "l2-bound\t4000000000000000\t4003000000000000\tload-port\t3ff0000000000000",
    );

    #[test]
    fn field_order_payload_bytes_are_pinned() {
        assert_eq!(encode_report(&fixed_report()), GOLDEN_REPORT_V2);
        assert_eq!(decode_report(GOLDEN_REPORT_V2), Some(fixed_report()));
    }

    /// Reports covering every optional section both present and absent,
    /// and text that needs escaping.
    fn report_panel() -> Vec<RunReport> {
        let mut bare = fixed_report();
        bare.name = "tab\there, newline\nthere, backslash \\t".into();
        bare.label = String::new();
        (bare.residence, bare.verify, bare.region_seconds) = (None, None, None);
        (bare.energy_nj_per_iteration, bare.bottleneck, bare.pin_cores) = (None, None, vec![]);
        let mut partial = fixed_report();
        partial.cycles_per_iteration = -0.0;
        partial.summary.stddev = f64::MIN_POSITIVE / 3.0;
        partial.verify.as_mut().unwrap().observed_residence = None;
        partial.verify.as_mut().unwrap().detail = "a\\b\tc".into();
        partial.bottleneck.as_mut().unwrap().runner_up = None;
        vec![real_report(), fixed_report(), bare, partial]
    }

    #[test]
    fn field_order_codec_agrees_with_the_v1_oracle_bit_for_bit() {
        for report in report_panel() {
            let back = decode_report(&encode_report(&report)).expect("v2 round trip");
            let oracle = v1::decode_report(&v1::encode_report(&report)).expect("v1 round trip");
            assert_eq!(back, report);
            assert_eq!(back, oracle);
            // `==` equates 0.0 with -0.0; the Debug renderings tell them apart.
            assert_eq!(format!("{back:?}"), format!("{report:?}"));
        }
    }

    #[test]
    fn report_payload_round_trips_bit_identically() {
        let report = real_report();
        assert_eq!(decode_report(&encode_report(&report)), Some(report));
    }

    #[test]
    fn an_adaptive_report_round_trips_with_its_sampling_fields() {
        let desc = load_stream(mc_asm::Mnemonic::Movaps, 4, 4);
        let p = MicroCreator::new().generate(&desc).unwrap().programs.remove(0);
        let opts = LauncherOptions {
            repetitions: 2,
            adaptive: true,
            min_samples: 2,
            max_samples: 6,
            ..LauncherOptions::default()
        };
        let report = MicroLauncher::new(opts).run(&KernelInput::program(p)).unwrap();
        assert!(report.adaptive);
        let back = decode_report(&encode_report(&report)).expect("round trip");
        assert_eq!(back.samples_used, report.samples_used);
        assert_eq!(back, report);
    }

    #[test]
    fn missing_extra_or_mistyped_fields_fail_the_decode() {
        for report in report_panel() {
            let payload = encode_report(&report);
            let fields: Vec<&str> = payload.split('\t').collect();
            for victim in 0..fields.len() {
                let mut pruned = fields.clone();
                pruned.remove(victim);
                assert_eq!(
                    decode_report(&pruned.join("\t")),
                    None,
                    "decoded without field {victim}"
                );
            }
            assert_eq!(decode_report(&format!("{payload}\t1")), None, "decoded an extra field");
        }
        let payload = encode_report(&real_report());
        let fields: Vec<&str> = payload.split('\t').collect();
        for (at, bad) in [(3, "warp"), (4, "-1"), (5, "2.5"), (13, "true"), (14, "L9")] {
            let mut mistyped = fields.clone();
            mistyped[at] = bad;
            assert_eq!(decode_report(&mistyped.join("\t")), None, "decoded `{bad}` as field {at}");
        }
        assert_eq!(decode_report("dangling\\"), None);
    }

    #[test]
    fn generated_program_sets_round_trip_exactly() {
        for desc in [
            load_stream(mc_asm::Mnemonic::Movaps, 1, 4),
            multi_array_traversal(mc_asm::Mnemonic::Movss, 3),
        ] {
            let programs: Vec<Arc<Program>> = MicroCreator::new()
                .generate(&desc)
                .unwrap()
                .programs
                .into_iter()
                .map(Arc::new)
                .collect();
            let payload = encode_programs(&programs).expect("generator output must round-trip");
            let back = decode_programs(&payload).expect("decode");
            assert_eq!(back, programs);
            // The eval key hashes every field; it must survive too.
            for (a, b) in programs.iter().zip(&back) {
                assert_eq!(
                    crate::batch::program_fingerprint(a),
                    crate::batch::program_fingerprint(b)
                );
            }
        }
    }

    #[test]
    fn stride_and_repeat_variants_round_trip() {
        let desc =
            mc_kernel::builder::try_strided_stream(mc_asm::Mnemonic::Movss, &[1, 4, 64]).unwrap();
        let programs: Vec<Arc<Program>> = MicroCreator::new()
            .generate(&desc)
            .unwrap()
            .programs
            .into_iter()
            .map(Arc::new)
            .collect();
        let payload = encode_programs(&programs).expect("strided variants must round-trip");
        assert_eq!(decode_programs(&payload), Some(programs));
    }

    #[test]
    fn damaged_payloads_decode_to_none() {
        assert_eq!(decode_report("not json"), None);
        assert_eq!(decode_report("{\"kind\":\"event\",\"name\":\"other\"}"), None);
        assert_eq!(decode_programs("garbage\nlines"), None);
        let desc = load_stream(mc_asm::Mnemonic::Movaps, 2, 2);
        let programs: Vec<Arc<Program>> = MicroCreator::new()
            .generate(&desc)
            .unwrap()
            .programs
            .into_iter()
            .map(Arc::new)
            .collect();
        let payload = encode_programs(&programs).unwrap();
        let truncated = &payload[..payload.len() / 2];
        assert_eq!(decode_programs(truncated), None);
    }

    #[test]
    fn fingerprints_are_stable_within_a_build() {
        assert_eq!(schema_fingerprint(), schema_fingerprint());
        assert_eq!(calib_fingerprint(), calib_fingerprint());
        assert_ne!(schema_fingerprint(), calib_fingerprint());
    }

    #[test]
    fn install_store_round_trips_through_the_slot() {
        // Other tests share the process-wide slot; restore it on exit.
        let before = store();
        let dir =
            std::env::temp_dir().join(format!("mc_launcher_store_slot_{}", std::process::id()));
        let handle = install_store(&dir);
        assert_eq!(store().map(|s| s.root().to_owned()), Some(dir.clone()));
        // The installed handle writes under this build's fingerprints.
        let _ = std::fs::remove_dir_all(&dir);
        handle.save(EVAL_KIND, "00000000000000aa", "payload");
        let reader = DiskStore::open(&dir, schema_fingerprint(), calib_fingerprint());
        assert_eq!(reader.load(EVAL_KIND, "00000000000000aa").as_deref(), Some("payload"));
        let other = DiskStore::open(&dir, schema_fingerprint() ^ 1, calib_fingerprint());
        assert_eq!((other.load(EVAL_KIND, "00000000000000aa"), other.counters().stale), (None, 1));
        match before {
            Some(prev) => {
                *store_slot().write().unwrap() = Some(prev);
            }
            None => clear_store(),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
