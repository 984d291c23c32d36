//! Batch evaluation: many `(Program, LauncherOptions)` points through the
//! mc-exec engine, memoized in a run context ([`Ctx`]).
//!
//! An [`EvalPoint`] is a program and the options it runs under, each
//! behind an `Arc`: a sweep driver builds every distinct option set once
//! and shares it across the programs at that setting. A point's options
//! are cloned only when it actually evaluates; memo and disk hits read
//! nothing but its key. Results come back in submission order, so a
//! parallel batch is bit-identical to the serial loop it replaces.
//!
//! ## Cache key derivation
//!
//! A context's three evaluation memos share one program fingerprint
//! ([`program_fingerprint`]), computed once per distinct `Arc` in the
//! batch, not per point (DESIGN.md §10 has the full derivation):
//!
//! * **evaluation** — `(program fingerprint,`
//!   [`LauncherOptions::fingerprint`]`)` → the finished [`RunReport`].
//!   Only `Ok` reports are cached; errors always re-evaluate.
//! * **verification** — `(program fingerprint,
//!   KernelEnvironment::verify_fingerprint)` → the interpreter's verdict,
//!   shared by the points of a frequency or core sweep.
//! * **estimate model** — `(program fingerprint, machine preset)` → the
//!   program-and-machine half of the estimate
//!   ([`mc_simarch::ProgramModel`]).
//!
//! With a store attached ([`Ctx::set_store`]) a memo miss first consults
//! the store under the same key, and fresh results are appended to it as
//! they finish (one fsync per batch), so a new process — or the rerun of
//! a killed sweep — evaluates only what no earlier process finished.
//! Failed points are never saved. Records self-invalidate on schema or
//! calibration changes, and a damaged store degrades to misses, never to
//! wrong results.
//!
//! ## Supervision
//!
//! Every point runs through its context's [`mc_guard::Guard`]: a panic,
//! a blown per-eval deadline or an exhausted retry budget yields a
//! structured [`mc_guard::EvalError`] for that point while the rest of
//! the batch completes. Memo hits, disk hits and evaluations all happen
//! inside the supervised attempt, so an armed fault fires at its eval
//! index however the point is then answered.

use crate::ctx::Ctx;
use crate::input::KernelInput;
use crate::launcher::{MicroLauncher, RunReport};
use crate::options::LauncherOptions;
use mc_guard::EvalError;
use mc_kernel::Program;
use std::collections::HashMap;
use std::sync::Arc;

/// One evaluation point of a sweep: a program and the options it runs
/// under, both shared by every point that uses them.
#[derive(Debug, Clone)]
pub struct EvalPoint {
    /// The kernel to evaluate.
    pub program: Arc<Program>,
    /// The options this point runs under.
    pub options: Arc<LauncherOptions>,
}

impl EvalPoint {
    /// A point evaluating `program` under `options`.
    pub fn new(program: Arc<Program>, options: Arc<LauncherOptions>) -> Self {
        EvalPoint { program, options }
    }
}

/// [`Ctx::clear_cache`] on the process context; goes with ROADMAP item 6.
pub fn clear_cache() {
    Ctx::process().clear_cache();
}

/// [`Ctx::cache_stats`] of the process context; goes with ROADMAP item 6.
pub fn cache_stats() -> (u64, u64) {
    Ctx::process().cache_stats()
}

/// Bumped whenever the bytes [`program_fingerprint`] hashes change shape,
/// so keys of the old scheme can never collide with the new.
const PROGRAM_KEY_VERSION: u64 = 2;

/// A stable fingerprint of a program: FNV-1a over what its derived `Hash`
/// writes (every field of the program and its [`mc_kernel::VariantMeta`],
/// in declaration order), after a version tag. A pure function of the
/// program's value: `Program`'s fields are public, so a cached copy could
/// go stale.
pub fn program_fingerprint(program: &Program) -> u64 {
    mc_report::Fnv64::new().u64(PROGRAM_KEY_VERSION).hashed(program).finish()
}

/// [`Ctx::try_run_batch_supervised`] on the process context; goes with
/// ROADMAP item 6.
pub fn try_run_batch_supervised(points: Vec<EvalPoint>) -> Vec<Result<RunReport, EvalError>> {
    Ctx::process().try_run_batch_supervised(points)
}

impl Ctx {
    /// Evaluates every point under guard supervision through this
    /// context's memos and store, keeping structured per-point failures:
    /// `results[i]` corresponds to `points[i]`. Failures are neither
    /// cached nor persisted, so a rerun retries them.
    ///
    /// Eval indices for fault injection are reserved contiguously from
    /// this context's guard at submission time, so `results[i]` always
    /// carries index `base + i` regardless of worker count — the
    /// foundation of the "jobs=1 and jobs=8 agree under injected faults"
    /// guarantee.
    pub fn try_run_batch_supervised(
        &self,
        points: Vec<EvalPoint>,
    ) -> Vec<Result<RunReport, EvalError>> {
        let mut span = mc_trace::span("launcher.batch");
        span.field("points", points.len() as u64);
        span.field("jobs", mc_exec::jobs() as u64);
        let base_index = self.guard().reserve(points.len());
        // One fingerprint per distinct program allocation, not per point.
        let mut fingerprints: HashMap<*const Program, u64> = HashMap::new();
        let prepared: Vec<(u64, u64, EvalPoint)> = points
            .into_iter()
            .enumerate()
            .map(|(i, point)| {
                let fp = *fingerprints
                    .entry(Arc::as_ptr(&point.program))
                    .or_insert_with(|| program_fingerprint(&point.program));
                (base_index + i as u64, fp, point)
            })
            .collect();
        let results = mc_exec::engine().run(prepared, |(index, program_fp, point)| {
            let EvalPoint { program, options } = point;
            let key = (program_fp, options.fingerprint());
            let label = program.name.clone();
            // A supervised attempt may outlive this call on a deadline
            // thread, so it holds its own handle on the context.
            let ctx = self.clone();
            self.guard().supervise(index, &label, move || {
                let store = ctx.disk_store();
                let mut computed = false;
                let report = ctx.0.evals.get_or_try_compute(key, || {
                    computed = true;
                    // Second tier: a record persisted by an earlier process
                    // answers without touching the simulator.
                    let stored = store.as_ref().map(|store| (store, crate::store::eval_key(key)));
                    if let Some(report) = stored
                        .as_ref()
                        .and_then(|(store, store_key)| {
                            store.load(crate::store::EVAL_KIND, store_key)
                        })
                        .and_then(|payload| crate::store::decode_report(&payload))
                    {
                        return Ok(report);
                    }
                    // Only an evaluation clones the options.
                    let report = MicroLauncher::new(LauncherOptions::clone(&options)).run_input(
                        Some(&ctx),
                        &KernelInput::program(program.clone()),
                        Some(program_fp),
                    )?;
                    if let Some((store, store_key)) = &stored {
                        let payload = crate::store::encode_report(&report);
                        store.save(crate::store::EVAL_KIND, store_key, &payload);
                    }
                    Ok(report)
                });
                if let (false, Some(store)) = (computed, &store) {
                    store.note_mem_hit();
                }
                report
            })
        });
        // One fsync per batch makes every record it saved durable.
        if let Some(store) = self.disk_store() {
            store.sync();
        }
        results
    }

    /// Evaluates every point, failing on the first error (in submission
    /// order, so the reported error is deterministic too).
    pub fn run_batch(&self, points: Vec<EvalPoint>) -> Result<Vec<RunReport>, String> {
        self.try_run_batch_supervised(points)
            .into_iter()
            .map(|result| result.map_err(|error| error.to_string()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_asm::format::AsmLine;
    use mc_creator::MicroCreator;
    use mc_kernel::builder::{figure6, load_stream};
    use mc_kernel::{MemDir, VariantMeta};

    fn movaps_program(unroll: u32) -> Arc<Program> {
        let desc = load_stream(mc_asm::Mnemonic::Movaps, unroll, unroll);
        Arc::new(MicroCreator::new().generate(&desc).unwrap().programs.remove(0))
    }

    fn opts() -> LauncherOptions {
        LauncherOptions { repetitions: 4, meta_repetitions: 3, ..LauncherOptions::default() }
    }

    #[test]
    fn batch_matches_serial_runs_exactly() {
        let programs: Vec<Arc<Program>> = (1..=8).map(movaps_program).collect();
        let launcher = MicroLauncher::new(opts());
        let serial: Vec<RunReport> = programs
            .iter()
            .map(|p| launcher.run(&KernelInput::program(p.clone())).unwrap())
            .collect();
        let base = Arc::new(opts());
        let points = programs.iter().map(|p| EvalPoint::new(p.clone(), base.clone())).collect();
        assert_eq!(serial, Ctx::default().run_batch(points).unwrap());
    }

    #[test]
    fn options_take_effect_per_point() {
        use mc_simarch::config::Level;
        let program = movaps_program(8);
        let at = |level| Arc::new(LauncherOptions { residence: Some(level), ..opts() });
        let points = vec![
            EvalPoint::new(program.clone(), at(Level::L1)),
            EvalPoint::new(program.clone(), at(Level::Ram)),
        ];
        let reports = Ctx::default().run_batch(points).unwrap();
        assert_eq!(reports[0].residence, Some(Level::L1));
        assert_eq!(reports[1].residence, Some(Level::Ram));
        assert!(reports[1].cycles_per_iteration > reports[0].cycles_per_iteration);
    }

    #[test]
    fn identical_points_agree_through_the_cache() {
        // A private context: its memo sees only these batches, so the
        // exact hit/miss accounting is this test's alone. The first point
        // runs alone, so no two workers race on the missing entry.
        let ctx = Ctx::default();
        let program = movaps_program(4);
        let base = Arc::new(opts());
        let point = || EvalPoint::new(program.clone(), base.clone());
        let mut reports = ctx.run_batch(vec![point()]).unwrap();
        reports.extend(ctx.run_batch((0..5).map(|_| point()).collect()).unwrap());
        for r in &reports[1..] {
            assert_eq!(r, &reports[0]);
        }
        assert_eq!(ctx.cache_stats(), (5, 1), "one evaluation, five replays");
    }

    #[test]
    fn fixed_and_adaptive_queries_never_share_a_cache_entry() {
        // The memo key hashes the full option surface, so the adaptive
        // toggle and its bounds separate cache entries: a fixed-mode
        // result (meta_repetitions samples) must never answer an adaptive
        // query (which settles at min_samples on the quiet simulator).
        let program = movaps_program(4);
        let fixed_base = Arc::new(opts());
        let adaptive_base =
            Arc::new(LauncherOptions { adaptive: true, min_samples: 2, max_samples: 8, ..opts() });
        let reports = Ctx::default()
            .run_batch(vec![
                EvalPoint::new(program.clone(), fixed_base.clone()),
                EvalPoint::new(program.clone(), adaptive_base.clone()),
                EvalPoint::new(program.clone(), fixed_base.clone()),
            ])
            .unwrap();
        assert_eq!(reports[0].samples_used, 3, "fixed mode pays the full budget");
        assert!(!reports[0].adaptive);
        assert_eq!(reports[1].samples_used, 2, "adaptive answer came from a fixed entry");
        assert!(reports[1].adaptive);
        assert_eq!(reports[2], reports[0]);
        assert_eq!(
            reports[0].cycles_per_iteration, reports[1].cycles_per_iteration,
            "policies disagree only in sampling, not in the reported cycles"
        );
    }

    /// A Figure 6 program with every optional field of its metadata set.
    fn full_program() -> Program {
        let mut program = MicroCreator::new().generate(&figure6()).unwrap().programs.remove(5);
        program.meta.strides = vec![1, 4];
        program.meta.immediates = vec![7];
        program.meta.repeat = Some(2);
        program.meta.extra = vec![("stamped".into(), "yes".into())];
        program
    }

    #[test]
    fn every_field_reaches_the_program_fingerprint() {
        let base = full_program();
        // A new field must join the perturbations below: this binding
        // stops compiling when one is added.
        let Program {
            name: _,
            meta:
                VariantMeta {
                    kernel: _,
                    unroll: _,
                    mnemonic: _,
                    directions: _,
                    strides: _,
                    immediates: _,
                    repeat: _,
                    extra: _,
                },
            lines: _,
            nb_arrays: _,
            element_bytes: _,
            elements_per_iteration: _,
        } = &base;
        let with = |change: &dyn Fn(&mut Program)| {
            let mut p = base.clone();
            change(&mut p);
            p
        };
        let variants: Vec<(&str, Program)> = vec![
            ("name", with(&|p| p.name.push('x'))),
            ("meta.kernel", with(&|p| p.meta.kernel.push('x'))),
            ("meta.unroll", with(&|p| p.meta.unroll += 1)),
            ("meta.mnemonic", with(&|p| p.meta.mnemonic = None)),
            (
                "meta.directions: one element",
                with(&|p| {
                    p.meta.directions[0] = match p.meta.directions[0] {
                        MemDir::Load => MemDir::Store,
                        MemDir::Store => MemDir::Load,
                    }
                }),
            ),
            ("meta.directions: one fewer", with(&|p| p.meta.directions.truncate(1))),
            ("meta.strides: one element", with(&|p| p.meta.strides[1] = 8)),
            ("meta.strides: one fewer", with(&|p| p.meta.strides.truncate(1))),
            ("meta.immediates", with(&|p| p.meta.immediates[0] = -7)),
            ("meta.repeat", with(&|p| p.meta.repeat = None)),
            ("meta.extra: key", with(&|p| p.meta.extra[0].0.push('x'))),
            ("meta.extra: value", with(&|p| p.meta.extra[0].1.push('x'))),
            ("meta.extra: one more", with(&|p| p.meta.extra.push(("k".into(), "v".into())))),
            ("lines: a label", with(&|p| p.lines[0] = AsmLine::Label(".L7".into()))),
            (
                "lines: a mnemonic",
                with(&|p| {
                    let inst = p.lines.iter_mut().find_map(|l| match l {
                        AsmLine::Inst(inst) => Some(inst),
                        _ => None,
                    });
                    inst.expect("an instruction").mnemonic = mc_asm::Mnemonic::Movups;
                }),
            ),
            ("lines: one fewer", with(&|p| p.lines.truncate(p.lines.len() - 1))),
            ("nb_arrays", with(&|p| p.nb_arrays += 1)),
            ("element_bytes", with(&|p| p.element_bytes = 8)),
            ("elements_per_iteration", with(&|p| p.elements_per_iteration += 1)),
        ];
        let mut keys = HashMap::new();
        keys.insert(program_fingerprint(&base), "base");
        for (name, program) in &variants {
            assert_ne!(program, &base, "{name} perturbs nothing");
            if let Some(other) = keys.insert(program_fingerprint(program), name) {
                panic!("{name} shares a key with {other}");
            }
        }
        // Strings are terminated: moving a byte across a boundary changes
        // the key.
        let split = |name: &str, kernel: &str| {
            with(&|p| (p.name, p.meta.kernel) = (name.into(), kernel.into()))
        };
        assert_ne!(program_fingerprint(&split("ab", "c")), program_fingerprint(&split("a", "bc")));
        // A pure function of the value: clones and re-derivations agree.
        assert_eq!(program_fingerprint(&base.clone()), program_fingerprint(&full_program()));
    }

    #[test]
    fn figure6_program_keys_are_pinned() {
        let programs = MicroCreator::new().generate(&figure6()).unwrap().programs;
        let mut keys: Vec<u64> = programs.iter().map(program_fingerprint).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 510, "every variant has its own key");
        let digest = keys.iter().fold(mc_report::Fnv64::new(), |fnv, &key| fnv.u64(key)).finish();
        // Golden value; a change here moves every store and memo key.
        assert_eq!(format!("{digest:016x}"), "875c62cdc58543f9");
    }

    #[test]
    fn xml_and_builder_programs_share_their_keys() {
        let xml = include_str!("../../../descriptions/figure6.xml");
        let parsed = mc_kernel::xml::parse_kernel(xml).unwrap();
        let from_xml = MicroCreator::new().generate(&parsed).unwrap().programs;
        let built = MicroCreator::new().generate(&figure6()).unwrap().programs;
        assert_eq!(from_xml.len(), 510);
        let keys =
            |programs: &[Program]| programs.iter().map(program_fingerprint).collect::<Vec<_>>();
        assert_eq!(keys(&from_xml), keys(&built));
        // The description key too: both spellings share one generated set.
        let ctx = Ctx::default();
        let shared = ctx.generate_shared(&parsed).unwrap();
        assert!(Arc::ptr_eq(&shared, &ctx.generate_shared(&figure6()).unwrap()));
    }

    #[test]
    fn per_point_errors_stay_per_point() {
        let good = movaps_program(2);
        let base = Arc::new(opts());
        let results = Ctx::default().try_run_batch_supervised(vec![
            EvalPoint::new(good.clone(), base.clone()),
            EvalPoint::new(good, Arc::new(LauncherOptions { trip_count: 3, ..opts() })),
        ]);
        assert!(results[0].is_ok());
        // The second point either errors or reports a failed verification;
        // either way it must not poison the first.
        if let Ok(report) = &results[1] {
            assert!(report.verify.is_some());
        }
    }
}
