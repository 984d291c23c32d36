//! Profiling is observation only. With `mc-scope` collection enabled,
//! the measured numbers, the rendered CSV documents, and the memo/store
//! keys must be byte-identical to a profile-off run — under any worker
//! count — and the profile files themselves must not depend on the
//! parallel schedule.
//!
//! Every run evaluates through its own context, but the worker count is
//! process-global, so every test serializes on one lock.

use mc_bench::figures::{quick_options, run_many, FigureResult};
use mc_launcher::profile::Profiler;
use mc_launcher::Ctx;
use mc_report::experiments::ExperimentId;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

static EXEC_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    EXEC_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The profiled determinism subset: one port-bound sweep and one
/// memory-bound sweep, so profiles cover both verdict families.
const FIGS: &[ExperimentId] = &[ExperimentId::Fig13, ExperimentId::Fig14];

/// A fresh scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mc-bench-profile-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fresh context, profiling into `dir` when given.
fn context(dir: Option<&Path>) -> (Ctx, Option<Arc<Profiler>>) {
    match dir {
        Some(dir) => {
            let profiler = Arc::new(Profiler::new(dir).expect("profiler opens"));
            (Ctx::new(mc_guard::Guard::default(), Some(profiler.clone())), Some(profiler))
        }
        None => (Ctx::default(), None),
    }
}

/// Runs the subset cold under `jobs` workers, optionally profiling.
fn run_figs(jobs: usize, profile_dir: Option<&Path>) -> Vec<FigureResult> {
    mc_exec::set_jobs(jobs);
    let (ctx, profiler) = context(profile_dir);
    let results = run_many(&ctx, FIGS, &quick_options()).expect("experiments run");
    if let Some(p) = profiler {
        p.finish(None);
    }
    results
}

/// The CSV body `reproduce --csv-dir` writes for one experiment (minus
/// the provenance header, which carries wall-clock fields by design).
fn csv_of(r: &FigureResult) -> String {
    let mut csv = mc_report::CsvWriter::new(vec!["series", "x", "y"]);
    for s in &r.series {
        for (x, y) in &s.points {
            csv.row(&[s.label.clone(), x.to_string(), y.to_string()]);
        }
    }
    csv.finish()
}

/// Sorted relative file paths under `dir`, skipping `skip`-named
/// components (e.g. the store ledger, whose counters legitimately move).
fn file_names(dir: &Path, skip: &[&str]) -> Vec<String> {
    fn walk(root: &Path, dir: &Path, skip: &[&str], out: &mut Vec<String>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if skip.contains(&name.as_str()) {
                continue;
            }
            if path.is_dir() {
                walk(root, &path, skip, out);
            } else {
                out.push(path.strip_prefix(root).unwrap().to_string_lossy().into_owned());
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, skip, &mut out);
    out.sort();
    out
}

#[test]
fn profiling_is_invisible_in_results_and_documents() {
    let _guard = lock();
    let dir = scratch("invisible");
    let baseline = run_figs(1, None);
    let profiled = run_figs(1, Some(&dir));
    // The collection really happened…
    let files = file_names(&dir, &[]);
    assert!(files.iter().any(|f| f.ends_with(".jsonl") && f != "index.jsonl"), "{files:?}");
    assert!(files.iter().any(|f| f == "index.jsonl"), "{files:?}");
    // …and every observable output is bit-for-bit the profile-off run.
    for (a, b) in baseline.iter().zip(&profiled) {
        assert_eq!(a.series.len(), b.series.len(), "{}: series count", a.id.key());
        for (sa, sb) in a.series.iter().zip(&b.series) {
            assert_eq!(sa.label, sb.label, "{}: series label", a.id.key());
            assert_eq!(sa.points, sb.points, "{}: series `{}`", a.id.key(), sa.label);
        }
        assert_eq!(a.table, b.table, "{}: rendered table", a.id.key());
        assert_eq!(csv_of(a), csv_of(b), "{}: CSV document", a.id.key());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_files_are_identical_across_worker_counts() {
    let _guard = lock();
    let (dir1, dir8) = (scratch("jobs1"), scratch("jobs8"));
    run_figs(1, Some(&dir1));
    run_figs(8, Some(&dir8));
    let names = file_names(&dir1, &[]);
    assert_eq!(names, file_names(&dir8, &[]), "profile file sets differ");
    for name in &names {
        let a = std::fs::read(dir1.join(name)).expect("jobs=1 profile readable");
        let b = std::fs::read(dir8.join(name)).expect("jobs=8 profile readable");
        assert_eq!(a, b, "{name}: bytes differ between jobs=1 and jobs=8");
        // Each profile must also be a valid, current-version document.
        if name != "index.jsonl" {
            let text = String::from_utf8(a).expect("profile is UTF-8");
            mc_scope::jsonl::validate(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir8);
}

#[test]
fn store_keys_do_not_depend_on_profiling() {
    let _guard = lock();
    let (store_off, store_on, profiles) =
        (scratch("store-off"), scratch("store-on"), scratch("store-profiles"));
    // Same evaluations, one store cold-filled with profiling off and one
    // with profiling on: the persisted keys must match, or
    // profiling has leaked into the fingerprint.
    mc_exec::set_jobs(2);
    let (off_ctx, _) = context(None);
    off_ctx.set_store(Some(&store_off));
    run_many(&off_ctx, FIGS, &quick_options()).expect("profile-off run");

    let (on_ctx, profiler) = context(Some(&profiles));
    on_ctx.set_store(Some(&store_on));
    run_many(&on_ctx, FIGS, &quick_options()).expect("profile-on run");
    assert!(!profiler.expect("profiling").is_empty(), "profiled run collected nothing");

    let keys = |dir: &Path| {
        use mc_launcher::store::{calib_fingerprint, schema_fingerprint, EVAL_KIND, GEN_KIND};
        let store = mc_store::DiskStore::open(dir, schema_fingerprint(), calib_fingerprint());
        [store.keys(EVAL_KIND), store.keys(GEN_KIND)]
    };
    let off = keys(&store_off);
    assert!(!off[0].is_empty(), "store stayed empty");
    assert_eq!(off, keys(&store_on), "store keys differ under profiling");
    for dir in [&store_off, &store_on, &profiles] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
