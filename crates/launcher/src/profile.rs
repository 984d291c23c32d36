//! The launcher's side of evaluation profiling (mc-scope).
//!
//! A [`Profiler`] belongs to a run context ([`crate::Ctx::with_profiler`]):
//! binaries build one when `--profile` is passed, and the simulated run
//! path collects an [`EvalProfile`] per kernel it *evaluates* under that
//! context (memo/store warm hits produce no profile — a profile documents
//! an evaluation that actually happened).
//!
//! Profiling is pure observation. It is deliberately **not** part of
//! [`crate::options::LauncherOptions`], so it can never reach the
//! memo/store fingerprints: the same evaluation produces the same key,
//! the same CSV bytes and the same store records whether or not a
//! profile was collected. Profile files are named by that very key
//! (`<program_fp>-<options_fp>.jsonl`), which both prevents duplicates
//! and ties each profile to its memo and store entries.
//!
//! [`Profiler::finish`] stamps the registry run ID into every collected
//! profile and writes an `index.jsonl` ledger beside them, linking
//! profiles to mc-pulse runs.

use mc_scope::{jsonl, EvalProfile};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Collects evaluation profiles into a directory.
#[derive(Debug)]
pub struct Profiler {
    dir: PathBuf,
    entries: Mutex<Vec<EvalProfile>>,
}

impl Profiler {
    /// A profiler writing into `dir` (created if missing).
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| format!("profile dir {}: {e}", dir.display()))?;
        Ok(Profiler { dir, entries: Mutex::new(Vec::new()) })
    }

    /// The directory profiles are written into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records one evaluation's profile: written to
    /// `<dir>/<key>.jsonl` immediately (crash-safe), and kept for the
    /// run-ID stamping pass in [`Profiler::finish`].
    pub fn record(&self, profile: EvalProfile) {
        let path = self.path_of(&profile);
        if let Err(e) = mc_report::atomic_write_str(&path, &jsonl::encode(&profile)) {
            mc_trace::diag!("profile: write {} failed: {e}", path.display());
            return;
        }
        self.entries.lock().expect("profiler entries poisoned").push(profile);
    }

    /// Profiles recorded so far.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("profiler entries poisoned").len()
    }

    /// Kernel names of the profiles recorded so far, in record order.
    #[cfg(test)]
    pub(crate) fn kernels(&self) -> Vec<String> {
        let entries = self.entries.lock().expect("profiler entries poisoned");
        entries.iter().map(|p| p.kernel.clone()).collect()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finalizes the collection: de-duplicates by key, stamps `run_id`
    /// into every profile (rewriting the files), and writes the
    /// `index.jsonl` ledger. Returns the number of distinct profiles.
    pub fn finish(&self, run_id: Option<&str>) -> usize {
        let mut entries = {
            let mut guard = self.entries.lock().expect("profiler entries poisoned");
            std::mem::take(&mut *guard)
        };
        // Deterministic order and one profile per key, independent of the
        // number of evaluation workers.
        entries.sort_by_key(|a| a.key());
        entries.dedup_by(|a, b| a.key() == b.key());
        if entries.is_empty() {
            return 0;
        }
        let mut index = String::new();
        for profile in &mut entries {
            if let Some(id) = run_id {
                profile.run_id = id.to_string();
                let path = self.path_of(profile);
                if let Err(e) = mc_report::atomic_write_str(&path, &jsonl::encode(profile)) {
                    mc_trace::diag!("profile: restamp {} failed: {e}", path.display());
                }
            }
            let event = mc_trace::TraceEvent::new(mc_trace::EventKind::Event, "profile")
                .with("key", profile.key().as_str())
                .with("kernel", profile.kernel.as_str())
                .with("file", format!("{}.jsonl", profile.key()).as_str())
                .with("run_id", run_id.unwrap_or(""));
            index.push_str(&event.to_json());
            index.push('\n');
        }
        let count = entries.len();
        if let Err(e) = mc_report::atomic_write_str(&self.dir.join("index.jsonl"), &index) {
            mc_trace::diag!("profile: index write failed: {e}");
        }
        count
    }

    fn path_of(&self, profile: &EvalProfile) -> PathBuf {
        self.dir.join(format!("{}.jsonl", profile.key()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_scope::{Collector, ScopeSink, VerdictScope};

    fn sample(kernel: &str, pfp: &str) -> EvalProfile {
        let mut c = Collector::new(kernel);
        c.bound(mc_scope::BoundScope { name: "frontend".into(), cycles: 1.0 });
        let mut p = c.finish();
        p.program_fingerprint = pfp.into();
        p.options_fingerprint = "00000000000000ff".into();
        p.set_verdict(VerdictScope { class: "frontend".into(), ..VerdictScope::default() });
        p
    }

    #[test]
    fn records_rewrites_and_indexes() {
        let dir = std::env::temp_dir().join(format!("mc_profiler_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let profiler = Profiler::new(&dir).unwrap();
        profiler.record(sample("a", "0000000000000001"));
        profiler.record(sample("b", "0000000000000002"));
        // Duplicate key: collapsed at finish.
        profiler.record(sample("a", "0000000000000001"));
        assert_eq!(profiler.len(), 3);
        let count = profiler.finish(Some("run-42"));
        assert_eq!(count, 2);
        // Files parse, carry the run ID, and the index lists them.
        let text =
            std::fs::read_to_string(dir.join("0000000000000001-00000000000000ff.jsonl")).unwrap();
        let decoded = jsonl::decode(&text).unwrap();
        assert_eq!(decoded.run_id, "run-42");
        assert_eq!(decoded.kernel, "a");
        let index = std::fs::read_to_string(dir.join("index.jsonl")).unwrap();
        assert_eq!(index.lines().count(), 2);
        assert!(index.contains("run-42"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_without_entries_writes_nothing() {
        let dir = std::env::temp_dir().join(format!("mc_profiler_empty_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let profiler = Profiler::new(&dir).unwrap();
        assert!(profiler.is_empty());
        assert_eq!(profiler.finish(None), 0);
        assert!(!dir.join("index.jsonl").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
