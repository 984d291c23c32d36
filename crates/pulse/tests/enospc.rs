//! Disk-full injection (`enospc@I`) against the registry writers.
//!
//! Fault plans are process-global, so these tests live in their own
//! integration binary and serialize through a local lock.

use mc_pulse::{Registry, RunRecord};
use mc_report::RunManifest;
use std::path::PathBuf;
use std::sync::Mutex;

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mc_pulse_enospc_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sample_record() -> RunRecord {
    let mut manifest = RunManifest::new();
    manifest.set("machine", "x5650").set("input", "fig6.xml");
    RunRecord::new("microlauncher", "0.1.0", 0, manifest)
}

#[test]
fn a_full_disk_registration_leaves_no_torn_record() {
    let _g = lock();
    let dir = scratch("stage");
    let reg = Registry::open(&dir);
    // Fail each of the three staged files in turn: every attempt must
    // clean its stage and leave the registry consistent.
    for i in 0..3u64 {
        mc_guard::install_write_faults(&mc_guard::FaultPlan::new().enospc_at(i));
        mc_guard::reset_write_indices();
        assert!(reg.register(&sample_record()).is_err(), "write {i} must fail");
        mc_guard::install_write_faults(&mc_guard::FaultPlan::new());
        let stages = std::fs::read_dir(reg.runs_dir()).map(|it| it.flatten().count()).unwrap_or(0);
        assert_eq!(stages, 0, "no stage litter after failing write {i}");
        assert!(reg.load_index().unwrap().is_empty(), "no index line for a lost record");
    }
    // With the plan cleared the same record registers cleanly.
    let run_id = reg.register(&sample_record()).unwrap();
    assert!(reg.run_dir(&run_id).join("points.csv").exists());
    assert_eq!(reg.load_index().unwrap().len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_full_disk_index_append_is_retryable() {
    let _g = lock();
    let dir = scratch("index");
    let reg = Registry::open(&dir);
    // Write index 3 is the index append (after the three staged files).
    mc_guard::install_write_faults(&mc_guard::FaultPlan::new().enospc_at(3));
    mc_guard::reset_write_indices();
    let record = sample_record();
    assert!(reg.register(&record).is_err(), "index append must fail");
    mc_guard::install_write_faults(&mc_guard::FaultPlan::new());
    // The record directory landed; only the index line is missing.
    assert!(reg.run_dir(&record.run_id()).join("manifest.txt").exists());
    assert!(reg.load_index().unwrap().is_empty());
    // Re-registering the identical record reuses the directory and
    // appends the line that was lost.
    let run_id = reg.register(&record).unwrap();
    assert_eq!(run_id, record.run_id());
    assert_eq!(reg.load_index().unwrap().len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
