//! Disk-full injection (`enospc@I`) against the store's durable writers.
//!
//! These tests install process-global fault plans, so they live in their
//! own integration binary (cargo runs test binaries one at a time) and
//! serialize against each other through a local lock.

use mc_store::{ledger_totals, DiskStore};
use std::path::PathBuf;
use std::sync::Mutex;

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mc_store_enospc_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_full_disk_record_write_is_skipped_and_counted() {
    let _g = lock();
    let root = scratch("record");
    let store = DiskStore::open(&root, 1, 2);
    mc_guard::install_write_faults(&mc_guard::FaultPlan::new().enospc_at(1));
    mc_guard::reset_write_indices();
    store.save("eval", "00000000000000aa", "survives");
    store.save("eval", "00000000000000bb", "lost to the full disk");
    store.save("eval", "00000000000000cc", "also survives");
    mc_guard::install_write_faults(&mc_guard::FaultPlan::new());
    let c = store.counters();
    assert_eq!((c.saved, c.write_failed), (2, 1), "{c:?}");
    // The failed write left no record and no torn file: a clean miss.
    assert_eq!(store.load("eval", "00000000000000bb"), None);
    let c = store.counters();
    assert_eq!((c.miss, c.skipped_corrupt), (1, 0), "never cache-corrupting: {c:?}");
    // The survivors still serve, and the failure lands in the ledger.
    assert_eq!(store.load("eval", "00000000000000aa").as_deref(), Some("survives"));
    assert_eq!(store.load("eval", "00000000000000cc").as_deref(), Some("also survives"));
    store.flush_ledger();
    let totals = ledger_totals(&root);
    assert_eq!(totals.counters.write_failed, 1);
    assert_eq!(totals.counters.saved, 2);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_full_disk_ledger_append_is_not_fatal() {
    let _g = lock();
    let root = scratch("ledger");
    let store = DiskStore::open(&root, 1, 2);
    store.save("eval", "00000000000000aa", "p");
    mc_guard::install_write_faults(&mc_guard::FaultPlan::new().enospc_at(0));
    mc_guard::reset_write_indices();
    store.flush_ledger(); // swallowed: diagnosed, not propagated
    mc_guard::install_write_faults(&mc_guard::FaultPlan::new());
    assert_eq!(ledger_totals(&root).processes, 0, "nothing landed");
    // The record tier is untouched and a later flush succeeds.
    assert_eq!(store.load("eval", "00000000000000aa").as_deref(), Some("p"));
    store.flush_ledger();
    let totals = ledger_totals(&root);
    assert_eq!(totals.processes, 1);
    assert_eq!(totals.counters.saved, 1);
    let _ = std::fs::remove_dir_all(&root);
}
