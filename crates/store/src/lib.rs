//! mc-store: the persistent disk tier behind the in-memory memo cache,
//! keyed by the same FNV fingerprints, so a rerun or a crash-resume in a
//! *new process* warms up from records an earlier process already paid
//! simulator time for. [`record`] is the self-validating on-disk frame;
//! [`store`] is the [`DiskStore`] handle over one append-only log per
//! namespace, the hit ledger, [`scan`] and size-bounded [`gc`]. Payloads
//! are opaque strings the launcher encodes. A damaged or mismatched store
//! can cost simulator time, never correctness.

pub mod record;
pub mod store;

pub use record::{decode, encode, Expect, Header, RecordIssue, FORMAT_VERSION, HEADER_LEN, MAGIC};
pub use store::{
    gc, ledger_size, ledger_totals, scan, DiskStore, GcReport, LedgerTotals, StoreCounters,
    StoreScan, LEDGER_COMPACT_BYTES,
};
