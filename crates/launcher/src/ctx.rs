//! The run context: the memos, the persistent store and the profiler an
//! evaluation may reuse or write, passed explicitly to the batch,
//! generation, the sweep drivers and [`crate::MicroLauncher::run_in`]. A
//! lone [`crate::MicroLauncher::run`] memoizes nothing. Clones of a
//! [`Ctx`] share one state (a supervised attempt may outlive its batch on
//! a deadline thread); dropping the last is the teardown, and two
//! contexts share nothing.

use crate::launcher::{RunReport, VerifyReport};
use crate::profile::Profiler;
use crate::store::{calib_fingerprint, schema_fingerprint};
use mc_exec::MemoCache;
use mc_kernel::Program;
use mc_simarch::ProgramModel;
use mc_store::DiskStore;
use std::path::Path;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// One run's memos, store and profiler, shared by every clone.
#[derive(Clone, Default)]
pub struct Ctx(pub(crate) Arc<State>);

/// What a [`Ctx`] handle shares; the memo keys are in [`crate::batch`].
pub(crate) struct State {
    pub(crate) evals: MemoCache<(u64, u64), RunReport>,
    pub(crate) verdicts: MemoCache<(u64, u64), VerifyReport>,
    pub(crate) models: MemoCache<(u64, u64), Arc<ProgramModel<'static>>>,
    pub(crate) generated: MemoCache<u64, Arc<Vec<Arc<Program>>>>,
    store: RwLock<Option<Arc<DiskStore>>>,
    profiler: Option<Arc<Profiler>>,
}

impl Default for State {
    fn default() -> Self {
        State {
            evals: MemoCache::new("exec.cache"),
            verdicts: MemoCache::new("simarch.verify"),
            models: MemoCache::new("simarch.model"),
            generated: MemoCache::new("exec.gen"),
            store: RwLock::new(None),
            profiler: None,
        }
    }
}

impl Ctx {
    /// The process-wide context: the daemon's, and the one the named
    /// shims act on until the benchmark passes its own (ROADMAP item 6).
    pub fn process() -> &'static Ctx {
        static PROCESS: OnceLock<Ctx> = OnceLock::new();
        PROCESS.get_or_init(Ctx::default)
    }

    /// A fresh context whose evaluations record profiles into `profiler`.
    pub fn with_profiler(profiler: Arc<Profiler>) -> Ctx {
        Ctx(Arc::new(State { profiler: Some(profiler), ..State::default() }))
    }

    /// Attaches the store rooted at `dir` under this build's fingerprints
    /// in place of any other (`None` detaches); returns it.
    pub fn set_store(&self, dir: Option<&Path>) -> Option<Arc<DiskStore>> {
        let store = dir
            .map(|dir| Arc::new(DiskStore::open(dir, schema_fingerprint(), calib_fingerprint())));
        *self.0.store.write().unwrap_or_else(PoisonError::into_inner) = store.clone();
        store
    }

    /// The attached disk store, if any.
    pub fn disk_store(&self) -> Option<Arc<DiskStore>> {
        self.0.store.read().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// The profiler this context's evaluations record into, if any.
    pub fn profiling(&self) -> Option<&Arc<Profiler>> {
        self.0.profiler.as_ref()
    }

    /// Drops every memoized evaluation, verification and estimate model.
    pub fn clear_cache(&self) {
        self.0.evals.clear();
        self.0.verdicts.clear();
        self.0.models.clear();
    }

    /// `(hits, misses)` of the evaluation memo since it was last cleared.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.0.evals.stats()
    }

    /// `(hits, misses)` of the verification memo since it was last cleared.
    pub fn verify_cache_stats(&self) -> (u64, u64) {
        self.0.verdicts.stats()
    }

    /// `(hits, misses)` of the estimate-model memo since it was last cleared.
    pub fn model_cache_stats(&self) -> (u64, u64) {
        self.0.models.stats()
    }
}
