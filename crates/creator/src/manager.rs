//! The pass manager: ordered pass list with the plugin-facing mutation API
//! (add / remove / replace / re-gate — §3.3).

use crate::context::GenContext;
use crate::error::{CreatorError, CreatorResult};
use crate::pass::Pass;
use std::sync::Arc;
use std::time::Instant;

type GateOverride = Arc<dyn Fn(&GenContext) -> bool + Send + Sync>;

struct Entry {
    pass: Box<dyn Pass + Send + Sync>,
    gate_override: Option<GateOverride>,
}

impl Entry {
    fn gate(&self, ctx: &GenContext) -> bool {
        match &self.gate_override {
            Some(g) => g(ctx),
            None => self.pass.gate(ctx),
        }
    }
}

/// Ordered collection of passes.
#[derive(Default)]
pub struct PassManager {
    entries: Vec<Entry>,
}

impl PassManager {
    /// An empty manager.
    pub fn new() -> Self {
        PassManager { entries: Vec::new() }
    }

    /// The standard nineteen-pass MicroCreator pipeline.
    pub fn standard() -> Self {
        let mut pm = PassManager::new();
        for pass in crate::passes::standard_passes() {
            pm.entries.push(Entry { pass, gate_override: None });
        }
        pm
    }

    /// Pass names in execution order.
    pub fn pass_names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.pass.name()).collect()
    }

    /// Number of registered passes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no passes are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn position(&self, name: &str) -> CreatorResult<usize> {
        self.entries
            .iter()
            .position(|e| e.pass.name() == name)
            .ok_or_else(|| CreatorError::Plugin(format!("no pass named `{name}`")))
    }

    /// Appends a pass at the end.
    pub fn add_pass(&mut self, pass: Box<dyn Pass + Send + Sync>) {
        self.entries.push(Entry { pass, gate_override: None });
    }

    /// Inserts a pass before the named pass.
    pub fn insert_before(
        &mut self,
        name: &str,
        pass: Box<dyn Pass + Send + Sync>,
    ) -> CreatorResult<()> {
        let i = self.position(name)?;
        self.entries.insert(i, Entry { pass, gate_override: None });
        Ok(())
    }

    /// Inserts a pass after the named pass.
    pub fn insert_after(
        &mut self,
        name: &str,
        pass: Box<dyn Pass + Send + Sync>,
    ) -> CreatorResult<()> {
        let i = self.position(name)?;
        self.entries.insert(i + 1, Entry { pass, gate_override: None });
        Ok(())
    }

    /// Removes the named pass.
    pub fn remove_pass(&mut self, name: &str) -> CreatorResult<()> {
        let i = self.position(name)?;
        self.entries.remove(i);
        Ok(())
    }

    /// Replaces the named pass, keeping its position. "A user may replace
    /// or rewrite any of the internal passes with the fully exposed API"
    /// (§3.3).
    pub fn replace_pass(
        &mut self,
        name: &str,
        pass: Box<dyn Pass + Send + Sync>,
    ) -> CreatorResult<()> {
        let i = self.position(name)?;
        self.entries[i] = Entry { pass, gate_override: None };
        Ok(())
    }

    /// Overrides the named pass's gate. "MicroCreator also permits a
    /// redefinition of any pass gate" (§3.3).
    pub fn set_gate(
        &mut self,
        name: &str,
        gate: impl Fn(&GenContext) -> bool + Send + Sync + 'static,
    ) -> CreatorResult<()> {
        let i = self.position(name)?;
        self.entries[i].gate_override = Some(Arc::new(gate));
        Ok(())
    }

    /// Runs the pipeline over a context, recording per-pass statistics.
    /// Returns `(pass name, ran?, candidates after, programs after)` rows.
    ///
    /// When tracing is enabled (see `mc-trace`), each gated-in pass emits
    /// one `creator.pass` span carrying variant counts and wall time, and
    /// each gated-off pass emits one `creator.pass.skipped` event. When
    /// metrics are on, each gated-in pass also folds its wall time into
    /// the `creator.pass.<pass name>` span aggregate.
    pub fn run(&self, ctx: &mut GenContext) -> CreatorResult<Vec<(String, bool, usize, usize)>> {
        let mut stats = Vec::with_capacity(self.entries.len());
        for entry in &self.entries {
            let ran = entry.gate(ctx);
            let variants_in = ctx.candidates.len();
            let programs_in = ctx.programs.len();
            if ran {
                let timed = mc_trace::metrics_enabled().then(Instant::now);
                let mut span = mc_trace::span("creator.pass");
                entry.pass.run(ctx)?;
                if let Some(start) = timed {
                    let key = format!("creator.pass.{}", entry.pass.name());
                    mc_trace::metrics().observe_span(&key, start.elapsed().as_micros() as u64);
                }
                if span.is_active() {
                    let variants_out = ctx.candidates.len();
                    // Candidates `codegen` turns into programs are not pruned.
                    let finished = ctx.programs.len().saturating_sub(programs_in);
                    let pruned = variants_in.saturating_sub(variants_out + finished);
                    span.field("pass", entry.pass.name());
                    span.field("variants_in", variants_in as u64);
                    span.field("variants_out", variants_out as u64);
                    span.field("pruned", pruned as u64);
                    span.field("programs", ctx.programs.len() as u64);
                }
            } else if mc_trace::enabled() {
                mc_trace::event(
                    "creator.pass.skipped",
                    vec![
                        ("pass", entry.pass.name().into()),
                        ("variants_in", (variants_in as u64).into()),
                    ],
                );
            }
            stats.push((
                entry.pass.name().to_owned(),
                ran,
                ctx.candidates.len(),
                ctx.programs.len(),
            ));
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CreatorConfig;
    use crate::pass::FnPass;
    use mc_kernel::builder::figure6;

    fn mark_pass(name: &str, tag: &'static str) -> Box<dyn Pass + Send + Sync> {
        let name = name.to_owned();
        Box::new(FnPass::new(name, move |ctx: &mut GenContext| {
            for c in &mut ctx.candidates {
                c.meta.extra.push(("ran".into(), tag.into()));
            }
            Ok(())
        }))
    }

    fn ctx() -> GenContext {
        GenContext::new(figure6(), CreatorConfig::default())
    }

    #[test]
    fn standard_pipeline_has_nineteen_passes() {
        // §3.2: "The MicroCreator compiler currently contains nineteen
        // passes."
        assert_eq!(PassManager::standard().len(), 19);
    }

    #[test]
    fn standard_pipeline_order() {
        let pm = PassManager::standard();
        let names = pm.pass_names();
        assert_eq!(names.first(), Some(&"validate-input"));
        assert_eq!(names.last(), Some(&"codegen"));
        // The two operand-swap passes straddle unrolling (§3.2).
        let pos = |n: &str| names.iter().position(|x| *x == n).unwrap();
        assert!(pos("operand-swap-before") < pos("unrolling"));
        assert!(pos("unrolling") < pos("operand-swap-after"));
        assert!(pos("operand-swap-after") < pos("register-allocation"));
    }

    #[test]
    fn insert_before_and_after() {
        let mut pm = PassManager::new();
        pm.add_pass(mark_pass("a", "a"));
        pm.insert_before("a", mark_pass("pre", "pre")).unwrap();
        pm.insert_after("a", mark_pass("post", "post")).unwrap();
        assert_eq!(pm.pass_names(), vec!["pre", "a", "post"]);
    }

    #[test]
    fn remove_and_replace() {
        let mut pm = PassManager::new();
        pm.add_pass(mark_pass("a", "a"));
        pm.add_pass(mark_pass("b", "b"));
        pm.remove_pass("a").unwrap();
        assert_eq!(pm.pass_names(), vec!["b"]);
        pm.replace_pass("b", mark_pass("b2", "b2")).unwrap();
        assert_eq!(pm.pass_names(), vec!["b2"]);
    }

    #[test]
    fn unknown_pass_is_plugin_error() {
        let mut pm = PassManager::new();
        assert!(matches!(pm.remove_pass("ghost"), Err(CreatorError::Plugin(_))));
        assert!(matches!(pm.set_gate("ghost", |_| true), Err(CreatorError::Plugin(_))));
    }

    #[test]
    fn gate_override_skips_pass() {
        let mut pm = PassManager::new();
        pm.add_pass(mark_pass("skipme", "x"));
        pm.set_gate("skipme", |_| false).unwrap();
        let mut c = ctx();
        let stats = pm.run(&mut c).unwrap();
        assert!(!stats[0].1, "gate override suppressed the run");
        assert!(c.candidates[0].meta.extra.is_empty());
    }

    #[test]
    fn run_records_stats_in_order() {
        let mut pm = PassManager::new();
        pm.add_pass(mark_pass("one", "1"));
        pm.add_pass(mark_pass("two", "2"));
        let mut c = ctx();
        let stats = pm.run(&mut c).unwrap();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].0, "one");
        assert_eq!(stats[1].0, "two");
        assert!(stats.iter().all(|s| s.1));
        assert_eq!(c.candidates[0].meta.extra.len(), 2);
    }
}
