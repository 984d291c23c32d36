//! The plugin system (§3.3).
//!
//! "To further augment the possibilities for various users, MicroCreator
//! provides a plugin system resembling the GCC technique. … The user must
//! provide an initialization function named `pluginInit` … The user can
//! easily add, remove, or modify a pass without recompiling the system."
//!
//! The original tool loads plugins from dynamic libraries; this
//! reproduction keeps the same surface as a trait: [`Plugin::init`] is the
//! `pluginInit` entry point, handed the [`PassManager`] so the plugin can
//! add, remove, replace or re-gate passes (the "fully exposed API").

use crate::error::CreatorResult;
use crate::manager::PassManager;

/// A MicroCreator plugin.
pub trait Plugin {
    /// Plugin name (for diagnostics).
    fn name(&self) -> &str;

    /// The `pluginInit` entry point: mutate the pass pipeline.
    fn init(&self, pm: &mut PassManager) -> CreatorResult<()>;
}

/// A plugin built from a closure.
pub struct FnPlugin<F>
where
    F: Fn(&mut PassManager) -> CreatorResult<()>,
{
    name: String,
    init: F,
}

impl<F> FnPlugin<F>
where
    F: Fn(&mut PassManager) -> CreatorResult<()>,
{
    /// Wraps a closure as a plugin.
    pub fn new(name: impl Into<String>, init: F) -> Self {
        FnPlugin { name: name.into(), init }
    }
}

impl<F> Plugin for FnPlugin<F>
where
    F: Fn(&mut PassManager) -> CreatorResult<()>,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&self, pm: &mut PassManager) -> CreatorResult<()> {
        (self.init)(pm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CreatorConfig;
    use crate::context::GenContext;
    use crate::generator::MicroCreator;
    use crate::pass::FnPass;
    use mc_kernel::builder::figure6;
    use mc_kernel::UnrollRange;

    #[test]
    fn plugin_can_regate_a_pass() {
        // Disable the operand-swap-after pass: figure6 then generates one
        // program per unroll factor instead of 2^u.
        let plugin = FnPlugin::new("no-swaps", |pm: &mut PassManager| {
            pm.set_gate("operand-swap-after", |_| false)
        });
        let mut creator = MicroCreator::new();
        creator.register_plugin(&plugin).unwrap();
        let result = creator.generate(&figure6()).unwrap();
        assert_eq!(result.programs.len(), 8, "8 unroll factors, swaps disabled");
    }

    #[test]
    fn plugin_can_replace_a_pass() {
        // Replace unroll-selection with a fixed-factor version.
        let plugin = FnPlugin::new("fixed-unroll", |pm: &mut PassManager| {
            pm.replace_pass(
                "unroll-selection",
                Box::new(FnPass::new("unroll-selection", |ctx: &mut GenContext| {
                    for c in &mut ctx.candidates {
                        c.unroll = 4;
                        c.meta.unroll = 4;
                        std::sync::Arc::make_mut(&mut c.desc).unrolling = UnrollRange::fixed(4);
                    }
                    Ok(())
                })),
            )
        });
        let mut creator = MicroCreator::new();
        creator.register_plugin(&plugin).unwrap();
        let result = creator.generate(&figure6()).unwrap();
        assert_eq!(result.programs.len(), 16, "2^4 swap patterns at unroll 4");
        assert!(result.programs.iter().all(|p| p.meta.unroll == 4));
    }

    #[test]
    fn plugin_can_add_a_pass() {
        let plugin = FnPlugin::new("tagger", |pm: &mut PassManager| {
            pm.insert_after(
                "codegen",
                Box::new(FnPass::new("tag-programs", |ctx: &mut GenContext| {
                    for p in &mut ctx.programs {
                        p.meta.extra.push(("tagged".into(), "yes".into()));
                    }
                    Ok(())
                })),
            )
        });
        let mut creator = MicroCreator::new();
        creator.register_plugin(&plugin).unwrap();
        let mut desc = figure6();
        desc.unrolling = UnrollRange::fixed(1);
        let result = creator.generate(&desc).unwrap();
        assert!(result
            .programs
            .iter()
            .all(|p| p.meta.extra.contains(&("tagged".into(), "yes".into()))));
    }

    #[test]
    fn plugin_errors_propagate() {
        let plugin = FnPlugin::new("broken", |pm: &mut PassManager| pm.remove_pass("no-such-pass"));
        let mut creator = MicroCreator::new();
        let err = creator.register_plugin(&plugin).unwrap_err();
        assert!(err.to_string().contains("no-such-pass"), "{err}");
    }

    #[test]
    fn plugin_can_remove_a_pass() {
        let plugin =
            FnPlugin::new("no-peephole", |pm: &mut PassManager| pm.remove_pass("peephole"));
        let mut creator = MicroCreator::new();
        creator.register_plugin(&plugin).unwrap();
        assert_eq!(creator.pass_manager().len(), 18);
        let ctx = GenContext::new(figure6(), CreatorConfig::default());
        drop(ctx);
    }
}
