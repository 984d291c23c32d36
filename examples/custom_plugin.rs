//! Writing a MicroCreator plugin (§3.3).
//!
//! The paper's plugin system lets users "easily add, remove, or modify a
//! pass without recompiling the system" and "permits a redefinition of any
//! pass gate". This example:
//! 1. re-gates `operand-swap-after` off (one program per unroll factor),
//! 2. replaces `unroll-selection` with a power-of-two-only version,
//! 3. adds a post-codegen pass that tags every program.
//!
//! Run with: `cargo run --example custom_plugin`

use microtools::creator::pass::FnPass;
use microtools::creator::plugin::FnPlugin;
use microtools::creator::{GenContext, PassManager};
use microtools::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let plugin = FnPlugin::new("power-of-two-study", |pm: &mut PassManager| {
        // 1. Gate redefinition: skip the per-copy operand swaps.
        pm.set_gate("operand-swap-after", |_| false)?;

        // 2. Pass replacement: only power-of-two unroll factors.
        pm.replace_pass(
            "unroll-selection",
            Box::new(FnPass::new("unroll-selection", |ctx: &mut GenContext| {
                ctx.expand("unroll-selection", |cand| {
                    let mut out = Vec::new();
                    for factor in cand.desc.unrolling.factors().filter(|f| f.is_power_of_two()) {
                        let mut next = cand.clone();
                        next.unroll = factor;
                        next.meta.unroll = factor;
                        // Candidates share their description until one
                        // changes it; `make_mut` copies it first.
                        std::sync::Arc::make_mut(&mut next.desc).unrolling =
                            microtools::kernel::UnrollRange::fixed(factor);
                        out.push(next);
                    }
                    Ok(out)
                })
            })),
        )?;

        // 3. New pass after codegen: tag the programs.
        pm.insert_after(
            "codegen",
            Box::new(FnPass::new("tag-study", |ctx: &mut GenContext| {
                for p in &mut ctx.programs {
                    p.meta.extra.push(("study".into(), "pow2".into()));
                }
                Ok(())
            })),
        )
    });

    let mut creator = MicroCreator::new();
    println!("standard pipeline: {} passes", creator.pass_manager().len());
    creator.register_plugin(&plugin)?;
    println!("after pluginInit : {} passes\n", creator.pass_manager().len());

    let generated = creator.generate(&figure6())?;
    println!(
        "the plugin narrowed the Figure 6 expansion from 510 to {} programs:",
        generated.programs.len()
    );
    for p in &generated.programs {
        println!(
            "  {:28} unroll {} tagged {:?}",
            p.name,
            p.meta.unroll,
            p.meta.extra.iter().find(|(k, _)| k == "study").map(|(_, v)| v.as_str())
        );
    }

    // Measure the plugin's power-of-two variants.
    let launcher = MicroLauncher::with_defaults();
    println!("\ncycles per load on the simulated X5650 (L1):");
    for p in &generated.programs {
        let report = launcher.run(&KernelInput::program(p.clone()))?;
        println!(
            "  unroll {}: {:.2} cycles/load",
            p.meta.unroll,
            report.cycles_per_iteration / p.load_count().max(1) as f64
        );
    }
    Ok(())
}
