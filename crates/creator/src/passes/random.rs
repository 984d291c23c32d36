//! Pass 4: random instruction selection (gated off unless configured).
//!
//! §3.2: the instruction-selection phase also "handles … random instruction
//! selection. Instruction selection is a generic instruction scheduling
//! pass which generates as many microbenchmark programs the user requires."
//! When enabled, each candidate spawns `variants` new candidates whose body
//! is `length` instructions drawn (with replacement) from the description's
//! instruction pool, using the run's seeded RNG for reproducibility.

use crate::context::GenContext;
use crate::error::CreatorResult;
use crate::pass::Pass;
use std::sync::Arc;

/// Seeded random body construction.
pub struct RandomInstructionSelection;

impl Pass for RandomInstructionSelection {
    fn name(&self) -> &str {
        "random-selection"
    }

    fn gate(&self, ctx: &GenContext) -> bool {
        ctx.config.random_selection.is_some()
    }

    fn run(&self, ctx: &mut GenContext) -> CreatorResult<()> {
        let Some(sel) = ctx.config.random_selection else {
            return Ok(());
        };
        ctx.check_fanout(self.name(), |_| Some(sel.variants as usize))?;
        // Draw all indices up front so `expand`'s closure stays `FnMut`
        // without borrowing the RNG from the context it mutates.
        let pool_sizes: Vec<usize> =
            ctx.candidates.iter().map(|c| c.desc.instructions.len()).collect();
        let mut draws: Vec<Vec<Vec<usize>>> = Vec::with_capacity(pool_sizes.len());
        for &pool in &pool_sizes {
            let mut per_candidate = Vec::with_capacity(sel.variants as usize);
            for _ in 0..sel.variants {
                let body: Vec<usize> =
                    (0..sel.length).map(|_| ctx.rng.gen_range(0..pool)).collect();
                per_candidate.push(body);
            }
            draws.push(per_candidate);
        }
        let mut cursor = 0usize;
        ctx.expand(self.name(), |cand| {
            let per_candidate = &draws[cursor];
            cursor += 1;
            let mut out = Vec::with_capacity(per_candidate.len());
            for (v, indices) in per_candidate.iter().enumerate() {
                let mut next = cand.clone();
                Arc::make_mut(&mut next.desc).instructions =
                    indices.iter().map(|&i| cand.desc.instructions[i].clone()).collect();
                // The drawn body supersedes any earlier mnemonic grouping.
                next.meta.mnemonic = next
                    .desc
                    .instructions
                    .iter()
                    .filter_map(|i| i.operation.fixed())
                    .find(|m| m.mem_move().is_some());
                next.meta.extra.push(("random_variant".into(), v.to_string()));
                out.push(next);
            }
            Ok(out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CreatorConfig, RandomSelection};
    use mc_asm::inst::Mnemonic;
    use mc_kernel::builder::KernelBuilder;

    fn two_inst_desc() -> mc_kernel::KernelDesc {
        KernelBuilder::new("pool")
            .stream_instruction(Mnemonic::Movss, "r1", false)
            .stream_instruction(Mnemonic::Movsd, "r2", false)
            .build()
            .unwrap()
    }

    #[test]
    fn gated_off_by_default() {
        let ctx = GenContext::new(two_inst_desc(), CreatorConfig::default());
        assert!(!RandomInstructionSelection.gate(&ctx));
    }

    #[test]
    fn generates_requested_variants_of_requested_length() {
        let cfg = CreatorConfig::default()
            .with_random_selection(RandomSelection { variants: 5, length: 7 });
        let mut ctx = GenContext::new(two_inst_desc(), cfg);
        assert!(RandomInstructionSelection.gate(&ctx));
        RandomInstructionSelection.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 5);
        assert!(ctx.candidates.iter().all(|c| c.desc.instructions.len() == 7));
    }

    #[test]
    fn same_seed_same_bodies() {
        let cfg = || {
            CreatorConfig::default()
                .with_seed(1234)
                .with_random_selection(RandomSelection { variants: 3, length: 4 })
        };
        let mut a = GenContext::new(two_inst_desc(), cfg());
        let mut b = GenContext::new(two_inst_desc(), cfg());
        RandomInstructionSelection.run(&mut a).unwrap();
        RandomInstructionSelection.run(&mut b).unwrap();
        for (ca, cb) in a.candidates.iter().zip(&b.candidates) {
            assert_eq!(ca.desc.instructions, cb.desc.instructions);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = |s| {
            CreatorConfig::default()
                .with_seed(s)
                .with_random_selection(RandomSelection { variants: 8, length: 8 })
        };
        let mut a = GenContext::new(two_inst_desc(), cfg(1));
        let mut b = GenContext::new(two_inst_desc(), cfg(2));
        RandomInstructionSelection.run(&mut a).unwrap();
        RandomInstructionSelection.run(&mut b).unwrap();
        let bodies = |ctx: &GenContext| -> Vec<Vec<mc_kernel::InstructionDesc>> {
            ctx.candidates.iter().map(|c| c.desc.instructions.clone()).collect()
        };
        assert_ne!(bodies(&a), bodies(&b), "8×8 draws from 2 instructions should differ");
    }
}
