//! Pass 9: unrolling — materialize the unrolled copy list.
//!
//! Copy `i` of the body (0-based) is tagged with its copy index; later
//! passes use the index for XMM rotation and displacement assignment.

use crate::candidate::Candidate;
use crate::context::GenContext;
use crate::error::CreatorResult;
use crate::pass::Pass;

/// Replicates the body `unroll` times into `(instruction, copy_index)`
/// pairs.
pub struct Unrolling;

impl Pass for Unrolling {
    fn name(&self) -> &str {
        "unrolling"
    }

    fn run(&self, ctx: &mut GenContext) -> CreatorResult<()> {
        ctx.check_copies(self.name(), |cand| {
            (factor(cand) as usize).checked_mul(cand.desc.instructions.len())
        })?;
        ctx.for_each(self.name(), |cand| {
            if cand.unroll == 0 {
                cand.unroll = factor(cand);
                cand.meta.unroll = cand.unroll;
            }
            cand.copies = (0..cand.unroll)
                .flat_map(|i| cand.desc.instructions.iter().map(move |inst| (inst.clone(), i)))
                .collect();
            Ok(())
        })
    }
}

/// The unroll factor the pass builds for `cand`. A plugin that removed
/// unroll-selection leaves it 0: fall back to the range's minimum so the
/// pipeline still completes.
fn factor(cand: &Candidate) -> u32 {
    if cand.unroll == 0 {
        cand.desc.unrolling.min.max(1)
    } else {
        cand.unroll
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CreatorConfig;
    use mc_asm::inst::Mnemonic;
    use mc_kernel::builder::{figure6, KernelBuilder};

    #[test]
    fn copies_are_body_times_unroll() {
        let mut ctx = GenContext::new(figure6(), CreatorConfig::default());
        ctx.candidates[0].unroll = 3;
        Unrolling.run(&mut ctx).unwrap();
        let copies = &ctx.candidates[0].copies;
        assert_eq!(copies.len(), 3);
        assert_eq!(copies.iter().map(|(_, i)| *i).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn multi_instruction_body_interleaves_by_copy() {
        let desc = KernelBuilder::new("multi")
            .stream_instruction(Mnemonic::Movss, "r1", false)
            .stream_instruction(Mnemonic::Movsd, "r2", false)
            .build()
            .unwrap();
        let mut ctx = GenContext::new(desc, CreatorConfig::default());
        ctx.candidates[0].unroll = 2;
        Unrolling.run(&mut ctx).unwrap();
        let copies = &ctx.candidates[0].copies;
        assert_eq!(copies.len(), 4);
        // copy 0 of both instructions, then copy 1 of both.
        assert_eq!(copies.iter().map(|(_, i)| *i).collect::<Vec<_>>(), vec![0, 0, 1, 1]);
    }

    #[test]
    fn copies_past_the_bound_are_refused_before_building() {
        use crate::context::MAX_COPIES;
        let two = KernelBuilder::new("two")
            .stream_instruction(Mnemonic::Movss, "r1", false)
            .stream_instruction(Mnemonic::Movsd, "r2", false)
            .build()
            .unwrap();
        // The bound counts unroll × body, summed over the candidates.
        for (desc, unroll, candidates) in [
            (figure6(), MAX_COPIES + 1, 1),
            (two.clone(), MAX_COPIES / 2 + 1, 1),
            (two, MAX_COPIES / 4 + 1, 2),
        ] {
            let mut ctx = GenContext::new(desc, CreatorConfig::default());
            ctx.candidates[0].unroll = unroll as u32;
            let seed = ctx.candidates[0].clone();
            ctx.candidates.resize(candidates, seed);
            let err = Unrolling.run(&mut ctx).unwrap_err();
            assert!(err.to_string().contains("instruction copies"), "{err}");
            assert!(ctx.candidates.iter().all(|c| c.copies.is_empty()), "nothing is built");
        }
    }

    #[test]
    fn missing_unroll_selection_falls_back_to_min() {
        let mut ctx = GenContext::new(figure6(), CreatorConfig::default());
        assert_eq!(ctx.candidates[0].unroll, 0);
        Unrolling.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates[0].unroll, 1);
        assert_eq!(ctx.candidates[0].copies.len(), 1);
    }
}
