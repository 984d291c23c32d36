//! Pass 7: operand swap before unrolling.
//!
//! §3.2: "Consider a twice unrolled load instruction. When the tool swaps
//! the operands before the unrolling, it generates either two loads or two
//! stores." Swapping before unrolling flips the *whole* instruction, so all
//! its unrolled copies share a direction.

use crate::context::{power_of_two, GenContext};
use crate::error::CreatorResult;
use crate::pass::Pass;
use std::sync::Arc;

/// Expands `swap_before_unroll` markers: original + swapped per marked
/// instruction (cartesian across marked instructions).
pub struct OperandSwapBefore;

impl Pass for OperandSwapBefore {
    fn name(&self) -> &str {
        "operand-swap-before"
    }

    fn run(&self, ctx: &mut GenContext) -> CreatorResult<()> {
        ctx.check_fanout(self.name(), |cand| {
            power_of_two(cand.desc.instructions.iter().filter(|i| i.swap_before_unroll).count())
        })?;
        ctx.expand(self.name(), |cand| {
            let marked: Vec<usize> = cand
                .desc
                .instructions
                .iter()
                .enumerate()
                .filter(|(_, i)| i.swap_before_unroll)
                .map(|(idx, _)| idx)
                .collect();
            let mut out = Vec::with_capacity(1usize << marked.len());
            for mask in 0usize..(1 << marked.len()) {
                let mut next = cand.clone();
                let desc = Arc::make_mut(&mut next.desc);
                for (bit, &idx) in marked.iter().enumerate() {
                    if mask & (1 << bit) != 0 {
                        desc.instructions[idx] = desc.instructions[idx].swapped();
                    }
                    desc.instructions[idx].swap_before_unroll = false;
                }
                out.push(next);
            }
            Ok(out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CreatorConfig;
    use mc_asm::inst::Mnemonic;
    use mc_kernel::builder::{figure6, KernelBuilder};

    #[test]
    fn unmarked_is_identity() {
        let mut ctx = GenContext::new(figure6(), CreatorConfig::default());
        OperandSwapBefore.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 1, "figure6 uses swap_after, not swap_before");
    }

    #[test]
    fn forty_marked_instructions_are_refused_before_expanding() {
        let mut desc = figure6();
        desc.instructions[0].swap_after_unroll = false;
        desc.instructions[0].swap_before_unroll = true;
        desc.instructions = vec![desc.instructions[0].clone(); 40];
        let mut ctx = GenContext::new(desc, CreatorConfig::default());
        let err = OperandSwapBefore.run(&mut ctx).unwrap_err();
        assert!(matches!(err, crate::error::CreatorError::TooManyCandidates { .. }), "{err}");
        assert_eq!(ctx.candidates.len(), 1, "nothing expanded");
    }

    #[test]
    fn marked_instruction_doubles() {
        let mut desc = KernelBuilder::new("sb")
            .stream_instruction(Mnemonic::Movaps, "r1", false)
            .build()
            .unwrap();
        desc.instructions[0].swap_before_unroll = true;
        let mut ctx = GenContext::new(desc, CreatorConfig::default());
        OperandSwapBefore.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 2);
        assert!(ctx.candidates[0].desc.instructions[0].is_load_shaped());
        assert!(ctx.candidates[1].desc.instructions[0].is_store_shaped());
        // Markers consumed.
        assert!(ctx.candidates.iter().all(|c| !c.desc.instructions[0].swap_before_unroll));
    }

    #[test]
    fn two_marked_instructions_quadruple() {
        let mut desc = KernelBuilder::new("sb2")
            .stream_instruction(Mnemonic::Movaps, "r1", false)
            .stream_instruction(Mnemonic::Movss, "r2", false)
            .build()
            .unwrap();
        desc.instructions[0].swap_before_unroll = true;
        desc.instructions[1].swap_before_unroll = true;
        let mut ctx = GenContext::new(desc, CreatorConfig::default());
        OperandSwapBefore.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 4);
    }
}
