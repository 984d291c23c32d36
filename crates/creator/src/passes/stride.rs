//! Pass 5: stride selection.
//!
//! §3.2: "The creator then selects the strides for each induction variable
//! … For each element, if there are multiple choices, a separate version of
//! the kernel is created."

use crate::context::{product, GenContext};
use crate::error::CreatorResult;
use crate::pass::Pass;
use std::sync::Arc;

/// Fixes each induction's increment, one candidate per combination.
pub struct StrideSelection;

impl Pass for StrideSelection {
    fn name(&self) -> &str {
        "stride-selection"
    }

    fn run(&self, ctx: &mut GenContext) -> CreatorResult<()> {
        ctx.check_fanout(self.name(), |cand| {
            product(cand.desc.inductions.iter().map(|i| i.increment_choices.len()))
        })?;
        ctx.expand(self.name(), |cand| {
            let axes: Vec<Vec<i64>> =
                cand.desc.inductions.iter().map(|i| i.increment_choices.clone()).collect();
            let had_choice = axes.iter().any(|a| a.len() > 1);
            let mut out = Vec::new();
            let mut idx = vec![0usize; axes.len()];
            loop {
                let mut next = cand.clone();
                next.chosen_increments = idx.iter().zip(&axes).map(|(&i, axis)| axis[i]).collect();
                for (k, ind) in Arc::make_mut(&mut next.desc).inductions.iter_mut().enumerate() {
                    let chosen = next.chosen_increments[k];
                    // Keep the Figure 6 coupling: when the offset step was
                    // implicitly the increment, a new stride moves the
                    // per-copy displacement spacing with it.
                    if ind.offset_step == ind.primary_increment() {
                        ind.offset_step = chosen;
                    }
                    ind.increment_choices = vec![chosen];
                }
                if had_choice {
                    next.meta.strides = next.chosen_increments.clone();
                }
                out.push(next);
                let mut i = axes.len();
                loop {
                    if i == 0 {
                        return Ok(out);
                    }
                    i -= 1;
                    idx[i] += 1;
                    if idx[i] < axes[i].len() {
                        break;
                    }
                    idx[i] = 0;
                }
            }
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
    fn single_choice_is_identity_with_no_meta() {
        let mut ctx = GenContext::new(figure6(), CreatorConfig::default());
        StrideSelection.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 1);
        assert_eq!(ctx.candidates[0].chosen_increments, vec![16, -1]);
        assert!(ctx.candidates[0].meta.strides.is_empty(), "no real choice → no label");
    }

    #[test]
    fn multi_choice_expands_and_recouples_offset() {
        let desc = KernelBuilder::new("strided")
            .stream_instruction(Mnemonic::Movss, "r1", false)
            .strides("r1", &[4, 8, 16])
            .build()
            .unwrap();
        let mut ctx = GenContext::new(desc, CreatorConfig::default());
        StrideSelection.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 3);
        let steps: Vec<i64> =
            ctx.candidates.iter().map(|c| c.desc.inductions[0].offset_step).collect();
        assert_eq!(steps, vec![4, 8, 16], "offset step follows the chosen stride");
        assert!(ctx.candidates.iter().all(|c| !c.meta.strides.is_empty()));
    }

    #[test]
    fn explicit_offset_step_is_preserved() {
        let mut desc = KernelBuilder::new("strided")
            .stream_instruction(Mnemonic::Movss, "r1", false)
            .strides("r1", &[4, 8])
            .build()
            .unwrap();
        desc.inductions[0].offset_step = 64; // decoupled by the user
        let mut ctx = GenContext::new(desc, CreatorConfig::default());
        StrideSelection.run(&mut ctx).unwrap();
        assert!(ctx.candidates.iter().all(|c| c.desc.inductions[0].offset_step == 64));
    }

    #[test]
    fn choices_on_two_inductions_multiply() {
        let mut desc = KernelBuilder::new("s2")
            .stream_instruction(Mnemonic::Movss, "r1", false)
            .stream_instruction(Mnemonic::Movss, "r2", false)
            .build()
            .unwrap();
        desc.inductions[0].increment_choices = vec![4, 8];
        desc.inductions[1].increment_choices = vec![4, 8, 16];
        let mut ctx = GenContext::new(desc, CreatorConfig::default());
        StrideSelection.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 6);
    }

    #[test]
    fn inductions_are_singleton_after_pass() {
        let desc = KernelBuilder::new("strided")
            .stream_instruction(Mnemonic::Movss, "r1", false)
            .strides("r1", &[4, 8])
            .build()
            .unwrap();
        let mut ctx = GenContext::new(desc, CreatorConfig::default());
        StrideSelection.run(&mut ctx).unwrap();
        assert!(ctx.candidates.iter().all(|c| c
            .desc
            .inductions
            .iter()
            .all(|i| i.increment_choices.len() == 1)));
    }
}
