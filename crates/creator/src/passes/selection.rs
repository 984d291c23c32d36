//! Pass 3: instruction selection — fix each instruction's operation.
//!
//! Expands `OperationDesc::Choice` lists and move-semantics descriptions
//! ("MicroCreator also allows the user to provide move semantics, such as
//! the number of bytes to be moved, without specifying exactly which
//! instruction to use", §3.1) into one candidate per combination.

use crate::context::{product, GenContext};
use crate::error::CreatorResult;
use crate::pass::Pass;
use mc_kernel::OperationDesc;
use std::sync::Arc;

/// Fixes every instruction's mnemonic, one candidate per combination.
pub struct InstructionSelection;

impl Pass for InstructionSelection {
    fn name(&self) -> &str {
        "instruction-selection"
    }

    fn run(&self, ctx: &mut GenContext) -> CreatorResult<()> {
        let name = self.name().to_owned();
        ctx.check_fanout(&name, |cand| {
            product(cand.desc.instructions.iter().map(|i| i.operation.candidates().len()))
        })?;
        ctx.expand(&name, |cand| {
            let axes: Vec<Vec<mc_asm::Mnemonic>> =
                cand.desc.instructions.iter().map(|i| i.operation.candidates()).collect();
            if let Some(pos) = axes.iter().position(Vec::is_empty) {
                return Err(crate::error::CreatorError::Pass {
                    pass: name.clone(),
                    message: format!("instruction {pos} has no operation candidates"),
                });
            }
            let mut out = Vec::new();
            let mut combo_indices = vec![0usize; axes.len()];
            loop {
                let mut next = cand.clone();
                for (inst, (axis, &idx)) in Arc::make_mut(&mut next.desc)
                    .instructions
                    .iter_mut()
                    .zip(axes.iter().zip(&combo_indices))
                {
                    inst.operation = OperationDesc::Fixed(axis[idx]);
                }
                // Group label for figures: the first memory-move mnemonic.
                next.meta.mnemonic = next
                    .desc
                    .instructions
                    .iter()
                    .filter_map(|i| i.operation.fixed())
                    .find(|m| m.mem_move().is_some());
                out.push(next);
                // Odometer increment over the axes.
                let mut i = axes.len();
                loop {
                    if i == 0 {
                        return Ok(out);
                    }
                    i -= 1;
                    combo_indices[i] += 1;
                    if combo_indices[i] < axes[i].len() {
                        break;
                    }
                    combo_indices[i] = 0;
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
    use mc_kernel::MoveSemantics;

    #[test]
    fn fixed_operation_is_identity() {
        let mut ctx = GenContext::new(figure6(), CreatorConfig::default());
        InstructionSelection.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 1);
        assert_eq!(ctx.candidates[0].meta.mnemonic, Some(Mnemonic::Movaps));
    }

    #[test]
    fn choice_expands_one_per_mnemonic() {
        let mut desc = figure6();
        desc.instructions[0].operation =
            OperationDesc::Choice(vec![Mnemonic::Movaps, Mnemonic::Movups, Mnemonic::Movss]);
        let mut ctx = GenContext::new(desc, CreatorConfig::default());
        InstructionSelection.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 3);
        let picked: Vec<_> = ctx.candidates.iter().map(|c| c.meta.mnemonic.unwrap()).collect();
        assert_eq!(picked, vec![Mnemonic::Movaps, Mnemonic::Movups, Mnemonic::Movss]);
    }

    #[test]
    fn move_semantics_expand_to_matching_instructions() {
        let mut desc = figure6();
        desc.instructions[0].operation =
            OperationDesc::Move(MoveSemantics { bytes: 16, aligned: None, double_precision: None });
        let mut ctx = GenContext::new(desc, CreatorConfig::default());
        InstructionSelection.run(&mut ctx).unwrap();
        // movaps, movapd, movups, movupd — "aligned versus non-aligned
        // instructions" (§3.1).
        assert_eq!(ctx.candidates.len(), 4);
    }

    #[test]
    fn two_choice_instructions_multiply() {
        let mut desc = KernelBuilder::new("two")
            .stream_instruction(Mnemonic::Movss, "r1", false)
            .stream_instruction(Mnemonic::Movss, "r2", false)
            .build()
            .unwrap();
        desc.instructions[0].operation =
            OperationDesc::Choice(vec![Mnemonic::Movss, Mnemonic::Movsd]);
        desc.instructions[1].operation =
            OperationDesc::Choice(vec![Mnemonic::Movaps, Mnemonic::Movups]);
        let mut ctx = GenContext::new(desc, CreatorConfig::default());
        InstructionSelection.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 4);
        // All four combinations present and fixed.
        assert!(ctx.candidates.iter().all(|c| c
            .desc
            .instructions
            .iter()
            .all(|i| i.operation.fixed().is_some())));
    }

    #[test]
    fn four_group_study_counts() {
        // §5.1: "Four groups of these 510 benchmark programs … movss,
        // movsd, movaps, and movapd" — a four-way choice on the Figure 6
        // kernel yields four candidates here (the unroll/swap expansion
        // multiplies each to 510 downstream).
        let mut desc = figure6();
        desc.instructions[0].operation = OperationDesc::Choice(vec![
            Mnemonic::Movss,
            Mnemonic::Movsd,
            Mnemonic::Movaps,
            Mnemonic::Movapd,
        ]);
        let mut ctx = GenContext::new(desc, CreatorConfig::default());
        InstructionSelection.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 4);
    }
}
