//! Pass 6: immediate selection.
//!
//! §3.2: the creator selects "the values of the immediate variables. For
//! each element, if there are multiple choices, a separate version of the
//! kernel is created."

use crate::context::{product, GenContext};
use crate::error::CreatorResult;
use crate::pass::Pass;
use mc_kernel::{ImmediateDesc, OperandDesc};
use std::sync::Arc;

/// Fixes every immediate operand's value, one candidate per combination.
pub struct ImmediateSelection;

impl Pass for ImmediateSelection {
    fn name(&self) -> &str {
        "immediate-selection"
    }

    fn run(&self, ctx: &mut GenContext) -> CreatorResult<()> {
        ctx.check_fanout(self.name(), |cand| {
            product(cand.desc.instructions.iter().flat_map(|inst| &inst.operands).filter_map(
                |op| match op {
                    OperandDesc::Immediate(imm) => Some(imm.choices.len()),
                    _ => None,
                },
            ))
        })?;
        ctx.expand(self.name(), |cand| {
            // Locate every immediate operand: (instruction, operand) paths.
            let mut paths = Vec::new();
            let mut axes: Vec<Vec<i64>> = Vec::new();
            for (ii, inst) in cand.desc.instructions.iter().enumerate() {
                for (oi, op) in inst.operands.iter().enumerate() {
                    if let OperandDesc::Immediate(imm) = op {
                        paths.push((ii, oi));
                        axes.push(imm.choices.clone());
                    }
                }
            }
            if axes.is_empty() {
                return Ok(vec![cand.clone()]);
            }
            let had_choice = axes.iter().any(|a| a.len() > 1);
            let mut out = Vec::new();
            let mut idx = vec![0usize; axes.len()];
            loop {
                let mut next = cand.clone();
                let chosen: Vec<i64> = idx.iter().zip(&axes).map(|(&i, a)| a[i]).collect();
                for (&(ii, oi), &v) in paths.iter().zip(&chosen) {
                    Arc::make_mut(&mut next.desc).instructions[ii].operands[oi] =
                        OperandDesc::Immediate(ImmediateDesc::fixed(v));
                }
                if had_choice {
                    next.meta.immediates = chosen;
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
    use mc_asm::inst::{Mnemonic, Width};
    use mc_kernel::builder::KernelBuilder;
    use mc_kernel::{InstructionDesc, OperationDesc, RegisterRef};

    fn desc_with_immediates(choices: Vec<i64>) -> mc_kernel::KernelDesc {
        KernelBuilder::new("imm")
            .stream_instruction(Mnemonic::Movss, "r1", false)
            .instruction(InstructionDesc::new(
                OperationDesc::Fixed(Mnemonic::Add(Width::Q)),
                vec![
                    OperandDesc::Immediate(ImmediateDesc { choices }),
                    OperandDesc::Register(RegisterRef::Physical(mc_asm::Reg::gpr(
                        mc_asm::reg::GprName::Rcx,
                    ))),
                ],
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn no_immediates_is_identity() {
        let desc = KernelBuilder::new("plain")
            .stream_instruction(Mnemonic::Movss, "r1", false)
            .build()
            .unwrap();
        let mut ctx = GenContext::new(desc, CreatorConfig::default());
        ImmediateSelection.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 1);
    }

    #[test]
    fn single_value_identity_without_meta() {
        let mut ctx = GenContext::new(desc_with_immediates(vec![8]), CreatorConfig::default());
        ImmediateSelection.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 1);
        assert!(ctx.candidates[0].meta.immediates.is_empty());
    }

    #[test]
    fn choices_expand() {
        let mut ctx =
            GenContext::new(desc_with_immediates(vec![1, 2, 4]), CreatorConfig::default());
        ImmediateSelection.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 3);
        let values: Vec<i64> = ctx.candidates.iter().map(|c| c.meta.immediates[0]).collect();
        assert_eq!(values, vec![1, 2, 4]);
        // All immediates are singletons afterwards.
        for c in &ctx.candidates {
            for inst in &c.desc.instructions {
                for op in &inst.operands {
                    if let OperandDesc::Immediate(imm) = op {
                        assert_eq!(imm.choices.len(), 1);
                    }
                }
            }
        }
    }
}
