//! Pass 2: instruction repetition — expand `<repeat>` ranges.
//!
//! §3.2: "The first instruction selection pass handles instruction
//! repetition and random instruction selection." An instruction carrying
//! `repeat = (min, max)` is replicated `k` times for every `k` in the
//! range, each count yielding a separate kernel version.

use crate::context::{product, GenContext};
use crate::error::CreatorResult;
use crate::pass::Pass;
use mc_kernel::InstructionDesc;
use std::ops::RangeInclusive;
use std::sync::Arc;

/// Expands repetition ranges into concrete instruction counts.
pub struct InstructionRepetition;

impl Pass for InstructionRepetition {
    fn name(&self) -> &str {
        "instruction-repetition"
    }

    fn run(&self, ctx: &mut GenContext) -> CreatorResult<()> {
        ctx.check_fanout(self.name(), |cand| {
            product(cand.desc.instructions.iter().map(|inst| {
                let counts = repeat_counts(inst);
                (counts.end() - counts.start()) as usize + 1
            }))
        })?;
        ctx.check_copies(self.name(), |cand| copies(&cand.desc.instructions))?;
        ctx.expand(self.name(), |cand| {
            let choices: Vec<Vec<u32>> =
                cand.desc.instructions.iter().map(|inst| repeat_counts(inst).collect()).collect();
            let mut out = Vec::new();
            for combo in cartesian(&choices) {
                let mut next = cand.clone();
                Arc::make_mut(&mut next.desc).instructions =
                    rebuild(&cand.desc.instructions, &combo);
                if let Some(&count) = combo
                    .iter()
                    .zip(&cand.desc.instructions)
                    .find_map(|(c, inst)| inst.repeat.is_some().then_some(c))
                {
                    next.meta.repeat = Some(count);
                }
                out.push(next);
            }
            Ok(out)
        })
    }
}

/// Per-instruction count choices: `min..=max` (at least 1) for a repeated
/// instruction, just 1 for a plain one.
fn repeat_counts(inst: &InstructionDesc) -> RangeInclusive<u32> {
    match inst.repeat {
        Some((min, max)) if min <= max => min.max(1)..=max.max(1),
        _ => 1..=1,
    }
}

/// The instruction copies [`rebuild`] makes over every count combination
/// of `instructions`, or `None` on overflow. Instruction `i` is copied
/// once per count in its range, once per combination of the others'
/// counts.
fn copies(instructions: &[InstructionDesc]) -> Option<usize> {
    let ranges: Vec<RangeInclusive<u32>> = instructions.iter().map(repeat_counts).collect();
    let len = |r: &RangeInclusive<u32>| (r.end() - r.start()) as usize + 1;
    let mut total = 0usize;
    for (i, range) in ranges.iter().enumerate() {
        // Σ k over `range`, as (first + last) · len / 2.
        let sum = (*range.start() as usize)
            .checked_add(*range.end() as usize)?
            .checked_mul(len(range))?
            / 2;
        let others =
            product(ranges.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, r)| len(r)))?;
        total = total.checked_add(sum.checked_mul(others)?)?;
    }
    Some(total)
}

fn rebuild(instructions: &[InstructionDesc], counts: &[u32]) -> Vec<InstructionDesc> {
    let mut out = Vec::new();
    for (inst, &count) in instructions.iter().zip(counts) {
        for _ in 0..count {
            let mut copy = inst.clone();
            copy.repeat = None;
            out.push(copy);
        }
    }
    out
}

/// Cartesian product of choice lists (each inner list non-empty).
pub(crate) fn cartesian(choices: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let mut combos: Vec<Vec<u32>> = vec![Vec::new()];
    for axis in choices {
        let mut next = Vec::with_capacity(combos.len() * axis.len());
        for combo in &combos {
            for &v in axis {
                let mut c = combo.clone();
                c.push(v);
                next.push(c);
            }
        }
        combos = next;
    }
    combos
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CreatorConfig;
    use mc_asm::inst::Mnemonic;
    use mc_kernel::builder::{figure6, KernelBuilder};

    #[test]
    fn no_repeat_is_identity() {
        let mut ctx = GenContext::new(figure6(), CreatorConfig::default());
        InstructionRepetition.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 1);
        assert_eq!(ctx.candidates[0].desc.instructions.len(), 1);
        assert_eq!(ctx.candidates[0].meta.repeat, None);
    }

    #[test]
    fn repeat_range_expands_counts() {
        let mut desc = KernelBuilder::new("rep")
            .stream_instruction(Mnemonic::Movss, "r1", false)
            .build()
            .unwrap();
        desc.instructions[0].repeat = Some((1, 4));
        let mut ctx = GenContext::new(desc, CreatorConfig::default());
        InstructionRepetition.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 4);
        let lens: Vec<usize> = ctx.candidates.iter().map(|c| c.desc.instructions.len()).collect();
        assert_eq!(lens, vec![1, 2, 3, 4]);
        assert_eq!(ctx.candidates[3].meta.repeat, Some(4));
        // The repeat marker is consumed.
        assert!(ctx.candidates.iter().all(|c| c
            .desc
            .instructions
            .iter()
            .all(|i| i.repeat.is_none())));
    }

    #[test]
    fn two_repeat_ranges_multiply() {
        let mut desc = KernelBuilder::new("rep2")
            .stream_instruction(Mnemonic::Movss, "r1", false)
            .stream_instruction(Mnemonic::Movsd, "r2", false)
            .build()
            .unwrap();
        desc.instructions[0].repeat = Some((1, 2));
        desc.instructions[1].repeat = Some((1, 3));
        let mut ctx = GenContext::new(desc, CreatorConfig::default());
        InstructionRepetition.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 6);
    }

    #[test]
    fn huge_repeat_range_is_refused_before_expanding() {
        let mut desc = figure6();
        desc.instructions[0].repeat = Some((1, 4_000_000_000));
        let mut ctx = GenContext::new(desc, CreatorConfig::default());
        let err = InstructionRepetition.run(&mut ctx).unwrap_err();
        assert!(matches!(err, crate::error::CreatorError::TooManyCandidates { .. }), "{err}");
    }

    #[test]
    fn copies_count_every_combination() {
        let mut desc = KernelBuilder::new("rep2")
            .stream_instruction(Mnemonic::Movss, "r1", false)
            .stream_instruction(Mnemonic::Movsd, "r2", false)
            .build()
            .unwrap();
        assert_eq!(copies(&desc.instructions), Some(2));
        desc.instructions[0].repeat = Some((1, 2));
        desc.instructions[1].repeat = Some((2, 4));
        let built: usize = cartesian(&[vec![1, 2], vec![2, 3, 4]])
            .iter()
            .map(|combo| rebuild(&desc.instructions, combo).len())
            .sum();
        assert_eq!(copies(&desc.instructions), Some(built));
        assert_eq!(built, 3 * 3 + 2 * 9);
        desc.instructions[0].repeat = Some((u32::MAX, u32::MAX));
        desc.instructions[1].repeat = Some((1, u32::MAX));
        assert_eq!(copies(&desc.instructions), None, "overflow is a refusal, not a wrap");
    }

    #[test]
    fn cartesian_shapes() {
        assert_eq!(cartesian(&[]).len(), 1);
        assert_eq!(cartesian(&[vec![1, 2], vec![3]]), vec![vec![1, 3], vec![2, 3]]);
        assert_eq!(cartesian(&[vec![1], vec![2], vec![3]]).len(), 1);
    }
}
