//! Pass 10: operand swap after unrolling.
//!
//! §3.2: "If the tool swaps after the unrolling, it creates the same two
//! benchmark programs but one program with a load instruction followed by a
//! store instruction also. In addition, a final program is created with a
//! store instruction followed by a load instruction." — i.e. each unrolled
//! copy of a marked instruction flips independently, producing every
//! `(Load|Store)+` combination: 2^k variants for k marked copies. This is
//! the pass that turns the Figure 6 input into 510 programs
//! (Σ_{u=1..8} 2^u = 510).

use crate::candidate::Candidate;
use crate::context::{power_of_two, GenContext};
use crate::error::CreatorResult;
use crate::pass::Pass;

/// Expands per-copy swaps into all direction combinations.
pub struct OperandSwapAfter;

impl Pass for OperandSwapAfter {
    fn name(&self) -> &str {
        "operand-swap-after"
    }

    fn run(&self, ctx: &mut GenContext) -> CreatorResult<()> {
        let fanout = |cand: &Candidate| {
            power_of_two(cand.copies.iter().filter(|(inst, _)| inst.swap_after_unroll).count())
        };
        ctx.check_fanout(self.name(), fanout)?;
        // Every pattern carries its own copy of the unrolled body.
        ctx.check_copies(self.name(), |cand| fanout(cand)?.checked_mul(cand.copies.len()))?;
        ctx.expand(self.name(), |cand| {
            let marked: Vec<usize> = cand
                .copies
                .iter()
                .enumerate()
                .filter(|(_, (inst, _))| inst.swap_after_unroll)
                .map(|(i, _)| i)
                .collect();
            let mut out = Vec::with_capacity(1usize << marked.len());
            for mask in 0usize..(1 << marked.len()) {
                let mut next = cand.clone();
                for (bit, &idx) in marked.iter().enumerate() {
                    if mask & (1 << bit) != 0 {
                        next.copies[idx].0 = next.copies[idx].0.swapped();
                    }
                    next.copies[idx].0.swap_after_unroll = false;
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
    use crate::passes::{unroll_select::UnrollSelection, unrolling::Unrolling};
    use mc_kernel::builder::figure6;
    use mc_kernel::UnrollRange;

    fn prepared_ctx(unroll: u32) -> GenContext {
        let mut desc = figure6();
        desc.unrolling = UnrollRange::fixed(unroll);
        let mut ctx = GenContext::new(desc, CreatorConfig::default());
        UnrollSelection.run(&mut ctx).unwrap();
        Unrolling.run(&mut ctx).unwrap();
        ctx
    }

    #[test]
    fn unroll_2_gives_all_four_patterns() {
        // The paper's worked example: LL, SS, LS, SL.
        let mut ctx = prepared_ctx(2);
        OperandSwapAfter.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 4);
        let patterns: Vec<String> = ctx
            .candidates
            .iter()
            .map(|c| {
                c.copies
                    .iter()
                    .map(|(inst, _)| if inst.is_load_shaped() { 'L' } else { 'S' })
                    .collect()
            })
            .collect();
        let mut sorted = patterns.clone();
        sorted.sort();
        assert_eq!(sorted, vec!["LL", "LS", "SL", "SS"]);
    }

    #[test]
    fn unroll_range_1_to_8_gives_510_total() {
        // §3 / §5.1: "MicroCreator generated 510 benchmark program
        // variations" from the single Figure 6 file.
        let mut ctx = GenContext::new(figure6(), CreatorConfig::default());
        UnrollSelection.run(&mut ctx).unwrap();
        Unrolling.run(&mut ctx).unwrap();
        OperandSwapAfter.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 510);
    }

    #[test]
    fn unmarked_copies_pass_through() {
        let mut ctx = prepared_ctx(4);
        for (inst, _) in &mut ctx.candidates[0].copies {
            inst.swap_after_unroll = false;
        }
        OperandSwapAfter.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 1);
    }

    #[test]
    fn markers_consumed() {
        let mut ctx = prepared_ctx(3);
        OperandSwapAfter.run(&mut ctx).unwrap();
        assert!(ctx.candidates.iter().all(|c| c.copies.iter().all(|(i, _)| !i.swap_after_unroll)));
    }
}
