//! Pass 8: unroll-factor selection — one candidate per factor in the
//! description's `<unrolling>` range.

use crate::context::GenContext;
use crate::error::CreatorResult;
use crate::pass::Pass;
use mc_kernel::UnrollRange;
use std::sync::Arc;

/// Fixes the unroll factor, one candidate per factor.
pub struct UnrollSelection;

impl Pass for UnrollSelection {
    fn name(&self) -> &str {
        "unroll-selection"
    }

    fn run(&self, ctx: &mut GenContext) -> CreatorResult<()> {
        ctx.check_fanout(self.name(), |cand| Some(cand.desc.unrolling.len()))?;
        ctx.expand(self.name(), |cand| {
            let mut out = Vec::with_capacity(cand.desc.unrolling.len());
            for factor in cand.desc.unrolling.factors() {
                let mut next = cand.clone();
                next.unroll = factor;
                next.meta.unroll = factor;
                Arc::make_mut(&mut next.desc).unrolling = UnrollRange::fixed(factor);
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
    use mc_kernel::builder::figure6;

    #[test]
    fn expands_one_per_factor() {
        let mut ctx = GenContext::new(figure6(), CreatorConfig::default());
        UnrollSelection.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 8);
        let factors: Vec<u32> = ctx.candidates.iter().map(|c| c.unroll).collect();
        assert_eq!(factors, (1..=8).collect::<Vec<_>>());
        assert!(ctx.candidates.iter().all(|c| c.meta.unroll == c.unroll));
        assert!(ctx.candidates.iter().all(|c| c.desc.unrolling.len() == 1));
    }

    #[test]
    fn fixed_range_is_identity() {
        let mut desc = figure6();
        desc.unrolling = UnrollRange::fixed(4);
        let mut ctx = GenContext::new(desc, CreatorConfig::default());
        UnrollSelection.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 1);
        assert_eq!(ctx.candidates[0].unroll, 4);
    }
}
