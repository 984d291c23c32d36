//! Pass 1: structural validation of the input description.

use crate::context::GenContext;
use crate::error::CreatorResult;
use crate::pass::Pass;

/// Rejects descriptions that violate the invariants the later passes rely
/// on (no instructions, zero unroll, missing/duplicate `last_induction`,
/// dangling links, memory bases without inductions).
pub struct ValidateInput;

impl Pass for ValidateInput {
    fn name(&self) -> &str {
        "validate-input"
    }

    fn run(&self, ctx: &mut GenContext) -> CreatorResult<()> {
        for cand in &ctx.candidates {
            cand.desc.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CreatorConfig;
    use mc_kernel::builder::figure6;

    #[test]
    fn accepts_valid_description() {
        let mut ctx = GenContext::new(figure6(), CreatorConfig::default());
        ValidateInput.run(&mut ctx).unwrap();
    }

    #[test]
    fn rejects_invalid_description() {
        let mut desc = figure6();
        desc.instructions.clear();
        // Bypass the builder's validation by constructing the context raw.
        let mut ctx = GenContext::new(figure6(), CreatorConfig::default());
        ctx.candidates[0].desc = desc.into();
        assert!(ValidateInput.run(&mut ctx).is_err());
    }

    #[test]
    fn gate_defaults_to_true() {
        let ctx = GenContext::new(figure6(), CreatorConfig::default());
        assert!(ValidateInput.gate(&ctx));
    }
}
