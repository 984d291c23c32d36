//! The unit of work flowing through the pass pipeline.

use mc_asm::format::AsmLine;
use mc_asm::inst::Inst;
use mc_asm::reg::Reg;
use mc_kernel::{InstructionDesc, KernelDesc, VariantMeta};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One in-flight program variant. Passes progressively concretize it:
/// description-level fields first, then the unrolled copy list, then bound
/// registers and concrete instructions, and finally the rendered lines.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The (progressively specialized) kernel description. The candidates
    /// an expansion makes from one parent share it until one of them
    /// specializes it: change it through `Arc::make_mut`, which copies a
    /// shared description first.
    pub desc: Arc<KernelDesc>,
    /// Choices made so far.
    pub meta: VariantMeta,
    /// Chosen unroll factor; 0 until `unroll-selection` runs.
    pub unroll: u32,
    /// Chosen increment per induction (aligned with `desc.inductions`);
    /// empty until `stride-selection` runs.
    pub chosen_increments: Vec<i64>,
    /// Unrolled copies as `(instruction, copy_index)`; empty until
    /// `unrolling` runs.
    pub copies: Vec<(InstructionDesc, u32)>,
    /// Logical-register binding; empty until `register-allocation` runs.
    pub binding: BTreeMap<String, Reg>,
    /// Concrete loop body; empty until `concretize` runs.
    pub body: Vec<Inst>,
    /// Induction updates (and any other loop tail); empty until
    /// `induction-insertion` runs.
    pub tail: Vec<Inst>,
    /// Final rendered lines; empty until `branch-insertion` runs.
    pub lines: Vec<AsmLine>,
    /// Data elements the loop consumes per iteration (the trip counter's
    /// per-loop decrement); set by `induction-insertion`.
    pub elements_per_iter: u64,
}

impl Candidate {
    /// Wraps a fresh description as the single seed candidate.
    pub fn seed(desc: KernelDesc) -> Self {
        let meta = VariantMeta { kernel: desc.name.clone(), ..VariantMeta::default() };
        Candidate {
            desc: Arc::new(desc),
            meta,
            unroll: 0,
            chosen_increments: Vec::new(),
            copies: Vec::new(),
            binding: BTreeMap::new(),
            body: Vec::new(),
            tail: Vec::new(),
            lines: Vec::new(),
            elements_per_iter: 1,
        }
    }

    /// The chosen increment for induction `i`, falling back to the
    /// description's primary choice before stride selection has run.
    pub fn increment_for(&self, i: usize) -> i64 {
        self.chosen_increments
            .get(i)
            .copied()
            .unwrap_or_else(|| self.desc.inductions[i].primary_increment())
    }

    /// Elements each unrolled copy consumes on the stream of induction `i`
    /// (offset step in bytes ÷ element size), minimum 1.
    pub fn elements_per_copy(&self, i: usize) -> i64 {
        let step = self.desc.inductions[i].offset_step.abs();
        (step / i64::from(self.desc.element_bytes)).max(1)
    }

    /// Resolves a register reference for a given copy index using this
    /// candidate's binding.
    pub fn resolve_reg(&self, r: &mc_kernel::RegisterRef, copy: u32) -> Option<Reg> {
        r.resolve(copy, &|name| self.binding.get(name).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_kernel::builder::figure6;

    #[test]
    fn seed_starts_unspecialized() {
        let c = Candidate::seed(figure6());
        assert_eq!(c.unroll, 0);
        assert!(c.copies.is_empty());
        assert!(c.body.is_empty());
        assert_eq!(c.meta.kernel, "loadstore");
    }

    #[test]
    fn increment_falls_back_to_primary() {
        let c = Candidate::seed(figure6());
        assert_eq!(c.increment_for(0), 16);
        assert_eq!(c.increment_for(1), -1);
        let mut c2 = c;
        c2.chosen_increments = vec![32, -1];
        assert_eq!(c2.increment_for(0), 32);
    }

    #[test]
    fn elements_per_copy_for_movaps_floats() {
        let c = Candidate::seed(figure6());
        // 16-byte step, 4-byte elements → 4 elements per copy (Figure 8).
        assert_eq!(c.elements_per_copy(0), 4);
        // The counter itself has offset_step 0 → clamp to 1.
        assert_eq!(c.elements_per_copy(1), 1);
    }
}
