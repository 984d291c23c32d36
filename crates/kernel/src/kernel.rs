//! The top-level kernel description.

use crate::error::{KernelError, KernelResult};
use crate::induction::InductionDesc;
use crate::instruction::InstructionDesc;
use mc_asm::inst::{Cond, Mnemonic};

/// The unrolling range (Figure 6's `<unrolling><min>1</min><max>8</max>`).
/// Both bounds are inclusive: min 1 / max 8 generates unroll factors 1–8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UnrollRange {
    /// Smallest unroll factor (≥ 1).
    pub min: u32,
    /// Largest unroll factor (inclusive).
    pub max: u32,
}

impl UnrollRange {
    /// A fixed unroll factor.
    pub fn fixed(n: u32) -> Self {
        UnrollRange { min: n, max: n }
    }

    /// Iterator over the factors.
    pub fn factors(&self) -> impl Iterator<Item = u32> {
        self.min..=self.max
    }

    /// Number of factors in the range.
    pub fn len(&self) -> usize {
        (self.max.saturating_sub(self.min) as usize) + 1
    }

    /// Whether the range is empty (max < min).
    pub fn is_empty(&self) -> bool {
        self.max < self.min
    }
}

impl Default for UnrollRange {
    fn default() -> Self {
        UnrollRange { min: 1, max: 1 }
    }
}

/// Loop branch information (Figure 6's `<branch_information>`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BranchInfo {
    /// Loop label, stored without the leading dot (`L6` formats as `.L6`).
    pub label: String,
    /// The conditional jump closing the loop (`jge`).
    pub test: Cond,
}

impl BranchInfo {
    /// Constructs branch info from the label and jump-mnemonic text.
    pub fn new(label: impl Into<String>, test: Cond) -> Self {
        BranchInfo { label: label.into(), test }
    }

    /// The assembly label (with the conventional leading dot).
    pub fn asm_label(&self) -> String {
        let label = self.label.trim_start_matches('.');
        format!(".{label}")
    }

    /// The jump mnemonic.
    pub fn mnemonic(&self) -> Mnemonic {
        Mnemonic::Jcc(self.test)
    }
}

/// A complete kernel description: the unit MicroCreator expands into a set
/// of benchmark programs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KernelDesc {
    /// Kernel family name (used to derive generated program names).
    pub name: String,
    /// The abstract loop body.
    pub instructions: Vec<InstructionDesc>,
    /// Unrolling range.
    pub unrolling: UnrollRange,
    /// Induction variables in declaration order.
    pub inductions: Vec<InductionDesc>,
    /// Loop branch.
    pub branch: BranchInfo,
    /// Data element size in bytes (4 for single-precision float streams);
    /// used to convert linked-induction updates into element units. In the
    /// original tool this is implied by the kernel's data type.
    pub element_bytes: u8,
}

impl KernelDesc {
    /// Creates a description with defaults (element size 4, unroll 1).
    pub fn new(name: impl Into<String>, branch: BranchInfo) -> Self {
        KernelDesc {
            name: name.into(),
            instructions: Vec::new(),
            unrolling: UnrollRange::default(),
            inductions: Vec::new(),
            branch,
            element_bytes: 4,
        }
    }

    /// The induction marked `<last_induction/>`.
    pub fn last_induction(&self) -> Option<&InductionDesc> {
        self.inductions.iter().find(|i| i.last)
    }

    /// Distinct logical register names used as memory bases, in first-use
    /// order. Each corresponds to one data array passed by MicroLauncher
    /// (`--nbvectors`).
    pub fn array_registers(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for inst in &self.instructions {
            for op in &inst.operands {
                if let Some(mem) = op.as_memory() {
                    if let Some(name) = mem.base.logical_name() {
                        if !out.contains(&name) {
                            out.push(name);
                        }
                    }
                }
            }
        }
        out
    }

    /// Structural validation. Checks the invariants the generation passes
    /// rely on; run before generation and after XML parsing.
    pub fn validate(&self) -> KernelResult<()> {
        if self.instructions.is_empty() {
            return Err(KernelError::Invalid("kernel has no instructions".into()));
        }
        if self.unrolling.is_empty() {
            return Err(KernelError::Invalid(format!(
                "empty unroll range {}..{}",
                self.unrolling.min, self.unrolling.max
            )));
        }
        if self.unrolling.min == 0 {
            return Err(KernelError::Invalid("unroll factor 0 is meaningless".into()));
        }
        let last_count = self.inductions.iter().filter(|i| i.last).count();
        if last_count != 1 {
            return Err(KernelError::Invalid(format!(
                "exactly one <last_induction/> required, found {last_count}"
            )));
        }
        let last = self.last_induction().expect("checked above");
        if !last.not_affected_unroll && last.increment_choices.iter().any(|&i| i >= 0) {
            return Err(KernelError::Invalid(
                "the loop-driving induction must decrement (count down to zero) so the \
                 branch can test the flags of its update"
                    .into(),
            ));
        }
        for ind in &self.inductions {
            if ind.increment_choices.is_empty() {
                return Err(KernelError::Invalid(format!(
                    "induction {} has no increment choices",
                    ind.register
                )));
            }
            if let Some(linked) = &ind.linked {
                let found = self
                    .inductions
                    .iter()
                    .any(|other| !std::ptr::eq(other, ind) && &other.register == linked);
                if !found {
                    return Err(KernelError::Invalid(format!(
                        "induction {} is linked to unknown induction {}",
                        ind.register, linked
                    )));
                }
            }
        }
        if self.element_bytes == 0 {
            return Err(KernelError::Invalid("element_bytes must be non-zero".into()));
        }
        // Every logical register used in an instruction must be an
        // induction register (so the generator knows its offset step) —
        // except pure data registers, which are not memory bases.
        for inst in &self.instructions {
            for op in &inst.operands {
                if let Some(mem) = op.as_memory() {
                    if let Some(name) = mem.base.logical_name() {
                        if !self.inductions.iter().any(|i| i.register.logical_name() == Some(name))
                        {
                            return Err(KernelError::Invalid(format!(
                                "memory base register {name} has no <induction> declaration"
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::OperationDesc;
    use crate::operand::{MemoryOperand, OperandDesc, RegisterRef};

    fn figure6_kernel() -> KernelDesc {
        let mut k = KernelDesc::new("figure6", BranchInfo::new("L6", Cond::Ge));
        k.instructions.push(InstructionDesc {
            operation: OperationDesc::Fixed(Mnemonic::Movaps),
            operands: vec![
                OperandDesc::Memory(MemoryOperand::new(RegisterRef::logical("r1"), 0)),
                OperandDesc::Register(RegisterRef::XmmRange { min: 0, max: 8 }),
            ],
            swap_before_unroll: false,
            swap_after_unroll: true,
            repeat: None,
        });
        k.unrolling = UnrollRange { min: 1, max: 8 };
        k.inductions.push(InductionDesc::address(RegisterRef::logical("r1"), 16));
        k.inductions.push(InductionDesc::linked_counter(
            RegisterRef::logical("r0"),
            -1,
            RegisterRef::logical("r1"),
        ));
        k
    }

    #[test]
    fn figure6_kernel_is_valid() {
        figure6_kernel().validate().unwrap();
    }

    #[test]
    fn unroll_range_iteration() {
        let r = UnrollRange { min: 1, max: 8 };
        assert_eq!(r.factors().collect::<Vec<_>>(), (1..=8).collect::<Vec<_>>());
        assert_eq!(r.len(), 8);
        assert!(!r.is_empty());
        assert!(UnrollRange { min: 4, max: 2 }.is_empty());
        assert_eq!(UnrollRange::fixed(3).len(), 1);
    }

    #[test]
    fn branch_label_dot_normalization() {
        assert_eq!(BranchInfo::new("L6", Cond::Ge).asm_label(), ".L6");
        assert_eq!(BranchInfo::new(".L6", Cond::Ge).asm_label(), ".L6");
        assert_eq!(BranchInfo::new("L6", Cond::Ge).mnemonic(), Mnemonic::Jcc(Cond::Ge));
    }

    #[test]
    fn array_registers_in_first_use_order() {
        let mut k = figure6_kernel();
        k.instructions.push(InstructionDesc::new(
            OperationDesc::Fixed(Mnemonic::Movss),
            vec![
                OperandDesc::Memory(MemoryOperand::new(RegisterRef::logical("r2"), 0)),
                OperandDesc::Register(RegisterRef::XmmRange { min: 0, max: 8 }),
            ],
        ));
        k.inductions.insert(0, InductionDesc::address(RegisterRef::logical("r2"), 4));
        assert_eq!(k.array_registers(), vec!["r1", "r2"]);
    }

    #[test]
    fn validation_rejects_empty_kernel() {
        let k = KernelDesc::new("empty", BranchInfo::new("L0", Cond::Ge));
        assert!(matches!(k.validate(), Err(KernelError::Invalid(_))));
    }

    #[test]
    fn validation_rejects_zero_unroll() {
        let mut k = figure6_kernel();
        k.unrolling = UnrollRange { min: 0, max: 4 };
        assert!(k.validate().is_err());
    }

    #[test]
    fn validation_requires_exactly_one_last_induction() {
        let mut k = figure6_kernel();
        k.inductions[0].last = true;
        assert!(k.validate().is_err());
        let mut k = figure6_kernel();
        k.inductions[1].last = false;
        assert!(k.validate().is_err());
    }

    #[test]
    fn validation_rejects_counting_up_loop_driver() {
        let mut k = figure6_kernel();
        k.inductions[1].increment_choices = vec![1];
        let err = k.validate().unwrap_err();
        assert!(err.to_string().contains("decrement"), "{err}");
    }

    #[test]
    fn validation_rejects_dangling_link() {
        let mut k = figure6_kernel();
        k.inductions[1].linked = Some(RegisterRef::logical("r9"));
        assert!(k.validate().is_err());
    }

    #[test]
    fn validation_rejects_memory_base_without_induction() {
        let mut k = figure6_kernel();
        k.inductions.remove(0);
        // r0 link now dangles too, but the first error is fine either way.
        assert!(k.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_element_bytes() {
        let mut k = figure6_kernel();
        k.element_bytes = 0;
        assert!(k.validate().is_err());
    }
}
