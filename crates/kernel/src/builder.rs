//! Fluent construction of kernel descriptions, plus the canned kernels the
//! paper's experiments use.

use crate::induction::InductionDesc;
use crate::instruction::{InstructionDesc, OperationDesc};
use crate::kernel::{BranchInfo, KernelDesc, UnrollRange};
use crate::operand::{MemoryOperand, OperandDesc, RegisterRef};
use mc_asm::inst::{Cond, Mnemonic};

/// Builder for [`KernelDesc`] values.
///
/// ```
/// use mc_kernel::builder::KernelBuilder;
/// use mc_asm::inst::Mnemonic;
/// let kernel = KernelBuilder::new("loads")
///     .stream_instruction(Mnemonic::Movaps, "r1", false)
///     .unroll(1, 8)
///     .build()
///     .unwrap();
/// assert_eq!(kernel.unrolling.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    desc: KernelDesc,
    counter_added: bool,
    /// First construction error, reported by [`KernelBuilder::build`].
    /// Deferring keeps the fluent chain panic-free: a bad step records
    /// the error and later steps are applied to the unchanged state.
    error: Option<crate::error::KernelError>,
}

impl KernelBuilder {
    /// Starts a kernel with the default `.L6` / `jge` loop shape.
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            desc: KernelDesc::new(name, BranchInfo::new("L6", Cond::Ge)),
            counter_added: false,
            error: None,
        }
    }

    /// Sets the unrolling range (inclusive).
    pub fn unroll(mut self, min: u32, max: u32) -> Self {
        self.desc.unrolling = UnrollRange { min, max };
        self
    }

    /// Sets the element size in bytes.
    pub fn element_bytes(mut self, bytes: u8) -> Self {
        self.desc.element_bytes = bytes;
        self
    }

    /// Sets the branch label and condition.
    pub fn branch(mut self, label: impl Into<String>, test: Cond) -> Self {
        self.desc.branch = BranchInfo::new(label, test);
        self
    }

    /// Adds an arbitrary instruction description.
    pub fn instruction(mut self, inst: InstructionDesc) -> Self {
        self.desc.instructions.push(inst);
        self
    }

    /// Adds an arbitrary induction description.
    pub fn induction(mut self, ind: InductionDesc) -> Self {
        self.desc.inductions.push(ind);
        self
    }

    /// Adds a streaming memory instruction on logical array register
    /// `array`: `mnemonic (array), %xmmN` rotating XMM registers, with the
    /// matching address induction. `swap_after` enables the per-copy
    /// load/store swap of Figure 6.
    pub fn stream_instruction(mut self, mnemonic: Mnemonic, array: &str, swap_after: bool) -> Self {
        let Some(bytes) = mnemonic.mem_move().map(|m| i64::from(m.bytes)) else {
            if self.error.is_none() {
                self.error = Some(crate::error::KernelError::Invalid(format!(
                    "stream instruction `{}` is not a memory move",
                    mnemonic.name()
                )));
            }
            return self;
        };
        self.desc.instructions.push(InstructionDesc {
            operation: OperationDesc::Fixed(mnemonic),
            operands: vec![
                OperandDesc::Memory(MemoryOperand::new(RegisterRef::logical(array), 0)),
                OperandDesc::Register(RegisterRef::XmmRange { min: 0, max: 8 }),
            ],
            swap_before_unroll: false,
            swap_after_unroll: swap_after,
            repeat: None,
        });
        if !self.desc.inductions.iter().any(|i| i.register.logical_name() == Some(array)) {
            self.desc.inductions.push(InductionDesc::address(RegisterRef::logical(array), bytes));
        }
        self
    }

    /// Adds stride choices to the induction of `array` (the stride-selection
    /// pass will expand one variant per stride).
    pub fn strides(mut self, array: &str, strides: &[i64]) -> Self {
        let ind =
            self.desc.inductions.iter_mut().find(|i| i.register.logical_name() == Some(array));
        match ind {
            Some(ind) => ind.increment_choices = strides.to_vec(),
            None if self.error.is_none() => {
                self.error = Some(crate::error::KernelError::Invalid(format!(
                    "strides() requires the induction of array `{array}` to exist"
                )));
            }
            None => {}
        }
        self
    }

    /// Finishes with the canonical trip counter: logical `r0`, decrementing,
    /// linked to `linked_array`, marked `last_induction`.
    pub fn counted_by(mut self, linked_array: &str) -> Self {
        self.desc.inductions.push(InductionDesc::linked_counter(
            RegisterRef::logical("r0"),
            -1,
            RegisterRef::logical(linked_array),
        ));
        self.counter_added = true;
        self
    }

    /// Validates and returns the description. If no trip counter was added,
    /// one linked to the first array is appended automatically. A step that
    /// failed earlier in the chain (e.g. [`Self::stream_instruction`] on a
    /// non-move mnemonic) surfaces here as its recorded error.
    pub fn build(mut self) -> crate::error::KernelResult<KernelDesc> {
        if let Some(error) = self.error {
            return Err(error);
        }
        if !self.counter_added && self.desc.last_induction().is_none() {
            let first_array =
                self.desc.array_registers().first().map(|name| name.to_string()).ok_or_else(
                    || crate::error::KernelError::Invalid("no arrays to count".into()),
                )?;
            self.desc.inductions.push(InductionDesc::linked_counter(
                RegisterRef::logical("r0"),
                -1,
                RegisterRef::logical(first_array),
            ));
        }
        self.desc.validate()?;
        Ok(self.desc)
    }
}

/// The paper's Figure 6 kernel: a `(Load|Store)+` movaps stream with unroll
/// 1–8 and per-copy operand swap — the input that generates 510 variants.
pub fn figure6() -> KernelDesc {
    KernelBuilder::new("loadstore")
        .stream_instruction(Mnemonic::Movaps, "r1", true)
        .unroll(1, 8)
        .build()
        .expect("figure6 kernel is valid")
}

/// The four-mnemonic study of §5.1: Figure 6 with a choice of `movss`,
/// `movsd`, `movaps` and `movapd` — "more than two thousand benchmark
/// programs from a single input file" (4 × 510 = 2040). Checked in as
/// `descriptions/four_mnemonic.xml`.
pub fn four_mnemonic() -> KernelDesc {
    let mut desc = figure6();
    desc.instructions[0].operation = OperationDesc::Choice(vec![
        Mnemonic::Movss,
        Mnemonic::Movsd,
        Mnemonic::Movaps,
        Mnemonic::Movapd,
    ]);
    desc
}

/// A pure load stream with the given move instruction and unroll range —
/// the kernels behind Figures 11–13 and 17–18. Fails with a typed error
/// when `mnemonic` is not a memory move.
pub fn try_load_stream(
    mnemonic: Mnemonic,
    unroll_min: u32,
    unroll_max: u32,
) -> crate::error::KernelResult<KernelDesc> {
    KernelBuilder::new(format!("{}_loads", mnemonic.name()))
        .stream_instruction(mnemonic, "r1", false)
        .unroll(unroll_min, unroll_max)
        .build()
}

/// [`try_load_stream`], panicking on invalid input — for the canned
/// figure kernels whose mnemonics are known-good constants.
pub fn load_stream(mnemonic: Mnemonic, unroll_min: u32, unroll_max: u32) -> KernelDesc {
    try_load_stream(mnemonic, unroll_min, unroll_max).expect("load stream kernel is valid")
}

/// A strided traversal of `n_arrays` distinct arrays with one instruction
/// per array per unroll copy — the kernels behind Figures 15 and 16
/// ("a single strided traversal of a number of arrays").
pub fn try_multi_array_traversal(
    mnemonic: Mnemonic,
    n_arrays: u32,
) -> crate::error::KernelResult<KernelDesc> {
    if n_arrays == 0 {
        return Err(crate::error::KernelError::Invalid(
            "multi-array traversal needs at least one array".into(),
        ));
    }
    let mut b = KernelBuilder::new(format!("{}_{}arrays", mnemonic.name(), n_arrays));
    for i in 1..=n_arrays {
        b = b.stream_instruction(mnemonic, &format!("r{i}"), false);
    }
    b.unroll(1, 1).counted_by("r1").build()
}

/// [`try_multi_array_traversal`], panicking on invalid input.
pub fn multi_array_traversal(mnemonic: Mnemonic, n_arrays: u32) -> KernelDesc {
    try_multi_array_traversal(mnemonic, n_arrays).expect("traversal kernel is valid")
}

/// The inner loop of the naive matrix multiply (paper Figure 2), expressed
/// as a kernel description: load, load-multiply, accumulate — with the
/// accumulation store hoisted out as in the original code.
///
/// `r1` walks the B row (stride 8 = one double) and `r2` walks the C column
/// (stride = `row_bytes`, i.e. 8 × matrix size, the strided access that
/// makes matmul hierarchy-sensitive).
pub fn matmul_inner(matrix_size: u64) -> KernelDesc {
    let row_bytes = 8 * matrix_size as i64;
    KernelBuilder::new(format!("matmul{matrix_size}"))
        .element_bytes(8)
        .instruction(InstructionDesc::new(
            OperationDesc::Fixed(Mnemonic::Movsd),
            vec![
                OperandDesc::Memory(MemoryOperand::new(RegisterRef::logical("r1"), 0)),
                OperandDesc::Register(RegisterRef::XmmRange { min: 0, max: 8 }),
            ],
        ))
        .instruction(InstructionDesc::new(
            OperationDesc::Fixed(Mnemonic::Mulsd),
            vec![
                OperandDesc::Memory(MemoryOperand::new(RegisterRef::logical("r2"), 0)),
                OperandDesc::Register(RegisterRef::XmmRange { min: 0, max: 8 }),
            ],
        ))
        .instruction(InstructionDesc::new(
            OperationDesc::Fixed(Mnemonic::Addsd),
            vec![
                OperandDesc::Register(RegisterRef::XmmRange { min: 0, max: 8 }),
                OperandDesc::Register(RegisterRef::Physical(mc_asm::reg::Reg::Xmm(15))),
            ],
        ))
        .induction(InductionDesc::address(RegisterRef::logical("r1"), 8))
        .induction(InductionDesc::address(RegisterRef::logical("r2"), row_bytes))
        .counted_by("r1")
        .unroll(1, 8)
        .build()
        .expect("matmul kernel is valid")
}

/// A 1-D three-point stencil kernel (§3.5: "users are modeling unrolled
/// codes and stencil codes with the MicroCreator tool"): loads
/// `a[i-1], a[i], a[i+1]`, accumulates, stores `b[i]`.
pub fn stencil_1d(unroll_min: u32, unroll_max: u32) -> KernelDesc {
    let elem = 4i64; // f32 stencil
    let load = |offset: i64| {
        InstructionDesc::new(
            OperationDesc::Fixed(Mnemonic::Movss),
            vec![
                OperandDesc::Memory(MemoryOperand::new(RegisterRef::logical("r1"), offset)),
                OperandDesc::Register(RegisterRef::XmmRange { min: 0, max: 8 }),
            ],
        )
    };
    let add = InstructionDesc::new(
        OperationDesc::Fixed(Mnemonic::Addss),
        vec![
            OperandDesc::Register(RegisterRef::XmmRange { min: 0, max: 8 }),
            OperandDesc::Register(RegisterRef::Physical(mc_asm::reg::Reg::Xmm(15))),
        ],
    );
    let store = InstructionDesc::new(
        OperationDesc::Fixed(Mnemonic::Movss),
        vec![
            OperandDesc::Register(RegisterRef::Physical(mc_asm::reg::Reg::Xmm(15))),
            OperandDesc::Memory(MemoryOperand::new(RegisterRef::logical("r2"), 0)),
        ],
    );
    KernelBuilder::new("stencil3")
        .instruction(load(-elem))
        .instruction(load(0))
        .instruction(load(elem))
        .instruction(add)
        .instruction(store)
        .induction(InductionDesc::address(RegisterRef::logical("r1"), elem))
        .induction(InductionDesc::address(RegisterRef::logical("r2"), elem))
        .counted_by("r1")
        .unroll(unroll_min, unroll_max)
        .build()
        .expect("stencil kernel is valid")
}

/// A memory stream plus `arith_count` independent packed-FP additions —
/// §3.5's "how many arithmetic instructions are hidden by the latencies of
/// a memory-based kernel" study. The additions rotate XMM registers so no
/// dependency chain forms; an out-of-order core overlaps them with the
/// memory traffic until the FP pipe itself saturates.
pub fn try_arithmetic_hiding(
    mem_mnemonic: Mnemonic,
    arith_count: u32,
) -> crate::error::KernelResult<KernelDesc> {
    let mut b = KernelBuilder::new(format!("{}_{}addps", mem_mnemonic.name(), arith_count))
        .stream_instruction(mem_mnemonic, "r1", false);
    for _ in 0..arith_count {
        b = b.instruction(InstructionDesc::new(
            OperationDesc::Fixed(Mnemonic::Addps),
            vec![
                OperandDesc::Register(RegisterRef::XmmRange { min: 8, max: 15 }),
                OperandDesc::Register(RegisterRef::XmmRange { min: 0, max: 8 }),
            ],
        ));
    }
    b.counted_by("r1").unroll(1, 1).build()
}

/// [`try_arithmetic_hiding`], panicking on invalid input.
pub fn arithmetic_hiding(mem_mnemonic: Mnemonic, arith_count: u32) -> KernelDesc {
    try_arithmetic_hiding(mem_mnemonic, arith_count).expect("hiding kernel is valid")
}

/// A strided single-stream load kernel with multiple stride choices —
/// §3.5's "detect the effect of strides on various microbenchmark program
/// templates". Strides are in elements of the move's width.
pub fn try_strided_stream(
    mnemonic: Mnemonic,
    element_strides: &[i64],
) -> crate::error::KernelResult<KernelDesc> {
    let Some(mv) = mnemonic.mem_move() else {
        return Err(crate::error::KernelError::Invalid(format!(
            "strided stream instruction `{}` is not a memory move",
            mnemonic.name()
        )));
    };
    let bytes = mv.bytes as i64;
    let strides: Vec<i64> = element_strides.iter().map(|s| s * bytes).collect();
    KernelBuilder::new(format!("{}_strided", mnemonic.name()))
        .stream_instruction(mnemonic, "r1", false)
        .strides("r1", &strides)
        .counted_by("r1")
        .unroll(1, 1)
        .build()
}

/// [`try_strided_stream`], panicking on invalid input.
pub fn strided_stream(mnemonic: Mnemonic, element_strides: &[i64]) -> KernelDesc {
    try_strided_stream(mnemonic, element_strides).expect("strided kernel is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6_matches_xml_parse() {
        let built = figure6();
        let parsed = crate::xml::parse_kernel(&crate::xml::kernel_to_xml(&built)).unwrap();
        assert_eq!(built, parsed);
        built.validate().unwrap();
        assert_eq!(built.unrolling, UnrollRange { min: 1, max: 8 });
        assert!(built.instructions[0].swap_after_unroll);
    }

    #[test]
    fn load_stream_has_no_swap() {
        let k = load_stream(Mnemonic::Movss, 1, 8);
        assert!(!k.instructions[0].swap_after_unroll);
        assert_eq!(k.inductions[0].primary_increment(), 4, "movss advances 4 bytes");
        k.validate().unwrap();
    }

    #[test]
    fn movaps_stream_advances_16() {
        let k = load_stream(Mnemonic::Movaps, 1, 4);
        assert_eq!(k.inductions[0].primary_increment(), 16);
    }

    #[test]
    fn multi_array_has_one_induction_per_array_plus_counter() {
        let k = multi_array_traversal(Mnemonic::Movss, 4);
        assert_eq!(k.array_registers().len(), 4);
        assert_eq!(k.inductions.len(), 5);
        assert!(k.inductions[4].last);
        k.validate().unwrap();
    }

    #[test]
    fn matmul_kernel_shape() {
        let k = matmul_inner(200);
        assert_eq!(k.instructions.len(), 3);
        assert_eq!(k.element_bytes, 8);
        // C column walks a whole row per element: 1600 bytes at size 200.
        assert_eq!(k.inductions[1].primary_increment(), 1600);
        k.validate().unwrap();
    }

    #[test]
    fn auto_counter_added_when_missing() {
        let k = KernelBuilder::new("auto")
            .stream_instruction(Mnemonic::Movsd, "r1", false)
            .unroll(1, 2)
            .build()
            .unwrap();
        assert!(k.last_induction().is_some());
    }

    #[test]
    fn strides_override() {
        let k = KernelBuilder::new("strided")
            .stream_instruction(Mnemonic::Movss, "r1", false)
            .strides("r1", &[4, 8, 16])
            .build()
            .unwrap();
        assert_eq!(k.inductions[0].increment_choices, vec![4, 8, 16]);
    }

    #[test]
    fn stream_requires_move_mnemonic() {
        // The bad step is recorded, not panicked; build() reports it.
        let err = KernelBuilder::new("bad")
            .stream_instruction(Mnemonic::Addsd, "r1", false)
            .unroll(1, 2)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("addsd"), "{err}");
        assert!(err.to_string().contains("not a memory move"), "{err}");
    }

    #[test]
    fn try_constructors_reject_bad_input_without_panicking() {
        assert!(try_load_stream(Mnemonic::Addps, 1, 8).is_err());
        assert!(try_multi_array_traversal(Mnemonic::Movss, 0).is_err());
        assert!(try_arithmetic_hiding(Mnemonic::Mulsd, 2).is_err(), "mulsd is not a move");
        assert!(try_strided_stream(Mnemonic::Addsd, &[1, 2]).is_err());
        // The happy paths agree with the panicking wrappers.
        assert_eq!(
            try_load_stream(Mnemonic::Movaps, 1, 4).unwrap(),
            load_stream(Mnemonic::Movaps, 1, 4)
        );
        assert_eq!(
            try_strided_stream(Mnemonic::Movss, &[1, 4]).unwrap(),
            strided_stream(Mnemonic::Movss, &[1, 4])
        );
    }

    #[test]
    fn strides_on_unknown_array_is_a_typed_error() {
        let err = KernelBuilder::new("bad")
            .stream_instruction(Mnemonic::Movss, "r1", false)
            .strides("r9", &[4])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("r9"), "{err}");
    }

    #[test]
    fn stencil_shape() {
        let k = stencil_1d(1, 4);
        assert_eq!(k.instructions.len(), 5, "3 loads + add + store");
        assert_eq!(k.array_registers(), vec!["r1", "r2"]);
        // Negative-offset load present.
        let first_mem = k.instructions[0].operands[0].as_memory().unwrap();
        assert_eq!(first_mem.offset, -4);
        k.validate().unwrap();
    }

    #[test]
    fn arithmetic_hiding_shape() {
        let k = arithmetic_hiding(Mnemonic::Movaps, 4);
        assert_eq!(k.instructions.len(), 5, "1 load + 4 addps");
        k.validate().unwrap();
        let k0 = arithmetic_hiding(Mnemonic::Movaps, 0);
        assert_eq!(k0.instructions.len(), 1);
    }

    #[test]
    fn strided_stream_choices_in_bytes() {
        let k = strided_stream(Mnemonic::Movss, &[1, 2, 16]);
        assert_eq!(k.inductions[0].increment_choices, vec![4, 8, 64]);
        let k = strided_stream(Mnemonic::Movaps, &[1, 4]);
        assert_eq!(k.inductions[0].increment_choices, vec![16, 64]);
        k.validate().unwrap();
    }
}
