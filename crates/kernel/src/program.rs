//! Concrete generated benchmark programs — MicroCreator's output and
//! MicroLauncher's input.

use mc_asm::format::{write_lines, AsmLine};
use mc_asm::inst::{Inst, Mnemonic};
use std::fmt::Write as _;

/// Direction of one memory instruction in a generated kernel body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemDir {
    /// Memory → register.
    Load,
    /// Register → memory.
    Store,
}

impl MemDir {
    /// Single-letter code used in variant names (`LSL`).
    pub fn code(self) -> char {
        match self {
            MemDir::Load => 'L',
            MemDir::Store => 'S',
        }
    }
}

/// The generation choices that produced one program variant. MicroLauncher
/// copies this into its CSV output so results can be grouped by unroll
/// factor, instruction, or direction pattern, as the paper's figures do.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct VariantMeta {
    /// Name of the source kernel description.
    pub kernel: String,
    /// Chosen unroll factor.
    pub unroll: u32,
    /// Primary memory-move mnemonic, when the variant revolves around one.
    pub mnemonic: Option<Mnemonic>,
    /// Load/store direction of each unrolled memory instruction, in body
    /// order (the `(Load|Store)+` pattern of §3.1).
    pub directions: Vec<MemDir>,
    /// Chosen stride per induction, in declaration order.
    pub strides: Vec<i64>,
    /// Chosen immediate values, in operand order.
    pub immediates: Vec<i64>,
    /// Chosen repetition count, if the description had a repeat range.
    pub repeat: Option<u32>,
    /// Free-form extra annotations from plugins.
    pub extra: Vec<(String, String)>,
}

impl VariantMeta {
    /// Number of loads among the unrolled memory instructions.
    pub fn load_count(&self) -> usize {
        self.directions.iter().filter(|d| matches!(d, MemDir::Load)).count()
    }

    /// Number of stores among the unrolled memory instructions.
    pub fn store_count(&self) -> usize {
        self.directions.iter().filter(|d| matches!(d, MemDir::Store)).count()
    }

    /// Deterministic, filesystem-safe variant name encoding the choices,
    /// e.g. `figure6_movaps_u3_SLS`.
    pub fn variant_name(&self) -> String {
        let mut name = self.kernel.clone();
        if let Some(m) = self.mnemonic {
            name.push('_');
            name.push_str(&m.name());
        }
        let _ = write!(name, "_u{}", self.unroll);
        if !self.directions.is_empty() {
            name.push('_');
            name.extend(self.directions.iter().map(|d| d.code()));
        }
        if self.strides.len() > 1 || self.strides.first().is_some_and(|s| *s != 1) {
            for s in &self.strides {
                let _ = write!(name, "_s{s}");
            }
        }
        if let Some(r) = self.repeat {
            let _ = write!(name, "_r{r}");
        }
        name
    }
}

/// One concrete benchmark program: assembly lines (label, body, induction
/// updates, branch) plus the metadata needed to run and report it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Program {
    /// Unique variant name (see [`VariantMeta::variant_name`]).
    pub name: String,
    /// Generation choices.
    pub meta: VariantMeta,
    /// The kernel text: a label, the unrolled body, induction updates and
    /// the conditional back-branch.
    pub lines: Vec<AsmLine>,
    /// Number of data arrays the kernel addresses (MicroLauncher's
    /// `--nbvectors`).
    pub nb_arrays: u32,
    /// Element size in bytes of the data streams.
    pub element_bytes: u8,
    /// Data elements consumed per loop iteration (the trip counter's
    /// per-loop decrement); MicroLauncher uses this to size arrays and
    /// normalize to cycles per iteration.
    pub elements_per_iteration: u64,
}

impl Program {
    /// All instructions in order (labels and comments skipped).
    pub fn instructions(&self) -> impl Iterator<Item = &Inst> {
        self.lines.iter().filter_map(|l| match l {
            AsmLine::Inst(i) => Some(i),
            _ => None,
        })
    }

    /// Instructions of the unrolled body only — everything before the
    /// induction updates: the memory/compute work of the kernel.
    ///
    /// Recognized by construction: the body is every instruction that is
    /// not an induction update (integer `add`/`sub` into a GPR) and not the
    /// branch. For robustness with hand-written kernels it falls back to
    /// "all but the branch".
    pub fn body_instructions(&self) -> Vec<&Inst> {
        let insts: Vec<&Inst> = self.instructions().collect();
        Self::body_of(&insts).to_vec()
    }

    /// [`Program::body_instructions`] over an already collected
    /// [`Program::instructions`] list: the prefix that is the body.
    pub fn body_of<'a, 'i>(insts: &'a [&'i Inst]) -> &'a [&'i Inst] {
        let without_branch: &[&Inst] = match insts.split_last() {
            Some((last, rest)) if last.mnemonic.is_branch() => rest,
            _ => insts,
        };
        // Trailing run of integer add/sub updates = induction maintenance.
        let mut end = without_branch.len();
        while end > 0 {
            let inst = without_branch[end - 1];
            let is_update = matches!(inst.mnemonic, Mnemonic::Add(_) | Mnemonic::Sub(_))
                && inst.operands.first().and_then(mc_asm::inst::Operand::as_imm).is_some()
                && inst.store_ref().is_none();
            if is_update {
                end -= 1;
            } else {
                break;
            }
        }
        &without_branch[..end]
    }

    /// Number of load instructions in the body.
    pub fn load_count(&self) -> usize {
        self.body_instructions().iter().filter(|i| i.load_ref().is_some()).count()
    }

    /// Number of store instructions in the body.
    pub fn store_count(&self) -> usize {
        self.body_instructions().iter().filter(|i| i.store_ref().is_some()).count()
    }

    /// Bytes of memory traffic (loads + stores) per loop iteration.
    pub fn bytes_per_iteration(&self) -> u64 {
        self.instructions().map(|i| u64::from(i.load_bytes()) + u64::from(i.store_bytes())).sum()
    }

    /// Renders the program as an assembly text file body.
    pub fn to_asm_string(&self) -> String {
        write_lines(&self.lines)
    }

    /// Parses an assembly listing into a `Program` with default metadata —
    /// the path MicroLauncher takes for user-supplied `.s` files.
    pub fn from_asm_text(
        name: impl Into<String>,
        text: &str,
    ) -> Result<Program, mc_asm::parse::AsmParseError> {
        let lines = mc_asm::parse::parse_listing(text)?;
        Ok(Self::from_lines(name, lines))
    }

    /// Wraps pre-parsed lines as a `Program` with default metadata — used
    /// by the machine-code (object) input path.
    pub fn from_lines(name: impl Into<String>, lines: Vec<AsmLine>) -> Program {
        let name = name.into();
        Program {
            meta: VariantMeta { kernel: name.clone(), unroll: 1, ..VariantMeta::default() },
            name,
            lines,
            nb_arrays: 1,
            element_bytes: 4,
            elements_per_iteration: 1,
        }
    }

    /// Assembles this program to raw machine code (GNU-as-equivalent
    /// encodings; see `mc_asm::encode`).
    pub fn to_machine_code(&self) -> Result<Vec<u8>, mc_asm::encode::EncodeError> {
        Ok(mc_asm::encode::encode_program(&self.lines)?.bytes)
    }

    /// Disassembles raw machine code into a `Program` — MicroLauncher's
    /// object-file input (§4.1).
    pub fn from_machine_code(
        name: impl Into<String>,
        bytes: &[u8],
    ) -> Result<Program, mc_asm::decode::DecodeError> {
        let lines = mc_asm::decode::decode_listing(bytes)?;
        Ok(Self::from_lines(name, lines))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_asm::inst::{Cond, MemRef, Operand, Width};
    use mc_asm::reg::{GprName, Reg};

    /// Builds the paper's Figure 8 program (3×-unrolled store/load/store).
    pub(crate) fn figure8_program() -> Program {
        let rsi = Reg::gpr(GprName::Rsi);
        let rdi = Reg::gpr(GprName::Rdi);
        let lines = vec![
            AsmLine::Label(".L6".into()),
            AsmLine::Inst(Inst::binary(
                Mnemonic::Movaps,
                Operand::Reg(Reg::xmm(0)),
                Operand::Mem(MemRef::base_disp(rsi, 0)),
            )),
            AsmLine::Inst(Inst::binary(
                Mnemonic::Movaps,
                Operand::Mem(MemRef::base_disp(rsi, 16)),
                Operand::Reg(Reg::xmm(1)),
            )),
            AsmLine::Inst(Inst::binary(
                Mnemonic::Movaps,
                Operand::Reg(Reg::xmm(2)),
                Operand::Mem(MemRef::base_disp(rsi, 32)),
            )),
            AsmLine::Inst(Inst::binary(
                Mnemonic::Add(Width::Q),
                Operand::Imm(48),
                Operand::Reg(rsi),
            )),
            AsmLine::Inst(Inst::binary(
                Mnemonic::Sub(Width::Q),
                Operand::Imm(12),
                Operand::Reg(rdi),
            )),
            AsmLine::Inst(Inst::branch(Mnemonic::Jcc(Cond::Ge), ".L6")),
        ];
        Program {
            name: "figure6_movaps_u3_SLS".into(),
            meta: VariantMeta {
                kernel: "figure6".into(),
                unroll: 3,
                mnemonic: Some(Mnemonic::Movaps),
                directions: vec![MemDir::Store, MemDir::Load, MemDir::Store],
                strides: vec![16],
                ..VariantMeta::default()
            },
            lines,
            nb_arrays: 1,
            element_bytes: 4,
            elements_per_iteration: 12,
        }
    }

    #[test]
    fn body_extraction_stops_before_induction_updates() {
        let p = figure8_program();
        let body = p.body_instructions();
        assert_eq!(body.len(), 3);
        assert!(body.iter().all(|i| i.mnemonic == Mnemonic::Movaps));
    }

    #[test]
    fn load_store_counts() {
        let p = figure8_program();
        assert_eq!(p.load_count(), 1);
        assert_eq!(p.store_count(), 2);
        assert_eq!(p.meta.load_count(), 1);
        assert_eq!(p.meta.store_count(), 2);
    }

    #[test]
    fn bytes_per_iteration_counts_all_memory_traffic() {
        let p = figure8_program();
        assert_eq!(p.bytes_per_iteration(), 48);
    }

    #[test]
    fn variant_name_encodes_choices() {
        let p = figure8_program();
        assert_eq!(p.meta.variant_name(), "figure6_movaps_u3_SLS_s16");
    }

    #[test]
    fn variant_name_minimal() {
        let m = VariantMeta {
            kernel: "k".into(),
            unroll: 1,
            strides: vec![1],
            ..VariantMeta::default()
        };
        assert_eq!(m.variant_name(), "k_u1");
    }

    #[test]
    fn asm_roundtrip_via_text() {
        let p = figure8_program();
        let text = p.to_asm_string();
        let reparsed = Program::from_asm_text("fig8", &text).unwrap();
        let original: Vec<&Inst> = p.instructions().collect();
        let parsed: Vec<&Inst> = reparsed.instructions().collect();
        assert_eq!(original, parsed);
    }

    #[test]
    fn body_without_branch_or_updates_is_whole_listing() {
        let text = "movaps (%rsi), %xmm0\nmovaps 16(%rsi), %xmm1\n";
        let p = Program::from_asm_text("raw", text).unwrap();
        assert_eq!(p.body_instructions().len(), 2);
    }

    #[test]
    fn machine_code_roundtrip() {
        let p = figure8_program();
        let code = p.to_machine_code().unwrap();
        assert!(!code.is_empty());
        let back = Program::from_machine_code("fig8_obj", &code).unwrap();
        assert_eq!(back.load_count(), p.load_count());
        assert_eq!(back.store_count(), p.store_count());
        assert_eq!(back.to_machine_code().unwrap(), code, "stable through the roundtrip");
    }

    #[test]
    fn rmw_add_to_memory_is_not_mistaken_for_update() {
        let text = "addq $1, (%rsi)\nsubq $12, %rdi\njge .L0\n";
        let p = Program::from_asm_text("rmw", text).unwrap();
        // The RMW add targets memory: body; the subq is an update.
        assert_eq!(p.body_instructions().len(), 1);
    }
}
