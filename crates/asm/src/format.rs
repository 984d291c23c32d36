//! AT&T-syntax text emission.
//!
//! The output matches the paper's figures: mnemonic, a space, operands
//! separated by `", "`, memory operands as `disp(base,index,scale)`,
//! immediates with `$`, labels bare (`jg .L3`).

use crate::inst::Inst;
use std::fmt;

/// Writes one instruction in AT&T syntax (no indentation, no newline).
pub fn write_instruction(inst: &Inst, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "{}", inst.mnemonic.name())?;
    for (i, op) in inst.operands.iter().enumerate() {
        if i == 0 {
            write!(f, " {op}")?;
        } else {
            write!(f, ", {op}")?;
        }
    }
    Ok(())
}

/// A line of assembly text: label, instruction, directive or comment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AsmLine {
    /// A label definition, e.g. `.L6:` (stored without the colon).
    Label(String),
    /// An instruction.
    Inst(Inst),
    /// An assembler directive, passed through verbatim (e.g. `.globl foo`).
    Directive(String),
    /// A `#`-comment, stored without the marker.
    Comment(String),
}

impl fmt::Display for AsmLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmLine::Label(l) => write!(f, "{l}:"),
            AsmLine::Inst(i) => write!(f, "\t{i}"),
            AsmLine::Directive(d) => write!(f, "\t{d}"),
            AsmLine::Comment(c) => write!(f, "\t#{c}"),
        }
    }
}

/// Renders a sequence of lines as a text file body.
pub fn write_lines(lines: &[AsmLine]) -> String {
    let mut out = String::new();
    for line in lines {
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Cond, MemRef, Mnemonic, Operand, Width};
    use crate::reg::{GprName, Reg};

    #[test]
    fn formats_figure2_instructions() {
        // The naive matmul inner kernel from the paper's Figure 2.
        let rdx = Reg::gpr(GprName::Rdx);
        let rax = Reg::gpr(GprName::Rax);
        let r8 = Reg::gpr(GprName::R8);
        let cases = [
            (
                Inst::binary(
                    Mnemonic::Movsd,
                    Operand::Mem(MemRef::base_index(rdx, rax, 8, 0)),
                    Operand::Reg(Reg::xmm(0)),
                ),
                "movsd (%rdx,%rax,8), %xmm0",
            ),
            (
                Inst::binary(Mnemonic::Add(Width::Q), Operand::Imm(1), Operand::Reg(rax)),
                "addq $1, %rax",
            ),
            (
                Inst::binary(
                    Mnemonic::Mulsd,
                    Operand::Mem(MemRef::base_disp(r8, 0)),
                    Operand::Reg(Reg::xmm(0)),
                ),
                "mulsd (%r8), %xmm0",
            ),
            (
                Inst::binary(Mnemonic::Addsd, Operand::Reg(Reg::xmm(0)), Operand::Reg(Reg::xmm(1))),
                "addsd %xmm0, %xmm1",
            ),
            (Inst::branch(Mnemonic::Jcc(Cond::G), ".L3"), "jg .L3"),
        ];
        for (inst, expected) in cases {
            assert_eq!(inst.to_string(), expected);
        }
    }

    #[test]
    fn formats_figure8_kernel() {
        // The 3×-unrolled (Load|Store)+ output from the paper's Figure 8.
        let rsi = Reg::gpr(GprName::Rsi);
        let rdi = Reg::gpr(GprName::Rdi);
        let lines = vec![
            AsmLine::Label(".L6".into()),
            AsmLine::Comment("Unrolling iterations".into()),
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
            AsmLine::Comment("Induction variables".into()),
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
        let text = write_lines(&lines);
        let expected = "\
.L6:
\t#Unrolling iterations
\tmovaps %xmm0, 0(%rsi)
\tmovaps 16(%rsi), %xmm1
\tmovaps %xmm2, 32(%rsi)
\t#Induction variables
\taddq $48, %rsi
\tsubq $12, %rdi
\tjge .L6
";
        // Figure 8 prints `0(%rsi)`; our MemRef prints `(%rsi)` for a zero
        // displacement — semantically identical, so compare modulo that.
        assert_eq!(text.replace("movaps %xmm0, (%rsi)", "movaps %xmm0, 0(%rsi)"), expected);
    }

    #[test]
    fn nullary_formats_bare() {
        assert_eq!(Inst::nullary(Mnemonic::Ret).to_string(), "ret");
        assert_eq!(Inst::nullary(Mnemonic::Nop).to_string(), "nop");
    }

    #[test]
    fn negative_immediates() {
        let i = Inst::binary(
            Mnemonic::Add(Width::Q),
            Operand::Imm(-16),
            Operand::Reg(Reg::gpr(GprName::Rsi)),
        );
        assert_eq!(i.to_string(), "addq $-16, %rsi");
    }

    #[test]
    fn line_kinds_format() {
        assert_eq!(AsmLine::Label(".L1".into()).to_string(), ".L1:");
        assert_eq!(AsmLine::Directive(".globl kernel".into()).to_string(), "\t.globl kernel");
        assert_eq!(AsmLine::Comment(" hi".into()).to_string(), "\t# hi");
    }
}
