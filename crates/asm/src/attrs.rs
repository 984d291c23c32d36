//! Static per-instruction attributes consumed by the simulator's timing
//! model and by MicroCreator's instruction-selection passes.
//!
//! Attributes here are micro-architecture *independent* facts about an
//! instruction (how many bytes an SSE move transfers, whether it requires
//! alignment, which execution class it belongs to). Per-µarch latencies and
//! port maps live in `mc-simarch`.

use crate::inst::{Inst, Mnemonic};

/// Description of a memory-move mnemonic: the paper's "move semantics"
/// (§3.1) — byte count, vector-ness, alignment requirement, streaming hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemMoveInfo {
    /// Bytes transferred per execution (4 for `movss`, 8 for `movsd`,
    /// 16 for the packed moves).
    pub bytes: u8,
    /// True for packed (vector) moves.
    pub vector: bool,
    /// True if the memory operand must be naturally aligned (`movaps`
    /// faults on unaligned addresses; `movups` does not).
    pub aligned_required: bool,
    /// True for non-temporal (streaming) stores.
    pub streaming: bool,
}

/// Coarse execution class used for port binding in the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Integer add/sub/logic/compare/inc/dec/shift.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Address computation (`lea`).
    Lea,
    /// GPR-to-GPR or immediate-to-GPR move.
    MovGpr,
    /// SSE register-to-register or memory move.
    SseMove,
    /// SSE FP add/sub/min/max.
    FpAdd,
    /// SSE FP multiply.
    FpMul,
    /// SSE FP divide / square root (unpipelined).
    FpDiv,
    /// SSE bitwise logic (`xorps`).
    FpLogic,
    /// Conditional or unconditional branch.
    Branch,
    /// `nop` / `ret`.
    Other,
}

impl Mnemonic {
    /// Memory-move semantics for SSE data-movement mnemonics, `None` for
    /// everything else (integer `mov` moves `Width::bytes()` but is handled
    /// through its class; the paper's "move semantics" abstraction concerns
    /// the SSE family it varies over).
    pub fn mem_move(self) -> Option<MemMoveInfo> {
        use Mnemonic::*;
        Some(match self {
            Movss => {
                MemMoveInfo { bytes: 4, vector: false, aligned_required: false, streaming: false }
            }
            Movsd => {
                MemMoveInfo { bytes: 8, vector: false, aligned_required: false, streaming: false }
            }
            Movaps | Movapd | Movdqa => {
                MemMoveInfo { bytes: 16, vector: true, aligned_required: true, streaming: false }
            }
            Movups | Movupd | Movdqu => {
                MemMoveInfo { bytes: 16, vector: true, aligned_required: false, streaming: false }
            }
            Movntps | Movntpd => {
                MemMoveInfo { bytes: 16, vector: true, aligned_required: true, streaming: true }
            }
            _ => return None,
        })
    }

    /// The execution class for port binding.
    pub fn class(self) -> InstClass {
        use Mnemonic::*;
        match self {
            Add(_) | Sub(_) | And(_) | Or(_) | Xor(_) | Cmp(_) | Test(_) | Inc(_) | Dec(_)
            | Shl(_) | Shr(_) | Neg(_) => InstClass::IntAlu,
            Imul(_) => InstClass::IntMul,
            Lea(_) => InstClass::Lea,
            Mov(_) => InstClass::MovGpr,
            Movss | Movsd | Movaps | Movapd | Movups | Movupd | Movdqa | Movdqu | Movntps
            | Movntpd => InstClass::SseMove,
            Addss | Addsd | Addps | Addpd | Subss | Subsd | Subps | Subpd | Maxsd | Minsd => {
                InstClass::FpAdd
            }
            Mulss | Mulsd | Mulps | Mulpd => InstClass::FpMul,
            Divss | Divsd | Divps | Divpd | Sqrtsd => InstClass::FpDiv,
            Xorps | Xorpd => InstClass::FpLogic,
            Jmp | Jcc(_) => InstClass::Branch,
            Ret | Nop => InstClass::Other,
        }
    }

    /// True for packed (vector) SSE operations.
    pub fn is_vector(self) -> bool {
        use Mnemonic::*;
        matches!(
            self,
            Movaps
                | Movapd
                | Movups
                | Movupd
                | Movdqa
                | Movdqu
                | Movntps
                | Movntpd
                | Addps
                | Addpd
                | Subps
                | Subpd
                | Mulps
                | Mulpd
                | Divps
                | Divpd
                | Xorps
                | Xorpd
        )
    }
}

impl Inst {
    /// Bytes of memory read by this instruction (0 if it does not load).
    ///
    /// SSE moves use their [`MemMoveInfo`]; load-op SSE arithmetic reads the
    /// operand width implied by its scalar/packed suffix; integer memory
    /// operands read `Width::bytes()`.
    pub fn load_bytes(&self) -> u8 {
        if self.load_ref().is_none() {
            return 0;
        }
        self.access_bytes()
    }

    /// Bytes of memory written by this instruction (0 if it does not store).
    pub fn store_bytes(&self) -> u8 {
        if self.store_ref().is_none() {
            return 0;
        }
        self.access_bytes()
    }

    /// The natural access size of this instruction's memory operand.
    fn access_bytes(&self) -> u8 {
        use Mnemonic::*;
        if let Some(info) = self.mnemonic.mem_move() {
            return info.bytes;
        }
        match self.mnemonic {
            Addss | Subss | Mulss | Divss => 4,
            Addsd | Subsd | Mulsd | Divsd | Sqrtsd | Maxsd | Minsd => 8,
            Addps | Addpd | Subps | Subpd | Mulps | Mulpd | Divps | Divpd | Xorps | Xorpd => 16,
            Add(w) | Sub(w) | Imul(w) | And(w) | Or(w) | Xor(w) | Cmp(w) | Test(w) | Mov(w)
            | Inc(w) | Dec(w) | Shl(w) | Shr(w) | Neg(w) => w.bytes(),
            _ => 0,
        }
    }

    /// Number of fused-domain micro-operations this instruction decodes to
    /// on the modelled Intel cores.
    ///
    /// First-order model: 1 uop baseline; +1 for a load-op source (the load
    /// µop — micro-fused but occupying a load port slot, counted separately
    /// for port pressure in the simulator); stores decode to
    /// store-address + store-data (2 unfused µops, 1 fused-domain slot on
    /// Nehalem/SNB — we report fused-domain count here).
    pub fn fused_uops(&self) -> u8 {
        let mut uops = 1u8;
        // A load folded into an ALU op stays micro-fused: still 1 fused slot.
        // RMW memory destinations add a store on top of the load: 2 slots.
        if self.load_ref().is_some() && self.store_ref().is_some() {
            uops += 1;
        }
        uops
    }

    /// True if this instruction's only effect is data movement (no ALU).
    pub fn is_pure_move(&self) -> bool {
        matches!(self.mnemonic.class(), InstClass::SseMove | InstClass::MovGpr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Cond, MemRef, Operand, Width};
    use crate::reg::{GprName, Reg};

    #[test]
    fn mem_move_byte_counts_match_paper() {
        // "the scalar instruction movss moves four bytes of memory, whereas
        //  the vectorized movaps moves sixteen bytes" (§5.1)
        assert_eq!(Mnemonic::Movss.mem_move().unwrap().bytes, 4);
        assert_eq!(Mnemonic::Movsd.mem_move().unwrap().bytes, 8);
        assert_eq!(Mnemonic::Movaps.mem_move().unwrap().bytes, 16);
        assert_eq!(Mnemonic::Movapd.mem_move().unwrap().bytes, 16);
    }

    #[test]
    fn alignment_requirements() {
        assert!(Mnemonic::Movaps.mem_move().unwrap().aligned_required);
        assert!(!Mnemonic::Movups.mem_move().unwrap().aligned_required);
        assert!(!Mnemonic::Movss.mem_move().unwrap().aligned_required);
    }

    #[test]
    fn streaming_flag() {
        assert!(Mnemonic::Movntps.mem_move().unwrap().streaming);
        assert!(!Mnemonic::Movaps.mem_move().unwrap().streaming);
    }

    #[test]
    fn non_moves_have_no_mem_move() {
        assert!(Mnemonic::Addsd.mem_move().is_none());
        assert!(Mnemonic::Add(Width::Q).mem_move().is_none());
        assert!(Mnemonic::Jmp.mem_move().is_none());
    }

    #[test]
    fn classes() {
        assert_eq!(Mnemonic::Add(Width::Q).class(), InstClass::IntAlu);
        assert_eq!(Mnemonic::Imul(Width::Q).class(), InstClass::IntMul);
        assert_eq!(Mnemonic::Lea(Width::Q).class(), InstClass::Lea);
        assert_eq!(Mnemonic::Movaps.class(), InstClass::SseMove);
        assert_eq!(Mnemonic::Addsd.class(), InstClass::FpAdd);
        assert_eq!(Mnemonic::Mulsd.class(), InstClass::FpMul);
        assert_eq!(Mnemonic::Divsd.class(), InstClass::FpDiv);
        assert_eq!(Mnemonic::Xorps.class(), InstClass::FpLogic);
        assert_eq!(Mnemonic::Jcc(Cond::Ge).class(), InstClass::Branch);
    }

    #[test]
    fn vectorness() {
        assert!(Mnemonic::Movaps.is_vector());
        assert!(Mnemonic::Addps.is_vector());
        assert!(!Mnemonic::Movss.is_vector());
        assert!(!Mnemonic::Addsd.is_vector());
    }

    #[test]
    fn load_store_bytes() {
        let rsi = Reg::gpr(GprName::Rsi);
        let load = Inst::binary(
            Mnemonic::Movaps,
            Operand::Mem(MemRef::base_disp(rsi, 0)),
            Operand::Reg(Reg::xmm(0)),
        );
        assert_eq!(load.load_bytes(), 16);
        assert_eq!(load.store_bytes(), 0);

        let store = Inst::binary(
            Mnemonic::Movss,
            Operand::Reg(Reg::xmm(0)),
            Operand::Mem(MemRef::base_disp(rsi, 0)),
        );
        assert_eq!(store.load_bytes(), 0);
        assert_eq!(store.store_bytes(), 4);

        let load_op = Inst::binary(
            Mnemonic::Mulsd,
            Operand::Mem(MemRef::base_disp(rsi, 0)),
            Operand::Reg(Reg::xmm(0)),
        );
        assert_eq!(load_op.load_bytes(), 8);

        let int_load = Inst::binary(
            Mnemonic::Mov(Width::L),
            Operand::Mem(MemRef::base_disp(rsi, 0)),
            Operand::Reg(Reg::gpr32(GprName::Rax)),
        );
        assert_eq!(int_load.load_bytes(), 4);
    }

    #[test]
    fn register_only_ops_move_no_memory() {
        let i = Inst::binary(Mnemonic::Addsd, Operand::Reg(Reg::xmm(0)), Operand::Reg(Reg::xmm(1)));
        assert_eq!(i.load_bytes(), 0);
        assert_eq!(i.store_bytes(), 0);
    }

    #[test]
    fn fused_uop_counts() {
        let rsi = Reg::gpr(GprName::Rsi);
        let reg_op = Inst::binary(Mnemonic::Add(Width::Q), Operand::Imm(1), Operand::Reg(rsi));
        assert_eq!(reg_op.fused_uops(), 1);
        let load_op = Inst::binary(
            Mnemonic::Mulsd,
            Operand::Mem(MemRef::base_disp(rsi, 0)),
            Operand::Reg(Reg::xmm(0)),
        );
        assert_eq!(load_op.fused_uops(), 1, "micro-fused load-op is one fused slot");
        let rmw = Inst::binary(
            Mnemonic::Add(Width::Q),
            Operand::Imm(1),
            Operand::Mem(MemRef::base_disp(rsi, 0)),
        );
        assert_eq!(rmw.fused_uops(), 2);
    }

    #[test]
    fn pure_move_detection() {
        assert!(Inst::binary(
            Mnemonic::Movaps,
            Operand::Reg(Reg::xmm(0)),
            Operand::Reg(Reg::xmm(1))
        )
        .is_pure_move());
        assert!(!Inst::binary(
            Mnemonic::Addsd,
            Operand::Reg(Reg::xmm(0)),
            Operand::Reg(Reg::xmm(1))
        )
        .is_pure_move());
    }
}
