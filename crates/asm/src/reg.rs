//! Register model: the 16 general-purpose registers with their four width
//! views, and the 16 SSE `%xmm` registers.

use crate::inst::Width;
use std::fmt;

/// Architectural name of a general-purpose register (width-independent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum GprName {
    Rax,
    Rbx,
    Rcx,
    Rdx,
    Rsi,
    Rdi,
    Rbp,
    Rsp,
    R8,
    R9,
    R10,
    R11,
    R12,
    R13,
    R14,
    R15,
}

impl GprName {
    /// All sixteen GPRs in encoding order.
    pub const ALL: [GprName; 16] = [
        GprName::Rax,
        GprName::Rbx,
        GprName::Rcx,
        GprName::Rdx,
        GprName::Rsi,
        GprName::Rdi,
        GprName::Rbp,
        GprName::Rsp,
        GprName::R8,
        GprName::R9,
        GprName::R10,
        GprName::R11,
        GprName::R12,
        GprName::R13,
        GprName::R14,
        GprName::R15,
    ];

    /// Registers MicroCreator's register allocator may hand out for kernel
    /// pointers and counters. `%rsp`/`%rbp` are reserved for the stack frame
    /// and `%rax` for the returned iteration count (the MicroLauncher
    /// linkage contract, §4.4 of the paper).
    pub const ALLOCATABLE: [GprName; 11] = [
        GprName::Rsi,
        GprName::Rdi,
        GprName::Rdx,
        GprName::Rcx,
        GprName::R8,
        GprName::R9,
        GprName::R10,
        GprName::R11,
        GprName::Rbx,
        GprName::R12,
        GprName::R13,
    ];

    /// AT&T name of the 64-bit view without the `%` sigil.
    pub fn base_name(self) -> &'static str {
        match self {
            GprName::Rax => "rax",
            GprName::Rbx => "rbx",
            GprName::Rcx => "rcx",
            GprName::Rdx => "rdx",
            GprName::Rsi => "rsi",
            GprName::Rdi => "rdi",
            GprName::Rbp => "rbp",
            GprName::Rsp => "rsp",
            GprName::R8 => "r8",
            GprName::R9 => "r9",
            GprName::R10 => "r10",
            GprName::R11 => "r11",
            GprName::R12 => "r12",
            GprName::R13 => "r13",
            GprName::R14 => "r14",
            GprName::R15 => "r15",
        }
    }

    /// AT&T name (without `%`) of the view with the given width, e.g.
    /// `Rax` at `Width::L` is `eax` and `R8` at `Width::W` is `r8w`.
    pub fn name_for_width(self, width: Width) -> String {
        let base = self.base_name();
        if let Some(num) = base.strip_prefix('r').filter(|s| s.chars().all(|c| c.is_ascii_digit()))
        {
            return match width {
                Width::Q => format!("r{num}"),
                Width::L => format!("r{num}d"),
                Width::W => format!("r{num}w"),
                Width::B => format!("r{num}b"),
            };
        }
        // Legacy registers: rax/eax/ax/al, rsi/esi/si/sil, ...
        let stem = &base[1..]; // "ax", "si", ...
        match width {
            Width::Q => format!("r{stem}"),
            Width::L => format!("e{stem}"),
            Width::W => stem.to_owned(),
            Width::B => {
                if stem.ends_with('x') {
                    format!("{}l", &stem[..1]) // al, bl, cl, dl
                } else {
                    format!("{stem}l") // sil, dil, bpl, spl
                }
            }
        }
    }
}

/// A general-purpose register *view*: name plus access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Gpr {
    /// The architectural register.
    pub name: GprName,
    /// The accessed width (`%rax` vs `%eax` vs `%ax` vs `%al`).
    pub width: Width,
}

impl Gpr {
    /// 64-bit view of a register.
    pub fn q(name: GprName) -> Self {
        Gpr { name, width: Width::Q }
    }

    /// 32-bit view of a register.
    pub fn l(name: GprName) -> Self {
        Gpr { name, width: Width::L }
    }
}

impl fmt::Display for Gpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.name.name_for_width(self.width))
    }
}

/// Any register operand: a GPR view or an SSE register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reg {
    /// General-purpose register view.
    Gpr(Gpr),
    /// `%xmm0`–`%xmm15`.
    Xmm(u8),
}

impl Reg {
    /// Convenience constructor for a 64-bit GPR.
    pub fn gpr(name: GprName) -> Self {
        Reg::Gpr(Gpr::q(name))
    }

    /// Convenience constructor for a 32-bit GPR view.
    pub fn gpr32(name: GprName) -> Self {
        Reg::Gpr(Gpr::l(name))
    }

    /// Convenience constructor for `%xmmN`. Panics if `n > 15`.
    pub fn xmm(n: u8) -> Self {
        assert!(n < 16, "xmm register index {n} out of range");
        Reg::Xmm(n)
    }

    /// The architectural identity used for dependence analysis: all width
    /// views of one GPR alias the same physical register.
    pub fn arch_id(self) -> ArchReg {
        match self {
            Reg::Gpr(g) => ArchReg::Gpr(g.name),
            Reg::Xmm(n) => ArchReg::Xmm(n),
        }
    }

    /// True for `%xmm` registers.
    pub fn is_xmm(self) -> bool {
        matches!(self, Reg::Xmm(_))
    }

    /// Parses an AT&T register name *without* the `%` sigil.
    pub fn from_name(name: &str) -> Option<Reg> {
        if let Some(num) = name.strip_prefix("xmm") {
            let n: u8 = num.parse().ok()?;
            return (n < 16).then_some(Reg::Xmm(n));
        }
        for gpr in GprName::ALL {
            for width in [Width::Q, Width::L, Width::W, Width::B] {
                if gpr.name_for_width(width) == name {
                    return Some(Reg::Gpr(Gpr { name: gpr, width }));
                }
            }
        }
        None
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reg::Gpr(g) => write!(f, "{g}"),
            Reg::Xmm(n) => write!(f, "%xmm{n}"),
        }
    }
}

/// Width-erased register identity, the unit of data dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArchReg {
    /// A general-purpose register (any width view).
    Gpr(GprName),
    /// An SSE register.
    Xmm(u8),
    /// The RFLAGS register, written by ALU ops and read by conditional
    /// branches.
    Flags,
}

impl ArchReg {
    /// Number of architectural registers: 16 GPRs, 16 XMMs and the flags.
    pub const COUNT: usize = GprName::ALL.len() + 16 + 1;

    /// Every architectural register, in [`ArchReg::index`] order (which is
    /// also the derived `Ord` order).
    pub const ALL: [ArchReg; ArchReg::COUNT] = {
        let mut all = [ArchReg::Flags; ArchReg::COUNT];
        let mut i = 0;
        while i < 16 {
            all[i] = ArchReg::Gpr(GprName::ALL[i]);
            all[16 + i] = ArchReg::Xmm(i as u8);
            i += 1;
        }
        all
    };

    /// Dense slot of this register in `0..ArchReg::COUNT`: GPRs in
    /// encoding order, then `%xmm0`–`%xmm15`, then the flags. Order
    /// preserving, so sorted register lists map to ascending slots.
    ///
    /// Total: an `Xmm` number past 15 (which neither the parser nor
    /// [`Reg::xmm`] produces) wraps instead of indexing out of range.
    pub const fn index(self) -> usize {
        match self {
            ArchReg::Gpr(g) => g as usize,
            ArchReg::Xmm(n) => 16 + (n as usize % 16),
            ArchReg::Flags => ArchReg::COUNT - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_width_names() {
        assert_eq!(GprName::Rax.name_for_width(Width::Q), "rax");
        assert_eq!(GprName::Rax.name_for_width(Width::L), "eax");
        assert_eq!(GprName::Rax.name_for_width(Width::W), "ax");
        assert_eq!(GprName::Rax.name_for_width(Width::B), "al");
        assert_eq!(GprName::Rsi.name_for_width(Width::B), "sil");
        assert_eq!(GprName::Rbp.name_for_width(Width::L), "ebp");
    }

    #[test]
    fn numbered_width_names() {
        assert_eq!(GprName::R8.name_for_width(Width::Q), "r8");
        assert_eq!(GprName::R8.name_for_width(Width::L), "r8d");
        assert_eq!(GprName::R8.name_for_width(Width::W), "r8w");
        assert_eq!(GprName::R8.name_for_width(Width::B), "r8b");
        assert_eq!(GprName::R15.name_for_width(Width::L), "r15d");
    }

    #[test]
    fn display_forms() {
        assert_eq!(Reg::gpr(GprName::Rsi).to_string(), "%rsi");
        assert_eq!(Reg::gpr32(GprName::Rax).to_string(), "%eax");
        assert_eq!(Reg::xmm(3).to_string(), "%xmm3");
    }

    #[test]
    fn from_name_roundtrips_all_gpr_views() {
        for gpr in GprName::ALL {
            for width in [Width::Q, Width::L, Width::W, Width::B] {
                let name = gpr.name_for_width(width);
                let parsed = Reg::from_name(&name).unwrap_or_else(|| panic!("parse {name}"));
                assert_eq!(parsed, Reg::Gpr(Gpr { name: gpr, width }));
            }
        }
    }

    #[test]
    fn from_name_roundtrips_xmm() {
        for n in 0..16u8 {
            assert_eq!(Reg::from_name(&format!("xmm{n}")), Some(Reg::Xmm(n)));
        }
        assert_eq!(Reg::from_name("xmm16"), None);
        assert_eq!(Reg::from_name("xmm"), None);
    }

    #[test]
    fn from_name_rejects_garbage() {
        assert_eq!(Reg::from_name("foo"), None);
        assert_eq!(Reg::from_name(""), None);
        assert_eq!(Reg::from_name("raxx"), None);
    }

    #[test]
    fn arch_id_merges_width_views() {
        assert_eq!(Reg::gpr(GprName::Rax).arch_id(), Reg::gpr32(GprName::Rax).arch_id());
        assert_ne!(Reg::gpr(GprName::Rax).arch_id(), Reg::gpr(GprName::Rbx).arch_id());
        assert_ne!(Reg::xmm(0).arch_id(), Reg::xmm(1).arch_id());
    }

    #[test]
    fn arch_index_is_a_bijection_onto_its_slots() {
        let mut seen = [false; ArchReg::COUNT];
        for (slot, reg) in ArchReg::ALL.into_iter().enumerate() {
            assert_eq!(reg.index(), slot, "{reg:?}");
            assert!(!std::mem::replace(&mut seen[reg.index()], true), "{reg:?} shares a slot");
        }
        assert!(seen.iter().all(|&s| s));
        let mut sorted = ArchReg::ALL;
        sorted.sort();
        assert_eq!(sorted, ArchReg::ALL, "slot order is the derived Ord order");
    }

    #[test]
    fn every_parsed_register_name_lands_in_its_slot() {
        for (slot, gpr) in GprName::ALL.into_iter().enumerate() {
            for width in [Width::Q, Width::L, Width::W, Width::B] {
                let reg = Reg::from_name(&gpr.name_for_width(width)).expect("a GPR view parses");
                assert_eq!(reg.arch_id().index(), slot, "{reg}");
            }
        }
        for n in 0..16u8 {
            let reg = Reg::from_name(&format!("xmm{n}")).expect("an xmm register parses");
            assert_eq!(reg.arch_id().index(), 16 + usize::from(n));
        }
        assert_eq!(ArchReg::Flags.index(), ArchReg::COUNT - 1);
        assert_eq!(ArchReg::COUNT, 33);
    }

    #[test]
    fn arch_index_is_total() {
        assert_eq!(ArchReg::Xmm(16).index(), ArchReg::Xmm(0).index());
        assert_eq!(ArchReg::Xmm(u8::MAX).index(), ArchReg::Xmm(15).index());
    }

    #[test]
    fn allocatable_excludes_reserved() {
        assert!(!GprName::ALLOCATABLE.contains(&GprName::Rax));
        assert!(!GprName::ALLOCATABLE.contains(&GprName::Rsp));
        assert!(!GprName::ALLOCATABLE.contains(&GprName::Rbp));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn xmm_constructor_bounds() {
        let _ = Reg::xmm(16);
    }
}
