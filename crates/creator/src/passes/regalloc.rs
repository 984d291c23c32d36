//! Pass 11: register allocation.
//!
//! §3.1: "The hardware detection system associates r1 to a physical
//! register such as %rsi or %rdi." The binding follows MicroLauncher's
//! linkage contract (§4.4): the generated kernel is called as
//! `int myFunction(int n, void *a0, void *a1, …)`, so under the SysV AMD64
//! ABI the trip count lands in `%rdi` and the array pointers in
//! `%rsi, %rdx, %rcx, %r8, %r9`. Arrays beyond the five register arguments
//! are pre-loaded from the stack into scratch/callee-saved registers by the
//! launcher prologue — the binding continues `%r10, %r11, %rbx, %r12, %r13`.

use crate::context::GenContext;
use crate::error::CreatorResult;
use crate::pass::Pass;
use mc_asm::reg::{GprName, Reg};

/// Binding order for array-pointer registers (after `%rdi` = trip count).
pub const ARRAY_REGS: [GprName; 10] = [
    GprName::Rsi,
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

/// Binds logical registers to physical ones.
pub struct RegisterAllocation;

impl Pass for RegisterAllocation {
    fn name(&self) -> &str {
        "register-allocation"
    }

    fn run(&self, ctx: &mut GenContext) -> CreatorResult<()> {
        ctx.for_each(self.name(), |cand| {
            cand.binding.clear();
            // 1. Trip counter → %rdi.
            if let Some(last) = cand.desc.last_induction() {
                if let Some(name) = last.register.logical_name() {
                    cand.binding.insert(name.to_owned(), Reg::gpr(GprName::Rdi));
                }
            }
            // 2. Arrays in first-use order → the argument registers.
            let arrays = cand.desc.array_registers();
            if arrays.len() > ARRAY_REGS.len() {
                return Err(format!(
                    "kernel uses {} arrays but only {} array registers are available",
                    arrays.len(),
                    ARRAY_REGS.len()
                ));
            }
            let mut next_array = 0usize;
            for name in arrays {
                if cand.binding.contains_key(name) {
                    continue; // the counter doubling as a base (unusual)
                }
                cand.binding.insert(name.to_owned(), Reg::gpr(ARRAY_REGS[next_array]));
                next_array += 1;
            }
            // 3. Any remaining logical registers (data/index registers) →
            //    leftover allocatable registers.
            let mut leftovers = ARRAY_REGS[next_array..].iter().copied();
            let mut remaining: Vec<String> = Vec::new();
            for inst in &cand.desc.instructions {
                for name in inst.logical_registers() {
                    if !cand.binding.contains_key(name) && !remaining.iter().any(|n| n == name) {
                        remaining.push(name.to_owned());
                    }
                }
            }
            for ind in &cand.desc.inductions {
                if let Some(name) = ind.register.logical_name() {
                    if !cand.binding.contains_key(name) && !remaining.iter().any(|n| n == name) {
                        remaining.push(name.to_owned());
                    }
                }
            }
            for name in remaining {
                let reg = leftovers
                    .next()
                    .ok_or_else(|| format!("ran out of registers binding `{name}`"))?;
                cand.binding.insert(name, Reg::gpr(reg));
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CreatorConfig;
    use mc_asm::inst::Mnemonic;
    use mc_kernel::builder::{figure6, multi_array_traversal};

    #[test]
    fn figure6_binding_matches_figure8() {
        // Figure 8 uses %rsi for the array pointer and %rdi for the counter.
        let mut ctx = GenContext::new(figure6(), CreatorConfig::default());
        RegisterAllocation.run(&mut ctx).unwrap();
        let b = &ctx.candidates[0].binding;
        assert_eq!(b.get("r1"), Some(&Reg::gpr(GprName::Rsi)));
        assert_eq!(b.get("r0"), Some(&Reg::gpr(GprName::Rdi)));
    }

    #[test]
    fn eight_arrays_bind_distinct_registers() {
        // Figure 15 runs an 8-array traversal.
        let desc = multi_array_traversal(Mnemonic::Movss, 8);
        let mut ctx = GenContext::new(desc, CreatorConfig::default());
        RegisterAllocation.run(&mut ctx).unwrap();
        let b = &ctx.candidates[0].binding;
        assert_eq!(b.len(), 9, "8 arrays + counter");
        let mut regs: Vec<Reg> = b.values().copied().collect();
        regs.sort_by_key(|r| format!("{r}"));
        regs.dedup();
        assert_eq!(regs.len(), 9, "all bindings distinct");
    }

    #[test]
    fn too_many_arrays_is_an_error() {
        let desc = multi_array_traversal(Mnemonic::Movss, 11);
        let mut ctx = GenContext::new(desc, CreatorConfig::default());
        let err = RegisterAllocation.run(&mut ctx).unwrap_err();
        assert!(err.to_string().contains("11 arrays"), "{err}");
    }

    #[test]
    fn physical_registers_need_no_binding() {
        // Figure 9's %eax counter is already physical.
        let mut desc = figure6();
        desc.inductions.push(mc_kernel::InductionDesc {
            register: mc_kernel::RegisterRef::Physical(Reg::gpr32(GprName::Rax)),
            increment_choices: vec![1],
            offset_step: 0,
            linked: None,
            last: false,
            not_affected_unroll: true,
        });
        let mut ctx = GenContext::new(desc, CreatorConfig::default());
        RegisterAllocation.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates[0].binding.len(), 2, "only r0 and r1 bound");
    }
}
