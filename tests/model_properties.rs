//! Cross-crate property tests for the substrate models: the interpreter's
//! ALU against reference semantics, the XML binding's round-trip, and
//! end-to-end claims like non-temporal stores beating regular stores.

use mc_report::prop::{check, coin, pick};
use microtools::asm::reg::GprName;
use microtools::prelude::*;
use microtools::simarch::interp::Interpreter;

/// Reference flag computation for `a - b` at 64 bits (the `cmpq` case).
fn reference_sub_flags(a: u64, b: u64) -> (bool, bool, bool, bool) {
    let r = a.wrapping_sub(b);
    let zf = r == 0;
    let sf = (r as i64) < 0;
    let cf = b > a;
    let of = ((a ^ b) & (a ^ r)) >> 63 == 1;
    (zf, sf, cf, of)
}

/// The interpreter's cmp/jcc behaviour matches two's-complement
/// semantics for arbitrary operands.
#[test]
fn interpreter_sub_flags_match_reference() {
    check(128, |rng| {
        let (a, b) = (rng.next_u64(), rng.next_u64()); // any i64 pair, as raw bits
        let text = "cmpq %rsi, %rdi\n"; // computes rdi - rsi
        let p = Program::from_asm_text("flags", text).unwrap();
        let mut interp = Interpreter::new();
        interp.set_gpr(GprName::Rdi, a);
        interp.set_gpr(GprName::Rsi, b);
        interp.run(&p, 10);
        let (zf, sf, cf, of) = reference_sub_flags(a, b);
        assert_eq!(interp.flags.zf, zf);
        assert_eq!(interp.flags.sf, sf);
        assert_eq!(interp.flags.cf, cf);
        assert_eq!(interp.flags.of, of);
        // The derived conditions agree with signed/unsigned comparisons.
        use microtools::asm::inst::Cond;
        assert_eq!(interp.flags.test(Cond::E), a == b);
        assert_eq!(interp.flags.test(Cond::G), (a as i64) > (b as i64));
        assert_eq!(interp.flags.test(Cond::Ge), (a as i64) >= (b as i64));
        assert_eq!(interp.flags.test(Cond::L), (a as i64) < (b as i64));
        assert_eq!(interp.flags.test(Cond::A), a > b);
        assert_eq!(interp.flags.test(Cond::B), a < b);
    });
}

/// add/sub results match wrapping arithmetic at every width.
#[test]
fn interpreter_add_matches_wrapping() {
    check(128, |rng| {
        let (a, b) = (rng.next_u64(), rng.gen_range(0..=u32::MAX));
        let p = Program::from_asm_text("add", &format!("addq ${}, %rdi\n", b as i32)).unwrap();
        let mut interp = Interpreter::new();
        interp.set_gpr(GprName::Rdi, a);
        interp.run(&p, 10);
        assert_eq!(interp.gpr(GprName::Rdi), a.wrapping_add((b as i32) as i64 as u64));
    });
}

/// Kernel descriptions survive an XML write→parse round trip.
#[test]
fn kernel_xml_roundtrip() {
    check(128, |rng| {
        let mnemonic =
            pick(rng, &[Mnemonic::Movss, Mnemonic::Movsd, Mnemonic::Movaps, Mnemonic::Movups]);
        let arrays = rng.gen_range(1..4u32);
        let swap = coin(rng);
        let unroll_min = rng.gen_range(1..4u32);
        let span = rng.gen_range(0..5u32);
        let element_bytes = pick(rng, &[4u8, 8]);
        let mut builder = KernelBuilder::new("roundtrip").element_bytes(element_bytes);
        for i in 1..=arrays {
            builder = builder.stream_instruction(mnemonic, &format!("r{i}"), swap);
        }
        let desc = builder.unroll(unroll_min, unroll_min + span).counted_by("r1").build().unwrap();
        let xml = microtools::kernel::xml::kernel_to_xml(&desc);
        let parsed = microtools::kernel::xml::parse_kernel(&xml).unwrap();
        assert_eq!(&parsed, &desc);
        // And a second round trip is byte-stable.
        assert_eq!(microtools::kernel::xml::kernel_to_xml(&parsed), xml);
    });
}

#[test]
fn non_temporal_stores_beat_regular_stores_in_ram() {
    // The reason the instruction set includes movntps: RAM-resident store
    // streams skip the read-for-ownership. End-to-end through the
    // launcher, the NT version must be ~2× cheaper.
    let build = |mnemonic| {
        let desc = KernelBuilder::new("stores")
            .stream_instruction(mnemonic, "r1", false)
            .unroll(8, 8)
            .counted_by("r1")
            .build()
            .unwrap();
        let mut programs = MicroCreator::new().generate(&desc).unwrap().programs;
        let mut p = programs.remove(0);
        // Turn the load stream into a store stream by swapping operands.
        for line in &mut p.lines {
            if let microtools::asm::format::AsmLine::Inst(inst) = line {
                if inst.mnemonic == mnemonic && inst.load_ref().is_some() {
                    inst.operands.swap(0, 1);
                }
            }
        }
        p
    };
    let opts = LauncherOptions {
        residence: Some(Level::Ram),
        verify: false,
        ..LauncherOptions::default()
    };
    let launcher = MicroLauncher::new(opts);
    let regular =
        launcher.run(&KernelInput::program(build(Mnemonic::Movaps))).unwrap().cycles_per_iteration;
    let streaming =
        launcher.run(&KernelInput::program(build(Mnemonic::Movntps))).unwrap().cycles_per_iteration;
    assert!(
        regular > streaming * 1.7,
        "write-allocate must penalize regular stores: {regular} vs {streaming}"
    );
}

#[test]
fn store_streams_cost_more_than_load_streams_in_ram() {
    let programs = |m| {
        microtools::launcher::sweeps::programs_by_unroll_shared(
            &microtools::launcher::Ctx::default(),
            &load_stream(m, 8, 8),
        )
        .unwrap()
        .remove(0)
    };
    let opts = LauncherOptions {
        residence: Some(Level::Ram),
        verify: false,
        ..LauncherOptions::default()
    };
    let launcher = MicroLauncher::new(opts);
    let loads = launcher
        .run(&KernelInput::program(programs(Mnemonic::Movaps)))
        .unwrap()
        .cycles_per_iteration;
    // All-stores variant of figure6 at unroll 8.
    let mut desc = figure6();
    desc.unrolling = microtools::kernel::UnrollRange::fixed(8);
    let all_stores = MicroCreator::new()
        .generate(&desc)
        .unwrap()
        .programs
        .into_iter()
        .find(|p| p.store_count() == 8)
        .unwrap();
    let stores = launcher.run(&KernelInput::program(all_stores)).unwrap().cycles_per_iteration;
    assert!(stores > loads * 1.5, "stores {stores} vs loads {loads}");
}

#[test]
fn figure2_kernel_computes_a_real_dot_product() {
    // The paper's Figure 2 assembly, executed by the interpreter over
    // seeded matrices, must produce the same inner product as a Rust
    // reference — semantic validation of the full asm→interp stack.
    let text = "\
.L3:
movsd (%rdx,%rax,8), %xmm0
addq $1, %rax
mulsd (%r8), %xmm0
addq %r11, %r8
cmpl %eax, %edi
addsd %xmm0, %xmm1
movsd %xmm1, (%r10,%r9,1)
jg .L3
";
    let program = Program::from_asm_text("figure2", text).unwrap();
    let size = 64u64; // matrix dimension
    let b_row = 0x10_0000u64;
    let c_col = 0x20_0000u64;
    let res = 0x30_0000u64;

    let mut interp = Interpreter::new();
    let b: Vec<f64> = (0..size).map(|k| 0.5 + k as f64).collect();
    let c: Vec<f64> = (0..size).map(|k| 1.0 / (1.0 + k as f64)).collect();
    interp.mem.write_f64s(b_row, &b);
    // The kernel walks the C column with stride r11 = 8·size bytes.
    for (k, v) in c.iter().enumerate() {
        interp.mem.write_f64s(c_col + 8 * size * k as u64, &[*v]);
    }
    interp.set_gpr(GprName::Rdx, b_row);
    interp.set_gpr(GprName::R8, c_col);
    interp.set_gpr(GprName::R10, res);
    interp.set_gpr(GprName::R9, 0);
    interp.set_gpr(GprName::R11, 8 * size);
    interp.set_gpr(GprName::Rax, 0);
    interp.set_gpr(GprName::Rdi, size); // %edi = loop bound
    let outcome = interp.run(&program, 100_000);
    assert_eq!(outcome.stop, microtools::simarch::interp::StopReason::FellThrough);
    assert_eq!(outcome.loop_iterations, size);

    let reference: f64 = b.iter().zip(&c).map(|(x, y)| x * y).sum();
    let computed = interp.mem.read_f64(res);
    assert!(
        (computed - reference).abs() < 1e-9,
        "kernel computed {computed}, reference {reference}"
    );
}
