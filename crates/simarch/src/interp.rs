//! Functional x86-64 interpreter.
//!
//! Executes generated kernels instruction-by-instruction over a simulated
//! memory. The launcher uses it as the "execution vehicle" that GCC + real
//! silicon provided in the paper: it verifies that a program really
//! performs its advertised loads and stores, consumes its trip count,
//! terminates, and leaves the executed iteration count in `%eax`
//! (MicroLauncher's linkage contract, §4.4).
//!
//! A program is lowered once per run: branch targets become
//! instruction indices, operands become register slots and address forms.
//! Memory is a sparse map of 4 KiB pages, each carrying a mask of the
//! 64-byte lines the current run touched, so an access is one lookup and
//! one slice copy per page it spans.

use mc_asm::format::AsmLine;
use mc_asm::inst::{Cond, Inst, MemRef, Mnemonic, Operand, Width};
use mc_asm::reg::{GprName, Reg};
use mc_kernel::Program;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

const PAGE: u64 = 4096;

/// One 4 KiB page of simulated memory.
#[derive(Debug, Default)]
struct Page {
    /// Allocated by the page's first write; until then it reads as zeros.
    bytes: Option<Box<[u8; PAGE as usize]>>,
    /// The page's 64 lines of 64 bytes: bit `i` is set when the current
    /// run loaded or stored a byte of line `i`.
    lines: u64,
}

impl Page {
    fn bytes_mut(&mut self) -> &mut [u8; PAGE as usize] {
        self.bytes.get_or_insert_with(|| Box::new([0; PAGE as usize]))
    }

    /// Marks the lines of bytes `[off, off + len)` of this page, `len > 0`.
    fn touch(&mut self, off: usize, len: usize) {
        for line in off / 64..=(off + len - 1) / 64 {
            self.lines |= 1 << line;
        }
    }
}

/// Hashes a page number with one multiply (Fibonacci hashing). Page
/// numbers are not adversarial, and SipHash would cost more than the
/// access it serves.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Splits the access `[addr, addr + len)` at page edges into
/// `(page, offset in the page, bytes of the access)` spans.
fn page_spans(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let a = addr.wrapping_add(done as u64);
            let off = (a % PAGE) as usize;
            let n = (len - done).min(PAGE as usize - off);
            done += n;
            (a / PAGE, off, done - n..done)
        })
    })
}

/// Sparse byte-addressable memory (4 KiB pages, zero-initialized). A page
/// exists once a run touched it or something wrote to it; only written
/// pages hold bytes.
#[derive(Debug, Default)]
pub struct SimMemory {
    pages: HashMap<u64, Page, BuildHasherDefault<PageHasher>>,
}

impl SimMemory {
    /// Fresh empty memory.
    pub fn new() -> Self {
        SimMemory::default()
    }

    fn page(&mut self, page: u64) -> &mut Page {
        self.pages.entry(page).or_default()
    }

    /// Reads `len ≤ 16` bytes at `addr`.
    pub fn read(&self, addr: u64, len: usize) -> [u8; 16] {
        debug_assert!(len <= 16);
        let mut out = [0u8; 16];
        for (page, off, span) in page_spans(addr, len) {
            if let Some(bytes) = self.pages.get(&page).and_then(|p| p.bytes.as_deref()) {
                out[span.clone()].copy_from_slice(&bytes[off..off + span.len()]);
            }
        }
        out
    }

    /// Writes `data` at `addr`.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        for (page, off, span) in page_spans(addr, data.len()) {
            self.page(page).bytes_mut()[off..off + span.len()].copy_from_slice(&data[span]);
        }
    }

    /// A run's load: [`Self::read`], marking the lines read.
    fn load(&mut self, addr: u64, len: usize) -> [u8; 16] {
        let mut out = [0u8; 16];
        for (page, off, span) in page_spans(addr, len) {
            let page = self.page(page);
            page.touch(off, span.len());
            if let Some(bytes) = &page.bytes {
                out[span.clone()].copy_from_slice(&bytes[off..off + span.len()]);
            }
        }
        out
    }

    /// A run's store: [`Self::write`], marking the lines written.
    fn store(&mut self, addr: u64, data: &[u8]) {
        for (page, off, span) in page_spans(addr, data.len()) {
            let page = self.page(page);
            page.touch(off, span.len());
            page.bytes_mut()[off..off + span.len()].copy_from_slice(&data[span]);
        }
    }

    /// Forgets which lines were touched (a run starts).
    fn clear_lines(&mut self) {
        for page in self.pages.values_mut() {
            page.lines = 0;
        }
    }

    /// Distinct lines touched since [`Self::clear_lines`]. A line lies in
    /// exactly one page, so none is counted twice.
    fn touched_lines(&self) -> u64 {
        self.pages.values().map(|p| u64::from(p.lines.count_ones())).sum()
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read(addr, 8)[..8].try_into().expect("8 bytes"))
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Writes an f32 slice (for seeding kernel arrays).
    pub fn write_f32s(&mut self, addr: u64, values: &[f32]) {
        for (i, v) in values.iter().enumerate() {
            self.write(addr + 4 * i as u64, &v.to_le_bytes());
        }
    }

    /// Writes an f64 slice.
    pub fn write_f64s(&mut self, addr: u64, values: &[f64]) {
        for (i, v) in values.iter().enumerate() {
            self.write(addr + 8 * i as u64, &v.to_le_bytes());
        }
    }

    /// Reads an f64.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_le_bytes(self.read(addr, 8)[..8].try_into().expect("8 bytes"))
    }

    /// Reads an f32.
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_le_bytes(self.read(addr, 4)[..4].try_into().expect("4 bytes"))
    }
}

/// ALU flags (the subset conditional branches consume).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flags {
    /// Zero flag.
    pub zf: bool,
    /// Sign flag.
    pub sf: bool,
    /// Overflow flag.
    pub of: bool,
    /// Carry flag.
    pub cf: bool,
}

impl Flags {
    /// Evaluates a condition code.
    pub fn test(&self, cond: Cond) -> bool {
        match cond {
            Cond::E => self.zf,
            Cond::Ne => !self.zf,
            Cond::G => !self.zf && self.sf == self.of,
            Cond::Ge => self.sf == self.of,
            Cond::L => self.sf != self.of,
            Cond::Le => self.zf || self.sf != self.of,
            Cond::A => !self.cf && !self.zf,
            Cond::Ae => !self.cf,
            Cond::B => self.cf,
            Cond::Be => self.cf || self.zf,
            Cond::S => self.sf,
            Cond::Ns => !self.sf,
        }
    }

    fn set(&mut self, result: u64, width: Width, carry: bool, overflow: bool) {
        let bits = u32::from(width.bytes()) * 8;
        let r = result & mask(width);
        self.zf = r == 0;
        self.sf = (r >> (bits - 1)) & 1 == 1;
        self.cf = carry;
        self.of = overflow;
    }
}

/// Why execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Fell off the end of the listing (the loop exited).
    FellThrough,
    /// Executed a `ret`.
    Returned,
    /// Hit the step budget (probable non-termination).
    MaxSteps,
    /// Branched to an unknown label.
    UnknownLabel,
}

/// Observable results of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// Total instructions executed.
    pub instructions: u64,
    /// Times the loop's backward branch was executed (= loop iterations).
    pub loop_iterations: u64,
    /// Number of load operations performed.
    pub loads: u64,
    /// Number of store operations performed.
    pub stores: u64,
    /// Bytes loaded.
    pub bytes_loaded: u64,
    /// Bytes stored.
    pub bytes_stored: u64,
    /// Distinct 64-byte lines touched.
    pub unique_lines: u64,
    /// Final `%eax` (the MicroLauncher iteration-count convention).
    pub eax: u32,
    /// Why execution stopped.
    pub stop: StopReason,
}

impl ExecOutcome {
    fn new() -> Self {
        ExecOutcome {
            instructions: 0,
            loop_iterations: 0,
            loads: 0,
            stores: 0,
            bytes_loaded: 0,
            bytes_stored: 0,
            unique_lines: 0,
            eax: 0,
            stop: StopReason::FellThrough,
        }
    }
}

/// One memory access in a recorded trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Byte address.
    pub address: u64,
    /// Access size in bytes.
    pub bytes: u8,
    /// True for stores.
    pub store: bool,
}

/// A decoded operand.
#[derive(Debug, Clone, Copy)]
enum Opnd {
    Imm(u64),
    /// GPR slot (`GprName as usize`) and accessed width.
    Gpr(u8, Width),
    Xmm(u8),
    Mem(Addr),
    /// A label or a missing operand: reads zero, writes nowhere.
    None,
}

impl Opnd {
    fn lower(op: Option<&Operand>) -> Opnd {
        match op {
            Some(Operand::Imm(v)) => Opnd::Imm(*v as u64),
            Some(Operand::Reg(Reg::Gpr(g))) => Opnd::Gpr(g.name as u8, g.width),
            Some(Operand::Reg(Reg::Xmm(n))) => Opnd::Xmm(n % 16),
            Some(Operand::Mem(m)) => Opnd::Mem(Addr::lower(m)),
            Some(Operand::Label(_)) | None => Opnd::None,
        }
    }
}

/// `disp + base + index * scale`; an XMM base or index contributes nothing.
#[derive(Debug, Clone, Copy)]
struct Addr {
    base: Option<u8>,
    index: Option<(u8, u64)>,
    disp: u64,
}

impl Addr {
    fn lower(m: &MemRef) -> Addr {
        let slot = |r: Reg| match r {
            Reg::Gpr(g) => Some(g.name as u8),
            Reg::Xmm(_) => None,
        };
        Addr {
            base: m.base.and_then(slot),
            index: m.index.and_then(|(r, scale)| slot(r).map(|s| (s, u64::from(scale)))),
            disp: m.disp as u64,
        }
    }
}

/// A branch target: the index of the instruction after the label, or
/// `None` for a label the listing does not define.
type Target = Option<usize>;

/// One decoded instruction.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `ret`, or `jmp` without a label operand.
    Stop,
    Nop,
    Jump(Target),
    Branch(Cond, Target),
    /// `j<cc>` without a label operand: counts an iteration, falls through.
    NotTaken,
    /// SSE data movement and integer `mov`.
    Move {
        bytes: u8,
        src: Opnd,
        dst: Opnd,
    },
    Fp {
        op: FpOp,
        src: Opnd,
        dst: Opnd,
    },
    Lea {
        addr: Addr,
        dst: Opnd,
    },
    /// Binary ALU operation; `write` is false for `cmp`/`test`.
    Alu {
        op: AluOp,
        width: Width,
        src: Opnd,
        dst: Opnd,
        write: bool,
    },
    Imul {
        width: Width,
        src: Opnd,
        dst: Opnd,
    },
    Shift {
        left: bool,
        width: Width,
        src: Opnd,
        dst: Opnd,
    },
    Neg {
        width: Width,
        dst: Opnd,
    },
}

impl Op {
    /// `labels` holds each label definition with the index of the
    /// instruction after it, in listing order.
    fn lower(inst: &Inst, labels: &[(&str, usize)]) -> Op {
        use Mnemonic::*;
        let operand = |i: usize| Opnd::lower(inst.operands.get(i));
        let (src, dst) = (operand(0), operand(1));
        // A later definition of a label wins. Listings hold a handful of
        // labels, so a scan beats building a map.
        let target = inst
            .target_label()
            .map(|l| labels.iter().rev().find(|&&(name, _)| name == l).map(|&(_, i)| i));
        let alu = |op, width, write| Op::Alu { op, width, src, dst, write };
        match inst.mnemonic {
            Ret => Op::Stop,
            Nop => Op::Nop,
            Jmp => target.map_or(Op::Stop, Op::Jump),
            Jcc(cond) => target.map_or(Op::NotTaken, |t| Op::Branch(cond, t)),
            Mov(w) => Op::Move { bytes: w.bytes(), src, dst },
            Lea(_) => match (inst.operands.first(), inst.operands.get(1)) {
                (Some(Operand::Mem(mem)), Some(_)) => Op::Lea { addr: Addr::lower(mem), dst },
                _ => Op::Nop,
            },
            Add(w) => alu(AluOp::Add, w, true),
            Sub(w) => alu(AluOp::Sub, w, true),
            Cmp(w) => alu(AluOp::Sub, w, false),
            And(w) => alu(AluOp::And, w, true),
            Test(w) => alu(AluOp::And, w, false),
            Or(w) => alu(AluOp::Or, w, true),
            Xor(w) => alu(AluOp::Xor, w, true),
            Inc(w) => {
                Op::Alu { op: AluOp::Add, width: w, src: Opnd::Imm(1), dst: src, write: true }
            }
            Dec(w) => {
                Op::Alu { op: AluOp::Sub, width: w, src: Opnd::Imm(1), dst: src, write: true }
            }
            Imul(w) => Op::Imul { width: w, src, dst },
            Shl(w) => Op::Shift { left: true, width: w, src, dst },
            Shr(w) => Op::Shift { left: false, width: w, src, dst },
            Neg(w) => Op::Neg { width: w, dst: src },
            sse => {
                if let Some(info) = sse.mem_move() {
                    Op::Move { bytes: info.bytes, src, dst }
                } else if let Some(op) = FpOp::of(sse) {
                    Op::Fp { op, src, dst }
                } else {
                    debug_assert!(false, "unhandled mnemonic {sse:?}");
                    Op::Nop
                }
            }
        }
    }
}

/// A program decoded for execution: instructions only, with branch
/// targets resolved to instruction indices and operands decoded into
/// register slots and address forms. Lowering reads the label table once;
/// running never looks a label up.
struct Lowered {
    ops: Vec<Op>,
}

impl Lowered {
    fn new(program: &Program) -> Self {
        let mut labels = Vec::new();
        let mut insts = Vec::new();
        for line in &program.lines {
            match line {
                AsmLine::Label(l) => labels.push((l.as_str(), insts.len())),
                AsmLine::Inst(i) => insts.push(i),
                AsmLine::Directive(_) | AsmLine::Comment(_) => {}
            }
        }
        Lowered { ops: insts.into_iter().map(|i| Op::lower(i, &labels)).collect() }
    }
}

/// The interpreter state.
pub struct Interpreter {
    /// GPR file, indexed by `GprName as usize` (encoding order).
    gprs: [u64; 16],
    /// XMM register file.
    xmm: [[u8; 16]; 16],
    /// ALU flags.
    pub flags: Flags,
    /// Simulated memory.
    pub mem: SimMemory,
    trace: Option<Vec<MemAccess>>,
    trace_cap: usize,
    trace_truncated: bool,
}

impl Default for Interpreter {
    fn default() -> Self {
        Self::new()
    }
}

impl Interpreter {
    /// Fresh zeroed state.
    pub fn new() -> Self {
        Interpreter {
            gprs: [0; 16],
            xmm: [[0; 16]; 16],
            flags: Flags::default(),
            mem: SimMemory::new(),
            trace: None,
            trace_cap: 0,
            trace_truncated: false,
        }
    }

    /// Enables address-trace recording, bounded at `cap` accesses: older
    /// accesses are kept, recording stops at the cap, and
    /// [`Self::trace_truncated`] reports that it did.
    pub fn record_trace(&mut self, cap: usize) {
        self.trace = Some(Vec::new());
        self.trace_cap = cap;
        self.trace_truncated = false;
    }

    /// The recorded trace, if any.
    pub fn trace(&self) -> &[MemAccess] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// True when an access was dropped because the trace was at its cap,
    /// so [`Self::trace`] holds only a prefix of the run's accesses.
    pub fn trace_truncated(&self) -> bool {
        self.trace_truncated
    }

    /// Reads a full 64-bit GPR.
    pub fn gpr(&self, name: GprName) -> u64 {
        self.gprs[name as usize]
    }

    /// Writes a full 64-bit GPR.
    pub fn set_gpr(&mut self, name: GprName, v: u64) {
        self.gprs[name as usize] = v;
    }

    /// Reads an XMM register.
    pub fn xmm_reg(&self, n: u8) -> [u8; 16] {
        self.xmm[n as usize]
    }

    /// Writes an XMM register.
    pub fn set_xmm(&mut self, n: u8, v: [u8; 16]) {
        self.xmm[n as usize] = v;
    }

    fn address(&self, a: &Addr) -> u64 {
        let mut addr = a.disp;
        if let Some(base) = a.base {
            addr = addr.wrapping_add(self.gprs[base as usize]);
        }
        if let Some((index, scale)) = a.index {
            addr = addr.wrapping_add(self.gprs[index as usize].wrapping_mul(scale));
        }
        addr
    }

    /// Accounts one memory access in the trace and the counters.
    fn account(&mut self, addr: u64, bytes: usize, store: bool, outcome: &mut ExecOutcome) {
        if let Some(trace) = &mut self.trace {
            if trace.len() < self.trace_cap {
                trace.push(MemAccess { address: addr, bytes: bytes as u8, store });
            } else {
                self.trace_truncated = true;
            }
        }
        if store {
            outcome.stores += 1;
            outcome.bytes_stored += bytes as u64;
        } else {
            outcome.loads += 1;
            outcome.bytes_loaded += bytes as u64;
        }
    }

    /// Runs a program's listing until fall-through, `ret`, or `max_steps`.
    pub fn run(&mut self, program: &Program, max_steps: u64) -> ExecOutcome {
        let program = Lowered::new(program);
        let mut outcome = ExecOutcome::new();
        self.mem.clear_lines();
        let mut pc = 0usize;
        while outcome.instructions < max_steps {
            let Some(op) = program.ops.get(pc) else {
                outcome.stop = StopReason::FellThrough;
                break;
            };
            outcome.instructions += 1;
            pc += 1;
            let target = match *op {
                Op::Stop => {
                    outcome.stop = StopReason::Returned;
                    break;
                }
                Op::Jump(target) => target,
                Op::Branch(cond, target) if self.flags.test(cond) => target,
                Op::Branch(..) | Op::NotTaken => {
                    outcome.loop_iterations += 1;
                    continue;
                }
                _ => {
                    self.execute(op, &mut outcome);
                    continue;
                }
            };
            outcome.loop_iterations += 1;
            match target {
                Some(t) => pc = t,
                None => {
                    outcome.stop = StopReason::UnknownLabel;
                    break;
                }
            }
        }
        if outcome.instructions >= max_steps {
            outcome.stop = StopReason::MaxSteps;
        }
        outcome.unique_lines = self.mem.touched_lines();
        outcome.eax = (self.gpr(GprName::Rax) & 0xFFFF_FFFF) as u32;
        outcome
    }

    fn load(&mut self, op: &Opnd, bytes: usize, outcome: &mut ExecOutcome) -> [u8; 16] {
        match *op {
            Opnd::Imm(v) => low(v),
            Opnd::Gpr(slot, width) => low(self.gprs[slot as usize] & mask(width)),
            Opnd::Xmm(n) => self.xmm[n as usize],
            Opnd::Mem(a) => {
                let addr = self.address(&a);
                self.account(addr, bytes, false, outcome);
                self.mem.load(addr, bytes)
            }
            Opnd::None => [0; 16],
        }
    }

    fn load_int(&mut self, op: &Opnd, bytes: usize, outcome: &mut ExecOutcome) -> u64 {
        u64::from_le_bytes(self.load(op, bytes, outcome)[..8].try_into().expect("8 bytes"))
    }

    fn store(&mut self, op: &Opnd, value: [u8; 16], bytes: usize, outcome: &mut ExecOutcome) {
        match *op {
            Opnd::Gpr(slot, width) => {
                let v = u64::from_le_bytes(value[..8].try_into().expect("8 bytes"));
                let old = &mut self.gprs[slot as usize];
                *old = match width {
                    Width::Q => v,
                    // 32-bit writes zero-extend on x86-64.
                    Width::L => v & 0xFFFF_FFFF,
                    Width::W | Width::B => (*old & !mask(width)) | (v & mask(width)),
                };
            }
            // Scalar SSE moves/ops merge into the low lanes.
            Opnd::Xmm(n) => self.xmm[n as usize][..bytes].copy_from_slice(&value[..bytes]),
            Opnd::Mem(a) => {
                let addr = self.address(&a);
                self.account(addr, bytes, true, outcome);
                self.mem.store(addr, &value[..bytes]);
            }
            Opnd::Imm(_) | Opnd::None => {}
        }
    }

    fn store_int(&mut self, op: &Opnd, v: u64, bytes: usize, outcome: &mut ExecOutcome) {
        self.store(op, low(v), bytes, outcome);
    }

    /// Executes one non-branch instruction: source read first, then the
    /// destination, which is written last.
    fn execute(&mut self, op: &Op, outcome: &mut ExecOutcome) {
        match *op {
            Op::Move { bytes, src, dst } => {
                let v = self.load(&src, bytes as usize, outcome);
                self.store(&dst, v, bytes as usize, outcome);
            }
            Op::Fp { op, src, dst } => {
                let bytes = op.bytes();
                // dst ⊙ src. Generated kernels always have a register
                // destination, but the parser also accepts a memory one: it
                // is read (counted as a load) and written back (counted as a
                // store), like an integer read-modify-write.
                let a = self.load(&src, bytes, outcome);
                let b = self.load(&dst, bytes, outcome);
                self.store(&dst, op.apply(b, a), bytes, outcome);
            }
            Op::Lea { addr, dst } => {
                let addr = self.address(&addr);
                self.store_int(&dst, addr, 8, outcome);
            }
            Op::Alu { op, width, src, dst, write } => {
                let bytes = width.bytes() as usize;
                let s = self.load_int(&src, bytes, outcome);
                let d = self.load_int(&dst, bytes, outcome);
                let r = alu(&mut self.flags, width, d, s, op);
                if write {
                    self.store_int(&dst, r, bytes, outcome);
                }
            }
            Op::Imul { width, src, dst } => {
                let bytes = width.bytes() as usize;
                let s = self.load_int(&src, bytes, outcome);
                let d = self.load_int(&dst, bytes, outcome);
                self.store_int(&dst, d.wrapping_mul(s), bytes, outcome);
            }
            Op::Shift { left, width, src, dst } => {
                let bytes = width.bytes() as usize;
                let amount = self.load_int(&src, bytes, outcome) & 0x3F;
                let v = self.load_int(&dst, bytes, outcome);
                let r = if left { v << amount } else { v >> amount };
                self.flags.set(r, width, false, false);
                self.store_int(&dst, r, bytes, outcome);
            }
            Op::Neg { width, dst } => {
                let bytes = width.bytes() as usize;
                let v = self.load_int(&dst, bytes, outcome);
                let r = alu(&mut self.flags, width, 0, v, AluOp::Sub);
                self.store_int(&dst, r, bytes, outcome);
            }
            Op::Nop => {}
            Op::Stop | Op::Jump(_) | Op::Branch(..) | Op::NotTaken => {
                unreachable!("branches are resolved by the run loop")
            }
        }
    }
}

/// `v` in the low eight bytes of an operand value.
fn low(v: u64) -> [u8; 16] {
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&v.to_le_bytes());
    out
}

/// The value bits of a register or memory width.
fn mask(width: Width) -> u64 {
    match width {
        Width::Q => u64::MAX,
        Width::L => 0xFFFF_FFFF,
        Width::W => 0xFFFF,
        Width::B => 0xFF,
    }
}

#[derive(Debug, Clone, Copy)]
enum AluOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
}

/// `a op b` at `width`, setting the flags.
fn alu(flags: &mut Flags, width: Width, a: u64, b: u64, op: AluOp) -> u64 {
    let mask = mask(width);
    let (a, b) = (a & mask, b & mask);
    let sign_bit = 1u64 << (u32::from(width.bytes()) * 8 - 1);
    let (r, carry, overflow) = match op {
        AluOp::Add => {
            let r = a.wrapping_add(b) & mask;
            (r, r < a, ((a ^ r) & (b ^ r) & sign_bit) != 0)
        }
        AluOp::Sub => {
            let r = a.wrapping_sub(b) & mask;
            (r, b > a, ((a ^ b) & (a ^ r) & sign_bit) != 0)
        }
        AluOp::And => (a & b, false, false),
        AluOp::Or => (a | b, false, false),
        AluOp::Xor => (a ^ b, false, false),
    };
    flags.set(r, width, carry, overflow);
    r
}
/// SSE floating-point operation descriptor.
#[derive(Debug, Clone, Copy)]
struct FpOp {
    double: bool,
    packed: bool,
    kind: FpKind,
}

#[derive(Debug, Clone, Copy)]
enum FpKind {
    Add,
    Sub,
    Mul,
    Div,
    Xor,
    Max,
    Min,
    Sqrt,
}

impl FpOp {
    fn of(m: Mnemonic) -> Option<FpOp> {
        use Mnemonic::*;
        let (double, packed, kind) = match m {
            Addss => (false, false, FpKind::Add),
            Addsd => (true, false, FpKind::Add),
            Addps => (false, true, FpKind::Add),
            Addpd => (true, true, FpKind::Add),
            Subss => (false, false, FpKind::Sub),
            Subsd => (true, false, FpKind::Sub),
            Subps => (false, true, FpKind::Sub),
            Subpd => (true, true, FpKind::Sub),
            Mulss => (false, false, FpKind::Mul),
            Mulsd => (true, false, FpKind::Mul),
            Mulps => (false, true, FpKind::Mul),
            Mulpd => (true, true, FpKind::Mul),
            Divss => (false, false, FpKind::Div),
            Divsd => (true, false, FpKind::Div),
            Divps => (false, true, FpKind::Div),
            Divpd => (true, true, FpKind::Div),
            Xorps => (false, true, FpKind::Xor),
            Xorpd => (true, true, FpKind::Xor),
            Maxsd => (true, false, FpKind::Max),
            Minsd => (true, false, FpKind::Min),
            Sqrtsd => (true, false, FpKind::Sqrt),
            _ => return None,
        };
        Some(FpOp { double, packed, kind })
    }

    fn bytes(&self) -> usize {
        if self.packed {
            16
        } else if self.double {
            8
        } else {
            4
        }
    }

    /// dst ⊙ src, lane-wise.
    fn apply(&self, dst: [u8; 16], src: [u8; 16]) -> [u8; 16] {
        let mut out = dst;
        if matches!(self.kind, FpKind::Xor) {
            for i in 0..16 {
                out[i] = dst[i] ^ src[i];
            }
            return out;
        }
        let lanes = if self.packed { 16 / if self.double { 8 } else { 4 } } else { 1 };
        for lane in 0..lanes {
            if self.double {
                let off = lane * 8;
                let a = f64::from_le_bytes(dst[off..off + 8].try_into().expect("8 bytes"));
                let b = f64::from_le_bytes(src[off..off + 8].try_into().expect("8 bytes"));
                let r = self.fold(a, b);
                out[off..off + 8].copy_from_slice(&r.to_le_bytes());
            } else {
                let off = lane * 4;
                let a = f32::from_le_bytes(dst[off..off + 4].try_into().expect("4 bytes"));
                let b = f32::from_le_bytes(src[off..off + 4].try_into().expect("4 bytes"));
                let r = self.fold(f64::from(a), f64::from(b)) as f32;
                out[off..off + 4].copy_from_slice(&r.to_le_bytes());
            }
        }
        out
    }

    fn fold(&self, a: f64, b: f64) -> f64 {
        match self.kind {
            FpKind::Add => a + b,
            FpKind::Sub => a - b,
            FpKind::Mul => a * b,
            FpKind::Div => a / b,
            FpKind::Max => a.max(b),
            FpKind::Min => a.min(b),
            FpKind::Sqrt => b.sqrt(),
            FpKind::Xor => unreachable!("handled lane-free"),
        }
    }
}

/// The interpreter as it was before lowering and the line-masked page
/// map: a byte-at-a-time page map, a hash set of touched lines, a label
/// table per run and operands matched per step. Kept as the reference the
/// new interpreter is held to; it shares only the result types,
/// `Flags::test` and the SSE arithmetic of `FpOp`, which the rewrite left
/// as they were.
#[cfg(test)]
mod oracle {
    use super::{ExecOutcome, Flags, FpOp, MemAccess, StopReason};
    use mc_asm::format::AsmLine;
    use mc_asm::inst::{Inst, MemRef, Mnemonic, Operand, Width};
    use mc_asm::reg::{Gpr, GprName, Reg};
    use mc_kernel::Program;
    use std::collections::{HashMap, HashSet};

    /// Sparse byte-addressable memory (4 KiB pages, zero-initialized).
    #[derive(Debug, Default)]
    pub struct SimMemory {
        pages: HashMap<u64, Box<[u8; 4096]>>,
    }

    impl SimMemory {
        /// Reads `len ≤ 16` bytes at `addr`.
        pub fn read(&self, addr: u64, len: usize) -> [u8; 16] {
            let mut out = [0u8; 16];
            for (i, byte) in out.iter_mut().enumerate().take(len) {
                let a = addr + i as u64;
                *byte = self.pages.get(&(a / 4096)).map(|p| p[(a % 4096) as usize]).unwrap_or(0);
            }
            out
        }

        /// Writes `data` at `addr`.
        pub fn write(&mut self, addr: u64, data: &[u8]) {
            for (i, &byte) in data.iter().enumerate() {
                let a = addr + i as u64;
                let page = self.pages.entry(a / 4096).or_insert_with(|| Box::new([0u8; 4096]));
                page[(a % 4096) as usize] = byte;
            }
        }
    }

    /// The reference interpreter state.
    pub struct Interpreter {
        gprs: [u64; 16],
        xmm: [[u8; 16]; 16],
        pub flags: Flags,
        pub mem: SimMemory,
        touched_lines: HashSet<u64>,
        trace: Option<Vec<MemAccess>>,
        trace_cap: usize,
    }

    enum AluOp {
        Add,
        Sub,
        And,
        Or,
        Xor,
    }

    enum StepResult {
        Next,
        Jump(String),
        BranchNotTaken,
        Stop,
    }

    impl Interpreter {
        pub fn new() -> Self {
            Interpreter {
                gprs: [0; 16],
                xmm: [[0; 16]; 16],
                flags: Flags::default(),
                mem: SimMemory::default(),
                touched_lines: HashSet::new(),
                trace: None,
                trace_cap: 0,
            }
        }

        pub fn record_trace(&mut self, cap: usize) {
            self.trace = Some(Vec::new());
            self.trace_cap = cap;
        }

        pub fn trace(&self) -> &[MemAccess] {
            self.trace.as_deref().unwrap_or(&[])
        }

        fn idx(name: GprName) -> usize {
            GprName::ALL.iter().position(|&g| g == name).expect("all GPRs are in ALL")
        }

        pub fn gpr(&self, name: GprName) -> u64 {
            self.gprs[Self::idx(name)]
        }

        pub fn set_gpr(&mut self, name: GprName, v: u64) {
            self.gprs[Self::idx(name)] = v;
        }

        pub fn xmm_reg(&self, n: u8) -> [u8; 16] {
            self.xmm[n as usize]
        }

        pub fn set_xmm(&mut self, n: u8, v: [u8; 16]) {
            self.xmm[n as usize] = v;
        }

        fn read_gpr_view(&self, g: Gpr) -> u64 {
            let v = self.gpr(g.name);
            match g.width {
                Width::Q => v,
                Width::L => v & 0xFFFF_FFFF,
                Width::W => v & 0xFFFF,
                Width::B => v & 0xFF,
            }
        }

        fn write_gpr_view(&mut self, g: Gpr, v: u64) {
            let old = self.gpr(g.name);
            let merged = match g.width {
                Width::Q => v,
                Width::L => v & 0xFFFF_FFFF,
                Width::W => (old & !0xFFFF) | (v & 0xFFFF),
                Width::B => (old & !0xFF) | (v & 0xFF),
            };
            self.set_gpr(g.name, merged);
        }

        fn effective_address(&self, mem: &MemRef) -> u64 {
            let mut addr = mem.disp as u64;
            if let Some(Reg::Gpr(g)) = mem.base {
                addr = addr.wrapping_add(self.gpr(g.name));
            }
            if let Some((Reg::Gpr(g), scale)) = mem.index {
                addr = addr.wrapping_add(self.gpr(g.name).wrapping_mul(u64::from(scale)));
            }
            addr
        }

        fn touch(&mut self, addr: u64, len: u64) {
            let first = addr / 64;
            let last = (addr + len.saturating_sub(1)) / 64;
            for line in first..=last {
                self.touched_lines.insert(line);
            }
        }

        fn record(&mut self, address: u64, bytes: u8, store: bool) {
            if let Some(trace) = &mut self.trace {
                if trace.len() < self.trace_cap {
                    trace.push(MemAccess { address, bytes, store });
                }
            }
        }

        pub fn run(&mut self, program: &Program, max_steps: u64) -> ExecOutcome {
            let lines = &program.lines;
            let mut labels: HashMap<&str, usize> = HashMap::new();
            for (i, line) in lines.iter().enumerate() {
                if let AsmLine::Label(l) = line {
                    labels.insert(l.as_str(), i);
                }
            }
            let mut outcome = ExecOutcome {
                instructions: 0,
                loop_iterations: 0,
                loads: 0,
                stores: 0,
                bytes_loaded: 0,
                bytes_stored: 0,
                unique_lines: 0,
                eax: 0,
                stop: StopReason::FellThrough,
            };
            self.touched_lines.clear();
            let mut pc = 0usize;
            while outcome.instructions < max_steps {
                let Some(line) = lines.get(pc) else {
                    outcome.stop = StopReason::FellThrough;
                    break;
                };
                let inst = match line {
                    AsmLine::Inst(i) => i,
                    _ => {
                        pc += 1;
                        continue;
                    }
                };
                outcome.instructions += 1;
                match self.step(inst, &mut outcome) {
                    StepResult::Next => pc += 1,
                    StepResult::Jump(label) => {
                        outcome.loop_iterations += 1;
                        match labels.get(label.as_str()) {
                            Some(&target) => pc = target,
                            None => {
                                outcome.stop = StopReason::UnknownLabel;
                                break;
                            }
                        }
                    }
                    StepResult::BranchNotTaken => {
                        outcome.loop_iterations += 1;
                        pc += 1;
                    }
                    StepResult::Stop => {
                        outcome.stop = StopReason::Returned;
                        break;
                    }
                }
            }
            if outcome.instructions >= max_steps {
                outcome.stop = StopReason::MaxSteps;
            }
            outcome.unique_lines = self.touched_lines.len() as u64;
            outcome.eax = (self.gpr(GprName::Rax) & 0xFFFF_FFFF) as u32;
            outcome
        }

        fn load_value(
            &mut self,
            op: &Operand,
            bytes: usize,
            outcome: &mut ExecOutcome,
        ) -> [u8; 16] {
            match op {
                Operand::Imm(v) => {
                    let mut out = [0u8; 16];
                    out[..8].copy_from_slice(&(*v as u64).to_le_bytes());
                    out
                }
                Operand::Reg(Reg::Gpr(g)) => {
                    let mut out = [0u8; 16];
                    out[..8].copy_from_slice(&self.read_gpr_view(*g).to_le_bytes());
                    out
                }
                Operand::Reg(Reg::Xmm(n)) => self.xmm[*n as usize],
                Operand::Mem(m) => {
                    let addr = self.effective_address(m);
                    self.touch(addr, bytes as u64);
                    self.record(addr, bytes as u8, false);
                    outcome.loads += 1;
                    outcome.bytes_loaded += bytes as u64;
                    self.mem.read(addr, bytes)
                }
                Operand::Label(_) => [0u8; 16],
            }
        }

        fn store_value(
            &mut self,
            op: &Operand,
            value: [u8; 16],
            bytes: usize,
            outcome: &mut ExecOutcome,
        ) {
            match op {
                Operand::Reg(Reg::Gpr(g)) => {
                    let v = u64::from_le_bytes(value[..8].try_into().expect("8 bytes"));
                    self.write_gpr_view(*g, v);
                }
                Operand::Reg(Reg::Xmm(n)) => {
                    let dst = &mut self.xmm[*n as usize];
                    dst[..bytes.min(16)].copy_from_slice(&value[..bytes.min(16)]);
                }
                Operand::Mem(m) => {
                    let addr = self.effective_address(m);
                    self.touch(addr, bytes as u64);
                    self.record(addr, bytes as u8, true);
                    outcome.stores += 1;
                    outcome.bytes_stored += bytes as u64;
                    self.mem.write(addr, &value[..bytes]);
                }
                Operand::Imm(_) | Operand::Label(_) => {}
            }
        }

        fn set_alu_flags(&mut self, result: u64, width: Width, carry: bool, overflow: bool) {
            let bits = u32::from(width.bytes()) * 8;
            let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
            let r = result & mask;
            self.flags.zf = r == 0;
            self.flags.sf = (r >> (bits - 1)) & 1 == 1;
            self.flags.cf = carry;
            self.flags.of = overflow;
        }

        fn alu(&mut self, width: Width, a: u64, b: u64, op: AluOp) -> u64 {
            let bits = u32::from(width.bytes()) * 8;
            let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
            let (a, b) = (a & mask, b & mask);
            let sign_bit = 1u64 << (bits - 1);
            match op {
                AluOp::Add => {
                    let r = a.wrapping_add(b) & mask;
                    let carry = r < a;
                    let overflow = ((a ^ r) & (b ^ r) & sign_bit) != 0;
                    self.set_alu_flags(r, width, carry, overflow);
                    r
                }
                AluOp::Sub => {
                    let r = a.wrapping_sub(b) & mask;
                    let carry = b > a;
                    let overflow = ((a ^ b) & (a ^ r) & sign_bit) != 0;
                    self.set_alu_flags(r, width, carry, overflow);
                    r
                }
                AluOp::And => {
                    let r = a & b;
                    self.set_alu_flags(r, width, false, false);
                    r
                }
                AluOp::Or => {
                    let r = a | b;
                    self.set_alu_flags(r, width, false, false);
                    r
                }
                AluOp::Xor => {
                    let r = a ^ b;
                    self.set_alu_flags(r, width, false, false);
                    r
                }
            }
        }

        fn int(value: [u8; 16]) -> u64 {
            u64::from_le_bytes(value[..8].try_into().expect("8 bytes"))
        }

        fn step(&mut self, inst: &Inst, outcome: &mut ExecOutcome) -> StepResult {
            use Mnemonic::*;
            let m = inst.mnemonic;
            match m {
                Ret => return StepResult::Stop,
                Nop => return StepResult::Next,
                Jmp => {
                    if let Some(l) = inst.target_label() {
                        return StepResult::Jump(l.to_owned());
                    }
                    return StepResult::Stop;
                }
                Jcc(cond) => {
                    if self.flags.test(cond) {
                        if let Some(l) = inst.target_label() {
                            return StepResult::Jump(l.to_owned());
                        }
                    }
                    return StepResult::BranchNotTaken;
                }
                _ => {}
            }

            if let Some(info) = m.mem_move() {
                let bytes = info.bytes as usize;
                let v = self.load_value(&inst.operands[0], bytes, outcome);
                self.store_value(&inst.operands[1], v, bytes, outcome);
                return StepResult::Next;
            }

            if let Some(op) = FpOp::of(m) {
                let bytes = op.bytes();
                let a = self.load_value(&inst.operands[0], bytes, outcome);
                let dstop = inst.operands[1].clone();
                let b = self.load_value(&dstop, bytes, outcome);
                let r = op.apply(b, a);
                self.store_value(&dstop, r, bytes, outcome);
                return StepResult::Next;
            }

            match m {
                Mov(w) => {
                    let v = self.load_value(&inst.operands[0], w.bytes() as usize, outcome);
                    self.store_value(&inst.operands[1], v, w.bytes() as usize, outcome);
                }
                Lea(_) => {
                    if let (Operand::Mem(mem), Some(dst)) =
                        (&inst.operands[0], inst.operands.get(1))
                    {
                        let addr = self.effective_address(mem);
                        let mut v = [0u8; 16];
                        v[..8].copy_from_slice(&addr.to_le_bytes());
                        self.store_value(dst, v, 8, outcome);
                    }
                }
                Add(w) | Sub(w) | And(w) | Or(w) | Xor(w) | Cmp(w) | Test(w) => {
                    let bytes = w.bytes() as usize;
                    let src = Self::int(self.load_value(&inst.operands[0], bytes, outcome));
                    let dst_op = inst.operands[1].clone();
                    let dst = Self::int(self.load_value(&dst_op, bytes, outcome));
                    let alu_op = match m {
                        Add(_) => AluOp::Add,
                        Sub(_) | Cmp(_) => AluOp::Sub,
                        And(_) | Test(_) => AluOp::And,
                        Or(_) => AluOp::Or,
                        Xor(_) => AluOp::Xor,
                        _ => unreachable!(),
                    };
                    let r = self.alu(w, dst, src, alu_op);
                    if !matches!(m, Cmp(_) | Test(_)) {
                        let mut v = [0u8; 16];
                        v[..8].copy_from_slice(&r.to_le_bytes());
                        self.store_value(&dst_op, v, bytes, outcome);
                    }
                }
                Imul(w) => {
                    let bytes = w.bytes() as usize;
                    let src = Self::int(self.load_value(&inst.operands[0], bytes, outcome));
                    let dst_op = inst.operands[1].clone();
                    let dst = Self::int(self.load_value(&dst_op, bytes, outcome));
                    let r = dst.wrapping_mul(src);
                    let mut v = [0u8; 16];
                    v[..8].copy_from_slice(&r.to_le_bytes());
                    self.store_value(&dst_op, v, bytes, outcome);
                }
                Inc(w) | Dec(w) => {
                    let bytes = w.bytes() as usize;
                    let op = inst.operands[0].clone();
                    let v = Self::int(self.load_value(&op, bytes, outcome));
                    let alu_op = if matches!(m, Inc(_)) { AluOp::Add } else { AluOp::Sub };
                    let r = self.alu(w, v, 1, alu_op);
                    let mut out = [0u8; 16];
                    out[..8].copy_from_slice(&r.to_le_bytes());
                    self.store_value(&op, out, bytes, outcome);
                }
                Shl(w) | Shr(w) => {
                    let bytes = w.bytes() as usize;
                    let amount =
                        Self::int(self.load_value(&inst.operands[0], bytes, outcome)) & 0x3F;
                    let dst_op = inst.operands[1].clone();
                    let v = Self::int(self.load_value(&dst_op, bytes, outcome));
                    let r = if matches!(m, Shl(_)) { v << amount } else { v >> amount };
                    self.set_alu_flags(r, w, false, false);
                    let mut out = [0u8; 16];
                    out[..8].copy_from_slice(&r.to_le_bytes());
                    self.store_value(&dst_op, out, bytes, outcome);
                }
                Neg(w) => {
                    let bytes = w.bytes() as usize;
                    let op = inst.operands[0].clone();
                    let v = Self::int(self.load_value(&op, bytes, outcome));
                    let r = self.alu(w, 0, v, AluOp::Sub);
                    let mut out = [0u8; 16];
                    out[..8].copy_from_slice(&r.to_le_bytes());
                    self.store_value(&op, out, bytes, outcome);
                }
                other => {
                    debug_assert!(false, "unhandled mnemonic {other:?}");
                }
            }
            StepResult::Next
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_creator::MicroCreator;
    use mc_kernel::builder::{
        arithmetic_hiding, figure6, load_stream, matmul_inner, multi_array_traversal, stencil_1d,
        strided_stream,
    };
    use mc_kernel::UnrollRange;
    use mc_report::prop::{check, coin, pick};
    use mc_report::rng::SplitMix64;
    use std::collections::HashSet;

    const BASE: u64 = 0x10_0000;

    fn program(unroll: u32, swap: bool) -> Program {
        let mut desc = figure6();
        desc.unrolling = UnrollRange::fixed(unroll);
        desc.instructions[0].swap_after_unroll = swap;
        MicroCreator::new().generate(&desc).unwrap().programs.remove(0)
    }

    /// Sets up the MicroLauncher calling convention: n in %rdi (minus the
    /// first iteration, as the emitted prologue does), array in %rsi.
    fn launch(p: &Program, n: u64) -> (Interpreter, ExecOutcome) {
        let mut interp = Interpreter::new();
        interp.set_gpr(GprName::Rdi, n - p.elements_per_iteration);
        interp.set_gpr(GprName::Rsi, BASE);
        let outcome = interp.run(p, 1_000_000);
        (interp, outcome)
    }

    #[test]
    fn figure8_loads_run_the_right_iteration_count() {
        let p = program(3, false); // 3 movaps loads, 12 elements/iter
        let n = 1200;
        let (_, o) = launch(&p, n);
        assert_eq!(o.stop, StopReason::FellThrough);
        assert_eq!(o.loop_iterations, n / 12);
        assert_eq!(o.loads, 3 * n / 12);
        assert_eq!(o.stores, 0);
        assert_eq!(o.bytes_loaded, 16 * 3 * n / 12);
    }

    #[test]
    fn memory_footprint_matches_trip_count() {
        let p = program(4, false);
        let n = 1600; // 1600 floats = 6400 bytes = 100 lines
        let (_, o) = launch(&p, n);
        assert_eq!(o.unique_lines, 6400 / 64);
    }

    #[test]
    fn store_variant_writes_memory() {
        let mut desc = figure6();
        desc.unrolling = UnrollRange::fixed(2);
        let progs = MicroCreator::new().generate(&desc).unwrap().programs;
        let ss = progs.iter().find(|p| p.meta.store_count() == 2).expect("SS variant exists");
        let mut interp = Interpreter::new();
        interp.set_gpr(GprName::Rdi, 80 - ss.elements_per_iteration);
        interp.set_gpr(GprName::Rsi, BASE);
        interp.set_xmm(0, [0xAB; 16]);
        interp.set_xmm(1, [0xCD; 16]);
        let o = interp.run(ss, 100_000);
        assert_eq!(o.stores, 20, "80 floats / 8 per iter × 2 stores");
        assert_eq!(o.loads, 0);
        assert_eq!(interp.mem.read(BASE, 16)[0], 0xAB);
        assert_eq!(interp.mem.read(BASE + 16, 16)[0], 0xCD);
    }

    #[test]
    fn eax_convention_returns_iterations() {
        // Add the Figure 9 counter to the kernel and check %eax.
        let mut desc = figure6();
        desc.unrolling = UnrollRange::fixed(2);
        desc.instructions[0].swap_after_unroll = false;
        desc.inductions.push(mc_kernel::InductionDesc {
            register: mc_kernel::RegisterRef::Physical(Reg::gpr32(GprName::Rax)),
            increment_choices: vec![1],
            offset_step: 0,
            linked: None,
            last: false,
            not_affected_unroll: true,
        });
        let p = MicroCreator::new().generate(&desc).unwrap().programs.remove(0);
        let (_, o) = launch(&p, 800);
        assert_eq!(o.loop_iterations, 100);
        assert_eq!(o.eax, 100, "%eax must hold the executed iteration count (§4.4)");
    }

    #[test]
    fn all_510_variants_terminate_and_touch_consistent_footprints() {
        let result = MicroCreator::new().generate(&figure6()).unwrap();
        assert_eq!(result.programs.len(), 510);
        for p in &result.programs {
            let n = p.elements_per_iteration * 16;
            let mut interp = Interpreter::new();
            interp.set_gpr(GprName::Rdi, n - p.elements_per_iteration);
            interp.set_gpr(GprName::Rsi, BASE);
            let o = interp.run(p, 100_000);
            assert_eq!(o.stop, StopReason::FellThrough, "{} did not exit", p.name);
            assert_eq!(o.loop_iterations, 16, "{}", p.name);
            assert_eq!(
                o.loads + o.stores,
                16 * p.meta.unroll as u64,
                "{} wrong memory op count",
                p.name
            );
            // Every variant of one unroll factor touches the same lines.
            assert_eq!(o.unique_lines, n * 4 / 64, "{}", p.name);
        }
    }

    #[test]
    fn movss_stream_reads_values() {
        let desc = load_stream(mc_asm::Mnemonic::Movss, 1, 1);
        let p = MicroCreator::new().generate(&desc).unwrap().programs.remove(0);
        let mut interp = Interpreter::new();
        interp.mem.write_f32s(BASE, &[1.5, 2.5, 3.5, 4.5]);
        interp.set_gpr(GprName::Rdi, 4 - p.elements_per_iteration);
        interp.set_gpr(GprName::Rsi, BASE);
        let o = interp.run(&p, 1000);
        assert_eq!(o.loads, 4);
        // Last loaded value sits in the rotated xmm register (copy 0 → xmm0).
        let low = f32::from_le_bytes(interp.xmm_reg(0)[..4].try_into().unwrap());
        assert_eq!(low, 4.5);
    }

    #[test]
    fn fp_arithmetic_computes() {
        let text = "movsd (%rsi), %xmm0\naddsd %xmm0, %xmm1\nmulsd %xmm0, %xmm1\n";
        let p = Program::from_asm_text("fp", text).unwrap();
        let mut interp = Interpreter::new();
        interp.mem.write_f64s(BASE, &[3.0]);
        interp.set_gpr(GprName::Rsi, BASE);
        let o = interp.run(&p, 100);
        assert_eq!(o.stop, StopReason::FellThrough);
        // xmm1 = (0 + 3) × 3 = 9
        let v = f64::from_le_bytes(interp.xmm_reg(1)[..8].try_into().unwrap());
        assert_eq!(v, 9.0);
    }

    #[test]
    fn packed_arithmetic_is_lane_wise() {
        let text = "movaps (%rsi), %xmm0\naddps %xmm0, %xmm1\n";
        let p = Program::from_asm_text("packed", text).unwrap();
        let mut interp = Interpreter::new();
        interp.mem.write_f32s(BASE, &[1.0, 2.0, 3.0, 4.0]);
        interp.set_gpr(GprName::Rsi, BASE);
        interp.run(&p, 100);
        let reg = interp.xmm_reg(1);
        let lanes: Vec<f32> =
            (0..4).map(|i| f32::from_le_bytes(reg[i * 4..i * 4 + 4].try_into().unwrap())).collect();
        assert_eq!(lanes, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn sse_arithmetic_into_memory_is_a_load_then_a_store() {
        // The destination is read (one load) and written back (one store),
        // like an integer read-modify-write; nothing is discounted.
        let text = "addss %xmm0, (%rsi)\n";
        let p = Program::from_asm_text("rmw", text).unwrap();
        let mut interp = Interpreter::new();
        interp.mem.write_f32s(BASE, &[1.5]);
        interp.set_gpr(GprName::Rsi, BASE);
        interp.set_xmm(0, low(u64::from(2.0f32.to_bits())));
        interp.record_trace(8);
        let o = interp.run(&p, 10);
        assert_eq!((o.loads, o.stores, o.bytes_loaded, o.bytes_stored), (1, 1, 4, 4));
        assert_eq!(interp.mem.read_f32(BASE), 3.5);
        let access = |store| MemAccess { address: BASE, bytes: 4, store };
        assert_eq!(interp.trace(), [access(false), access(true)]);
        let xmm0 = [(0, low(u64::from(2.0f32.to_bits())))];
        let seed = [(BASE, 1.5f32.to_le_bytes().to_vec())];
        assert_matches_oracle(&p, &[(GprName::Rsi, BASE)], &xmm0, &seed, 10);
    }

    #[test]
    fn flags_and_conditions() {
        let mut interp = Interpreter::new();
        let p = Program::from_asm_text("flags", "cmpq $5, %rdi\n").unwrap();
        interp.set_gpr(GprName::Rdi, 5);
        interp.run(&p, 10);
        assert!(interp.flags.zf);
        assert!(interp.flags.test(Cond::E));
        assert!(interp.flags.test(Cond::Ge));
        assert!(!interp.flags.test(Cond::G));

        interp.set_gpr(GprName::Rdi, 3);
        interp.run(&p, 10);
        assert!(interp.flags.test(Cond::L), "3 < 5");
        assert!(!interp.flags.test(Cond::Ge));
    }

    #[test]
    fn width_views_zero_extend_32_and_merge_8() {
        let mut interp = Interpreter::new();
        interp.set_gpr(GprName::Rax, 0xFFFF_FFFF_FFFF_FFFF);
        let p = Program::from_asm_text("w", "movl $1, %eax\n").unwrap();
        interp.run(&p, 10);
        assert_eq!(interp.gpr(GprName::Rax), 1, "32-bit write zero-extends");
        interp.set_gpr(GprName::Rax, 0x1234_5678_9ABC_DEF0);
        let p = Program::from_asm_text("b", "movb $5, %al\n").unwrap();
        interp.run(&p, 10);
        assert_eq!(interp.gpr(GprName::Rax), 0x1234_5678_9ABC_DE05);
    }

    #[test]
    fn infinite_loop_hits_max_steps() {
        let p = Program::from_asm_text("inf", ".L0:\njmp .L0\n").unwrap();
        let mut interp = Interpreter::new();
        let o = interp.run(&p, 1000);
        assert_eq!(o.stop, StopReason::MaxSteps);
    }

    #[test]
    fn unknown_label_is_reported() {
        let p = Program::from_asm_text("bad", "jmp .Lmissing\n").unwrap();
        let mut interp = Interpreter::new();
        let o = interp.run(&p, 1000);
        assert_eq!(o.stop, StopReason::UnknownLabel);
    }

    #[test]
    fn ret_stops_execution() {
        let p = Program::from_asm_text("r", "movq $7, %rax\nret\nmovq $9, %rax\n").unwrap();
        let mut interp = Interpreter::new();
        let o = interp.run(&p, 1000);
        assert_eq!(o.stop, StopReason::Returned);
        assert_eq!(o.eax, 7);
    }

    #[test]
    fn lea_computes_addresses_without_memory_traffic() {
        let p = Program::from_asm_text("lea", "leaq 8(%rsi,%rdi,4), %rax\n").unwrap();
        let mut interp = Interpreter::new();
        interp.set_gpr(GprName::Rsi, 100);
        interp.set_gpr(GprName::Rdi, 3);
        let o = interp.run(&p, 10);
        assert_eq!(interp.gpr(GprName::Rax), 120);
        assert_eq!(o.loads, 0);
    }

    #[test]
    fn memory_roundtrip_and_zero_default() {
        let mut mem = SimMemory::new();
        assert_eq!(mem.read_u64(0xDEAD_BEEF), 0);
        mem.write_u64(0xDEAD_BEEF, 0x0123_4567_89AB_CDEF);
        assert_eq!(mem.read_u64(0xDEAD_BEEF), 0x0123_4567_89AB_CDEF);
        // Page-boundary-straddling write.
        mem.write_u64(4092, u64::MAX);
        assert_eq!(mem.read_u64(4092), u64::MAX);
    }

    #[test]
    fn page_edge_accesses_split_across_pages() {
        let mut mem = SimMemory::new();
        mem.write_u64(BASE - 4, 0x1122_3344_5566_7788);
        assert_eq!(mem.read(BASE - 4, 4)[..4], [0x88, 0x77, 0x66, 0x55]);
        assert_eq!(mem.read(BASE, 4)[..4], [0x44, 0x33, 0x22, 0x11]);
        assert_eq!(mem.read_u64(BASE - 4), 0x1122_3344_5566_7788);
        // A load across the edge touches the last line of one page and the
        // first of the next; touching them again adds nothing.
        let mut interp = Interpreter::new();
        interp.mem = mem;
        interp.set_gpr(GprName::Rsi, BASE);
        let mut text = "movsd -4(%rsi), %xmm0\n".to_owned();
        let o = interp.run(&Program::from_asm_text("edge", &text).unwrap(), 10);
        assert_eq!((o.loads, o.unique_lines), (1, 2));
        assert_eq!(interp.xmm_reg(0)[..8], 0x1122_3344_5566_7788u64.to_le_bytes());
        text += "movss -8(%rsi), %xmm1\nmovss (%rsi), %xmm2\n";
        let o = interp.run(&Program::from_asm_text("edge", &text).unwrap(), 10);
        assert_eq!((o.loads, o.unique_lines), (3, 2));
        // Touched lines are per run: an empty listing touches none.
        let empty = Program::from_asm_text("empty", "nop\n").unwrap();
        assert_eq!(interp.run(&empty, 10).unique_lines, 0);
    }

    #[test]
    fn reads_of_unwritten_pages_allocate_no_bytes() {
        let p = Program::from_asm_text("load", "movaps (%rsi), %xmm0\n").unwrap();
        let mut interp = Interpreter::new();
        interp.set_gpr(GprName::Rsi, BASE);
        assert_eq!(interp.run(&p, 10).unique_lines, 1);
        let page = &interp.mem.pages[&(BASE / PAGE)];
        assert!(page.bytes.is_none(), "a load reads zeros without backing them");
        assert_eq!(page.lines, 1);
    }

    #[test]
    fn a_line_two_arrays_share_counts_once() {
        // Array A ends and array B begins inside line 65 (bytes 4160..4224).
        let (a, b) = (4096u64, 4166u64);
        let text = "movss 66(%rsi), %xmm0\nmovss (%rdx), %xmm1\nmovsd 68(%rsi), %xmm2\n";
        let p = Program::from_asm_text("edge", text).unwrap();
        let regs = [(GprName::Rsi, a), (GprName::Rdx, b)];
        let seed = [(a + 60, (1..=16).collect::<Vec<u8>>())];
        let (o, _) = assert_matches_oracle(&p, &regs, &[], &seed, 10);
        assert_eq!(o.unique_lines, 1);
        let mut interp = Interpreter::new();
        interp.mem.write(a + 60, &seed[0].1);
        interp.set_gpr(GprName::Rsi, a);
        interp.run(&p, 10);
        // The movsd reads bytes 4164..4172, the end of A and the start of B.
        assert_eq!(interp.xmm_reg(2)[..8], [9, 10, 11, 12, 13, 14, 15, 16]);
    }

    #[test]
    fn truncated_trace_is_reported() {
        let p = Program::from_asm_text("four", "movss (%rsi), %xmm0\nmovss %xmm0, 4(%rsi)\nmovss 8(%rsi), %xmm1\nmovss 12(%rsi), %xmm2\n").unwrap();
        let mut interp = Interpreter::new();
        interp.run(&p, 10);
        assert!(!interp.trace_truncated(), "no trace, nothing dropped");
        interp.record_trace(4);
        interp.run(&p, 10);
        assert_eq!((interp.trace().len(), interp.trace_truncated()), (4, false));
        interp.record_trace(3);
        interp.run(&p, 10);
        assert_eq!((interp.trace().len(), interp.trace_truncated()), (3, true));
        assert_eq!(interp.trace()[1], MemAccess { address: 4, bytes: 4, store: true });
    }

    /// Runs `p` on the new interpreter and on the reference one, both from
    /// the same registers and memory, asserts they agree on everything
    /// observable, and returns the agreed outcome and trace. Each then
    /// runs `p` again from where it stopped, so lines touched by the first
    /// run must not leak into the second run's footprint.
    fn assert_matches_oracle(
        p: &Program,
        regs: &[(GprName, u64)],
        xmms: &[(u8, [u8; 16])],
        seed: &[(u64, Vec<u8>)],
        max_steps: u64,
    ) -> (ExecOutcome, Vec<MemAccess>) {
        let mut reference = oracle::Interpreter::new();
        let mut dense = Interpreter::new();
        for (addr, bytes) in seed {
            reference.mem.write(*addr, bytes);
            dense.mem.write(*addr, bytes);
        }
        for &(reg, v) in regs {
            reference.set_gpr(reg, v);
            dense.set_gpr(reg, v);
        }
        for &(n, v) in xmms {
            reference.set_xmm(n, v);
            dense.set_xmm(n, v);
        }
        let mut first = None;
        for run in ["first", "second"] {
            reference.record_trace(1 << 20);
            dense.record_trace(1 << 20);
            let want = reference.run(p, max_steps);
            let got = dense.run(p, max_steps);
            let name = format!("{} ({run} run)", p.name);
            assert_eq!(got, want, "{name} outcome");
            for g in GprName::ALL {
                assert_eq!(dense.gpr(g), reference.gpr(g), "{name} {g:?}");
            }
            for n in 0..16 {
                assert_eq!(dense.xmm_reg(n), reference.xmm_reg(n), "{name} xmm{n}");
            }
            assert_eq!(dense.flags, reference.flags, "{name} flags");
            assert_eq!(dense.trace(), reference.trace(), "{name} trace");
            assert!(!dense.trace_truncated());
            for a in reference.trace() {
                let (addr, len) = (a.address, a.bytes as usize);
                assert_eq!(
                    dense.mem.read(addr, len),
                    reference.mem.read(addr, len),
                    "{name} @{addr:#x}"
                );
            }
            first.get_or_insert((got, reference.trace().to_vec()));
        }
        first.expect("two runs")
    }

    /// Checks every program of `desc` against the oracle the way the
    /// launcher runs it: `KernelEnvironment`'s array layout (a page of
    /// slack past each array, `offsets` applied), arrays of
    /// `vector_bytes` each (0: the default L1 working set split across
    /// them), a full traversal and two iterations past it.
    fn assert_builder_matches_oracle(
        desc: &mc_kernel::KernelDesc,
        vector_bytes: u64,
        offsets: &[u64],
    ) {
        let machine = crate::config::MachineConfig::nehalem_x5650_dual();
        let programs = MicroCreator::new().generate(desc).unwrap().programs;
        assert!(!programs.is_empty());
        for p in &programs {
            let nb = u64::from(p.nb_arrays.max(1));
            let bytes = match vector_bytes {
                0 => (machine.working_set_for(crate::config::Level::L1) / nb).max(64),
                n => n,
            };
            let slot = (bytes + 2 * 4096).next_multiple_of(4096);
            let arrays: Vec<(u64, u64)> = (0..nb)
                .map(|i| (0x1000_0000 + i * slot, offsets.get(i as usize).copied().unwrap_or(0)))
                .collect();
            let epi = p.elements_per_iteration.max(1);
            let trip = (bytes / u64::from(p.element_bytes).max(1) / epi).max(1) * epi + 2 * epi;
            let mut regs = vec![(GprName::Rdi, trip - epi)];
            for (&(base, offset), &reg) in
                arrays.iter().zip(&mc_creator::passes::regalloc::ARRAY_REGS)
            {
                regs.push((reg, base + offset));
            }
            let seed: Vec<(u64, Vec<u8>)> = arrays
                .iter()
                .flat_map(|&(base, offset)| {
                    let start = base + offset;
                    [(start, vec![0x3F; 16]), (start + bytes - 8, vec![0x40; 16])]
                })
                .collect();
            assert_matches_oracle(p, &regs, &[], &seed, 1_000_000);
        }
    }

    #[test]
    fn figure6_variants_match_the_oracle() {
        // 2 KiB arrays (`--vector-bytes=2048`) keep 510 debug-build runs
        // of both interpreters quick.
        assert_builder_matches_oracle(&figure6(), 2048, &[]);
    }

    #[test]
    fn builder_kernels_match_the_oracle() {
        use mc_asm::Mnemonic::*;
        let odd = [4, 68, 1032, 2052, 12, 76, 1040, 2060];
        let mut descs: Vec<mc_kernel::KernelDesc> =
            [Movss, Movaps, Movsd, Movapd].into_iter().map(|m| load_stream(m, 1, 8)).collect();
        descs.extend([
            multi_array_traversal(Movss, 4),
            multi_array_traversal(Movss, 8),
            matmul_inner(200),
            stencil_1d(1, 4),
            arithmetic_hiding(Movaps, 4),
            strided_stream(Movss, &[1, 2, 4, 16]),
        ]);
        for desc in &descs {
            assert_builder_matches_oracle(desc, 0, &[]);
            assert_builder_matches_oracle(desc, 0, &odd);
        }
    }

    // -- random listings -----------------------------------------------------

    /// Registers that hold addresses: only ever advanced by small steps.
    const ADDR_REGS: [&str; 4] = ["rsi", "rdx", "rcx", "r8"];
    /// Registers free for arbitrary values, at every width.
    const SCRATCH: [&str; 16] = [
        "rax", "eax", "ax", "al", "rbx", "ebx", "bx", "bl", "r9", "r9d", "r9w", "r9b", "r10",
        "r11d", "r11w", "r11b",
    ];
    const SSE_MOVES: [&str; 10] = [
        "movss", "movsd", "movaps", "movapd", "movups", "movupd", "movdqa", "movdqu", "movntps",
        "movntpd",
    ];
    const SSE_ARITH: [&str; 21] = [
        "addss", "addsd", "addps", "addpd", "subss", "subsd", "subps", "subpd", "mulss", "mulsd",
        "mulps", "mulpd", "divss", "divsd", "divps", "divpd", "xorps", "xorpd", "sqrtsd", "maxsd",
        "minsd",
    ];
    const INT_OPS: [&str; 11] =
        ["add", "sub", "and", "or", "xor", "cmp", "test", "imul", "shl", "shr", "mov"];
    const CONDS: [&str; 12] = ["e", "ne", "g", "ge", "l", "le", "a", "ae", "b", "be", "s", "ns"];
    const TARGETS: [&str; 4] = [".L0", ".L1", ".Lmissing", "$5"];

    fn xmm(rng: &mut SplitMix64) -> String {
        format!("%xmm{}", rng.gen_range(0..16u32))
    }

    fn scratch(rng: &mut SplitMix64) -> String {
        format!("%{}", pick(rng, &SCRATCH))
    }

    /// A memory operand near an array edge, a page edge, or outside both.
    /// Bases are address registers (or an XMM register, which addresses
    /// nothing), so no address comes near the top of the address space.
    fn mem(rng: &mut SplitMix64) -> String {
        let disp = rng.gen_range(-40i64..=40);
        let base = pick(rng, &ADDR_REGS);
        match rng.gen_range(0..5u32) {
            0 => format!("{disp}(%{base})"),
            1 => format!("{disp}(%{base},%rdi,{})", pick(rng, &[1, 2, 4, 8])),
            2 => format!("{}", rng.gen_range(4080..4112u64)),
            3 => format!("{}(%xmm{})", rng.gen_range(4080..4112u64), rng.gen_range(0..16u32)),
            _ => format!("{disp}(%{base},%{},1)", pick(rng, &ADDR_REGS)),
        }
    }

    fn int_source(rng: &mut SplitMix64) -> String {
        match rng.gen_range(0..5u32) {
            0 => format!("${}", rng.gen_range(-300i64..300)),
            1 => format!("${}", rng.next_u64() as i64),
            2 => mem(rng),
            3 => xmm(rng),
            _ => scratch(rng),
        }
    }

    fn int_dest(rng: &mut SplitMix64) -> String {
        match rng.gen_range(0..8u32) {
            0 => xmm(rng),
            1 => "$7".to_owned(),
            2 | 3 => mem(rng),
            _ => scratch(rng),
        }
    }

    fn xmm_or_mem(rng: &mut SplitMix64) -> String {
        if coin(rng) {
            xmm(rng)
        } else {
            mem(rng)
        }
    }

    fn random_inst(rng: &mut SplitMix64) -> String {
        let width = pick(rng, &["b", "w", "l", "q"]);
        match rng.gen_range(0..14u32) {
            0 => format!("{} {}, {}", pick(rng, &SSE_MOVES), mem(rng), xmm(rng)),
            1 => format!("{} {}, {}", pick(rng, &SSE_MOVES), xmm(rng), mem(rng)),
            2 => {
                let (src, dst) = (int_source(rng), xmm_or_mem(rng));
                format!("{} {src}, {dst}", pick(rng, &SSE_MOVES))
            }
            3 | 4 => {
                let (src, dst) = (xmm_or_mem(rng), xmm_or_mem(rng));
                format!("{} {src}, {dst}", pick(rng, &SSE_ARITH))
            }
            5 | 6 => {
                let (src, dst) = (int_source(rng), int_dest(rng));
                format!("{}{width} {src}, {dst}", pick(rng, &INT_OPS))
            }
            7 => format!("{}{width} {}", pick(rng, &["inc", "dec", "neg"]), int_dest(rng)),
            8 => match rng.gen_range(0..3u32) {
                0 => format!("lea{width} {}, {}", mem(rng), scratch(rng)),
                1 => format!("leaq {}, {}", mem(rng), mem(rng)),
                _ => format!("leaq {}, {}", scratch(rng), scratch(rng)),
            },
            9 => format!("addq ${}, %{}", rng.gen_range(0..=48u32), pick(rng, &ADDR_REGS)),
            10 => "subq $1, %rdi".to_owned(),
            11 => format!("j{} {}", pick(rng, &CONDS), pick(rng, &TARGETS)),
            12 => pick(rng, &["jmp .L1", "jmp .Lmissing", "jmp %rax", "jmp (%rsi)", "jmp .L0"])
                .to_owned(),
            _ => pick(rng, &["ret", "nop", "cmpq $3, %rdi", "# note", ".p2align 4"]).to_owned(),
        }
    }

    /// A random listing the parser accepts: a `.L0` loop head, a body of
    /// arbitrary instructions with the odd `.L1` label, and usually a
    /// counted back edge.
    fn random_listing(rng: &mut SplitMix64) -> String {
        let mut lines = vec![".L0:".to_owned()];
        for _ in 0..rng.gen_range(1..=14u32) {
            if rng.gen_range(0..6u32) == 0 {
                lines.push(pick(rng, &[".L0:", ".L1:"]).to_owned());
            }
            lines.push(random_inst(rng));
        }
        if coin(rng) {
            lines.push("subq $1, %rdi".to_owned());
            lines.push(format!("j{} .L0", pick(rng, &CONDS)));
        }
        lines.join("\n")
    }

    #[test]
    fn random_listings_match_the_oracle() {
        // What the cases exercised, so the generator cannot silently stop
        // reaching an edge: stop reasons, label-less `jmp`s, and accesses
        // across a page edge, across an array edge, and outside every array.
        let mut stops = HashSet::new();
        let (mut bare_jmp, mut page_edge, mut array_edge, mut outside) = (0, 0, 0, 0);
        check(400, |rng| {
            let text = random_listing(rng);
            let p = Program::from_asm_text("random", &text)
                .unwrap_or_else(|e| panic!("generated listing rejected: {e}\n{text}"));
            // Two arrays near a page edge, often sharing a line.
            let a = 0x1000_0000 + rng.gen_range(3900..4200u64);
            let a_len = rng.gen_range(1..300u64);
            let b = a + a_len + rng.gen_range(0..80u64);
            let b_len = rng.gen_range(1..300u64);
            let arrays = [(a, a_len), (b, b_len)];
            let regs = [
                (GprName::Rsi, a + rng.gen_range(0..a_len + 32) - 16),
                (GprName::Rdx, b + rng.gen_range(0..b_len + 32) - 16),
                (GprName::Rcx, 4096 - rng.gen_range(0..24u64)),
                (GprName::R8, a + a_len - rng.gen_range(0..16u64)),
                (GprName::Rdi, rng.gen_range(0..20u64)),
                (GprName::Rax, rng.next_u64()),
                (GprName::R10, rng.next_u64()),
            ];
            let xmms: Vec<(u8, [u8; 16])> = (0..4)
                .map(|_| {
                    let lanes = [rng.next_u64(), rng.next_u64()];
                    let mut v = [0u8; 16];
                    v[..8].copy_from_slice(&lanes[0].to_le_bytes());
                    v[8..].copy_from_slice(&lanes[1].to_le_bytes());
                    (rng.gen_range(0..16u8), v)
                })
                .collect();
            let seed: Vec<(u64, Vec<u8>)> = (0..6)
                .map(|_| {
                    let at = pick(rng, &[a, b, a + a_len, b + b_len, 4096]);
                    let len = rng.gen_range(1..=16usize);
                    let bytes = (0..len).map(|_| rng.next_u64() as u8).collect();
                    (at + rng.gen_range(0..24u64) - 12, bytes)
                })
                .collect();
            let (outcome, trace) = assert_matches_oracle(&p, &regs, &xmms, &seed, 300);
            stops.insert(format!("{:?}", outcome.stop));
            let bare = text.contains("jmp %rax") || text.contains("jmp (%rsi)");
            if bare && !text.contains("ret") && outcome.stop == StopReason::Returned {
                bare_jmp += 1;
            }
            for access in &trace {
                let (lo, hi) = (access.address, access.address + u64::from(access.bytes));
                page_edge += usize::from(lo / 4096 != (hi - 1) / 4096);
                let inside = |&(start, len): &(u64, u64)| start <= lo && hi <= start + len;
                let crosses = |&(start, len): &(u64, u64)| lo < start + len && start < hi;
                let crossing = arrays.iter().any(|s| crosses(s) && !inside(s));
                array_edge += usize::from(crossing);
                outside += usize::from(!arrays.iter().any(crosses));
            }
        });
        assert_eq!(stops.len(), 4, "stop reasons reached: {stops:?}");
        for (what, n) in [
            ("label-less jmp", bare_jmp),
            ("page-edge access", page_edge),
            ("array-edge access", array_edge),
            ("out-of-array access", outside),
        ] {
            assert!(n > 0, "no {what} in any case");
        }
    }
}
