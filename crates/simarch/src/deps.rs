//! Loop-carried dependency (recurrence) analysis.
//!
//! Out-of-order cores hide everything except true dependency chains that
//! cross iterations — the induction update feeding itself, or a floating-
//! point accumulator. The recurrence bound is the asymptotic longest-path
//! growth per iteration through the register data-flow graph.
//!
//! Implementation: lower the body once into per-instruction register
//! slots ([`ArchReg::index`]) and result latencies ([`LoopBody`]), then
//! symbolically unroll it `K` copies and compute the longest dependency
//! path by dynamic programming in program order over a dense per-slot
//! table (a consumer depends on the nearest earlier writer of each
//! register it reads). The bound is the growth rate between `K/2` and `K`
//! copies; since the first `K/2` copies of the `K`-copy run *are* the
//! `K/2`-copy run, one pass with a snapshot at `K/2` gives both. The DP is
//! exact for the acyclic expanded graph, and the growth rate converges to
//! the recurrence after a couple of copies. Profiles reuse the same pass
//! for their dependency edges and critical path.

use crate::uops::{decompose, PortClass};
use mc_asm::inst::Inst;
use mc_asm::reg::ArchReg;
use std::ops::Range;

/// Copies of the body the DP unrolls; the bound is the growth between the
/// first `COPIES / 2` and all `COPIES`.
const COPIES: usize = 8;

/// Result latency of an instruction: the latency a dependent consumer of
/// its register result observes (load latency + compute latency for
/// load-op forms; stores produce no register result).
pub fn result_latency(inst: &Inst) -> f64 {
    decompose(inst).iter().filter(|u| u.port != PortClass::Store).map(|u| u.latency).sum()
}

/// Canonical register name used in profiles and carrier reports.
pub fn reg_name(reg: ArchReg) -> String {
    match reg {
        ArchReg::Gpr(g) => g.base_name().to_string(),
        ArchReg::Xmm(n) => format!("xmm{n}"),
        ArchReg::Flags => "flags".to_string(),
    }
}

/// One lowered instruction: where its slots live in [`LoopBody::slots`]
/// and the latency its register results take.
#[derive(Debug)]
struct Lowered {
    /// Program index, the one profiles cite.
    index: usize,
    /// Slots read, ascending (the order of [`Inst::regs_read`]).
    reads: Range<usize>,
    /// Slots written.
    writes: Range<usize>,
    /// [`result_latency`].
    latency: f64,
}

/// A loop body lowered once for dependency analysis: per instruction, the
/// register slots it reads and writes and its result latency.
#[derive(Debug, Default)]
pub struct LoopBody {
    insts: Vec<Lowered>,
    slots: Vec<usize>,
}

/// The longest-path DP state after some prefix of the unrolled body.
#[derive(Debug, Clone)]
struct Dp {
    /// Per register slot: completion time of the latest value written to
    /// it, and the node (`copy × body length + position`) that wrote it.
    ready: [Option<(f64, usize)>; ArchReg::COUNT],
    /// Latest completion time of any node so far.
    longest: f64,
    /// Nodes stepped so far (the next node's id).
    nodes: usize,
}

/// One DP node's outcome.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Completion time of the node's result.
    finish: f64,
    /// The node and slot whose value gated the start, if any did.
    pred: Option<(usize, usize)>,
}

impl Dp {
    fn new() -> Self {
        Dp { ready: [None; ArchReg::COUNT], longest: 0.0, nodes: 0 }
    }

    /// Executes one instruction: it starts when the latest value it reads
    /// is ready and its results complete `latency` later.
    fn step(&mut self, body: &LoopBody, inst: &Lowered) -> Step {
        let mut start = 0.0f64;
        let mut pred = None;
        for &slot in &body.slots[inst.reads.clone()] {
            if let Some((t, node)) = self.ready[slot] {
                if t > start {
                    start = t;
                    pred = Some((node, slot));
                }
            }
        }
        let finish = start + inst.latency;
        for &slot in &body.slots[inst.writes.clone()] {
            self.ready[slot] = Some((finish, self.nodes));
        }
        self.nodes += 1;
        self.longest = self.longest.max(finish);
        Step { finish, pred }
    }

    /// Executes `copies` back-to-back copies of the body.
    fn run(&mut self, body: &LoopBody, copies: usize) {
        for _ in 0..copies {
            for inst in &body.insts {
                self.step(body, inst);
            }
        }
    }
}

/// The recurrence bound of a [`LoopBody`], with the DP tables behind it.
#[derive(Debug)]
pub struct Recurrence {
    /// Cycles-per-iteration lower bound from loop-carried dependency
    /// chains. Bodies with no loop-carried chain (e.g. independent
    /// rotating-register loads) report the latency growth 0 and are
    /// floored at 1 cycle; an empty body reports 0.
    pub bound: f64,
    half: Dp,
    full: Dp,
}

impl Recurrence {
    /// The *carrier*: the register whose value chain grows fastest across
    /// iterations — the accumulator or induction variable responsible for
    /// the bound. `None` when the body is empty or no chain grows (the
    /// floor case). Only profiles read it, so it is computed on demand.
    pub fn carrier(&self) -> Option<String> {
        // The register whose completion time grew the most between K/2
        // and K copies is the one actually accruing latency every
        // iteration rather than being rewritten from scratch. Names break
        // ties, for a deterministic pick.
        let mut best: Option<(f64, String)> = None;
        for (slot, reg) in ArchReg::ALL.into_iter().enumerate() {
            let Some((t_full, _)) = self.full.ready[slot] else { continue };
            let growth = t_full - self.half.ready[slot].map_or(0.0, |(t, _)| t);
            if growth > 0.0 {
                let name = reg_name(reg);
                if best.as_ref().is_none_or(|(g, n)| growth > *g || (growth == *g && name < *n)) {
                    best = Some((growth, name));
                }
            }
        }
        best.map(|(_, name)| name)
    }
}

/// Cap on emitted critical-path hops (the tail nearest retirement wins).
const CRIT_HOP_CAP: usize = 32;

impl LoopBody {
    /// Lowers `(program index, instruction)` pairs, in program order.
    pub fn lower<'a>(body: impl IntoIterator<Item = (usize, &'a Inst)>) -> Self {
        let mut lowered = LoopBody::default();
        for (index, inst) in body {
            let start = lowered.slots.len();
            lowered.slots.extend(inst.regs_read().into_iter().map(ArchReg::index));
            let split = lowered.slots.len();
            lowered.slots.extend(inst.regs_written().into_iter().map(ArchReg::index));
            lowered.insts.push(Lowered {
                index,
                reads: start..split,
                writes: split..lowered.slots.len(),
                latency: result_latency(inst),
            });
        }
        lowered
    }

    /// The recurrence bound: one `K`-copy DP pass, snapshotted at `K/2`.
    pub fn recurrence(&self) -> Recurrence {
        let mut full = Dp::new();
        if self.insts.is_empty() {
            return Recurrence { bound: 0.0, half: full.clone(), full };
        }
        full.run(self, COPIES / 2);
        let half = full.clone();
        full.run(self, COPIES / 2);
        let rate = (full.longest - half.longest) / (COPIES as f64 / 2.0);
        Recurrence { bound: rate.max(1.0), half, full }
    }

    /// Emits the dependency structure behind the recurrence bound to a
    /// profile sink: one edge per (consumer, register) of the second copy,
    /// resolving to the nearest earlier writer (so loop-carried edges are
    /// visible), plus the longest path's walk-back as critical-path hops.
    /// Edges and hops cite the program indices given to [`LoopBody::lower`].
    pub fn emit_scope(&self, sink: &mut dyn mc_scope::ScopeSink) {
        if !sink.enabled() || self.insts.is_empty() {
            return;
        }
        let n = self.insts.len();
        let mut dp = Dp::new();
        let mut steps: Vec<Step> = Vec::with_capacity(n * COPIES);
        for copy in 0..COPIES {
            for inst in &self.insts {
                if copy == 1 {
                    for &slot in &self.slots[inst.reads.clone()] {
                        if let Some((_, node)) = dp.ready[slot] {
                            sink.dep_edge(mc_scope::DepEdgeScope {
                                from: self.insts[node % n].index,
                                to: inst.index,
                                reg: reg_name(ArchReg::ALL[slot]),
                                latency: self.insts[node % n].latency,
                                carried: node < n,
                            });
                        }
                    }
                }
                steps.push(dp.step(self, inst));
            }
        }
        // Walk back from the latest finisher (the last one on ties),
        // keeping the CRIT_HOP_CAP hops nearest retirement.
        let Some(mut at) = steps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.finish.partial_cmp(&b.1.finish).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(node, _)| node)
        else {
            return;
        };
        let mut chain: Vec<mc_scope::CritScope> = Vec::new();
        loop {
            let inst = &self.insts[at % n];
            let pred = steps[at].pred;
            chain.push(mc_scope::CritScope {
                step: 0,
                inst: inst.index,
                reg: pred.map_or_else(String::new, |(_, slot)| reg_name(ArchReg::ALL[slot])),
                latency: inst.latency,
                carried: pred.is_some_and(|(node, _)| node / n < at / n),
            });
            match pred {
                Some((node, _)) if chain.len() < CRIT_HOP_CAP => at = node,
                _ => break,
            }
        }
        // The walk-back runs retirement → head; emit head → retirement.
        for (step, hop) in chain.into_iter().rev().enumerate() {
            sink.crit_hop(mc_scope::CritScope { step, ..hop });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_asm::format::AsmLine;
    use mc_asm::parse::parse_listing;
    use mc_report::rng::SplitMix64;

    fn body(text: &str) -> Vec<Inst> {
        parse_listing(text)
            .unwrap()
            .into_iter()
            .filter_map(|l| match l {
                AsmLine::Inst(i) => Some(i),
                _ => None,
            })
            .collect()
    }

    fn detail(insts: &[Inst]) -> (f64, Option<String>) {
        let rec = LoopBody::lower(insts.iter().enumerate()).recurrence();
        (rec.bound, rec.carrier())
    }

    fn rec(text: &str) -> f64 {
        detail(&body(text)).0
    }

    #[test]
    fn independent_loads_have_unit_recurrence() {
        // Rotating XMM registers break dependencies (§3.1) — only the
        // induction update (1 cycle) carries across iterations.
        let r =
            rec("movaps (%rsi), %xmm0\nmovaps 16(%rsi), %xmm1\naddq $32, %rsi\nsubq $8, %rdi\n");
        assert_eq!(r, 1.0);
    }

    #[test]
    fn fp_accumulator_carries_three_cycles() {
        // addsd into the same register every iteration: 3-cycle chain.
        let r = rec("movsd (%rsi), %xmm0\naddsd %xmm0, %xmm15\naddq $8, %rsi\nsubq $1, %rdi\n");
        assert_eq!(r, 3.0);
    }

    #[test]
    fn two_accumulations_per_iteration_double_the_chain() {
        let r = rec("addsd %xmm0, %xmm15\naddsd %xmm1, %xmm15\naddq $16, %rsi\nsubq $2, %rdi\n");
        assert_eq!(r, 6.0);
    }

    #[test]
    fn pointer_chase_pays_load_latency() {
        // movq (%rax), %rax: the next address depends on the loaded value.
        let r = rec("movq (%rax), %rax\nsubq $1, %rdi\n");
        assert_eq!(r, 5.0, "load latency 4 + 1-cycle integer mov");
    }

    #[test]
    fn matmul_inner_chain_is_the_accumulate() {
        // Figure 2's kernel: the addsd accumulation into %xmm1 dominates.
        let r = rec("movsd (%rdx,%rax,8), %xmm0\naddq $1, %rax\nmulsd (%r8), %xmm0\n\
             addq %r11, %r8\ncmpl %eax, %edi\naddsd %xmm0, %xmm1\n");
        assert_eq!(r, 3.0);
    }

    #[test]
    fn result_latencies() {
        let b =
            body("movaps (%rsi), %xmm0\nmulsd (%r8), %xmm0\naddq $1, %rax\nmovaps %xmm0, (%rsi)\n");
        assert_eq!(result_latency(&b[0]), 4.0);
        assert_eq!(result_latency(&b[1]), 9.0, "load 4 + multiply 5");
        assert_eq!(result_latency(&b[2]), 1.0);
        assert_eq!(result_latency(&b[3]), 0.0, "stores produce no register value");
    }

    #[test]
    fn empty_body_is_zero() {
        assert_eq!(detail(&[]), (0.0, None));
        let mut sink = Recorder::default();
        LoopBody::default().emit_scope(&mut sink);
        assert!(sink.edges.is_empty() && sink.hops.is_empty());
    }

    #[test]
    fn carrier_names_the_accumulator() {
        let insts =
            body("movsd (%rsi), %xmm0\naddsd %xmm0, %xmm15\naddq $8, %rsi\nsubq $1, %rdi\n");
        assert_eq!(detail(&insts), (3.0, Some("xmm15".to_string())));
    }

    #[test]
    fn carrier_of_pointer_chase_is_the_pointer() {
        let insts = body("movq (%rax), %rax\nsubq $1, %rdi\n");
        assert_eq!(detail(&insts), (5.0, Some("rax".to_string())));
    }

    #[test]
    fn recurrence_floor_is_one_cycle() {
        let r = rec("movaps (%rsi), %xmm0\n");
        assert_eq!(r, 1.0);
    }

    /// Reference implementation: separate `HashMap` DPs over K/2 and K
    /// copies for the bound and carrier, and two more for the profile's
    /// edges and critical path. The differential oracle the dense
    /// implementation must match bit for bit.
    mod reference {
        use super::super::{reg_name, result_latency, CRIT_HOP_CAP};
        use mc_asm::inst::Inst;
        use mc_asm::reg::ArchReg;
        use std::collections::HashMap;

        fn longest_path(body: &[&Inst], copies: usize) -> (f64, HashMap<ArchReg, f64>) {
            let mut ready_time: HashMap<ArchReg, f64> = HashMap::new();
            let mut longest = 0.0f64;
            for _ in 0..copies {
                for inst in body {
                    let start = inst
                        .regs_read()
                        .iter()
                        .filter_map(|r| ready_time.get(r))
                        .fold(0.0f64, |a, &b| a.max(b));
                    let finish = start + result_latency(inst);
                    for r in inst.regs_written() {
                        ready_time.insert(r, finish);
                    }
                    longest = longest.max(finish);
                }
            }
            (longest, ready_time)
        }

        pub fn recurrence_detail(body: &[&Inst]) -> (f64, Option<String>) {
            if body.is_empty() {
                return (0.0, None);
            }
            let k = 8usize;
            let (half, half_ready) = longest_path(body, k / 2);
            let (full, full_ready) = longest_path(body, k);
            let rate = (full - half) / (k as f64 / 2.0);
            let mut growths: Vec<(String, f64)> = full_ready
                .iter()
                .filter_map(|(reg, &t_full)| {
                    let growth = t_full - half_ready.get(reg).copied().unwrap_or(0.0);
                    (growth > 0.0).then(|| (reg_name(*reg), growth))
                })
                .collect();
            growths.sort_by(|a, b| {
                b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
            });
            (rate.max(1.0), growths.into_iter().next().map(|(name, _)| name))
        }

        pub fn emit_scope(body: &[(usize, &Inst)], sink: &mut dyn mc_scope::ScopeSink) {
            if !sink.enabled() || body.is_empty() {
                return;
            }
            let mut writer: HashMap<ArchReg, (usize, usize)> = HashMap::new();
            for copy in 0..2usize {
                for &(index, inst) in body {
                    if copy == 1 {
                        for r in inst.regs_read() {
                            if let Some(&(from, from_copy)) = writer.get(&r) {
                                let from_inst = body
                                    .iter()
                                    .find_map(|&(i, inst)| (i == from).then_some(inst))
                                    .expect("writer index came from this body");
                                sink.dep_edge(mc_scope::DepEdgeScope {
                                    from,
                                    to: index,
                                    reg: reg_name(r),
                                    latency: result_latency(from_inst),
                                    carried: from_copy == 0,
                                });
                            }
                        }
                    }
                    for r in inst.regs_written() {
                        writer.insert(r, (index, copy));
                    }
                }
            }
            let k = 8usize;
            struct Node {
                index: usize,
                copy: usize,
                finish: f64,
                pred: Option<(usize, ArchReg)>,
                latency: f64,
            }
            let mut nodes: Vec<Node> = Vec::with_capacity(body.len() * k);
            let mut ready: HashMap<ArchReg, (f64, usize)> = HashMap::new();
            for copy in 0..k {
                for &(index, inst) in body {
                    let mut start = 0.0f64;
                    let mut pred = None;
                    for r in inst.regs_read() {
                        if let Some(&(t, node_id)) = ready.get(&r) {
                            if t > start {
                                start = t;
                                pred = Some((node_id, r));
                            }
                        }
                    }
                    let latency = result_latency(inst);
                    let finish = start + latency;
                    let id = nodes.len();
                    nodes.push(Node { index, copy, finish, pred, latency });
                    for r in inst.regs_written() {
                        ready.insert(r, (finish, id));
                    }
                }
            }
            let Some(mut at) = nodes
                .iter()
                .enumerate()
                .max_by(|a, b| {
                    a.1.finish.partial_cmp(&b.1.finish).unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(id, _)| id)
            else {
                return;
            };
            let mut chain: Vec<(usize, String, f64, bool)> = Vec::new();
            loop {
                let node = &nodes[at];
                let (reg, carried, next) = match node.pred {
                    Some((pred_id, reg)) => {
                        (reg_name(reg), nodes[pred_id].copy < node.copy, Some(pred_id))
                    }
                    None => (String::new(), false, None),
                };
                chain.push((node.index, reg, node.latency, carried));
                match next {
                    Some(pred_id) if chain.len() < body.len() * k => at = pred_id,
                    _ => break,
                }
            }
            chain.truncate(CRIT_HOP_CAP);
            chain.reverse();
            for (step, (inst, reg, latency, carried)) in chain.into_iter().enumerate() {
                sink.crit_hop(mc_scope::CritScope { step, inst, reg, latency, carried });
            }
        }
    }

    /// Captures the profile facts the dependency analysis emits.
    #[derive(Debug, Default, PartialEq)]
    struct Recorder {
        edges: Vec<mc_scope::DepEdgeScope>,
        hops: Vec<mc_scope::CritScope>,
    }

    impl mc_scope::ScopeSink for Recorder {
        fn dep_edge(&mut self, e: mc_scope::DepEdgeScope) {
            self.edges.push(e);
        }
        fn crit_hop(&mut self, h: mc_scope::CritScope) {
            self.hops.push(h);
        }
    }

    /// Asserts the dense analysis matches the reference on `body`
    /// (`(program index, instruction)` pairs): bound bits, carrier, and
    /// the profile's edges and critical-path hops.
    fn assert_matches_reference(body: &[(usize, &Inst)], what: &str) {
        let lowered = LoopBody::lower(body.iter().copied());
        let rec = lowered.recurrence();
        let insts: Vec<&Inst> = body.iter().map(|&(_, i)| i).collect();
        let (bound, carrier) = reference::recurrence_detail(&insts);
        assert_eq!((rec.bound.to_bits(), rec.carrier()), (bound.to_bits(), carrier), "{what}");
        let (mut dense, mut oracle) = (Recorder::default(), Recorder::default());
        lowered.emit_scope(&mut dense);
        reference::emit_scope(body, &mut oracle);
        assert_eq!(dense, oracle, "{what}");
    }

    #[test]
    fn dense_analysis_matches_reference_on_every_builder_kernel() {
        use mc_asm::inst::Mnemonic;
        use mc_kernel::builder::{
            arithmetic_hiding, figure6, load_stream, matmul_inner, multi_array_traversal,
            stencil_1d, strided_stream,
        };
        let mut descs = vec![
            figure6(),
            load_stream(Mnemonic::Movss, 1, 8),
            load_stream(Mnemonic::Movaps, 1, 8),
            multi_array_traversal(Mnemonic::Movss, 4),
            multi_array_traversal(Mnemonic::Movss, 8),
            matmul_inner(200),
            stencil_1d(1, 8),
            strided_stream(Mnemonic::Movss, &[1, 2, 4, 8, 16]),
        ];
        descs.extend((0..=8).map(|n| arithmetic_hiding(Mnemonic::Movaps, n)));
        let mut programs = 0;
        for desc in &descs {
            for program in mc_creator::MicroCreator::new().generate(desc).unwrap().programs {
                // The body `estimate` analyses: every instruction but the branch.
                let body: Vec<(usize, &Inst)> = program
                    .instructions()
                    .enumerate()
                    .filter(|(_, i)| !i.mnemonic.is_branch())
                    .collect();
                assert_matches_reference(&body, &program.name);
                programs += 1;
            }
        }
        assert!(programs >= 550, "only {programs} programs compared");
    }

    /// Instruction templates covering the operand forms the analysis
    /// distinguishes: GPR and XMM registers, flag writers and readers,
    /// loads, stores, load-op and read-modify-write forms. `G` is a 64-bit
    /// GPR, `W` a GPR view of any width, `X` an XMM register, `M` a memory
    /// operand and `I` an immediate.
    const TEMPLATES: &[&str] = &[
        "movss M, X",
        "movaps M, X",
        "movaps X, M",
        "movntps X, M",
        "movsd M, X",
        "addsd X, X",
        "addps M, X",
        "mulsd M, X",
        "divsd X, X",
        "xorps X, X",
        "sqrtsd X, X",
        "addq I, G",
        "subq I, G",
        "addq G, G",
        "addl W, M",
        "subq I, M",
        "imulq M, G",
        "movq M, G",
        "movq G, M",
        "movl W, W",
        "leaq M, G",
        "incq G",
        "decl M",
        "negq G",
        "shlq I, G",
        "cmpl W, W",
        "testq G, G",
        "jge .L0",
        "nop",
    ];

    /// A few registers of each file, so random bodies form real chains.
    fn operand(rng: &mut SplitMix64, kind: char) -> String {
        use mc_asm::inst::Width;
        use mc_asm::reg::GprName;
        use mc_report::prop::pick;
        let gprs = &GprName::ALL[..6];
        match kind {
            'G' => format!("%{}", pick(rng, gprs).base_name()),
            'W' => {
                let width = pick(rng, &[Width::Q, Width::L, Width::W, Width::B]);
                format!("%{}", pick(rng, gprs).name_for_width(width))
            }
            'X' => format!("%xmm{}", rng.gen_range(0..4u8)),
            'I' => format!("${}", rng.gen_range(1..64i64)),
            'M' => {
                let base = pick(rng, gprs).base_name();
                let index = pick(rng, gprs).base_name();
                match rng.gen_range(0..3) {
                    0 => format!("(%{base})"),
                    1 => format!("{}(%{base})", 16 * rng.gen_range(-2..3i64)),
                    _ => format!("(%{base},%{index},8)"),
                }
            }
            _ => unreachable!("template operand kind {kind}"),
        }
    }

    fn random_body(rng: &mut SplitMix64) -> String {
        let len = rng.gen_range(1..=12);
        (0..len)
            .map(|_| {
                let template = mc_report::prop::pick(rng, TEMPLATES);
                let line: String = template
                    .split(' ')
                    .map(|tok| {
                        let (kind, comma) = tok.strip_suffix(',').map_or((tok, ""), |k| (k, ","));
                        match kind {
                            "G" | "W" | "X" | "I" | "M" => {
                                let c = kind.chars().next().expect("one-letter kind");
                                format!("{}{comma}", operand(rng, c))
                            }
                            _ => tok.to_string(),
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(" ");
                line + "\n"
            })
            .collect()
    }

    #[test]
    fn dense_analysis_matches_reference_on_random_bodies() {
        mc_report::prop::check(400, |rng| {
            let text = random_body(rng);
            let insts = body(&text);
            // Program indices with gaps, as when `estimate` drops the branch.
            let indexed: Vec<(usize, &Inst)> =
                insts.iter().enumerate().map(|(k, i)| (2 * k + 1, i)).collect();
            assert_matches_reference(&indexed, &text);
        });
    }
}
