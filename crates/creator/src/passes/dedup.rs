//! Pass 17: deduplication — drop programs with identical assembly.
//!
//! Combining `swap_before_unroll` with `swap_after_unroll`, or symmetric
//! operand choices, can synthesize the same program through different
//! choice paths; only the first occurrence is kept.
//!
//! The key is the line list itself (`AsmLine` derives `Hash` and `Eq`),
//! not its rendered text. Rendering is a function of the structure, so
//! structurally equal programs always print the same text. The converse
//! holds for what the passes emit: every mnemonic, register view and
//! memory-operand shape they produce has exactly one spelling. The two
//! keys therefore keep the same candidates; a test checks this against
//! the text-keyed pass on every builder kernel and on random
//! descriptions.

use crate::context::GenContext;
use crate::error::CreatorResult;
use crate::pass::Pass;
use mc_asm::format::AsmLine;
use std::collections::HashSet;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};

/// Removes duplicate candidates by line structure.
pub struct Dedup;

impl Pass for Dedup {
    fn name(&self) -> &str {
        "dedup"
    }

    fn run(&self, ctx: &mut GenContext) -> CreatorResult<()> {
        // Lines carry labels and immediates from the submitted description,
        // so the hash stays keyed. It runs once per candidate over the bytes
        // `Hash` emits, which costs a fraction of one keyed call per field.
        let keyed = RandomState::new();
        let mut bytes = HashBytes::default();
        let mut seen: HashSet<Lines> = HashSet::with_capacity(ctx.candidates.len());
        let keep: Vec<bool> = ctx
            .candidates
            .iter()
            .map(|cand| {
                bytes.0.clear();
                cand.lines.hash(&mut bytes);
                seen.insert(Lines { hash: keyed.hash_one(&bytes.0), lines: &cand.lines })
            })
            .collect();
        drop(seen);
        let mut keep = keep.into_iter();
        ctx.candidates.retain(|_| keep.next().unwrap_or(true));
        Ok(())
    }
}

/// Records the bytes a `Hash` impl feeds its hasher.
#[derive(Default)]
struct HashBytes(Vec<u8>);

impl Hasher for HashBytes {
    fn finish(&self) -> u64 {
        unreachable!("HashBytes only records")
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }
}

/// A candidate's lines with their precomputed keyed hash; equality is on
/// the lines themselves.
struct Lines<'a> {
    hash: u64,
    lines: &'a [AsmLine],
}

impl Hash for Lines<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialEq for Lines<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.lines == other.lines
    }
}

impl Eq for Lines<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::Candidate;
    use crate::config::{CreatorConfig, RandomSelection};
    use crate::passes::standard_passes;
    use mc_asm::format::AsmLine;
    use mc_asm::inst::{Mnemonic, Width};
    use mc_asm::parse::parse_instruction;
    use mc_asm::reg::{GprName, Reg};
    use mc_kernel::builder::{self, figure6, KernelBuilder};
    use mc_kernel::{
        ImmediateDesc, InstructionDesc, KernelDesc, OperandDesc, OperationDesc, RegisterRef,
    };
    use mc_report::prop::{self, coin, pick};
    use mc_report::SplitMix64;

    /// The text-keyed pass the structural key replaced: renders every
    /// candidate and keeps the first of each text. The oracle below.
    struct TextDedup;

    impl Pass for TextDedup {
        fn name(&self) -> &str {
            "dedup"
        }

        fn run(&self, ctx: &mut GenContext) -> CreatorResult<()> {
            let mut seen: HashSet<String> = HashSet::with_capacity(ctx.candidates.len());
            ctx.candidates.retain(|cand| {
                let key = mc_asm::format::write_lines(&cand.lines);
                seen.insert(key)
            });
            Ok(())
        }
    }

    fn line(text: &str) -> AsmLine {
        AsmLine::Inst(parse_instruction(text).unwrap())
    }

    /// The candidates that reach `dedup` in the standard pipeline, or
    /// `None` when the description's expansion passes the cap.
    fn candidates_at_dedup(desc: KernelDesc, config: CreatorConfig) -> Option<Vec<Candidate>> {
        let mut ctx = GenContext::new(desc, config);
        for pass in standard_passes() {
            if pass.name() == "dedup" {
                return Some(ctx.candidates);
            }
            if pass.gate(&ctx) {
                match pass.run(&mut ctx) {
                    Err(crate::error::CreatorError::TooManyCandidates { .. }) => return None,
                    other => other.unwrap(),
                }
            }
        }
        unreachable!("the standard pipeline has a dedup pass")
    }

    /// Indices of the candidates `pass` keeps.
    fn kept(pass: &dyn Pass, candidates: &[Candidate]) -> Vec<usize> {
        let mut ctx = GenContext::new(figure6(), CreatorConfig::default());
        ctx.candidates = candidates.to_vec();
        for (i, cand) in ctx.candidates.iter_mut().enumerate() {
            cand.meta.extra.push(("index".into(), i.to_string()));
        }
        pass.run(&mut ctx).unwrap();
        ctx.candidates.iter().map(|c| c.meta.extra.last().unwrap().1.parse().unwrap()).collect()
    }

    /// Asserts the structural and the text key keep the same candidates;
    /// returns how many were pruned.
    fn agree(what: &str, candidates: &[Candidate]) -> usize {
        let structural = kept(&Dedup, candidates);
        assert_eq!(structural, kept(&TextDedup, candidates), "{what}");
        candidates.len() - structural.len()
    }

    #[test]
    fn keeps_first_of_identical_pair() {
        let mut ctx = GenContext::new(figure6(), CreatorConfig::default());
        let mut dup = ctx.candidates[0].clone();
        ctx.candidates[0].lines = vec![line("movaps (%rsi), %xmm0")];
        dup.lines = vec![line("movaps (%rsi), %xmm0")];
        dup.meta.extra.push(("tag".into(), "second".into()));
        ctx.candidates.push(dup);
        Dedup.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 1);
        assert!(ctx.candidates[0].meta.extra.is_empty(), "first occurrence won");
    }

    #[test]
    fn distinct_programs_survive() {
        let mut ctx = GenContext::new(figure6(), CreatorConfig::default());
        let mut other = ctx.candidates[0].clone();
        ctx.candidates[0].lines = vec![line("movaps (%rsi), %xmm0")];
        other.lines = vec![line("movaps (%rsi), %xmm1")];
        ctx.candidates.push(other);
        Dedup.run(&mut ctx).unwrap();
        assert_eq!(ctx.candidates.len(), 2);
    }

    #[test]
    fn both_swaps_collapse_shared_patterns() {
        // swap_before × swap_after on one instruction at unroll 1 yields
        // {L,S} × {identity,flip} = 4 paths but only 2 distinct programs.
        use crate::generator::MicroCreator;
        let mut desc = figure6();
        desc.unrolling = mc_kernel::UnrollRange::fixed(1);
        desc.instructions[0].swap_before_unroll = true;
        let result = MicroCreator::new().generate(&desc).unwrap();
        assert_eq!(result.programs.len(), 2, "dedup collapsed the doubled pair");
    }

    const MOVES: [Mnemonic; 4] =
        [Mnemonic::Movss, Mnemonic::Movsd, Mnemonic::Movaps, Mnemonic::Movapd];

    #[test]
    fn structural_key_matches_text_key_on_builder_kernels() {
        let mut kernels = vec![figure6(), builder::matmul_inner(64), builder::stencil_1d(1, 4)];
        for m in MOVES {
            kernels.push(builder::load_stream(m, 1, 8));
            kernels.push(builder::multi_array_traversal(m, 3));
            kernels.push(builder::arithmetic_hiding(m, 2));
            kernels.push(builder::strided_stream(m, &[1, 2, 4]));
        }
        kernels.push(builder::four_mnemonic());
        let mut pruned = 0;
        for desc in kernels {
            // Each kernel as built, and with every instruction also
            // swapped before unrolling (which makes duplicates).
            let mut both_swaps = desc.clone();
            for inst in &mut both_swaps.instructions {
                inst.swap_before_unroll = true;
            }
            for desc in [desc, both_swaps] {
                let name = desc.name.clone();
                let candidates = candidates_at_dedup(desc, CreatorConfig::default()).unwrap();
                pruned += agree(&name, &candidates);
            }
        }
        assert!(pruned > 0, "the swapped variants must exercise pruning");
    }

    /// A small random description drawing on every expansion that can
    /// produce duplicates: both swaps, `<repeat>`, operation, immediate
    /// and stride choices, and random selection.
    fn random_description(rng: &mut SplitMix64) -> (KernelDesc, CreatorConfig) {
        let mut b = KernelBuilder::new("random");
        let streams = rng.gen_range(1..=2usize);
        for i in 0..streams {
            let array = if i == 0 || coin(rng) { "r1" } else { "r2" };
            b = b.stream_instruction(pick(rng, &MOVES), array, coin(rng));
        }
        if coin(rng) {
            let choices = (0..rng.gen_range(1..=3)).map(|_| rng.gen_range(-2i64..=2)).collect();
            b = b.instruction(InstructionDesc::new(
                OperationDesc::Fixed(if coin(rng) {
                    Mnemonic::Add(Width::Q)
                } else {
                    Mnemonic::Sub(Width::Q)
                }),
                vec![
                    OperandDesc::Immediate(ImmediateDesc { choices }),
                    OperandDesc::Register(RegisterRef::Physical(Reg::gpr(GprName::Rcx))),
                ],
            ));
        }
        if coin(rng) {
            let strides: Vec<i64> =
                (0..rng.gen_range(1..=3)).map(|_| pick(rng, &[16i64, 32, 64])).collect();
            b = b.strides("r1", &strides);
        }
        let min = rng.gen_range(1..=2u32);
        b = b.unroll(min, rng.gen_range(min..=3));
        let mut desc = b.build().unwrap();
        for inst in desc.instructions.iter_mut().take(streams) {
            inst.swap_before_unroll = coin(rng);
            if coin(rng) && coin(rng) {
                inst.repeat = Some((1, 2));
            }
            if coin(rng) && coin(rng) {
                inst.operation = OperationDesc::Choice(vec![pick(rng, &MOVES), pick(rng, &MOVES)]);
            }
        }
        let config = CreatorConfig {
            seed: rng.next_u64(),
            emit_comments: coin(rng),
            random_selection: (rng.gen_range(0..4) == 0).then(|| RandomSelection {
                variants: rng.gen_range(2..=3),
                length: rng.gen_range(1..=3),
            }),
            max_candidates: 4096,
            ..CreatorConfig::default()
        };
        (desc, config)
    }

    #[test]
    fn structural_key_matches_text_key_on_random_descriptions() {
        let (mut checked, mut pruning) = (0, 0);
        prop::check(240, |rng| {
            let (desc, config) = random_description(rng);
            if let Some(candidates) = candidates_at_dedup(desc, config) {
                checked += 1;
                if agree("random description", &candidates) > 0 {
                    pruning += 1;
                }
            }
        });
        assert!(checked >= 200, "only {checked} descriptions fit under the cap");
        assert!(pruning >= 40, "only {pruning} descriptions pruned anything");
    }
}
