//! The MicroCreator facade.

use crate::config::CreatorConfig;
use crate::context::GenContext;
use crate::error::CreatorResult;
use crate::manager::PassManager;
use crate::plugin::Plugin;
use mc_kernel::{KernelDesc, Program};

/// Per-pass statistics from one generation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStat {
    /// Pass name.
    pub pass: String,
    /// Whether the gate allowed the pass to run.
    pub ran: bool,
    /// Candidates alive after the pass.
    pub candidates: usize,
    /// Programs finished after the pass.
    pub programs: usize,
}

/// Result of one generation run.
#[derive(Debug, Clone)]
pub struct GenerationResult {
    /// The generated benchmark programs.
    pub programs: Vec<Program>,
    /// Per-pass statistics in pipeline order.
    pub stats: Vec<PassStat>,
}

/// MicroCreator: expands a kernel description into its benchmark programs.
pub struct MicroCreator {
    pm: PassManager,
    config: CreatorConfig,
}

impl Default for MicroCreator {
    fn default() -> Self {
        Self::new()
    }
}

impl MicroCreator {
    /// A creator with the standard 19-pass pipeline and default config.
    pub fn new() -> Self {
        MicroCreator { pm: PassManager::standard(), config: CreatorConfig::default() }
    }

    /// A creator with a custom configuration.
    pub fn with_config(config: CreatorConfig) -> Self {
        MicroCreator { pm: PassManager::standard(), config }
    }

    /// Mutable access to the pipeline (for direct pass surgery).
    pub fn pass_manager(&mut self) -> &mut PassManager {
        &mut self.pm
    }

    /// The active configuration.
    pub fn config(&self) -> &CreatorConfig {
        &self.config
    }

    /// Runs a plugin's `pluginInit` against this creator's pipeline.
    pub fn register_plugin(&mut self, plugin: &dyn Plugin) -> CreatorResult<()> {
        plugin.init(&mut self.pm)
    }

    /// Generates every program variant for a description.
    pub fn generate(&self, desc: &KernelDesc) -> CreatorResult<GenerationResult> {
        let mut ctx = GenContext::new(desc.clone(), self.config.clone());
        let raw_stats = self.pm.run(&mut ctx)?;
        let stats = raw_stats
            .into_iter()
            .map(|(pass, ran, candidates, programs)| PassStat { pass, ran, candidates, programs })
            .collect();
        Ok(GenerationResult { programs: ctx.programs, stats })
    }

    /// Parses a kernel description XML document and generates its programs.
    pub fn generate_from_xml(&self, xml: &str) -> CreatorResult<GenerationResult> {
        let desc = mc_kernel::xml::parse_kernel(xml)?;
        self.generate(&desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CreatorError;
    use mc_kernel::builder::{figure6, four_mnemonic};
    use mc_kernel::UnrollRange;

    #[test]
    fn figure6_generates_510_programs() {
        // §3: "MicroCreator generated 510 benchmark program variations"
        // from the (Load|Store)+ file: Σ_{u=1..8} 2^u = 510.
        let result = MicroCreator::new().generate(&figure6()).unwrap();
        assert_eq!(result.programs.len(), 510);
    }

    #[test]
    fn four_instruction_study_exceeds_two_thousand() {
        // §3: "MicroCreator automatically generates more than two thousand
        // benchmark programs from a single input file" — the four-mnemonic
        // variant of Figure 6: 4 × 510 = 2040.
        let result = MicroCreator::new().generate(&four_mnemonic()).unwrap();
        assert_eq!(result.programs.len(), 2040);
        assert!(result.programs.len() > 2000);
    }

    #[test]
    fn stats_cover_all_nineteen_passes() {
        let result = MicroCreator::new().generate(&figure6()).unwrap();
        assert_eq!(result.stats.len(), 19);
        assert_eq!(result.stats[0].pass, "validate-input");
        assert_eq!(result.stats[18].pass, "codegen");
        // Codegen moves every candidate into its program.
        assert_eq!((result.stats[18].candidates, result.stats[18].programs), (0, 510));
        // Gated-off passes are recorded as not-run.
        let random = result.stats.iter().find(|s| s.pass == "random-selection").unwrap();
        assert!(!random.ran);
        let limit = result.stats.iter().find(|s| s.pass == "limit").unwrap();
        assert!(!limit.ran);
    }

    #[test]
    fn limit_config_caps_output() {
        let creator = MicroCreator::with_config(CreatorConfig::default().with_limit(25));
        let result = creator.generate(&figure6()).unwrap();
        assert_eq!(result.programs.len(), 25);
    }

    #[test]
    fn generate_from_xml_matches_builder() {
        let xml = mc_kernel::xml::kernel_to_xml(&figure6());
        let from_xml = MicroCreator::new().generate_from_xml(&xml).unwrap();
        let from_builder = MicroCreator::new().generate(&figure6()).unwrap();
        assert_eq!(from_xml.programs.len(), from_builder.programs.len());
        for (a, b) in from_xml.programs.iter().zip(&from_builder.programs) {
            assert_eq!(a.to_asm_string(), b.to_asm_string());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = MicroCreator::new().generate(&figure6()).unwrap();
        let b = MicroCreator::new().generate(&figure6()).unwrap();
        let texts = |r: &GenerationResult| -> Vec<String> {
            r.programs.iter().map(|p| p.to_asm_string()).collect()
        };
        assert_eq!(texts(&a), texts(&b));
    }

    #[test]
    fn figure8_text_is_among_the_generated_programs() {
        // The exact Figure 8 output (modulo the explicit `0(%rsi)` spelling)
        // must be one of the 510.
        let result = MicroCreator::new().generate(&figure6()).unwrap();
        let expected = "\
.L6:
\t#Unrolling iterations
\tmovaps %xmm0, (%rsi)
\tmovaps 16(%rsi), %xmm1
\tmovaps %xmm2, 32(%rsi)
\t#Induction variables
\taddq $48, %rsi
\tsubq $12, %rdi
\tjge .L6
";
        assert!(
            result.programs.iter().any(|p| p.to_asm_string() == expected),
            "Figure 8 kernel not found among generated programs"
        );
    }

    /// Generates from the XML of Figure 6 with another unroll range.
    fn generate_figure6_xml(unrolling: UnrollRange) -> CreatorResult<GenerationResult> {
        let mut desc = figure6();
        desc.unrolling = unrolling;
        MicroCreator::new().generate_from_xml(&mc_kernel::xml::kernel_to_xml(&desc))
    }

    fn refused_at(result: CreatorResult<GenerationResult>) -> String {
        match result {
            Err(CreatorError::TooManyCandidates { cap, pass }) => {
                assert_eq!(cap, CreatorConfig::default().max_candidates);
                pass
            }
            Err(other) => panic!("expected the candidate cap, got {other}"),
            Ok(r) => panic!("expected the candidate cap, got {} programs", r.programs.len()),
        }
    }

    #[test]
    fn huge_unroll_range_is_refused_before_expanding() {
        // Four billion unroll factors: refused by counting, not by
        // reserving a candidate per factor first.
        let result = generate_figure6_xml(UnrollRange { min: 1, max: 4_000_000_000 });
        assert_eq!(refused_at(result), "unroll-selection");
    }

    #[test]
    fn forty_swap_sites_are_refused_before_expanding() {
        // Unroll 40 with <swap_after_unroll/> asks for 2^40 direction
        // patterns.
        let result = generate_figure6_xml(UnrollRange::fixed(40));
        assert_eq!(refused_at(result), "operand-swap-after");
    }

    /// The pass that refused a description for the copies it would build.
    fn refused_copies_at(result: CreatorResult<GenerationResult>) -> String {
        match result {
            Err(CreatorError::Pass { pass, message }) => {
                assert!(message.contains("instruction copies"), "{message}");
                pass
            }
            Err(other) => panic!("expected the copy bound, got {other}"),
            Ok(r) => panic!("expected the copy bound, got {} programs", r.programs.len()),
        }
    }

    #[test]
    fn four_billion_unrolled_copies_are_refused_before_copying() {
        // One unroll factor, so a fan-out of 1, but four billion copies
        // of the body.
        let result = generate_figure6_xml(UnrollRange::fixed(4_000_000_000));
        assert_eq!(refused_copies_at(result), "unrolling");
    }

    #[test]
    fn swap_patterns_of_a_wide_body_are_refused_before_copying() {
        // Unroll 16 of one marked and one plain instruction: 2^16
        // patterns fit the candidate cap, but each carries 32 copies.
        let mut desc = figure6();
        let mut plain = desc.instructions[0].clone();
        plain.swap_after_unroll = false;
        desc.instructions.push(plain);
        desc.unrolling = UnrollRange::fixed(16);
        let xml = mc_kernel::xml::kernel_to_xml(&desc);
        let result = MicroCreator::new().generate_from_xml(&xml);
        assert_eq!(refused_copies_at(result), "operand-swap-after");
    }

    #[test]
    fn four_billion_repeated_copies_are_refused_before_copying() {
        // One repetition count, so a fan-out of 1, but four billion
        // copies of the instruction.
        let mut desc = figure6();
        desc.instructions[0].repeat = Some((4_000_000_000, 4_000_000_000));
        let xml = mc_kernel::xml::kernel_to_xml(&desc);
        assert!(xml.contains("<repeat>"), "{xml}");
        let result = MicroCreator::new().generate_from_xml(&xml);
        assert_eq!(refused_copies_at(result), "instruction-repetition");
    }

    #[test]
    fn invalid_description_fails_at_validate() {
        let mut desc = figure6();
        desc.unrolling = UnrollRange { min: 3, max: 1 };
        let err = MicroCreator::new().generate(&desc).unwrap_err();
        assert!(err.to_string().contains("unroll"), "{err}");
    }
}
