//! Generation-count reproduction (§3, §5.1): "MicroCreator generated 510
//! benchmark program variations" from the Figure 6 file, and "more than
//! two thousand benchmark programs from a single input file" for the
//! four-mnemonic study.

use super::FigureResult;
use mc_asm::inst::Mnemonic;
use mc_creator::MicroCreator;
use mc_kernel::builder::{figure6, four_mnemonic};
use mc_report::experiments::{ExperimentId, ShapeCheck};
use mc_report::table::AsciiTable;

/// Runs the count checks.
pub fn run() -> Result<FigureResult, String> {
    let mut result = FigureResult::new(ExperimentId::Counts, "Generated program counts (§3/§5.1)");
    let creator = MicroCreator::new();

    let single = creator.generate(&figure6()).map_err(|e| e.to_string())?;
    result.outcome.push(ShapeCheck::new(
        "510 variants from the Figure 6 file",
        single.programs.len() == 510,
        format!("generated {}", single.programs.len()),
    ));

    let multi = creator.generate(&four_mnemonic()).map_err(|e| e.to_string())?;
    result.outcome.push(ShapeCheck::new(
        ">2000 variants from the four-mnemonic file",
        multi.programs.len() > 2000,
        format!("generated {}", multi.programs.len()),
    ));
    // The four groups of §5.1 are equal-sized.
    for m in [Mnemonic::Movss, Mnemonic::Movsd, Mnemonic::Movaps, Mnemonic::Movapd] {
        let count = multi.programs.iter().filter(|p| p.meta.mnemonic == Some(m)).count();
        result.outcome.push(ShapeCheck::new(
            format!("{} group holds 510 variants", m.name()),
            count == 510,
            format!("{count} programs"),
        ));
    }

    let mut table = AsciiTable::new(vec!["input file", "programs", "paper"]);
    table.row(vec![
        "Figure 6 (movaps, unroll 1-8, swap-after)".to_owned(),
        single.programs.len().to_string(),
        "510".to_owned(),
    ]);
    table.row(vec![
        "four-mnemonic variant".to_owned(),
        multi.programs.len().to_string(),
        ">2000".to_owned(),
    ]);
    result.table = Some(table.render());
    result.notes.push(format!(
        "paper: 510 and >2000; measured: {} and {} (exact: Σ_{{u=1..8}} 2^u × groups)",
        single.programs.len(),
        multi.programs.len()
    ));
    Ok(result)
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_experiment_passes() {
        let r = super::run().unwrap();
        assert!(r.outcome.passed(), "{}", r.outcome.render());
        assert!(r.table.is_some());
    }

    #[test]
    fn four_mnemonic_file_is_the_kernel_counts_generates() {
        let xml = include_str!("../../../../descriptions/four_mnemonic.xml");
        let parsed = mc_kernel::xml::parse_kernel(xml).unwrap();
        assert_eq!(parsed, super::four_mnemonic());
    }
}
