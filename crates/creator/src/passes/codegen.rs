//! Pass 19: code generation — produce the final [`mc_kernel::Program`]
//! values ("Finally, the creator generates the obtained code", §3.2).

use crate::context::GenContext;
use crate::error::CreatorResult;
use crate::pass::Pass;
use mc_kernel::{MemDir, Program};
use std::collections::HashMap;

/// Converts every surviving candidate into a named program, leaving the
/// candidate set empty.
pub struct Codegen;

impl Pass for Codegen {
    fn name(&self) -> &str {
        "codegen"
    }

    fn run(&self, ctx: &mut GenContext) -> CreatorResult<()> {
        let mut name_counts: HashMap<String, u32> = HashMap::new();
        let mut programs = Vec::with_capacity(ctx.candidates.len());
        for cand in ctx.candidates.drain(..) {
            let mut meta = cand.meta;
            // The (Load|Store)+ direction pattern, read off the body.
            meta.directions = cand
                .body
                .iter()
                .filter_map(|inst| {
                    if inst.store_ref().is_some() {
                        Some(MemDir::Store)
                    } else if inst.load_ref().is_some() {
                        Some(MemDir::Load)
                    } else {
                        None
                    }
                })
                .collect();
            let base_name = meta.variant_name();
            let name = match name_counts.get_mut(&base_name) {
                Some(count) => {
                    let name = format!("{base_name}_v{count}");
                    *count += 1;
                    name
                }
                None => {
                    name_counts.insert(base_name.clone(), 1);
                    base_name
                }
            };
            programs.push(Program {
                name,
                nb_arrays: cand.desc.array_registers().len() as u32,
                element_bytes: cand.desc.element_bytes,
                elements_per_iteration: cand.elements_per_iter,
                lines: cand.lines,
                meta,
            });
        }
        ctx.programs = programs;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #[allow(unused_imports)]
    use super::Codegen;
    use crate::generator::MicroCreator;
    use mc_kernel::builder::figure6;
    use mc_kernel::UnrollRange;

    #[test]
    fn names_are_unique_across_a_generation() {
        let result = MicroCreator::new().generate(&figure6()).unwrap();
        let mut names: Vec<&str> = result.programs.iter().map(|p| p.name.as_str()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn directions_match_body() {
        let mut desc = figure6();
        desc.unrolling = UnrollRange::fixed(2);
        let result = MicroCreator::new().generate(&desc).unwrap();
        assert_eq!(result.programs.len(), 4);
        for p in &result.programs {
            assert_eq!(p.meta.directions.len(), 2);
            assert_eq!(p.meta.load_count(), p.load_count());
            assert_eq!(p.meta.store_count(), p.store_count());
        }
    }

    #[test]
    fn program_metadata_propagates() {
        let mut desc = figure6();
        desc.unrolling = UnrollRange::fixed(3);
        let result = MicroCreator::new().generate(&desc).unwrap();
        for p in &result.programs {
            assert_eq!(p.nb_arrays, 1);
            assert_eq!(p.element_bytes, 4);
            assert_eq!(p.elements_per_iteration, 12, "3 copies × 4 floats");
            assert_eq!(p.meta.unroll, 3);
        }
    }
}
