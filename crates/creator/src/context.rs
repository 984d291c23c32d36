//! Shared mutable state threaded through the passes.

use crate::candidate::Candidate;
use crate::config::CreatorConfig;
use crate::error::{CreatorError, CreatorResult};
use mc_kernel::Program;
use mc_report::SplitMix64;

/// Bound on the instruction copies one pass may build across the
/// candidate set. The candidate cap bounds how many variants a
/// description expands into; this bounds the bodies they carry, so an
/// `<unrolling>` or `<repeat>` of four billion (fan-out 1) is refused
/// before a single copy is made.
pub const MAX_COPIES: usize = 1 << 20;

/// The generation context: configuration, the in-flight candidate set, the
/// finished programs, and the seeded RNG every stochastic pass must use.
pub struct GenContext {
    /// Run configuration.
    pub config: CreatorConfig,
    /// In-flight candidates; expansion passes grow this set, and `codegen`
    /// drains it into `programs`.
    pub candidates: Vec<Candidate>,
    /// Finished programs (filled by the `codegen` pass).
    pub programs: Vec<Program>,
    /// The seeded RNG (determinism contract: passes draw only from here).
    pub rng: SplitMix64,
}

impl GenContext {
    /// Creates a context holding the seed candidate for one description.
    pub fn new(desc: mc_kernel::KernelDesc, config: CreatorConfig) -> Self {
        let rng = SplitMix64::seed_from_u64(config.seed);
        GenContext { config, candidates: vec![Candidate::seed(desc)], programs: Vec::new(), rng }
    }

    /// Fails with [`CreatorError::TooManyCandidates`] unless an expansion
    /// that turns each candidate `c` into `fanout(c)` candidates stays
    /// under the cap. `fanout` returns `None` when its count overflows.
    /// Expansion passes call this before [`GenContext::expand`], so no
    /// closure reserves or builds an expansion the cap would reject.
    pub fn check_fanout<F>(&self, pass: &str, fanout: F) -> CreatorResult<()>
    where
        F: FnMut(&Candidate) -> Option<usize>,
    {
        let cap = self.config.max_candidates;
        if self.total_within(cap, fanout) {
            Ok(())
        } else {
            Err(CreatorError::TooManyCandidates { cap, pass: pass.to_owned() })
        }
    }

    /// Fails with a [`CreatorError::Pass`] unless a pass that builds
    /// `copies(c)` instruction copies for each candidate `c` stays within
    /// [`MAX_COPIES`] in total. `copies` returns `None` when its count
    /// overflows. Passes that replicate instructions call this before
    /// building anything.
    pub fn check_copies<F>(&self, pass: &str, copies: F) -> CreatorResult<()>
    where
        F: FnMut(&Candidate) -> Option<usize>,
    {
        if self.total_within(MAX_COPIES, copies) {
            Ok(())
        } else {
            Err(CreatorError::Pass {
                pass: pass.to_owned(),
                message: format!(
                    "the description expands to more than {MAX_COPIES} instruction copies"
                ),
            })
        }
    }

    /// Whether `count` summed over the candidates, with checked
    /// arithmetic, stays within `bound`.
    fn total_within<F>(&self, bound: usize, mut count: F) -> bool
    where
        F: FnMut(&Candidate) -> Option<usize>,
    {
        let mut total = 0usize;
        self.candidates.iter().all(|cand| match count(cand).and_then(|n| total.checked_add(n)) {
            Some(t) if t <= bound => {
                total = t;
                true
            }
            _ => false,
        })
    }

    /// Replaces every candidate with the expansion `f` produces for it,
    /// enforcing the candidate-explosion cap. `pass` names the caller for
    /// error reporting.
    pub fn expand<F>(&mut self, pass: &str, mut f: F) -> CreatorResult<()>
    where
        F: FnMut(&Candidate) -> CreatorResult<Vec<Candidate>>,
    {
        let mut next = Vec::with_capacity(self.candidates.len());
        for cand in &self.candidates {
            let produced = f(cand)?;
            next.extend(produced);
            if next.len() > self.config.max_candidates {
                return Err(CreatorError::TooManyCandidates {
                    cap: self.config.max_candidates,
                    pass: pass.to_owned(),
                });
            }
        }
        self.candidates = next;
        Ok(())
    }

    /// Applies an in-place transformation to every candidate.
    pub fn for_each<F>(&mut self, pass: &str, mut f: F) -> CreatorResult<()>
    where
        F: FnMut(&mut Candidate) -> Result<(), String>,
    {
        for cand in &mut self.candidates {
            f(cand).map_err(|message| CreatorError::Pass { pass: pass.into(), message })?;
        }
        Ok(())
    }
}

/// The number of combinations of choice lists with these lengths, or
/// `None` on overflow: the fan-out of a cartesian expansion.
pub(crate) fn product(lens: impl IntoIterator<Item = usize>) -> Option<usize> {
    lens.into_iter().try_fold(1usize, usize::checked_mul)
}

/// `2^k`, or `None` on overflow: the fan-out of `k` independent swaps.
pub(crate) fn power_of_two(k: usize) -> Option<usize> {
    u32::try_from(k).ok().and_then(|k| 1usize.checked_shl(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_kernel::builder::figure6;

    fn ctx() -> GenContext {
        GenContext::new(figure6(), CreatorConfig::default())
    }

    #[test]
    fn starts_with_one_seed() {
        let c = ctx();
        assert_eq!(c.candidates.len(), 1);
        assert!(c.programs.is_empty());
    }

    #[test]
    fn expand_replaces_candidates() {
        let mut c = ctx();
        c.expand("test", |cand| Ok(vec![cand.clone(), cand.clone(), cand.clone()])).unwrap();
        assert_eq!(c.candidates.len(), 3);
        c.expand("test", |_| Ok(vec![])).unwrap();
        assert!(c.candidates.is_empty());
    }

    #[test]
    fn expand_enforces_cap() {
        let mut c = ctx();
        c.config.max_candidates = 5;
        let err = c.expand("exploder", |cand| Ok(vec![cand.clone(); 10])).unwrap_err();
        assert!(matches!(err, CreatorError::TooManyCandidates { cap: 5, .. }));
    }

    #[test]
    fn check_fanout_rejects_before_expanding() {
        let mut c = ctx();
        c.config.max_candidates = 5;
        assert!(c.check_fanout("fits", |_| Some(5)).is_ok());
        let err = c.check_fanout("wide", |_| Some(6)).unwrap_err();
        assert!(
            matches!(err, CreatorError::TooManyCandidates { cap: 5, ref pass } if pass == "wide")
        );
        assert!(c.check_fanout("overflow", |_| None).is_err());
        c.candidates.push(c.candidates[0].clone());
        assert!(c.check_fanout("summed", |_| Some(3)).is_err(), "3 + 3 > 5");
    }

    #[test]
    fn fanout_arithmetic_is_checked() {
        assert_eq!(product([2, 3, 4]), Some(24));
        assert_eq!(product([]), Some(1));
        assert_eq!(product([usize::MAX, 2]), None);
        assert_eq!(power_of_two(3), Some(8));
        assert_eq!(power_of_two(usize::BITS as usize - 1), Some(1 << (usize::BITS - 1)));
        assert_eq!(power_of_two(usize::BITS as usize), None);
    }

    #[test]
    fn for_each_reports_pass_name() {
        let mut c = ctx();
        let err = c.for_each("failing-pass", |_| Err("broke".into())).unwrap_err();
        assert_eq!(err.to_string(), "pass `failing-pass` failed: broke");
    }

    #[test]
    fn rng_is_seed_deterministic() {
        let mut a = GenContext::new(figure6(), CreatorConfig::default().with_seed(9));
        let mut b = GenContext::new(figure6(), CreatorConfig::default().with_seed(9));
        assert_eq!(a.rng.next_u64(), b.rng.next_u64());
    }
}
