//! The regression gate: did a measured point get slower than its noise?
//!
//! MicroLauncher's stability protocol (§4.5) records a replication spread
//! with every measurement. `mc-report diff` (two documents) and
//! `mc-report trend` (N registered runs) judge the observations of one
//! series the same way, with [`judge`]:
//!
//! * the **baseline** is the median of every observation before the
//!   latest (for two observations, the first), so one noisy historical
//!   run cannot drag the reference;
//! * the latest observation **regresses** when its relative delta from
//!   the baseline exceeds the noise band and **improves** when it falls
//!   below the negated band;
//! * the **streak** counts the trailing observations above the band — a
//!   streak above one is a sustained regression, not a blip.
//!
//! The two subcommands differ only in how wide the band is ([`Band`]),
//! and both list their series worst mover first ([`worst_first`]).

use crate::stats::percentile;
use crate::table::fmt_f;
use std::cmp::Ordering;

/// Relative-delta floor below which movement is never flagged (1%).
pub const DEFAULT_FLOOR: f64 = 0.01;

/// Band width as a multiple of a recorded replication spread.
const BAND_FACTOR: f64 = 2.0;

/// One measured point of a sweep document or a registered run.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Which document the point came from (CSV name, experiment).
    pub document: String,
    /// Join key (`kernel|label|mode|workers` or `series|x`).
    pub key: String,
    /// The measured value (`cycles_per_iteration` or `y`).
    pub value: f64,
    /// Own relative replication spread (`(max − min) / median`; zero when
    /// the document carries no per-row samples).
    pub spread: f64,
    /// Whether the replication met the stability criterion.
    pub stable: bool,
    /// What the point is bound on (`-` when unknown). Only `diff` reads
    /// it; the registry does not store it.
    pub bottleneck: String,
}

/// The knobs of `diff` and `trend`.
#[derive(Debug, Clone)]
pub struct GateOptions {
    /// Relative-delta floor below which movement is never flagged.
    pub floor: f64,
    /// Maximum rows in the rendered table.
    pub top: usize,
}

/// How wide a series' noise band is, the one rule `diff` and `trend`
/// differ on; every band is at least the floor.
#[derive(Debug, Clone, Copy)]
pub enum Band {
    /// `diff`: `max(floor, 2 × the larger spread of the pair,
    /// noise_floor)`, the noise floor coming from [`noise_floor`] over the
    /// baseline document.
    Pair {
        /// Twice the 95th percentile of the baseline's spreads.
        noise_floor: f64,
    },
    /// `trend`: `max(floor, 2 × median spread, 2 × worst unstable spread)`.
    History,
}

/// Twice the 95th percentile of a document's replication spreads (zero
/// when it has none): documents whose replication is noisy get
/// proportionally wider bands.
pub fn noise_floor(spreads: &[f64]) -> f64 {
    BAND_FACTOR * percentile(spreads, 95.0).unwrap_or(0.0)
}

impl Band {
    fn width(self, floor: f64, points: &[Point]) -> f64 {
        match self {
            Band::Pair { noise_floor } => {
                let own = points.iter().map(|p| p.spread).reduce(f64::max);
                floor.max(BAND_FACTOR * own.unwrap_or(0.0)).max(noise_floor)
            }
            Band::History => {
                let spreads: Vec<f64> = points.iter().map(|p| p.spread).collect();
                let band = floor.max(BAND_FACTOR * percentile(&spreads, 50.0).unwrap_or(0.0));
                let unstable = points.iter().filter(|p| !p.stable).map(|p| p.spread);
                match unstable.max_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal)) {
                    Some(worst) => band.max(BAND_FACTOR * worst),
                    None => band,
                }
            }
        }
    }
}

/// One series judged against its noise band: the result row of both
/// `diff` and `trend`.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The observations, oldest first (two or more).
    points: Vec<Point>,
    /// Median of all but the latest observation.
    pub baseline: f64,
    /// `(latest − baseline) / baseline`.
    pub delta_rel: f64,
    /// Relative noise band the delta must clear.
    pub band_rel: f64,
    /// Trailing observations whose value sat above `baseline × (1 + band)`.
    pub streak: usize,
}

impl Verdict {
    /// The observations, oldest first (`diff`: the baseline row, then the
    /// new row).
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The oldest observation; its document and key name the series.
    pub fn first(&self) -> &Point {
        &self.points[0]
    }

    /// The latest observation.
    pub fn latest(&self) -> &Point {
        &self.points[self.points.len() - 1]
    }

    /// True when the latest value slowed beyond the noise band.
    pub fn regressed(&self) -> bool {
        self.delta_rel > self.band_rel
    }

    /// True when the latest value improved beyond the noise band.
    pub fn improved(&self) -> bool {
        self.delta_rel < -self.band_rel
    }

    /// The table cells `diff` and `trend` render for the verdict:
    /// baseline, latest, the delta with its label (` REGRESSED`,
    /// ` REGRESSED xN` for a streak of N, or ` improved`), and the band.
    pub fn cells(&self) -> [String; 4] {
        let label = if self.regressed() && self.streak > 1 {
            format!(" REGRESSED x{}", self.streak)
        } else if self.regressed() {
            " REGRESSED".to_owned()
        } else if self.improved() {
            " improved".to_owned()
        } else {
            String::new()
        };
        [
            fmt_f(self.baseline, 4),
            fmt_f(self.latest().value, 4),
            format!("{:+.2}%{label}", self.delta_rel * 100.0),
            format!("{:.2}%", self.band_rel * 100.0),
        ]
    }
}

/// Judges one series from its observations, oldest first. `None` when
/// there are fewer than two or the baseline is not positive.
pub fn judge(points: Vec<Point>, band: Band, floor: f64) -> Option<Verdict> {
    let (latest, prior) = points.split_last()?;
    let first = prior.first()?;
    let prior: Vec<f64> = prior.iter().map(|p| p.value).collect();
    let baseline = percentile(&prior, 50.0).unwrap_or(first.value);
    if baseline <= 0.0 {
        return None;
    }
    let delta = |value: f64| (value - baseline) / baseline;
    let delta_rel = delta(latest.value);
    let band_rel = band.width(floor, &points);
    let streak = points.iter().rev().take_while(|p| delta(p.value) > band_rel).count();
    Some(Verdict { points, baseline, delta_rel, band_rel, streak })
}

/// Worst movers first (largest `|delta|`), ties by document and key.
pub fn worst_first(a: &Verdict, b: &Verdict) -> Ordering {
    let (a1, b1) = (a.first(), b.first());
    b.delta_rel
        .abs()
        .partial_cmp(&a.delta_rel.abs())
        .unwrap_or(Ordering::Equal)
        .then_with(|| (&a1.document, &a1.key).cmp(&(&b1.document, &b1.key)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::{check, coin, pick};
    use crate::rng::SplitMix64;

    /// Reference: `diff`'s band rule and verdict written out longhand,
    /// `(threshold, regressed, improved)` for one matched pair.
    fn oracle_diff(base_spreads: &[f64], bp: &Point, np: &Point, floor: f64) -> (f64, bool, bool) {
        let noise_floor = 2.0 * percentile(base_spreads, 95.0).unwrap_or(0.0);
        let threshold = floor.max(2.0 * bp.spread.max(np.spread)).max(noise_floor);
        let delta_rel = (np.value - bp.value) / bp.value;
        (threshold, delta_rel > threshold, delta_rel < -threshold)
    }

    /// Reference: `trend`'s band rule and verdict written out longhand,
    /// `(baseline, delta_rel, band_rel, streak)`, `None` when skipped.
    fn oracle_trend(observations: &[Point], floor: f64) -> Option<(f64, f64, f64, usize)> {
        let values: Vec<f64> = observations.iter().map(|o| o.value).collect();
        let prior = &values[..values.len() - 1];
        let baseline = percentile(prior, 50.0).unwrap_or(values[0]);
        if baseline <= 0.0 {
            return None;
        }
        let latest = *values.last().expect("len >= 2");
        let delta_rel = (latest - baseline) / baseline;
        let spreads: Vec<f64> = observations.iter().map(|o| o.spread).collect();
        let median_spread = percentile(&spreads, 50.0).unwrap_or(0.0);
        let mut band_rel = floor.max(2.0 * median_spread);
        if let Some(unstable_max) = observations
            .iter()
            .filter(|o| !o.stable)
            .map(|o| o.spread)
            .max_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
        {
            band_rel = band_rel.max(2.0 * unstable_max);
        }
        let streak =
            values.iter().rev().take_while(|v| (**v - baseline) / baseline > band_rel).count();
        Some((baseline, delta_rel, band_rel, streak))
    }

    /// A random point: values cluster so that ties, zero and negative
    /// baselines, and deltas near the band all occur.
    fn point(rng: &mut SplitMix64, key: &str) -> Point {
        let value = match rng.gen_range(0..8u32) {
            0 => 0.0,
            1 => -1.0,
            2 => pick(rng, &[4.0, 4.04, 4.2, 5.0]),
            _ => 0.5 + rng.next_f64() * 10.0,
        };
        let spread = match rng.gen_range(0..4u32) {
            0 => 0.0,
            1 => pick(rng, &[0.01, 0.02, 0.3]),
            _ => rng.next_f64() * 0.4,
        };
        Point {
            document: "doc".into(),
            key: key.into(),
            value,
            spread,
            stable: coin(rng),
            bottleneck: "-".into(),
        }
    }

    fn floor(rng: &mut SplitMix64) -> f64 {
        pick(rng, &[0.0, DEFAULT_FLOOR, 0.05, 0.3])
    }

    #[test]
    fn pair_band_matches_the_diff_oracle() {
        check(2000, |rng| {
            let base: Vec<Point> = (0..rng.gen_range(1..6usize)).map(|_| point(rng, "k")).collect();
            let spreads: Vec<f64> = base.iter().map(|p| p.spread).collect();
            let bp = pick(rng, &base);
            let np = point(rng, "k");
            let floor = floor(rng);
            let band = Band::Pair { noise_floor: noise_floor(&spreads) };
            let verdict = judge(vec![bp.clone(), np.clone()], band, floor);
            if bp.value <= 0.0 {
                assert!(verdict.is_none(), "{bp:?}");
                return;
            }
            let verdict = verdict.expect("positive baseline");
            let (threshold, regressed, improved) = oracle_diff(&spreads, &bp, &np, floor);
            // diff printed the two rows' own values as base and new.
            assert_eq!(verdict.baseline.to_bits(), bp.value.to_bits());
            assert_eq!(verdict.latest(), &np);
            assert_eq!(verdict.band_rel.to_bits(), threshold.to_bits(), "{bp:?} {np:?}");
            assert_eq!(verdict.delta_rel.to_bits(), ((np.value - bp.value) / bp.value).to_bits());
            assert_eq!((verdict.regressed(), verdict.improved()), (regressed, improved));
            // Two observations never make a streak: the label is diff's.
            let [_, _, delta, _] = verdict.cells();
            assert!(!delta.contains(" x"), "{delta}");
        });
    }

    #[test]
    fn history_band_matches_the_trend_oracle() {
        check(2000, |rng| {
            let observations: Vec<Point> =
                (0..rng.gen_range(2..9usize)).map(|_| point(rng, "k")).collect();
            let floor = floor(rng);
            let verdict = judge(observations.clone(), Band::History, floor);
            let Some((baseline, delta_rel, band_rel, streak)) = oracle_trend(&observations, floor)
            else {
                assert!(verdict.is_none(), "{observations:?}");
                return;
            };
            let v = verdict.expect("oracle judged it");
            assert_eq!(v.baseline.to_bits(), baseline.to_bits(), "{observations:?}");
            assert_eq!(v.delta_rel.to_bits(), delta_rel.to_bits(), "{observations:?}");
            assert_eq!(v.band_rel.to_bits(), band_rel.to_bits(), "{observations:?}");
            assert_eq!(v.streak, streak, "{observations:?}");
            assert_eq!(
                (v.regressed(), v.improved()),
                (delta_rel > band_rel, delta_rel < -band_rel)
            );
        });
    }
}
