//! Rule-group assembly: the decisions every IRG producer shares.
//!
//! Turning candidate closed groups into interesting rule groups takes
//! four decisions. Every producer — the miner's inline emit, its merge,
//! the streaming pipeline's re-assembly and the column-enumeration
//! baselines — makes them here, so all of them answer the same question
//! with the same `f64` arithmetic:
//!
//! * the threshold test, [`Thresholds::admit`]: `min_sup`, the
//!   effective confidence floor (`min_conf` tightened by
//!   lift/conviction), χ², then the footnote-3 extras;
//! * the `(|upper|, upper)` generality order and the removal of
//!   duplicate uppers, [`sort_dedup`];
//! * step 7's domination test, `is_dominated`: a strictly more general
//!   kept group with confidence `>=` rejects the candidate, applied
//!   over a whole sorted set by [`retain_interesting`].
//!
//! The brute-force [`naive`] oracle deliberately keeps its own copy of
//! every decision, so the tests check this module rather than trust it.
//!
//! [`naive`]: crate::naive

use crate::measures::{self, chi_square, Contingency};
use crate::params::{ExtraConstraint, MiningParams};
use crate::rule::{MineStats, RuleGroup};
use crate::session::{MineObserver, PruneReason};
use rowset::IdList;

/// A candidate rule group as assembly sees it: a closed upper bound
/// with its class-split support counts and confidence.
pub trait Candidate {
    /// The group's upper bound (closed antecedent).
    fn upper(&self) -> &IdList;
    /// `(|R(upper) ∩ R(C)|, |R(upper) \ R(C)|)`.
    fn counts(&self) -> (usize, usize);
    /// Rule confidence, exactly as [`Thresholds::admit`] computed it.
    fn conf(&self) -> f64;
}

impl Candidate for RuleGroup {
    fn upper(&self) -> &IdList {
        &self.upper
    }

    fn counts(&self) -> (usize, usize) {
        (self.sup, self.neg_sup)
    }

    fn conf(&self) -> f64 {
        self.confidence()
    }
}

/// The emission thresholds of one mining target: a dataset of `n` rows
/// of which `m` carry the target class.
pub struct Thresholds<'a> {
    params: &'a MiningParams,
    n: usize,
    m: usize,
    /// `min_conf` tightened by any lift/conviction extras (see
    /// [`MiningParams::effective_min_conf`]); the search prunes
    /// against it too.
    pub(crate) min_conf: f64,
}

impl<'a> Thresholds<'a> {
    /// Thresholds of `params` against the margins `n` (rows) and `m`
    /// (rows of the target class).
    pub fn new(params: &'a MiningParams, n: usize, m: usize) -> Self {
        Thresholds {
            params,
            n,
            m,
            min_conf: params.effective_min_conf(n, m),
        }
    }

    /// The group's confidence if a rule group with `sup_p` target-class
    /// rows and `sup_n` other rows passes every threshold, else `None`.
    pub fn admit(&self, sup_p: usize, sup_n: usize) -> Option<f64> {
        if sup_p < self.params.min_sup {
            return None;
        }
        let conf = sup_p as f64 / (sup_p + sup_n) as f64;
        if conf < self.min_conf {
            return None;
        }
        let t = Contingency::new(sup_p + sup_n, sup_p, self.n, self.m);
        if self.params.min_chi > 0.0 && chi_square(t) < self.params.min_chi {
            return None;
        }
        let extras_ok = self.params.extra.iter().all(|c| match *c {
            ExtraConstraint::MinLift(v) => measures::lift(t) >= v,
            ExtraConstraint::MinConviction(v) => measures::conviction(t) >= v,
            ExtraConstraint::MinEntropyGain(v) => measures::entropy_gain(t) >= v,
            ExtraConstraint::MinGiniGain(v) => measures::gini_gain(t) >= v,
            ExtraConstraint::MinCorrelation(v) => measures::correlation(t) >= v,
        });
        extras_ok.then_some(conf)
    }
}

/// Step 7: whether some group in `kept` is strictly more general than
/// `c` with confidence `>=` its own.
///
/// Uppers are closed, so a proper item subset has a strictly larger
/// support set: the integer and confidence screens reject almost every
/// pair before the subset test, which matters because this scan runs
/// once per candidate over everything kept so far.
pub(crate) fn is_dominated<C: Candidate>(kept: &[C], c: &C) -> bool {
    let (p, n) = c.counts();
    let (total, conf, upper) = (p + n, c.conf(), c.upper());
    kept.iter().any(|g| {
        let (gp, gn) = g.counts();
        gp + gn > total
            && g.conf() >= conf
            && g.upper().len() < upper.len()
            && g.upper().is_subset(upper)
    })
}

/// Sorts `cands` into generality order — fewer items first, ties by
/// itemset order — and removes duplicate uppers (a closed set reached
/// more than once), keeping the first. A proper subset sorts before
/// its supersets, so judging in this order sees every more general
/// group first.
pub fn sort_dedup<C: Candidate>(cands: &mut Vec<C>) {
    cands.sort_by(|a, b| {
        let (a, b) = (a.upper(), b.upper());
        a.len().cmp(&b.len()).then_with(|| a.cmp(b))
    });
    cands.dedup_by(|a, b| a.upper() == b.upper());
}

/// Step 7 over a whole candidate set in [`sort_dedup`] order: keeps
/// each candidate no kept one dominates. Every verdict reaches `obs` in
/// that order (`group_emitted` or `pruned(NotInteresting)`), and
/// rejections are tallied in `stats`.
pub fn retain_interesting<C: Candidate, O: MineObserver + ?Sized>(
    sorted: Vec<C>,
    obs: &mut O,
    stats: &mut MineStats,
) -> Vec<C> {
    let mut kept = Vec::new();
    for c in sorted {
        if is_dominated(&kept, &c) {
            stats.rejected_not_interesting += 1;
            obs.pruned(PruneReason::NotInteresting);
        } else {
            let (p, n) = c.counts();
            obs.group_emitted(p, n);
            kept.push(c);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::CountingObserver;

    struct G(IdList, usize, usize);

    impl Candidate for G {
        fn upper(&self) -> &IdList {
            &self.0
        }
        fn counts(&self) -> (usize, usize) {
            (self.1, self.2)
        }
        fn conf(&self) -> f64 {
            self.1 as f64 / (self.1 + self.2) as f64
        }
    }

    fn g(items: &[u32], p: usize, n: usize) -> G {
        G(IdList::from_iter(items.iter().copied()), p, n)
    }

    #[test]
    fn generality_puts_subsets_first() {
        let mut v = vec![g(&[1, 2], 1, 0), g(&[3], 2, 0), g(&[0, 4], 1, 1)];
        v.extend([g(&[1], 3, 0), g(&[1, 2], 1, 0)]);
        sort_dedup(&mut v);
        let uppers: Vec<&[u32]> = v.iter().map(|c| c.0.as_slice()).collect();
        assert_eq!(uppers, [&[1][..], &[3], &[0, 4], &[1, 2]]);
    }

    #[test]
    fn domination_needs_a_more_general_group_with_no_lower_confidence() {
        let general = [g(&[1], 6, 2)]; // conf 0.75
        assert!(is_dominated(&general, &g(&[1, 2], 2, 1))); // 0.67
        assert!(is_dominated(&general, &g(&[1, 2], 3, 1))); // equal conf
        assert!(!is_dominated(&general, &g(&[1, 2], 2, 0))); // 1.0
        assert!(!is_dominated(&general, &g(&[2, 3], 1, 1))); // not a superset
        assert!(!is_dominated(&general, &g(&[1], 6, 2))); // itself
    }

    #[test]
    fn retain_interesting_reports_every_verdict() {
        let mut v = vec![g(&[1, 2], 2, 1), g(&[1], 3, 1), g(&[1, 3], 2, 0)];
        sort_dedup(&mut v);
        let mut obs = CountingObserver::default();
        let mut stats = MineStats::default();
        let kept = retain_interesting(v, &mut obs, &mut stats);
        let uppers: Vec<&[u32]> = kept.iter().map(|c| c.0.as_slice()).collect();
        assert_eq!(uppers, [&[1][..], &[1, 3]]);
        assert_eq!(stats.rejected_not_interesting, 1);
        assert_eq!((obs.emitted, obs.rejected_not_interesting), (2, 1));
    }

    #[test]
    fn thresholds_apply_the_effective_confidence_floor() {
        // n = 10, m = 5: lift 1.5 demands conf >= 0.75
        let params = MiningParams::new(0)
            .min_sup(2)
            .constrain(ExtraConstraint::MinLift(1.5));
        let th = Thresholds::new(&params, 10, 5);
        assert_eq!(th.min_conf, 0.75);
        assert_eq!(th.admit(3, 1), Some(0.75));
        assert_eq!(th.admit(2, 1), None);
        assert_eq!(th.admit(1, 0), None);
    }
}
