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
//! * step 7's domination test, `SubsetIndex`: a strictly more general
//!   kept group with confidence `>=` rejects the candidate, answered
//!   from item postings rather than a scan of everything kept, and
//!   applied over a whole sorted set by [`retain_interesting`].
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

/// Step 7's domination test over a growing set of kept groups: whether
/// some kept group is strictly more general than a candidate with
/// confidence `>=` its own.
///
/// Kept groups are posted under each item of their upper bound. A
/// query bumps a counter on every group posted under one of the
/// candidate's items; a group whose counter reaches its own `|upper|`
/// has every item in the candidate, i.e. its upper is a subset of the
/// candidate's (kept groups with an empty upper are a subset of
/// anything and are checked on their own). The same screens as a
/// linear scan — total support `>`, confidence `>=`, `|upper|` `<` —
/// then decide, so the verdict is the linear scan's, at a cost
/// proportional to the postings the candidate's items touch rather
/// than to everything kept. This is the counting match
/// `serve::RuleGroupIndex` runs at θ = 1.
#[derive(Default)]
pub(crate) struct SubsetIndex {
    /// Per kept group, in insertion order: total support, confidence
    /// and `|upper|`.
    kept: Vec<(usize, f64, u32)>,
    /// `postings[item]` = kept groups whose upper contains `item`.
    postings: Vec<Vec<u32>>,
    /// Kept groups with an empty upper.
    empty: Vec<u32>,
    /// Query scratch: per-group counters (all zero between queries)
    /// and the groups they were bumped on.
    counts: Vec<u32>,
    touched: Vec<u32>,
}

impl SubsetIndex {
    /// Whether a kept group dominates `c`.
    pub(crate) fn dominates<C: Candidate>(&mut self, c: &C) -> bool {
        let (p, n) = c.counts();
        let (total, conf, len) = (p + n, c.conf(), c.upper().len());
        let beats = |&(g_total, g_conf, g_len): &(usize, f64, u32)| {
            g_total > total && g_conf >= conf && (g_len as usize) < len
        };
        if self.empty.iter().any(|&g| beats(&self.kept[g as usize])) {
            return true;
        }
        for item in c.upper().iter() {
            let Some(posting) = self.postings.get(item as usize) else {
                continue;
            };
            for &g in posting {
                if self.counts[g as usize] == 0 {
                    self.touched.push(g);
                }
                self.counts[g as usize] += 1;
            }
        }
        let mut dominated = false;
        for g in self.touched.drain(..) {
            let count = std::mem::take(&mut self.counts[g as usize]);
            let kept = &self.kept[g as usize];
            dominated = dominated || (count == kept.2 && beats(kept));
        }
        dominated
    }

    /// Adds `c` to the kept groups.
    pub(crate) fn insert<C: Candidate>(&mut self, c: &C) {
        let (p, n) = c.counts();
        let g = self.kept.len() as u32;
        self.kept.push((p + n, c.conf(), c.upper().len() as u32));
        self.counts.push(0);
        if c.upper().is_empty() {
            self.empty.push(g);
        }
        for item in c.upper().iter() {
            let item = item as usize;
            if item >= self.postings.len() {
                self.postings.resize_with(item + 1, Vec::new);
            }
            self.postings[item].push(g);
        }
    }
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
    let mut index = SubsetIndex::default();
    let mut kept = Vec::new();
    for c in sorted {
        if index.dominates(&c) {
            stats.rejected_not_interesting += 1;
            obs.pruned(PruneReason::NotInteresting);
        } else {
            let (p, n) = c.counts();
            obs.group_emitted(p, n);
            index.insert(&c);
            kept.push(c);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::CountingObserver;
    use farmer_support::check::prelude::*;

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
        let mut general = SubsetIndex::default();
        general.insert(&g(&[1], 6, 2)); // conf 0.75
        assert!(general.dominates(&g(&[1, 2], 2, 1))); // 0.67
        assert!(general.dominates(&g(&[1, 2], 3, 1))); // equal conf
        assert!(!general.dominates(&g(&[1, 2], 2, 0))); // 1.0
        assert!(!general.dominates(&g(&[2, 3], 1, 1))); // not a superset
        assert!(!general.dominates(&g(&[1], 6, 2))); // itself
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

    /// Records each step-7 verdict in order: `true` = kept.
    #[derive(Default)]
    struct Verdicts(Vec<bool>);

    impl MineObserver for Verdicts {
        fn pruned(&mut self, reason: PruneReason) {
            assert_eq!(reason, PruneReason::NotInteresting);
            self.0.push(false);
        }
        fn group_emitted(&mut self, _: usize, _: usize) {
            self.0.push(true);
        }
    }

    /// Step 7 by definition: scan everything kept so far.
    fn linear_verdicts(cands: &[G]) -> Vec<bool> {
        let mut kept: Vec<&G> = Vec::new();
        let mut verdicts = Vec::new();
        for c in cands {
            let dominated = kept.iter().any(|g| {
                g.1 + g.2 > c.1 + c.2
                    && g.conf() >= c.conf()
                    && g.0.len() < c.0.len()
                    && g.0.is_subset(&c.0)
            });
            if !dominated {
                kept.push(c);
            }
            verdicts.push(!dominated);
        }
        verdicts
    }

    check! {
        #![config(cases = 256)]

        /// The indexed `retain_interesting` keeps exactly what a linear
        /// scan keeps and reports the same verdicts in the same order.
        /// Small item and count ranges make empty uppers, equal
        /// confidences (1/2 vs 2/4), equal total supports and items no
        /// kept group carries common — cases mined data rarely
        /// produces.
        #[test]
        fn indexed_domination_equals_linear_scan(
            raw in collection::vec(
                (
                    collection::btree_set(0u32..7, 0..4),
                    1usize..5,
                    0usize..4,
                ),
                0..40,
            ),
        ) {
            let cands = || {
                raw.iter()
                    .map(|(items, p, n)| g(&items.iter().copied().collect::<Vec<_>>(), *p, *n))
                    .collect::<Vec<G>>()
            };
            let mut sorted = cands();
            sort_dedup(&mut sorted);
            // the generality order the merge uses, and discovery-like
            // arbitrary order as the sequential emit sees it
            for order in [sorted, cands()] {
                let want = linear_verdicts(&order);
                let want_kept: Vec<IdList> = order
                    .iter()
                    .zip(&want)
                    .filter(|(_, &k)| k)
                    .map(|(c, _)| c.0.clone())
                    .collect();
                let mut obs = Verdicts::default();
                let mut stats = MineStats::default();
                let kept = retain_interesting(order, &mut obs, &mut stats);
                let kept: Vec<IdList> = kept.into_iter().map(|c| c.0).collect();
                prop_assert_eq!(&obs.0, &want);
                prop_assert_eq!(kept, want_kept);
                let rejected = want.iter().filter(|&&k| !k).count() as u64;
                prop_assert_eq!(stats.rejected_not_interesting, rejected);
            }
        }
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
