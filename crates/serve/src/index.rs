//! The in-memory rule-group index: inverted item → group posting
//! lists, per-class partitions, and a precomputed classification
//! ranking, built once from a loaded artifact.

use farmer_classify::{irg_rule, rule_cmp, ScoredRule, IRG_FINGERPRINT_THETA};
use farmer_core::RuleGroup;
use farmer_dataset::ClassLabel;
use farmer_store::{Artifact, ArtifactMeta};
use rowset::IdList;
use std::collections::HashMap;

/// The serving layer's answer to `classify(sample)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// The predicted class.
    pub class: ClassLabel,
    /// The winning group (an index into [`RuleGroupIndex::groups`]),
    /// or `None` when no group matched and the majority-class fallback
    /// answered.
    pub group: Option<u32>,
}

/// An immutable index over the rule groups of one artifact.
///
/// `match` runs over inverted posting lists: for each item the sample
/// carries, bump a counter on every group whose upper bound contains
/// that item; a group matches when its counter reaches the fractional
/// containment threshold `⌈θ·|upper|⌉`. Work is proportional to the
/// posting lists the sample actually touches — groups sharing no item
/// with the sample are never looked at, unlike a linear scan.
///
/// `classify` is the first-matching-rule prediction of
/// `farmer_classify::RuleListClassifier::from_ranked` over the same
/// groups: the matching group whose derived rule ranks first under
/// [`farmer_classify::rule_cmp`] wins; the artifact's majority class
/// answers when nothing matches. The equivalence is pinned by property
/// tests in this crate.
pub struct RuleGroupIndex {
    meta: ArtifactMeta,
    items: ItemNames,
    groups: Vec<RuleGroup>,
    /// `irg_rule(groups[g], theta)`, parallel to `groups`.
    rules: Vec<ScoredRule>,
    theta: f64,
    /// Per group: counter value at which the fractional threshold is
    /// met. `u32::MAX` for empty upper bounds (they never match).
    thresholds: Vec<u32>,
    /// `postings[item]` = sorted ids of groups whose upper bound
    /// contains `item`.
    postings: Vec<Vec<u32>>,
    /// `by_class[c]` = ids of groups predicting class `c`, in
    /// classification-rank order.
    by_class: Vec<Vec<u32>>,
    /// `rank[g]` = position of group `g`'s rule in the canonical
    /// classification order (lower wins).
    rank: Vec<u32>,
}

impl RuleGroupIndex {
    /// Builds the index with an explicit fractional containment
    /// threshold `theta ∈ (0, 1]`.
    pub fn build(artifact: Artifact, theta: f64) -> Self {
        assert!(theta > 0.0 && theta <= 1.0, "theta must be in (0, 1]");
        let Artifact { meta, groups } = artifact;
        let rules: Vec<ScoredRule> = groups.iter().map(|g| irg_rule(g, theta)).collect();

        let mut postings = vec![Vec::new(); meta.n_items()];
        let mut thresholds = Vec::with_capacity(groups.len());
        for (gi, g) in groups.iter().enumerate() {
            for item in g.upper.iter() {
                postings[item as usize].push(gi as u32);
            }
            thresholds.push(match g.upper.len() {
                0 => u32::MAX,
                len => smallest_meeting(theta, len),
            });
        }

        // Argsort group ids by their rules' canonical order; ties are
        // impossible for distinct groups of a well-formed artifact, but
        // the index fall-back keeps the order total regardless.
        let mut order: Vec<u32> = (0..groups.len() as u32).collect();
        order.sort_by(|&a, &b| rule_cmp(&rules[a as usize], &rules[b as usize]).then(a.cmp(&b)));
        let mut rank = vec![0u32; groups.len()];
        for (pos, &gi) in order.iter().enumerate() {
            rank[gi as usize] = pos as u32;
        }
        let mut by_class = vec![Vec::new(); meta.n_classes()];
        for &gi in &order {
            by_class[groups[gi as usize].class as usize].push(gi);
        }

        RuleGroupIndex {
            items: ItemNames::new(&meta),
            meta,
            groups,
            rules,
            theta,
            thresholds,
            postings,
            by_class,
            rank,
        }
    }

    /// Builds the index with the offline IRG classifier's threshold
    /// ([`IRG_FINGERPRINT_THETA`]).
    pub fn from_artifact(artifact: Artifact) -> Self {
        Self::build(artifact, IRG_FINGERPRINT_THETA)
    }

    /// The artifact's dataset metadata.
    pub fn meta(&self) -> &ArtifactMeta {
        &self.meta
    }

    /// The indexed groups, in artifact order.
    pub fn groups(&self) -> &[RuleGroup] {
        &self.groups
    }

    /// The derived classification rules, parallel to [`groups`](Self::groups).
    pub fn rules(&self) -> &[ScoredRule] {
        &self.rules
    }

    /// The fractional containment threshold the index was built with.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Ids of the groups predicting `class`, best rank first.
    pub fn groups_for_class(&self, class: ClassLabel) -> &[u32] {
        self.by_class
            .get(class as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All groups covering `sample` — every group `g` with
    /// `|upper(g) ∩ sample| ≥ θ·|upper(g)|` — as sorted group ids.
    /// Equal, by the property tests, to filtering all groups with
    /// `ScoredRule::matches`.
    pub fn matches(&self, sample: &IdList) -> Vec<u32> {
        let mut counts = vec![0u32; self.groups.len()];
        let mut touched = Vec::new();
        for item in sample.iter() {
            let Some(posting) = self.postings.get(item as usize) else {
                continue; // item unknown to the artifact's dictionary
            };
            for &gi in posting {
                if counts[gi as usize] == 0 {
                    touched.push(gi);
                }
                counts[gi as usize] += 1;
            }
        }
        touched.retain(|&gi| counts[gi as usize] >= self.thresholds[gi as usize]);
        touched.sort_unstable();
        touched
    }

    /// Classifies `sample`: the best-ranked covering group's class, or
    /// the artifact's majority class when nothing covers it.
    pub fn classify(&self, sample: &IdList) -> Prediction {
        let best = self
            .matches(sample)
            .into_iter()
            .min_by_key(|&gi| self.rank[gi as usize]);
        match best {
            Some(gi) => Prediction {
                class: self.groups[gi as usize].class,
                group: Some(gi),
            },
            None => Prediction {
                class: self.meta.majority_class(),
                group: None,
            },
        }
    }

    /// Resolves item tokens to a sample [`IdList`]. Each token is
    /// looked up as an item name first, then as a numeric id; unknown
    /// tokens are returned (they cannot affect any match — the index
    /// only counts items in the dictionary).
    pub fn parse_sample<'t>(
        &self,
        tokens: impl IntoIterator<Item = &'t str>,
    ) -> (IdList, Vec<String>) {
        self.items.parse(tokens)
    }
}

/// An artifact's item dictionary keyed by name, built once with the
/// index so that resolving a request's tokens costs one hash lookup
/// each rather than a scan of every item name.
pub(crate) struct ItemNames {
    by_name: HashMap<String, u32>,
    n_items: usize,
}

impl ItemNames {
    pub(crate) fn new(meta: &ArtifactMeta) -> Self {
        let mut by_name = HashMap::with_capacity(meta.n_items());
        for (id, name) in meta.item_names.iter().enumerate() {
            // a repeated name resolves to its first id, as a scan would
            by_name.entry(name.clone()).or_insert(id as u32);
        }
        ItemNames {
            by_name,
            n_items: meta.n_items(),
        }
    }

    /// [`RuleGroupIndex::parse_sample`]: name first, then numeric id,
    /// unknown tokens returned in order.
    pub(crate) fn parse<'t>(
        &self,
        tokens: impl IntoIterator<Item = &'t str>,
    ) -> (IdList, Vec<String>) {
        let mut ids = Vec::new();
        let mut unknown = Vec::new();
        for tok in tokens {
            let id = self.by_name.get(tok).copied().or_else(|| {
                tok.parse::<u32>()
                    .ok()
                    .filter(|&id| (id as usize) < self.n_items)
            });
            match id {
                Some(id) => ids.push(id),
                None => unknown.push(tok.to_string()),
            }
        }
        (IdList::from_iter(ids), unknown)
    }
}

/// The smallest count `k` with `k ≥ θ·len` under the exact `f64`
/// comparison `ScoredRule::matches` performs — so the counting index
/// and the fractional matcher agree even when `θ·len` sits on a
/// rounding boundary.
pub(crate) fn smallest_meeting(theta: f64, len: usize) -> u32 {
    (0..=len as u32)
        .find(|&k| k as f64 >= theta * len as f64)
        .unwrap_or(len as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_core::{canonical_sort, Farmer, MiningParams};
    use farmer_dataset::DatasetBuilder;

    fn small_artifact() -> Artifact {
        let mut b = DatasetBuilder::new(2);
        b.add_row([0, 1, 2], 0);
        b.add_row([0, 1], 0);
        b.add_row([1, 2, 3], 1);
        b.add_row([0, 3], 1);
        let d = b.build();
        let mut groups = Vec::new();
        for class in 0..2 {
            groups.extend(
                Farmer::new(MiningParams::new(class).min_sup(1))
                    .mine(&d)
                    .groups,
            );
        }
        canonical_sort(&mut groups);
        Artifact {
            meta: ArtifactMeta::from_dataset(&d),
            groups,
        }
    }

    #[test]
    fn matches_equals_linear_scan() {
        let idx = RuleGroupIndex::from_artifact(small_artifact());
        for sample in [vec![], vec![0], vec![0, 1], vec![0, 1, 2, 3], vec![3]] {
            let s = IdList::from_iter(sample.iter().copied());
            let naive: Vec<u32> = idx
                .rules()
                .iter()
                .enumerate()
                .filter(|(_, r)| r.matches(&s))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(idx.matches(&s), naive, "sample {sample:?}");
        }
    }

    #[test]
    fn classify_falls_back_to_majority() {
        let idx = RuleGroupIndex::from_artifact(small_artifact());
        let p = idx.classify(&IdList::new());
        assert_eq!(p.group, None);
        assert_eq!(p.class, idx.meta().majority_class());
    }

    #[test]
    fn thresholds_honor_exact_fraction_boundaries() {
        // θ = 0.5 over 4 items: 2 of 4 meets 0.5·4 exactly.
        assert_eq!(smallest_meeting(0.5, 4), 2);
        // θ = 0.8 over 5 items: 4 = 0.8·5 exactly.
        assert_eq!(smallest_meeting(0.8, 5), 4);
        // θ = 0.8 over 4 items: 3.2 rounds up to 4.
        assert_eq!(smallest_meeting(0.8, 4), 4);
        assert_eq!(smallest_meeting(1.0, 3), 3);
    }

    #[test]
    fn parse_sample_names_ids_and_unknowns() {
        let art = small_artifact();
        let name2 = art.meta.item_names[2].clone();
        let idx = RuleGroupIndex::from_artifact(art);
        let (ids, unknown) = idx.parse_sample([name2.as_str(), "0", "nope", "99"]);
        assert_eq!(ids, IdList::from_iter([0, 2]));
        assert_eq!(unknown, vec!["nope".to_string(), "99".to_string()]);
    }

    /// An item *named* "7" wins over numeric id 7, a repeated name
    /// resolves to its first id, and both indexes agree.
    #[test]
    fn parse_sample_prefers_names_over_numeric_ids() {
        let mut item_names: Vec<String> = (0..10).map(|i| format!("i{i}")).collect();
        item_names[2] = "7".into();
        item_names[5] = "dup".into();
        item_names[8] = "dup".into();
        let meta = ArtifactMeta {
            n_rows: 1,
            class_names: vec!["c0".into()],
            class_counts: vec![1],
            item_names,
        };
        let art = Artifact {
            meta,
            groups: Vec::new(),
        };
        let tokens = ["7", "dup", "9", "i7", "10"];
        let idx = RuleGroupIndex::from_artifact(art.clone());
        let (ids, unknown) = idx.parse_sample(tokens);
        assert_eq!(ids, IdList::from_iter([2, 5, 7, 9]));
        assert_eq!(unknown, vec!["10".to_string()]);
        let sharded = crate::ShardedIndex::build(art, idx.theta(), 2);
        assert_eq!(sharded.parse_sample(tokens), (ids, unknown));
    }

    #[test]
    fn class_partitions_cover_all_groups() {
        let idx = RuleGroupIndex::from_artifact(small_artifact());
        let total: usize = (0..2).map(|c| idx.groups_for_class(c).len()).sum();
        assert_eq!(total, idx.groups().len());
        for c in 0..2u32 {
            assert!(idx
                .groups_for_class(c)
                .iter()
                .all(|&gi| idx.groups()[gi as usize].class == c));
        }
    }
}
