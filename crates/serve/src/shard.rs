//! The sharded serving index: [`RuleGroupIndex`]'s posting lists
//! hash-partitioned across shards, with a scatter/gather merge that
//! reproduces the monolithic index's answers exactly.
//!
//! Shard `s` of `S` owns every group `gi` with `gi % S == s`, under a
//! *local* id `gi / S`. Each shard carries its own item→group posting
//! lists restricted to its groups, so a `matches` pass touches one
//! shard's postings and a counter array sized to that shard's group
//! count — a fraction of the monolithic index's working set — and the
//! gather step merges the per-shard sorted hit lists back into global
//! ids. Classification ranks (`rank`, `by_class`) are computed once,
//! globally, *before* partitioning, so sharding cannot perturb
//! tie-breaking: the parity property tests in `tests/shard_props.rs`
//! pin every answer to [`RuleGroupIndex`].
//!
//! Shards are built in parallel (one thread per shard via
//! `farmer_support::thread::scope`), which is where artifact reloads
//! win: a hot swap rebuilds the index across the pool instead of on
//! one core.

use crate::index::{smallest_meeting, ItemNames, Prediction};
use farmer_classify::{irg_rule, rule_cmp, ScoredRule, IRG_FINGERPRINT_THETA};
use farmer_core::RuleGroup;
use farmer_dataset::ClassLabel;
use farmer_store::{Artifact, ArtifactMeta};
use rowset::IdList;

/// One shard's inverted postings over its slice of the groups.
struct Shard {
    /// `postings[item]` = sorted *local* ids of owned groups whose
    /// upper bound contains `item`.
    postings: Vec<Vec<u32>>,
    /// Number of groups this shard owns.
    n_local: usize,
}

impl Shard {
    /// Builds the shard owning `gi % n_shards == s`.
    fn build(groups: &[RuleGroup], n_items: usize, s: usize, n_shards: usize) -> Shard {
        let mut postings = vec![Vec::new(); n_items];
        let mut n_local = 0;
        for (gi, g) in groups.iter().enumerate().skip(s).step_by(n_shards) {
            let local = (gi / n_shards) as u32;
            n_local = local as usize + 1;
            for item in g.upper.iter() {
                postings[item as usize].push(local);
            }
        }
        Shard { postings, n_local }
    }

    /// Local ids of owned groups covering `sample`, ascending.
    /// `threshold(local)` gives the counter value at which the group's
    /// fractional containment is met.
    fn matches(&self, sample: &IdList, threshold: impl Fn(u32) -> u32) -> Vec<u32> {
        let mut counts = vec![0u32; self.n_local];
        let mut touched = Vec::new();
        for item in sample.iter() {
            let Some(posting) = self.postings.get(item as usize) else {
                continue;
            };
            for &local in posting {
                if counts[local as usize] == 0 {
                    touched.push(local);
                }
                counts[local as usize] += 1;
            }
        }
        touched.retain(|&local| counts[local as usize] >= threshold(local));
        touched.sort_unstable();
        touched
    }
}

/// An immutable sharded index over one artifact's rule groups,
/// answer-for-answer equivalent to [`RuleGroupIndex`](crate::RuleGroupIndex).
pub struct ShardedIndex {
    meta: ArtifactMeta,
    items: ItemNames,
    groups: Vec<RuleGroup>,
    rules: Vec<ScoredRule>,
    theta: f64,
    /// Per group (global id): counter value meeting the threshold.
    thresholds: Vec<u32>,
    /// Per group (global id): classification rank (lower wins).
    rank: Vec<u32>,
    /// Per class: group ids in classification-rank order.
    by_class: Vec<Vec<u32>>,
    shards: Vec<Shard>,
}

impl std::fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("groups", &self.groups.len())
            .field("shards", &self.shards.len())
            .field("theta", &self.theta)
            .finish_non_exhaustive()
    }
}

impl ShardedIndex {
    /// Builds the index with an explicit `theta ∈ (0, 1]` and shard
    /// count (clamped to `[1, n_groups.max(1)]`).
    pub fn build(artifact: Artifact, theta: f64, n_shards: usize) -> Self {
        assert!(theta > 0.0 && theta <= 1.0, "theta must be in (0, 1]");
        let Artifact { meta, groups } = artifact;
        let n_shards = n_shards.clamp(1, groups.len().max(1));
        let rules: Vec<ScoredRule> = groups.iter().map(|g| irg_rule(g, theta)).collect();

        let thresholds: Vec<u32> = groups
            .iter()
            .map(|g| match g.upper.len() {
                0 => u32::MAX,
                len => smallest_meeting(theta, len),
            })
            .collect();

        // Global classification order first — partitioning must not be
        // able to perturb rank ties.
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

        // Scatter the postings build across one thread per shard.
        let n_items = meta.n_items();
        let mut shards: Vec<Option<Shard>> = (0..n_shards).map(|_| None).collect();
        farmer_support::thread::scope(|scope| {
            for (s, slot) in shards.iter_mut().enumerate() {
                let groups = &groups;
                scope.spawn(move || *slot = Some(Shard::build(groups, n_items, s, n_shards)));
            }
        });
        let shards = shards
            .into_iter()
            .map(|s| s.expect("shard built"))
            .collect();

        ShardedIndex {
            items: ItemNames::new(&meta),
            meta,
            groups,
            rules,
            theta,
            thresholds,
            rank,
            by_class,
            shards,
        }
    }

    /// Builds with the offline IRG threshold and one shard per
    /// available core (capped at 8 — posting lists stop shrinking
    /// usefully beyond that on mined workloads).
    pub fn from_artifact(artifact: Artifact) -> Self {
        let shards = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8);
        Self::build(artifact, IRG_FINGERPRINT_THETA, shards)
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

    /// How many shards the postings are partitioned into.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total posting-list entries across every shard — one per
    /// (item, owning-group) incidence, the dominant index memory term.
    /// Surfaced by `GET /v1/admin/stats`.
    pub fn postings_entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.postings.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Ids of the groups predicting `class`, best rank first.
    pub fn groups_for_class(&self, class: ClassLabel) -> &[u32] {
        self.by_class
            .get(class as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All groups covering `sample`, as sorted global ids: each shard
    /// scans its own postings (scatter), and the per-shard hit lists —
    /// already sorted in global order within a shard — merge back
    /// (gather).
    pub fn matches(&self, sample: &IdList) -> Vec<u32> {
        let n_shards = self.shards.len();
        let mut merged = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            let hits = shard.matches(sample, |local| {
                self.thresholds[local as usize * n_shards + s]
            });
            merged.extend(
                hits.into_iter()
                    .map(|local| local * n_shards as u32 + s as u32),
            );
        }
        merged.sort_unstable();
        merged
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

    /// Resolves item tokens to a sample [`IdList`] exactly as
    /// [`RuleGroupIndex::parse_sample`] does.
    pub fn parse_sample<'t>(
        &self,
        tokens: impl IntoIterator<Item = &'t str>,
    ) -> (IdList, Vec<String>) {
        self.items.parse(tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RuleGroupIndex;
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
    fn sharded_equals_monolithic_on_fixed_samples() {
        let art = small_artifact();
        let mono = RuleGroupIndex::from_artifact(Artifact {
            meta: art.meta.clone(),
            groups: art.groups.clone(),
        });
        for n_shards in [1, 2, 3, 7, 64] {
            let sharded = ShardedIndex::build(art.clone(), mono.theta(), n_shards);
            for sample in [vec![], vec![0], vec![0, 1], vec![0, 1, 2, 3], vec![3]] {
                let s = IdList::from_iter(sample.iter().copied());
                assert_eq!(sharded.matches(&s), mono.matches(&s), "{n_shards} shards");
                assert_eq!(sharded.classify(&s), mono.classify(&s), "{n_shards} shards");
            }
        }
    }

    #[test]
    fn class_partitions_cover_all_groups() {
        let idx = ShardedIndex::build(small_artifact(), 0.8, 3);
        let total: usize = (0..2).map(|c| idx.groups_for_class(c).len()).sum();
        assert_eq!(total, idx.groups().len());
    }

    #[test]
    fn shard_count_is_clamped() {
        let idx = ShardedIndex::build(small_artifact(), 0.8, 0);
        assert_eq!(idx.n_shards(), 1);
        let n = small_artifact().groups.len();
        let idx = ShardedIndex::build(small_artifact(), 0.8, 10 * n);
        assert!(idx.n_shards() <= n);
    }
}
