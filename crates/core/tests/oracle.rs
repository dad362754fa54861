//! FARMER vs the brute-force oracle: on small datasets the miner must
//! reproduce the oracle's IRGs *exactly* — upper bounds, support sets,
//! counts, and lower bounds — for every engine, every pruning
//! configuration, and both the sequential and the parallel assembly.

use farmer_core::naive::{enumerate_rule_groups, mine_naive, naive_lower_bounds};
use farmer_core::{Engine, ExtraConstraint, Farmer, MiningParams, PruningConfig, RuleGroup};
use farmer_dataset::{paper_example, Dataset, DatasetBuilder};
use farmer_support::rng::{Rng, SeedableRng, StdRng};

/// Canonical, comparable form of one group:
/// (upper, support rows, sup, neg_sup, sorted lower bounds).
type CanonGroup = (Vec<u32>, Vec<usize>, usize, usize, Vec<Vec<u32>>);

/// Canonical, comparable form of a result set.
fn canon(groups: &[RuleGroup]) -> Vec<CanonGroup> {
    let mut v: Vec<_> = groups
        .iter()
        .map(|g| {
            let mut lows: Vec<Vec<u32>> = g.lower.iter().map(|l| l.as_slice().to_vec()).collect();
            lows.sort();
            (
                g.upper.as_slice().to_vec(),
                g.support_set.to_vec(),
                g.sup,
                g.neg_sup,
                lows,
            )
        })
        .collect();
    v.sort();
    v
}

fn engines() -> [Engine; 2] {
    [Engine::Bitset, Engine::PointerList]
}

fn pruning_configs() -> Vec<PruningConfig> {
    let b = [false, true];
    let mut v = Vec::new();
    for s1 in b {
        for s2 in b {
            for s3l in b {
                for s3t in b {
                    v.push(PruningConfig {
                        strategy1_compression: s1,
                        strategy2_duplicate: s2,
                        strategy3_loose: s3l,
                        strategy3_tight: s3t,
                    });
                }
            }
        }
    }
    v
}

fn check_all_configs(data: &Dataset, params: &MiningParams) {
    let expected = canon(&mine_naive(data, params));
    for engine in engines() {
        for pruning in pruning_configs() {
            for threads in [1, 2] {
                let result = Farmer::new(params.clone())
                    .with_engine(engine)
                    .with_pruning(pruning)
                    .with_parallelism(threads)
                    .mine(data);
                assert_eq!(
                    canon(&result.groups),
                    expected,
                    "mismatch: engine={engine:?} pruning={pruning:?} threads={threads} \
                     params={params:?}"
                );
            }
        }
    }
}

fn random_dataset(rng: &mut StdRng, n_rows: usize, n_items: usize, density: f64) -> Dataset {
    let mut b = DatasetBuilder::new(2);
    for _ in 0..n_rows {
        let items: Vec<u32> = (0..n_items as u32)
            .filter(|_| rng.gen_bool(density))
            .collect();
        let label = u32::from(rng.gen_bool(0.5));
        b.add_row(items, label);
    }
    b.build()
}

#[test]
fn paper_example_all_configs() {
    let d = paper_example();
    for class in [0u32, 1] {
        for (min_sup, min_conf, min_chi) in [
            (1, 0.0, 0.0),
            (2, 0.0, 0.0),
            (3, 0.0, 0.0),
            (1, 0.6, 0.0),
            (1, 0.9, 0.0),
            (2, 0.5, 0.0),
        ] {
            let params = MiningParams::new(class)
                .min_sup(min_sup)
                .min_conf(min_conf)
                .min_chi(min_chi);
            check_all_configs(&d, &params);
        }
    }
}

#[test]
fn paper_example_chi_thresholds() {
    let d = paper_example();
    for min_chi in [0.5, 1.0, 2.0, 5.0] {
        let params = MiningParams::new(0).min_sup(1).min_chi(min_chi);
        check_all_configs(&d, &params);
    }
}

#[test]
fn random_datasets_default_pruning() {
    let mut rng = StdRng::seed_from_u64(42);
    for trial in 0..30 {
        let n_rows = rng.gen_range(3..=10);
        let n_items = rng.gen_range(3..=14);
        let density = rng.gen_range(0.25..0.75);
        let d = random_dataset(&mut rng, n_rows, n_items, density);
        let params = MiningParams::new(rng.gen_range(0..2))
            .min_sup(rng.gen_range(1..=3))
            .min_conf([0.0, 0.5, 0.8][rng.gen_range(0..3usize)])
            .min_chi([0.0, 0.0, 1.0][rng.gen_range(0..3usize)]);
        let expected = canon(&mine_naive(&d, &params));
        for engine in engines() {
            let result = Farmer::new(params.clone()).with_engine(engine).mine(&d);
            assert_eq!(
                canon(&result.groups),
                expected,
                "trial={trial} engine={engine:?} params={params:?}"
            );
        }
    }
}

#[test]
fn random_datasets_all_pruning_configs() {
    let mut rng = StdRng::seed_from_u64(7);
    for trial in 0..6 {
        let d = random_dataset(&mut rng, 7, 9, 0.5);
        let params = MiningParams::new(0)
            .min_sup(1 + trial % 3)
            .min_conf([0.0, 0.6][trial % 2])
            .lower_bounds(false);
        check_all_configs(&d, &params);
    }
}

#[test]
fn degenerate_datasets() {
    // single row
    let mut b = DatasetBuilder::new(2);
    b.add_row([0, 1, 2], 0);
    let d = b.build();
    check_all_configs(&d, &MiningParams::new(0));
    check_all_configs(&d, &MiningParams::new(1));

    // all rows identical
    let mut b = DatasetBuilder::new(2);
    for i in 0..4 {
        b.add_row([0, 1], u32::from(i >= 2));
    }
    let d = b.build();
    check_all_configs(&d, &MiningParams::new(0).min_sup(2));

    // disjoint rows (no 2-row group exists)
    let mut b = DatasetBuilder::new(2);
    b.add_row([0], 0);
    b.add_row([1], 0);
    b.add_row([2], 1);
    let d = b.build();
    check_all_configs(&d, &MiningParams::new(0));

    // a row with no items at all
    let mut b = DatasetBuilder::new(2);
    b.add_row([0, 1], 0);
    b.add_row(std::iter::empty(), 0);
    b.add_row([1], 1);
    let d = b.build();
    check_all_configs(&d, &MiningParams::new(0));
}

#[test]
fn extra_constraints_match_oracle() {
    let d = paper_example();
    let extras: Vec<Vec<ExtraConstraint>> = vec![
        vec![ExtraConstraint::MinLift(1.2)],
        vec![ExtraConstraint::MinConviction(1.5)],
        vec![ExtraConstraint::MinEntropyGain(0.2)],
        vec![ExtraConstraint::MinGiniGain(0.1)],
        vec![ExtraConstraint::MinCorrelation(0.3)],
        vec![
            ExtraConstraint::MinLift(1.1),
            ExtraConstraint::MinEntropyGain(0.1),
        ],
    ];
    for extra in extras {
        for class in [0u32, 1] {
            let mut params = MiningParams::new(class).min_sup(1).lower_bounds(false);
            params.extra = extra.clone();
            check_all_configs(&d, &params);
        }
    }
}

#[test]
fn extra_constraints_on_random_data() {
    let mut rng = StdRng::seed_from_u64(55);
    for trial in 0..8 {
        let d = random_dataset(&mut rng, 7, 10, 0.5);
        let mut params = MiningParams::new(0).min_sup(1).lower_bounds(false);
        params.extra = vec![
            [
                ExtraConstraint::MinLift(1.3),
                ExtraConstraint::MinConviction(1.2),
                ExtraConstraint::MinEntropyGain(0.15),
                ExtraConstraint::MinGiniGain(0.08),
            ][trial % 4],
        ];
        let expected = canon(&mine_naive(&d, &params));
        for engine in engines() {
            let got = Farmer::new(params.clone()).with_engine(engine).mine(&d);
            assert_eq!(
                canon(&got.groups),
                expected,
                "trial={trial} engine={engine:?}"
            );
        }
    }
}

#[test]
fn replicated_rows() {
    let d = paper_example();
    let rep = farmer_dataset::replicate::replicate_rows(&d, 2);
    // 10 rows: still oracle-checkable
    let params = MiningParams::new(0).min_sup(2).lower_bounds(false);
    check_all_configs(&rep, &params);
}

#[test]
fn lower_bounds_match_naive_on_mined_groups() {
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..10 {
        let d = random_dataset(&mut rng, 6, 8, 0.55);
        let params = MiningParams::new(0).min_sup(1);
        let result = Farmer::new(params).mine(&d);
        for g in &result.groups {
            let mut got: Vec<Vec<u32>> = g.lower.iter().map(|l| l.as_slice().to_vec()).collect();
            got.sort();
            let mut want: Vec<Vec<u32>> = naive_lower_bounds(&g.upper, &g.support_set, &d)
                .iter()
                .map(|l| l.as_slice().to_vec())
                .collect();
            want.sort();
            assert_eq!(got, want, "lower bounds differ for {:?}", g.upper);
        }
    }
}

#[test]
fn paper_example_known_irg() {
    // The running example: group {a,e,h} -> C covers rows r2,r3,r4 with
    // confidence 2/3, and is dominated by {a} -> C (conf 3/4): with
    // min_conf = 0 the {a} group must be an IRG and {a,e,h} must not.
    let d = paper_example();
    let result = Farmer::new(MiningParams::new(0)).mine(&d);
    let name = |g: &RuleGroup| -> String {
        g.upper
            .iter()
            .map(|i| d.item_name(i).to_string())
            .collect::<Vec<_>>()
            .join("")
    };
    let uppers: Vec<String> = result.groups.iter().map(&name).collect();
    assert!(uppers.iter().any(|u| u == "a"), "{uppers:?}");
    assert!(!uppers.iter().any(|u| u == "aeh"), "{uppers:?}");
    // the {a} group: support set = rows 0..3, sup 3, neg 1
    let a_group = result.groups.iter().find(|g| name(g) == "a").unwrap();
    assert_eq!(a_group.support_set.to_vec(), vec![0, 1, 2, 3]);
    assert_eq!(a_group.sup, 3);
    assert_eq!(a_group.neg_sup, 1);
}

#[test]
fn stats_reflect_pruning() {
    let d = paper_example();
    let full = Farmer::new(MiningParams::new(0)).mine(&d);
    let none = Farmer::new(MiningParams::new(0))
        .with_pruning(PruningConfig::none())
        .mine(&d);
    assert!(full.stats.nodes_visited <= none.stats.nodes_visited);
    assert_eq!(canon(&full.groups), canon(&none.groups));
    // thresholds engage the bound counters
    let tight = Farmer::new(MiningParams::new(0).min_sup(3).min_conf(0.9)).mine(&d);
    let s = &tight.stats;
    assert!(
        s.pruned_loose + s.pruned_tight_support + s.pruned_tight_confidence > 0,
        "{s:?}"
    );
}

#[test]
fn harvest_returns_each_threshold_passing_closed_group_once() {
    // with strategy 2 off a closed set is reached at several nodes, on
    // one worker or across two; the harvest must still list it once
    let no_back_scan = PruningConfig {
        strategy2_duplicate: false,
        ..PruningConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(11);
    for trial in 0..6 {
        let d = random_dataset(&mut rng, 8, 10, 0.5);
        let (min_sup, min_conf) = (1 + trial % 2, [0.0, 0.6][trial % 2]);
        let params = MiningParams::new(trial as u32 % 2)
            .min_sup(min_sup)
            .min_conf(min_conf)
            .lower_bounds(false);
        let mut expected: Vec<_> = enumerate_rule_groups(&d, params.target_class)
            .into_iter()
            .filter(|g| g.sup_p >= min_sup && g.confidence() >= min_conf)
            .map(|g| {
                (
                    g.upper.as_slice().to_vec(),
                    g.rows.to_vec(),
                    g.sup_p,
                    g.sup_n,
                )
            })
            .collect();
        expected.sort();
        for threads in [1, 2] {
            let got = Farmer::new(params.clone())
                .with_pruning(no_back_scan)
                .with_harvest(true)
                .with_parallelism(threads)
                .mine(&d)
                .groups;
            let mut uppers: Vec<Vec<u32>> =
                got.iter().map(|g| g.upper.as_slice().to_vec()).collect();
            uppers.sort();
            uppers.dedup();
            assert_eq!(
                uppers.len(),
                got.len(),
                "duplicate uppers: trial={trial} threads={threads}"
            );
            let mut harvest: Vec<_> = got
                .iter()
                .map(|g| {
                    (
                        g.upper.as_slice().to_vec(),
                        g.support_set.to_vec(),
                        g.sup,
                        g.neg_sup,
                    )
                })
                .collect();
            harvest.sort();
            assert_eq!(harvest, expected, "trial={trial} threads={threads}");
        }
    }
}
