//! Workload inputs: the synthetic microarray analogs, their
//! discretization, and seed-drawn sample rows.

use crate::spans::Spans;
use farmer_dataset::discretize::Discretizer;
use farmer_dataset::synth::PaperDataset;
use farmer_dataset::{ClassLabel, Dataset, ExpressionMatrix};
use farmer_support::rng::{Rng, SeedableRng, SliceRandom, StdRng};
use rowset::IdList;

/// Which analog to build and how to discretize it.
#[derive(Clone, Copy, Debug)]
pub struct DataSpec {
    /// The paper dataset whose shape the analog copies.
    pub preset: PaperDataset,
    /// Generator seed; `None` keeps the preset's own seed.
    pub synth_seed: Option<u64>,
    /// Fraction of the paper's gene count.
    pub col_scale: f64,
}

/// Equal-depth buckets per gene, as `farmer discretize --method
/// equal-depth:10` (the paper's §4.1 set-up).
const BUCKETS: usize = 10;

/// A discretized dataset plus the time each step took.
pub struct Built {
    /// The transactional dataset the miners consume.
    pub data: Dataset,
    /// `SynthConfig::generate`, s.
    pub synth_s: f64,
    /// `Discretizer::discretize`, s.
    pub discretize_s: f64,
}

/// Generates and discretizes `spec`. With `gene_order_seed`, the gene
/// columns are shuffled by that seed before discretizing: the mining
/// problem stays the same up to a renaming of items, so the work per
/// seed is the same while the inputs differ. The shuffle is the
/// benchmark's own work and is in neither `synth_s` nor `discretize_s`.
pub fn build(spec: &DataSpec, gene_order_seed: Option<u64>, spans: &Spans, parent: u64) -> Built {
    let mut cfg = spec.preset.synth_config(spec.col_scale);
    if let Some(seed) = spec.synth_seed {
        cfg.seed = seed;
    }
    let (matrix, synth_s) = spans.time("dataset.synth", parent, 0, |_| cfg.generate());
    // benchmark code, outside both timed calls
    let matrix = match gene_order_seed {
        Some(seed) => permute_genes(&matrix, seed),
        None => matrix,
    };
    let (data, discretize_s) = spans.time("dataset.discretize", parent, 0, |_| {
        Discretizer::EqualDepth { buckets: BUCKETS }.discretize(&matrix)
    });
    Built {
        data,
        synth_s,
        discretize_s,
    }
}

/// `m` with its gene columns (values and names together) shuffled.
fn permute_genes(m: &ExpressionMatrix, seed: u64) -> ExpressionMatrix {
    let g = m.n_genes();
    let mut order: Vec<usize> = (0..g).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut values = Vec::with_capacity(m.n_rows() * g);
    for r in 0..m.n_rows() {
        let row = m.row(r);
        values.extend(order.iter().map(|&c| row[c]));
    }
    let names = order.iter().map(|&c| m.gene_name(c).to_string()).collect();
    ExpressionMatrix::new(m.n_rows(), g, values, m.labels().to_vec(), m.n_classes())
        .with_gene_names(names)
}

/// `n` new labelled rows drawn from `seed`: each copies a random row of
/// `data` and moves every gene, with probability `flip`, to a
/// neighbouring expression bucket — a new patient close to a known one,
/// expressed in `data`'s item dictionary.
pub fn neighbour_rows(data: &Dataset, seed: u64, n: usize, flip: f64) -> Vec<(IdList, ClassLabel)> {
    let neighbours: Vec<Vec<u32>> = (0..data.n_items() as u32)
        .map(|item| {
            let name = data.item_name(item);
            let Some((gene, bucket)) = name.rsplit_once('@') else {
                return Vec::new();
            };
            let Ok(k) = bucket.parse::<i64>() else {
                return Vec::new();
            };
            [k - 1, k + 1]
                .into_iter()
                .filter(|&j| j >= 0)
                .filter_map(|j| data.item_by_name(&format!("{gene}@{j}")))
                .collect()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let r = rng.gen_range(0..data.n_rows()) as u32;
            let items = data.row(r).iter().map(|item| {
                let near = &neighbours[item as usize];
                if !near.is_empty() && rng.gen_bool(flip) {
                    *near.choose(&mut rng).expect("non-empty")
                } else {
                    item
                }
            });
            (IdList::from_iter(items.collect::<Vec<_>>()), data.label(r))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DataSpec {
        DataSpec {
            preset: PaperDataset::Leukemia,
            synth_seed: Some(1),
            col_scale: 0.005,
        }
    }

    #[test]
    fn gene_order_seed_renames_items_only() {
        let spans = Spans::new(false);
        let plain = build(&tiny(), None, &spans, 0).data;
        let shuffled = build(&tiny(), Some(9), &spans, 0).data;
        assert_eq!(plain.n_rows(), shuffled.n_rows());
        assert_eq!(plain.n_items(), shuffled.n_items());
        // same item names per row, different ids
        let names = |d: &Dataset, r: u32| {
            let mut v: Vec<String> = d
                .row(r)
                .iter()
                .map(|i| d.item_name(i).to_string())
                .collect();
            v.sort();
            v
        };
        for r in 0..plain.n_rows() as u32 {
            assert_eq!(names(&plain, r), names(&shuffled, r));
        }
        assert_ne!(plain.row(0), shuffled.row(0));
    }

    #[test]
    fn neighbour_rows_are_seeded_and_in_dictionary() {
        let data = build(&tiny(), None, &Spans::new(false), 0).data;
        let a = neighbour_rows(&data, 3, 20, 0.1);
        let b = neighbour_rows(&data, 3, 20, 0.1);
        assert_eq!(a, b);
        assert_ne!(a, neighbour_rows(&data, 4, 20, 0.1));
        for (items, label) in &a {
            assert!((*label as usize) < data.n_classes());
            assert!(items.iter().all(|i| (i as usize) < data.n_items()));
            // one bucket per gene survives the moves
            assert_eq!(items.len(), data.row(0).len());
        }
    }
}
