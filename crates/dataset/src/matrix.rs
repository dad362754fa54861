//! Real-valued gene-expression matrices, the raw input before
//! discretization.

use crate::{ClassLabel, Dataset, DatasetBuilder};

/// A dense, row-major matrix of expression values: `n_rows` samples by
/// `n_genes` genes, each sample carrying a class label.
///
/// This is the form microarray data arrives in; [`crate::discretize`]
/// turns it into the transactional [`Dataset`] the miners consume.
#[derive(Clone, Debug)]
pub struct ExpressionMatrix {
    values: Vec<f64>,
    n_rows: usize,
    n_genes: usize,
    labels: Vec<ClassLabel>,
    n_classes: u32,
    gene_names: Vec<String>,
}

impl ExpressionMatrix {
    /// Creates a matrix from row-major values.
    ///
    /// Panics if `values.len() != n_rows * n_genes` or
    /// `labels.len() != n_rows`.
    pub fn new(
        n_rows: usize,
        n_genes: usize,
        values: Vec<f64>,
        labels: Vec<ClassLabel>,
        n_classes: u32,
    ) -> Self {
        assert_eq!(values.len(), n_rows * n_genes, "value count mismatch");
        assert_eq!(labels.len(), n_rows, "label count mismatch");
        assert!(labels.iter().all(|&l| l < n_classes), "label out of range");
        ExpressionMatrix {
            values,
            n_rows,
            n_genes,
            labels,
            n_classes,
            gene_names: (0..n_genes).map(|g| format!("g{g}")).collect(),
        }
    }

    /// Overrides the gene display names.
    pub fn with_gene_names(mut self, names: Vec<String>) -> Self {
        assert_eq!(names.len(), self.n_genes);
        self.gene_names = names;
        self
    }

    /// Number of samples.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of genes (columns).
    #[inline]
    pub fn n_genes(&self) -> usize {
        self.n_genes
    }

    /// Number of classes.
    #[inline]
    pub fn n_classes(&self) -> u32 {
        self.n_classes
    }

    /// Expression value of `gene` in sample `row`.
    #[inline]
    pub fn value(&self, row: usize, gene: usize) -> f64 {
        self.values[row * self.n_genes + gene]
    }

    /// The values of one sample (length `n_genes`).
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        &self.values[row * self.n_genes..(row + 1) * self.n_genes]
    }

    /// All values of one gene across samples (allocates; column access).
    pub fn gene_column(&self, gene: usize) -> Vec<f64> {
        (0..self.n_rows).map(|r| self.value(r, gene)).collect()
    }

    /// Class label of a sample.
    #[inline]
    pub fn label(&self, row: usize) -> ClassLabel {
        self.labels[row]
    }

    /// All labels.
    #[inline]
    pub fn labels(&self) -> &[ClassLabel] {
        &self.labels
    }

    /// Gene display name.
    pub fn gene_name(&self, gene: usize) -> &str {
        &self.gene_names[gene]
    }

    /// `true` iff any value is missing (NaN). Microarray exports
    /// routinely contain missing probes; impute before discretizing or
    /// training (the discretizers and SVM reject NaN inputs).
    pub fn has_missing(&self) -> bool {
        self.values.iter().any(|v| v.is_nan())
    }

    /// Number of missing (NaN) values.
    pub fn n_missing(&self) -> usize {
        self.values.iter().filter(|v| v.is_nan()).count()
    }

    /// A copy with every missing value replaced by its gene's mean over
    /// the present values (0 when a gene is entirely missing) — the
    /// standard baseline imputation for expression data.
    pub fn impute_gene_means(&self) -> ExpressionMatrix {
        let mut means = vec![0.0f64; self.n_genes];
        let mut counts = vec![0usize; self.n_genes];
        for r in 0..self.n_rows {
            for (g, (m, c)) in means.iter_mut().zip(&mut counts).enumerate() {
                let v = self.value(r, g);
                if !v.is_nan() {
                    *m += v;
                    *c += 1;
                }
            }
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            if c > 0 {
                *m /= c as f64;
            }
        }
        let mut out = self.clone();
        for (i, v) in out.values.iter_mut().enumerate() {
            if v.is_nan() {
                *v = means[i % self.n_genes];
            }
        }
        out
    }

    /// A copy with `offset` added to every expression value — a uniform
    /// "batch effect", as between cohorts measured on different
    /// scanners. Useful for stress-testing classifier robustness (the
    /// original breast-cancer benchmark's train and test cohorts differ
    /// exactly this way).
    pub fn shifted(&self, offset: f64) -> ExpressionMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v += offset;
        }
        out
    }

    /// A copy with a *per-gene* offset drawn from `N(0, sd²)` added to
    /// every value of that gene — the realistic form of a batch effect
    /// (each probe responds differently on a different scanner or in a
    /// different lab). Deterministic in `seed`.
    pub fn shifted_per_gene(&self, sd: f64, seed: u64) -> ExpressionMatrix {
        use farmer_support::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let offsets: Vec<f64> = (0..self.n_genes)
            .map(|_| {
                // Box–Muller, as in the synthesizer
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.gen();
                sd * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
            })
            .collect();
        let mut out = self.clone();
        for r in 0..self.n_rows {
            for (g, off) in offsets.iter().enumerate() {
                out.values[r * self.n_genes + g] += off;
            }
        }
        out
    }

    /// The matrix restricted to the given samples (in the given order).
    pub fn subset(&self, rows: &[usize]) -> ExpressionMatrix {
        let mut values = Vec::with_capacity(rows.len() * self.n_genes);
        let mut labels = Vec::with_capacity(rows.len());
        for &r in rows {
            values.extend_from_slice(self.row(r));
            labels.push(self.labels[r]);
        }
        ExpressionMatrix {
            values,
            n_rows: rows.len(),
            n_genes: self.n_genes,
            labels,
            n_classes: self.n_classes,
            gene_names: self.gene_names.clone(),
        }
    }

    /// Splits into `(train, test)`: the first `n_train` samples versus
    /// the rest.
    pub fn split_at(&self, n_train: usize) -> (ExpressionMatrix, ExpressionMatrix) {
        assert!(n_train <= self.n_rows);
        let train: Vec<usize> = (0..n_train).collect();
        let test: Vec<usize> = (n_train..self.n_rows).collect();
        (self.subset(&train), self.subset(&test))
    }

    /// Class-stratified random split `(train, test)` with `n_train`
    /// training samples, deterministic in `seed`.
    pub fn stratified_split(
        &self,
        n_train: usize,
        seed: u64,
    ) -> (ExpressionMatrix, ExpressionMatrix) {
        use farmer_support::rng::{SeedableRng, SliceRandom};
        assert!(n_train <= self.n_rows);
        let mut rng = farmer_support::rng::StdRng::seed_from_u64(seed);
        let mut train: Vec<usize> = Vec::with_capacity(n_train);
        let mut test: Vec<usize> = Vec::new();
        let frac = n_train as f64 / self.n_rows as f64;
        let mut got = 0usize;
        for c in 0..self.n_classes {
            let mut rows: Vec<usize> = (0..self.n_rows).filter(|&r| self.labels[r] == c).collect();
            rows.shuffle(&mut rng);
            let want = ((rows.len() as f64 * frac).round() as usize).min(rows.len());
            got += want;
            train.extend(&rows[..want]);
            test.extend(&rows[want..]);
        }
        while got > n_train {
            test.push(train.pop().expect("train nonempty"));
            got -= 1;
        }
        while got < n_train {
            train.push(test.pop().expect("test nonempty"));
            got += 1;
        }
        (self.subset(&train), self.subset(&test))
    }

    /// Converts to a transactional [`Dataset`] given per-gene bin edges.
    ///
    /// `bins[g]` holds the ascending cut points of gene `g`; a value `v`
    /// falls in bin `k` where `k` is the number of cut points `<= v`, and
    /// produces item name `"<gene>@<k>"`. A gene with an empty cut list
    /// contributes a single constant item per sample, which carries no
    /// information; pass `drop_unsplit = true` to omit such genes entirely
    /// (what the entropy discretizer wants).
    pub fn to_dataset(&self, bins: &[Vec<f64>], drop_unsplit: bool) -> Dataset {
        assert_eq!(bins.len(), self.n_genes, "need one cut list per gene");
        let mut b = DatasetBuilder::new(self.n_classes);
        // intern items gene-major so ids are stable and contiguous per gene
        let mut item_ids: Vec<Vec<crate::ItemId>> = Vec::with_capacity(self.n_genes);
        for (g, cuts) in bins.iter().enumerate() {
            if drop_unsplit && cuts.is_empty() {
                item_ids.push(Vec::new());
                continue;
            }
            let n_bins = cuts.len() + 1;
            item_ids.push(
                (0..n_bins)
                    .map(|k| b.intern_item(&format!("{}@{k}", self.gene_names[g])))
                    .collect(),
            );
        }
        for r in 0..self.n_rows {
            let row = (0..self.n_genes)
                .filter(|&g| !item_ids[g].is_empty())
                .map(|g| item_ids[g][bins[g].partition_point(|&c| c <= self.value(r, g))]);
            b.add_row_interned(row, self.labels[r]);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> ExpressionMatrix {
        ExpressionMatrix::new(
            3,
            2,
            vec![
                0.1, 5.0, //
                0.9, 1.0, //
                2.0, 3.0,
            ],
            vec![0, 0, 1],
            2,
        )
    }

    #[test]
    fn accessors() {
        let m = m();
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_genes(), 2);
        assert_eq!(m.value(1, 0), 0.9);
        assert_eq!(m.row(2), &[2.0, 3.0]);
        assert_eq!(m.gene_column(1), vec![5.0, 1.0, 3.0]);
        assert_eq!(m.label(2), 1);
        assert_eq!(m.gene_name(0), "g0");
    }

    #[test]
    fn to_dataset_bins_values() {
        let m = m();
        // gene 0: cut at 1.0 -> bins (-inf,1),[1,inf); gene 1: cut at 2.0,4.0
        let bins = vec![vec![1.0], vec![2.0, 4.0]];
        let d = m.to_dataset(&bins, false);
        assert_eq!(d.n_rows(), 3);
        // items: g0@0,g0@1,g1@0,g1@1,g1@2 = 5
        assert_eq!(d.n_items(), 5);
        let g0_0 = d.item_by_name("g0@0").unwrap();
        let g1_2 = d.item_by_name("g1@2").unwrap();
        assert!(d.item_rows(g0_0).contains(0)); // 0.1 < 1.0
        assert!(d.item_rows(g1_2).contains(0)); // 5.0 >= 4.0
        let g1_0 = d.item_by_name("g1@0").unwrap();
        assert!(d.item_rows(g1_0).contains(1)); // 1.0 < 2.0
    }

    /// Rows built from interned ids equal rows built by formatting and
    /// interning every cell's `"<gene>@<k>"` name — including a repeated
    /// gene name, whose bins share items, and a NaN cell.
    #[test]
    fn to_dataset_matches_the_named_path() {
        let rows = [
            [0.1, 7.0, 1.0, 5.0],
            [0.9, 7.0, 2.0, 1.0],
            [2.0, 7.0, f64::NAN, 3.0],
            [1.5, 7.0, 3.0, 4.5],
        ];
        let m = ExpressionMatrix::new(4, 4, rows.concat(), vec![0, 0, 1, 1], 2)
            .with_gene_names(["a", "b", "a", "c"].map(String::from).to_vec());
        let bins = vec![vec![1.0], vec![], vec![2.5], vec![2.0, 4.0]];
        for drop_unsplit in [false, true] {
            let mut b = DatasetBuilder::new(2);
            for (g, cuts) in bins.iter().enumerate() {
                if !(drop_unsplit && cuts.is_empty()) {
                    for k in 0..=cuts.len() {
                        b.intern_item(&format!("{}@{k}", m.gene_name(g)));
                    }
                }
            }
            for r in 0..m.n_rows() {
                let names: Vec<String> = (0..m.n_genes())
                    .filter(|&g| !(drop_unsplit && bins[g].is_empty()))
                    .map(|g| {
                        let k = bins[g].partition_point(|&c| c <= m.value(r, g));
                        format!("{}@{k}", m.gene_name(g))
                    })
                    .collect();
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                b.add_row_named(&refs, m.label(r));
            }
            let (want, got) = (b.build(), m.to_dataset(&bins, drop_unsplit));
            assert_eq!(got.n_items(), want.n_items());
            assert_eq!(got.labels(), want.labels());
            for r in 0..m.n_rows() as u32 {
                assert_eq!(got.row(r), want.row(r), "row {r}");
            }
            for i in 0..want.n_items() as u32 {
                assert_eq!(got.item_name(i), want.item_name(i));
                assert_eq!(got.item_rows(i), want.item_rows(i));
            }
        }
    }

    #[test]
    fn to_dataset_drops_unsplit() {
        let m = m();
        let bins = vec![vec![], vec![2.0]];
        let d = m.to_dataset(&bins, true);
        assert_eq!(d.n_items(), 2); // only g1@0, g1@1
        assert!(d.item_by_name("g0@0").is_none());
        let d2 = m.to_dataset(&bins, false);
        assert_eq!(d2.n_items(), 3); // g0@0 constant item kept
    }

    #[test]
    fn boundary_goes_to_upper_bin() {
        // value exactly equal to a cut belongs to the upper bin
        let m = ExpressionMatrix::new(1, 1, vec![1.0], vec![0], 1);
        let d = m.to_dataset(&[vec![1.0]], false);
        let hi = d.item_by_name("g0@1").unwrap();
        assert!(d.item_rows(hi).contains(0));
    }

    #[test]
    fn missing_value_handling() {
        let m = ExpressionMatrix::new(
            3,
            2,
            vec![1.0, f64::NAN, 3.0, 4.0, f64::NAN, f64::NAN],
            vec![0, 0, 1],
            2,
        );
        assert!(m.has_missing());
        assert_eq!(m.n_missing(), 3);
        let imp = m.impute_gene_means();
        assert!(!imp.has_missing());
        // gene 0: mean of 1.0 and 3.0 is 2.0 -> row 2's NaN becomes 2.0
        assert!((imp.value(2, 0) - 2.0).abs() < 1e-12);
        // gene 1: only 4.0 present -> both NaNs become 4.0
        assert!((imp.value(1, 1) - 4.0).abs() < 1e-12);
        assert!((imp.value(2, 1) - 4.0).abs() < 1e-12);
        // present values untouched
        assert_eq!(imp.value(0, 0), 1.0);
    }

    #[test]
    fn entirely_missing_gene_imputes_to_zero() {
        let m = ExpressionMatrix::new(2, 1, vec![f64::NAN, f64::NAN], vec![0, 1], 2);
        let imp = m.impute_gene_means();
        assert_eq!(imp.value(0, 0), 0.0);
        assert_eq!(imp.value(1, 0), 0.0);
    }

    #[test]
    fn shifted_per_gene_is_constant_within_gene() {
        let m = m();
        let s = m.shifted_per_gene(1.0, 42);
        // same offset for every row of one gene
        let d0 = s.value(0, 0) - m.value(0, 0);
        let d1 = s.value(1, 0) - m.value(1, 0);
        assert!((d0 - d1).abs() < 1e-12);
        // different genes get different offsets (w.h.p.)
        let e0 = s.value(0, 1) - m.value(0, 1);
        assert!((d0 - e0).abs() > 1e-9);
        // deterministic in seed
        let s2 = m.shifted_per_gene(1.0, 42);
        assert_eq!(s.row(2), s2.row(2));
    }

    #[test]
    fn shifted_adds_offset() {
        let m = m();
        let s = m.shifted(2.0);
        for r in 0..3 {
            for g in 0..2 {
                assert!((s.value(r, g) - m.value(r, g) - 2.0).abs() < 1e-12);
            }
        }
        assert_eq!(s.labels(), m.labels());
    }

    #[test]
    fn subset_and_splits() {
        let m = m();
        let s = m.subset(&[2, 0]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.row(0), &[2.0, 3.0]);
        assert_eq!(s.label(1), 0);
        let (tr, te) = m.split_at(1);
        assert_eq!(tr.n_rows(), 1);
        assert_eq!(te.n_rows(), 2);
        assert_eq!(te.label(1), 1);
        let (tr, te) = m.stratified_split(2, 7);
        assert_eq!(tr.n_rows(), 2);
        assert_eq!(te.n_rows(), 1);
        // strata kept: two c0 and one c1 in total
        assert_eq!(
            tr.labels().iter().filter(|&&l| l == 0).count()
                + te.labels().iter().filter(|&&l| l == 0).count(),
            2
        );
    }

    #[test]
    #[should_panic(expected = "value count mismatch")]
    fn bad_dims_panic() {
        ExpressionMatrix::new(2, 2, vec![0.0; 3], vec![0, 0], 1);
    }
}
