//! Dataset-level metadata carried inside every artifact.

use farmer_dataset::{ClassLabel, Dataset};

/// What an artifact records about the dataset its groups were mined
/// from: enough to answer queries by item *name*, classify with a
/// majority-class fallback, and validate every stored bitset — without
/// the original transaction file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArtifactMeta {
    /// Rows in the mined dataset (the capacity of every stored
    /// row-support bitset).
    pub n_rows: u64,
    /// Class display names, indexed by class label.
    pub class_names: Vec<String>,
    /// Rows per class, parallel to `class_names`.
    pub class_counts: Vec<u64>,
    /// The interned item dictionary: display names indexed by item id.
    /// Group records store ids into this table.
    pub item_names: Vec<String>,
}

impl ArtifactMeta {
    /// Captures the metadata of `data`.
    pub fn from_dataset(data: &Dataset) -> Self {
        ArtifactMeta {
            n_rows: data.n_rows() as u64,
            class_names: (0..data.n_classes())
                .map(|c| data.class_name(c as ClassLabel).to_string())
                .collect(),
            class_counts: (0..data.n_classes())
                .map(|c| data.class_count(c as ClassLabel) as u64)
                .collect(),
            item_names: (0..data.n_items())
                .map(|i| data.item_name(i as u32).to_string())
                .collect(),
        }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.class_names.len()
    }

    /// Number of items in the dictionary.
    pub fn n_items(&self) -> usize {
        self.item_names.len()
    }

    /// The majority class (ties to the smaller label) — the serving
    /// layer's default prediction when no group matches a sample,
    /// mirroring `RuleListClassifier`'s default-class convention.
    pub fn majority_class(&self) -> ClassLabel {
        self.class_counts
            .iter()
            .enumerate()
            .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
            .map(|(i, _)| i as ClassLabel)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_dataset::DatasetBuilder;

    #[test]
    fn captures_dataset_shape() {
        let mut b = DatasetBuilder::new(2);
        b.add_row([0, 1], 0);
        b.add_row([1, 2], 1);
        b.add_row([0, 2], 1);
        let d = b.build();
        let m = ArtifactMeta::from_dataset(&d);
        assert_eq!(m.n_rows, 3);
        assert_eq!(m.n_classes(), 2);
        assert_eq!(m.class_counts, vec![1, 2]);
        assert_eq!(m.n_items(), 3);
        assert_eq!(m.majority_class(), 1);
        assert_eq!(m.item_names[2], d.item_name(2));
    }

    #[test]
    fn majority_ties_to_smaller_label() {
        let m = ArtifactMeta {
            n_rows: 4,
            class_names: vec!["a".into(), "b".into()],
            class_counts: vec![2, 2],
            item_names: vec![],
        };
        assert_eq!(m.majority_class(), 0);
    }
}
