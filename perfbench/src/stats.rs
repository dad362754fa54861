//! Summary statistics shared by every workload: medians, the `_tail`
//! percentile rule, and metric-name validation.

/// Percentiles a `_tail` metric may report, lowest first, in hundredths
/// of a percent (integers keep the rank arithmetic exact).
pub const TAIL_CANDIDATES: [u64; 8] = [5000, 7500, 9000, 9500, 9900, 9950, 9990, 9999];

/// Samples that must lie beyond a percentile before it may be reported
/// as a tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The median of `values` (mean of the two middle values for an even
/// count). `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A tail latency together with the percentile it is and the sample
/// count behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Tail {
    /// `"p99"`, `"p75"`, … or `"max"` when no candidate percentile has
    /// enough samples beyond it.
    pub label: String,
    /// The value at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The highest candidate percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it (nearest-rank definition: the
/// p-th percentile of `n` sorted samples is the one at rank
/// `ceil(p·n/100)`, so `n − rank` samples lie beyond it). With fewer
/// than 20 samples no candidate qualifies and the maximum is reported,
/// labelled `"max"`.
pub fn tail(values: &[f64]) -> Tail {
    let s = sorted(values);
    let n = s.len();
    let mut best = None;
    for p in TAIL_CANDIDATES {
        let rank = (p * n as u64).div_ceil(10_000) as usize;
        if rank >= 1 && n - rank >= TAIL_MIN_BEYOND {
            best = Some((p, rank));
        }
    }
    match best {
        Some((p, rank)) => Tail {
            label: format!("p{}", p as f64 / 100.0),
            value: s[rank - 1],
            samples: n,
            beyond: n - rank,
        },
        None => Tail {
            label: "max".to_string(),
            value: s.last().copied().unwrap_or(f64::NAN),
            samples: n,
            beyond: 0,
        },
    }
}

/// Whether `name` is a valid metric or workload name: 1–64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok_char)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// Whether `unit` is a valid unit: 1–16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // shuffled order must not matter
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.5 only 5
        let t = tail(&ramp(1000));
        assert_eq!((t.label.as_str(), t.value, t.beyond), ("p99", 990.0, 10));
        // 999 samples: p99 rank is ceil(989.01) = 990, 9 beyond — too few
        let t = tail(&ramp(999));
        assert_eq!((t.label.as_str(), t.beyond), ("p95", 49));
        // 40 samples: p75 leaves 10 beyond, p90 only 4
        let t = tail(&ramp(40));
        assert_eq!((t.label.as_str(), t.value, t.beyond), ("p75", 30.0, 10));
        // 20 samples: only the median qualifies
        let t = tail(&ramp(20));
        assert_eq!((t.label.as_str(), t.value, t.beyond), ("p50", 10.0, 10));
        assert_eq!(t.samples, 20);
    }

    #[test]
    fn tail_falls_back_to_max_below_twenty_samples() {
        let t = tail(&ramp(19));
        assert_eq!((t.label.as_str(), t.value, t.beyond), ("max", 19.0, 0));
        let t = tail(&[7.5]);
        assert_eq!((t.label.as_str(), t.value), ("max", 7.5));
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in ["setup_s", "core.merge_s", "op-p50.ms", "9lives", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/ed",
            "ünï",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "MiB", "%", "req/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds-per-request"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
