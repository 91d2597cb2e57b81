//! Sample arithmetic the benchmark reports with: nearest-rank
//! percentiles, the "ten samples beyond" rule for tail percentiles,
//! and ratios that carry their base.

/// Fewest samples that must lie above a tail percentile before the
/// benchmark reports it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A set of measurements of one quantity, in the unit it was taken in.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile: the smallest sample with at least a
    /// share `q` of all samples at or below it. `None` when empty.
    pub fn percentile(&mut self, q: f64) -> Option<f64> {
        let rank = nearest_rank(self.values.len(), q)?;
        self.sort();
        Some(self.values[rank - 1])
    }

    /// The median (`percentile(0.5)`).
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(0.5)
    }

    /// A tail percentile, reported only when at least
    /// [`TAIL_MIN_BEYOND`] samples lie beyond its rank.
    pub fn tail(&mut self, q: f64) -> Option<f64> {
        let n = self.values.len();
        let rank = nearest_rank(n, q)?;
        if n - rank < TAIL_MIN_BEYOND {
            return None;
        }
        self.percentile(q)
    }
}

/// 1-based nearest rank `⌈q·n⌉` (at least 1), or `None` for no samples.
pub fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = (q * n as f64).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Fewest samples for which [`Samples::tail`] at `q` is defined.
pub fn min_samples_for_tail(q: f64) -> usize {
    (1..)
        .find(|&n| nearest_rank(n, q).is_some_and(|r| n - r >= TAIL_MIN_BEYOND))
        .expect("every q < 1 has a finite sample count")
}

/// A ratio kept together with its base, so a report can say
/// `0.31 (1234/3980)` rather than a bare fraction.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub den: f64,
}

impl Ratio {
    pub fn new(num: f64, den: f64) -> Self {
        Ratio { num, den }
    }

    /// `num / den`, or `0` when the base is empty.
    pub fn value(&self) -> f64 {
        if self.den > 0.0 {
            self.num / self.den
        } else {
            0.0
        }
    }

    /// `value (num/den)`.
    pub fn describe(&self) -> String {
        format!(
            "{:.4} ({}/{})",
            self.value(),
            trim(self.num),
            trim(self.den)
        )
    }
}

fn trim(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(vals: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::new();
        for v in vals {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_selects_ceiling_rank() {
        assert_eq!(nearest_rank(0, 0.5), None);
        assert_eq!(nearest_rank(1, 0.5), Some(1));
        assert_eq!(nearest_rank(10, 0.5), Some(5));
        assert_eq!(nearest_rank(11, 0.5), Some(6));
        assert_eq!(nearest_rank(100, 0.9), Some(90));
        assert_eq!(nearest_rank(101, 0.9), Some(91));
        assert_eq!(nearest_rank(10, 0.0), Some(1));
        assert_eq!(nearest_rank(10, 1.0), Some(10));
    }

    #[test]
    fn percentile_ignores_insertion_order() {
        let mut s = samples([5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(s.percentile(0.2), Some(1.0));
        assert_eq!(s.percentile(0.21), Some(2.0));
        assert_eq!(s.percentile(1.0), Some(5.0));
        s.push(0.5);
        assert_eq!(s.percentile(0.0), Some(0.5));
    }

    #[test]
    fn median_of_empty_is_none() {
        assert_eq!(Samples::new().median(), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p90 has rank 90, so exactly 10 lie beyond it.
        let mut s = samples((1..=100).map(f64::from));
        assert_eq!(s.tail(0.9), Some(90.0));
        // 99 samples: rank 90 again, only 9 beyond.
        let mut s = samples((1..=99).map(f64::from));
        assert_eq!(s.tail(0.9), None);
        // p99 needs 1000 samples.
        let mut s = samples((1..=999).map(f64::from));
        assert_eq!(s.tail(0.99), None);
        s.push(1000.0);
        assert_eq!(s.tail(0.99), Some(990.0));
    }

    #[test]
    fn min_samples_for_tail_matches_tail() {
        assert_eq!(min_samples_for_tail(0.9), 100);
        assert_eq!(min_samples_for_tail(0.99), 1000);
        assert_eq!(min_samples_for_tail(0.5), 20);
        let n = min_samples_for_tail(0.9);
        assert!(samples((0..n).map(|i| i as f64)).tail(0.9).is_some());
        assert!(samples((0..n - 1).map(|i| i as f64)).tail(0.9).is_none());
    }

    #[test]
    fn ratio_keeps_its_base() {
        let r = Ratio::new(31.0, 100.0);
        assert_eq!(r.value(), 0.31);
        assert_eq!(r.describe(), "0.3100 (31/100)");
        assert_eq!(Ratio::new(3.0, 0.0).value(), 0.0);
        assert_eq!(Ratio::new(1.5, 3.0).describe(), "0.5000 (1.500/3)");
    }
}
