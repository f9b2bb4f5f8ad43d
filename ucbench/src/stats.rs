//! Sample sets and the order statistics the benchmark reports.

/// Timed samples of one kind of operation, in the unit they were taken.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// The median (mean of the two middle samples for an even count);
    /// `None` when empty.
    pub fn median(&self) -> Option<f64> {
        let s = self.sorted();
        let n = s.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(s[n / 2]),
            _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
        }
    }

    /// The nearest-rank `p`-quantile (`0 < p < 1`), reported only when at
    /// least `beyond` samples lie beyond it.
    pub fn tail(&self, p: f64, beyond: usize) -> Option<f64> {
        let s = self.sorted();
        let n = s.len();
        let rank = (p * n as f64).ceil() as usize;
        if rank == 0 || n - rank < beyond {
            return None;
        }
        Some(s[rank - 1])
    }

    fn sorted(&self) -> Vec<f64> {
        let mut s = self.0.clone();
        s.sort_by(f64::total_cmp);
        s
    }
}

/// Shuffles `items` in place with a Fisher–Yates pass driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut ucsim::model::SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.index(i + 1);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(v: &[f64]) -> Samples {
        let mut s = Samples::default();
        for &x in v {
            s.push(x);
        }
        s
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(of(&[3.0, 1.0, 2.0]).median(), Some(2.0));
        assert_eq!(of(&[4.0, 1.0, 3.0, 2.0]).median(), Some(2.5));
        assert_eq!(Samples::default().median(), None);
    }

    #[test]
    fn tail_needs_samples_beyond_it() {
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(of(&many).tail(0.9, 10), Some(90.0));
        let few: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(of(&few).tail(0.9, 10), None);
        assert_eq!(of(&few).tail(0.9, 9), Some(90.0));
    }
}
