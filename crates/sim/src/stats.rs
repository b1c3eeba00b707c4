//! Streaming statistics used to report every figure in the evaluation.

use std::fmt;

use crate::message::MessageClass;

/// Streaming summary of a scalar series: count, mean, variance, min, max.
///
/// Uses Welford's online algorithm, so it is numerically stable over the
/// hundreds of millions of samples long co-simulations produce.
///
/// # Example
///
/// ```
/// use ra_sim::Summary;
///
/// let mut s = Summary::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.std_dev() - 2.138089935299395).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Reconstructs a summary from previously exported state — the
    /// persistence counterpart of [`count`](Summary::count),
    /// [`mean`](Summary::mean), [`m2`](Summary::m2),
    /// [`min`](Summary::min), [`max`](Summary::max). With `count == 0`
    /// the other arguments are ignored and an empty summary is returned,
    /// so serializers may encode empty summaries without the non-finite
    /// min/max sentinels.
    pub fn from_parts(count: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        if count == 0 {
            return Summary::new();
        }
        Summary {
            count,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Adds one sample.
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another summary into this one (parallel-friendly).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 if empty.
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Welford's running sum of squared deviations — exported (with
    /// [`from_parts`](Summary::from_parts)) so a summary survives a
    /// serialize/deserialize round trip bit-exactly.
    #[inline]
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Sample variance (n-1 denominator), or 0 with fewer than 2 samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample, or +inf if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample, or -inf if empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return f.write_str("n=0");
        }
        write!(
            f,
            "n={} mean={:.2} sd={:.2} min={:.1} max={:.1}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min,
            self.max
        )
    }
}

/// Fixed-width-bin histogram with an overflow bucket.
///
/// Used for packet-latency distributions; bins are `[i*width, (i+1)*width)`.
///
/// # Example
///
/// ```
/// use ra_sim::Histogram;
///
/// let mut h = Histogram::new(10, 8); // 8 bins of width 10
/// h.record(5);
/// h.record(25);
/// h.record(1_000); // overflow
/// assert_eq!(h.bin_count(0), 1);
/// assert_eq!(h.bin_count(2), 1);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    width: u64,
    bins: Vec<u64>,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` buckets of `width` each.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `bins == 0`.
    pub fn new(width: u64, bins: usize) -> Self {
        assert!(width > 0, "histogram bin width must be positive");
        assert!(bins > 0, "histogram must have at least one bin");
        Histogram {
            width,
            bins: vec![0; bins],
            overflow: 0,
        }
    }

    /// Adds one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let idx = (value / self.width) as usize;
        match self.bins.get_mut(idx) {
            Some(slot) => *slot += 1,
            None => self.overflow += 1,
        }
    }

    /// Count in bin `i` (0 if out of range).
    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins.get(i).copied().unwrap_or(0)
    }

    /// Count of samples beyond the last bin.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.overflow
    }

    /// Approximate quantile `q` in `[0, 1]` from bin midpoints.
    ///
    /// Returns `None` if the histogram is empty. Overflow samples are
    /// attributed to the upper edge of the last bin.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &count) in self.bins.iter().enumerate() {
            seen += count;
            if seen >= target {
                return Some((i as f64 + 0.5) * self.width as f64);
            }
        }
        Some((self.bins.len() as f64) * self.width as f64)
    }

    /// Merges another histogram with identical geometry.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different width or bin count.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.width, other.width, "histogram width mismatch");
        assert_eq!(self.bins.len(), other.bins.len(), "histogram bins mismatch");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.overflow += other.overflow;
    }
}

/// Per-(class, hop-distance) latency table.
///
/// This is the measurement the detailed NoC hands back to the calibration
/// loop: average observed latency keyed by message class and hop count. It is
/// also the shape of the calibrated abstract model's parameter table, which
/// is what makes the reciprocal exchange a simple fit.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyTable {
    max_hops: usize,
    cells: Vec<Summary>, // [class][hops] flattened
}

impl LatencyTable {
    /// Creates a table covering hop distances `0..=max_hops`.
    pub fn new(max_hops: usize) -> Self {
        LatencyTable {
            max_hops,
            cells: vec![Summary::new(); MessageClass::COUNT * (max_hops + 1)],
        }
    }

    #[inline]
    fn idx(&self, class: MessageClass, hops: usize) -> usize {
        class.vnet() * (self.max_hops + 1) + hops.min(self.max_hops)
    }

    /// Records one observed latency.
    #[inline]
    pub fn record(&mut self, class: MessageClass, hops: usize, latency: f64) {
        let idx = self.idx(class, hops);
        self.cells[idx].record(latency);
    }

    /// The summary cell for `(class, hops)`; hop counts beyond `max_hops`
    /// clamp to the last cell.
    pub fn cell(&self, class: MessageClass, hops: usize) -> &Summary {
        &self.cells[self.idx(class, hops)]
    }

    /// Largest hop distance tracked distinctly.
    pub fn max_hops(&self) -> usize {
        self.max_hops
    }

    /// Mean latency across all cells of a class, weighted by sample count.
    pub fn class_mean(&self, class: MessageClass) -> Option<f64> {
        let base = class.vnet() * (self.max_hops + 1);
        let cells = &self.cells[base..base + self.max_hops + 1];
        let total: u64 = cells.iter().map(Summary::count).sum();
        if total == 0 {
            return None;
        }
        let sum: f64 = cells.iter().map(|c| c.mean() * c.count() as f64).sum();
        Some(sum / total as f64)
    }

    /// Merges another table with identical geometry.
    ///
    /// # Panics
    ///
    /// Panics if `max_hops` differs.
    pub fn merge(&mut self, other: &LatencyTable) {
        assert_eq!(self.max_hops, other.max_hops, "latency table shape mismatch");
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            a.merge(b);
        }
    }

    /// Resets all cells to empty (used at calibration-quantum boundaries).
    pub fn clear(&mut self) {
        for cell in &mut self.cells {
            *cell = Summary::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_welford_matches_naive() {
        let data = [1.5, 2.5, 3.5, 10.0, -4.0, 0.0];
        let mut s = Summary::new();
        for &x in &data {
            s.record(x);
        }
        let naive_mean = data.iter().sum::<f64>() / data.len() as f64;
        let naive_var = data.iter().map(|x| (x - naive_mean).powi(2)).sum::<f64>()
            / (data.len() - 1) as f64;
        assert!((s.mean() - naive_mean).abs() < 1e-12);
        assert!((s.variance() - naive_var).abs() < 1e-12);
        assert_eq!(s.min(), -4.0);
        assert_eq!(s.max(), 10.0);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let mut all = Summary::new();
        let mut a = Summary::new();
        let mut b = Summary::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 10.0;
            all.record(x);
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn summary_merge_with_empty_is_identity() {
        let mut a = Summary::new();
        a.record(3.0);
        let before = a;
        a.merge(&Summary::new());
        assert_eq!(a, before);
        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn summary_from_parts_round_trips_bit_exactly() {
        let mut s = Summary::new();
        for x in [1.5, -2.25, 1e-17, 42.0, 0.1] {
            s.record(x);
        }
        let back = Summary::from_parts(s.count(), s.mean(), s.m2(), s.min(), s.max());
        assert_eq!(back, s);
        // Degenerate empty round trip via the count==0 escape hatch.
        assert_eq!(Summary::from_parts(0, 123.0, 4.0, 5.0, 6.0), Summary::new());
    }

    #[test]
    fn empty_summary_defaults() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.is_empty());
        assert_eq!(s.to_string(), "n=0");
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(5, 4);
        for v in [0, 4, 5, 19, 20, 100] {
            h.record(v);
        }
        assert_eq!(h.bin_count(0), 2);
        assert_eq!(h.bin_count(1), 1);
        assert_eq!(h.bin_count(3), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn histogram_quantile_tracks_distribution() {
        let mut h = Histogram::new(1, 100);
        for v in 0..100u64 {
            h.record(v);
        }
        let median = h.quantile(0.5).unwrap();
        assert!((median - 49.5).abs() <= 1.0, "median was {median}");
        assert_eq!(Histogram::new(1, 4).quantile(0.5), None);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new(2, 3);
        let mut b = Histogram::new(2, 3);
        a.record(1);
        b.record(1);
        b.record(99);
        a.merge(&b);
        assert_eq!(a.bin_count(0), 2);
        assert_eq!(a.overflow(), 1);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn histogram_merge_shape_mismatch_panics() {
        Histogram::new(2, 3).merge(&Histogram::new(3, 3));
    }

    #[test]
    fn latency_table_clamps_hops() {
        let mut t = LatencyTable::new(4);
        t.record(MessageClass::Request, 9, 50.0);
        assert_eq!(t.cell(MessageClass::Request, 4).count(), 1);
        assert_eq!(t.cell(MessageClass::Request, 9).count(), 1); // clamped view
    }

    #[test]
    fn latency_table_class_mean_weights_by_count() {
        let mut t = LatencyTable::new(2);
        t.record(MessageClass::Response, 1, 10.0);
        t.record(MessageClass::Response, 1, 10.0);
        t.record(MessageClass::Response, 2, 40.0);
        let mean = t.class_mean(MessageClass::Response).unwrap();
        assert!((mean - 20.0).abs() < 1e-12);
        assert_eq!(t.class_mean(MessageClass::Request), None);
    }

    #[test]
    fn latency_table_clear_and_merge() {
        let mut a = LatencyTable::new(2);
        let mut b = LatencyTable::new(2);
        a.record(MessageClass::Request, 1, 5.0);
        b.record(MessageClass::Request, 1, 15.0);
        a.merge(&b);
        assert_eq!(a.cell(MessageClass::Request, 1).count(), 2);
        assert!((a.cell(MessageClass::Request, 1).mean() - 10.0).abs() < 1e-12);
        a.clear();
        assert!(a.cell(MessageClass::Request, 1).is_empty());
    }
}
