//! Order statistics shared by the closed-loop runner and the ledger.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by the nearest-rank rule;
/// `None` when empty. Sorts in place.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    Some(values[rank - 1])
}

/// The median of `values` (nearest rank); `None` when empty.
pub fn median(values: &mut [f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Quantile `q` of a power-of-two bucketed histogram: `buckets[i]` counts
/// observations in `(2^(i-1), 2^i]` (bucket 0 holds `[0, 1]`), the layout
/// `uns_metrics::LatencyHistogram` renders. Interpolates linearly inside
/// the bucket that holds the rank; `None` when the histogram is empty.
pub fn bucket_quantile(buckets: &[u64], q: f64) -> Option<f64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = (q * total as f64).max(1.0);
    let mut seen = 0u64;
    for (index, &count) in buckets.iter().enumerate() {
        if count == 0 {
            continue;
        }
        if (seen + count) as f64 >= rank {
            let upper = 2f64.powi(index as i32);
            let lower = if index == 0 { 0.0 } else { upper / 2.0 };
            let within = (rank - seen as f64) / count as f64;
            return Some(lower + within * (upper - lower));
        }
        seen += count;
    }
    None
}

/// Sub-buckets per power of two of [`LogHistogram`]: 1/32 relative
/// resolution: a quantile placed inside its bucket is off by at most 3.2%.
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;

/// A log-linear histogram of u64 values (here: nanoseconds) with 1/32
/// relative resolution in 7.5 KiB, whatever the run length.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self { counts: vec![0; (64 - SUB_BITS as usize + 1) * SUB], total: 0 }
    }
}

impl LogHistogram {
    fn index(value: u64) -> usize {
        if value < SUB as u64 {
            return value as usize;
        }
        let exponent = 63 - value.leading_zeros();
        let mantissa = (value >> (exponent - SUB_BITS)) as usize & (SUB - 1);
        (exponent - SUB_BITS + 1) as usize * SUB + mantissa
    }

    /// Lowest value of bucket `index` and the bucket's width.
    fn bounds(index: usize) -> (f64, f64) {
        if index < SUB {
            return (index as f64, 1.0);
        }
        let shift = (index / SUB - 1) as u32;
        ((((SUB + index % SUB) as u64) << shift) as f64, (1u64 << shift) as f64)
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index(value)] += 1;
        self.total += 1;
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds every count of `other`.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The `q`-quantile by nearest rank, placed inside its bucket by the
    /// rank's share of the bucket's count (exact below 32); `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            let count = u64::from(count);
            if seen + count >= rank {
                let (low, width) = Self::bounds(index);
                if width == 1.0 {
                    return Some(low);
                }
                return Some(low + width * ((rank - seen) as f64 - 0.5) / count as f64);
            }
            seen += count;
        }
        None
    }
}

/// splitmix64: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-sensitive 64-bit digest of a sequence of words: equal sequences
/// give equal digests, and any changed, dropped or reordered word changes
/// it with overwhelming probability.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0x243F_6A88_85A3_08D3, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(29) ^ (h >> 17)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50.0));
        assert_eq!(quantile(&mut v, 0.99), Some(99.0));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn bucket_quantile_interpolates_inside_the_bucket() {
        // 4 observations in (4, 8]: the median sits halfway through it.
        let buckets = [0, 0, 0, 4];
        assert_eq!(bucket_quantile(&buckets, 0.5), Some(6.0));
        assert_eq!(bucket_quantile(&[0, 0], 0.5), None);
    }

    #[test]
    fn log_histogram_quantiles_are_within_a_bucket() {
        let mut hist = LogHistogram::default();
        for v in 1..=100_000u64 {
            hist.record(v * 1000);
        }
        let p50 = hist.quantile(0.5).expect("non-empty");
        let p99 = hist.quantile(0.99).expect("non-empty");
        assert!((p50 / 50_000_000.0 - 1.0).abs() < 0.02, "{p50}");
        assert!((p99 / 99_000_000.0 - 1.0).abs() < 0.02, "{p99}");
        let mut small = LogHistogram::default();
        small.record(3);
        small.merge(&hist);
        assert_eq!(small.count(), 100_001);
        assert_eq!(small.quantile(0.0), Some(3.0));
    }

    #[test]
    fn digest_is_order_sensitive() {
        assert_eq!(digest([1, 2, 3]), digest([1, 2, 3]));
        assert_ne!(digest([1, 2, 3]), digest([2, 1, 3]));
        assert_ne!(digest([1, 2, 3]), digest([1, 2]));
    }
}
