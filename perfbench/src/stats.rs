//! Small statistics helpers: grouped-data percentiles, medians and the
//! release digest.

/// Percentile `q` (in `0..=1`) of ascending whole-number samples read as
/// grouped data: each sample `v` stands for the unit interval
/// `[v - 0.5, v + 0.5)`, and the percentile interpolates inside the interval
/// that holds it. For `q = 0.5` this is Python's
/// `statistics.median_grouped`. Simulated latencies are whole milliseconds,
/// so a nearest-rank percentile of thousands of them would sit on the same
/// integer for every seed. `None` for an empty slice.
pub fn grouped_percentile(sorted: &[u64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let target = q.clamp(0.0, 1.0) * n as f64;
    let x = sorted[(target as usize).min(n - 1)];
    let below = sorted.partition_point(|&v| v < x);
    let equal = sorted.partition_point(|&v| v <= x) - below;
    Some(x as f64 - 0.5 + (target - below as f64) / equal as f64)
}

/// Median of `values` (mean of the middle pair for an even count), `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// A 64-bit FNV-1a digest. Not cryptographic: it exists so two runs can be
/// compared byte for byte through one printed number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one integer (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_percentile_matches_pythons_median_grouped() {
        // The examples of Python's `statistics.median_grouped`.
        assert_eq!(grouped_percentile(&[52, 52, 53, 54], 0.5), Some(52.5));
        assert_eq!(grouped_percentile(&[1, 3, 3, 5, 7], 0.5), Some(3.25));
        let v = [1, 2, 2, 3, 4, 4, 4, 4, 4, 5];
        assert!((grouped_percentile(&v, 0.5).unwrap() - 3.7).abs() < 1e-12);
        // The top of the range is the upper edge of the largest sample.
        assert_eq!(grouped_percentile(&v, 1.0), Some(5.5));
        assert_eq!(grouped_percentile(&[], 0.5), None);
        // Where nearest rank reads 10 for both, mass below the tie pulls
        // the grouped median down inside 10's interval.
        let a = grouped_percentile(&[10, 10, 10, 11], 0.5).unwrap();
        let b = grouped_percentile(&[9, 10, 10, 10], 0.5).unwrap();
        assert!(9.5 < b && b < a && a < 10.5, "{b} {a}");
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.write(b"ab");
        let mut b = Digest::default();
        b.write(b"ba");
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.write(b"ab");
        assert_eq!(a, c);
    }
}
