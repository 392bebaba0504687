//! Order statistics and digests shared by every workload.

/// Nearest-rank `q`-quantile of an ascending slice: the sample at rank
/// `ceil(q * n)`. `None` for an empty slice.
pub fn nearest_rank(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Samples strictly after the nearest-rank `q`-quantile's position.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; fewer would make it the maximum under another name.
pub const MIN_BEYOND: usize = 10;

/// The tail levels tried, highest first.
const TAIL_LEVELS: [(f64, &str); 3] = [(0.999, "p999"), (0.99, "p99"), (0.9, "p90")];

/// The highest tail percentile of an ascending slice that has at least
/// [`MIN_BEYOND`] samples beyond it, with its label. Falls back to the
/// median (labelled `p50`) when no tail level qualifies, so small runs
/// still report a value; the label says which one it is.
pub fn tail(sorted: &[u64]) -> Option<(u64, &'static str)> {
    for (q, label) in TAIL_LEVELS {
        if samples_beyond(sorted.len(), q) >= MIN_BEYOND {
            return nearest_rank(sorted, q).map(|v| (v, label));
        }
    }
    nearest_rank(sorted, 0.5).map(|v| (v, "p50"))
}

/// Ascending copy of a sample set.
pub fn sorted(samples: &[u64]) -> Vec<u64> {
    let mut s = samples.to_vec();
    s.sort_unstable();
    s
}

/// Median of a set of floating-point values (lower middle for an even
/// count, matching the nearest-rank median); 0 when empty.
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => v[n.div_ceil(2) - 1],
    }
}

/// FNV-1a, 64-bit: the digest the determinism checks compare.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(nearest_rank(&s, 0.5), Some(500));
        assert_eq!(nearest_rank(&s, 0.99), Some(990));
        assert_eq!(nearest_rank(&s, 0.999), Some(999));
        assert_eq!(nearest_rank(&s, 1.0), Some(1000));
        assert_eq!(nearest_rank(&s, 0.0), Some(1));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&[7], 0.999), Some(7));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // n = 10_000: p999 sits at rank 9990, exactly 10 beyond.
        let s: Vec<u64> = (1..=10_000).collect();
        assert_eq!(samples_beyond(s.len(), 0.999), 10);
        assert_eq!(tail(&s), Some((9990, "p999")));
        // n = 9_999: p999 has 9 beyond, so p99 (rank 9900, 99 beyond) wins.
        let s: Vec<u64> = (1..=9_999).collect();
        assert_eq!(samples_beyond(s.len(), 0.999), 9);
        assert_eq!(tail(&s), Some((9900, "p99")));
        // n = 100: p90 has exactly 10 beyond.
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&s), Some((90, "p90")));
        // n = 99: no tail level qualifies; the median is reported instead.
        let s: Vec<u64> = (1..=99).collect();
        assert_eq!(tail(&s), Some((50, "p50")));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_takes_lower_middle() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[]), 0.0);
    }

    #[test]
    fn fnv_reference_vector() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
