//! Small statistics and host helpers: medians, tail percentiles,
//! per-point seed derivation and the process's peak resident set.

use iss_sim::scenario::fnv1a_hex;

/// The median of `values` (mean of the two middle values for an even
/// count), or `None` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Samples that must lie beyond a reported percentile for it to mean
/// something.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The nearest-rank `q`-quantile of `samples` (`0 < q < 1`), or `None` when
/// fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
#[must_use]
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_TAIL_SAMPLES).then(|| sorted[rank - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The seed of one stream of a workload, derived from the workload seed
/// and the stream's label, so every stream gets its own seed and the same
/// workload seed always gives the same inputs.
#[must_use]
pub fn derive_seed(workload_seed: u64, label: &str) -> u64 {
    // splitmix64 finalizer over the mixed inputs.
    let label_hash = u64::from_str_radix(&fnv1a_hex(label), 16).expect("fnv1a_hex is hex");
    let mut z = (workload_seed ^ label_hash).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p90 of 100 samples: rank 90, ten samples beyond it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), Some(90.0));
        // p90 of 99 samples: rank 90, only nine beyond.
        assert_eq!(tail_percentile(&v[..99], 0.9), None);
        // p50 needs 20 samples: rank 10, ten beyond.
        assert_eq!(tail_percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&v[..19], 0.5), None);
        // p99 needs 1000 samples.
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&w, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&w[..999], 0.99), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn derived_seeds_differ_per_label_and_repeat_per_seed() {
        assert_eq!(derive_seed(1, "gcc"), derive_seed(1, "gcc"));
        assert_ne!(derive_seed(1, "gcc"), derive_seed(1, "mcf"));
        assert_ne!(derive_seed(1, "gcc"), derive_seed(2, "gcc"));
    }
}
