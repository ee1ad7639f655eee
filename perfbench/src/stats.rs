//! Order statistics and process memory.

/// The nearest-rank `q`-quantile of `values` (`0 < q <= 1`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (nearest rank); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// How many of `values` lie strictly above `threshold`.
pub fn count_above(values: &[f64], threshold: f64) -> usize {
    values.iter().filter(|&&v| v > threshold).count()
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`) in MiB.
pub fn proc_status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| format!("/proc/self/status has no {field} field"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(count_above(&v, quantile(&v, 0.9)), 10);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn reads_own_memory() {
        assert!(proc_status_mb("VmHWM").unwrap() > 0.0);
        assert!(proc_status_mb("VmRSS").unwrap() > 0.0);
        assert!(proc_status_mb("VmNope").is_err());
    }
}
