//! Order statistics, the percentile rule, and peak-memory reading.

/// Percentiles the tail rule may choose from, lowest first.
pub const PERCENTILE_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a reported percentile needs beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Returns `xs` sorted ascending. Panics on NaN, which no timer yields.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((n as f64 * p / 100.0).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted`.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The nearest-rank median of unsorted `xs`.
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs), 50.0)
}

/// Samples strictly beyond the nearest rank of `p` among `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest ladder percentile with at least [`TAIL_SAMPLES`] samples
/// beyond it among `n`, or `None` when even the median lacks them.
pub fn supported_tail(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| samples_beyond(n, p) >= TAIL_SAMPLES)
}

/// `VmHWM` (peak resident set) in KiB from a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") | None => Some(kb),
        Some(_) => None,
    }
}

/// This process's peak resident set in MiB, or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_vm_hwm_kb(&status)? as f64 / 1024.0)
}
