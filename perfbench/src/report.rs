//! Summary statistics and the result line.

use std::fmt::Write as _;

/// Nearest-rank percentile (`q` in `0..=1`) of an ascending sample.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a sample of floats (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A run of consecutive operations: their values (ascending), the values'
/// sum, and the wall time it spans, from the end of the operation before
/// the block to the end of its last one.
#[derive(Debug, Default, Clone)]
pub struct Block {
    /// Values of the block's operations, ascending.
    pub sorted: Vec<u64>,
    /// Sum of `sorted`.
    pub sum: u64,
    /// Start of the block, ns.
    pub from_ns: u64,
    /// End of the block, ns.
    pub to_ns: u64,
}

impl Block {
    /// Wall time the block spans, ns.
    pub fn span_ns(&self) -> u64 {
        self.to_ns.saturating_sub(self.from_ns)
    }
}

/// Cuts `(end_ns, value)` samples that end before `until_ns` into blocks of
/// `size` consecutive operations, in order of their end. The first sample
/// only opens the first block; an incomplete last block is dropped.
pub fn blocks(samples: &[(u64, u64)], size: usize, until_ns: u64) -> Vec<Block> {
    let mut v: Vec<(u64, u64)> = samples.iter().copied().filter(|s| s.0 < until_ns).collect();
    v.sort_unstable();
    let size = size.max(1);
    let mut out = Vec::new();
    let mut start = 0;
    while start + size < v.len() {
        let chunk = &v[start + 1..=start + size];
        let mut sorted: Vec<u64> = chunk.iter().map(|s| s.1).collect();
        sorted.sort_unstable();
        out.push(Block {
            sum: sorted.iter().sum(),
            sorted,
            from_ns: v[start].0,
            to_ns: chunk.last().map_or(0, |s| s.0),
        });
        start += size;
    }
    out
}

/// The faster half of `blocks` by `rate` (the larger half when odd).
pub fn faster_half(blocks: &[Block], rate: impl Fn(&Block) -> f64) -> Vec<Block> {
    let mut by_rate: Vec<(f64, &Block)> = blocks.iter().map(|b| (rate(b), b)).collect();
    by_rate.sort_by(|x, y| y.0.total_cmp(&x.0));
    by_rate
        .into_iter()
        .take(blocks.len().div_ceil(2))
        .map(|(_, b)| b.clone())
        .collect()
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records `name = value unit`; non-finite values (and -0) are
    /// recorded as 0.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.entries.push((name.to_string(), value, unit));
    }

    /// Human-readable lines for stderr.
    pub fn pretty(&self) -> String {
        let mut s = String::new();
        for (name, value, unit) in &self.entries {
            let _ = writeln!(s, "  {name:<34} {value:>16.6} {unit}");
        }
        s
    }
}

/// Renders the final result line.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        failed == 0 && attempted > 0,
        attempted.max(1),
        failed
    );
    for (i, (name, value, unit)) in metrics.entries.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// One line describing the host and build, printed before the result.
pub fn host_line(
    workload: &str,
    seed: u64,
    seconds: u64,
    workers: usize,
    key_bits: &[usize],
) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let bits: Vec<String> = key_bits.iter().map(|b| b.to_string()).collect();
    format!(
        "{{\"host\": {{\"cores\": {cores}, \"workers\": {workers}, \"rustc\": \"{}\", \"commit\": \"{}\", \"key_bits\": [{}], \"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"arrival_per_s\": {:?}}}}}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
        bits.join(", "),
        crate::workloads::ARRIVAL_PER_S,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn blocks_follow_end_order_and_drop_the_tail() {
        let samples = [(30, 3), (10, 1), (20, 2), (40, 4), (50, 5), (99, 9)];
        let bs = blocks(&samples, 2, 60);
        assert_eq!(bs.len(), 2);
        assert_eq!((bs[0].sorted.clone(), bs[0].span_ns()), (vec![2, 3], 20));
        assert_eq!((bs[1].sorted.clone(), bs[1].sum), (vec![4, 5], 9));
        let fast = faster_half(&bs, |b| b.sum as f64);
        assert_eq!((fast.len(), fast[0].sum), (1, 9));
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.put("p50_ms", 1.25, "ms");
        m.put("bad", f64::NAN, "s");
        let line = result_line(10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"bad\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
        assert!(result_line(10, 1, &m).starts_with("{\"correct\": false"));
    }
}
