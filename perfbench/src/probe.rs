//! Host-speed correction for the session workloads.
//!
//! On a shared host the same code runs at different speeds from one second
//! to the next and from one minute to the next: a fixed 512-bit signature
//! took 255–600 µs within one run, and the median of 100-signature batches
//! moved from 275 to 490 µs between runs minutes apart, while a
//! latency-bound integer loop stayed within 5%. Multiply-bound code (RSA
//! signing and verification) slows most. The closed-loop throughput of
//! `fresh-closed` moved by 0.75–1.09× of its median between 10 s runs, far
//! more than any bound a later change could be judged by.
//!
//! A probe thread therefore times a fixed multiply-bound kernel every
//! [`GAP`] while a session stream runs. The kernel belongs to the benchmark
//! and calls nothing of the code under test, so a change to the program
//! cannot move it. The slowdown over an interval is the median probe time
//! around it over the fastest probe time of the run. The session workloads
//! report every session's latency divided by the slowdown over that
//! session, and a closed loop's throughput in each block multiplied by the
//! block's slowdown: what they would have measured had the host run at its
//! fastest speed of that run. Over ten 10 s runs this took
//! the spread of `repeat-closed` throughput from 0.22 to 0.04 of its median
//! (2-core x86-64 VM). `requote-stream` is latency-bound floating point,
//! which the probe over-corrects (its spread grew from 0.18 to 0.21).
//! It runs on one thread, and its slow phases come and go within a run, so
//! it reports the faster half of its blocks instead, uncorrected.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::report::median;

/// One probe: when it ran (ns since the stream started) and how long the
/// kernel took, ns.
pub type Sample = (u64, u64);

/// Pause between two probes of the probe thread.
pub const GAP: Duration = Duration::from_millis(10);

/// Kernel rounds of one probe: about 0.07 ms on a 2-core x86-64 VM, so the
/// probe thread takes under 1% of a core.
const ROUNDS: usize = 2000;

/// The kernel: schoolbook products of 8-limb numbers, the inner loop of
/// RSA's modular multiplication, with no dependency on the code under test.
fn kernel(rounds: usize) -> u64 {
    let mut a = [0x1234_5678_9abc_def1_u64; 8];
    let b = [0x9e37_79b9_7f4a_7c15_u64; 8];
    for _ in 0..rounds {
        let mut out = [0u64; 16];
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &y) in b.iter().enumerate() {
                let t = u128::from(x) * u128::from(y) + u128::from(out[i + j]) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            out[i + 8] = carry as u64;
        }
        a.copy_from_slice(&out[4..12]);
        a[0] |= 1;
    }
    a[0]
}

/// Times one kernel run, ns.
fn time_kernel() -> u64 {
    let t = Instant::now();
    std::hint::black_box(kernel(std::hint::black_box(ROUNDS)));
    t.elapsed().as_nanos() as u64
}

/// The probe thread; dropping it stops the thread and waits for it.
pub struct Probe {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Vec<Sample>>>,
}

impl Probe {
    /// Starts probing every [`GAP`]; sample times are ns since `t0`.
    pub fn start(t0: Instant) -> Probe {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut out = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(GAP);
                let at = t0.elapsed().as_nanos() as u64;
                out.push((at, time_kernel()));
            }
            out
        });
        Probe {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the thread, waits for it, and returns its samples.
    pub fn finish(mut self) -> Vec<Sample> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Slowdowns over intervals of one run, from its probes (in time order).
pub struct Slowdown<'a> {
    samples: &'a [Sample],
    fastest: f64,
    whole: f64,
}

impl<'a> Slowdown<'a> {
    /// Over `samples` (in time order), relative to `fastest` ns.
    pub fn new(samples: &'a [Sample], fastest: u64) -> Self {
        let all: Vec<f64> = samples.iter().map(|s| s.1 as f64).collect();
        Slowdown {
            samples,
            fastest: fastest.max(1) as f64,
            whole: median(&all),
        }
    }

    /// The median probe in `[from_ns, to_ns)` over the fastest, at least
    /// 1; the run's median probe if none fell in the interval.
    pub fn over(&self, from_ns: u64, to_ns: u64) -> f64 {
        let lo = self.samples.partition_point(|s| s.0 < from_ns);
        let hi = self.samples.partition_point(|s| s.0 < to_ns);
        let inside: Vec<f64> = self
            .samples
            .get(lo..hi.max(lo))
            .unwrap_or_default()
            .iter()
            .map(|s| s.1 as f64)
            .collect();
        let typical = if inside.is_empty() {
            self.whole
        } else {
            median(&inside)
        };
        (typical / self.fastest).max(1.0)
    }

    /// `(end_ns, latency_ns)` samples with each latency divided by the
    /// slowdown over the session, widened by one probe gap on each side so
    /// that a session shorter than the gap still meets a probe.
    pub fn correct(&self, done: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let gap = GAP.as_nanos() as u64;
        done.iter()
            .map(|&(end, lat)| {
                let s = self.over(end.saturating_sub(lat + gap), end + gap);
                (end, (lat as f64 / s) as u64)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_probe_over_the_fastest() {
        let samples = [(5, 100), (15, 300), (16, 200), (17, 400), (40, 50)];
        let sd = Slowdown::new(&samples, 50);
        assert_eq!(sd.over(0, 10), 2.0);
        assert_eq!(sd.over(10, 20), 6.0);
        // No probe in the interval: the median of all five (200).
        assert_eq!(sd.over(20, 30), 4.0);
        assert_eq!(Slowdown::new(&[(1, 10)], 50).over(0, 10), 1.0);
        assert!(time_kernel() > 0);
    }

    #[test]
    fn latencies_are_divided_by_the_slowdown_around_them() {
        let gap = GAP.as_nanos() as u64;
        let t = 10 * gap;
        let samples = [(t - gap / 2, 200), (t + 5 * gap, 100)];
        let sd = Slowdown::new(&samples, 100);
        // Only the first probe lies within a gap of the session [t-1, t].
        assert_eq!(sd.correct(&[(t, 1000)]), vec![(t, 500)]);
    }
}
