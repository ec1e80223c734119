//! Executor for the linear daisy-chain network (`dls_dlt::linear`),
//! cross-validating its closed-form solution the same way
//! [`crate::simulate`] validates the bus models.
//!
//! Store-and-forward with front ends: each processor starts computing its
//! own fraction the moment its data arrives and simultaneously forwards the
//! remaining tail down the next link. A chain has one link per hop rather
//! than one shared bus, so arrivals follow from a single forward pass.

use crate::session::{ProcTimeline, Segment, Timeline};
use dls_dlt::linear::LinearParams;

/// Runs an allocation down the chain and returns the execution timeline.
///
/// The `bus` field of the returned [`Timeline`] holds one segment per
/// *link* transfer, tagged with the receiving processor.
///
/// # Panics
/// Panics if `alloc.len() != params.m()` or an entry is negative/NaN.
pub fn simulate_chain(params: &LinearParams, alloc: &[f64]) -> Timeline {
    let m = params.m();
    assert_eq!(alloc.len(), m, "allocation length mismatch");
    assert!(
        alloc.iter().all(|a| a.is_finite() && *a >= 0.0),
        "allocation entries must be finite and non-negative"
    );
    let w = params.w();
    let z = params.links();

    let mut procs = vec![
        ProcTimeline {
            recv: None,
            compute: None,
        };
        m
    ];
    let mut bus = Vec::new();

    // Precompute tail sums: tail[i] = Σ_{j>i} α_j.
    let mut tail = vec![0.0; m];
    for i in (0..m - 1).rev() {
        tail[i] = tail[i + 1] + alloc[i + 1];
    }

    // P_1 holds the load at t=0; the tail for processors `>= i` reaches
    // P_i one link transfer after it reached P_{i-1}.
    let mut now = 0.0;
    let mut makespan = 0.0f64;
    for i in 0..m {
        if i > 0 {
            let dur = z[i - 1] * (alloc[i] + tail[i]);
            now += dur;
            if alloc[i] + tail[i] > 0.0 {
                let seg = Segment {
                    start: now - dur,
                    end: now,
                };
                bus.push((i, seg));
                procs[i].recv = Some(seg);
            }
        }
        makespan = makespan.max(now);
        if alloc[i] > 0.0 {
            let end = now + alloc[i] * w[i];
            procs[i].compute = Some(Segment { start: now, end });
            makespan = makespan.max(end);
        }
    }

    Timeline {
        procs,
        bus,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_dlt::linear;

    fn params() -> LinearParams {
        LinearParams::new(vec![0.2, 0.3, 0.1], vec![1.0, 2.0, 1.5, 3.0]).unwrap()
    }

    #[test]
    fn matches_closed_form_at_optimum() {
        let p = params();
        let a = linear::fractions(&p);
        let tl = simulate_chain(&p, &a);
        let closed = linear::finish_times(&p, &a);
        for (s, c) in tl.finish_times().iter().zip(&closed) {
            assert!((s - c).abs() < 1e-12, "{s} vs {c}");
        }
        assert!((tl.makespan - linear::optimal_makespan(&p)).abs() < 1e-12);
    }

    #[test]
    fn matches_closed_form_off_optimum() {
        let p = params();
        for alloc in [
            vec![0.25; 4],
            vec![0.7, 0.1, 0.1, 0.1],
            vec![0.1, 0.2, 0.3, 0.4],
        ] {
            let tl = simulate_chain(&p, &alloc);
            let closed = linear::finish_times(&p, &alloc);
            for (s, c) in tl.finish_times().iter().zip(&closed) {
                assert!((s - c).abs() < 1e-12, "{alloc:?}");
            }
        }
    }

    #[test]
    fn transfers_are_sequential_down_the_chain() {
        let p = params();
        let a = linear::fractions(&p);
        let tl = simulate_chain(&p, &a);
        assert_eq!(tl.bus.len(), 3);
        for k in 1..tl.bus.len() {
            assert!(
                tl.bus[k].1.start >= tl.bus[k - 1].1.start,
                "downstream transfers start later"
            );
        }
    }

    #[test]
    fn originator_computes_from_zero() {
        let p = params();
        let a = linear::fractions(&p);
        let tl = simulate_chain(&p, &a);
        assert_eq!(tl.procs[0].compute.unwrap().start, 0.0);
        assert!(tl.procs[0].recv.is_none());
    }

    #[test]
    fn single_processor_chain() {
        let p = LinearParams::new(vec![], vec![2.0]).unwrap();
        let tl = simulate_chain(&p, &[1.0]);
        assert_eq!(tl.makespan, 2.0);
        assert!(tl.bus.is_empty());
    }

    #[test]
    fn zero_fraction_downstream_still_forwards() {
        // P2 gets nothing but P3 does: the tail still flows through.
        let p = LinearParams::new(vec![0.5, 0.5], vec![1.0, 1.0, 1.0]).unwrap();
        let tl = simulate_chain(&p, &[0.5, 0.0, 0.5]);
        assert!(tl.procs[1].compute.is_none());
        assert!(tl.procs[2].compute.is_some());
        // P3's data crossed two links: arrival = 0.5·0.5 + 0.5·0.5.
        assert!((tl.procs[2].compute.unwrap().start - 0.5).abs() < 1e-12);
    }
}
