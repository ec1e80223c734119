//! Bus-timeline benchmarks: single-load schedule execution across system
//! sizes, plus the multi-load pipeline on the same kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dls_bench::workloads::heterogeneous_rates;
use dls_netsim::{simulate, SessionSpec};
use dls_dlt::multiload::{pipeline_schedule_exact, InstallmentScheduler, LoadSpec};
use dls_dlt::{optimal, BusParams, SystemModel};
use std::hint::black_box;

fn bench_simulate(c: &mut Criterion) {
    let mut g = c.benchmark_group("netsim/simulate");
    for &m in &[8usize, 64, 512, 4096] {
        let w = heterogeneous_rates(m, 1.0, 8.0, 21);
        let p = BusParams::new(0.2, w).unwrap();
        let alloc = optimal::fractions(SystemModel::NcpFe, &p);
        let spec = SessionSpec::new(SystemModel::NcpFe, p, alloc);
        g.bench_with_input(BenchmarkId::from_parameter(m), &spec, |b, spec| {
            b.iter(|| black_box(simulate(spec)))
        });
    }
    g.finish();
}

/// The shared bus kernel through `pipeline_schedule`: the f64 shape of a
/// multi-load re-quote (NCP-FE, m = 1024, k = 8) and the exact-rational
/// certificate at m = 16, k = 4.
fn bench_pipeline_schedule(c: &mut Criterion) {
    let mut g = c.benchmark_group("dlt/pipeline_schedule");
    let loads = |k: usize| -> Vec<LoadSpec> {
        (0..k)
            .map(|l| LoadSpec::new(1.0 + 0.5 * l as f64, 0.0625 * (1 + l % 4) as f64 / 2.0))
            .collect()
    };
    let w = heterogeneous_rates(1024, 1.0, 8.0, 21);
    let sched = InstallmentScheduler::new(SystemModel::NcpFe, &w, &loads(8)).unwrap();
    g.bench_function("f64/ncp-fe/m1024/k8", |b| b.iter(|| black_box(sched.schedule())));
    // Rates on a 1/16 grid keep the exact solver's rationals short.
    let w: Vec<f64> = heterogeneous_rates(16, 1.0, 8.0, 21)
        .iter()
        .map(|x| (x * 16.0).round() / 16.0)
        .collect();
    let loads = loads(4);
    g.bench_function("exact/ncp-fe/m16/k4", |b| {
        b.iter(|| black_box(pipeline_schedule_exact(SystemModel::NcpFe, &w, &loads).unwrap()))
    });
    g.finish();
}

criterion_group!(benches, bench_simulate, bench_pipeline_schedule);
criterion_main!(benches);
