//! Whole-protocol benchmarks: a full DLS-BL-NCP session (state machines,
//! crypto, all five phases) across system sizes, and the deviant-detection
//! path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dls_bench::workloads::heterogeneous_rates;
use dls_dlt::SystemModel;
use dls_protocol::config::{Behavior, ProcessorConfig, SessionConfig};
use dls_protocol::run_session_vm;
use std::hint::black_box;

fn compliant_cfg(m: usize) -> SessionConfig {
    let w = heterogeneous_rates(m, 1.0, 4.0, 51);
    SessionConfig::builder(SystemModel::NcpFe, 0.1)
        .processors(w.iter().map(|&x| ProcessorConfig::new(x, Behavior::Compliant)))
        .seed(1)
        .blocks(2 * m)
        .build()
        .unwrap()
}

fn bench_full_session(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocol/full_session");
    g.sample_size(10);
    for &m in &[2usize, 4, 8, 16] {
        let cfg = compliant_cfg(m);
        // Warm the key cache so the benchmark measures the protocol, not
        // one-time key generation.
        let _ = run_session_vm(&cfg).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(m), &cfg, |b, cfg| {
            b.iter(|| black_box(run_session_vm(cfg).unwrap()))
        });
    }
    g.finish();
}

fn bench_deviant_detection(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocol/deviant_session");
    g.sample_size(10);
    let w = heterogeneous_rates(4, 1.0, 4.0, 52);
    let cfg = SessionConfig::builder(SystemModel::NcpFe, 0.1)
        .processors(w.iter().enumerate().map(|(i, &x)| {
            ProcessorConfig::new(
                x,
                if i == 1 {
                    Behavior::EquivocateBids { factor: 2.0 }
                } else {
                    Behavior::Compliant
                },
            )
        }))
        .seed(1)
        .blocks(8)
        .build()
        .unwrap();
    let _ = run_session_vm(&cfg).unwrap();
    g.bench_function("equivocation_abort_m4", |b| {
        b.iter(|| black_box(run_session_vm(&cfg).unwrap()))
    });
    g.finish();
}

criterion_group!(benches, bench_full_session, bench_deviant_detection);
criterion_main!(benches);
