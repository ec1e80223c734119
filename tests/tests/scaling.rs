//! Scale and reproducibility smoke tests: the protocol at larger m,
//! bit-exact replay across models and seeds, the exact payment solver at
//! benchmark scale, and live ratio gates on the paper's cost claims.
//!
//! Each cost gate times a path over a frozen workload with a min-of-reps
//! loop ([`best_ns`]) and asserts its ratio to a baseline, so it
//! re-measures the code on every run: the incremental auction engine
//! against a from-scratch re-solve, the k-load splice against k
//! independent solves, amortized signature verification against
//! per-receiver re-verification, and the session service against the
//! frozen cost of the removed thread-per-party runtime. The bars are
//! those the retired committed-file gates held, and each holds with
//! margin in the debug test profile.

use std::time::Instant;

use dls::dlt::multiload::LoadSpec;
use dls::dlt::{optimal, BusParams, ALL_MODELS};
use dls::mechanism::MultiLoadEngine;
use dls::protocol::config::{Behavior, CryptoProfile, ProcessorConfig, SessionConfig};
use dls::protocol::referee::Phase;
use dls::protocol::service::{ServiceConfig, ServiceHandle};
use dls::protocol::{run_session_vm, FaultPlan};
use dls::{SessionStatus, SystemModel};
use dls_bench::workloads::{quantized_rates, splitmix64};

fn rates(m: usize) -> Vec<f64> {
    (0..m).map(|i| 1.0 + (i % 5) as f64 * 0.4).collect()
}

#[test]
fn twenty_four_processor_session_completes() {
    let m = 24;
    let cfg = SessionConfig::builder(SystemModel::NcpFe, 0.05)
        .processors(
            rates(m)
                .into_iter()
                .map(|w| ProcessorConfig::new(w, Behavior::Compliant)),
        )
        .seed(13)
        .blocks(4 * m)
        .build()
        .unwrap();
    let out = run_session_vm(&cfg).unwrap();
    assert_eq!(out.status, SessionStatus::Completed);
    assert_eq!(out.processors.len(), m);
    // Exactly m(m-1) bid deliveries and m payment vectors.
    assert_eq!(out.messages.category("bid").0 as usize, m * (m - 1));
    assert_eq!(out.messages.category("payment-vector").0 as usize, m);
    // All blocks accounted for.
    let total: usize = out.processors.iter().map(|p| p.blocks_granted).sum();
    assert_eq!(total, 4 * m);
    assert!(out.ledger.conservation_error().abs() < 1e-9);
}

#[test]
fn deviant_detection_scales() {
    // One equivocator among 12: exactly it is fined, everyone else gets
    // F/11.
    let m = 12;
    let deviant = 7;
    let cfg = SessionConfig::builder(SystemModel::NcpNfe, 0.05)
        .processors(rates(m).into_iter().enumerate().map(|(i, w)| {
            ProcessorConfig::new(
                w,
                if i == deviant {
                    Behavior::EquivocateBids { factor: 3.0 }
                } else {
                    Behavior::Compliant
                },
            )
        }))
        .seed(13)
        .blocks(2 * m)
        .build()
        .unwrap();
    let out = run_session_vm(&cfg).unwrap();
    assert_eq!(out.fined_processors(), vec![deviant]);
    let share = out.fine / (m - 1) as f64;
    for (i, p) in out.processors.iter().enumerate() {
        if i != deviant {
            assert!((p.rewarded - share).abs() < 1e-9, "P{}", i + 1);
        }
    }
}

#[test]
fn replay_is_bit_exact_across_models_and_seeds() {
    for model in [SystemModel::NcpFe, SystemModel::NcpNfe] {
        for seed in [0u64, 9, 14] {
            let mk = || {
                let cfg = SessionConfig::builder(model, 0.15)
                    .processors(
                        rates(5)
                            .into_iter()
                            .map(|w| ProcessorConfig::new(w, Behavior::Compliant)),
                    )
                    .seed(seed)
                    .build()
                    .unwrap();
                run_session_vm(&cfg).unwrap()
            };
            let (a, b) = (mk(), mk());
            assert_eq!(a.status, b.status, "{model} seed {seed}");
            assert_eq!(a.makespan, b.makespan);
            for (x, y) in a.processors.iter().zip(&b.processors) {
                assert_eq!(x.utility, y.utility);
                assert_eq!(x.meter, y.meter);
                assert_eq!(x.payment.map(|q| q.total()), y.payment.map(|q| q.total()));
            }
            assert_eq!(a.messages, b.messages);
        }
    }
}

#[test]
fn different_seeds_change_keys_not_economics() {
    // Seeds affect cryptographic material only; the market outcome is
    // identical because the economics are deterministic in the config.
    let mk = |seed| {
        let cfg = SessionConfig::builder(SystemModel::NcpFe, 0.15)
            .processors(
                rates(4)
                    .into_iter()
                    .map(|w| ProcessorConfig::new(w, Behavior::Compliant)),
            )
            .seed(seed)
            .build()
            .unwrap();
        run_session_vm(&cfg).unwrap()
    };
    let (a, b) = (mk(21), mk(22));
    for (x, y) in a.processors.iter().zip(&b.processors) {
        assert_eq!(x.utility, y.utility);
        assert_eq!(x.blocks_granted, y.blocks_granted);
    }
}

/// The frozen market of the cost gates: `m` dyadic bids (seed 42,
/// quantum 1/64) plus observed rates where every seventh agent slacks by
/// one quantum, so every path runs the mixed-schedule shift.
fn workload(m: usize) -> (Vec<f64>, Vec<f64>) {
    let bids = quantized_rates(m, 1.0, 8.0, 42, 64);
    let observed = bids
        .iter()
        .enumerate()
        .map(|(i, &w)| if i % 7 == 3 { w + 1.0 / 64.0 } else { w })
        .collect();
    (bids, observed)
}

/// The frozen `(position, new bid)` schedule the bid-update gates replay:
/// positions from the splitmix64 stream, bids from the quantized generator
/// (always valid).
fn update_schedule(m: usize, updates: usize) -> Vec<(usize, f64)> {
    let mut state = 42u64.wrapping_add(0xb1d5);
    quantized_rates(updates, 1.0, 8.0, 42u64.wrapping_add(0x5eed), 64)
        .into_iter()
        .map(|r| ((splitmix64(&mut state) as usize) % m, r))
        .collect()
}

/// Best wall-clock nanoseconds of each of `ops` over `reps` rounds. Every
/// round runs each op once, in turn, so load from neighbouring tests falls
/// on the compared paths alike. The first round also pays any one-time
/// warmup (key generation, signature caches), which the minimum discards
/// once `reps ≥ 2`.
fn best_ns<const N: usize>(reps: usize, mut ops: [&mut dyn FnMut(); N]) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..reps {
        for (op, best) in ops.iter_mut().zip(&mut best) {
            let t0 = Instant::now();
            op();
            *best = best.min(t0.elapsed().as_nanos() as f64);
        }
    }
    best
}

/// The O(m) exact payment path must stay tractable at benchmark scale.
/// m = 256 exact payments per model, with a wall-clock budget generous
/// enough for debug builds and loaded CI machines — the point is to catch
/// an accidental return to Θ(m²) (which blows this budget by orders of
/// magnitude), not to measure.
#[test]
fn exact_payments_complete_at_m_256() {
    use dls::mechanism::exact::compute_payments_exact;
    use dls::num::Rational;

    let start = Instant::now();
    for model in ALL_MODELS {
        let (bids, observed) = workload(256);
        let to_rat = |xs: &[f64]| -> Vec<Rational> {
            xs.iter().map(|&x| Rational::from_f64(x).unwrap()).collect()
        };
        let payments = compute_payments_exact(
            model,
            &Rational::from_f64(0.0625).unwrap(),
            &to_rat(&bids),
            &to_rat(&observed),
        )
        .unwrap();
        assert_eq!(payments.len(), 256);
        // Truthful non-slackers must not lose (Theorem 3.2, exactly). The
        // NCP originators are exempt: removing the head processor promotes
        // its successor into the free-computation originator slot, so the
        // reduced bus can be *faster* and the originator's first bonus term
        // smaller than its second (see `removing_nfe_originator_can_speed_up`
        // in dls-dlt; the FE analogue is symmetric).
        let originator = |i: usize| match model {
            SystemModel::Cp => false,
            SystemModel::NcpFe => i == 0,
            SystemModel::NcpNfe => i == 255,
        };
        for (i, p) in payments.iter().enumerate() {
            if i % 7 != 3 && !originator(i) {
                assert!(!p.bonus.is_negative(), "{model}: agent {i} bonus < 0");
            }
        }
    }
    assert!(
        start.elapsed() < std::time::Duration::from_secs(120),
        "exact m=256 blew the generous wall-clock budget: {:?}",
        start.elapsed()
    );
}

/// A single-bid re-quote on the incremental [`MultiLoadEngine`] over one
/// unit load (chain splice plus O(1) makespan read) must be no slower
/// than the one-shot pipeline a caller without the engine runs for every
/// re-quote — fresh [`BusParams`] plus a full solve — at m = 1024, for
/// every model. The bar is ≥ 1×, not the ≥ 5× a release build shows: it
/// catches a pessimized splice without timing noise deciding the result.
#[test]
fn incremental_bid_updates_beat_full_recompute_at_m_1024() {
    let (m, z) = (1024, 0.0625);
    let (bids, _) = workload(m);
    let schedule = update_schedule(m, 64);
    for model in ALL_MODELS {
        let mut engine = MultiLoadEngine::new(model, &bids, &[LoadSpec::new(1.0, z)]).unwrap();
        let mut bids_now = bids.clone();
        let [incremental, full] = best_ns(
            5,
            [
                &mut || {
                    for &(i, r) in &schedule {
                        engine.submit_bid(i, r).unwrap();
                        std::hint::black_box(engine.load_makespan(0).unwrap());
                    }
                },
                &mut || {
                    for &(i, r) in &schedule {
                        bids_now[i] = r;
                        let params = BusParams::new(z, bids_now.clone()).unwrap();
                        std::hint::black_box(optimal::optimal_makespan(model, &params));
                    }
                },
            ],
        );
        let speedup = full / incremental;
        eprintln!("{model}: incremental bid update {speedup:.2}x full recompute at m={m}");
        assert!(
            speedup >= 1.0,
            "{model}: incremental bid updates slower than full recompute at m=1024: {speedup:.2}x"
        );
    }
}

/// A bid revision in a k-load session re-prices all k loads. On the warm
/// [`MultiLoadEngine`] that is one chain-suffix splice per load plus k
/// O(1) quotes; the baseline re-solves k independent markets from scratch
/// (fresh [`BusParams`] and a full solve per load). At m = 1024 and
/// k = 64 the splice must re-price at least 3× as many loads per second,
/// for every model.
#[test]
fn splice_beats_k_independent_solves_3x_at_m_1024_k_64() {
    let (m, k) = (1024, 64);
    let (bids, _) = workload(m);
    let schedule = update_schedule(m, 32);
    let sizes = quantized_rates(k, 0.5, 2.0, 42u64.wrapping_add(0x10ad), 64);
    let zs = quantized_rates(k, 0.0625, 0.5, 42u64.wrapping_add(0xb005), 64);
    let loads: Vec<LoadSpec> = sizes
        .iter()
        .zip(&zs)
        .map(|(&s, &z)| LoadSpec::new(s, z))
        .collect();
    for model in ALL_MODELS {
        let mut engine = MultiLoadEngine::new(model, &bids, &loads).unwrap();
        let mut bids_now = bids.clone();
        let [splice, resolve] = best_ns(
            5,
            [
                &mut || {
                    for &(i, r) in &schedule {
                        engine.submit_bid(i, r).unwrap();
                        for l in 0..k {
                            std::hint::black_box(engine.load_makespan(l).unwrap());
                        }
                    }
                },
                &mut || {
                    for &(i, r) in &schedule {
                        bids_now[i] = r;
                        for spec in &loads {
                            let params = BusParams::new(spec.z, bids_now.clone()).unwrap();
                            std::hint::black_box(
                                spec.size * optimal::optimal_makespan(model, &params),
                            );
                        }
                    }
                },
            ],
        );
        let speedup = resolve / splice;
        eprintln!("{model}: splice {speedup:.2}x k independent solves at m={m} k={k}");
        assert!(
            speedup >= 3.0,
            "{model}: splice only {speedup:.2}x k independent solves at m={m} k={k}"
        );
    }
}

/// `batch` NCP-FE sessions over the frozen `m`-market, session `s` playing
/// scenario `s mod 8` of a chaos cycle (compliant, misreport, slack,
/// crash, delay, garbage, corrupt payments, mute), so verdicts, fines and
/// degraded re-runs are all part of the measured work.
fn chaos_batch(
    m: usize,
    batch: usize,
    key_bits: usize,
    profile: CryptoProfile,
) -> Vec<SessionConfig> {
    let (rates, _) = workload(m);
    (0..batch)
        .map(|s| {
            let mut ps: Vec<ProcessorConfig> = rates
                .iter()
                .map(|&w| ProcessorConfig::new(w, Behavior::Compliant))
                .collect();
            match s % 8 {
                1 => ps[1].behavior = Behavior::Misreport { factor: 1.25 },
                2 => ps[2].behavior = Behavior::Slack { factor: 1.5 },
                3 => ps[m - 1].fault = FaultPlan::CrashAt(Phase::Processing),
                4 => ps[1].fault = FaultPlan::DelayAt(Phase::Bidding, 2),
                5 => ps[2].fault = FaultPlan::GarbageAt(Phase::Payments),
                6 => {
                    ps[1].behavior = Behavior::CorruptPayments {
                        target: 0,
                        factor: 2.0,
                    }
                }
                7 => ps[m - 1].fault = FaultPlan::MuteAt(Phase::Allocating),
                _ => {}
            }
            SessionConfig::builder(SystemModel::NcpFe, 0.0625)
                .processors(ps)
                .blocks(60)
                .seed(42)
                .key_bits(key_bits)
                .crypto_profile(profile)
                .build()
                .unwrap()
        })
        .collect()
}

/// Submits every session of `batch` to `svc` and waits for all of them.
fn serve(svc: &ServiceHandle, batch: &[SessionConfig]) {
    let tickets: Vec<u64> = batch
        .iter()
        .map(|c| svc.submit(c.clone()).unwrap())
        .collect();
    for t in tickets {
        svc.wait(t)
            .expect("ticket resolves")
            .outcome
            .expect("session runs");
    }
}

/// Thm 5.4's Θ(m²) broadcast makes signature verification the dominant
/// session cost if every receiver re-verifies every envelope. With the
/// round-shared verification cache each distinct envelope costs one
/// modexp, so at m = 64 a chaos batch on a static-shard service must run
/// at least 5× faster than under the per-receiver `pow_mod` profile.
/// 384-bit keys are the hard side of the bar: smaller keys make
/// verification a smaller share of a session.
#[test]
fn amortized_verification_5x_per_receiver_at_m_64() {
    let batch = |profile| chaos_batch(64, 8, dls::crypto::rsa::MIN_MODULUS_BITS, profile);
    let (amortized, naive) = (
        batch(CryptoProfile::Amortized),
        batch(CryptoProfile::PerReceiverNaive),
    );
    let svc = ServiceHandle::start(ServiceConfig::static_shard(2)).unwrap();
    // The first amortized run warms the key and signature caches both
    // profiles share, so the single per-receiver run is warm too.
    let [fast] = best_ns(3, [&mut || serve(&svc, &amortized)]);
    let [slow] = best_ns(1, [&mut || serve(&svc, &naive)]);
    svc.shutdown();
    let speedup = slow / fast;
    eprintln!("amortized verification {speedup:.1}x per-receiver at m=64");
    assert!(
        speedup >= 5.0,
        "amortized verification only {speedup:.1}x the per-receiver baseline at m=64"
    );
}

/// Per-session cost of the thread-per-party runtime (one OS thread per
/// processor plus the referee, condvar phase barriers) in the
/// `BENCH_sessions.json` of commit 6754f5bd880b: the `"threaded"`,
/// amortized, m = 16, batch = 1024 cell, in ns/session. That runtime has
/// been removed; the service is still held to at most a tenth of it.
const THREADED_M16_B1024_NS_PER_SESSION: f64 = 771658034.6875;

/// The session service must serve an m = 16 chaos batch with 1024-bit
/// keys at no more than a tenth of the per-session cost of the removed
/// thread-per-party runtime.
#[test]
fn service_10x_threaded_runtime_at_m_16() {
    let batch = chaos_batch(16, 8, 1024, CryptoProfile::Amortized);
    let svc = ServiceHandle::start(ServiceConfig::static_shard(2)).unwrap();
    let [block] = best_ns(3, [&mut || serve(&svc, &batch)]);
    svc.shutdown();
    let served = block / batch.len() as f64;
    let speedup = THREADED_M16_B1024_NS_PER_SESSION / served;
    eprintln!(
        "service {:.1} ms/session, {speedup:.1}x the threaded runtime at m=16",
        served / 1e6
    );
    assert!(
        speedup >= 10.0,
        "service at {:.1} ms/session is only {speedup:.1}x the threaded runtime at m=16",
        served / 1e6
    );
}
