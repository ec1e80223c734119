//! Differential tests for the multi-load installment pipeline: a k-load
//! scheduler whose per-load chains are spliced in place must agree
//! **bit-exactly** (every `f64` compared via `to_bits`) with `k`
//! independent from-scratch solves of the same markets, across all three
//! bus models, after update sequences that hit the head slot, the tail
//! slot and the special last links — and the cross-load mechanism on top
//! must keep truthful reporting dominant on a dense misreport grid.
//!
//! Bit-exactness is the design contract inherited from the single-load
//! engine differential suite: each per-load chain evaluates the same
//! expressions in the same order as the from-scratch solver, so IEEE-754
//! determinism makes the results identical; a tolerance would hide a
//! broken splice. The pipelined timeline, which has no closed form, is
//! instead certified against the exact-rational replay of the same
//! recurrence, where f64 tolerance is the honest statement.
//!
//! Workloads come from `dls_bench::workloads::quantized_rates` — the
//! same frozen dyadic generator the multiload benchmark replays.

use dls::dlt::multiload::{
    pipeline_schedule, pipeline_schedule_exact, InstallmentScheduler, LoadSpec,
};
use dls::dlt::{optimal, BusParams, ChainState, ALL_MODELS};
use dls::mechanism::{compute_payments, AgentSpec, MultiLoadEngine, MultiLoadMarket};
use dls_bench::workloads::quantized_rates;

/// The k load specs every test shares: dyadic sizes and intensities.
fn loads(k: usize) -> Vec<LoadSpec> {
    let sizes = quantized_rates(k, 0.5, 2.0, 0x10ad, 64);
    let zs = quantized_rates(k, 0.0625, 0.5, 0xb005, 64);
    sizes
        .iter()
        .zip(&zs)
        .map(|(&s, &z)| LoadSpec::new(s, z))
        .collect()
}

/// Update schedule hitting head, tail, the second-to-last slot (the
/// NCP-NFE special link) and a spread of middle positions.
fn update_schedule(m: usize) -> Vec<(usize, f64)> {
    let rates = quantized_rates(16.max(m), 1.0, 8.0, 0x5eed, 64);
    [0, m - 1, m / 2, m.saturating_sub(2), 1 % m, m / 3, 0, m - 1]
        .into_iter()
        .map(|i| i % m)
        .zip(rates)
        .collect()
}

fn assert_bits_eq(a: &[f64], b: &[f64], ctx: &str) {
    let ab: Vec<u64> = a.iter().map(|x| x.to_bits()).collect();
    let bb: Vec<u64> = b.iter().map(|x| x.to_bits()).collect();
    assert_eq!(ab, bb, "{ctx}: {a:?} vs {b:?}");
}

#[test]
fn spliced_loads_match_k_independent_solves_bitwise() {
    for &model in &ALL_MODELS {
        for m in [2usize, 3, 16, 64] {
            for k in [1usize, 3, 8] {
                let bids = quantized_rates(m, 1.0, 8.0, 42, 64);
                let specs = loads(k);
                let mut sched = InstallmentScheduler::new(model, &bids, &specs).unwrap();
                let mut bids_now = bids.clone();
                let (mut got, mut want) = (Vec::new(), Vec::new());
                for (step, &(i, r)) in update_schedule(m).iter().enumerate() {
                    sched.update_bid(i, r).unwrap();
                    bids_now[i] = r;
                    for (l, spec) in specs.iter().enumerate() {
                        let ctx = format!("{model} m={m} k={k} step={step} load={l}");
                        // k independent from-scratch solves on the final rates.
                        let params = BusParams::new(spec.z, bids_now.clone()).unwrap();
                        sched.fractions_into(l, &mut got).unwrap();
                        optimal::fractions_into(model, &params, &mut want);
                        assert_bits_eq(&got, &want, &ctx);
                        let fresh = ChainState::new(model, &params);
                        assert_eq!(
                            sched.load_makespan(l).unwrap().to_bits(),
                            (spec.size * fresh.optimal_makespan()).to_bits(),
                            "{ctx}: makespan"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn engine_payments_match_scaled_reference_after_head_and_tail_updates() {
    for &model in &ALL_MODELS {
        let m = 16;
        let k = 4;
        let bids = quantized_rates(m, 1.0, 8.0, 7, 64);
        let specs = loads(k);
        let mut engine = MultiLoadEngine::new(model, &bids, &specs).unwrap();
        let mut bids_now = bids.clone();
        // Head, tail and one middle update before the payment query.
        for (i, r) in [(0usize, 2.5), (m - 1, 1.25), (m / 2, 4.0)] {
            engine.submit_bid(i, r).unwrap();
            bids_now[i] = r;
        }
        // Observed rates: every third processor slacks by one quantum.
        let observed: Vec<f64> = bids_now
            .iter()
            .enumerate()
            .map(|(i, &w)| if i % 3 == 1 { w + 1.0 / 64.0 } else { w })
            .collect();
        let mut got = Vec::new();
        for (l, spec) in specs.iter().enumerate() {
            engine.payments_into(l, &observed, &mut got).unwrap();
            let params = BusParams::new(spec.z, bids_now.clone()).unwrap();
            let alloc = optimal::fractions(model, &params);
            let want = compute_payments(model, &params, &alloc, &observed);
            assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.compensation.to_bits(),
                    (spec.size * w.compensation).to_bits(),
                    "{model} load {l} agent {i}: compensation"
                );
                assert_eq!(
                    g.bonus.to_bits(),
                    (spec.size * w.bonus).to_bits(),
                    "{model} load {l} agent {i}: bonus"
                );
            }
        }
    }
}

#[test]
fn truthful_reporting_dominates_on_a_dense_misreport_grid() {
    // A misreport moves the agent's fraction in all k loads at once; the
    // cross-load utility must still peak at the truthful report for
    // every agent, model and misreport factor.
    let factors = [0.5, 0.7, 0.8, 0.9, 0.95, 1.05, 1.1, 1.25, 1.5, 2.0];
    let true_w = quantized_rates(5, 1.0, 8.0, 11, 64);
    let specs = loads(3);
    for &model in &ALL_MODELS {
        let truthful: Vec<AgentSpec> = true_w.iter().map(|&w| AgentSpec::truthful(w)).collect();
        let honest = MultiLoadMarket::new(model, &specs, truthful).unwrap().run().unwrap();
        for victim in 0..true_w.len() {
            let u_honest = honest.utility(victim).unwrap();
            for &factor in &factors {
                let mut agents: Vec<AgentSpec> =
                    true_w.iter().map(|&w| AgentSpec::truthful(w)).collect();
                agents[victim] = AgentSpec::misreporting(true_w[victim], factor);
                let u_lied = MultiLoadMarket::new(model, &specs, agents)
                    .unwrap()
                    .run()
                    .unwrap()
                    .utility(victim)
                    .unwrap();
                assert!(
                    u_honest >= u_lied - 1e-9,
                    "{model} victim {victim} factor {factor}: truthful {u_honest} < misreport {u_lied}"
                );
            }
        }
    }
}

#[test]
fn pipeline_timeline_certified_by_exact_rational_replay() {
    for &model in &ALL_MODELS {
        for m in [2usize, 5, 16] {
            for k in [1usize, 4, 8] {
                let bids = quantized_rates(m, 1.0, 8.0, 3, 64);
                let specs = loads(k);
                let fp = pipeline_schedule(model, &bids, &specs).unwrap();
                let exact = pipeline_schedule_exact(model, &bids, &specs).unwrap();
                let ctx = format!("{model} m={m} k={k}");
                let tol = |x: f64| 1e-12 * x.abs().max(1.0);
                let em = exact.makespan.to_f64();
                assert!((fp.makespan - em).abs() <= tol(em), "{ctx}: {} vs {em}", fp.makespan);
                let es = exact.sequential_makespan.to_f64();
                assert!(
                    (fp.sequential_makespan - es).abs() <= tol(es),
                    "{ctx}: sequential {} vs {es}",
                    fp.sequential_makespan
                );
                assert_eq!(fp.load_finish.len(), exact.load_finish.len(), "{ctx}");
                for (f, e) in fp.load_finish.iter().zip(&exact.load_finish) {
                    let e = e.to_f64();
                    assert!((f - e).abs() <= tol(e), "{ctx}: finish {f} vs {e}");
                }
                // Pipelining never loses to strictly sequential service.
                assert!(
                    fp.makespan <= fp.sequential_makespan + tol(fp.sequential_makespan),
                    "{ctx}: pipelined {} > sequential {}",
                    fp.makespan,
                    fp.sequential_makespan
                );
            }
        }
    }
}

#[test]
fn single_load_pipeline_collapses_to_the_closed_form() {
    // k = 1: the pipelined timeline is exactly the single-load optimal
    // schedule, whose makespan has the closed head/prefix form.
    for &model in &ALL_MODELS {
        for m in [2usize, 7, 32] {
            let bids = quantized_rates(m, 1.0, 8.0, 9, 64);
            let spec = LoadSpec::new(1.5, 0.25);
            let t = pipeline_schedule(model, &bids, &[spec]).unwrap();
            let params = BusParams::new(spec.z, bids.clone()).unwrap();
            let chain = ChainState::new(model, &params);
            let want = spec.size * chain.optimal_makespan();
            assert!(
                (t.makespan - want).abs() <= 1e-12 * want.max(1.0),
                "{model} m={m}: pipeline {} vs closed form {want}",
                t.makespan
            );
        }
    }
}

#[test]
fn protocol_session_paths_agree_and_punish_misreports() {
    use dls::protocol::config::{Behavior, ProcessorConfig};
    use dls::protocol::service::{ServiceConfig, ServiceHandle};
    use dls::protocol::MultiLoadSession;
    use dls::SystemModel;

    let build = |behavior2: Behavior| {
        MultiLoadSession::builder(SystemModel::NcpFe)
            .processor(ProcessorConfig::new(1.0, Behavior::Compliant))
            .processor(ProcessorConfig::new(2.0, behavior2))
            .processor(ProcessorConfig::new(3.0, Behavior::Compliant))
            .load(0.25, 24)
            .load(0.125, 12)
            .load(0.5, 18)
            .seed(13)
            .build()
            .unwrap()
    };

    // vm and service paths agree bit-exactly per load.
    let honest = build(Behavior::Compliant);
    let vm = honest.run_vm();
    let svc = ServiceHandle::start(ServiceConfig::static_shard(3)).unwrap();
    let served = honest.run_service(&svc).unwrap();
    svc.shutdown();
    assert!(vm.all_completed());
    assert_eq!(served.len(), vm.per_load.len());
    for (a, b) in vm.per_load.iter().zip(&served) {
        let a = a.as_ref().unwrap();
        let b = b.as_ref().unwrap().outcome.as_ref().unwrap();
        assert_eq!(a.makespan.map(f64::to_bits), b.makespan.map(f64::to_bits));
        for i in 0..3 {
            assert_eq!(a.utility(i).to_bits(), b.utility(i).to_bits());
        }
    }

    // A misreport in the shared bid vector costs the liar across all
    // three loads end to end (protocol-level dominance, not just the
    // auction-layer grid).
    let lied = build(Behavior::Misreport { factor: 1.5 }).run_vm();
    assert!(lied.all_completed());
    let u_honest = vm.total_utility(1).unwrap();
    let u_lied = lied.total_utility(1).unwrap();
    assert!(
        u_honest >= u_lied - 1e-9,
        "protocol misreport profitable: {u_honest} < {u_lied}"
    );
}
