//! Differential suite for the bus-timeline code paths. The oracle is a
//! table of frozen digests: the SHA-256 of `format!("{out:?}")` for every
//! cell below, recorded from the implementations that preceded the shared
//! `dls_dlt::bus` kernel (netsim's event engine, the hand-written
//! multi-round loop, and the separate f64/`Rational` pipeline recurrences).
//! `Debug` prints every float as its shortest round-trip representation
//! and every `Rational` in lowest terms, so a matching digest means a
//! bit-identical output.
//!
//! Because one recurrence now serves every path, the suite also checks it
//! against oracles that share no code with it: the closed-form exact
//! solver at one load, hand-worked two-load timelines, and agreement
//! between the entry points at one load and one round.

use dls_dlt::exact::{self, ExactParams};
use dls_dlt::linear::{self, LinearParams};
use dls_dlt::multiload::{pipeline_schedule, pipeline_schedule_exact, LoadSpec};
use dls_dlt::{optimal, BusParams, SystemModel, ALL_MODELS};
use dls_netsim::linear::simulate_chain;
use dls_netsim::multiround::{simulate_multiround, simulate_multiround_faulty, RoundFault};
use dls_netsim::{simulate, SessionSpec};
use dls_num::Rational;

/// `(cell, hex SHA-256 of the output's Debug rendering)`.
#[rustfmt::skip]
const FROZEN: &[(&str, &str)] = &[
    ("simulate/BUS-LINEAR-CP/optimal", "f6f71a5d05b8aa641df93f919d42eef65c5f6a6b715a9a7e571e7e8f6572b728"),
    ("simulate/BUS-LINEAR-CP/even", "15cbedcb4f876dec48f47a19454f0f1c75e5a34bbcea38084f1607a069d15214"),
    ("simulate/BUS-LINEAR-CP/skewed", "2ae95589f2ee8686e566dfaf79afbcbf2f7ce5602b1a41b749c0fe62706b8a47"),
    ("simulate/BUS-LINEAR-CP/zero-ends", "2daf5781163588f8cda69be12ffbea0093873f25b737182b0b2146cabd104797"),
    ("simulate/BUS-LINEAR-NCP-FE/optimal", "7e1550f2b45d12f668b129624bd2b630ee24ab88a255399379475ada9f7e0ea5"),
    ("simulate/BUS-LINEAR-NCP-FE/even", "a9bddfe900aaf337fcbaf1b2f45762fdb3eda9ac88ad6b19181a693f08737d63"),
    ("simulate/BUS-LINEAR-NCP-FE/skewed", "6a6d44a8fd4c66cde0efde2d802979c268d3c2574bad0696b5b8ebb501cc4c56"),
    ("simulate/BUS-LINEAR-NCP-FE/zero-ends", "2daf5781163588f8cda69be12ffbea0093873f25b737182b0b2146cabd104797"),
    ("simulate/BUS-LINEAR-NCP-NFE/optimal", "251466fabb9cb5971aad1ce512118c5b2a8494fbad40c3d68b42623e69908878"),
    ("simulate/BUS-LINEAR-NCP-NFE/even", "4c6d7c61ffb11baff46e03f94ae59c33a29c98202e1d7b3a54eca3baffd72c45"),
    ("simulate/BUS-LINEAR-NCP-NFE/skewed", "9e1d572b99f1848e61a89822a0b75fae177e99dd247ffd195a75f2a72fbb6a6e"),
    ("simulate/BUS-LINEAR-NCP-NFE/zero-ends", "2daf5781163588f8cda69be12ffbea0093873f25b737182b0b2146cabd104797"),
    ("chain/optimal", "d5f8e1ab929de7c4d9bd4924491a271bed7b5f8b590afd25c731a106700488d5"),
    ("chain/zero-fractions", "51fbfd6d138775b94c093e4f9e2592dd4c2bec89d1807d8bdb2a1e32468ad309"),
    ("multiround/R1/no-faults", "a518d44188514fa8bac7c710a83ff911ebcff2a608c74473e1258688f2972175"),
    ("multiround/R1/departure", "89d1bad19ebafea910607c37deed76a63e7237d7c2ec6dacedb9a8ce728d048e"),
    ("multiround/R1/late-fault", "a518d44188514fa8bac7c710a83ff911ebcff2a608c74473e1258688f2972175"),
    ("multiround/R4/no-faults", "7eb57f2d946b1ff8dfcff9c0c8fc8f43d90287f05ebe59da30ebb35f3b95c240"),
    ("multiround/R4/departure", "4325198c99a842cd2decd35fdf7eedc9dd8c4705528db87f7511c6b958b17b69"),
    ("multiround/R4/late-fault", "7eb57f2d946b1ff8dfcff9c0c8fc8f43d90287f05ebe59da30ebb35f3b95c240"),
    ("pipeline/BUS-LINEAR-CP/k1", "565b4ff9867e7043fbc9ee2957f8c5f989d505eb4a3baaccde480329ada3ec92"),
    ("pipeline-exact/BUS-LINEAR-CP/k1", "035279ddc641e9d855bae3adddca3f8156c623aa389379c140721f16ad2443e7"),
    ("pipeline/BUS-LINEAR-CP/k4", "2153a705460b5c399d353fc88437d3cac8a47e30b50848d054145ed406549e75"),
    ("pipeline-exact/BUS-LINEAR-CP/k4", "73cffd70879e6ed61e14188304a374a8ecad4eb136d8b1f8e30aba4427921dd5"),
    ("pipeline/BUS-LINEAR-NCP-FE/k1", "7286c34ff99e18382d379f4e424cc41b55436d62ab7a2b5f4b3bbfdaa854127b"),
    ("pipeline-exact/BUS-LINEAR-NCP-FE/k1", "3ea063ebc04737b93307c4ef3b2b22e85c054392aceaa4e5d96a0b4337ce0d41"),
    ("pipeline/BUS-LINEAR-NCP-FE/k4", "bd11b4f86428af6a596852bef73f9e902e1abb8c764312bad7a9567721b9be8f"),
    ("pipeline-exact/BUS-LINEAR-NCP-FE/k4", "2b3e61c704c5a32872db389c743b86664742618858f7af14050fd98ffa96f442"),
    ("pipeline/BUS-LINEAR-NCP-NFE/k1", "f1b9107e9e495a6543fba26bee6b75c72bb26a338d2d74eaec679ed4f42836c7"),
    ("pipeline-exact/BUS-LINEAR-NCP-NFE/k1", "d6434d67b1e2492357c51f80788dd0c657a554fe563e26a530559a433b9dbb37"),
    ("pipeline/BUS-LINEAR-NCP-NFE/k4", "82fe84d735a5631009ca833e241d898f4287695ff7a69e2dc03834d0a295e90c"),
    ("pipeline-exact/BUS-LINEAR-NCP-NFE/k4", "c9c9ecd8f070f2b2dbf8e4023b66f7c1b1a95e247622741783ef6f55a8af2cc4"),
];

fn digest(out: &impl std::fmt::Debug) -> String {
    dls_crypto::sha256::to_hex(&dls_crypto::sha256::digest(format!("{out:?}").as_bytes()))
}

fn bus() -> BusParams {
    BusParams::new(0.2, vec![1.0, 2.0, 3.0, 4.0]).unwrap()
}

/// Dyadic bids and loads: every input converts to `Rational` exactly.
const BIDS: [f64; 4] = [1.5, 2.25, 0.75, 3.0];

fn dyadic_loads(k: usize) -> Vec<LoadSpec> {
    [(1.0, 0.375), (0.5, 0.25), (2.0, 0.125), (0.75, 0.5)][..k]
        .iter()
        .map(|&(size, z)| LoadSpec::new(size, z))
        .collect()
}

/// Every cell's output digest, in table order.
fn cells() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for model in ALL_MODELS {
        let allocs = [
            ("optimal", optimal::fractions(model, &bus())),
            ("even", vec![0.25; 4]),
            ("skewed", vec![0.7, 0.1, 0.1, 0.1]),
            ("zero-ends", vec![0.0, 0.5, 0.5, 0.0]),
        ];
        for (name, alloc) in allocs {
            let tl = simulate(&SessionSpec::new(model, bus(), alloc));
            out.push((format!("simulate/{model}/{name}"), digest(&tl)));
        }
    }
    let chain = LinearParams::new(vec![0.2, 0.3, 0.1], vec![1.0, 2.0, 1.5, 3.0]).unwrap();
    for (name, alloc) in [
        ("optimal", linear::fractions(&chain)),
        ("zero-fractions", vec![0.5, 0.0, 0.5, 0.0]),
    ] {
        out.push((format!("chain/{name}"), digest(&simulate_chain(&chain, &alloc))));
    }
    let p = BusParams::new(0.3, vec![1.0, 1.5, 2.0, 2.5, 3.0]).unwrap();
    for rounds in [1usize, 4] {
        let plans = [
            ("no-faults", vec![]),
            ("departure", vec![RoundFault { processor: 2, round: rounds / 2 }]),
            ("late-fault", vec![RoundFault { processor: 0, round: rounds + 3 }]),
        ];
        for (name, faults) in plans {
            let res = simulate_multiround_faulty(&p, rounds, &faults).unwrap();
            out.push((format!("multiround/R{rounds}/{name}"), digest(&res)));
        }
    }
    for model in ALL_MODELS {
        for k in [1usize, 4] {
            let loads = dyadic_loads(k);
            let fp = pipeline_schedule(model, &BIDS, &loads).unwrap();
            out.push((format!("pipeline/{model}/k{k}"), digest(&fp)));
            let ex = pipeline_schedule_exact(model, &BIDS, &loads).unwrap();
            out.push((format!("pipeline-exact/{model}/k{k}"), digest(&ex)));
        }
    }
    out
}

#[test]
fn timelines_match_frozen_digests() {
    let got = cells();
    assert_eq!(got.len(), FROZEN.len(), "cell count");
    for ((cell, d), (frozen_cell, frozen_d)) in got.iter().zip(FROZEN) {
        assert_eq!(cell, frozen_cell, "cell order");
        assert_eq!(d, frozen_d, "{cell}: timeline differs from the frozen output");
    }
}

fn rat(n: i64, d: i64) -> Rational {
    Rational::from_ratio(n, d)
}

/// At one load the pipelined timeline is the single-load optimum, so the
/// exact pipeline must equal `size ×` the closed-form exact makespan.
#[test]
fn exact_single_load_equals_the_closed_form() {
    let bids = [1.5, 2.25, 0.75, 3.0, 1.25, 2.0, 0.5];
    let (size, z) = (1.5, 0.375);
    for model in ALL_MODELS {
        for m in [1usize, 2, 7] {
            let ex = pipeline_schedule_exact(model, &bids[..m], &[LoadSpec::new(size, z)]).unwrap();
            let closed = exact::optimal_makespan(model, &ExactParams::from_f64(z, &bids[..m]));
            let want = &rat(3, 2) * &closed;
            assert_eq!(ex.makespan, want, "{model} m={m}");
            assert_eq!(ex.load_finish, vec![want.clone()], "{model} m={m}");
            assert_eq!(ex.sequential_makespan, want, "{model} m={m}");
        }
    }
}

/// Two loads on `w = [3/2, 1]`, both with `z = 1/2`; load 0 has size 1,
/// load 1 size 1/2. Within a load the fractions are the equal-finish
/// optimum, worked by hand below, and the finishes follow the one-port
/// rule: a send ends when the bus has carried every earlier send, and a
/// processor computes once its data is in and its previous load is done.
#[test]
fn hand_worked_two_load_timelines() {
    let bids = [1.5, 1.0];
    let loads = [LoadSpec::new(1.0, 0.5), LoadSpec::new(0.5, 0.5)];
    // CP: α₀w₀ = α₁(z + w₁) gives α = (1/2, 1/2).
    //   load 0: P0 data at 1/4, done 1/4 + 3/4 = 1; P1 data at 1/2, done 1.
    //   load 1 (volumes 1/4): P0 data at 5/8, starts at 1, done 1 + 3/8 =
    //   11/8; P1 data at 3/4, starts at 1, done 5/4. Finish 11/8.
    // NCP-FE: P0 computes from local data; α₀w₀ = α₁(z + w₁), α = (1/2, 1/2).
    //   load 0: P0 done 3/4; P1 data at 1/4, done 3/4.
    //   load 1: P0 done 3/4 + 3/8 = 9/8; P1 data at 3/8, starts at 3/4,
    //   done 1. Finish 9/8.
    // NCP-NFE: P1 originates and computes after its sends; α₀w₀ = α₁w₁,
    //   α = (2/5, 3/5).
    //   load 0: P0 data at 1/5, done 4/5; P1 computes 1/5 → 4/5.
    //   load 1 (volumes 1/5, 3/10): the bus waits for P1 until 4/5; P0
    //   data at 9/10, done 9/10 + 3/10 = 6/5; P1 computes 9/10 → 6/5.
    let cases = [
        (SystemModel::Cp, [rat(1, 1), rat(11, 8)], rat(3, 2)),
        (SystemModel::NcpFe, [rat(3, 4), rat(9, 8)], rat(9, 8)),
        (SystemModel::NcpNfe, [rat(4, 5), rat(6, 5)], rat(6, 5)),
    ];
    for (model, finish, sequential) in cases {
        let ex = pipeline_schedule_exact(model, &bids, &loads).unwrap();
        assert_eq!(ex.load_finish, finish.to_vec(), "{model}");
        assert_eq!(ex.makespan, finish[1], "{model}");
        assert_eq!(ex.sequential_makespan, sequential, "{model}");
    }
}

/// At one load and one round, every entry point runs the same schedule
/// and must report the same makespan bit for bit.
#[test]
fn entry_points_agree_at_one_load_and_one_round() {
    let p = BusParams::new(0.3, vec![1.0, 1.5, 2.0, 2.5, 3.0]).unwrap();
    for model in ALL_MODELS {
        let alloc = optimal::fractions(model, &p);
        let sim = simulate(&SessionSpec::new(model, p.clone(), alloc)).makespan;
        let pipe = pipeline_schedule(model, p.w(), &[LoadSpec::unit(p.z())]).unwrap().makespan;
        assert_eq!(sim.to_bits(), pipe.to_bits(), "{model}: {sim} vs {pipe}");
        if model == SystemModel::Cp {
            let one_round = simulate_multiround(&p, 1).unwrap().makespan;
            assert_eq!(sim.to_bits(), one_round.to_bits(), "{sim} vs {one_round}");
        }
    }
}
