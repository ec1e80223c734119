//! Experiment harness: regenerates every evaluation artifact of the paper
//! (Figures 1–3 and the measured counterparts of Lemmas 5.1–5.2 and
//! Theorems 2.1, 2.2, 5.1–5.4). See DESIGN.md §3 for the experiment index
//! and EXPERIMENTS.md for recorded results.
//!
//! ```text
//! cargo run --release -p dls-bench --bin experiments -- all
//! cargo run --release -p dls-bench --bin experiments -- fig2 strategyproof
//! ```

use dls::dlt::{diagnostics, exact, optimal, BusParams, SystemModel, ALL_MODELS};
use dls::mechanism::validate::{default_bid_factors, sweep_strategyproof};
use dls::netsim::{gantt, simulate, SessionSpec};
use dls::protocol::config::{Behavior, ProcessorConfig, SessionConfig};
use dls::protocol::run_session_vm;
use dls::SessionStatus;
use dls_bench::workloads::{figure_scenario, heterogeneous_rates};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "fig1",
            "fig2",
            "fig3",
            "thm2_1",
            "thm2_2",
            "strategyproof",
            "participation",
            "compliance",
            "fines",
            "comm_complexity",
            "fine_bound",
            "decentralization_cost",
            "linear_network",
            "multiround",
            "coalitions",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };
    for exp in wanted {
        match exp {
            "fig1" => figure(SystemModel::Cp, "E1 / Figure 1"),
            "fig2" => figure(SystemModel::NcpFe, "E2 / Figure 2"),
            "fig3" => figure(SystemModel::NcpNfe, "E3 / Figure 3"),
            "thm2_1" => thm2_1(),
            "thm2_2" => thm2_2(),
            "strategyproof" => strategyproof(),
            "participation" => participation(),
            "compliance" => compliance(),
            "fines" => fines(),
            "comm_complexity" => comm_complexity(),
            "fine_bound" => fine_bound(),
            "decentralization_cost" => decentralization_cost(),
            "linear_network" => linear_network(),
            "multiround" => multiround(),
            "coalitions" => coalitions(),
            other => eprintln!("unknown experiment {other:?}"),
        }
    }
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// E1–E3: the execution timing diagrams of Figures 1–3.
fn figure(model: SystemModel, label: &str) {
    banner(&format!("{label}: {model} execution diagram"));
    let (z, w) = figure_scenario();
    let params = BusParams::new(z, w.clone()).unwrap();
    let alloc = optimal::fractions(model, &params);
    let tl = simulate(&SessionSpec::new(model, params, alloc.clone()));
    println!("z = {z}, w = {w:?}");
    println!(
        "alpha = [{}]",
        alloc
            .iter()
            .map(|a| format!("{a:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("makespan = {:.4}\n", tl.makespan);
    println!("{}", gantt::render_default(&tl));
}

/// E4: Theorem 2.1 — simultaneous finish at the optimum, f64 certified by
/// exact rationals, across m.
fn thm2_1() {
    banner("E4 / Theorem 2.1: all processors finish simultaneously");
    println!(
        "{:>6} {:>10} {:>14} {:>14} {:>12}",
        "m", "model", "max-min (f64)", "exact residual", "makespan"
    );
    for &m in &[2usize, 4, 8, 16, 32, 64, 128] {
        let w = heterogeneous_rates(m, 1.0, 8.0, m as u64);
        let p = BusParams::new(0.25, w.clone()).unwrap();
        for model in ALL_MODELS {
            let a = optimal::fractions(model, &p);
            let residual = diagnostics::equal_finish_residual(model, &p, &a);
            let ep = exact::ExactParams::from_f64(0.25, &w);
            let ea = exact::fractions(model, &ep);
            let et = exact::finish_times(model, &ep, &ea);
            let exact_equal = et.iter().all(|t| t == &et[0]);
            println!(
                "{:>6} {:>10} {:>14.3e} {:>14} {:>12.4}",
                m,
                model.tag(),
                residual,
                if exact_equal { "0 (exact)" } else { "VIOLATED" },
                optimal::optimal_makespan(model, &p)
            );
        }
    }
}

/// E5: Theorem 2.2 — optimal makespan is invariant under allocation order.
fn thm2_2() {
    banner("E5 / Theorem 2.2: allocation order does not matter");
    println!("{:>6} {:>10} {:>8} {:>16}", "m", "model", "orders", "relative spread");
    for &m in &[3usize, 5, 8, 13, 21] {
        let w = heterogeneous_rates(m, 1.0, 6.0, 100 + m as u64);
        let p = BusParams::new(0.3, w).unwrap();
        for model in ALL_MODELS {
            let perms = diagnostics::originator_fixed_perms(model, m);
            let spread = diagnostics::order_invariance_spread(model, &p, &perms);
            println!(
                "{:>6} {:>10} {:>8} {:>16.3e}",
                m,
                model.tag(),
                perms.len(),
                spread
            );
        }
    }
}

/// E6: Theorem 5.2 / 3.1 — utility versus bid deviation (the central
/// strategyproofness evidence).
fn strategyproof() {
    banner("E6 / Theorems 3.1 & 5.2: truth-telling is a dominant strategy");
    let w = [0.8, 1.3, 1.9, 2.6, 3.4];
    let z = 0.3;
    for model in ALL_MODELS {
        println!("\nmodel = {model}, m = {}, z = {z}", w.len());
        println!(
            "{:>7} | {}",
            "bid x",
            (1..=w.len())
                .map(|i| format!("{:>10}", format!("U(P{i})")))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let mut rows: Vec<(f64, Vec<f64>)> = Vec::new();
        for &bf in &default_bid_factors() {
            let mut row = Vec::new();
            for agent in 0..w.len() {
                let rep = sweep_strategyproof(model, z, &w, agent, &[bf], &[1.0]).unwrap();
                row.push(rep.probes[0].utility);
            }
            rows.push((bf, row));
        }
        for (bf, row) in &rows {
            let marker = if *bf == 1.0 { "  <- truth" } else { "" };
            println!(
                "{:>7} | {}{}",
                bf,
                row.iter()
                    .map(|u| format!("{u:>10.5}"))
                    .collect::<Vec<_>>()
                    .join(" "),
                marker
            );
        }
        // Verify the maximum of each column sits at the truthful row.
        for agent in 0..w.len() {
            let truth = rows.iter().find(|(bf, _)| *bf == 1.0).unwrap().1[agent];
            let best = rows
                .iter()
                .map(|(_, r)| r[agent])
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(
                best <= truth + 1e-9,
                "{model} P{}: deviation beats truth",
                agent + 1
            );
        }
        println!("   (column maxima at the truthful bid for every agent)");
    }
}

/// E7: Theorem 5.3 / 3.2 — voluntary participation on random markets.
fn participation() {
    banner("E7 / Theorems 3.2 & 5.3: truthful workers never lose");
    println!(
        "{:>6} {:>10} {:>8} {:>14} {:>14}",
        "m", "model", "markets", "min worker U", "min orig U"
    );
    for &m in &[2usize, 4, 8, 16] {
        for model in ALL_MODELS {
            let mut min_worker = f64::INFINITY;
            let mut min_orig = f64::INFINITY;
            let trials = 50;
            for t in 0..trials {
                let w = heterogeneous_rates(m, 1.0, 6.0, (m * 1000 + t) as u64);
                let utilities =
                    dls::mechanism::validate::participation_utilities(model, 0.4, &w).unwrap();
                let orig = model.originator(m);
                for (i, &u) in utilities.iter().enumerate() {
                    if Some(i) == orig {
                        min_orig = min_orig.min(u);
                    } else {
                        min_worker = min_worker.min(u);
                    }
                }
            }
            println!(
                "{:>6} {:>10} {:>8} {:>14.6} {:>14}",
                m,
                model.tag(),
                trials,
                min_worker,
                if min_orig == f64::INFINITY {
                    "n/a".to_string()
                } else {
                    format!("{min_orig:.6}")
                }
            );
        }
    }
    println!("   (worker minima are all >= 0; the NCP originator is structural)");
}

/// E8: Lemma 5.1 + Theorem 5.1 — deviants always end up worse off.
fn compliance() {
    banner("E8 / Lemma 5.1 & Theorem 5.1: compliance maximizes utility");
    let base = [1.0, 2.0, 3.0, 4.0];
    let honest = run_cfg(&base.map(|w| (w, Behavior::Compliant)));
    println!(
        "{:<30} {:<8} {:<24} {:>12} {:>12} {:>10}",
        "behaviour", "deviant", "status", "U(deviant)", "U(honest)", "loss"
    );
    let catalogue: Vec<(usize, Behavior)> = vec![
        (1, Behavior::Misreport { factor: 1.3 }),
        (1, Behavior::Misreport { factor: 2.0 }),
        (1, Behavior::Misreport { factor: 0.6 }),
        (2, Behavior::Slack { factor: 1.5 }),
        (2, Behavior::Slack { factor: 3.0 }),
        (1, Behavior::EquivocateBids { factor: 2.0 }),
        (0, Behavior::ShortAllocate { victim: 2, shortfall: 2 }),
        (0, Behavior::OverAllocate { victim: 3, excess: 2 }),
        (3, Behavior::CorruptPayments { target: 3, factor: 2.0 }),
        (2, Behavior::FalselyAccuseAllocation),
    ];
    for (who, b) in catalogue {
        let mut procs = base.map(|w| (w, Behavior::Compliant));
        procs[who].1 = b;
        let out = run_cfg(&procs);
        let status = match &out.status {
            SessionStatus::Completed => "completed".into(),
            SessionStatus::CompletedWithFines => "completed-with-fines".into(),
            SessionStatus::Aborted { phase } => format!("aborted@{phase:?}"),
        };
        println!(
            "{:<30} {:<8} {:<24} {:>12.4} {:>12.4} {:>10.4}",
            b.to_string(),
            format!("P{}", who + 1),
            status,
            out.utility(who),
            honest.utility(who),
            honest.utility(who) - out.utility(who)
        );
        assert!(out.utility(who) <= honest.utility(who) + 1e-9);
    }
}

/// E9: Lemma 5.2 — fines hit only deviants; honest sessions are fine-free.
fn fines() {
    banner("E9 / Lemma 5.2: fines only for actual deviation");
    let base = [1.0, 1.5, 2.0, 2.5];
    // 1) honest sessions across seeds: zero fines.
    let mut honest_fines = 0usize;
    for seed in 0..10u64 {
        let cfg = SessionConfig::builder(SystemModel::NcpFe, 0.2)
            .processors(base.iter().map(|&w| ProcessorConfig::new(w, Behavior::Compliant)))
            .seed(seed)
            .build()
            .unwrap();
        honest_fines += run_session_vm(&cfg).unwrap().fined_processors().len();
    }
    println!("honest sessions x10: total fines = {honest_fines} (expect 0)");
    // 2) single-deviant sessions: exactly the deviant fined.
    let offences: Vec<(usize, Behavior)> = vec![
        (2, Behavior::EquivocateBids { factor: 3.0 }),
        (0, Behavior::ShortAllocate { victim: 1, shortfall: 1 }),
        (0, Behavior::OverAllocate { victim: 2, excess: 1 }),
        (3, Behavior::CorruptPayments { target: 0, factor: 0.5 }),
        (1, Behavior::FalselyAccuseAllocation),
    ];
    println!("{:<30} {:>10} {:>16}", "offence", "fined", "exactly deviant?");
    for (who, b) in offences {
        let mut procs = base.map(|w| (w, Behavior::Compliant));
        procs[who].1 = b;
        let out = run_cfg(&procs);
        let fined = out.fined_processors();
        println!(
            "{:<30} {:>10} {:>16}",
            b.to_string(),
            format!("{fined:?}"),
            if fined == vec![who] { "yes" } else { "NO" }
        );
        assert_eq!(fined, vec![who]);
    }
}

/// E10: Theorem 5.4 — communication is Θ(m²).
fn comm_complexity() {
    banner("E10 / Theorem 5.4: communication complexity Θ(m²)");
    println!(
        "{:>5} {:>10} {:>12} {:>12} {:>14} {:>12} {:>10}",
        "m", "bid msgs", "pv msgs", "pv bytes", "total bytes", "bytes/m^2", "msgs/m^2"
    );
    for &m in &[2usize, 4, 8, 16, 32, 64] {
        let w = heterogeneous_rates(m, 1.0, 4.0, 7);
        let cfg = SessionConfig::builder(SystemModel::NcpFe, 0.1)
            .processors(w.iter().map(|&x| ProcessorConfig::new(x, Behavior::Compliant)))
            .seed(1)
            .blocks(2 * m) // keep grant payloads proportional, not dominant
            .build()
            .unwrap();
        let out = run_session_vm(&cfg).unwrap();
        let (bid_msgs, _) = out.messages.category("bid");
        let (pv_msgs, pv_bytes) = out.messages.category("payment-vector");
        let total = out.messages.total_bytes();
        let m2 = (m * m) as f64;
        println!(
            "{:>5} {:>10} {:>12} {:>12} {:>14} {:>12.1} {:>10.2}",
            m,
            bid_msgs,
            pv_msgs,
            pv_bytes,
            total,
            total as f64 / m2,
            out.messages.total_messages() as f64 / m2
        );
    }
    println!("   (bytes/m^2 flattens to a constant -> Θ(m²), dominated by payment vectors)");
}

/// E11: the deterrence bound `F ≥ Σ α_j·w_j` — utility of a deviant as the
/// fine sweeps across the bound.
fn fine_bound() {
    banner("E11: the fine bound F >= sum(alpha_j w_j) is the deterrence threshold");
    let base = [1.0, 2.0, 3.0];
    let probe_cfg = SessionConfig::builder(SystemModel::NcpFe, 0.2)
        .processors(base.iter().map(|&w| ProcessorConfig::new(w, Behavior::Compliant)))
        .build()
        .unwrap();
    let bound = probe_cfg.fine_bound();
    let honest = run_cfg(&base.map(|w| (w, Behavior::Compliant)));
    println!("deterrence bound = {bound:.4}; honest U(P2) = {:.4}", honest.utility(1));
    println!(
        "{:>10} {:>12} {:>14} {:>12}",
        "F/bound", "F", "U(equivocator)", "deterred?"
    );
    for factor in [1.0, 1.5, 2.0, 4.0, 8.0] {
        let f = bound * factor;
        let cfg = SessionConfig::builder(SystemModel::NcpFe, 0.2)
            .processors([
                ProcessorConfig::new(1.0, Behavior::Compliant),
                ProcessorConfig::new(2.0, Behavior::EquivocateBids { factor: 2.0 }),
                ProcessorConfig::new(3.0, Behavior::Compliant),
            ])
            .fine(f)
            .seed(3)
            .build()
            .unwrap();
        let out = run_session_vm(&cfg).unwrap();
        let u = out.utility(1);
        println!(
            "{:>10.1} {:>12.4} {:>14.4} {:>12}",
            factor,
            f,
            u,
            if u < honest.utility(1) { "yes" } else { "NO" }
        );
    }
    println!("   (already at F = bound the deviant loses; larger F only deepens the loss)");
}

/// E12: messages of the trusted-CP baseline (Θ(m)) versus DLS-BL-NCP
/// (Θ(m²)) — what removing the control processor costs.
fn decentralization_cost() {
    banner("E12: cost of decentralization — trusted CP (Θ(m)) vs DLS-BL-NCP (Θ(m²))");
    println!(
        "{:>5} {:>12} {:>14} {:>12} {:>14} {:>10}",
        "m", "CP msgs", "CP bytes", "NCP msgs", "NCP bytes", "msg ratio"
    );
    for &m in &[2usize, 4, 8, 16, 32] {
        let w = heterogeneous_rates(m, 1.0, 4.0, 77);
        let mk = |model| {
            SessionConfig::builder(model, 0.1)
                .processors(w.iter().map(|&x| ProcessorConfig::new(x, Behavior::Compliant)))
                .seed(5)
                .blocks(2 * m)
                .build()
                .unwrap()
        };
        let cp = dls::protocol::centralized::run_centralized(&mk(SystemModel::Cp)).unwrap();
        let ncp = run_session_vm(&mk(SystemModel::NcpFe)).unwrap();
        println!(
            "{:>5} {:>12} {:>14} {:>12} {:>14} {:>10.1}",
            m,
            cp.messages.total_messages(),
            cp.messages.total_bytes(),
            ncp.messages.total_messages(),
            ncp.messages.total_bytes(),
            ncp.messages.total_messages() as f64 / cp.messages.total_messages() as f64
        );
    }
    println!("   (the message ratio grows linearly in m: Θ(m²)/Θ(m))");
}

/// E13: the linear daisy-chain extension (paper's future work).
fn linear_network() {
    banner("E13: linear network extension — chain vs bus");
    use dls::dlt::linear;
    use dls::netsim::linear::simulate_chain;
    let w = vec![1.0, 1.5, 2.0, 2.5, 3.0];
    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>12}",
        "z", "chain T", "bus FE T", "chain resid", "sim matches"
    );
    for k in 0..=6 {
        let z = 0.05 * k as f64;
        let chain = linear::LinearParams::uniform_links(z, w.clone()).unwrap();
        let bus = BusParams::new(z, w.clone()).unwrap();
        let a = linear::fractions(&chain);
        let t_chain = linear::optimal_makespan(&chain);
        let t_bus = optimal::optimal_makespan(SystemModel::NcpFe, &bus);
        let times = linear::finish_times(&chain, &a);
        let resid = times.iter().cloned().fold(f64::MIN, f64::max)
            - times.iter().cloned().fold(f64::MAX, f64::min);
        let sim = simulate_chain(&chain, &a);
        println!(
            "{:>6.2} {:>14.4} {:>14.4} {:>14.2e} {:>12}",
            z,
            t_chain,
            t_bus,
            resid,
            if (sim.makespan - t_chain).abs() < 1e-9 {
                "yes"
            } else {
                "NO"
            }
        );
    }
    println!("   (equal-finish optimality carries over; chains pay per-hop forwarding)");
}

/// E14: multi-installment scheduling (the paper's cited \[20\] baseline).
fn multiround() {
    banner("E14: multi-installment scheduling — pipelining gains ([20] baseline)");
    use dls::netsim::multiround::simulate_multiround;
    let w = vec![1.0, 1.5, 2.0, 2.5, 3.0];
    for z in [0.2, 0.5, 1.0] {
        let p = BusParams::new(z, w.clone()).unwrap();
        print!("z = {z:<4} makespan by rounds:");
        let t1 = simulate_multiround(&p, 1).expect("rounds >= 1").makespan;
        for r in [1usize, 2, 3, 4, 6, 8, 16] {
            let t = simulate_multiround(&p, r).expect("rounds >= 1").makespan;
            print!("  R{r}={t:.4}");
        }
        let t16 = simulate_multiround(&p, 16).expect("rounds >= 1").makespan;
        println!("  (gain {:.1}%)", (1.0 - t16 / t1) * 100.0);
    }
    println!("   (gains grow with z — pipelining hides communication; diminishing in R)");
}

/// E15: coalition manipulations — beyond the paper's unilateral analysis.
fn coalitions() {
    banner("E15: coalition manipulation probes (extension)");
    use dls::mechanism::validate::probe_coalition;
    let w = [0.8, 1.3, 1.9, 2.6, 3.4];
    println!(
        "{:>14} {:>8} {:>14} {:>14} {:>12}",
        "coalition", "bid x", "joint U(dev)", "joint U(truth)", "gain"
    );
    let mut worst: f64 = f64::NEG_INFINITY;
    for members in [vec![0usize, 1], vec![1, 2], vec![2, 3, 4], vec![0, 4]] {
        for factor in [0.5, 0.75, 1.5, 2.0, 3.0] {
            let r =
                probe_coalition(SystemModel::NcpFe, 0.3, &w, &members, factor).unwrap();
            worst = worst.max(r.gain());
            println!(
                "{:>14} {:>8} {:>14.5} {:>14.5} {:>12.2e}",
                format!("{members:?}"),
                factor,
                r.coalition_utility,
                r.truthful_utility,
                r.gain()
            );
        }
    }
    if worst > 1e-9 {
        println!(
            "   FINDING: max coalition gain {worst:.2e} > 0 — DLS-BL is strategyproof \
             (unilateral) but NOT group-strategyproof; a jointly over-reporting \
             coalition of fast processors can profit."
        );
    } else {
        println!("   (max observed coalition gain: {worst:.2e} — none profitable here)");
    }
}

fn run_cfg(procs: &[(f64, Behavior)]) -> dls::SessionOutcome {
    let cfg = SessionConfig::builder(SystemModel::NcpFe, 0.2)
        .processors(procs.iter().map(|&(w, b)| ProcessorConfig::new(w, b)))
        .seed(2)
        .build()
        .unwrap();
    run_session_vm(&cfg).unwrap()
}
