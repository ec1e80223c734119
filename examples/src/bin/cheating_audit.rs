//! Cheating audit: run one session per deviant behaviour in the catalogue
//! and show that every protocol offence is detected, fined and rendered
//! unprofitable (Lemmas 5.1–5.2, Theorem 5.1), while legal-but-strategic
//! manipulations (misreporting, slacking) are punished by the mechanism
//! itself.
//!
//! ```text
//! cargo run -p dls-examples --bin cheating_audit
//! ```

use dls::protocol::config::{Behavior, ProcessorConfig, SessionConfig};
use dls::protocol::run_session_vm;
use dls::{SessionStatus, SystemModel};

fn run_with(deviant: usize, behavior: Behavior) -> (SessionStatus, Vec<usize>, f64) {
    let base = [1.0, 2.0, 3.0];
    let cfg = SessionConfig::builder(SystemModel::NcpFe, 0.2)
        .processors(base.iter().enumerate().map(|(i, &w)| {
            ProcessorConfig::new(w, if i == deviant { behavior } else { Behavior::Compliant })
        }))
        .seed(11)
        .build()
        .unwrap();
    let out = run_session_vm(&cfg).unwrap();
    (out.status.clone(), out.fined_processors(), out.utility(deviant))
}

fn main() {
    let honest_utils: Vec<f64> = {
        let cfg = SessionConfig::builder(SystemModel::NcpFe, 0.2)
            .processors([1.0, 2.0, 3.0].iter().map(|&w| ProcessorConfig::new(w, Behavior::Compliant)))
            .seed(11)
            .build()
            .unwrap();
        let out = run_session_vm(&cfg).unwrap();
        (0..3).map(|i| out.utility(i)).collect()
    };

    println!(
        "{:<28}{:<10}{:<26}{:>10}{:>10}{:>8}",
        "behaviour (deviant)", "deviant", "status", "U(dev)", "U(honest)", "pays?"
    );
    let catalogue: Vec<(usize, Behavior)> = vec![
        (1, Behavior::Misreport { factor: 1.5 }),
        (1, Behavior::Slack { factor: 2.0 }),
        (1, Behavior::EquivocateBids { factor: 2.0 }),
        (0, Behavior::ShortAllocate { victim: 2, shortfall: 2 }),
        (0, Behavior::OverAllocate { victim: 1, excess: 3 }),
        (2, Behavior::CorruptPayments { target: 2, factor: 2.0 }),
        (1, Behavior::FalselyAccuseAllocation),
    ];
    for (who, behavior) in catalogue {
        let (status, fined, u_dev) = run_with(who, behavior);
        let status_str = match &status {
            SessionStatus::Completed => "completed".to_string(),
            SessionStatus::CompletedWithFines => "completed-with-fines".to_string(),
            SessionStatus::Aborted { phase } => format!("aborted@{phase:?}"),
        };
        let pays = if u_dev < honest_utils[who] { "yes" } else { "NO!" };
        println!(
            "{:<28}{:<10}{:<26}{:>10.4}{:>10.4}{:>8}",
            behavior.to_string(),
            format!("P{}", who + 1),
            status_str,
            u_dev,
            honest_utils[who],
            pays
        );
        if behavior.is_finable_offence() {
            assert_eq!(fined, vec![who], "offence must fine exactly the deviant");
        } else {
            assert!(fined.is_empty(), "legal strategies must not be fined");
        }
    }
    println!("\nEvery deviation costs the deviant relative to compliance — Theorem 5.1 holds.");
}
