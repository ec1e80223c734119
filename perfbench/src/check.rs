//! Output checks. Every completed operation is compared against an oracle
//! computed from the inputs alone; a mismatch counts as a failure exactly
//! like a session error or a lost ticket.

use dls_dlt::{BusParams, ChainState, SystemModel};
use dls_mechanism::{compute_payments, MultiLoadEngine, Payment};
use dls_protocol::blocks::integer_allocation;
use dls_protocol::config::SessionConfig;
use dls_protocol::referee::payments_agree;
use dls_protocol::{FaultPlan, SessionOutcome, SessionStatus};

/// What a session must produce, taken from its configuration before it is
/// submitted.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    /// System model.
    pub model: SystemModel,
    /// Bus rate.
    pub z: f64,
    /// True (and bid) rates.
    pub rates: Vec<f64>,
    /// Blocks of the load.
    pub blocks: usize,
    /// The processor with a crash fault, if any.
    pub crashed: Option<usize>,
}

impl Expect {
    /// The expectation for `cfg`.
    pub fn of(cfg: &SessionConfig) -> Expect {
        Expect {
            model: cfg.model,
            z: cfg.z,
            rates: cfg.processors.iter().map(|p| p.true_w).collect(),
            blocks: cfg.blocks,
            crashed: cfg
                .processors
                .iter()
                .position(|p| p.fault != FaultPlan::None),
        }
    }
}

/// Checks one session outcome.
///
/// A fault-free session must end `Completed` with no fines; its
/// allocations must equal `dlt::optimal::fractions` bit for bit, its
/// payments must agree with `compute_payments` at the metered rates, and
/// its ledger must balance. A crash session must end
/// `CompletedWithFines`, fine only the crashed processor, and take exactly
/// two rounds.
pub fn session(exp: &Expect, out: &SessionOutcome) -> Result<(), String> {
    conservation(out)?;
    match exp.crashed {
        None => light(exp, out),
        Some(c) => {
            if out.status != SessionStatus::CompletedWithFines {
                return Err(format!("crash session ended {:?}", out.status));
            }
            if out.fined_processors() != vec![c] {
                return Err(format!(
                    "crash session fined {:?}, expected only {c}",
                    out.fined_processors()
                ));
            }
            if out.degradation.rounds != 2 {
                return Err(format!(
                    "crash session took {} rounds, expected 2",
                    out.degradation.rounds
                ));
            }
            Ok(())
        }
    }
}

fn conservation(out: &SessionOutcome) -> Result<(), String> {
    let volume: f64 = out.ledger.journal().iter().map(|t| t.amount.abs()).sum();
    let err = out.ledger.conservation_error();
    if err.abs() <= 1e-9 * volume.max(1.0) {
        Ok(())
    } else {
        Err(format!(
            "ledger does not balance: error {err} on volume {volume}"
        ))
    }
}

fn light(exp: &Expect, out: &SessionOutcome) -> Result<(), String> {
    if out.status != SessionStatus::Completed {
        return Err(format!("session ended {:?}", out.status));
    }
    if !out.fined_processors().is_empty() {
        return Err(format!("session fined {:?}", out.fined_processors()));
    }
    if out.processors.len() != exp.rates.len() {
        return Err(format!(
            "{} processor outcomes for {} processors",
            out.processors.len(),
            exp.rates.len()
        ));
    }
    let params = BusParams::new(exp.z, exp.rates.clone()).map_err(|e| e.to_string())?;
    let alpha = dls_dlt::optimal::fractions(exp.model, &params);
    // The tamper-proof meter reads the granted blocks at the true rate, so
    // the observed rate is the block-rounded fraction over α.
    let counts = integer_allocation(&alpha, exp.blocks);
    let observed: Vec<f64> = alpha
        .iter()
        .zip(&counts)
        .zip(&exp.rates)
        .map(|((&a, &c), &w)| {
            let phi = c as f64 / exp.blocks as f64 * w;
            if a > 0.0 && phi > 0.0 {
                phi / a
            } else {
                w
            }
        })
        .collect();
    let want = compute_payments(exp.model, &params, &alpha, &observed);
    for (i, p) in out.processors.iter().enumerate() {
        let a = alpha.get(i).copied().unwrap_or(f64::NAN);
        if p.alloc_fraction.to_bits() != a.to_bits() {
            return Err(format!(
                "P{}: allocation {} != {a}",
                i + 1,
                p.alloc_fraction
            ));
        }
        let (Some(got), Some(w)) = (p.payment, want.get(i)) else {
            return Err(format!("P{}: no payment", i + 1));
        };
        if !payments_agree(got.compensation, w.compensation) || !payments_agree(got.bonus, w.bonus)
        {
            return Err(format!("P{}: payment {got:?} != {w:?}", i + 1));
        }
    }
    Ok(())
}

/// Checks the engine's current per-load allocations, makespans and the
/// payments of the last re-quote bit for bit against a fresh `ChainState`
/// solve and `compute_payments` on the same bids.
pub fn requote(
    engine: &mut MultiLoadEngine,
    model: SystemModel,
    bids: &[f64],
    payments: &[Vec<Payment>],
) -> Result<(), String> {
    let loads = engine.loads().to_vec();
    if payments.len() != loads.len() {
        return Err(format!(
            "{} payment vectors for {} loads",
            payments.len(),
            loads.len()
        ));
    }
    let mut want_alpha = Vec::new();
    for (l, (spec, got)) in loads.iter().zip(payments).enumerate() {
        let params = BusParams::new(spec.z, bids.to_vec()).map_err(|e| e.to_string())?;
        let fresh = ChainState::new(model, &params);
        fresh.fractions_into(&mut want_alpha);
        let alpha = engine.fractions(l).map_err(|e| e.to_string())?.to_vec();
        if !bits_eq(&alpha, &want_alpha) {
            return Err(format!(
                "load {l}: spliced allocation differs from a fresh solve"
            ));
        }
        let makespan = engine.load_makespan(l).map_err(|e| e.to_string())?;
        if makespan.to_bits() != (spec.size * fresh.optimal_makespan()).to_bits() {
            return Err(format!("load {l}: makespan differs from a fresh solve"));
        }
        let want = compute_payments(model, &params, &want_alpha, bids);
        if got.len() != want.len() {
            return Err(format!(
                "load {l}: {} payments for {} bids",
                got.len(),
                want.len()
            ));
        }
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            if g.compensation.to_bits() != (spec.size * w.compensation).to_bits()
                || g.bonus.to_bits() != (spec.size * w.bonus).to_bits()
            {
                return Err(format!(
                    "load {l} P{}: payment {g:?} != {w:?} scaled",
                    i + 1
                ));
            }
        }
    }
    Ok(())
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, Workload, HEAVY, LIGHT};
    use dls_dlt::LoadSpec;
    use dls_protocol::run_session_vm;

    fn light_case() -> (Expect, SessionOutcome) {
        let key = workloads::key_seed(Workload::RepeatClosed, 77);
        let cfg = workloads::repeat_pool(5, key).unwrap().remove(1);
        let out = run_session_vm(&cfg).unwrap();
        (Expect::of(&cfg), out)
    }

    #[test]
    fn light_session_passes_and_corrupted_expectations_fail() {
        let (exp, out) = light_case();
        session(&exp, &out).unwrap();

        let mut bad_rate = exp.clone();
        bad_rate.rates[2] += 1.0 / 64.0;
        assert!(
            session(&bad_rate, &out).is_err(),
            "corrupted rate not caught"
        );

        let mut bad_model = exp.clone();
        bad_model.model = if exp.model == SystemModel::NcpFe {
            SystemModel::NcpNfe
        } else {
            SystemModel::NcpFe
        };
        assert!(session(&bad_model, &out).is_err(), "wrong model not caught");

        let mut bad_blocks = exp.clone();
        bad_blocks.blocks += 5;
        assert!(
            session(&bad_blocks, &out).is_err(),
            "wrong block count not caught"
        );

        let mut bad_fault = exp.clone();
        bad_fault.crashed = Some(0);
        assert!(
            session(&bad_fault, &out).is_err(),
            "missing crash not caught"
        );

        // A failed check is a failed operation in the run's tally.
        let mut tally = crate::drive::Tally::default();
        tally.record(session(&exp, &out));
        tally.record(session(&bad_rate, &out));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }

    #[test]
    fn tampered_outcome_fails() {
        let (exp, mut out) = light_case();
        if let Some(p) = out.processors[0].payment.as_mut() {
            p.bonus *= 1.001;
        }
        assert!(session(&exp, &out).is_err());
    }

    #[test]
    fn crash_session_passes_and_corrupted_expectations_fail() {
        let key = workloads::key_seed(Workload::SkewedPaced, 77);
        let r = workloads::rates(6, HEAVY.denom, 9);
        let cfg = workloads::session(LIGHT, SystemModel::NcpFe, &r, key, true).unwrap();
        let out = run_session_vm(&cfg).unwrap();
        let exp = Expect::of(&cfg);
        assert_eq!(exp.crashed, Some(5));
        session(&exp, &out).unwrap();

        let mut wrong_victim = exp.clone();
        wrong_victim.crashed = Some(2);
        assert!(session(&wrong_victim, &out).is_err());

        let mut no_crash = exp;
        no_crash.crashed = None;
        assert!(session(&no_crash, &out).is_err());
    }

    #[test]
    fn requote_check_passes_and_corrupted_reference_fails() {
        let model = SystemModel::NcpFe;
        let mut bids = workloads::rates(32, 64, 4);
        let loads = [LoadSpec::new(1.0, 0.0625), LoadSpec::new(2.5, 0.125)];
        let mut engine = MultiLoadEngine::new(model, &bids, &loads).unwrap();
        engine.submit_bid(7, 3.5).unwrap();
        bids[7] = 3.5;
        let mut payments = vec![Vec::new(); loads.len()];
        for (l, out) in payments.iter_mut().enumerate() {
            engine.payments_into(l, &bids, out).unwrap();
        }
        requote(&mut engine, model, &bids, &payments).unwrap();

        let mut corrupted = payments.clone();
        corrupted[1][3].bonus = f64::from_bits(corrupted[1][3].bonus.to_bits() ^ 1);
        assert!(requote(&mut engine, model, &bids, &corrupted).is_err());

        let mut stale = bids.clone();
        stale[7] = 3.0;
        assert!(requote(&mut engine, model, &stale, &payments).is_err());
    }
}
