//! Pins the `dls-dlt` and `dls-mechanism` surface the `perfbench/`
//! benchmark crate calls, through the crate paths it imports, so an API
//! break fails `cargo test` rather than the benchmark build. The calls
//! mirror perfbench's re-quote loop and its bit-exact check.

use dls_dlt::{BusParams, ChainState, LoadSpec, SystemModel};
use dls_mechanism::{compute_payments, MultiLoadEngine, Payment};

#[test]
fn perfbench_surface_compiles_and_agrees() {
    let model = SystemModel::NcpFe;
    let mut bids = vec![1.0, 1.5, 2.25, 3.0, 1.25];
    let loads = [LoadSpec::new(1.0, 0.0625), LoadSpec::new(2.5, 0.125)];
    let mut engine = MultiLoadEngine::new(model, &bids, &loads).unwrap();
    engine.submit_bid(3, 2.5).unwrap();
    bids[3] = 2.5;
    let mut payments: Vec<Vec<Payment>> = vec![Vec::new(); loads.len()];
    for (l, out) in payments.iter_mut().enumerate() {
        engine.payments_into(l, &bids, out).unwrap();
    }
    assert!(engine.schedule().makespan > 0.0);

    let mut alpha = Vec::new();
    for (l, spec) in engine.loads().to_vec().iter().enumerate() {
        let params = BusParams::new(spec.z, bids.clone()).unwrap();
        let fresh = ChainState::new(model, &params);
        fresh.fractions_into(&mut alpha);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&alpha), bits(&dls_dlt::optimal::fractions(model, &params)));
        assert_eq!(bits(&alpha), bits(engine.fractions(l).unwrap()));
        let makespan = engine.load_makespan(l).unwrap();
        assert_eq!(makespan.to_bits(), (spec.size * fresh.optimal_makespan()).to_bits());
        // The engine prices each load at its volume.
        let pay = |ps: &[Payment], size: f64| -> Vec<(u64, u64)> {
            let bits = |x: f64| (size * x).to_bits();
            ps.iter().map(|p| (bits(p.compensation), bits(p.bonus))).collect()
        };
        let want = compute_payments(model, &params, &alpha, &bids);
        assert_eq!(pay(&payments[l], 1.0), pay(&want, spec.size), "load {l}");
    }
}
