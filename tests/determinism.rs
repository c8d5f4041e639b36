//! Reproducibility: the whole pipeline is deterministic — identical
//! configurations produce bit-identical results across runs.

use otem_repro::control::policy::{Dual, Parallel};
use otem_repro::control::{Simulator, SystemConfig};
use otem_repro::drivecycle::{standard, Powertrain, StandardCycle, VehicleParams};

#[test]
fn cycle_synthesis_is_reproducible() {
    let a = standard(StandardCycle::La92).unwrap();
    let b = standard(StandardCycle::La92).unwrap();
    assert_eq!(a, b);
}

#[test]
fn simulation_is_reproducible() {
    let config = SystemConfig::default();
    let cycle = standard(StandardCycle::Nycc).unwrap();
    let trace = Powertrain::new(VehicleParams::midsize_ev())
        .unwrap()
        .power_trace(&cycle);
    let sim = Simulator::new(&config);

    let mut c1 = Parallel::new(&config).unwrap();
    let mut c2 = Parallel::new(&config).unwrap();
    let r1 = sim.run(&mut c1, &trace);
    let r2 = sim.run(&mut c2, &trace);
    assert_eq!(r1, r2);

    let mut d1 = Dual::new(&config).unwrap();
    let mut d2 = Dual::new(&config).unwrap();
    assert_eq!(sim.run(&mut d1, &trace), sim.run(&mut d2, &trace));
}
