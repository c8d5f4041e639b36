//! Golden-trace regression suite: every methodology's closed-loop
//! behaviour on a fixed rig is pinned against compact reference traces
//! committed under `tests/golden/`.
//!
//! The rig is the paper's thermally stressed city-EV
//! (`SystemConfig::stress_rig` + `VehicleParams::compact_ev`) over the
//! first 120 s of US06 — long enough to exercise acceleration peaks,
//! regeneration, and the first thermal response of every controller,
//! short enough that even the (debug-build) MPC stays affordable.
//!
//! Any behavioural drift — a changed solver path, a reordered floating-
//! point reduction, a retuned default — fails these tests. If the change
//! is *intentional*, re-bless the references and review the diff:
//!
//! ```sh
//! OTEM_BLESS=1 cargo test --test golden_traces
//! git diff tests/golden/
//! ```

use otem_repro::control::mpc::{GradientMode, MpcConfig};
use otem_repro::control::policy::{ActiveCooling, Dual, Otem, Parallel};
use otem_repro::control::{Controller, SimulationResult, Simulator, SupervisedOtem, SystemConfig};
use otem_repro::drivecycle::{standard, PowerTrace, Powertrain, StandardCycle, VehicleParams};
use otem_repro::units::Seconds;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Steps of the route each golden trace covers.
const STEPS: usize = 120;

/// Relative tolerance for the comparison. The runs are deterministic, so
/// on the blessing platform the match is exact; the margin only absorbs
/// cross-platform libm / FMA differences.
const REL_TOL: f64 = 1e-6;

/// Absolute floors for quantities that legitimately pass through zero.
const ABS_TOL_TEMP_C: f64 = 1e-6;
const ABS_TOL_RATIO: f64 = 1e-9;
const ABS_TOL_POWER_W: f64 = 1e-2;

fn rig_trace() -> PowerTrace {
    let cycle = standard(StandardCycle::Us06).expect("synthesis");
    let trace = Powertrain::new(VehicleParams::compact_ev())
        .expect("vehicle")
        .power_trace(&cycle);
    PowerTrace::new(Seconds::new(1.0), trace.window(0, STEPS))
}

fn run(controller: &mut dyn Controller) -> SimulationResult {
    let config = SystemConfig::stress_rig();
    Simulator::new(&config).run(controller, &rig_trace())
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.csv"))
}

/// One golden row: the externally observable per-step quantities.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    step: usize,
    t_battery_c: f64,
    soc: f64,
    soe: f64,
    delivered_w: f64,
}

fn rows_of(result: &SimulationResult) -> Vec<Row> {
    result
        .records
        .iter()
        .enumerate()
        .map(|(step, r)| Row {
            step,
            t_battery_c: r.state.battery_temp.to_celsius().value(),
            soc: r.state.soc.value(),
            soe: r.state.soe.value(),
            delivered_w: r.hees.delivered.value(),
        })
        .collect()
}

fn encode(rows: &[Row]) -> String {
    let mut out = String::from("step,t_battery_c,soc,soe,delivered_w\n");
    for r in rows {
        writeln!(
            out,
            "{},{:.12e},{:.12e},{:.12e},{:.12e}",
            r.step, r.t_battery_c, r.soc, r.soe, r.delivered_w
        )
        .expect("string write");
    }
    out
}

fn decode(text: &str, path: &std::path::Path) -> Vec<Row> {
    text.lines()
        .skip(1) // header
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), 5, "malformed golden row in {path:?}: {line}");
            let num = |i: usize| -> f64 {
                fields[i]
                    .parse()
                    .unwrap_or_else(|e| panic!("bad field {i} in {path:?} ({line}): {e}"))
            };
            Row {
                step: fields[0].parse().expect("step index"),
                t_battery_c: num(1),
                soc: num(2),
                soe: num(3),
                delivered_w: num(4),
            }
        })
        .collect()
}

fn close(actual: f64, expected: f64, abs_floor: f64) -> bool {
    let tol = abs_floor.max(REL_TOL * expected.abs());
    (actual - expected).abs() <= tol
}

/// Runs `controller`, then either re-blesses the reference (when
/// `OTEM_BLESS` is set) or asserts the run matches it row by row.
fn check(name: &str, controller: &mut dyn Controller) {
    let result = run(controller);
    let rows = rows_of(&result);
    assert_eq!(rows.len(), STEPS, "route truncated for {name}");
    let path = golden_path(name);

    if std::env::var_os("OTEM_BLESS").is_some() {
        std::fs::write(&path, encode(&rows)).expect("write golden");
        eprintln!("blessed {path:?}");
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden trace {path:?} ({e}); generate it with \
             OTEM_BLESS=1 cargo test --test golden_traces"
        )
    });
    let expected = decode(&text, &path);
    assert_eq!(expected.len(), rows.len(), "{name}: golden length mismatch");

    for (got, want) in rows.iter().zip(&expected) {
        assert_eq!(got.step, want.step, "{name}: step index drift");
        let t = got.step;
        assert!(
            close(got.t_battery_c, want.t_battery_c, ABS_TOL_TEMP_C),
            "{name} step {t}: T_b {} != golden {}",
            got.t_battery_c,
            want.t_battery_c
        );
        assert!(
            close(got.soc, want.soc, ABS_TOL_RATIO),
            "{name} step {t}: SoC {} != golden {}",
            got.soc,
            want.soc
        );
        assert!(
            close(got.soe, want.soe, ABS_TOL_RATIO),
            "{name} step {t}: SoE {} != golden {}",
            got.soe,
            want.soe
        );
        assert!(
            close(got.delivered_w, want.delivered_w, ABS_TOL_POWER_W),
            "{name} step {t}: delivered {} != golden {}",
            got.delivered_w,
            want.delivered_w
        );
    }
}

#[test]
fn golden_parallel() {
    let config = SystemConfig::stress_rig();
    let mut c = Parallel::new(&config).expect("valid");
    check("parallel", &mut c);
}

#[test]
fn golden_active_cooling() {
    let config = SystemConfig::stress_rig();
    let mut c = ActiveCooling::new(&config).expect("valid");
    check("active_cooling", &mut c);
}

#[test]
fn golden_dual() {
    let config = SystemConfig::stress_rig();
    let mut c = Dual::new(&config).expect("valid");
    check("dual", &mut c);
}

/// OTEM on the default tuning with its gradient mode pinned, so the
/// golden it is checked against keeps naming one mode whatever the
/// default becomes.
fn otem_with(mode: GradientMode) -> Otem {
    let config = SystemConfig::stress_rig();
    Otem::with_mpc(
        &config,
        MpcConfig {
            gradient_mode: mode,
            ..MpcConfig::default()
        },
    )
    .expect("valid")
}

/// `tests/golden/otem.csv` pins central finite differences.
#[test]
fn golden_otem() {
    check("otem", &mut otem_with(GradientMode::Serial));
}

/// The adjoint gradient's own closed-loop pin: the reverse-mode sweep
/// drives the same rig and its trace is frozen against
/// `tests/golden/otem_adjoint.csv` with the full golden tolerances, so
/// any behavioural drift in the tape or backward recursion fails here
/// exactly like a solver change fails `golden_otem`.
#[test]
fn golden_otem_adjoint() {
    check("otem_adjoint", &mut otem_with(GradientMode::Adjoint));
}

/// Cross-mode contract: the adjoint and finite-difference gradients must
/// land on the *same physical behaviour*. Bit-level trajectory identity
/// is not achievable — the solver stops on an iteration budget, warm
/// starts carry each solve's endpoint into the next, and wherever an
/// evaluation sits within a finite-difference step of a clamp branch the
/// FD stencil straddles branches while the adjoint differentiates the
/// executed one, so the iterate paths are free to split at kinks. (At
/// smooth points the gradients agree to ≤ 1e-6 — see
/// `tests/gradient_parity.rs` — and the adjoint adopts central-
/// difference subgradient conventions *on* the kink set.) What must
/// hold is physical agreement over the whole route: battery temperature
/// within 0.2 °C, states of charge/energy within 5e-4 / 5e-3, and
/// cumulative delivered energy within 0.5 %. Measured slack is ≥ 3× on
/// every bound.
#[test]
fn adjoint_gradient_agrees_with_the_fd_golden_physically() {
    let result = run(&mut otem_with(GradientMode::Adjoint));
    let rows = rows_of(&result);
    assert_eq!(rows.len(), STEPS, "route truncated for adjoint otem");

    let path = golden_path("otem");
    let text = std::fs::read_to_string(&path).expect("otem golden present");
    let expected = decode(&text, &path);
    assert_eq!(expected.len(), STEPS, "otem golden truncated");
    let mut energy_got = 0.0;
    let mut energy_want = 0.0;
    for (got, want) in rows.iter().zip(&expected) {
        let t = got.step;
        assert!(
            (got.t_battery_c - want.t_battery_c).abs() <= 0.2,
            "adjoint otem step {t}: T_b {} vs FD golden {}",
            got.t_battery_c,
            want.t_battery_c
        );
        assert!(
            (got.soc - want.soc).abs() <= 5e-4,
            "adjoint otem step {t}: SoC {} vs FD golden {}",
            got.soc,
            want.soc
        );
        assert!(
            (got.soe - want.soe).abs() <= 5e-3,
            "adjoint otem step {t}: SoE {} vs FD golden {}",
            got.soe,
            want.soe
        );
        energy_got += got.delivered_w;
        energy_want += want.delivered_w;
    }
    let rel = (energy_got - energy_want).abs() / energy_want.abs().max(1.0);
    assert!(
        rel <= 5e-3,
        "delivered energy drift {rel:.3e} ({energy_got:.4e} vs {energy_want:.4e} W·s)"
    );
}

/// The supervisor's zero-cost contract: on the nominal rig it must be
/// invisible — bit-identical records to unsupervised OTEM (same golden
/// trace, no new CSV) and a silent degradation ladder. This is checked
/// in-memory against the *unsupervised* run rather than a separate
/// golden file, so the two controllers can never drift apart unnoticed.
#[test]
fn golden_otem_supervised_is_bit_identical_on_nominal_route() {
    use otem_repro::telemetry::MemorySink;

    let config = SystemConfig::stress_rig();
    let trace = rig_trace();

    let mut plain = otem_with(GradientMode::Serial);
    let baseline = Simulator::new(&config).run(&mut plain, &trace);

    let mut supervised = SupervisedOtem::with_defaults(otem_with(GradientMode::Serial));
    let sink = MemorySink::new();
    let result = Simulator::new(&config).run_with(&mut supervised, &trace, &sink);

    assert_eq!(result.records.len(), baseline.records.len());
    for (step, (sup, plain)) in result.records.iter().zip(&baseline.records).enumerate() {
        assert_eq!(
            sup.state.battery_temp.value().to_bits(),
            plain.state.battery_temp.value().to_bits(),
            "step {step}: supervised T_b drifted"
        );
        assert_eq!(
            sup.state.soc.value().to_bits(),
            plain.state.soc.value().to_bits()
        );
        assert_eq!(
            sup.state.soe.value().to_bits(),
            plain.state.soe.value().to_bits()
        );
        assert_eq!(
            sup.hees.delivered.value().to_bits(),
            plain.hees.delivered.value().to_bits()
        );
        assert_eq!(
            sup.cooling_power.value().to_bits(),
            plain.cooling_power.value().to_bits()
        );
    }

    // The ladder never fired on the healthy route.
    assert!(supervised.is_armed());
    assert_eq!(supervised.rejected(), 0);
    assert_eq!(supervised.fallbacks(), 0);
    assert_eq!(sink.count_kind("decision_rejected"), 0);
    assert_eq!(sink.count_kind("fallback_engaged"), 0);
    assert_eq!(sink.count_kind("mpc_rearmed"), 0);
    assert_eq!(sink.count_kind("fault_injected"), 0);

    // And the supervised run still matches the committed OTEM golden.
    let rows = rows_of(&result);
    let path = golden_path("otem");
    if std::env::var_os("OTEM_BLESS").is_none() {
        let text = std::fs::read_to_string(&path).expect("otem golden present");
        let expected = decode(&text, &path);
        assert_eq!(expected.len(), STEPS, "otem golden truncated");
        assert_eq!(rows.len(), STEPS, "route truncated for supervised otem");
        for (got, want) in rows.iter().zip(&expected) {
            assert!(close(got.t_battery_c, want.t_battery_c, ABS_TOL_TEMP_C));
            assert!(close(got.soc, want.soc, ABS_TOL_RATIO));
            assert!(close(got.soe, want.soe, ABS_TOL_RATIO));
            assert!(close(got.delivered_w, want.delivered_w, ABS_TOL_POWER_W));
        }
    }
}
