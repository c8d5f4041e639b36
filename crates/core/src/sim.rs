//! The closed-loop simulation engine — the paper's Algorithm 1 outer
//! loop, generalised over methodologies.

use crate::config::SystemConfig;
use crate::controller::Controller;
use crate::metrics::SimulationResult;
use otem_battery::AgingModel;
use otem_drivecycle::PowerTrace;
use otem_telemetry::{span, Event, NullSink, Sink};
use otem_units::Watts;
use serde::{Deserialize, Serialize};

/// Scalar outcome of a streamed run (see [`Simulator::run_each`]):
/// what the closed loop accumulated without retaining per-step records.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunTotals {
    /// Steps executed (equals the trace length).
    pub steps: usize,
    /// Accumulated battery capacity loss (fraction of rated capacity) —
    /// the paper's `Q_loss` output, bit-identical to
    /// [`crate::SimulationResult::capacity_loss`] for the same run.
    pub capacity_loss: f64,
}

/// Drives a [`Controller`] over a [`PowerTrace`], accumulating the
/// paper's outputs (`Q_loss`, `Energy`) and the full step records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Simulator {
    config: SystemConfig,
    /// How many future samples the controller gets to see each step
    /// (Algorithm 1 lines 11–12 fill the control window from `P̂_e`).
    pub forecast_len: usize,
}

impl Simulator {
    /// Builds a simulator for the given system configuration.
    pub fn new(config: &SystemConfig) -> Self {
        Self {
            config: config.clone(),
            forecast_len: 64,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Runs the full route: for each sample, hand the controller the
    /// load and its forecast window, apply the step, and integrate the
    /// capacity-loss model (Eq. 5) against the realised battery
    /// temperature and C-rate.
    pub fn run(&self, controller: &mut dyn Controller, trace: &PowerTrace) -> SimulationResult {
        self.run_with(controller, trace, &NullSink)
    }

    /// [`Simulator::run`] with telemetry: every step emits one
    /// [`Event::StepCompleted`] into `sink`, and the sink is handed to
    /// the controller (via [`Controller::step_with`]) so instrumented
    /// controllers can trace their solver and plant internals.
    ///
    /// The sink is strictly observational: for any sink the returned
    /// [`SimulationResult`] is `PartialEq`-identical to
    /// [`Simulator::run`] — the contract the `telemetry_parity`
    /// integration test pins.
    pub fn run_with(
        &self,
        controller: &mut dyn Controller,
        trace: &PowerTrace,
        sink: &dyn Sink,
    ) -> SimulationResult {
        let mut records = Vec::with_capacity(trace.len());
        let totals = self.run_each(controller, trace, sink, |_, record| records.push(*record));
        SimulationResult {
            methodology: controller.name(),
            dt: self.config.dt,
            records,
            capacity_loss: totals.capacity_loss,
        }
    }

    /// The streaming core of [`Simulator::run_with`]: identical step
    /// loop, but each [`StepRecord`](crate::StepRecord) is handed to
    /// `observe` instead of retained. This is the entry point for
    /// fleet-scale batch runs, where keeping every vehicle's full record
    /// vector would dominate memory (100k vehicles × hundreds of steps)
    /// — the observer folds whatever summary it needs and the records
    /// are gone.
    ///
    /// [`Simulator::run_with`] is implemented on top of this method
    /// (its observer pushes into a `Vec`), so the records a streaming
    /// observer sees are bit-identical to a retained run's — the
    /// contract the fleet determinism tests pin across shard counts.
    pub fn run_each(
        &self,
        controller: &mut dyn Controller,
        trace: &PowerTrace,
        sink: &dyn Sink,
        mut observe: impl FnMut(usize, &crate::StepRecord),
    ) -> RunTotals {
        let mut cursor = self.cursor();
        while cursor.advance(controller, trace, sink, &mut observe) {}
        cursor.finish(sink)
    }

    /// A suspended run at step zero: the step loop of
    /// [`Simulator::run_each`] handed out one [`RunCursor::advance`] at
    /// a time, so a caller can time or inspect each period on its own.
    /// A fully drained cursor
    /// produces [`RunTotals`] bit-identical to [`Simulator::run_each`]
    /// — the advance body *is* `run_each`'s loop body.
    pub fn cursor(&self) -> RunCursor {
        RunCursor {
            aging: AgingModel::new(self.config.aging),
            dt: self.config.dt,
            forecast_len: self.forecast_len,
            forecast: Vec::with_capacity(self.forecast_len),
            t: 0,
        }
    }
}

/// The resumable step loop of [`Simulator::run_each`]: holds exactly
/// the loop state (`t` and the aging integrator) plus the forecast
/// buffer it lends the controller each step, borrowing nothing, so the
/// caller keeps the controller and trace between steps.
#[derive(Debug)]
pub struct RunCursor {
    aging: AgingModel,
    dt: otem_units::Seconds,
    forecast_len: usize,
    /// Holds the zero-padded windows near the end of the route, reused
    /// every step; windows inside the route are borrowed from the trace.
    forecast: Vec<Watts>,
    t: usize,
}

impl RunCursor {
    /// Steps executed so far.
    pub fn steps(&self) -> usize {
        self.t
    }

    /// Runs one closed-loop step — the exact body of
    /// [`Simulator::run_each`]'s loop — and returns `true`, or returns
    /// `false` without side effects once the trace is exhausted.
    pub fn advance(
        &mut self,
        controller: &mut dyn Controller,
        trace: &PowerTrace,
        sink: &dyn Sink,
        mut observe: impl FnMut(usize, &crate::StepRecord),
    ) -> bool {
        let t = self.t;
        if t >= trace.len() {
            return false;
        }
        let _step_span = span(sink, "sim_step");
        let load = trace.get(t);
        let forecast = trace.window_in(t + 1, self.forecast_len, &mut self.forecast);
        let record = controller.step_with(load, forecast, self.dt, sink);
        self.aging.accumulate(
            record.state.battery_temp,
            record.hees.battery_c_rate,
            self.dt,
        );
        sink.record(Event::StepCompleted {
            step: t as u64,
            load_w: record.load.value(),
            delivered_w: record.hees.delivered.value(),
            shortfall_w: record.hees.shortfall.value(),
            cooling_w: record.cooling_power.value(),
            battery_temp_k: record.state.battery_temp.value(),
            soc: record.state.soc.value(),
            soe: record.state.soe.value(),
        });
        observe(t, &record);
        self.t += 1;
        true
    }

    /// Flushes the sink and closes the run. `steps` equals the trace
    /// length when the cursor was drained to completion.
    pub fn finish(self, sink: &dyn Sink) -> RunTotals {
        sink.flush();
        RunTotals {
            steps: self.t,
            capacity_loss: self.aging.cumulative_loss(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Parallel;
    use otem_units::Seconds;

    #[test]
    fn run_collects_one_record_per_sample() {
        let config = SystemConfig::default();
        let mut controller = Parallel::new(&config).expect("valid");
        let trace = PowerTrace::new(Seconds::new(1.0), vec![Watts::new(10_000.0); 25]);
        let result = Simulator::new(&config).run(&mut controller, &trace);
        assert_eq!(result.records.len(), 25);
        assert!(result.capacity_loss() > 0.0);
        assert!(result.energy().value() > 0.0);
        assert_eq!(result.methodology, "Parallel");
    }

    #[test]
    fn empty_trace_is_a_noop() {
        let config = SystemConfig::default();
        let mut controller = Parallel::new(&config).expect("valid");
        let trace = PowerTrace::new(Seconds::new(1.0), vec![]);
        let result = Simulator::new(&config).run(&mut controller, &trace);
        assert!(result.records.is_empty());
        assert_eq!(result.capacity_loss(), 0.0);
    }

    /// Records every forecast window the simulator hands to the
    /// controller, so the `trace.window(t + 1, forecast_len)` semantics
    /// can be pinned explicitly.
    struct ForecastProbe {
        forecasts: Vec<Vec<Watts>>,
        state: crate::controller::SystemState,
    }

    impl ForecastProbe {
        fn new() -> Self {
            Self {
                forecasts: Vec::new(),
                state: crate::controller::SystemState {
                    battery_temp: otem_units::Kelvin::from_celsius(25.0),
                    coolant_temp: otem_units::Kelvin::from_celsius(25.0),
                    soe: otem_units::Ratio::HALF,
                    soc: otem_units::Ratio::ONE,
                },
            }
        }
    }

    impl crate::controller::Controller for ForecastProbe {
        fn name(&self) -> &'static str {
            "ForecastProbe"
        }

        fn step(
            &mut self,
            load: Watts,
            forecast: &[Watts],
            _dt: Seconds,
        ) -> crate::controller::StepRecord {
            self.forecasts.push(forecast.to_vec());
            crate::controller::StepRecord {
                load,
                hees: otem_hees::HeesStep::default(),
                cooling_power: Watts::ZERO,
                state: self.state,
            }
        }

        fn state(&self) -> crate::controller::SystemState {
            self.state
        }
    }

    /// Pins the forecast-window contract at the end of the route: the
    /// controller at step `t` sees `trace.window(t + 1, forecast_len)`,
    /// which is always exactly `forecast_len` long and **zero-padded**
    /// (not shrunk) past the last sample — so the final step's window
    /// contains no real samples at all.
    #[test]
    fn forecast_window_is_zero_padded_at_the_end_of_the_trace() {
        let config = SystemConfig::default();
        let samples: Vec<Watts> = (1..=6).map(|k| Watts::new(1_000.0 * k as f64)).collect();
        let trace = PowerTrace::new(Seconds::new(1.0), samples.clone());
        let mut sim = Simulator::new(&config);
        sim.forecast_len = 4;
        let mut probe = ForecastProbe::new();
        sim.run(&mut probe, &trace);

        assert_eq!(probe.forecasts.len(), 6);
        // Every window has exactly forecast_len entries, shrinking never.
        for (t, forecast) in probe.forecasts.iter().enumerate() {
            assert_eq!(forecast.len(), 4, "window length at step {t}");
        }
        // Step 0 sees samples 1..=4 (forecast[0] is the *next* load).
        assert_eq!(probe.forecasts[0], samples[1..5].to_vec());
        // Step 3 straddles the end: two real samples, then zeros.
        assert_eq!(
            probe.forecasts[3],
            vec![samples[4], samples[5], Watts::ZERO, Watts::ZERO]
        );
        // Step 4 sees the last sample then zeros; step 5 (the final
        // step) sees a window of pure padding.
        assert_eq!(
            probe.forecasts[4],
            vec![samples[5], Watts::ZERO, Watts::ZERO, Watts::ZERO]
        );
        assert_eq!(probe.forecasts[5], vec![Watts::ZERO; 4]);
    }

    /// A forecast window longer than the whole route is all padding
    /// beyond the real samples from step 1 on.
    #[test]
    fn forecast_window_longer_than_route_is_mostly_padding() {
        let config = SystemConfig::default();
        let trace = PowerTrace::new(
            Seconds::new(1.0),
            vec![Watts::new(500.0), Watts::new(700.0)],
        );
        let mut sim = Simulator::new(&config);
        sim.forecast_len = 5;
        let mut probe = ForecastProbe::new();
        sim.run(&mut probe, &trace);
        assert_eq!(
            probe.forecasts[0],
            vec![
                Watts::new(700.0),
                Watts::ZERO,
                Watts::ZERO,
                Watts::ZERO,
                Watts::ZERO
            ]
        );
        assert_eq!(probe.forecasts[1], vec![Watts::ZERO; 5]);
    }

    /// The borrowed forecast equals `trace.window(t + 1, n)` element for
    /// element, bit for bit, at every step: mid-trace, straddling the
    /// end, fully past it, on a trace shorter than the window, and on an
    /// empty trace (no step, no forecast).
    #[test]
    fn forecast_is_bit_identical_to_the_trace_window() {
        let config = SystemConfig::default();
        let bits = |w: &[Watts]| w.iter().map(|x| x.value().to_bits()).collect::<Vec<_>>();
        for len in [0usize, 3, 20] {
            let samples = (0..len)
                .map(|k| Watts::new(-7_000.0 + 1_234.5 * k as f64))
                .collect();
            let trace = PowerTrace::new(Seconds::new(1.0), samples);
            let mut sim = Simulator::new(&config);
            sim.forecast_len = 5;
            let mut probe = ForecastProbe::new();
            sim.run(&mut probe, &trace);
            assert_eq!(probe.forecasts.len(), len, "one forecast per step");
            for (t, forecast) in probe.forecasts.iter().enumerate() {
                assert_eq!(
                    bits(forecast),
                    bits(&trace.window(t + 1, 5)),
                    "step {t} of a {len}-sample trace"
                );
            }
        }
    }

    #[test]
    fn run_each_streams_the_records_run_collects() {
        let config = SystemConfig::default();
        let trace = PowerTrace::new(Seconds::new(1.0), vec![Watts::new(12_000.0); 15]);

        let mut retained = Parallel::new(&config).expect("valid");
        let result = Simulator::new(&config).run(&mut retained, &trace);

        let mut streamed = Parallel::new(&config).expect("valid");
        let mut seen = Vec::new();
        let totals = Simulator::new(&config).run_each(&mut streamed, &trace, &NullSink, |t, r| {
            assert_eq!(t, seen.len(), "records arrive in step order");
            seen.push(*r);
        });

        assert_eq!(seen, result.records, "streamed records are bit-identical");
        assert_eq!(totals.steps, result.records.len());
        assert_eq!(
            totals.capacity_loss.to_bits(),
            result.capacity_loss.to_bits()
        );
    }

    #[test]
    fn run_with_emits_one_step_completed_per_sample() {
        use otem_telemetry::MemorySink;
        let config = SystemConfig::default();
        let mut controller = Parallel::new(&config).expect("valid");
        let trace = PowerTrace::new(Seconds::new(1.0), vec![Watts::new(10_000.0); 7]);
        let sink = MemorySink::new();
        let result = Simulator::new(&config).run_with(&mut controller, &trace, &sink);
        assert_eq!(result.records.len(), 7);
        assert_eq!(sink.count_kind("step_completed"), 7);
        // The event mirrors the record it was derived from.
        let first = sink
            .events()
            .into_iter()
            .find(|e| matches!(e, Event::StepCompleted { .. }))
            .expect("a step_completed event");
        if let Event::StepCompleted { step, load_w, .. } = first {
            assert_eq!(step, 0);
            assert_eq!(load_w, 10_000.0);
        }
        // Each step is wrapped in a sim_step span, balanced.
        assert_eq!(
            sink.count_kind("span_start"),
            7 + 7,
            "sim_step + parallel_step"
        );
        assert_eq!(sink.count_kind("span_end"), 14);
    }
}
