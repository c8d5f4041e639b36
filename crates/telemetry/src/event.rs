//! The typed event taxonomy emitted by the instrumented stack.

use std::fmt::Write as _;

/// One telemetry event.
///
/// Every variant is `Copy` and carries only plain numbers, so
/// constructing and recording an event never touches the allocator —
/// the precondition for instrumenting the MPC hot path.
///
/// Temperatures are in kelvin, powers in watts, and state-of-charge /
/// state-of-energy as fractions in `[0, 1]`, matching the unit
/// conventions of the component crates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// One outer iteration of the solver ([`ProjectedGradient`]):
    /// current objective value, convergence residual (projected-gradient
    /// infinity norm) and the step length about to be tried.
    ///
    /// [`ProjectedGradient`]: https://docs.rs/otem-solver
    SolverIteration {
        /// Zero-based outer-iteration index within one solve.
        iteration: u64,
        /// Objective value at the current iterate.
        value: f64,
        /// Convergence residual (infinity norm the solver converges on).
        residual: f64,
        /// Step length entering this iteration's line search.
        step: f64,
    },
    /// One full gradient evaluation (the MPC's dominant cost: for an
    /// `n`-block horizon, central finite differences make `4·n + 1`
    /// rollout calls — a checkpoint pass plus `4·n` suffixes resumed at
    /// the perturbed stage, `2n(n + 1) + n` stage evaluations in all —
    /// and the adjoint one taped rollout).
    GradientEval {
        /// Problem dimension (gradient coordinates evaluated).
        dim: u64,
    },
    /// One MPC solve finished: how it ended and how many outer
    /// iterations it spent. The per-solve roll-up behind the anytime
    /// contract — outcome distributions (`converged` /
    /// `budget_exhausted` / `deadline_reached` / …) aggregate straight
    /// off the event stream.
    SolveOutcome {
        /// Stable snake_case outcome name (`SolverOutcome::name()`).
        outcome: &'static str,
        /// Stable snake_case gradient-mode name (`otem::mpc::
        /// GradientMode::name()`: `serial` / `adjoint`) — the `mode`
        /// label of the `otem_solve_outcome_total` metric family.
        mode: &'static str,
        /// Outer iterations actually performed.
        iterations: u64,
    },
    /// A rollout workspace was served from the pool (steady state: no
    /// plant clone, no allocation).
    PoolHit,
    /// The pool was empty and a workspace was built by cloning the
    /// plant (cold start or a new concurrent worker).
    PoolMiss,
    /// The cooling loop switched on or off.
    CoolingToggle {
        /// `true` when the loop switched on.
        on: bool,
        /// Battery temperature at the toggle (K).
        battery_temp_k: f64,
    },
    /// The ultracapacitor path hit a limit: the commanded bus power
    /// reached the C7 bound, or the bank could not serve the request.
    UcapSaturated {
        /// Commanded (or requested) ultracapacitor bus power (W).
        commanded_w: f64,
        /// The applicable limit (W).
        limit_w: f64,
    },
    /// A decision variable ended on (or beyond) its box bound and was
    /// pinned there when the move was extracted — active-constraint
    /// telemetry for the MPC.
    BoundClamp {
        /// Index of the decision variable in the solver's layout.
        index: u64,
        /// Raw value before pinning.
        raw: f64,
        /// The bound it was pinned to.
        bound: f64,
    },
    /// A scheduled fault from a fault plan is active this step (one
    /// event per active fault per step, so campaigns are fully
    /// reconstructible from the event stream).
    FaultInjected {
        /// Zero-based step index along the route.
        step: u64,
        /// Stable snake_case fault name (e.g. `"forecast_nan"`,
        /// `"pump_stuck"`).
        fault: &'static str,
    },
    /// The supervisor rejected a controller decision (or the post-step
    /// state it produced) as unusable.
    DecisionRejected {
        /// Zero-based step index along the route.
        step: u64,
        /// Stable snake_case rejection predicate that fired (e.g.
        /// `"non_finite_cost"`, `"soc_out_of_range"`).
        reason: &'static str,
    },
    /// The supervisor disarmed the MPC and switched the plant to the
    /// rule-based fallback policy.
    FallbackEngaged {
        /// Zero-based step index along the route.
        step: u64,
        /// Consecutive healthy steps required before the MPC is
        /// re-armed (grows with exponential backoff on repeated
        /// failures).
        backoff_steps: u64,
    },
    /// The supervisor re-armed the MPC after enough consecutive healthy
    /// fallback steps.
    MpcRearmed {
        /// Zero-based step index along the route.
        step: u64,
        /// Healthy fallback steps observed before re-arming.
        healthy_steps: u64,
    },
    /// A hierarchical timed span opened (see the crate's span API:
    /// [`span`](crate::span) / [`SpanGuard`](crate::SpanGuard)).
    ///
    /// Timestamps are nanoseconds on the process-wide monotonic epoch;
    /// `lane` identifies the OS thread (one Chrome-trace timeline row
    /// per lane) and `parent` is the id of the enclosing span on the
    /// same lane, or `0` for a root span.
    SpanStart {
        /// Process-unique span id (never `0`).
        id: u64,
        /// Id of the enclosing span on this lane (`0` = root).
        parent: u64,
        /// Stable snake_case span name (e.g. `"mpc_solve"`).
        name: &'static str,
        /// Lane (thread) the span opened on.
        lane: u64,
        /// Open time, nanoseconds since the monotonic epoch.
        t_ns: u64,
    },
    /// The matching close of a [`Event::SpanStart`]. Per lane, ends are
    /// emitted innermost-first, so the Start/End stream is always
    /// balanced and properly nested.
    SpanEnd {
        /// Id of the span that closed.
        id: u64,
        /// The span's name (repeated so consumers need not join on id).
        name: &'static str,
        /// Lane (thread) the span closed on — same as its open lane.
        lane: u64,
        /// Close time, nanoseconds since the monotonic epoch.
        t_ns: u64,
        /// `t_ns - start.t_ns` (saturating).
        dur_ns: u64,
    },
    /// The serving layer refused a request because its bounded worker
    /// queue was full (load shedding): the client was answered `503`
    /// immediately instead of queueing unboundedly.
    RequestShed {
        /// Jobs sitting in the bounded queue when the request arrived.
        queued: u64,
        /// The back-off hint sent to the client.
        retry_after_ms: u64,
    },
    /// A connection exceeded a socket read/write deadline (slow-loris,
    /// trickle body, or a client that stopped reading) and was cut off.
    RequestTimeout {
        /// Wall-clock milliseconds the request had been in flight when
        /// the deadline fired.
        after_ms: f64,
    },
    /// A panic was caught and contained instead of killing the process:
    /// either a request handler (the connection died, the server lives)
    /// or one vehicle inside a fleet campaign (the campaign completes
    /// with a structured error record for that vehicle).
    PanicCaught {
        /// Containment layer: `"request"` or `"vehicle"`.
        context: &'static str,
    },
    /// Graceful drain began: the server stopped accepting connections
    /// and is letting in-flight requests finish up to the drain
    /// deadline.
    DrainStarted {
        /// Requests being handled by workers when the drain started.
        in_flight: u64,
        /// Accepted-but-unstarted jobs still queued.
        queued: u64,
    },
    /// The serving layer dispatched a request to a worker: the moment
    /// a correlation id is minted. Every subsequent event recorded on
    /// behalf of this request joins back to it through the flight
    /// recorder's `request_id` stamp.
    RequestStarted {
        /// The id minted for this request (never `0`).
        request_id: u64,
        /// The route being served (e.g. `"/simulate"`).
        route: &'static str,
    },
    /// The fleet engine started one vehicle of a campaign on a worker
    /// thread, inside the request's correlation scope.
    VehicleStarted {
        /// The originating request id (`0` for in-process runs).
        request_id: u64,
        /// The vehicle's id within the campaign.
        vehicle: u64,
    },
    /// One closed-loop simulation step completed (the per-step signal
    /// set behind the paper's Figs. 1, 6–9).
    StepCompleted {
        /// Zero-based step index along the route.
        step: u64,
        /// Requested load (W).
        load_w: f64,
        /// Power actually delivered to the bus (W).
        delivered_w: f64,
        /// Unserved load (W).
        shortfall_w: f64,
        /// Electric power drawn by the cooling system (W).
        cooling_w: f64,
        /// Battery temperature after the step (K).
        battery_temp_k: f64,
        /// Battery state of charge after the step.
        soc: f64,
        /// Ultracapacitor state of energy after the step.
        soe: f64,
    },
}

impl Event {
    /// Stable snake_case discriminant name (the `"event"` field of the
    /// JSONL encoding).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::SolverIteration { .. } => "solver_iteration",
            Event::GradientEval { .. } => "gradient_eval",
            Event::SolveOutcome { .. } => "solve_outcome",
            Event::PoolHit => "pool_hit",
            Event::PoolMiss => "pool_miss",
            Event::CoolingToggle { .. } => "cooling_toggle",
            Event::UcapSaturated { .. } => "ucap_saturated",
            Event::BoundClamp { .. } => "bound_clamp",
            Event::FaultInjected { .. } => "fault_injected",
            Event::DecisionRejected { .. } => "decision_rejected",
            Event::FallbackEngaged { .. } => "fallback_engaged",
            Event::MpcRearmed { .. } => "mpc_rearmed",
            Event::RequestShed { .. } => "request_shed",
            Event::RequestTimeout { .. } => "request_timeout",
            Event::PanicCaught { .. } => "panic_caught",
            Event::DrainStarted { .. } => "drain_started",
            Event::RequestStarted { .. } => "request_started",
            Event::VehicleStarted { .. } => "vehicle_started",
            Event::SpanStart { .. } => "span_start",
            Event::SpanEnd { .. } => "span_end",
            Event::StepCompleted { .. } => "step_completed",
        }
    }

    /// Appends the event as one JSON object (no trailing newline) to
    /// `out`. Non-finite floats encode as `null` so every line stays
    /// valid JSON.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"event\":\"{}\"", self.kind());
        match *self {
            Event::SolverIteration {
                iteration,
                value,
                residual,
                step,
            } => {
                let _ = write!(out, ",\"iteration\":{iteration}");
                field(out, "value", value);
                field(out, "residual", residual);
                field(out, "step", step);
            }
            Event::GradientEval { dim } => {
                let _ = write!(out, ",\"dim\":{dim}");
            }
            Event::SolveOutcome {
                outcome,
                mode,
                iterations,
            } => {
                str_field(out, "outcome", outcome);
                str_field(out, "mode", mode);
                let _ = write!(out, ",\"iterations\":{iterations}");
            }
            Event::PoolHit | Event::PoolMiss => {}
            Event::CoolingToggle { on, battery_temp_k } => {
                let _ = write!(out, ",\"on\":{on}");
                field(out, "battery_temp_k", battery_temp_k);
            }
            Event::UcapSaturated {
                commanded_w,
                limit_w,
            } => {
                field(out, "commanded_w", commanded_w);
                field(out, "limit_w", limit_w);
            }
            Event::BoundClamp { index, raw, bound } => {
                let _ = write!(out, ",\"index\":{index}");
                field(out, "raw", raw);
                field(out, "bound", bound);
            }
            Event::FaultInjected { step, fault } => {
                let _ = write!(out, ",\"step\":{step}");
                str_field(out, "fault", fault);
            }
            Event::DecisionRejected { step, reason } => {
                let _ = write!(out, ",\"step\":{step}");
                str_field(out, "reason", reason);
            }
            Event::FallbackEngaged {
                step,
                backoff_steps,
            } => {
                let _ = write!(out, ",\"step\":{step},\"backoff_steps\":{backoff_steps}");
            }
            Event::MpcRearmed {
                step,
                healthy_steps,
            } => {
                let _ = write!(out, ",\"step\":{step},\"healthy_steps\":{healthy_steps}");
            }
            Event::RequestShed {
                queued,
                retry_after_ms,
            } => {
                let _ = write!(
                    out,
                    ",\"queued\":{queued},\"retry_after_ms\":{retry_after_ms}"
                );
            }
            Event::RequestTimeout { after_ms } => {
                field(out, "after_ms", after_ms);
            }
            Event::PanicCaught { context } => {
                str_field(out, "context", context);
            }
            Event::DrainStarted { in_flight, queued } => {
                let _ = write!(out, ",\"in_flight\":{in_flight},\"queued\":{queued}");
            }
            Event::RequestStarted { request_id, route } => {
                let _ = write!(out, ",\"request_id\":{request_id}");
                str_field(out, "route", route);
            }
            Event::VehicleStarted {
                request_id,
                vehicle,
            } => {
                let _ = write!(out, ",\"request_id\":{request_id},\"vehicle\":{vehicle}");
            }
            Event::SpanStart {
                id,
                parent,
                name,
                lane,
                t_ns,
            } => {
                let _ = write!(out, ",\"id\":{id},\"parent\":{parent}");
                str_field(out, "name", name);
                let _ = write!(out, ",\"lane\":{lane},\"t_ns\":{t_ns}");
            }
            Event::SpanEnd {
                id,
                name,
                lane,
                t_ns,
                dur_ns,
            } => {
                let _ = write!(out, ",\"id\":{id}");
                str_field(out, "name", name);
                let _ = write!(out, ",\"lane\":{lane},\"t_ns\":{t_ns},\"dur_ns\":{dur_ns}");
            }
            Event::StepCompleted {
                step,
                load_w,
                delivered_w,
                shortfall_w,
                cooling_w,
                battery_temp_k,
                soc,
                soe,
            } => {
                let _ = write!(out, ",\"step\":{step}");
                field(out, "load_w", load_w);
                field(out, "delivered_w", delivered_w);
                field(out, "shortfall_w", shortfall_w);
                field(out, "cooling_w", cooling_w);
                field(out, "battery_temp_k", battery_temp_k);
                field(out, "soc", soc);
                field(out, "soe", soe);
            }
        }
        out.push('}');
    }

    /// The event as one JSON line (convenience over
    /// [`Event::write_json`]).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_json(&mut s);
        s
    }
}

/// Writes `,"name":value` with non-finite values encoded as `null`.
fn field(out: &mut String, name: &str, value: f64) {
    if value.is_finite() {
        let _ = write!(out, ",\"{name}\":{value}");
    } else {
        let _ = write!(out, ",\"{name}\":null");
    }
}

/// Writes `,"name":"value"` with the value escaped per the JSON spec.
fn str_field(out: &mut String, name: &str, value: &str) {
    let _ = write!(out, ",\"{name}\":");
    write_json_string(out, value);
}

/// Appends `s` as a JSON string literal (quotes included): `"` and `\`
/// are backslash-escaped and control characters use `\n`/`\r`/`\t` or
/// `\u00XX`, so the output is valid JSON for *any* input string —
/// including panic messages and client-supplied text embedded in
/// serving-layer error records.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable() {
        assert_eq!(Event::PoolHit.kind(), "pool_hit");
        assert_eq!(Event::PoolMiss.kind(), "pool_miss");
        assert_eq!(
            Event::StepCompleted {
                step: 0,
                load_w: 0.0,
                delivered_w: 0.0,
                shortfall_w: 0.0,
                cooling_w: 0.0,
                battery_temp_k: 0.0,
                soc: 0.0,
                soe: 0.0,
            }
            .kind(),
            "step_completed"
        );
    }

    #[test]
    fn json_encoding_is_one_object_per_event() {
        let e = Event::SolverIteration {
            iteration: 3,
            value: 12.5,
            residual: 1e-3,
            step: 0.5,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"solver_iteration\",\"iteration\":3,\"value\":12.5,\
             \"residual\":0.001,\"step\":0.5}"
        );
        assert_eq!(Event::PoolHit.to_json(), "{\"event\":\"pool_hit\"}");
    }

    #[test]
    fn solve_outcome_encodes_name_mode_and_iterations() {
        let e = Event::SolveOutcome {
            outcome: "deadline_reached",
            mode: "adjoint",
            iterations: 7,
        };
        assert_eq!(e.kind(), "solve_outcome");
        assert_eq!(
            e.to_json(),
            "{\"event\":\"solve_outcome\",\"outcome\":\"deadline_reached\",\
             \"mode\":\"adjoint\",\"iterations\":7}"
        );
    }

    #[test]
    fn correlation_events_encode_request_ids() {
        let e = Event::RequestStarted {
            request_id: 12,
            route: "/simulate",
        };
        assert_eq!(e.kind(), "request_started");
        assert_eq!(
            e.to_json(),
            "{\"event\":\"request_started\",\"request_id\":12,\"route\":\"/simulate\"}"
        );
        let e = Event::VehicleStarted {
            request_id: 12,
            vehicle: 4,
        };
        assert_eq!(e.kind(), "vehicle_started");
        assert_eq!(
            e.to_json(),
            "{\"event\":\"vehicle_started\",\"request_id\":12,\"vehicle\":4}"
        );
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        let e = Event::GradientEval { dim: 4 };
        assert_eq!(e.to_json(), "{\"event\":\"gradient_eval\",\"dim\":4}");
        let bad = Event::CoolingToggle {
            on: true,
            battery_temp_k: f64::NAN,
        };
        assert_eq!(
            bad.to_json(),
            "{\"event\":\"cooling_toggle\",\"on\":true,\"battery_temp_k\":null}"
        );
    }

    #[test]
    fn degradation_events_encode_kind_and_fields() {
        assert_eq!(
            Event::FaultInjected {
                step: 42,
                fault: "forecast_nan",
            }
            .to_json(),
            "{\"event\":\"fault_injected\",\"step\":42,\"fault\":\"forecast_nan\"}"
        );
        assert_eq!(
            Event::DecisionRejected {
                step: 43,
                reason: "non_finite_cost",
            }
            .to_json(),
            "{\"event\":\"decision_rejected\",\"step\":43,\"reason\":\"non_finite_cost\"}"
        );
        assert_eq!(
            Event::FallbackEngaged {
                step: 43,
                backoff_steps: 5,
            }
            .to_json(),
            "{\"event\":\"fallback_engaged\",\"step\":43,\"backoff_steps\":5}"
        );
        assert_eq!(
            Event::MpcRearmed {
                step: 48,
                healthy_steps: 5,
            }
            .to_json(),
            "{\"event\":\"mpc_rearmed\",\"step\":48,\"healthy_steps\":5}"
        );
        assert_eq!(
            Event::FaultInjected {
                step: 0,
                fault: "pump_stuck",
            }
            .kind(),
            "fault_injected"
        );
        assert_eq!(
            Event::DecisionRejected {
                step: 0,
                reason: "x",
            }
            .kind(),
            "decision_rejected"
        );
        assert_eq!(
            Event::FallbackEngaged {
                step: 0,
                backoff_steps: 0,
            }
            .kind(),
            "fallback_engaged"
        );
        assert_eq!(
            Event::MpcRearmed {
                step: 0,
                healthy_steps: 0,
            }
            .kind(),
            "mpc_rearmed"
        );
    }

    #[test]
    fn serving_layer_events_encode_kind_and_fields() {
        assert_eq!(
            Event::RequestShed {
                queued: 64,
                retry_after_ms: 100,
            }
            .to_json(),
            "{\"event\":\"request_shed\",\"queued\":64,\"retry_after_ms\":100}"
        );
        assert_eq!(
            Event::RequestTimeout { after_ms: 250.5 }.to_json(),
            "{\"event\":\"request_timeout\",\"after_ms\":250.5}"
        );
        assert_eq!(
            Event::PanicCaught { context: "vehicle" }.to_json(),
            "{\"event\":\"panic_caught\",\"context\":\"vehicle\"}"
        );
        assert_eq!(
            Event::DrainStarted {
                in_flight: 3,
                queued: 2,
            }
            .to_json(),
            "{\"event\":\"drain_started\",\"in_flight\":3,\"queued\":2}"
        );
        assert_eq!(
            Event::RequestShed {
                queued: 0,
                retry_after_ms: 0
            }
            .kind(),
            "request_shed"
        );
        assert_eq!(
            Event::RequestTimeout { after_ms: 0.0 }.kind(),
            "request_timeout"
        );
        assert_eq!(
            Event::PanicCaught { context: "request" }.kind(),
            "panic_caught"
        );
        assert_eq!(
            Event::DrainStarted {
                in_flight: 0,
                queued: 0
            }
            .kind(),
            "drain_started"
        );
    }

    #[test]
    fn span_events_encode_all_fields() {
        let start = Event::SpanStart {
            id: 7,
            parent: 3,
            name: "mpc_solve",
            lane: 2,
            t_ns: 1_500,
        };
        assert_eq!(start.kind(), "span_start");
        assert_eq!(
            start.to_json(),
            "{\"event\":\"span_start\",\"id\":7,\"parent\":3,\
             \"name\":\"mpc_solve\",\"lane\":2,\"t_ns\":1500}"
        );
        let end = Event::SpanEnd {
            id: 7,
            name: "mpc_solve",
            lane: 2,
            t_ns: 2_500,
            dur_ns: 1_000,
        };
        assert_eq!(end.kind(), "span_end");
        assert_eq!(
            end.to_json(),
            "{\"event\":\"span_end\",\"id\":7,\"name\":\"mpc_solve\",\
             \"lane\":2,\"t_ns\":2500,\"dur_ns\":1000}"
        );
    }

    #[test]
    fn string_fields_are_escaped_per_json_spec() {
        let e = Event::DecisionRejected {
            step: 1,
            reason: "quote \" back \\ slash",
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"decision_rejected\",\"step\":1,\
             \"reason\":\"quote \\\" back \\\\ slash\"}"
        );
        let e = Event::FaultInjected {
            step: 2,
            fault: "tab\there\nnewline\u{1}ctl",
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"fault_injected\",\"step\":2,\
             \"fault\":\"tab\\there\\nnewline\\u0001ctl\"}"
        );
    }

    #[test]
    fn json_string_escaper_covers_every_control_char() {
        for byte in 0u32..0x20 {
            let c = char::from_u32(byte).unwrap();
            let mut out = String::new();
            write_json_string(&mut out, &c.to_string());
            assert!(
                out.starts_with('"') && out.ends_with('"') && out.contains('\\'),
                "control char {byte:#x} must be escaped, got {out:?}"
            );
        }
    }

    #[test]
    fn step_completed_encodes_every_column() {
        let e = Event::StepCompleted {
            step: 7,
            load_w: 20_000.0,
            delivered_w: 19_950.0,
            shortfall_w: 50.0,
            cooling_w: 120.0,
            battery_temp_k: 305.15,
            soc: 0.93,
            soe: 0.41,
        };
        let json = e.to_json();
        for key in [
            "\"step\":7",
            "\"load_w\":20000",
            "\"delivered_w\":19950",
            "\"shortfall_w\":50",
            "\"cooling_w\":120",
            "\"battery_temp_k\":305.15",
            "\"soc\":0.93",
            "\"soe\":0.41",
        ] {
            assert!(json.contains(key), "{json} missing {key}");
        }
    }
}
