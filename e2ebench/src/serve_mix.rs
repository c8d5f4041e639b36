//! `serve_mix`: an in-process `FleetServer` under an open-loop rate
//! ladder of mixed `/simulate` traffic with a `/metrics` scrape every
//! second.

use crate::fleet::{self, metric};
use crate::layers;
use crate::serve::{self, Done, Event, Kind, LADDER, MIDDLE_RUNG};
use crate::stats::{mean, median, percentile, Rng};
use crate::Report;
use otem_fleet::protocol::SimulateRequest;
use otem_fleet::{client, Campaign, FleetEngine, Schedule, ServerHandle, VehicleSpec};
use std::time::Instant;

/// Setups per run (the median is reported).
const SETUPS: usize = 5;
/// Percentile of middle-rung request latency reported as
/// `latency_tail_ms`. The OTEM requests are the slowest 22 %, so p90 is
/// about their median, where their latencies lie densest. Fixed rather
/// than taken from the tail rule, which would move to p95 once a run holds
/// 200 requests.
const TAIL_PERCENTILE: f64 = 90.0;
/// Responses rerun in process after the timed phase.
const RERUNS: [(Kind, usize); 3] = [(Kind::Reactive, 6), (Kind::Otem, 4), (Kind::Fleet, 2)];

/// The ladder scaled to a run of `seconds`.
fn rungs(seconds: f64) -> Vec<(f64, f64)> {
    LADDER
        .iter()
        .map(|&(rate, share)| (rate, share * seconds))
        .collect()
}

/// Warm-up bodies: one request of each kind, the same for every seed.
const WARM: [&str; 3] = [
    "{\"cycle\":\"udds\",\"methodology\":\"dual\",\"steps\":300}",
    "{\"cycle\":\"us06\",\"methodology\":\"otem\",\"steps\":120}",
    "{\"vehicles\":8,\"seed\":42}",
];

/// Spawns the server and warms it with one request of each kind, `SETUPS`
/// times; keeps the last server.
fn setup() -> (ServerHandle, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let server = serve::spawn();
        for body in WARM {
            let _ = client::request(server.addr(), "POST", "/simulate", body);
        }
        times.push(t.elapsed().as_secs_f64());
        if let Some(mut old) = kept.replace(server) {
            old.shutdown();
        }
    }
    (kept.expect("one setup"), times)
}

fn check(events: &[Event], done: &[Done], report: &mut Report) {
    report.attempted += events.len() as u64;
    if done.len() != events.len() {
        report.fail(format!(
            "{} of {} requests completed",
            done.len(),
            events.len()
        ));
    }
    for d in done {
        let e = &events[d.index];
        if !serve::reply_ok(e.kind, &d.reply) {
            report.fail(format!(
                "request {} ({:?}) got status {}",
                d.index, e.kind, d.reply.status
            ));
        }
    }
}

/// Reruns a seeded sample of the replies in process and compares the
/// vehicle summary lines.
fn rerun_sample(seed: u64, events: &[Event], done: &[Done], report: &mut Report) {
    let mut rng = Rng::new(seed, 9);
    for (kind, n) in RERUNS {
        let mut of_kind: Vec<&Done> = done
            .iter()
            .filter(|d| events[d.index].kind == kind)
            .collect();
        rng.shuffle(&mut of_kind);
        for d in of_kind.into_iter().take(n) {
            report.attempted += 1;
            let (lines, _, _) = serve::rerun(&events[d.index].body);
            if !serve::matches_rerun(&d.reply, &lines) {
                report.fail(format!(
                    "request {} differs from its in-process rerun",
                    d.index
                ));
            }
        }
    }
}

/// Untraced run: the whole ladder through `otem_fleet::client::request`.
pub fn run(seed: u64, seconds: f64, senders: usize) -> Report {
    let (mut server, setups) = setup();
    let rungs = rungs(seconds);
    let events = serve::schedule(seed, &rungs);
    let (done, wall) = serve::play(server.addr(), &events, senders, false);
    server.shutdown();
    let mut report = Report::default();
    check(&events, &done, &mut report);
    rerun_sample(seed, &events, &done, &mut report);

    let rates: Vec<f64> = rungs.iter().map(|r| r.0).collect();
    let verdicts = serve::judge(&events, &done, &rates);
    let best = verdicts.iter().rposition(|r| r.ok);
    let (mut vehicles, mut steps) = (0u64, 0u64);
    for d in &done {
        for s in serve::summaries(&d.reply) {
            vehicles += 1;
            steps += s.steps as u64;
        }
    }
    let middle_of = |keep: &dyn Fn(Kind) -> bool| -> Vec<f64> {
        done.iter()
            .filter(|d| events[d.index].rung == MIDDLE_RUNG && keep(events[d.index].kind))
            .map(|d| d.latency_ms)
            .collect()
    };
    let middle = middle_of(&|k| k != Kind::Scrape);
    let reactive = middle_of(&|k| k == Kind::Reactive);
    for (i, v) in verdicts.iter().enumerate() {
        report.stamp(
            &format!("rung{i}"),
            format!(
                "{} req/s p95 {:.1} ms late_tail {:.1} ms ok {}",
                v.rate, v.p95_ms, v.late_tail_ms, v.ok
            ),
        );
    }
    report.stamp("slo_rps", best.map_or(0.0, |i| rates[i]).to_string());
    report.stamp("latency_tail_percentile", TAIL_PERCENTILE.to_string());
    report.stamp("latency_samples", middle.len().to_string());
    let q = serve::otem_quality(&events, &done, layers::dt_s());
    report.e2e(
        median(&setups),
        steps as f64 / wall,
        vehicles as f64 / wall,
        median(&reactive),
        percentile(&middle, TAIL_PERCENTILE),
        &q,
    );
    report
}

/// The vehicle specs of the schedule's first `n` requests of `kind`.
fn specs_of(events: &[Event], kind: Kind, n: usize) -> Vec<VehicleSpec> {
    events
        .iter()
        .filter(|e| e.kind == kind)
        .filter_map(|e| match SimulateRequest::parse(&e.body) {
            Ok(SimulateRequest::Vehicle { spec, .. }) => Some(spec),
            _ => None,
        })
        .take(n)
        .collect()
}

/// Traced run: the middle rung played once through the plain client and
/// once with phases split (server, telemetry and generator metrics),
/// then the layer probes on the rung's own vehicles.
pub fn trace(seed: u64, seconds: f64, senders: usize) -> Report {
    let (mut server, _) = setup();
    let (rate, share) = LADDER[MIDDLE_RUNG];
    let events = serve::schedule(seed, &[(rate, share * seconds)]);
    let (plain, _) = serve::play(server.addr(), &events, senders, false);
    let (phased, _) = serve::play(server.addr(), &events, senders, true);
    server.shutdown();
    let mut report = Report::default();
    check(&events, &plain, &mut report);
    check(&events, &phased, &mut report);
    rerun_sample(seed, &events, &phased, &mut report);

    let mut m = serve::server_metrics(&events, &phased);
    let requests = |d: &&Done| events[d.index].kind != Kind::Scrape;
    let covered: f64 = phased
        .iter()
        .filter(requests)
        .map(|d| d.reply.connect_us / 1e3 + d.reply.ttfb_ms + d.reply.transfer_ms)
        .sum();
    let service = |v: &[Done]| {
        v.iter()
            .filter(requests)
            .map(|d| d.service_ms)
            .collect::<Vec<_>>()
    };
    m.push((
        "trace.explained_ratio",
        covered / service(&phased).iter().sum::<f64>(),
    ));
    m.push((
        "trace.overhead_ratio",
        mean(&service(&phased)) / mean(&service(&plain)),
    ));

    // The rung's own vehicles, run in process for the layers below the
    // server.
    let mut specs = specs_of(&events, Kind::Reactive, 18);
    specs.extend(specs_of(&events, Kind::Otem, 6));
    let sample = fleet::traced_sample(&specs, &mut report);
    m.extend(fleet::sample_metrics(&sample));
    m.extend(fleet::otem_metrics(&sample.ledger, &sample.decisions));
    let replay = layers::mpc_replay(&sample.recorded);
    let config = specs[0].config();
    let loads = otem_fleet::TraceCache::new()
        .trace_for(&specs[0])
        .expect("trace");
    let k = layers::kernels(&config, loads.samples());
    let campaign = Campaign {
        seed,
        vehicles: specs.clone(),
    };
    let steps = campaign.total_steps();
    let rollouts = fleet::rollout_steps(&campaign, metric(&replay, "mpc.rollouts_per_solve"));
    m.extend(layers::kernel_metrics(
        k,
        steps,
        rollouts,
        sample.untraced_s,
    ));
    m.extend(replay);
    m.push(("drivecycle.trace_ms", layers::drivecycle_trace_ms()));
    m.extend(layers::engine_probe(&specs));
    let report_run = FleetEngine::new(Schedule::WorkStealing { shards: senders }).run(&campaign);
    m.extend(layers::occupancy(&report_run, senders));
    report.layers = m;
    report
}
