//! The serving workload and the server probe: an in-process
//! `FleetServer` on loopback, driven open loop from a seeded schedule by
//! at most `nproc` sender threads, each holding one connection at a time.

use crate::layers::Metrics;
use crate::stats::{median, percentile, Rng};
use crate::vehicle::Quality;
use otem_drivecycle::StandardCycle;
use otem_fleet::protocol::SimulateRequest;
use otem_fleet::protocol::{cycle_wire_name, json_f64, json_str, json_u64, summary_line};
use otem_fleet::{
    client, Campaign, FleetEngine, FleetServer, Methodology, Schedule, ServerConfig, ServerHandle,
    VehicleSpec, VehicleSummary,
};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What a scheduled event sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Single-vehicle reactive `/simulate`.
    Reactive,
    /// Single-vehicle OTEM `/simulate` at server defaults.
    Otem,
    /// 8-vehicle fleet `/simulate`.
    Fleet,
    /// `GET /metrics`.
    Scrape,
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Offset from the schedule start at which it is due.
    pub due: Duration,
    /// What it is.
    pub kind: Kind,
    /// `POST /simulate` body (empty for scrapes).
    pub body: String,
    /// Ladder rung it belongs to.
    pub rung: usize,
}

/// Vehicles in a fleet request.
pub const FLEET_VEHICLES: u64 = 8;

/// Request mix: OTEM and fleet shares of all requests (the rest are
/// reactive); see [`spread_kinds`].
const MIX: [(Kind, f64); 2] = [(Kind::Otem, 0.22), (Kind::Fleet, 0.04)];

/// OTEM requests cycle through six cycles × two vehicle classes.
const OTEM_STRATA: usize = 12;

/// Route length of an OTEM request. Fixed: plan quality per hour of
/// driving depends strongly on how far into its cycle a route ends.
const OTEM_STEPS: usize = 120;

/// The `/simulate` body for one vehicle spec; fields the spec leaves at
/// the server's defaults are still spelled out so the body is complete.
pub fn spec_body(spec: &VehicleSpec) -> String {
    format!(
        "{{\"id\":{},\"cycle\":\"{}\",\"methodology\":\"{}\",\"steps\":{},\"compact\":{},\
         \"ambient_c\":{:.3},\"capacitance_f\":{:.1},\"mpc_horizon\":{},\"mpc_iterations\":{}}}",
        spec.id,
        cycle_wire_name(spec.cycle),
        spec.methodology.wire_name(),
        spec.steps,
        spec.compact,
        spec.ambient_c,
        spec.capacitance_f,
        spec.mpc_horizon,
        spec.mpc_iterations,
    )
}

/// A seed whose `FLEET_VEHICLES`-vehicle synthetic campaign holds only
/// reactive vehicles. The MPC work of the mix then sits in the OTEM
/// requests alone: a fleet request whose OTEM vehicle ran beside an OTEM
/// request slowed both, as timing happened to overlap them, and the
/// latency tail measured that overlap rather than the server.
fn fleet_seed(rng: &mut Rng) -> u64 {
    loop {
        let seed = rng.next_u64() >> 16;
        if (0..FLEET_VEHICLES)
            .all(|id| VehicleSpec::synthesize(id, seed).methodology != Methodology::Otem)
        {
            return seed;
        }
    }
}

/// A seeded request body of `kind`; the `otem_index`-th OTEM request is
/// fixed by its index alone.
fn body(kind: Kind, rng: &mut Rng, id: u64, otem_index: usize) -> String {
    let (horizon, iterations) = server_mpc_defaults();
    let mut spec = VehicleSpec {
        id,
        cycle: StandardCycle::ALL[rng.index(StandardCycle::ALL.len())],
        steps: 150 + rng.index(121),
        compact: rng.next_u64() & 1 == 1,
        ambient_c: rng.range(20.0, 35.0),
        capacitance_f: rng.range(10_000.0, 25_000.0),
        methodology: [
            Methodology::Parallel,
            Methodology::ActiveCooling,
            Methodology::Dual,
        ][rng.index(3)],
        mpc_horizon: horizon,
        mpc_iterations: iterations,
        mpc_deadline_us: 0,
        poison_step: None,
    };
    match kind {
        Kind::Fleet => format!(
            "{{\"vehicles\":{FLEET_VEHICLES},\"seed\":{}}}",
            fleet_seed(rng)
        ),
        Kind::Scrape => String::new(),
        Kind::Reactive => spec_body(&spec),
        Kind::Otem => {
            // The OTEM requests are the same set for every seed — six
            // cycles × two classes, each round at its own ambient and bank
            // size on a golden-ratio sequence — so plan quality is a
            // property of the code, not of the draw; the seed only places
            // them in the schedule.
            let cycles = StandardCycle::ALL.len();
            let round = (otem_index / OTEM_STRATA) as f64 + 0.5;
            let spread = |step: f64| (round * step).fract();
            spec.methodology = Methodology::Otem;
            spec.cycle = StandardCycle::ALL[otem_index % cycles];
            spec.compact = (otem_index / cycles) % 2 == 1;
            spec.steps = OTEM_STEPS;
            spec.ambient_c = 28.0 + 4.0 * spread(0.618_033_988_75);
            spec.capacitance_f = 20_000.0 + 5_000.0 * spread(0.381_966_011_25);
            spec_body(&spec)
        }
    }
}

/// The MPC horizon and budget the server gives a single-vehicle request
/// that names neither.
fn server_mpc_defaults() -> (usize, usize) {
    match SimulateRequest::parse("{}") {
        Ok(SimulateRequest::Vehicle { spec, .. }) => (spec.mpc_horizon, spec.mpc_iterations),
        _ => unreachable!("an empty body is a default single-vehicle request"),
    }
}

/// The kinds of `total` requests in the mix's exact shares (OTEM rounded
/// down to whole rounds of strata), spread evenly by smooth weighted
/// round robin: heavy requests arrive no burstier on one seed than on
/// another, so the latency tail measures the server, not the draw.
fn spread_kinds(total: usize) -> Vec<Kind> {
    let mut weights: Vec<(Kind, usize)> = MIX
        .iter()
        .map(|&(kind, share)| {
            let n = (share * total as f64).round() as usize;
            (
                kind,
                if kind == Kind::Otem {
                    n - n % OTEM_STRATA
                } else {
                    n
                },
            )
        })
        .collect();
    let heavy: usize = weights.iter().map(|w| w.1).sum();
    weights.push((Kind::Reactive, total - heavy));
    let mut credit = vec![0i64; weights.len()];
    (0..total)
        .map(|_| {
            for (c, w) in credit.iter_mut().zip(&weights) {
                *c += w.1 as i64;
            }
            let pick = (0..weights.len())
                .max_by_key(|&k| credit[k])
                .expect("non-empty mix");
            credit[pick] -= total as i64;
            weights[pick].0
        })
        .collect()
}

/// The open-loop schedule: for each `(rate, seconds)` rung, requests
/// evenly spaced at `rate` drawn from the mix, plus a `/metrics` scrape
/// every second. Identical for equal seeds.
pub fn schedule(seed: u64, rungs: &[(f64, f64)]) -> Vec<Event> {
    let mut rng = Rng::new(seed, 7);
    let counts: Vec<usize> = rungs
        .iter()
        .map(|&(rate, secs)| (rate * secs).round() as usize)
        .collect();
    let total: usize = counts.iter().sum();
    let mut kinds = spread_kinds(total);
    // Seeded jitter: each request may trade places with one of its next
    // two neighbours.
    for i in 0..total {
        let j = (i + rng.index(3)).min(total - 1);
        kinds.swap(i, j);
    }
    let mut kinds = kinds.into_iter();
    let mut events = Vec::new();
    let mut start = 0.0;
    let (mut id, mut otem_index) = (0u64, 0usize);
    for (rung, (&(rate, secs), &n)) in rungs.iter().zip(&counts).enumerate() {
        for i in 0..n {
            let kind = kinds.next().expect("one kind per request");
            events.push(Event {
                due: Duration::from_secs_f64(start + i as f64 / rate),
                kind,
                body: body(kind, &mut rng, id, otem_index),
                rung,
            });
            otem_index += usize::from(kind == Kind::Otem);
            id += 1;
        }
        events.extend(scrapes(start, secs, rung));
        start += secs;
    }
    events.sort_by_key(|e| e.due);
    events
}

/// A `/metrics` scrape half a second into every second of a rung that
/// starts at `start` and lasts `secs`.
fn scrapes(start: f64, secs: f64, rung: usize) -> impl Iterator<Item = Event> {
    (0..secs.ceil() as usize).map(move |s| Event {
        due: Duration::from_secs_f64(start + s as f64 + 0.5),
        kind: Kind::Scrape,
        body: String::new(),
        rung,
    })
}

/// A response with its client-side phases.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    /// HTTP status (0 when the request failed at the transport).
    pub status: u16,
    /// Body lines.
    pub lines: Vec<String>,
    /// Body bytes.
    pub bytes: usize,
    /// TCP connect time (µs); NaN when not split.
    pub connect_us: f64,
    /// Start of the request write → first response byte (ms); NaN when
    /// not split.
    pub ttfb_ms: f64,
    /// First byte → end of response (ms); NaN when not split.
    pub transfer_ms: f64,
}

/// Sends one request through `otem_fleet::client::request`.
fn plain_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Reply {
    match client::request(addr, method, path, body) {
        Ok(r) => Reply {
            status: r.status,
            bytes: r.lines.iter().map(|l| l.len() + 1).sum(),
            lines: r.lines,
            connect_us: f64::NAN,
            ttfb_ms: f64::NAN,
            transfer_ms: f64::NAN,
        },
        Err(_) => Reply::default(),
    }
}

/// Sends one request on a raw socket, timing connect, time to first
/// byte and transfer apart.
fn phased_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Reply> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connect_us = t0.elapsed().as_secs_f64() * 1e6;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: fleet\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    // The clock starts before the write: the woken server thread may
    // preempt this one inside `write_all` and answer in full before it
    // returns.
    let t1 = Instant::now();
    stream.write_all(request.as_bytes())?;
    let mut buf = Vec::with_capacity(4096);
    let mut chunk = [0u8; 16 * 1024];
    let n = stream.read(&mut chunk)?;
    let ttfb = t1.elapsed();
    buf.extend_from_slice(&chunk[..n]);
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let transfer = t1.elapsed() - ttfb;
    let text = String::from_utf8_lossy(&buf);
    let (head, payload) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let lines: Vec<String> = payload
        .lines()
        .filter(|l| !l.is_empty())
        .map(str::to_owned)
        .collect();
    Ok(Reply {
        status,
        bytes: lines.iter().map(|l| l.len() + 1).sum(),
        lines,
        connect_us,
        ttfb_ms: ttfb.as_secs_f64() * 1e3,
        transfer_ms: transfer.as_secs_f64() * 1e3,
    })
}

/// One completed event.
#[derive(Debug, Clone)]
pub struct Done {
    /// Index into the schedule.
    pub index: usize,
    /// Due time → send start (ms): how late the generator ran.
    pub lateness_ms: f64,
    /// Due time → response complete (ms).
    pub latency_ms: f64,
    /// Send start → response complete (ms).
    pub service_ms: f64,
    /// The response.
    pub reply: Reply,
}

/// Plays `events` against `addr` open loop with `senders` threads: each
/// takes the next event, sleeps until it is due (or sends at once when
/// late) and waits for the reply. `phased` selects the raw client that
/// splits the phases; otherwise `otem_fleet::client::request` is used.
pub fn play(addr: SocketAddr, events: &[Event], senders: usize, phased: bool) -> (Vec<Done>, f64) {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(events.len()));
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..senders.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(e) = events.get(i) else { break };
                if let Some(wait) = e.due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let sent = start.elapsed();
                let (method, path) = match e.kind {
                    Kind::Scrape => ("GET", "/metrics"),
                    _ => ("POST", "/simulate"),
                };
                let reply = if phased {
                    phased_request(addr, method, path, &e.body).unwrap_or_default()
                } else {
                    plain_request(addr, method, path, &e.body)
                };
                let end = start.elapsed();
                let ms = |d: Duration| d.as_secs_f64() * 1e3;
                done.lock().expect("no panics while held").push(Done {
                    index: i,
                    lateness_ms: ms(sent.saturating_sub(e.due)),
                    latency_ms: ms(end.saturating_sub(e.due)),
                    service_ms: ms(end - sent),
                    reply,
                });
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut done = done.into_inner().expect("threads joined");
    done.sort_by_key(|d| d.index);
    (done, wall)
}

/// Spawns a server with production defaults on a free loopback port.
pub fn spawn() -> ServerHandle {
    FleetServer::new(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    })
    .spawn()
    .expect("loopback server spawns")
}

/// The vehicle summaries in a `/simulate` reply, parsed back.
pub fn summaries(reply: &Reply) -> Vec<VehicleSummary> {
    reply
        .lines
        .iter()
        .filter(|l| json_str(l, "event") == Some("vehicle"))
        .filter_map(|l| {
            Some(VehicleSummary {
                id: json_u64(l, "id")?,
                steps: json_u64(l, "steps")? as usize,
                energy_j: json_f64(l, "energy_j")?,
                cooling_j: json_f64(l, "cooling_j")?,
                capacity_loss: json_f64(l, "capacity_loss")?,
                peak_temp_k: json_f64(l, "peak_temp_c")? + 273.15,
                shortfall_j: json_f64(l, "shortfall_j")?,
                checksum: u64::from_str_radix(json_str(l, "checksum")?, 16).ok()?,
            })
        })
        .collect()
}

/// Whether a reply is a complete success for its kind.
pub fn reply_ok(kind: Kind, reply: &Reply) -> bool {
    reply.status == 200
        && match kind {
            Kind::Scrape => reply.bytes > 0,
            Kind::Reactive | Kind::Otem => summaries(reply).len() == 1,
            Kind::Fleet => {
                summaries(reply).len() == FLEET_VEHICLES as usize
                    && reply.lines.last().and_then(|l| json_str(l, "event")) == Some("fleet")
            }
        }
}

/// The request reproduced in process: `SimulateRequest::parse`, then the
/// fleet engine on the parsed vehicles. Returns the summary lines, parse
/// time (µs) and engine time (ms).
pub fn rerun(body: &str) -> (Vec<String>, f64, f64) {
    let t = Instant::now();
    let parsed = SimulateRequest::parse(body).expect("scheduled bodies parse");
    let parse_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let lines = match &parsed {
        SimulateRequest::Vehicle { spec, .. } => {
            let engine = FleetEngine::new(Schedule::Serial);
            vec![summary_line(
                &engine.run_vehicle(spec).expect("vehicle runs"),
            )]
        }
        SimulateRequest::Fleet { vehicles, seed, .. } => {
            let shards = ServerConfig::default().shards;
            let engine = FleetEngine::new(parsed.schedule(shards));
            let report = engine.run(&Campaign::synthetic(*vehicles, *seed));
            report.summaries.iter().map(summary_line).collect()
        }
    };
    (lines, parse_us, t.elapsed().as_secs_f64() * 1e3)
}

/// Whether a reply's vehicle lines equal the in-process rerun's.
pub fn matches_rerun(reply: &Reply, rerun_lines: &[String]) -> bool {
    let served: Vec<&String> = reply
        .lines
        .iter()
        .filter(|l| json_str(l, "event") == Some("vehicle"))
        .collect();
    served.len() == rerun_lines.len() && served.iter().zip(rerun_lines).all(|(a, b)| *a == b)
}

/// Rung rates (req/s) and their share of the measured time.
pub const LADDER: [(f64, f64); 3] = [(4.0, 0.1), (8.0, 0.8), (16.0, 0.1)];
/// Index of the rung whose latencies are reported.
pub const MIDDLE_RUNG: usize = 1;
/// The p95 latency limit (ms).
pub const P95_LIMIT_MS: f64 = 250.0;

/// Per-rung verdict.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Offered rate.
    pub rate: f64,
    /// p95 latency from due time (ms); a failed request counts as ∞.
    pub p95_ms: f64,
    /// Generator lateness over the rung's last quarter (ms, max).
    pub late_tail_ms: f64,
    /// Whether the rung meets the limit without a growing backlog.
    pub ok: bool,
}

/// Judges each rung: p95 ≤ limit, and the generator's lateness over the
/// rung's last quarter stays under the limit (no growing backlog).
pub fn judge(events: &[Event], done: &[Done], rates: &[f64]) -> Vec<Rung> {
    rates
        .iter()
        .enumerate()
        .map(|(rung, &rate)| {
            let mine: Vec<&Done> = done
                .iter()
                .filter(|d| events[d.index].rung == rung && events[d.index].kind != Kind::Scrape)
                .collect();
            let lat: Vec<f64> = mine
                .iter()
                .map(|d| {
                    if reply_ok(events[d.index].kind, &d.reply) {
                        d.latency_ms
                    } else {
                        f64::INFINITY
                    }
                })
                .collect();
            let p95_ms = percentile(&lat, 95.0);
            let tail = &mine[mine.len() * 3 / 4..];
            let late_tail_ms = tail.iter().map(|d| d.lateness_ms).fold(0.0, f64::max);
            Rung {
                rate,
                p95_ms,
                late_tail_ms,
                ok: p95_ms <= P95_LIMIT_MS && late_tail_ms <= P95_LIMIT_MS,
            }
        })
        .collect()
}

/// Plan quality of the OTEM single-vehicle replies.
pub fn otem_quality(events: &[Event], done: &[Done], dt_s: f64) -> Quality {
    let mut q = Quality::default();
    for d in done {
        if events[d.index].kind == Kind::Otem {
            for s in summaries(&d.reply) {
                q.add(&s, dt_s);
            }
        }
    }
    q
}

/// Server-layer metrics of a phased play, with the in-process rerun of
/// every request for parse and engine time.
pub fn server_metrics(events: &[Event], done: &[Done]) -> Metrics {
    let (mut connect, mut ttfb, mut transfer) = (Vec::new(), Vec::new(), Vec::new());
    let (mut parse, mut engine, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let (mut scrape_ms, mut scrape_bytes, mut lateness) = (Vec::new(), Vec::new(), Vec::new());
    let mut shed = 0usize;
    for d in done {
        let e = &events[d.index];
        lateness.push(d.lateness_ms);
        shed += usize::from(d.reply.status == 503);
        if e.kind == Kind::Scrape {
            scrape_ms.push(d.service_ms);
            scrape_bytes.push(d.reply.bytes as f64);
            continue;
        }
        connect.push(d.reply.connect_us);
        ttfb.push(d.reply.ttfb_ms);
        transfer.push(d.reply.transfer_ms);
        let (_, parse_us, engine_ms) = rerun(&e.body);
        parse.push(parse_us);
        engine.push(engine_ms);
        overhead.push(d.reply.ttfb_ms + d.reply.transfer_ms - engine_ms);
    }
    vec![
        ("server.connect_us", median(&connect)),
        ("server.ttfb_ms_p50", median(&ttfb)),
        ("server.ttfb_ms_p95", percentile(&ttfb, 95.0)),
        ("server.transfer_ms", median(&transfer)),
        ("server.parse_us", median(&parse)),
        ("server.engine_ms", median(&engine)),
        ("server.overhead_ms", median(&overhead)),
        ("server.shed_ratio", shed as f64 / done.len() as f64),
        ("gen.lateness_ms_p95", percentile(&lateness, 95.0)),
        ("telemetry.scrape_ms", median(&scrape_ms)),
        ("telemetry.scrape_bytes", median(&scrape_bytes)),
    ]
}

/// The server probe of a traced run: `bodies` played at `rate` against a
/// fresh server with a scrape every second, phases split.
pub fn server_probe(bodies: &[(Kind, String)], rate: f64, senders: usize) -> Metrics {
    let secs = bodies.len() as f64 / rate;
    let mut events: Vec<Event> = bodies
        .iter()
        .enumerate()
        .map(|(i, (kind, body))| Event {
            due: Duration::from_secs_f64(i as f64 / rate),
            kind: *kind,
            body: body.clone(),
            rung: 0,
        })
        .collect();
    events.extend(scrapes(0.0, secs, 0));
    events.sort_by_key(|e| e.due);
    let mut server = spawn();
    let (done, _) = play(server.addr(), &events, senders, true);
    server.shutdown();
    server_metrics(&events, &done)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUNGS: [(f64, f64); 2] = [(10.0, 2.0), (20.0, 3.0)];

    #[test]
    fn schedules_are_seeded() {
        let a = schedule(11, &RUNGS);
        assert_eq!(a, schedule(11, &RUNGS));
        let b = schedule(12, &RUNGS);
        assert_ne!(a, b);
        let bodies = |s: &[Event]| s.iter().map(|e| e.body.clone()).collect::<Vec<_>>();
        assert_ne!(bodies(&a), bodies(&b), "request bodies differ by seed");
    }

    #[test]
    fn schedule_has_rates_mix_and_scrapes() {
        let s = schedule(3, &RUNGS);
        let requests: Vec<&Event> = s.iter().filter(|e| e.kind != Kind::Scrape).collect();
        assert_eq!(requests.len(), 20 + 60);
        assert_eq!(s.iter().filter(|e| e.kind == Kind::Scrape).count(), 5);
        assert!(s.windows(2).all(|w| w[0].due <= w[1].due));
        let count = |k| requests.iter().filter(|e| e.kind == k).count();
        assert_eq!(
            count(Kind::Otem),
            12,
            "22 % of 80, whole rounds of 12 strata"
        );
        assert_eq!(count(Kind::Fleet), 3, "4 % of 80");
        assert_eq!(count(Kind::Reactive), 65);
        for e in &requests {
            assert!(SimulateRequest::parse(&e.body).is_ok(), "{}", e.body);
        }
    }

    #[test]
    fn otem_requests_cover_every_stratum_equally() {
        let s = schedule(5, &[(20.0, 15.0)]);
        let strata: Vec<(StandardCycle, bool)> = s
            .iter()
            .filter(|e| e.kind == Kind::Otem)
            .map(|e| match SimulateRequest::parse(&e.body) {
                Ok(SimulateRequest::Vehicle { spec, .. }) => (spec.cycle, spec.compact),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(strata.len(), 60, "66 rounded down to whole rounds of 12");
        for c in StandardCycle::ALL {
            for compact in [false, true] {
                let n = strata.iter().filter(|&&x| x == (c, compact)).count();
                assert_eq!(n, 5, "{c:?} compact={compact}");
            }
        }
    }

    #[test]
    fn fleet_requests_hold_only_reactive_vehicles() {
        let s = schedule(8, &[(20.0, 15.0)]);
        let fleets: Vec<&Event> = s.iter().filter(|e| e.kind == Kind::Fleet).collect();
        assert_eq!(fleets.len(), 12, "4 % of 300");
        for e in fleets {
            match SimulateRequest::parse(&e.body) {
                Ok(SimulateRequest::Fleet { vehicles, seed, .. }) => {
                    assert_eq!(vehicles, FLEET_VEHICLES as usize);
                    let campaign = Campaign::synthetic(vehicles, seed);
                    assert!(
                        campaign
                            .vehicles
                            .iter()
                            .all(|v| v.methodology != Methodology::Otem),
                        "{}",
                        e.body
                    );
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn spec_bodies_round_trip_through_the_parser() {
        let spec = VehicleSpec::synthesize(4, 9);
        match SimulateRequest::parse(&spec_body(&spec)) {
            Ok(SimulateRequest::Vehicle { spec: parsed, .. }) => {
                assert_eq!(parsed.cycle, spec.cycle);
                assert_eq!(parsed.methodology, spec.methodology);
                assert_eq!(parsed.steps, spec.steps);
                assert_eq!(parsed.mpc_horizon, spec.mpc_horizon);
            }
            other => panic!("{other:?}"),
        }
    }
}
