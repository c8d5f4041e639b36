//! The chaos harness: hostile traffic against a live [`FleetServer`].
//!
//! Every scenario here is an abuse a real deployment sees — malformed
//! heads, trickled bytes, mid-stream disconnects, panicking vehicles,
//! saturation, shutdown races — and every scenario ends the same way:
//! `/healthz` answers `200 {"status":"ok"}`. The abuse *payload order*
//! inside the malformed-traffic sweep is seeded (splitmix64), so a
//! failure reproduces from the seed rather than from thread timing.
//!
//! Scenario timing rests on the server's own knobs (short read
//! timeouts, one-deep queues), never on host speed: the assertions are
//! about *which* response each client draws, not how fast.

use otem_fleet::client::{request, request_with_timeout, BackoffPolicy, RetryClient};
use otem_fleet::{FleetServer, ServerConfig, ServerHandle};
use otem_telemetry::MemorySink;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0xc4a05;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn config(workers: usize, queue_depth: usize, read_timeout_ms: u64) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: 2,
        max_vehicles: 1_000,
        workers,
        queue_depth,
        read_timeout_ms,
        write_timeout_ms: read_timeout_ms,
        drain_deadline_ms: 5_000,
        ..ServerConfig::default()
    }
}

fn spawn_observed(
    workers: usize,
    queue_depth: usize,
    read_timeout_ms: u64,
) -> (ServerHandle, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::with_capacity(4_096));
    let handle =
        FleetServer::with_sink(config(workers, queue_depth, read_timeout_ms), sink.clone())
            .spawn()
            .expect("bind chaos server");
    (handle, sink)
}

fn assert_healthy(handle: &ServerHandle, context: &str) {
    let resp = request(handle.addr(), "GET", "/healthz", "")
        .unwrap_or_else(|e| panic!("healthz after {context}: {e}"));
    assert_eq!(resp.status, 200, "unhealthy after {context}");
    assert_eq!(resp.lines, ["{\"status\":\"ok\"}"], "after {context}");
}

/// Sends raw bytes, reads to EOF, returns the status (or `None` if the
/// server dropped the connection without a response).
fn raw_status(handle: &ServerHandle, payload: &[u8]) -> Option<u16> {
    let mut stream = TcpStream::connect(handle.addr()).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    stream.write_all(payload).ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    response.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn malformed_truncated_and_oversized_requests_never_take_the_server_down() {
    let (mut handle, _sink) = spawn_observed(4, 16, 500);
    let flood = {
        let mut head = String::from("GET /healthz HTTP/1.1\r\n");
        for i in 0..80 {
            head.push_str(&format!("X-Flood-{i}: 1\r\n"));
        }
        head.push_str("\r\n");
        head
    };
    let mut abuses: Vec<(&str, Vec<u8>, Option<u16>)> = vec![
        ("garbage line", b"NONSENSE\r\n\r\n".to_vec(), Some(400)),
        (
            "malformed content-length",
            b"POST /simulate HTTP/1.1\r\nContent-Length: over9000\r\n\r\n".to_vec(),
            Some(400),
        ),
        (
            "negative content-length",
            b"POST /simulate HTTP/1.1\r\nContent-Length: -5\r\n\r\n".to_vec(),
            Some(400),
        ),
        (
            "oversized body",
            b"POST /simulate HTTP/1.1\r\nContent-Length: 9000000\r\n\r\n".to_vec(),
            Some(413),
        ),
        (
            "unknown route",
            b"GET /nope HTTP/1.1\r\n\r\n".to_vec(),
            Some(404),
        ),
        ("header flood", flood.into_bytes(), Some(400)),
        (
            "single huge header",
            format!("GET /healthz HTTP/1.1\r\nX: {}\r\n\r\n", "a".repeat(9_000)).into_bytes(),
            Some(400),
        ),
        (
            // Declares a body then sends half of it and closes: the
            // server reads a short body, fails the parse, and must not
            // wedge. (No status to assert — we hung up.)
            "mid-stream disconnect",
            b"POST /simulate HTTP/1.1\r\nContent-Length: 60\r\n\r\n{\"vehicles\":4".to_vec(),
            None,
        ),
        ("empty payload", Vec::new(), None),
    ];
    let mut rng = SEED;
    for i in (1..abuses.len()).rev() {
        let j = (splitmix64(&mut rng) as usize) % (i + 1);
        abuses.swap(i, j);
    }
    for (name, payload, want) in &abuses {
        let got = raw_status(&handle, payload);
        if let Some(want) = want {
            assert_eq!(got, Some(*want), "{name}: wrong status");
        }
        assert_healthy(&handle, name);
    }
    handle.shutdown();
}

#[test]
fn slow_loris_is_cut_off_without_delaying_concurrent_requests() {
    let (mut handle, sink) = spawn_observed(4, 16, 400);
    let addr = handle.addr();

    // Trickle one byte of the request head at a time, far slower than
    // the read timeout allows overall progress to matter — after the
    // first stall the server answers 408 and hangs up.
    let loris = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("loris connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let head = b"GET /healthz HTTP/1.1\r\n";
        for byte in head {
            if stream.write_all(&[*byte]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        // Stop sending entirely; the read deadline trips now.
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        response
    });

    // While the loris trickles, a 4-worker pool keeps serving everyone
    // else: each healthz must come back well inside the read timeout.
    for i in 0..8 {
        let t0 = std::time::Instant::now();
        assert_healthy(&handle, &format!("concurrent healthz #{i}"));
        assert!(
            t0.elapsed() < Duration::from_millis(2_000),
            "healthz #{i} was starved by a slow-loris client"
        );
    }

    let response = loris.join().expect("loris thread");
    assert!(
        response.contains("408"),
        "stalled client drew a 408: {response:?}"
    );
    assert!(handle.timeouts() >= 1, "timeout counted");
    assert!(
        sink.total_kind("request_timeout") >= 1,
        "timeout event recorded"
    );
    assert_healthy(&handle, "slow loris");
    handle.shutdown();
}

#[test]
fn poisoned_vehicle_yields_structured_error_and_server_keeps_serving() {
    // A configured flight directory also persists each frozen dump to
    // disk (best-effort, directory created on demand).
    let flight_dir = std::env::temp_dir().join(format!("otem-flight-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&flight_dir);
    let mut cfg = config(2, 8, 2_000);
    cfg.flight_dir = flight_dir.to_string_lossy().into_owned();
    let sink = Arc::new(MemorySink::with_capacity(4_096));
    let mut handle = FleetServer::with_sink(cfg, sink.clone())
        .spawn()
        .expect("bind chaos server");
    let resp = request(
        handle.addr(),
        "POST",
        "/simulate",
        "{\"vehicles\":6,\"seed\":7,\"poison_id\":3}",
    )
    .expect("poison campaign");
    assert_eq!(
        resp.status, 200,
        "campaign with one poisoned vehicle still answers"
    );
    assert_eq!(
        resp.lines.len(),
        7,
        "5 summaries + 1 error + trailer: {:?}",
        resp.lines
    );
    // Lines stay in id order with the error record in vehicle 3's slot.
    for (i, line) in resp.lines[..6].iter().enumerate() {
        let want = if i == 3 {
            format!("{{\"event\":\"vehicle_error\",\"id\":{i},\"panicked\":true,")
        } else {
            format!("{{\"event\":\"vehicle\",\"id\":{i},")
        };
        assert!(line.starts_with(&want), "line {i}: {line}");
    }
    assert!(
        resp.lines[3].contains("poison fault"),
        "panic payload surfaced: {}",
        resp.lines[3]
    );
    let trailer = resp.lines.last().expect("trailer");
    assert!(trailer.contains("\"failures\":1"), "{trailer}");
    assert!(trailer.contains("\"vehicle_panics\":1"), "{trailer}");
    assert_eq!(handle.vehicle_panics(), 1);
    assert_eq!(sink.total_kind("panic_caught"), 1);

    // The contained panic froze the flight recorder: /debug/flight now
    // serves a post-mortem dump whose entries (including the trigger)
    // carry the poisoned request's correlation id.
    let flight = request(handle.addr(), "GET", "/debug/flight", "").expect("flight dump");
    assert_eq!(flight.status, 200);
    assert!(
        flight.lines[0].starts_with("{\"flight_dump\":true,\"trigger\":\"panic_caught\","),
        "frozen dump served: {}",
        flight.lines[0]
    );
    let trigger = flight
        .lines
        .iter()
        .find(|l| l.contains("\"event\":{\"event\":\"panic_caught\""))
        .expect("the trigger event is in the dump");
    assert!(
        trigger.contains("\"request_id\":") && !trigger.contains("\"request_id\":0,"),
        "dump entries are stamped with the originating request: {trigger}"
    );

    // The same dump was persisted to the configured flight directory.
    let on_disk = std::fs::read_to_string(flight_dir.join("flight-0000-panic_caught.jsonl"))
        .expect("dump persisted to flight_dir");
    assert!(
        on_disk.starts_with("{\"flight_dump\":true,\"trigger\":\"panic_caught\","),
        "persisted dump carries the header: {on_disk}"
    );
    let _ = std::fs::remove_dir_all(&flight_dir);

    // The next request is served normally — the panic poisoned nothing.
    let clean = request(
        handle.addr(),
        "POST",
        "/simulate",
        "{\"vehicles\":6,\"seed\":7}",
    )
    .expect("clean campaign");
    assert_eq!(clean.status, 200);
    assert_eq!(clean.lines.len(), 7, "6 summaries + trailer");
    assert!(
        clean
            .lines
            .last()
            .expect("trailer")
            .contains("\"failures\":0"),
        "clean campaign has no failures"
    );
    assert_healthy(&handle, "poison campaign");
    handle.shutdown();
}

#[test]
fn saturated_pool_sheds_with_a_retry_hint_and_a_retrying_client_converges() {
    // One worker, one queue slot: two stalled clients occupy both, so
    // the next connection is shed the moment it is accepted.
    let (mut handle, sink) = spawn_observed(1, 1, 600);
    let addr = handle.addr();
    let stalls: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(addr).expect("stall connects"))
        .collect();

    let mut shed_resp = None;
    let mut probes = Vec::new();
    for attempt in 0..100 {
        match request_with_timeout(
            addr,
            "GET",
            "/healthz",
            "",
            Some(Duration::from_millis(200)),
        ) {
            Ok(resp) if resp.status == 503 => {
                shed_resp = Some(resp);
                break;
            }
            Ok(resp) => probes.push(format!("#{attempt}: {}", resp.status)),
            Err(err) => probes.push(format!("#{attempt}: {err}")),
        }
    }
    let shed =
        shed_resp.unwrap_or_else(|| panic!("saturated pool never shed; probes saw: {probes:?}"));
    assert_eq!(
        shed.retry_after_ms(),
        Some(100),
        "shed body carries retry_after_ms: {:?}",
        shed.lines
    );
    assert!(handle.shed() >= 1);
    assert!(sink.total_kind("request_shed") >= 1, "shed event recorded");

    // A retrying client keeps at it (honouring the hint) and succeeds
    // once the stalled sockets hit their 600 ms read deadline.
    let mut retry = RetryClient::new(
        addr,
        BackoffPolicy {
            base_ms: 100,
            cap_ms: 800,
            max_attempts: 12,
            seed: SEED,
        },
    );
    let resp = retry.send("GET", "/healthz", "").expect("retry transport");
    assert_eq!(resp.status, 200, "retrying client converged");
    drop(stalls);
    assert_healthy(&handle, "saturation");
    handle.shutdown();
}

#[test]
fn graceful_drain_finishes_in_flight_requests() {
    let (mut handle, sink) = spawn_observed(2, 8, 2_000);
    let addr = handle.addr();

    // Several clients in flight while the server is told to drain.
    let clients: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                request_with_timeout(
                    addr,
                    "POST",
                    "/simulate",
                    &format!("{{\"vehicles\":2,\"seed\":{i}}}"),
                    Some(Duration::from_secs(10)),
                )
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    let ack = request(addr, "POST", "/shutdown", "").expect("shutdown ack");
    assert_eq!(ack.status, 200);
    assert_eq!(ack.lines, ["{\"event\":\"shutdown\"}"]);
    handle.shutdown();

    let mut served = 0;
    for client in clients {
        match client.join().expect("client thread") {
            Ok(resp) if resp.status == 200 => {
                assert!(
                    resp.lines
                        .last()
                        .is_some_and(|l| l.contains("\"event\":\"fleet\"")),
                    "drained response complete: {:?}",
                    resp.lines
                );
                served += 1;
            }
            // Shed during drain or raced the closing listener — a clean
            // refusal either way.
            Ok(resp) => assert_eq!(resp.status, 503, "unexpected status during drain"),
            Err(_) => {}
        }
    }
    assert!(served >= 1, "accepted requests were finished, not dropped");
    assert_eq!(sink.total_kind("drain_started"), 1, "drain event recorded");
}
