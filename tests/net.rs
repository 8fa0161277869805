//! Connection-chaos suite for the socket serving plane.
//!
//! A [`ChaosClient`] plays every kind of badly behaved network peer — torn
//! frames, byte-at-a-time slowloris writes, half-open sockets that go
//! silent, peers that disconnect mid-response, oversized lines — against a
//! live [`SocketServer`], and the tests assert the server's overload
//! contract: structured errors (never panics, never hangs), a worker pool
//! that is never blocked by a slow client, `overloaded` answered within a
//! bounded time when the admission window is full, and a graceful drain that
//! answers **every** admitted request bit-identically to the in-process
//! `handle()` path before the last connection closes.
//!
//! The same connection loop serves a single reader/writer pair
//! ([`net::serve_stream`], the stdin daemon's transport); the stream-shape
//! tests drive it over in-memory buffers and pin it line-for-line to TCP.

use psp_suite::psp::config::PspConfig;
use psp_suite::psp::engine::{
    IngestReceipt, SaiScorer, SignalCacheFile, StreamingScorer, WindowAxis,
};
use psp_suite::psp::keyword_db::KeywordDatabase;
use psp_suite::psp::sai::SaiList;
use psp_suite::psp::service::net::{self, NetConfig, SocketServer};
use psp_suite::psp::service::wire::{
    encode_request, encode_response, WireEvent, WireRequest, WireResponse,
};
use psp_suite::psp::service::{
    MonitorSpec, ServiceEvent, ServiceRegistry, ServiceRequest, ServiceResponse, TaraService,
};
use psp_suite::psp::LiveEngine;
use psp_suite::socialsim::corpus::Corpus;
use psp_suite::socialsim::post::Post;
use psp_suite::socialsim::scenario;
use psp_suite::socialsim::time::DateWindow;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long any single test-side wait may take before the test fails (the
/// server's contract is to answer *well* within this).
const DEADLINE: Duration = Duration::from_secs(30);

fn registry() -> ServiceRegistry {
    ServiceRegistry::new()
        .database("excavator", KeywordDatabase::excavator_seed())
        .config("excavator", PspConfig::excavator_europe())
}

fn score_request(id: u64) -> String {
    encode_request(&WireRequest {
        id,
        request: ServiceRequest::Score {
            db: "excavator".into(),
            config: "excavator".into(),
        },
    })
}

/// Spins up a served `LiveEngine` on an OS-picked port.
fn serve(config: NetConfig) -> (Arc<TaraService>, SocketServer) {
    let service = fresh_service(2);
    let server = SocketServer::bind(Arc::clone(&service), "127.0.0.1:0", config)
        .expect("bind an OS-picked port");
    (service, server)
}

/// An engine that sleeps on every scoring call: with one worker and a tiny
/// admission window, pipelined requests deterministically overflow.
#[derive(Debug, Clone)]
struct SlowEngine {
    inner: LiveEngine,
    delay: Duration,
}

impl SlowEngine {
    fn new(delay: Duration) -> Self {
        Self {
            inner: LiveEngine::new(scenario::excavator_europe(7)),
            delay,
        }
    }
}

impl SaiScorer for SlowEngine {
    fn sai_list(&self, db: &KeywordDatabase, config: &PspConfig) -> SaiList {
        std::thread::sleep(self.delay);
        self.inner.sai_list(db, config)
    }
}

impl StreamingScorer for SlowEngine {
    fn ingest_batch(&mut self, batch: Vec<Post>) -> IngestReceipt {
        self.inner.ingest_batch(batch)
    }

    fn post_count(&self) -> usize {
        self.inner.post_count()
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }

    fn export_signal_cache(&self) -> SignalCacheFile {
        self.inner.export_signal_cache()
    }

    fn corpus(&self) -> &Corpus {
        self.inner.corpus()
    }

    fn restore_generation(&mut self, generation: u64) {
        self.inner.restore_generation(generation);
    }
}

/// A deliberately badly behaved wire client: every helper is one chaos mode.
struct ChaosClient {
    stream: TcpStream,
    buffer: Vec<u8>,
}

impl ChaosClient {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("server accepts");
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .expect("read timeout settable");
        Self {
            stream,
            buffer: Vec::new(),
        }
    }

    /// A well-formed request line, written atomically.
    fn send_line(&mut self, line: &str) {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("server readable");
    }

    /// Raw bytes, no framing guarantees — torn frames, NULs, garbage.
    fn send_bytes(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("server readable");
    }

    /// Slowloris: the line dribbles in one byte at a time.
    fn send_slowloris(&mut self, line: &str, per_byte: Duration) {
        for byte in line.as_bytes() {
            self.stream
                .write_all(std::slice::from_ref(byte))
                .expect("server readable");
            std::thread::sleep(per_byte);
        }
        self.stream.write_all(b"\n").expect("server readable");
    }

    /// The peer disappears abruptly, possibly mid-response.
    fn vanish(self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Reads one response line, waiting up to [`DEADLINE`]; `None` on EOF
    /// (server closed the connection).
    fn read_line(&mut self) -> Option<String> {
        let start = Instant::now();
        loop {
            if let Some(at) = self.buffer.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buffer.drain(..=at).collect();
                return Some(String::from_utf8_lossy(&line[..line.len() - 1]).into_owned());
            }
            let mut chunk = [0_u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(read) => self.buffer.extend_from_slice(&chunk[..read]),
                Err(error)
                    if error.kind() == ErrorKind::WouldBlock
                        || error.kind() == ErrorKind::TimedOut =>
                {
                    assert!(
                        start.elapsed() < DEADLINE,
                        "no response line within {DEADLINE:?}"
                    );
                }
                Err(_) => return None,
            }
        }
    }

    /// Reads until the server closes the connection.
    fn read_to_eof(&mut self) -> Vec<String> {
        let mut lines = Vec::new();
        while let Some(line) = self.read_line() {
            lines.push(line);
        }
        lines
    }
}

/// Polls `probe` until it returns true, bounded by [`DEADLINE`].
fn wait_until(what: &str, probe: impl Fn() -> bool) {
    let start = Instant::now();
    while !probe() {
        assert!(start.elapsed() < DEADLINE, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn a_socket_score_is_bit_identical_to_in_process_handle() {
    let (service, server) = serve(NetConfig::default());
    let mut client = ChaosClient::connect(server.local_addr());
    client.send_line(&score_request(42));
    let line = client.read_line().expect("response before EOF");
    let expected = encode_response(&WireResponse {
        id: 42,
        response: service.handle(ServiceRequest::Score {
            db: "excavator".into(),
            config: "excavator".into(),
        }),
    });
    assert_eq!(line, expected);
}

/// The acceptor blocks in `accept`: a shutdown with no client ever connected
/// still returns (the drain wakes the acceptor), and the listener is closed
/// afterwards, so a later connect is refused.
#[test]
fn shutdown_with_no_client_returns_and_closes_the_listener() {
    let (service, mut server) = serve(NetConfig::default());
    let addr = server.local_addr();
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done.send(());
    });
    finished
        .recv_timeout(DEADLINE)
        .expect("shutdown returns without any client");
    let refused = TcpStream::connect(addr).expect_err("the listener is closed");
    assert_eq!(refused.kind(), ErrorKind::ConnectionRefused);
    let net = service.net_stats();
    assert_eq!((net.requests_admitted, net.open_connections), (0, 0));
}

/// A connect-per-request client: every one of 200 sequential
/// connect/Score/close cycles is answered bit-identically, and every
/// admitted request is answered.
#[test]
fn sequential_connect_score_close_cycles_all_answer() {
    let (service, mut server) = serve(NetConfig::default());
    let expected = service.handle(ServiceRequest::Score {
        db: "excavator".into(),
        config: "excavator".into(),
    });
    for id in 0..200 {
        let mut client = ChaosClient::connect(server.local_addr());
        client.send_line(&score_request(id));
        let line = client.read_line().expect("answered before close");
        let response = expected.clone();
        assert_eq!(line, encode_response(&WireResponse { id, response }));
    }
    server.shutdown();
    let net = service.net_stats();
    assert_eq!(net.requests_admitted, 200);
    assert_eq!(net.requests_admitted, net.requests_answered);
}

#[test]
fn torn_frames_and_garbage_answer_structured_errors_and_the_connection_survives() {
    let (_service, server) = serve(NetConfig::default());
    let mut client = ChaosClient::connect(server.local_addr());

    // A frame torn mid-JSON: answered bad-request with the id recovered.
    client.send_line(r#"{"id": 13, "request": {"Score": {"db": "excav"#);
    let line = client.read_line().expect("torn frame answered");
    assert!(line.contains("\"bad-request\""), "{line}");
    assert!(line.contains("\"id\":13"), "id recovered: {line}");

    // Invalid UTF-8 and NUL bytes: decoded lossily, answered bad-request.
    client.send_bytes(b"\xff\xfe{\"id\": 14, garbage\x00\x00\n");
    let line = client.read_line().expect("garbage answered");
    assert!(line.contains("\"bad-request\""), "{line}");
    assert!(line.contains("\"id\":14"), "id recovered: {line}");

    // Deeply nested JSON: a structured parse error, not a stack overflow.
    client.send_line(&format!(
        "{}{}",
        r#"{"id":15,"request":"#,
        "[".repeat(50_000)
    ));
    let line = client.read_line().expect("nested bomb answered");
    assert!(line.contains("\"bad-request\""), "{line}");

    // The same connection still serves a real request afterwards.
    client.send_line(&score_request(16));
    let line = client.read_line().expect("connection survived the chaos");
    assert!(line.contains("\"id\":16"), "{line}");
    assert!(line.contains("\"Score\""), "{line}");
}

#[test]
fn a_slowloris_write_is_answered_while_other_connections_are_served() {
    let (_service, server) = serve(NetConfig::default());
    let addr = server.local_addr();
    let slow = std::thread::spawn(move || {
        let mut client = ChaosClient::connect(addr);
        // ~80 bytes at 5ms/byte: the request takes ~400ms to arrive.
        client.send_slowloris(&score_request(1), Duration::from_millis(5));
        client.read_line().expect("slowloris request answered")
    });
    // A normal peer is not head-of-line blocked behind the slow writer.
    let mut fast = ChaosClient::connect(addr);
    client_round_trip(&mut fast, 2);
    let line = slow.join().expect("slowloris thread clean");
    assert!(line.contains("\"id\":1"), "{line}");
    assert!(line.contains("\"Score\""), "{line}");
}

fn client_round_trip(client: &mut ChaosClient, id: u64) {
    client.send_line(&score_request(id));
    let line = client.read_line().expect("response before EOF");
    assert!(line.contains(&format!("\"id\":{id}")), "{line}");
}

#[test]
fn idle_and_half_open_connections_are_reaped_while_others_are_served() {
    let config = NetConfig {
        idle_timeout: Duration::from_millis(200),
        ..NetConfig::default()
    };
    let (service, server) = serve(config);
    let addr = server.local_addr();

    // A half-open peer: sends a partial line, then goes silent forever.
    let mut half_open = ChaosClient::connect(addr);
    half_open.send_bytes(b"{\"id\": 99, \"requ");
    // An idle peer: connects and never speaks at all.
    let idle = ChaosClient::connect(addr);

    // Both get reaped...
    wait_until("both stalled connections reaped", || {
        service.net_stats().reaped_idle >= 2
    });
    assert_eq!(half_open.read_line(), None, "reaped connection closed");
    drop(idle);

    // ...while a live peer keeps scoring (staying under the idle timeout).
    let mut live = ChaosClient::connect(addr);
    client_round_trip(&mut live, 3);
    assert_eq!(service.net_stats().open_connections, 1);
}

#[test]
fn a_peer_vanishing_mid_response_leaves_the_server_serving() {
    let (service, server) = serve(NetConfig::default());
    let addr = server.local_addr();
    for round in 0..4 {
        let mut client = ChaosClient::connect(addr);
        client.send_line(&score_request(round));
        // Gone before (or while) the response is written.
        client.vanish();
    }
    wait_until("vanished connections torn down", || {
        service.net_stats().open_connections == 0
    });
    let mut client = ChaosClient::connect(addr);
    client_round_trip(&mut client, 5);
}

#[test]
fn oversized_lines_answer_line_too_long_and_the_connection_survives() {
    let config = NetConfig {
        max_line_bytes: 1024,
        ..NetConfig::default()
    };
    let (_service, server) = serve(config);
    let mut client = ChaosClient::connect(server.local_addr());
    // 64 KiB on one line; the id sits in the retained prefix.
    let huge = format!("{{\"id\": 21, \"request\": \"{}\"}}", "x".repeat(64 * 1024));
    client.send_line(&huge);
    let line = client.read_line().expect("oversized line answered");
    assert!(line.contains("\"line-too-long\""), "{line}");
    assert!(
        line.contains("\"id\":21"),
        "id recovered from prefix: {line}"
    );
    // The connection is not poisoned: the next request serves normally.
    client_round_trip(&mut client, 22);
}

#[test]
fn connections_beyond_the_cap_get_a_structured_rejection() {
    let config = NetConfig {
        max_connections: 2,
        ..NetConfig::default()
    };
    let (service, server) = serve(config);
    let addr = server.local_addr();
    // Two served connections, each provably registered (request answered).
    let mut first = ChaosClient::connect(addr);
    client_round_trip(&mut first, 1);
    let mut second = ChaosClient::connect(addr);
    client_round_trip(&mut second, 2);
    // The third is answered with one connection-limit line and closed.
    let mut third = ChaosClient::connect(addr);
    let lines = third.read_to_eof();
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].contains("\"connection-limit\""), "{}", lines[0]);
    assert!(service.net_stats().connections_rejected >= 1);
    // The capped connections keep serving.
    client_round_trip(&mut first, 3);
    client_round_trip(&mut second, 4);
}

#[test]
fn a_full_admission_window_answers_overloaded_within_bounded_time() {
    // One slow worker, two admission slots: a burst of six pipelined
    // requests must admit two and answer `overloaded` for the rest *before*
    // the slow scores finish (the rejection path never waits on a worker).
    let service = Arc::new(TaraService::with_workers(
        SlowEngine::new(Duration::from_millis(400)),
        registry(),
        1,
    ));
    let config = NetConfig {
        admission_capacity: 2,
        ..NetConfig::default()
    };
    let server = SocketServer::bind(Arc::clone(&service), "127.0.0.1:0", config)
        .expect("bind an OS-picked port");
    let mut client = ChaosClient::connect(server.local_addr());
    let burst_started = Instant::now();
    for id in 1..=6 {
        client.send_line(&score_request(id));
    }
    // Responses come back in submission order; the first overloaded one must
    // arrive while the admitted scores are still running.
    let mut kinds = Vec::new();
    let mut first_overloaded_at = None;
    for id in 1..=6 {
        let line = client.read_line().expect("every burst line answered");
        assert!(line.contains(&format!("\"id\":{id}")), "{line}");
        if line.contains("\"overloaded\"") {
            first_overloaded_at.get_or_insert_with(|| burst_started.elapsed());
            assert!(line.contains("\"detail\""), "carries the depth: {line}");
            kinds.push("overloaded");
        } else {
            assert!(line.contains("\"Score\""), "{line}");
            kinds.push("score");
        }
    }
    assert_eq!(
        kinds.iter().filter(|kind| **kind == "score").count(),
        2,
        "exactly the two admitted requests scored: {kinds:?}"
    );
    assert_eq!(service.net_stats().admissions_rejected, 4);
    // Bounded time: rejections were answered without waiting out the ~800ms
    // of queued slow scoring (pipelined responses flush after ticket 2, so
    // the observable bound includes the two admitted scores, not the queue).
    let waited = first_overloaded_at.expect("saw an overloaded response");
    assert!(waited < DEADLINE, "overloaded took {waited:?}");
}

#[test]
fn graceful_drain_answers_every_admitted_request_bit_identically() {
    let service = Arc::new(TaraService::with_workers(
        SlowEngine::new(Duration::from_millis(40)),
        registry(),
        2,
    ));
    let mut server = SocketServer::bind(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .expect("bind an OS-picked port");
    let addr = server.local_addr();

    // Two connections, five pipelined scores each, all admitted.
    let mut clients: Vec<ChaosClient> = (0..2).map(|_| ChaosClient::connect(addr)).collect();
    for (at, client) in clients.iter_mut().enumerate() {
        for n in 0..5_u64 {
            client.send_line(&score_request(at as u64 * 10 + n));
        }
    }
    wait_until("all ten requests admitted", || {
        service.net_stats().requests_admitted >= 10
    });

    // Drain mid-flight: nothing admitted may be dropped unanswered.
    server.begin_drain();
    let expected_score = service.handle(ServiceRequest::Score {
        db: "excavator".into(),
        config: "excavator".into(),
    });
    for (at, client) in clients.iter_mut().enumerate() {
        let lines = client.read_to_eof();
        assert_eq!(lines.len(), 5, "connection {at} answered fully: {lines:?}");
        for (n, line) in lines.iter().enumerate() {
            // Bit-identical to the in-process handle() at the stamped
            // generation (the corpus never changed, so generation 0 for all).
            let expected = encode_response(&WireResponse {
                id: at as u64 * 10 + n as u64,
                response: expected_score.clone(),
            });
            assert_eq!(line, &expected, "connection {at} line {n}");
        }
    }
    server.shutdown();
    let net = service.net_stats();
    assert_eq!(net.requests_admitted, net.requests_answered);
    assert_eq!(net.open_connections, 0);
}

/// A request still running when the drain's grace period ends is answered
/// `service-stopped` instead of being waited out, so the drain terminates,
/// and that answer is counted like any other.
#[test]
fn a_request_outliving_the_drain_grace_is_answered_service_stopped() {
    let service = Arc::new(TaraService::with_workers(
        SlowEngine::new(Duration::from_secs(2)),
        registry(),
        1,
    ));
    let config = NetConfig {
        drain_grace: Duration::from_millis(50),
        ..NetConfig::default()
    };
    let mut server = SocketServer::bind(Arc::clone(&service), "127.0.0.1:0", config)
        .expect("bind an OS-picked port");
    let mut client = ChaosClient::connect(server.local_addr());
    client.send_line(&score_request(7));
    wait_until("the score admitted", || {
        service.net_stats().requests_admitted >= 1
    });

    server.begin_drain();
    let lines = client.read_to_eof();
    assert_eq!(lines.len(), 1, "one answer, then close: {lines:?}");
    assert!(lines[0].contains("\"id\":7"), "{}", lines[0]);
    assert!(lines[0].contains("\"service-stopped\""), "{}", lines[0]);
    server.shutdown();
    let net = service.net_stats();
    assert_eq!(net.requests_admitted, net.requests_answered);
}

#[test]
fn subscribed_connections_get_deltas_and_a_final_draining_event() {
    let (service, mut server) = serve(NetConfig::default());
    let mut watcher = ChaosClient::connect(server.local_addr());
    watcher.send_line(&encode_request(&WireRequest {
        id: 70,
        request: ServiceRequest::Subscribe {
            spec: MonitorSpec {
                db: "excavator".into(),
                config: "excavator".into(),
                scenario: "dpf-tampering".into(),
                from_year: 2019,
                to_year: 2023,
                window_years: 2,
                alert_threshold: 0.25,
            },
        },
    }));
    let line = watcher.read_line().expect("subscription acknowledged");
    assert!(line.contains("\"Subscribed\""), "{line}");
    assert!(line.contains("\"generation\":0"), "{line}");

    // An ingest over a second connection pushes a delta to the watcher.
    let mut ingester = ChaosClient::connect(server.local_addr());
    ingester.send_line(&encode_request(&WireRequest {
        id: 71,
        request: ServiceRequest::Ingest {
            posts: scenario::excavator_europe(8).into_posts()[..40].to_vec(),
        },
    }));
    let line = ingester.read_line().expect("ingest acknowledged");
    assert!(line.contains("\"Ingested\""), "{line}");
    let line = watcher.read_line().expect("monitor delta pushed");
    assert!(line.contains("\"MonitorDelta\""), "{line}");
    assert!(line.contains("\"generation\":1"), "{line}");

    // Drain: the subscription is closed with an explicit final event.
    server.begin_drain();
    let lines = watcher.read_to_eof();
    let last = lines.last().expect("a final line before close");
    assert!(last.contains("\"Draining\""), "{lines:?}");
    assert!(last.contains("\"generation\":1"), "{last}");
    server.shutdown();

    // The scheduler-style sweep request surface also still answers over the
    // socket path (sanity: interception is limited to Subscribe/Schedule).
    let response = service.handle(ServiceRequest::Sweep {
        db: "excavator".into(),
        config: "excavator".into(),
        windows: WindowAxis::new().window(DateWindow::years(2019, 2021)),
    });
    assert!(matches!(response, ServiceResponse::Sweep { .. }));
}

/// The write half of an in-memory stream pair: the connection loop's writer
/// thread owns one clone, the test reads the lines back from another.
#[derive(Debug, Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl Write for SharedSink {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Serves `input` through the stdin-shaped transport until EOF and returns
/// every line written back.
fn serve_in_memory(service: &Arc<TaraService>, input: &[u8], config: NetConfig) -> Vec<String> {
    let sink = SharedSink::default();
    net::serve_stream(service, input, sink.clone(), config);
    let bytes = sink.0.lock().unwrap().clone();
    String::from_utf8(bytes)
        .expect("the loop writes UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

/// A served `LiveEngine` with `workers` pool threads.  One worker runs
/// requests strictly in submission order, which makes a transcript that
/// mixes ingests and reads deterministic.
fn fresh_service(workers: usize) -> Arc<TaraService> {
    Arc::new(TaraService::with_workers(
        LiveEngine::new(scenario::excavator_europe(7)),
        registry(),
        workers,
    ))
}

/// Splits a transcript into response lines and event lines, each in order.
/// Events are timed by the writer, so only their order among themselves is
/// fixed, not their position between responses.
fn responses_and_events(lines: &[String]) -> (Vec<&String>, Vec<&String>) {
    lines
        .iter()
        .partition(|line| !line.starts_with("{\"event\""))
}

#[test]
fn stdin_shape_and_tcp_answer_one_transcript_byte_identically() {
    const LIMIT: usize = 64 * 1024;
    let config = NetConfig {
        max_line_bytes: LIMIT,
        ..NetConfig::default()
    };
    let mut transcript = Vec::new();
    for line in [
        score_request(1),
        encode_request(&WireRequest {
            id: 2,
            request: ServiceRequest::Subscribe {
                spec: MonitorSpec {
                    db: "excavator".into(),
                    config: "excavator".into(),
                    scenario: "dpf-tampering".into(),
                    from_year: 2019,
                    to_year: 2023,
                    window_years: 2,
                    alert_threshold: 0.25,
                },
            },
        }),
        encode_request(&WireRequest {
            id: 3,
            request: ServiceRequest::Ingest {
                posts: scenario::excavator_europe(8).into_posts()[..40].to_vec(),
            },
        }),
        r#"{"id": 4, "request": {"Score": "#.to_string(),
        format!(r#"{{"id": 5, "pad": "{}"}}"#, "x".repeat(LIMIT)),
    ] {
        transcript.extend_from_slice(line.as_bytes());
        transcript.push(b'\n');
    }
    // A trailing unterminated line at EOF is still a request.
    transcript.extend_from_slice(score_request(6).as_bytes());

    let service = fresh_service(1);
    let piped = serve_in_memory(&service, &transcript, config.clone());
    let net = service.net_stats();
    assert_eq!(net.requests_admitted, net.requests_answered);

    let mut server = SocketServer::bind(fresh_service(1), "127.0.0.1:0", config)
        .expect("bind an OS-picked port");
    let mut client = ChaosClient::connect(server.local_addr());
    client.send_bytes(&transcript);
    client
        .stream
        .shutdown(Shutdown::Write)
        .expect("half-close the request side");
    let socket = client.read_to_eof();
    server.shutdown();

    let (responses, events) = responses_and_events(&piped);
    assert_eq!(
        responses_and_events(&socket),
        (responses.clone(), events.clone())
    );
    let kinds = [
        "\"Score\"",
        "\"Subscribed\"",
        "\"Ingested\"",
        "\"bad-request\"",
        "\"line-too-long\"",
        "\"Score\"",
    ];
    assert_eq!(responses.len(), kinds.len(), "{piped:?}");
    for (n, (line, kind)) in responses.iter().zip(kinds).enumerate() {
        assert!(line.starts_with(&format!("{{\"id\":{}", n + 1)), "{line}");
        assert!(line.contains(kind), "{line}");
    }
    assert_eq!(events.len(), 2, "{events:?}");
    assert!(events[0].contains("\"MonitorDelta\""), "{}", events[0]);
    assert!(events[1].contains("\"Draining\""), "{}", events[1]);
}

/// A writer that keeps every `write` call's bytes as a separate chunk.
#[derive(Debug, Clone, Default)]
struct ChunkSink(Arc<Mutex<Vec<Vec<u8>>>>);

impl Write for ChunkSink {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().push(bytes.to_vec());
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Each line — responses, pre-encoded error lines, events — leaves in one
/// `write` call with its newline, so a `TCP_NODELAY` socket never sends the
/// newline as a segment of its own; `bytes_out` still counts every byte.
#[test]
fn every_line_leaves_in_one_write_call() {
    let mut input = String::new();
    for line in [
        score_request(1),
        encode_request(&WireRequest {
            id: 2,
            request: ServiceRequest::Subscribe {
                spec: MonitorSpec {
                    db: "excavator".into(),
                    config: "excavator".into(),
                    scenario: "dpf-tampering".into(),
                    from_year: 2019,
                    to_year: 2023,
                    window_years: 2,
                    alert_threshold: 0.25,
                },
            },
        }),
        encode_request(&WireRequest {
            id: 3,
            request: ServiceRequest::Ingest {
                posts: scenario::excavator_europe(8).into_posts()[..10].to_vec(),
            },
        }),
        "{not json".to_string(),
        score_request(5),
    ] {
        input.push_str(&line);
        input.push('\n');
    }
    let service = fresh_service(1);
    let sink = ChunkSink::default();
    net::serve_stream(
        &service,
        input.as_bytes(),
        sink.clone(),
        NetConfig::default(),
    );
    let chunks = sink.0.lock().unwrap().clone();
    // Five responses, one monitor delta, one draining event.
    let lengths: Vec<usize> = chunks.iter().map(Vec::len).collect();
    assert_eq!(chunks.len(), 7, "write call lengths {lengths:?}");
    for chunk in &chunks {
        let line = String::from_utf8_lossy(chunk);
        assert!(line.ends_with('\n'), "unterminated chunk: {line}");
        assert_eq!(line.matches('\n').count(), 1, "one line per write: {line}");
    }
    let written: usize = lengths.iter().sum();
    assert_eq!(service.net_stats().bytes_out, written as u64);
}

#[test]
fn a_pipelined_stdin_burst_is_answered_in_order_without_overload() {
    let service = fresh_service(2);
    let burst: String = (0..500).map(|id| score_request(id) + "\n").collect();
    let lines = serve_in_memory(&service, burst.as_bytes(), NetConfig::default());
    assert_eq!(lines.len(), 500);
    for (id, line) in lines.iter().enumerate() {
        assert!(line.starts_with(&format!("{{\"id\":{id},")), "{line}");
        assert!(line.contains("\"Score\""), "{line}");
    }
    let net = service.net_stats();
    assert_eq!(net.admissions_rejected, 0);
    assert_eq!(net.requests_admitted, 500);
    assert_eq!(net.requests_admitted, net.requests_answered);
    assert_eq!(net.open_connections, 0);
}

#[test]
fn a_connection_schedule_clamps_its_interval_and_unschedules() {
    let service = fresh_service(1);
    let mut input = String::new();
    for (id, request) in [
        ServiceRequest::Schedule {
            every_ms: 0,
            request: Box::new(ServiceRequest::Status),
        },
        ServiceRequest::Unschedule { id: 1 },
        ServiceRequest::Unschedule { id: 1 },
    ]
    .into_iter()
    .enumerate()
    {
        input += &encode_request(&WireRequest {
            id: id as u64,
            request,
        });
        input.push('\n');
    }
    let lines = serve_in_memory(&service, input.as_bytes(), NetConfig::default());
    let (responses, _ticks) = responses_and_events(&lines);
    assert_eq!(responses.len(), 3, "{lines:?}");
    assert!(responses[0].contains("\"Scheduled\""), "{}", responses[0]);
    assert!(responses[0].contains("\"every_ms\":1"), "{}", responses[0]);
    assert!(responses[1].contains("\"Unscheduled\""), "{}", responses[1]);
    assert!(responses[2].contains("\"bad-request\""), "{}", responses[2]);
}

/// The monitor spec the registration tests subscribe with.
fn dpf_spec() -> MonitorSpec {
    MonitorSpec {
        db: "excavator".into(),
        config: "excavator".into(),
        scenario: "dpf-tampering".into(),
        from_year: 2019,
        to_year: 2023,
        window_years: 2,
        alert_threshold: 0.25,
    }
}

/// The `subscriptions` / `scheduled` counts a `Status` reports.
fn registrations(service: &TaraService) -> (usize, usize) {
    match service.handle(ServiceRequest::Status) {
        ServiceResponse::Status {
            subscriptions,
            scheduled,
            ..
        } => (subscriptions, scheduled),
        other => panic!("unexpected response: {other:?}"),
    }
}

/// A connection owns its registrations: once it has closed, `Status`
/// reports neither its subscription nor its hour-long job, with no ingest
/// or scheduler tick in between to prune them.
#[test]
fn a_closed_connection_drops_its_registrations_at_once() {
    let (service, mut server) = serve(NetConfig::default());
    let mut client = ChaosClient::connect(server.local_addr());
    for (id, request) in [
        ServiceRequest::Subscribe { spec: dpf_spec() },
        ServiceRequest::Schedule {
            every_ms: 3_600_000,
            request: Box::new(ServiceRequest::Status),
        },
    ]
    .into_iter()
    .enumerate()
    {
        client.send_line(&encode_request(&WireRequest {
            id: id as u64,
            request,
        }));
    }
    let subscribed = client.read_line().expect("subscription acknowledged");
    assert!(subscribed.contains("\"Subscribed\""), "{subscribed}");
    let scheduled = client.read_line().expect("job acknowledged");
    assert!(scheduled.contains("\"Scheduled\""), "{scheduled}");
    assert_eq!(registrations(&service), (1, 1));

    drop(client);
    wait_until("the connection to close", || {
        service.net_stats().open_connections == 0
    });
    assert_eq!(registrations(&service), (0, 0));
    server.shutdown();
}

/// The generation stamped on an event line.
fn event_generation(line: &str) -> u64 {
    match serde_json::from_str::<WireEvent>(line)
        .unwrap_or_else(|error| panic!("{error:?}: {line}"))
        .event
    {
        ServiceEvent::MonitorDelta { generation, .. } | ServiceEvent::Draining { generation } => {
            generation
        }
        other => panic!("unexpected event: {other:?}"),
    }
}

/// Push delivery needs no clock.  Over a stream pair served by two workers,
/// a subscriber pipelining ingests between scores gets exactly one delta
/// per ingest, in generation order, and the stream ends with `Draining`.
/// Only event lines are ordered by generation: on two workers a pipelined
/// response may stamp an older generation than a line before it.
#[test]
fn pipelined_ingests_push_one_delta_each_in_generation_order() {
    const INGESTS: usize = 6;
    let posts = scenario::excavator_europe(8).into_posts();
    let mut input = encode_request(&WireRequest {
        id: 0,
        request: ServiceRequest::Subscribe { spec: dpf_spec() },
    });
    input.push('\n');
    for (n, batch) in posts.chunks(20).take(INGESTS).enumerate() {
        let request = ServiceRequest::Ingest {
            posts: batch.to_vec(),
        };
        let id = 2 * n as u64 + 1;
        input += &encode_request(&WireRequest { id, request });
        input.push('\n');
        input += &score_request(id + 1);
        input.push('\n');
    }
    let service = fresh_service(2);
    let lines = serve_in_memory(&service, input.as_bytes(), NetConfig::default());

    let (responses, events) = responses_and_events(&lines);
    assert_eq!(responses.len(), 2 * INGESTS + 1, "{lines:?}");
    for (id, line) in responses.iter().enumerate() {
        assert!(line.starts_with(&format!("{{\"id\":{id},")), "{line}");
    }
    assert_eq!(events.len(), INGESTS + 1, "{events:?}");
    let (draining, deltas) = events.split_last().expect("events were pushed");
    for delta in deltas {
        assert!(delta.contains("\"MonitorDelta\""), "{delta}");
    }
    let generations: Vec<u64> = deltas.iter().map(|line| event_generation(line)).collect();
    assert_eq!(generations, (1..=INGESTS as u64).collect::<Vec<_>>());
    assert!(draining.contains("\"Draining\""), "{draining}");
    assert_eq!(event_generation(draining), INGESTS as u64);
    assert_eq!(lines.last(), Some(*draining), "Draining is the last line");
}
