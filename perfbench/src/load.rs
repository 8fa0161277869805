//! Load generators: socket clients speaking the line-JSON wire, and the
//! embedded deadline-bearing client.

use crate::daemon::{matrix_request, monitor_spec, score_request, sweep_request};
use crate::lines::{classify, error_kind, Line};
use psp::service::wire::{encode_request, WireRequest};
use psp::service::{ServiceRequest, ServiceResponse, TaraService};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Longest a client waits for one line before counting the connection as
/// failed; no healthy request comes near it.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Deadline the embedded client attaches to every request.
pub const EMBEDDED_DEADLINE: Duration = Duration::from_secs(10);
/// How often a waiting subscriber checks whether the feed has finished.
const POLL: Duration = Duration::from_millis(20);
/// `final_generation` before the feeder has finished.
pub const UNKNOWN: u64 = u64::MAX;
/// How often the daemon's connection writer polls for push events when it
/// has no response to write (`TICK` in `psp::service::net`).
const EVENT_POLL: Duration = Duration::from_millis(25);

/// A request kind the workloads send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Score,
    Sweep,
    Matrix,
    Ingest,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Score, Kind::Sweep, Kind::Matrix, Kind::Ingest];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Score => "score",
            Kind::Sweep => "sweep",
            Kind::Matrix => "matrix",
            Kind::Ingest => "ingest",
        }
    }

    /// The response variant that answers this kind.
    pub fn response(self) -> &'static str {
        match self {
            Kind::Score => "Score",
            Kind::Sweep => "Sweep",
            Kind::Matrix => "Matrix",
            Kind::Ingest => "Ingested",
        }
    }

    /// The read request of this kind (`Ingest` carries its own posts).
    pub fn read_request(self) -> ServiceRequest {
        match self {
            Kind::Score => score_request(),
            Kind::Sweep => sweep_request(),
            _ => matrix_request(),
        }
    }
}

/// A small seeded generator (SplitMix64): the benchmark's only randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// An endless sequence of `kinds` in equal shares: each block holds every
/// kind once, in a fresh seeded random order or, when fixed, in the order
/// given.
#[derive(Debug, Clone)]
pub struct Mix {
    rng: Option<Rng>,
    kinds: Vec<Kind>,
    block: Vec<Kind>,
}

impl Mix {
    pub fn new(seed: u64, kinds: &[Kind]) -> Self {
        Self {
            rng: Some(Rng::new(seed)),
            kinds: kinds.to_vec(),
            block: Vec::new(),
        }
    }

    pub fn fixed(kinds: &[Kind]) -> Self {
        Self {
            rng: None,
            kinds: kinds.to_vec(),
            block: Vec::new(),
        }
    }

    /// Reads per block: one of every kind.
    pub fn block_len(&self) -> usize {
        self.kinds.len()
    }
}

impl Iterator for Mix {
    type Item = Kind;

    fn next(&mut self) -> Option<Kind> {
        if self.block.is_empty() {
            self.block = self.kinds.clone();
            match &mut self.rng {
                Some(rng) => {
                    for i in (1..self.block.len()).rev() {
                        let j = rng.below(i + 1);
                        self.block.swap(i, j);
                    }
                }
                // Blocks are popped from the back.
                None => self.block.reverse(),
            }
        }
        self.block.pop()
    }
}

/// Pre-encoded request bodies, so the clients spend no time serialising.
#[derive(Debug, Clone)]
pub struct Bodies {
    score: String,
    sweep: String,
    matrix: String,
}

impl Bodies {
    pub fn new() -> Self {
        let body = |request: ServiceRequest| {
            serde_json::to_string(&request).expect("service requests serialise")
        };
        Self {
            score: body(score_request()),
            sweep: body(sweep_request()),
            matrix: body(matrix_request()),
        }
    }

    /// The wire line of read `kind` with correlation id `id`.
    pub fn line(&self, kind: Kind, id: u64) -> String {
        let body = match kind {
            Kind::Score => &self.score,
            Kind::Sweep => &self.sweep,
            _ => &self.matrix,
        };
        request_line(body, id)
    }
}

/// A wire request line from a pre-encoded request body; identical to
/// `encode_request` of the same request.
pub fn request_line(body: &str, id: u64) -> String {
    format!("{{\"id\":{id},\"request\":{body}}}")
}

/// Requests attempted and failed, and correctness violations seen.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failed <= 8 {
            eprintln!("perfbench: failed request: {what}");
        }
    }
}

/// Latency samples in milliseconds, by kind.
#[derive(Debug, Default)]
pub struct Samples(pub BTreeMap<Kind, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, kind: Kind, ms: f64) {
        self.0.entry(kind).or_default().push(ms);
    }

    pub fn get(&self, kind: Kind) -> &[f64] {
        self.0.get(&kind).map_or(&[], Vec::as_slice)
    }

    pub fn merge(&mut self, other: Samples) {
        for (kind, samples) in other.0 {
            self.0.entry(kind).or_default().extend(samples);
        }
    }

    pub fn reads(&self) -> usize {
        [Kind::Score, Kind::Sweep, Kind::Matrix]
            .iter()
            .map(|kind| self.get(*kind).len())
            .sum()
    }
}

pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// One client connection, line-buffered both ways.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The line being read.  A read that times out leaves its partial line
    /// here for the next call to finish.
    line: Vec<u8>,
    complete: bool,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: Vec::new(),
            complete: false,
        })
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed)
    }

    /// The next line, without its newline.
    pub fn recv(&mut self) -> io::Result<&str> {
        if std::mem::take(&mut self.complete) {
            self.line.clear();
        }
        self.reader.read_until(b'\n', &mut self.line)?;
        if self.line.last() != Some(&b'\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        self.complete = true;
        std::str::from_utf8(&self.line[..self.line.len() - 1])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "a line is not UTF-8"))
    }

    /// Sends one request line and returns its response line, handing any
    /// push event read on the way to `deltas`.
    pub fn request(&mut self, line: &str, deltas: Option<&Deltas>) -> io::Result<String> {
        self.send(line)?;
        loop {
            let line = self.recv()?;
            match classify(line) {
                Line::Event { kind, generation } => {
                    if let Some(deltas) = deltas {
                        deltas.arrived(kind, generation, Instant::now());
                    }
                }
                _ => return Ok(line.to_string()),
            }
        }
    }

    /// Reads at most one line under the socket's current read timeout and
    /// records it if it is a push event; a timeout is not an error.
    fn pump(&mut self, deltas: &Deltas) -> io::Result<()> {
        match self.recv() {
            Ok(line) => {
                if let Line::Event { kind, generation } = classify(line) {
                    deltas.arrived(kind, generation, Instant::now());
                }
                Ok(())
            }
            Err(error)
                if matches!(
                    error.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(())
            }
            Err(error) => Err(error),
        }
    }

    /// Reads push events until a delta newer than `generation` is in, or
    /// until `deadline`.
    fn await_newer(
        &mut self,
        deltas: &Deltas,
        generation: u64,
        deadline: Instant,
    ) -> io::Result<()> {
        self.writer.set_read_timeout(Some(POLL))?;
        while deltas.latest() <= generation && Instant::now() < deadline {
            self.pump(deltas)?;
        }
        self.writer.set_read_timeout(Some(READ_TIMEOUT))
    }

    /// Registers the standard monitor on this connection.
    pub fn subscribe(&mut self, id: u64) -> Result<(), String> {
        let line = encode_request(&WireRequest {
            id,
            request: ServiceRequest::Subscribe {
                spec: monitor_spec(),
            },
        });
        let response = self
            .request(&line, None)
            .map_err(|error| format!("subscribe: {error}"))?;
        match classify(&response) {
            Line::Response {
                kind: "Subscribed", ..
            } => Ok(()),
            _ => Err(format!("subscribe answered {}", head(&response))),
        }
    }
}

fn head(line: &str) -> &str {
    let mut end = line.len().min(160);
    while !line.is_char_boundary(end) {
        end -= 1;
    }
    &line[..end]
}

/// Checks one response line against the request it answers: whether it is
/// a good answer.  An error answer counts a failure; any other wrong line,
/// or a generation older than the connection's last, is a violation.
fn check(line: &str, id: u64, kind: Kind, last_generation: &mut u64, tally: &mut Tally) -> bool {
    match classify(line) {
        Line::Response {
            id: got,
            kind: variant,
            generation,
        } if got == id && variant == kind.response() => {
            let generation = generation.unwrap_or(0);
            if generation < *last_generation {
                tally.violations.push(format!(
                    "{} answered generation {generation} after {}",
                    kind.name(),
                    last_generation
                ));
            }
            *last_generation = generation;
            true
        }
        Line::Response {
            id: got,
            kind: "Error" | "Expired",
            ..
        } if got == id => {
            tally.fail(format!(
                "{} #{id}: {}",
                kind.name(),
                error_kind(line).unwrap_or("expired")
            ));
            false
        }
        _ => {
            tally.violations.push(format!(
                "{} #{id} answered with an unexpected line: {}",
                kind.name(),
                head(line)
            ));
            false
        }
    }
}

/// Push deltas received on one subscribed connection.
#[derive(Debug, Default)]
pub struct Deltas {
    /// Arrival instant by stamped generation.
    arrivals: Mutex<BTreeMap<u64, Instant>>,
    /// Deltas received in total (a duplicate generation counts twice).
    received: AtomicUsize,
    /// Deltas whose generation did not advance past the previous one.
    regressions: AtomicUsize,
    last: AtomicU64,
}

impl Deltas {
    fn arrived(&self, kind: &str, generation: Option<u64>, at: Instant) {
        if kind != "MonitorDelta" {
            return;
        }
        let generation = generation.unwrap_or(0);
        self.received.fetch_add(1, Ordering::SeqCst);
        if generation <= self.last.swap(generation, Ordering::SeqCst) {
            self.regressions.fetch_add(1, Ordering::SeqCst);
        }
        self.arrivals
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(generation)
            .or_insert(at);
    }

    pub fn arrival(&self, generation: u64) -> Option<Instant> {
        self.arrivals
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&generation)
            .copied()
    }

    /// The newest generation a delta has announced.
    pub fn latest(&self) -> u64 {
        self.last.load(Ordering::SeqCst)
    }

    pub fn received(&self) -> usize {
        self.received.load(Ordering::SeqCst)
    }

    pub fn regressions(&self) -> usize {
        self.regressions.load(Ordering::SeqCst)
    }
}

/// A closed-loop reader on one persistent connection: sends the next read
/// of `mix` as soon as the previous answer is in, until `deadline`.  On a
/// subscribed connection (`deltas` given) each block of the mix (one read of
/// every kind) first waits for a delta newer than the previous read's
/// generation, so every generation is read once of each kind, right after
/// it is published.
pub fn closed_loop(
    conn: &mut Conn,
    mix: Mix,
    bodies: &Bodies,
    deadline: Instant,
    first_id: u64,
    deltas: Option<&Deltas>,
) -> (Samples, Tally) {
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let mut last_generation = 0;
    let block = mix.block_len();
    for (n, (id, kind)) in (first_id..).zip(mix).enumerate() {
        let paced = match deltas {
            Some(deltas) if n % block == 0 => conn.await_newer(deltas, last_generation, deadline),
            _ => Ok(()),
        };
        if Instant::now() >= deadline {
            break;
        }
        tally.attempted += 1;
        let sent = Instant::now();
        let answer = paced.and_then(|()| conn.request(&bodies.line(kind, id), deltas));
        match answer {
            Ok(response) => {
                let elapsed = ms(sent.elapsed());
                if check(&response, id, kind, &mut last_generation, &mut tally) {
                    samples.push(kind, elapsed);
                }
            }
            Err(error) => {
                tally.fail(format!("{} #{id}: {error}", kind.name()));
                break;
            }
        }
    }
    (samples, tally)
}

/// Reads push events on a subscribed connection until the delta for
/// `final_generation` is in, once the feeder has published it (it is
/// [`UNKNOWN`] until then; `0` means nothing was acknowledged).  Reads with a
/// short timeout meanwhile, so each delta is timed when it arrives.
pub fn await_deltas(conn: &mut Conn, deltas: &Deltas, final_generation: &AtomicU64) {
    if conn.writer.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut known_since = None;
    loop {
        let target = final_generation.load(Ordering::SeqCst);
        if target != UNKNOWN {
            let since = *known_since.get_or_insert_with(Instant::now);
            if target == 0 || deltas.arrival(target).is_some() || since.elapsed() > READ_TIMEOUT {
                return; // Missing deltas are counted by the caller.
            }
        }
        if conn.pump(deltas).is_err() {
            return;
        }
    }
}

/// Reads from a fresh connection per request: connect, send `Score`, read
/// the answer, close — the cost a short-lived client pays.
pub fn connect_per_request(
    addr: SocketAddr,
    bodies: &Bodies,
    deadline: Instant,
    first_id: u64,
) -> (Samples, Tally) {
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let mut last_generation = 0;
    for id in first_id.. {
        if Instant::now() >= deadline {
            break;
        }
        tally.attempted += 1;
        let started = Instant::now();
        let answer =
            Conn::open(addr).and_then(|mut conn| conn.request(&bodies.line(Kind::Score, id), None));
        match answer {
            Ok(response) => {
                let elapsed = ms(started.elapsed());
                if check(&response, id, Kind::Score, &mut last_generation, &mut tally) {
                    samples.push(Kind::Score, elapsed);
                }
            }
            Err(error) => tally.fail(format!("score #{id}: {error}")),
        }
    }
    (samples, tally)
}

/// An embedded caller: `mix` reads through `submit_with_deadline`, each
/// timed from submission to the answer.
pub fn embedded(service: &TaraService, mix: Mix, deadline: Instant) -> (Samples, Tally) {
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let mut last_generation = 0;
    for kind in mix {
        if Instant::now() >= deadline {
            break;
        }
        tally.attempted += 1;
        let submitted = Instant::now();
        let response = service
            .submit_with_deadline(kind.read_request(), EMBEDDED_DEADLINE)
            .wait();
        let elapsed = ms(submitted.elapsed());
        let generation = match (&response, kind) {
            (ServiceResponse::Sweep { generation, .. }, Kind::Sweep)
            | (ServiceResponse::Matrix { generation, .. }, Kind::Matrix)
            | (ServiceResponse::Score { generation, .. }, Kind::Score) => *generation,
            (ServiceResponse::Expired { waited_ms }, _) => {
                tally.fail(format!(
                    "embedded {} expired after {waited_ms} ms",
                    kind.name()
                ));
                continue;
            }
            (other, _) => {
                tally.fail(format!("embedded {} answered {other:?}", kind.name()));
                continue;
            }
        };
        if generation < last_generation {
            tally.violations.push(format!(
                "embedded {} answered generation {generation} after {last_generation}",
                kind.name()
            ));
        }
        last_generation = generation;
        samples.push(kind, elapsed);
    }
    (samples, tally)
}

/// What an open-loop feed did.
#[derive(Debug, Default)]
pub struct FeedLog {
    /// Per batch: when it was due, and the ack's instant and generation.
    pub batches: Vec<(Instant, Option<(Instant, u64)>)>,
    /// How late the generator sent each batch, ms.
    pub late_ms: Vec<f64>,
    /// Checkpoint latencies, ms, from send to answer.
    pub checkpoint_ms: Vec<f64>,
    /// Batches sent but not yet acknowledged when the last one was sent.
    pub backlog_at_end: usize,
    pub tally: Tally,
}

/// When batch `i` of an open-loop feed at `rate` per second is due, as an
/// offset from the feed's start: slot `i` of a fixed grid plus a seeded
/// jitter of up to one [`EVENT_POLL`].  A subscriber's delta waits for the
/// daemon's next event poll; on a bare grid every batch met that poll at
/// about the same phase, so a whole run drew one wait, between 0 and 25 ms.
/// The jitter gives each batch a fresh phase.
pub fn due_offsets(count: usize, rate: f64, seed: u64) -> Vec<Duration> {
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|i| {
            let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            Duration::from_secs_f64(i as f64 / rate) + EVENT_POLL.mul_f64(unit)
        })
        .collect()
}

/// Sends `batches` (pre-encoded ingest lines, ids `1..`) on one connection
/// in an open loop at `rate` per second on the schedule of [`due_offsets`],
/// plus a `Checkpoint` after every `checkpoint_every` batches; a paired
/// reader collects the answers.
pub fn open_loop_feed(
    addr: SocketAddr,
    batches: &[String],
    rate: f64,
    seed: u64,
    checkpoint_every: Option<usize>,
) -> FeedLog {
    let mut log = FeedLog::default();
    let checkpoints = checkpoint_every.map_or(0, |every| batches.len() / every);
    let expected = batches.len() + checkpoints;
    log.tally.attempted = expected as u64;
    let (mut conn, mut writer) = match Conn::open(addr).and_then(|conn| {
        let writer = conn.writer.try_clone()?;
        Ok((conn, writer))
    }) {
        Ok(pair) => pair,
        Err(error) => {
            eprintln!("perfbench: feed connection failed: {error}");
            log.tally.failed = log.tally.attempted;
            return log;
        }
    };
    let acked = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let due: Vec<Instant> = due_offsets(batches.len(), rate, seed)
        .into_iter()
        .map(|offset| start + offset)
        .collect();
    let (answers, sent_checkpoints) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut answers: Vec<(String, Instant)> = Vec::with_capacity(expected);
            while answers.len() < expected {
                match conn.recv() {
                    Ok(line) => {
                        let at = Instant::now();
                        if !line.starts_with("{\"event\"") {
                            answers.push((line.to_string(), at));
                            acked.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    Err(_) => break,
                }
            }
            answers
        });
        let mut sent_checkpoints = Vec::new();
        for (i, line) in batches.iter().enumerate() {
            let now = Instant::now();
            if now < due[i] {
                std::thread::sleep(due[i] - now);
            }
            log.late_ms
                .push(ms(Instant::now().saturating_duration_since(due[i])));
            let mut framed = line.clone().into_bytes();
            framed.push(b'\n');
            if writer.write_all(&framed).is_err() {
                break;
            }
            if checkpoint_every.is_some_and(|every| (i + 1) % every == 0) {
                let id = 1_000_000 + i as u64;
                sent_checkpoints.push((id, Instant::now()));
                let line = request_line("\"Checkpoint\"", id);
                if writer.write_all(format!("{line}\n").as_bytes()).is_err() {
                    break;
                }
            }
        }
        log.backlog_at_end =
            (batches.len() + sent_checkpoints.len()).saturating_sub(acked.load(Ordering::SeqCst));
        (reader.join().unwrap_or_default(), sent_checkpoints)
    });

    let mut answers = answers.into_iter();
    let mut last_generation = 0;
    let mut checkpoint_sends = sent_checkpoints.into_iter();
    for (i, &due_at) in due.iter().enumerate() {
        let id = i as u64 + 1;
        let ack = match answers.next() {
            Some((line, at)) => check(
                &line,
                id,
                Kind::Ingest,
                &mut last_generation,
                &mut log.tally,
            )
            .then_some((at, last_generation)),
            None => {
                log.tally.fail(format!("ingest #{id}: no answer"));
                None
            }
        };
        log.batches.push((due_at, ack));
        if checkpoint_every.is_some_and(|every| (i + 1) % every == 0) {
            match (answers.next(), checkpoint_sends.next()) {
                (Some((line, at)), Some((cid, sent_at))) => {
                    if matches!(classify(&line), Line::Response { id: got, kind: "Checkpointed", .. } if got == cid)
                    {
                        log.checkpoint_ms.push(ms(at - sent_at));
                    } else {
                        log.tally
                            .fail(format!("checkpoint #{cid}: {}", head(&line)));
                    }
                }
                _ => log.tally.fail("checkpoint: no answer".into()),
            }
        }
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pre_encoded_lines_match_the_wire_encoder() {
        let bodies = Bodies::new();
        for kind in [Kind::Score, Kind::Sweep, Kind::Matrix] {
            let expected = encode_request(&WireRequest {
                id: 42,
                request: kind.read_request(),
            });
            assert_eq!(bodies.line(kind, 42), expected);
        }
        let checkpoint = encode_request(&WireRequest {
            id: 7,
            request: ServiceRequest::Checkpoint,
        });
        assert_eq!(request_line("\"Checkpoint\"", 7), checkpoint);
    }

    #[test]
    fn mixes_are_seeded_equal_shares() {
        let kinds = [Kind::Score, Kind::Sweep, Kind::Matrix];
        let first: Vec<Kind> = Mix::new(9, &kinds).take(300).collect();
        assert_eq!(first, Mix::new(9, &kinds).take(300).collect::<Vec<_>>());
        assert_ne!(first, Mix::new(10, &kinds).take(300).collect::<Vec<_>>());
        for kind in kinds {
            assert_eq!(first.iter().filter(|k| **k == kind).count(), 100);
        }
    }

    #[test]
    fn fixed_mixes_repeat_the_given_order() {
        let kinds = [Kind::Score, Kind::Sweep, Kind::Matrix];
        let mix: Vec<Kind> = Mix::fixed(&kinds).take(9).collect();
        assert_eq!(mix, [kinds, kinds, kinds].concat());
    }

    #[test]
    fn due_times_are_seeded_and_jittered_within_one_poll() {
        let due = due_offsets(200, 20.0, 3);
        assert_eq!(due, due_offsets(200, 20.0, 3));
        assert_ne!(due, due_offsets(200, 20.0, 4));
        let mut phases = [0usize; 5];
        for (i, offset) in due.iter().enumerate() {
            let slot = Duration::from_secs_f64(i as f64 / 20.0);
            let jitter = *offset - slot;
            assert!(jitter < EVENT_POLL, "batch {i} jittered by {jitter:?}");
            phases[(jitter.as_secs_f64() / EVENT_POLL.as_secs_f64() * 5.0) as usize] += 1;
        }
        // Every fifth of the poll interval gets a share of the batches.
        assert!(phases.iter().all(|&n| n >= 20), "{phases:?}");
    }
}
