//! The wire transport: one connection loop serving line-JSON over any
//! reader/writer pair, with overload protection as a first-class design
//! constraint.
//!
//! Every transport runs the same loop — one reader/writer pipelining pair
//! per connection over the transport-agnostic [`wire`] format.  A
//! [`SocketServer`] accepts up to [`NetConfig::max_connections`] concurrent
//! TCP connections and runs the loop on each; [`serve_stream`] runs it on a
//! single pair (the stdin daemon's stdin/stdout) until end of stream.
//! Everything that can go wrong with a real peer is bounded:
//!
//! * **Admission control.**  A bounded admission window sits in front of
//!   [`TaraService::submit`]: at most [`NetConfig::admission_capacity`]
//!   requests may be in flight (admitted but not yet answered to the peer)
//!   across all connections.  A request arriving beyond that answers a
//!   structured `overloaded` error — carrying the current depth — immediately,
//!   instead of queueing unboundedly.
//! * **Bounded lines.**  A line longer than [`NetConfig::max_line_bytes`] is
//!   discarded as it streams in (the line scanner never buffers more than
//!   the limit) and answered with a `line-too-long` error; the connection
//!   survives and the next line is served normally.  At end of stream a
//!   trailing unterminated line is still answered.
//! * **Deadlines and reaping (TCP).**  Socket reads time out on a short
//!   tick, so the reader sees a drain and reaps a connection idle longer
//!   than [`NetConfig::idle_timeout`] — including half-open sockets whose
//!   peer vanished.  The writer never ticks: it blocks on its inbox alone.
//!   Socket writes carry [`NetConfig::write_timeout`]: a consumer too slow
//!   to drain its responses is disconnected rather than ever back-pressuring
//!   the worker pool or the service (ticket channels are unbounded
//!   one-shots and push events take no write-queue slot, so a stalled socket
//!   never blocks a worker, an ingest or the scheduler).  A blocking stream
//!   pair has no timeouts: it is never reaped, and a slow writer
//!   back-pressures its own intake through the bounded write queue.
//! * **Connection cap.**  Beyond `max_connections`, a new connection is
//!   answered with one `connection-limit` error line and closed.
//! * **Graceful drain.**  [`SocketServer::begin_drain`] (the SIGTERM path)
//!   or end of stream stops the reader from taking new requests, lets every
//!   already-admitted request finish and write its response, pushes a final
//!   [`ServiceEvent::Draining`] line to subscribed connections, and closes.
//!   [`NetMetrics`] counts admitted vs answered requests so tests (and
//!   operators) can prove no accepted request was dropped unanswered.
//!
//! Subscriptions ([`ServiceRequest::Subscribe`] / `Schedule`) are intercepted
//! by the loop and registered with the requesting connection's own inbox as
//! their event sink, so push events flow only to the peer that asked for
//! them, and they wake its writer exactly like a response does.  The
//! connection owns its registrations: when it closes, or its writer hits a
//! fatal write error, the writer removes them at once (a fence: no event
//! arrives after the removal), writes the events already queued, and ends
//! with [`ServiceEvent::Draining`] if any registration was still live.

use super::wire::{self, WireRequest, WireResponse};
use super::{lock, EventSink, ServiceEvent, ServiceRequest, ServiceResponse, TaraService};
use crate::engine::StreamingScorer;
use crate::error::PspError;
use serde::{Deserialize, Serialize};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a blocked socket read wakes up to check the drain flag and the
/// idle deadline.  It also paces `wait_ticket`'s drain re-check and the
/// back-off after an accept error; nothing else on the serving path ticks.
const TICK: Duration = Duration::from_millis(25);

/// Tuning knobs for the connection loop, on a [`SocketServer`] or a
/// [`serve_stream`] pair.  The defaults are deliberately conservative; every
/// limit exists so a hostile or broken peer costs a bounded amount of memory
/// and time.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Concurrent connections served; further connects get one
    /// `connection-limit` error line and are closed.
    pub max_connections: usize,
    /// Requests admitted (submitted to the pool, response not yet written)
    /// across all connections; beyond it requests answer `overloaded`.
    pub admission_capacity: usize,
    /// Per-line byte cap; longer lines answer `line-too-long`.
    pub max_line_bytes: usize,
    /// A connection with no readable bytes for this long is reaped (covers
    /// half-open peers that will never speak again).
    pub idle_timeout: Duration,
    /// A single response/event write slower than this disconnects the
    /// consumer (slow consumers never block the service).
    pub write_timeout: Duration,
    /// Reader messages (responses and error lines) queued per connection
    /// between reader and writer; push events are not counted.
    pub write_queue: usize,
    /// During drain, how long a writer keeps waiting for in-flight tickets
    /// before answering them with a `service-stopped` error and closing.
    pub drain_grace: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            admission_capacity: 128,
            max_line_bytes: 1 << 20,
            idle_timeout: Duration::from_secs(300),
            write_timeout: Duration::from_secs(10),
            write_queue: 64,
            drain_grace: Duration::from_secs(30),
        }
    }
}

/// Live transport counters, shared between the connection loops and the
/// owning service (whose `Status` response reports them).
#[derive(Debug, Default)]
pub struct NetMetrics {
    open: AtomicUsize,
    peak: AtomicUsize,
    connections_rejected: AtomicU64,
    admissions_rejected: AtomicU64,
    reaped_idle: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    requests_admitted: AtomicU64,
    requests_answered: AtomicU64,
}

impl NetMetrics {
    /// A serializable point-in-time snapshot (the `Status` response's `net`
    /// block).
    #[must_use]
    pub fn status(&self) -> NetStatus {
        NetStatus {
            open_connections: self.open.load(Ordering::SeqCst),
            peak_connections: self.peak.load(Ordering::SeqCst),
            connections_rejected: self.connections_rejected.load(Ordering::SeqCst),
            admissions_rejected: self.admissions_rejected.load(Ordering::SeqCst),
            reaped_idle: self.reaped_idle.load(Ordering::SeqCst),
            bytes_in: self.bytes_in.load(Ordering::SeqCst),
            bytes_out: self.bytes_out.load(Ordering::SeqCst),
            requests_admitted: self.requests_admitted.load(Ordering::SeqCst),
            requests_answered: self.requests_answered.load(Ordering::SeqCst),
        }
    }

    fn connection_opened(&self) -> usize {
        let open = self.open.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(open, Ordering::SeqCst);
        open
    }

    fn connection_closed(&self) {
        self.open.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The transport block of the `Status` response, summed over every
/// connection the service has served — TCP connections and
/// [`serve_stream`] pairs alike; all zero before the first one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetStatus {
    /// Connections currently being served.
    pub open_connections: usize,
    /// Most connections ever served at once.
    pub peak_connections: usize,
    /// Connections rejected at the connection cap.
    pub connections_rejected: u64,
    /// Requests rejected with `overloaded` at the admission window.
    pub admissions_rejected: u64,
    /// Connections reaped for exceeding the idle timeout.
    pub reaped_idle: u64,
    /// Bytes read from all connections.
    pub bytes_in: u64,
    /// Bytes written to all connections.
    pub bytes_out: u64,
    /// Requests admitted past the admission window (submitted to the pool).
    pub requests_admitted: u64,
    /// Admitted requests whose response line was written back.
    pub requests_answered: u64,
}

/// One scanned unit out of a [`LineScanner`].
#[derive(Debug)]
pub(crate) enum ScannedLine {
    /// A complete line (without its newline), decoded lossily from UTF-8 —
    /// invalid sequences become U+FFFD and fail request parsing with a
    /// structured error instead of killing the transport.
    Line(String),
    /// A line that exceeded the scanner's byte limit and was discarded as it
    /// streamed in.  `prefix` holds the first bytes (lossily decoded,
    /// bounded by the limit) so an error response can still echo a legible
    /// correlation id.
    TooLong {
        /// The retained head of the oversized line.
        prefix: String,
    },
}

/// Splits a byte stream into newline-terminated lines without ever buffering
/// more than its configured limit: the bounded-intake half of the connection
/// reader.
#[derive(Debug)]
pub(crate) struct LineScanner {
    limit: usize,
    buffer: Vec<u8>,
    /// Set while discarding the tail of an oversized line (until the next
    /// newline); the buffered prefix is frozen for id recovery.
    skipping: bool,
}

impl LineScanner {
    /// A scanner that accepts lines up to `limit` bytes (clamped ≥ 1).
    #[must_use]
    pub(crate) fn new(limit: usize) -> Self {
        Self {
            limit: limit.max(1),
            buffer: Vec::new(),
            skipping: false,
        }
    }

    /// Feeds a chunk of raw bytes; returns every line completed by it, in
    /// order.
    pub(crate) fn push(&mut self, chunk: &[u8]) -> Vec<ScannedLine> {
        let mut out = Vec::new();
        for &byte in chunk {
            if byte == b'\n' {
                let line = String::from_utf8_lossy(&self.buffer).into_owned();
                self.buffer.clear();
                if self.skipping {
                    self.skipping = false;
                    out.push(ScannedLine::TooLong { prefix: line });
                } else {
                    out.push(ScannedLine::Line(line));
                }
            } else if !self.skipping {
                if self.buffer.len() >= self.limit {
                    // Freeze the prefix for id recovery and discard the rest
                    // of the line as it streams in.
                    self.skipping = true;
                } else {
                    self.buffer.push(byte);
                }
            }
        }
        out
    }

    /// Flushes a trailing unterminated line at end of stream, if any.
    #[must_use]
    pub(crate) fn finish(&mut self) -> Option<ScannedLine> {
        if self.buffer.is_empty() && !self.skipping {
            return None;
        }
        let line = String::from_utf8_lossy(&self.buffer).into_owned();
        self.buffer.clear();
        if std::mem::take(&mut self.skipping) {
            Some(ScannedLine::TooLong { prefix: line })
        } else {
            Some(ScannedLine::Line(line))
        }
    }
}

/// State shared by the acceptor and every connection thread.
#[derive(Debug)]
struct Shared {
    config: NetConfig,
    metrics: Arc<NetMetrics>,
    draining: AtomicBool,
    /// Requests admitted but not yet written back, across all connections —
    /// the admission window's occupancy.
    pending: AtomicUsize,
}

/// RAII occupancy of one admission slot; dropping it (response written, or
/// the connection died with the request in flight) frees the slot.
#[derive(Debug)]
struct AdmissionPermit {
    shared: Arc<Shared>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        self.shared.pending.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Shared {
    /// Fresh transport state reporting into `service`'s `Status` counters.
    fn new<E>(service: &TaraService<E>, config: NetConfig) -> Arc<Self>
    where
        E: StreamingScorer + Clone + Send + Sync + 'static,
    {
        Arc::new(Self {
            config,
            metrics: Arc::clone(&service.state.net),
            draining: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
        })
    }

    /// Tries to occupy one admission slot; `Err` carries the observed depth
    /// for the `overloaded` answer.
    fn admit(self: &Arc<Self>) -> Result<AdmissionPermit, usize> {
        let mut current = self.pending.load(Ordering::SeqCst);
        loop {
            if current >= self.config.admission_capacity {
                return Err(current);
            }
            match self.pending.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    return Ok(AdmissionPermit {
                        shared: Arc::clone(self),
                    })
                }
                Err(observed) => current = observed,
            }
        }
    }
}

/// One message into a connection's writer, which takes them in FIFO order:
/// that is what makes pipelining answer in submission order.  Each message
/// from the reader holds one of the connection's [`NetConfig::write_queue`]
/// slots until the writer takes it; push events take none, so the service
/// never waits on a slow peer.
enum Outbound {
    /// A pre-encoded line (answers the reader produced itself).
    Line(String),
    /// An admitted request: the writer waits the ticket and writes the
    /// response, holding the admission slot until the line is out.
    Ticket {
        id: u64,
        ticket: super::runtime::Ticket,
        permit: AdmissionPermit,
    },
    /// A push event for one of this connection's registrations.
    Event(ServiceEvent),
    /// The reader is done; sent when its [`Outbox`] drops.
    Close,
}

/// What a connection's reader and writer share besides the inbox.
#[derive(Default)]
struct Link {
    /// The subscriptions and scheduled jobs registered on the connection, as
    /// `(id, is_job)`; the writer removes them when it closes.
    registrations: Mutex<Vec<(u64, bool)>>,
    /// Set by the writer as it closes: the reader stops feeding a dead peer,
    /// and a registration made after that is removed at once.
    closed: AtomicBool,
}

/// The reader's end of a connection.  Dropping it — end of stream, drain, a
/// dead writer, a panic — sends the writer [`Outbound::Close`]; the writer
/// cannot wait for a disconnect, because registrations hold inbox senders.
struct Outbox {
    inbox: mpsc::Sender<Outbound>,
    slots: mpsc::SyncSender<()>,
    link: Arc<Link>,
}

impl Outbox {
    /// A sink pushing a registration's events into this connection's inbox.
    fn sink(&self) -> EventSink {
        let inbox = self.inbox.clone();
        EventSink(Box::new(move |event| {
            inbox.send(Outbound::Event(event)).is_ok()
        }))
    }
}

impl Drop for Outbox {
    fn drop(&mut self) {
        let _ = self.inbox.send(Outbound::Close);
    }
}

/// A TCP front end serving one [`TaraService`].  Bind with
/// [`SocketServer::bind`]; drop (or call [`shutdown`](Self::shutdown)) to
/// drain gracefully.
#[derive(Debug)]
pub struct SocketServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl SocketServer {
    /// Binds `addr` and starts accepting connections for `service`.
    /// Pass port 0 to let the OS pick (read it back via
    /// [`local_addr`](Self::local_addr)).
    ///
    /// # Errors
    ///
    /// Returns the bind/configure error when the listener cannot be set up.
    pub fn bind<E>(
        service: Arc<TaraService<E>>,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> io::Result<Self>
    where
        E: StreamingScorer + Clone + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Shared::new(&service, config);
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tara-accept".into())
                .spawn(move || accept_loop(listener, &service, &shared))
                .map_err(io::Error::other)?
        };
        Ok(Self {
            shared,
            local_addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Starts a graceful drain: stop accepting, stop reading new requests,
    /// finish and answer everything already admitted, push a final
    /// [`ServiceEvent::Draining`] to subscribed connections.  Idempotent and
    /// does not wait for the drain; [`shutdown`](Self::shutdown) (or drop)
    /// waits for it to complete.
    ///
    /// The acceptor blocks in `accept`, so the first call wakes it with a
    /// connection to the listener's own address (a local connect, bounded
    /// at one second); the acceptor drops whatever it accepts once draining
    /// and exits.
    pub fn begin_drain(&self) {
        if self.shared.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // A failed wake only means the acceptor is not parked in `accept`
        // (a full backlog keeps it busy accepting): it sees the flag after
        // its next connection either way.
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
    }

    /// Drains and waits until every connection has closed.
    pub fn shutdown(&mut self) {
        self.begin_drain();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The `tara-accept` thread: blocks in `accept`, enforces the connection
/// cap and spawns connection threads.  Once draining (woken by
/// [`SocketServer::begin_drain`]) it drops the connection it just accepted,
/// closes the listener so later connects are refused, and joins every
/// connection before exiting.
fn accept_loop<E>(listener: TcpListener, service: &Arc<TaraService<E>>, shared: &Arc<Shared>)
where
    E: StreamingScorer + Clone + Send + Sync + 'static,
{
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    loop {
        // Short-lived connections would otherwise accumulate finished
        // handles without bound.
        connections = reap_finished(connections);
        let accepted = listener.accept();
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let metrics = &shared.metrics;
                let open = metrics.open.load(Ordering::SeqCst);
                if open >= shared.config.max_connections {
                    metrics.connections_rejected.fetch_add(1, Ordering::SeqCst);
                    reject_connection(stream, shared, open);
                    continue;
                }
                metrics.connection_opened();
                let service = Arc::clone(service);
                let conn_shared = Arc::clone(shared);
                let spawned =
                    std::thread::Builder::new()
                        .name("tara-conn".into())
                        .spawn(move || {
                            serve_socket(stream, &service, &conn_shared);
                            conn_shared.metrics.connection_closed();
                        });
                match spawned {
                    Ok(handle) => connections.push(handle),
                    Err(_) => shared.metrics.connection_closed(),
                }
            }
            // Transient accept errors (peer reset mid-handshake, descriptor
            // exhaustion etc.): back off, then keep accepting.
            Err(_) => std::thread::sleep(TICK),
        }
    }
    drop(listener);
    for connection in connections {
        let _ = connection.join();
    }
}

fn reap_finished(connections: Vec<JoinHandle<()>>) -> Vec<JoinHandle<()>> {
    connections
        .into_iter()
        .filter_map(|handle| {
            if handle.is_finished() {
                let _ = handle.join();
                None
            } else {
                Some(handle)
            }
        })
        .collect()
}

/// Answers a connection over the cap with one structured error line and
/// closes it; a best-effort write under the configured timeout, so a slow
/// rejected peer cannot stall the acceptor for long either.
fn reject_connection(mut stream: TcpStream, shared: &Arc<Shared>, open: usize) {
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let mut line = wire::error_line(
        "",
        PspError::ConnectionLimit {
            open,
            cap: shared.config.max_connections,
        },
    );
    if write_line(&mut stream, &mut line, &shared.metrics).is_ok() {
        let _ = stream.flush();
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Terminates `line` and writes it with one `write_all`, so on a
/// `TCP_NODELAY` socket the newline never leaves as a segment of its own.
fn write_line(stream: &mut impl Write, line: &mut String, metrics: &NetMetrics) -> io::Result<()> {
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    metrics
        .bytes_out
        .fetch_add(line.len() as u64, Ordering::SeqCst);
    Ok(())
}

/// Serves one reader/writer pair — stdin/stdout, a pipe, an in-memory
/// buffer — through the same connection loop as every socket, until the
/// reader reaches end of stream; then drains: a trailing unterminated line
/// is answered, every admitted request is answered in order, and
/// subscriptions registered on the pair end with a final
/// [`ServiceEvent::Draining`] line.
///
/// `config` applies as on a socket, except that idle reaping and the write
/// timeout need a timed transport: a blocking reader is never reaped, and a
/// stalled writer back-pressures intake through the bounded write queue.
/// One pair holds at most [`NetConfig::write_queue`] + 1 admission slots, so
/// with the defaults a pipelined burst waits for the queue instead of being
/// answered `overloaded`.  Traffic counts into the service's `Status` `net`
/// block as one connection.
pub fn serve_stream<E, R, W>(service: &Arc<TaraService<E>>, reader: R, writer: W, config: NetConfig)
where
    E: StreamingScorer + Clone + Send + Sync + 'static,
    R: Read,
    W: Write + Send + 'static,
{
    let shared = Shared::new(service, config);
    shared.metrics.connection_opened();
    serve_connection(reader, writer, service, &shared);
    shared.metrics.connection_closed();
}

/// The TCP specifics of one accepted connection around the shared loop:
/// reads tick on [`TICK`] (drain checks and idle reaping), writes carry
/// [`NetConfig::write_timeout`], and the socket is shut down once both
/// halves are done.
fn serve_socket<E>(stream: TcpStream, service: &Arc<TaraService<E>>, shared: &Arc<Shared>)
where
    E: StreamingScorer + Clone + Send + Sync + 'static,
{
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(TICK)).is_err() {
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        let _ = stream.shutdown(Shutdown::Both);
        return;
    };
    let _ = write_half.set_write_timeout(Some(shared.config.write_timeout));
    serve_connection(&stream, write_half, service, shared);
    let _ = stream.shutdown(Shutdown::Both);
}

/// One connection on any transport: this thread reads, a paired thread
/// writes.  The reader owns admission; the writer owns response ordering,
/// the connection's registrations and the drain hand-off.
fn serve_connection<E, R, W>(
    reader: R,
    writer: W,
    service: &Arc<TaraService<E>>,
    shared: &Arc<Shared>,
) where
    E: StreamingScorer + Clone + Send + Sync + 'static,
    R: Read,
    W: Write + Send + 'static,
{
    let (inbox, outbound) = mpsc::channel();
    let (slots, taken) = mpsc::sync_channel(shared.config.write_queue.max(1));
    let link = Arc::new(Link::default());
    let writer = {
        let shared = Arc::clone(shared);
        let service = Arc::clone(service);
        let link = Arc::clone(&link);
        std::thread::Builder::new()
            .name("tara-conn-writer".into())
            .spawn(move || write_loop(writer, &outbound, &taken, &link, &service, &shared))
    };
    let Ok(writer) = writer else {
        return;
    };
    let outbox = Outbox { inbox, slots, link };
    read_loop(reader, service, shared, &outbox);
    // Dropping the outbox sends `Close`: the writer finishes the queue
    // (every admitted request still gets its response), ends this
    // connection's registrations and exits.
    drop(outbox);
    let _ = writer.join();
}

/// The reader half: bounded line intake, idle reaping (on transports whose
/// reads time out), admission control, request dispatch.
fn read_loop<E>(
    mut reader: impl Read,
    service: &Arc<TaraService<E>>,
    shared: &Arc<Shared>,
    outbox: &Outbox,
) where
    E: StreamingScorer + Clone + Send + Sync + 'static,
{
    let mut scanner = LineScanner::new(shared.config.max_line_bytes);
    let mut buffer = [0_u8; 8192];
    let mut last_activity = Instant::now();
    loop {
        if shared.draining.load(Ordering::SeqCst) || outbox.link.closed.load(Ordering::SeqCst) {
            return;
        }
        match reader.read(&mut buffer) {
            Ok(0) => {
                // EOF: the peer closed its half.  A trailing unterminated
                // line is still a request and gets its answer.
                if let Some(line) = scanner.finish() {
                    handle_line(line, service, shared, outbox);
                }
                return;
            }
            Ok(read) => {
                last_activity = Instant::now();
                shared
                    .metrics
                    .bytes_in
                    .fetch_add(read as u64, Ordering::SeqCst);
                for line in scanner.push(&buffer[..read]) {
                    if !handle_line(line, service, shared, outbox) {
                        return;
                    }
                }
            }
            Err(error)
                if error.kind() == ErrorKind::WouldBlock || error.kind() == ErrorKind::TimedOut =>
            {
                if last_activity.elapsed() > shared.config.idle_timeout {
                    // Covers half-open peers too: nothing readable for the
                    // whole idle window means this connection is dead weight.
                    shared.metrics.reaped_idle.fetch_add(1, Ordering::SeqCst);
                    return;
                }
            }
            Err(error) if error.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Dispatches one scanned line; returns `false` when the connection must
/// close (writer gone).
fn handle_line<E>(
    line: ScannedLine,
    service: &Arc<TaraService<E>>,
    shared: &Arc<Shared>,
    outbox: &Outbox,
) -> bool
where
    E: StreamingScorer + Clone + Send + Sync + 'static,
{
    if matches!(&line, ScannedLine::Line(line) if line.trim().is_empty()) {
        return true;
    }
    // A full queue back-pressures this connection's intake only — the
    // service itself never waits on a peer.  An error means the writer hit
    // a fatal write error; stop reading.
    if outbox.slots.send(()).is_err() {
        return false;
    }
    let message = match line {
        ScannedLine::TooLong { prefix } => Outbound::Line(wire::error_line(
            &prefix,
            PspError::LineTooLong {
                limit: shared.config.max_line_bytes,
            },
        )),
        ScannedLine::Line(line) => match wire::decode_request(&line) {
            Err(error) => Outbound::Line(wire::error_line(&line, error)),
            Ok(WireRequest { id, request }) => match shared.admit() {
                Err(queued) => {
                    shared
                        .metrics
                        .admissions_rejected
                        .fetch_add(1, Ordering::SeqCst);
                    Outbound::Line(wire::encode_response(&WireResponse {
                        id,
                        response: ServiceResponse::Error {
                            error: PspError::Overloaded {
                                queued,
                                capacity: shared.config.admission_capacity,
                            }
                            .into(),
                        },
                    }))
                }
                Ok(permit) => {
                    return dispatch_admitted(id, request, permit, service, shared, outbox)
                }
            },
        },
    };
    outbox.inbox.send(message).is_ok()
}

/// Routes one admitted request into the writer's inbox: subscriptions and
/// schedules register here with this connection's inbox as their sink;
/// everything else goes to the worker pool.  Returns `false` when the
/// writer is gone.
fn dispatch_admitted<E>(
    id: u64,
    request: ServiceRequest,
    permit: AdmissionPermit,
    service: &Arc<TaraService<E>>,
    shared: &Arc<Shared>,
    outbox: &Outbox,
) -> bool
where
    E: StreamingScorer + Clone + Send + Sync + 'static,
{
    shared
        .metrics
        .requests_admitted
        .fetch_add(1, Ordering::SeqCst);
    // Answered here, on the reader thread (no ticket to wait), so counted
    // against the admission window at once.
    let answer = |response| {
        shared
            .metrics
            .requests_answered
            .fetch_add(1, Ordering::SeqCst);
        let line = wire::encode_response(&WireResponse { id, response });
        outbox.inbox.send(Outbound::Line(line)).is_ok()
    };
    // A registration is answered from inside the registration, so the
    // answer is queued before its first event can be.
    let state = &service.state;
    let (registered, job) = match request {
        ServiceRequest::Subscribe { spec } => {
            let ack = |id, generation| answer(ServiceResponse::Subscribed { id, generation });
            (state.subscribe(spec, outbox.sink(), ack), false)
        }
        ServiceRequest::Schedule { every_ms, request } => {
            let every_ms = every_ms.max(1);
            let every = Duration::from_millis(every_ms);
            let ack = |id, _| answer(ServiceResponse::Scheduled { id, every_ms });
            (state.schedule(*request, every, outbox.sink(), ack), true)
        }
        request => {
            let ticket = service.submit(request);
            return outbox
                .inbox
                .send(Outbound::Ticket { id, ticket, permit })
                .is_ok();
        }
    };
    match registered {
        Ok((registration, sent)) => {
            let mut owned = lock(&outbox.link.registrations);
            if outbox.link.closed.load(Ordering::SeqCst) {
                state.unregister(registration, job);
            } else {
                owned.push((registration, job));
            }
            sent
        }
        Err(error) => answer(ServiceResponse::Error {
            error: error.into(),
        }),
    }
}

/// The writer half: blocks on its inbox alone and writes responses in
/// submission order and push events as they arrive, disconnects a slow
/// consumer, ends the connection's registrations and hands off the drain.
/// Every line is encoded into one buffer per connection, cleared per line so
/// it keeps its capacity.
fn write_loop<E>(
    mut stream: impl Write,
    inbox: &mpsc::Receiver<Outbound>,
    slots: &mpsc::Receiver<()>,
    link: &Link,
    service: &Arc<TaraService<E>>,
    shared: &Arc<Shared>,
) where
    E: StreamingScorer + Clone + Send + Sync + 'static,
{
    let mut drain_deadline: Option<Instant> = None;
    let mut encoded = String::new();
    let mut written = Ok(());
    // The reader's outbox sends `Close` however the reader ends, so `recv`
    // never fails while the loop runs.
    while let Ok(message) = inbox.recv() {
        if !matches!(message, Outbound::Event(_) | Outbound::Close) {
            // A reader message frees its slot as the writer takes it.
            let _ = slots.try_recv();
        }
        written = match message {
            Outbound::Line(mut line) => write_line(&mut stream, &mut line, &shared.metrics),
            Outbound::Ticket { id, ticket, permit } => {
                let response = wait_ticket(ticket, shared, &mut drain_deadline);
                encoded.clear();
                wire::encode_response_into(&mut encoded, &WireResponse { id, response });
                let written = write_line(&mut stream, &mut encoded, &shared.metrics);
                // The response reached the peer (or the peer is gone either
                // way); the admission slot frees here, after the write, so
                // `admission_capacity` truly bounds reader-to-writer
                // occupancy.
                drop(permit);
                if written.is_ok() {
                    shared
                        .metrics
                        .requests_answered
                        .fetch_add(1, Ordering::SeqCst);
                }
                written
            }
            Outbound::Event(event) => write_event(&mut stream, &event, &mut encoded, shared),
            Outbound::Close => break,
        };
        if written.is_err() {
            break;
        }
    }
    // `Close` or a fatal write error: the connection's registrations end
    // here.  Removal is a fence, so once it returns every event they will
    // ever deliver is already in the inbox.
    link.closed.store(true, Ordering::SeqCst);
    let owned = std::mem::take(&mut *lock(&link.registrations));
    let live = owned
        .into_iter()
        .filter(|&(id, job)| service.state.unregister(id, job))
        .count()
        > 0;
    if written.is_ok() {
        // A `Close` can overtake the delta of an ingest it already answered.
        while let Ok(Outbound::Event(event)) = inbox.try_recv() {
            if write_event(&mut stream, &event, &mut encoded, shared).is_err() {
                break;
            }
        }
        if live {
            // Registrations end with an explicit final event so a subscribed
            // peer can tell drain from a torn connection.
            let event = ServiceEvent::Draining {
                generation: service.snapshot().generation(),
            };
            let _ = write_event(&mut stream, &event, &mut encoded, shared);
        }
    }
    let _ = stream.flush();
    // Unwritten queue entries (fatal write error paths) drop here; dropping
    // a ticket abandons the answer and dropping a permit frees the admission
    // slot, so a dead connection never leaks capacity.
}

fn write_event(
    stream: &mut impl Write,
    event: &ServiceEvent,
    encoded: &mut String,
    shared: &Shared,
) -> io::Result<()> {
    encoded.clear();
    wire::encode_event_into(encoded, event);
    write_line(stream, encoded, &shared.metrics)
}

/// Waits for an admitted request's response.  Outside a drain this waits as
/// long as the request runs; once draining, the remaining wait is bounded by
/// `drain_grace`, after which the ticket is answered `service-stopped` so
/// the drain itself terminates.
fn wait_ticket(
    ticket: super::runtime::Ticket,
    shared: &Arc<Shared>,
    drain_deadline: &mut Option<Instant>,
) -> ServiceResponse {
    let mut ticket = ticket;
    loop {
        let wait = if shared.draining.load(Ordering::SeqCst) {
            let deadline =
                *drain_deadline.get_or_insert_with(|| Instant::now() + shared.config.drain_grace);
            match deadline.checked_duration_since(Instant::now()) {
                Some(left) => left.min(TICK * 4),
                None => {
                    return ServiceResponse::Error {
                        error: PspError::ServiceStopped.into(),
                    }
                }
            }
        } else {
            TICK * 4
        };
        match ticket.wait_timeout(wait.max(Duration::from_millis(1))) {
            Ok(response) => return response,
            Err(unanswered) => ticket = unanswered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a scan produced, as its `Debug` form.
    fn scanned(lines: impl std::fmt::Debug) -> String {
        format!("{lines:?}")
    }

    #[test]
    fn scanner_splits_lines_across_chunks() {
        let mut scanner = LineScanner::new(64);
        assert!(scanner.push(b"hel").is_empty());
        assert_eq!(scanned(scanner.push(b"lo\nwor")), r#"[Line("hello")]"#);
        assert_eq!(
            scanned(scanner.push(b"ld\n\n")),
            r#"[Line("world"), Line("")]"#
        );
        assert!(scanner.finish().is_none());
    }

    #[test]
    fn scanner_bounds_oversized_lines_and_recovers() {
        let mut scanner = LineScanner::new(8);
        // 32 bytes on one line: buffered at most 8, rest discarded.
        let lines = scanner.push(b"abcdefghijklmnopqrstuvwxyz012345\nok\n");
        assert_eq!(
            scanned(lines),
            r#"[TooLong { prefix: "abcdefgh" }, Line("ok")]"#
        );
    }

    #[test]
    fn scanner_decodes_invalid_utf8_lossily() {
        let mut scanner = LineScanner::new(64);
        let lines = scanner.push(b"\xff\xfe{bad}\n");
        match &lines[..] {
            [ScannedLine::Line(line)] => assert!(line.contains('\u{fffd}')),
            other => panic!("unexpected scan: {other:?}"),
        }
    }

    #[test]
    fn scanner_finish_flushes_trailing_fragment() {
        let mut scanner = LineScanner::new(8);
        assert!(scanner.push(b"tail").is_empty());
        assert_eq!(scanned(scanner.finish()), r#"Some(Line("tail"))"#);
        assert!(scanner.finish().is_none());
        // A trailing oversized fragment reports as too long as well.
        assert!(scanner.push(b"0123456789abcdef").is_empty());
        assert_eq!(
            scanned(scanner.finish()),
            r#"Some(TooLong { prefix: "01234567" })"#
        );
    }

    #[test]
    fn net_status_defaults_to_zero_and_round_trips() {
        let status = NetMetrics::default().status();
        assert_eq!(status.open_connections, 0);
        assert_eq!(status.bytes_out, 0);
        let json = serde_json::to_string(&status).unwrap();
        assert_eq!(serde_json::from_str::<NetStatus>(&json).unwrap(), status);
    }

    #[test]
    fn metrics_track_peak_connections() {
        let metrics = NetMetrics::default();
        assert_eq!(metrics.connection_opened(), 1);
        assert_eq!(metrics.connection_opened(), 2);
        metrics.connection_closed();
        assert_eq!(metrics.connection_opened(), 2);
        let status = metrics.status();
        assert_eq!(status.open_connections, 2);
        assert_eq!(status.peak_connections, 2);
    }

    #[test]
    fn default_config_is_bounded_everywhere() {
        let config = NetConfig::default();
        assert!(config.max_connections > 0);
        assert!(config.admission_capacity > 0);
        assert_eq!(config.max_line_bytes, 1 << 20);
        assert!(config.write_queue > 0);
        assert!(config.idle_timeout > config.write_timeout);
    }
}
