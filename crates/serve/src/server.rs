//! The HTTP front door: listener, IO workers, routing, and lifecycle.
//!
//! Thread model (thread-per-core in the small): `io_workers` identical
//! worker threads each run a `poll(2)` readiness loop over a shared
//! non-blocking listener, their own accepted connections and their own
//! [`Waker`], and one engine thread owns the model (see [`crate::engine`]).
//!
//! Who wakes whom. Nothing runs on a periodic tick; a worker sleeps in
//! `poll` until one of three things happens:
//!
//! * a socket is ready — bytes, room to write, or a hang-up, which is
//!   watched on streaming connections too so that a client that leaves
//!   while queued or mid-stream is dropped before it costs engine time;
//! * the nearest header deadline of a connection still reading a request
//!   falls due (the slowloris cut-off) — the poll timeout is that deadline,
//!   or [`IDLE_POLL`] when no connection has one;
//! * the engine pushed tokens to one of the worker's outboxes, or
//!   [`ServerHandle`] is shutting down, and woke it.
//!
//! On a wake-up the worker first resets its waker and only then takes the
//! outboxes' signals and drains them (flag before drain: a push that lands
//! after the reset pays for a fresh wake-up, so none is lost). A turn
//! services only the connections `poll` reported, whose outbox was
//! signalled, or whose deadline is due; an unchanged request buffer is not
//! parsed again and an unsignalled outbox is not locked.
//!
//! Backpressure is bounded at every hop:
//!
//! * kernel accept backlog → each worker caps its connection count,
//! * connection buffers → header/body limits from [`Limits`],
//! * admission queue → a bounded `sync_channel`; when full the request is
//!   answered `503` instead of queueing unboundedly,
//! * SLO governor → when the projected time-to-first-token exceeds the
//!   [`SloConfig`] target the request is shed with `429` *before* it costs
//!   anything (see [`crate::slo`]).
//!
//! Routes: `POST /v1/generate` (chunked NDJSON token stream),
//! `GET /metrics` (Prometheus text), `GET /healthz`.

use crate::engine::{
    run_engine, EngineConfig, EngineExit, EngineJob, EngineShared, OutMsg, Outbox,
};
use crate::http::{
    chunk, chunked_head, parse_request, response, Limits, Parsed, Request, LAST_CHUNK,
};
use crate::json::{self, Json};
use crate::metrics::ServerMetrics;
use crate::poll::{poll, PollFd, Waker, POLLIN, POLLOUT};
use crate::slo::{SloConfig, SloGovernor, Verdict};
use pgmoe_runtime::{RuntimeError, ServeStats};
use pgmoe_workload::LiveClock;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Full server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `"127.0.0.1:0"` (port 0 picks a free port).
    pub addr: String,
    /// Number of IO worker threads.
    pub io_workers: usize,
    /// The generation engine (model + simulated device + batching).
    pub engine: EngineConfig,
    /// SLO-aware admission targets.
    pub slo: SloConfig,
    /// Per-connection protocol limits.
    pub limits: Limits,
    /// Bound of the admission queue (`503` beyond it).
    pub queue_capacity: usize,
    /// Maximum connections each worker holds open at once.
    pub max_conns_per_worker: usize,
    /// Maximum prompt length accepted by `/v1/generate`.
    pub max_prompt_tokens: usize,
    /// Maximum `max_tokens` accepted by `/v1/generate`.
    pub max_new_tokens: usize,
}

impl ServeConfig {
    /// A loopback demo server over [`EngineConfig::demo`].
    pub fn demo() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            io_workers: 2,
            engine: EngineConfig::demo(),
            slo: SloConfig::default(),
            limits: Limits::default(),
            queue_capacity: 1024,
            max_conns_per_worker: 512,
            max_prompt_tokens: 512,
            max_new_tokens: 256,
        }
    }
}

/// Errors starting or running the server.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (bind, clone).
    Io(io::Error),
    /// The engine/device configuration was rejected by the runtime.
    Runtime(RuntimeError),
    /// Cross-field configuration error.
    Config(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Runtime(e) => write!(f, "runtime error: {e}"),
            ServeError::Config(msg) => write!(f, "config error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<RuntimeError> for ServeError {
    fn from(e: RuntimeError) -> Self {
        ServeError::Runtime(e)
    }
}

/// State shared by every IO worker.
struct IoShared {
    metrics: Arc<ServerMetrics>,
    governor: Arc<SloGovernor>,
    shutdown: Arc<AtomicBool>,
    clock: LiveClock,
    limits: Limits,
    vocab: usize,
    max_prompt_tokens: usize,
    max_new_tokens: usize,
    next_id: AtomicU64,
}

/// The serving front door.
///
/// [`Server::start`] binds, spawns the engine and IO workers, and returns
/// a [`ServerHandle`] for the caller to query and eventually shut down.
pub struct Server;

impl Server {
    /// Starts serving `cfg`.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Config`] if the engine configuration is invalid
    ///   ([`EngineConfig::validate`](crate::EngineConfig::validate), run
    ///   *before* any thread spawns, builds the device session and checks
    ///   the numeric network).
    /// * [`ServeError::Io`] if the listener cannot bind.
    pub fn start(cfg: ServeConfig) -> Result<ServerHandle, ServeError> {
        cfg.engine.validate().map_err(ServeError::Config)?;
        if cfg.io_workers == 0 || cfg.queue_capacity == 0 || cfg.max_conns_per_worker == 0 {
            return Err(ServeError::Config(
                "io_workers, queue_capacity, and max_conns_per_worker must be non-zero".into(),
            ));
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let metrics = Arc::new(ServerMetrics::default());
        let governor = Arc::new(SloGovernor::new(cfg.slo, cfg.engine.batch.max_batch));
        let shutdown = Arc::new(AtomicBool::new(false));
        let clock = LiveClock::start();
        let (tx, rx) = sync_channel::<EngineJob>(cfg.queue_capacity);

        let engine_shared = Arc::new(EngineShared {
            metrics: Arc::clone(&metrics),
            governor: Arc::clone(&governor),
            shutdown: Arc::clone(&shutdown),
            clock,
        });
        let engine_cfg = cfg.engine.clone();
        // The engine thread is its own supervisor: when a replica crashes
        // (the seeded chaos fault) it inherits the admission channel and
        // the still-queued jobs, backs off while `/v1/generate` answers
        // 503 + retry-after, and brings up a fresh replica. Only the run
        // that shuts down cleanly reports final stats.
        let engine = std::thread::Builder::new().name("pgmoe-engine".into()).spawn(move || {
            let mut cfg = engine_cfg;
            let mut rx = rx;
            let mut carryover = std::collections::VecDeque::new();
            loop {
                match run_engine(cfg.clone(), rx, carryover, Arc::clone(&engine_shared)) {
                    EngineExit::Shutdown(stats) => return stats,
                    EngineExit::Crashed { rx: channel, carryover: queued, .. } => {
                        engine_shared.metrics.engine_restarts.inc();
                        // The seeded fault fires once; the replacement
                        // replica serves to completion.
                        cfg.fail_after_iterations = None;
                        if cfg.restart_backoff_ms > 0 {
                            std::thread::sleep(Duration::from_millis(cfg.restart_backoff_ms));
                        }
                        rx = channel;
                        carryover = queued;
                    }
                }
            }
        })?;

        let io_shared = Arc::new(IoShared {
            metrics: Arc::clone(&metrics),
            governor,
            shutdown: Arc::clone(&shutdown),
            clock,
            limits: cfg.limits,
            vocab: cfg.engine.net.vocab,
            max_prompt_tokens: cfg.max_prompt_tokens,
            max_new_tokens: cfg.max_new_tokens,
            next_id: AtomicU64::new(0),
        });
        let mut workers = Vec::with_capacity(cfg.io_workers);
        let mut wakers = Vec::with_capacity(cfg.io_workers);
        for w in 0..cfg.io_workers {
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&io_shared);
            let tx = tx.clone();
            let cap = cfg.max_conns_per_worker;
            let waker = Arc::new(Waker::new()?);
            wakers.push(Arc::clone(&waker));
            workers.push(
                std::thread::Builder::new()
                    .name(format!("pgmoe-io-{w}"))
                    .spawn(move || worker_loop(listener, tx, shared, cap, waker))?,
            );
        }
        drop(tx);
        Ok(ServerHandle { addr, metrics, shutdown, wakers, workers, engine: Some(engine) })
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics: Arc<ServerMetrics>,
    shutdown: Arc<AtomicBool>,
    wakers: Vec<Arc<Waker>>,
    workers: Vec<JoinHandle<()>>,
    engine: Option<JoinHandle<ServeStats>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live metric registry (what `GET /metrics` renders).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Stops accepting, terminates every thread, and returns the simulated
    /// device's final [`ServeStats`] (`None` if the engine panicked).
    pub fn shutdown(mut self) -> Option<ServeStats> {
        self.stop()
    }

    fn stop(&mut self) -> Option<ServeStats> {
        self.shutdown.store(true, Ordering::Release);
        // The workers sleep until something happens; this is it.
        for waker in &self.wakers {
            waker.wake();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.engine.take().and_then(|engine| engine.join().ok())
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

#[cfg(unix)]
fn fd_of<T: std::os::unix::io::AsRawFd>(t: &T) -> i32 {
    t.as_raw_fd()
}

#[cfg(not(unix))]
fn fd_of<T>(_t: &T) -> i32 {
    0
}

/// Poll timeout while no connection is waiting on a header deadline.
/// Nothing is scheduled then — the worker sleeps until a socket or its
/// waker fires — so no behaviour depends on its length.
const IDLE_POLL: Duration = Duration::from_secs(60);

/// What a connection is currently doing.
enum ConnState {
    /// Accumulating request bytes until a full request parses.
    Reading {
        /// Header-completion deadline (slowloris cut-off).
        deadline: Instant,
    },
    /// Streaming engine output for an admitted generate request.
    Streaming { outbox: Arc<Outbox>, head_sent: bool },
    /// Flushing `out`, then closing.
    Closing,
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    out: Vec<u8>,
    state: ConnState,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, deadline: Instant) -> Self {
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            state: ConnState::Reading { deadline },
            dead: false,
        }
    }

    /// Queues a complete response and returns to reading (keep-alive).
    fn respond(&mut self, shared: &IoShared, route: &'static str, bytes: Vec<u8>, status: u16) {
        self.out.extend_from_slice(&bytes);
        shared.metrics.count_response(route, status);
        self.state = ConnState::Reading { deadline: Instant::now() + self.header_deadline(shared) };
    }

    fn header_deadline(&self, shared: &IoShared) -> Duration {
        Duration::from_millis(shared.limits.header_deadline_ms)
    }

    /// The readiness this connection waits on. A streaming connection
    /// watches its read side too — that is where a hang-up shows — but only
    /// while `buf` has room, so a client cannot grow it without bound by
    /// sending while it streams.
    fn interest(&self, limits: &Limits) -> i16 {
        let reads = match self.state {
            ConnState::Reading { .. } => true,
            ConnState::Streaming { .. } => self.buf.len() < buf_cap(limits),
            ConnState::Closing => false,
        };
        let mut want = if reads { POLLIN } else { 0 };
        if !self.out.is_empty() {
            want |= POLLOUT;
        }
        want
    }

    /// Non-blocking read into `buf`, up to `cap` buffered bytes. Returns
    /// whether any bytes arrived. A hang-up aborts a stream (closing the
    /// outbox lets the engine drop the job, queued or decoding) and leaves
    /// only what is already encoded to flush; it ends any other connection.
    fn fill(&mut self, cap: usize) -> bool {
        let mut tmp = [0u8; 4096];
        let mut any = false;
        while self.buf.len() < cap {
            match self.stream.read(&mut tmp) {
                Ok(0) => {
                    if let ConnState::Streaming { outbox, .. } = &self.state {
                        outbox.close();
                        // `Closing` asks for no `POLLIN`: a level-triggered
                        // EOF cannot spin the loop while `out` drains.
                        self.state = ConnState::Closing;
                    } else {
                        self.dead = true;
                    }
                    return any;
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&tmp[..n]);
                    any = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return any,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return any;
                }
            }
        }
        any
    }

    /// Non-blocking flush of `out`.
    fn flush(&mut self) {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if matches!(self.state, ConnState::Closing) {
            self.dead = true;
        }
    }
}

/// Most request bytes a connection buffers: one byte more than a maximal
/// request, so a full buffer always parses to a request or an error.
/// Anything beyond it stays in the kernel's buffer (its own backpressure)
/// until the parser has consumed or refused what is here.
fn buf_cap(limits: &Limits) -> usize {
    limits.max_header_bytes + limits.max_body_bytes + 1
}

fn worker_loop(
    listener: TcpListener,
    tx: SyncSender<EngineJob>,
    shared: Arc<IoShared>,
    cap: usize,
    waker: Arc<Waker>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut events: Vec<OutMsg> = Vec::new();
    while !shared.shutdown.load(Ordering::Acquire) {
        fds.clear();
        fds.push(PollFd::new(waker.fd(), POLLIN));
        let accepting = conns.len() < cap;
        if accepting {
            fds.push(PollFd::new(fd_of(&listener), POLLIN));
        }
        let first_conn = fds.len();
        let tracked = conns.len();
        // Sleep until the nearest header deadline; nothing else is timed.
        let now = Instant::now();
        let mut timeout = IDLE_POLL;
        for c in &conns {
            fds.push(PollFd::new(fd_of(&c.stream), c.interest(&shared.limits)));
            if let ConnState::Reading { deadline } = c.state {
                timeout = timeout.min(deadline.saturating_duration_since(now));
            }
        }
        // Rounded up, so the turn after a timeout finds the deadline due.
        let timeout_ms = i32::try_from(timeout.as_millis() + 1).unwrap_or(i32::MAX);
        if poll(&mut fds, timeout_ms).is_err() {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }

        // Flag before drain: re-arm the waker first, look at the outboxes
        // after. A push that lands in between buys a spare wake-up, never a
        // lost one.
        let woken = fds[0].readable();
        if woken {
            waker.reset();
        }

        if accepting && fds[1].readable() {
            while conns.len() < cap {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        shared.metrics.connections_total.inc();
                        shared.metrics.connections_open.inc();
                        let deadline = Instant::now()
                            + Duration::from_millis(shared.limits.header_deadline_ms);
                        conns.push(Conn::new(stream, deadline));
                    }
                    Err(_) => break,
                }
            }
        }

        let now = Instant::now();
        for (conn, fd) in conns[..tracked].iter_mut().zip(&fds[first_conn..]) {
            let due = match &conn.state {
                ConnState::Reading { deadline } => now >= *deadline,
                ConnState::Streaming { outbox, .. } => woken && outbox.take_signal(),
                ConnState::Closing => false,
            };
            if due || fd.revents != 0 {
                tick(conn, fd.readable(), now, &shared, &tx, &waker, &mut events);
            }
        }
        conns.retain(|c| {
            if c.dead {
                // A dead connection mid-stream tells the engine to abort
                // the decode and release the request's batch slot.
                if let ConnState::Streaming { outbox, .. } = &c.state {
                    outbox.close();
                }
                shared.metrics.connections_open.dec();
            }
            !c.dead
        });
    }
    for c in conns.drain(..) {
        if let ConnState::Streaming { outbox, .. } = &c.state {
            outbox.close();
        }
        shared.metrics.connections_open.dec();
    }
}

/// Appends `{"index":I,"token":T}\n` to `out` as one HTTP chunk — the bytes
/// of `http::chunk` over that line, formatted in place.
fn push_token_chunk(out: &mut Vec<u8>, index: usize, token: usize) {
    let len = r#"{"index":,"token":}"#.len() + 1 + decimal_len(index) + decimal_len(token);
    let _ = write!(out, "{len:x}\r\n{{\"index\":{index},\"token\":{token}}}\n\r\n");
}

/// Appends `{"done":true,"n":N,"tokens":[..]}\n` to `out` as one HTTP chunk.
fn push_done_chunk(out: &mut Vec<u8>, tokens: &[usize]) {
    let n = tokens.len();
    let list_len = tokens.iter().map(|&t| decimal_len(t)).sum::<usize>() + n.saturating_sub(1);
    let len = r#"{"done":true,"n":,"tokens":[]}"#.len() + 1 + decimal_len(n) + list_len;
    let _ = write!(out, "{len:x}\r\n{{\"done\":true,\"n\":{n},\"tokens\":[");
    for (i, t) in tokens.iter().enumerate() {
        let _ = if i == 0 { write!(out, "{t}") } else { write!(out, ",{t}") };
    }
    out.extend_from_slice(b"]}\n\r\n");
}

/// Decimal digits of `n`.
fn decimal_len(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Services one connection that has something to do: new bytes, room to
/// write, a signalled outbox, or a due deadline.
fn tick(
    conn: &mut Conn,
    readable: bool,
    now: Instant,
    shared: &IoShared,
    tx: &SyncSender<EngineJob>,
    waker: &Arc<Waker>,
    events: &mut Vec<OutMsg>,
) {
    if conn.dead {
        return;
    }
    // A request buffer is parsed when it grew or when the connection just
    // came back to reading (a pipelined request may already be in `buf`).
    let mut parse = readable && conn.fill(buf_cap(&shared.limits));
    // Run the state machine until it stops making progress.
    loop {
        match &mut conn.state {
            ConnState::Reading { deadline } => {
                let deadline = *deadline;
                if !parse && now < deadline {
                    break;
                }
                match parse_request(&conn.buf, &shared.limits) {
                    Ok(Parsed::Complete(req, used)) => {
                        conn.buf.drain(..used);
                        route(conn, req, shared, tx, waker);
                        if conn.dead {
                            return;
                        }
                        parse = true;
                        continue;
                    }
                    Ok(Parsed::Incomplete) => {
                        if now >= deadline {
                            if conn.buf.is_empty() {
                                // Idle keep-alive connection: close quietly.
                                conn.state = ConnState::Closing;
                            } else {
                                // Partial request past the deadline:
                                // classic slowloris, answer 408 and close.
                                let body = br#"{"error":"header timeout"}"#;
                                conn.out.extend_from_slice(&response(
                                    408,
                                    "application/json",
                                    body,
                                    &[("connection", "close")],
                                ));
                                shared.metrics.count_response("*", 408);
                                conn.state = ConnState::Closing;
                            }
                            continue;
                        }
                    }
                    Err(e) => {
                        let status = e.status();
                        let body = format!("{{\"error\":\"{}\"}}", json::escape(&e.to_string()));
                        conn.out.extend_from_slice(&response(
                            status,
                            "application/json",
                            body.as_bytes(),
                            &[("connection", "close")],
                        ));
                        shared.metrics.count_response("*", status);
                        conn.state = ConnState::Closing;
                        continue;
                    }
                }
            }
            ConnState::Streaming { outbox, head_sent } => {
                events.clear();
                outbox.drain_into(events);
                let mut finished = None;
                // Delivery is observed before the flush below, like every
                // other count a scrape reads: once a client holds a token,
                // the histogram already has it.
                let handed_ns = shared.clock.now_ns();
                for msg in events.drain(..) {
                    match msg {
                        OutMsg::Token { index, token, pushed_ns } => {
                            if !*head_sent {
                                conn.out
                                    .extend_from_slice(&chunked_head(200, "application/x-ndjson"));
                                *head_sent = true;
                            }
                            push_token_chunk(&mut conn.out, index, token);
                            shared
                                .metrics
                                .token_delivery_seconds
                                .observe(Duration::from_nanos(handed_ns.saturating_sub(pushed_ns)));
                        }
                        OutMsg::Done { tokens } => {
                            push_done_chunk(&mut conn.out, &tokens);
                            conn.out.extend_from_slice(LAST_CHUNK);
                            finished = Some(200);
                        }
                        OutMsg::Failed { reason } => {
                            let body = format!("{{\"error\":\"{}\"}}", json::escape(reason));
                            if *head_sent {
                                // Head already committed as 200; terminate
                                // the stream with an error line.
                                conn.out.extend_from_slice(&chunk(body.as_bytes()));
                                conn.out.extend_from_slice(LAST_CHUNK);
                            } else {
                                conn.out.extend_from_slice(&response(
                                    500,
                                    "application/json",
                                    body.as_bytes(),
                                    &[],
                                ));
                            }
                            finished = Some(500);
                        }
                    }
                }
                if let Some(status) = finished {
                    shared.metrics.count_response("/v1/generate", status);
                    conn.state = ConnState::Reading {
                        deadline: Instant::now()
                            + Duration::from_millis(shared.limits.header_deadline_ms),
                    };
                    parse = true;
                    continue;
                }
            }
            ConnState::Closing => {}
        }
        break;
    }
    conn.flush();
}

/// Dispatches one parsed request.
fn route(
    conn: &mut Conn,
    req: Request,
    shared: &IoShared,
    tx: &SyncSender<EngineJob>,
    waker: &Arc<Waker>,
) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            conn.respond(shared, "/healthz", response(200, "text/plain", b"ok\n", &[]), 200);
        }
        ("GET", "/metrics") => {
            let text = shared.metrics.render();
            conn.respond(
                shared,
                "/metrics",
                response(200, "text/plain; version=0.0.4", text.as_bytes(), &[]),
                200,
            );
        }
        ("POST", "/v1/generate") => handle_generate(conn, &req, shared, tx, waker),
        (_, "/healthz" | "/metrics" | "/v1/generate") => {
            let bytes =
                response(405, "application/json", br#"{"error":"method not allowed"}"#, &[]);
            conn.respond(shared, "*", bytes, 405);
        }
        _ => {
            let bytes = response(404, "application/json", br#"{"error":"no such route"}"#, &[]);
            conn.respond(shared, "*", bytes, 404);
        }
    }
}

/// Validates and admits one generate request.
fn handle_generate(
    conn: &mut Conn,
    req: &Request,
    shared: &IoShared,
    tx: &SyncSender<EngineJob>,
    waker: &Arc<Waker>,
) {
    let reject = |conn: &mut Conn, shared: &IoShared, status: u16, msg: &str| {
        let body = format!("{{\"error\":\"{}\"}}", json::escape(msg));
        let bytes = response(status, "application/json", body.as_bytes(), &[]);
        conn.respond(shared, "/v1/generate", bytes, status);
    };

    let Ok(text) = std::str::from_utf8(&req.body) else {
        return reject(conn, shared, 400, "body is not utf-8");
    };
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return reject(conn, shared, 400, &format!("invalid json: {e}")),
    };
    let Some(prompt_json) = doc.get("prompt").and_then(Json::as_arr) else {
        return reject(conn, shared, 400, "missing \"prompt\" array");
    };
    if prompt_json.is_empty() || prompt_json.len() > shared.max_prompt_tokens {
        return reject(
            conn,
            shared,
            400,
            &format!("prompt must have 1..={} tokens", shared.max_prompt_tokens),
        );
    }
    let mut prompt = Vec::with_capacity(prompt_json.len());
    for v in prompt_json {
        match v.as_u64() {
            Some(t) if (t as usize) < shared.vocab => prompt.push(t as usize),
            _ => {
                return reject(
                    conn,
                    shared,
                    400,
                    &format!("prompt tokens must be integers below vocab {}", shared.vocab),
                )
            }
        }
    }
    let max_tokens = match doc.get("max_tokens").and_then(Json::as_u64) {
        Some(n) if n >= 1 && n <= shared.max_new_tokens as u64 => n as usize,
        _ => {
            return reject(
                conn,
                shared,
                400,
                &format!("max_tokens must be in 1..={}", shared.max_new_tokens),
            )
        }
    };

    // Failover gate: while the engine is between replicas nothing drains
    // the queue, so answer 503 + retry-after instead of parking the
    // request behind a restart.
    if shared.metrics.failover_active.get() != 0 {
        let body = br#"{"error":"engine restarting, retry shortly"}"#;
        let bytes = response(503, "application/json", body, &[("retry-after", "1")]);
        conn.respond(shared, "/v1/generate", bytes, 503);
        return;
    }

    // SLO-aware load shedding: refuse on the IO thread, before the
    // request costs queue space or engine time.
    if let Verdict::Shed { projected } = shared.governor.verdict() {
        shared.metrics.shed_total.inc();
        let body = format!(
            "{{\"error\":\"shed: projected ttft {}ms exceeds slo\",\"projected_ttft_ms\":{}}}",
            projected.as_millis(),
            projected.as_millis()
        );
        let bytes = response(429, "application/json", body.as_bytes(), &[("retry-after", "1")]);
        conn.respond(shared, "/v1/generate", bytes, 429);
        return;
    }

    let outbox = Arc::new(Outbox::new(Arc::clone(waker)));
    let job = EngineJob {
        id: shared.next_id.fetch_add(1, Ordering::Relaxed),
        prompt,
        max_tokens,
        arrival_ns: shared.clock.now_ns(),
        outbox: Arc::clone(&outbox),
    };
    shared.governor.on_enqueue();
    shared.metrics.queue_depth.inc();
    match tx.try_send(job) {
        Ok(()) => {
            conn.state = ConnState::Streaming { outbox, head_sent: false };
        }
        Err(err) => {
            shared.governor.on_dequeue();
            shared.metrics.queue_depth.dec();
            let (status, msg) = match err {
                TrySendError::Full(_) => (503, "admission queue full"),
                TrySendError::Disconnected(_) => (500, "engine unavailable"),
            };
            reject(conn, shared, status, msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use pgmoe_model::GatingMode;
    use pgmoe_runtime::BatchConfig;

    /// The in-place encoders must put the same bytes on the wire as
    /// `chunk` over the formatted line, across every digit-count and
    /// hex-length boundary.
    #[test]
    fn in_place_chunks_match_http_chunk() {
        let edges = [0usize, 1, 9, 10, 63, 99, 100, 999, 1000, 65_535, usize::MAX];
        for &index in &edges {
            for &token in &edges {
                let mut out = b"prefix".to_vec();
                push_token_chunk(&mut out, index, token);
                let line = format!("{{\"index\":{index},\"token\":{token}}}\n");
                assert_eq!(out[6..], chunk(line.as_bytes())[..], "{line}");
            }
        }
        for n in [0usize, 1, 2, 3, 4, 5, 16, 17, 100, 256, 1500] {
            let tokens: Vec<usize> = (0..n).map(|i| edges[i % edges.len()]).collect();
            let mut out = Vec::new();
            push_done_chunk(&mut out, &tokens);
            let list = tokens.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(",");
            let line = format!("{{\"done\":true,\"n\":{n},\"tokens\":[{list}]}}\n");
            assert_eq!(out, chunk(line.as_bytes()), "{line}");
        }
    }

    /// A configuration the engine thread could not run is refused before
    /// anything binds or spawns — not discovered as a panicked engine
    /// thread and a `shutdown()` that returns `None`.
    #[test]
    fn unrunnable_engine_configs_are_refused_at_start() {
        let mut zero_batch = ServeConfig::demo();
        zero_batch.engine.batch = BatchConfig::new(0);
        let mut no_experts = ServeConfig::demo();
        no_experts.engine.net.num_experts = 0;
        let mut level_too_deep = ServeConfig::demo();
        level_too_deep.engine.net.mode = GatingMode::Pregated { level: 4 };
        for (name, cfg) in
            [("max_batch 0", zero_batch), ("0 experts", no_experts), ("level 4", level_too_deep)]
        {
            match Server::start(cfg) {
                Err(ServeError::Config(msg)) => assert!(!msg.is_empty(), "{name}"),
                Err(other) => panic!("{name}: expected a config error, got {other}"),
                Ok(handle) => {
                    handle.shutdown();
                    panic!("{name}: server started");
                }
            }
        }
    }

    /// Life of a request through replica death, end to end over real
    /// sockets: the crashed stream tells its client to retry, the failover
    /// window sheds with `503` + `retry-after`, a retrying client rides it
    /// out, and `/metrics` records the restart.
    #[test]
    fn engine_crash_fails_over_and_keeps_serving() {
        let mut cfg = ServeConfig::demo();
        cfg.engine.fail_after_iterations = Some(2);
        cfg.engine.restart_backoff_ms = 800;
        let handle = Server::start(cfg).expect("server starts");
        let addr = handle.addr();
        let deadline = Duration::from_secs(30);

        // The seeded fault fires two iterations into the first stream:
        // the client gets its partial tokens, then an error line.
        let first = client::generate(addr, &[1, 2, 3], 8, deadline).expect("transport ok");
        assert!(!first.verified(), "stream must be cut by the crash: {first:?}");
        assert!(first.body.contains("retry"), "{}", first.body);

        // The failover gate went up before the error line was delivered,
        // so an immediate follow-up is shed cleanly with a retry hint.
        let during = client::generate(addr, &[1, 2, 3], 4, deadline).expect("transport ok");
        assert_eq!(during.status, 503, "{}", during.body);
        assert_eq!(during.retry_after, Some(1));

        // A client that honors the hint completes once the replacement
        // replica is up.
        let policy = client::RetryPolicy {
            max_retries: 10,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_millis(200),
            jitter_seed: 42,
        };
        let retried = client::generate_with_retry(addr, &[4, 5, 6], 4, deadline, policy)
            .expect("transport ok");
        assert!(retried.retries >= 1, "request must have waited out the failover window");
        assert!(retried.response.verified(), "{:?}", retried.response);

        let (status, metrics) = client::get(addr, "/metrics", deadline).expect("metrics");
        assert_eq!(status, 200);
        assert!(metrics.contains("pgmoe_engine_restarts_total 1"), "{metrics}");
        assert!(metrics.contains("pgmoe_failover_active 0"), "{metrics}");
        let stats = handle.shutdown().expect("engine stats");
        assert!(stats.total_tokens >= 4, "replacement replica served the retried stream");
    }
}
