//! # lru-leak-server — the experiment service
//!
//! A std-only TCP service (`lru-leak serve`) that accepts
//! scenario/artifact requests as JSON and schedules them as
//! [`scenario::engine`] jobs, built on three pillars:
//!
//! 1. **Credit-based admission** ([`credit`]): every request costs
//!    `cells × trials` trial-units; a global ledger caps the
//!    in-flight total and a per-connection cap stops one client from
//!    monopolizing the service. Over-budget requests queue FIFO
//!    deterministically.
//! 2. **Request coalescing** ([`flight`]): requests are single-flight
//!    keyed by the same canonical scenario JSON the
//!    [`scenario::engine::ResultCache`] hashes, so N concurrent
//!    identical requests cost one simulation and all N receive the
//!    leader's response line verbatim — byte-identical by
//!    construction, and byte-identical to `lru-leak run <id> --json`
//!    because the body *is* that command's output. One shared
//!    [`ResultCache`] serves every connection, so repeats after the
//!    flight retires are cache hits, not recomputations.
//! 3. **Streaming** ([`proto`]): progress events (cells/trials done)
//!    flow back as JSON lines while a job runs, per-request deadlines
//!    ride a [`CancelToken`] timeout child, a client disconnect
//!    cancels its in-flight job cooperatively, and a `shutdown`
//!    request drains gracefully — in-flight and queued jobs complete,
//!    new connections are refused, then the accept loop exits.
//! 4. **Crash safety and graceful degradation**: a durable job
//!    journal ([`journal`]) write-ahead-logs every accepted job into
//!    `--cache-dir` so `serve --recover` replays interrupted work in
//!    original admission order (byte-identical responses, straight
//!    from the result cache when the work already finished); the
//!    admission queue is bounded, shedding bursts with a structured
//!    `overloaded` rejection (HTTP `503` + `Retry-After`); `result`
//!    frames carry a trailing checksum so the retrying client
//!    ([`client::RetryPolicy`]) detects torn responses; and a
//!    slow-reader watchdog cancels jobs whose client stopped draining
//!    events. The chaos proxy ([`chaos`]) fault-injects all of it
//!    deterministically in tests.
//!
//! The protocol is hand-rolled newline-delimited JSON over
//! `std::net::TcpListener` (no async runtime, no serde), plus a
//! minimal HTTP/1.1 shim (`GET /status`, `POST /run`,
//! `POST /shutdown`) for curl-style one-shots. See [`proto`] for the
//! grammar and [`client`] for the blocking client the CLI uses.
//!
//! ```no_run
//! use lru_leak_server::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..ServerConfig::default()
//! })?;
//! println!("listening on {}", server.local_addr()?);
//! let summary = server.run()?; // blocks until a shutdown request drains
//! println!("served {} requests ({} coalesced)", summary.requests, summary.coalesced);
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod credit;
pub mod flight;
pub mod journal;
pub mod proto;

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use lru_channel::trials::CancelToken;
use scenario::engine::JobProgressFn;
use scenario::{Engine, JobProgress, ResultCache, Value};

use credit::{Admission, Ledger};
use flight::{FlightOutcome, Flights, Role};
use journal::Journal;
use proto::{Request, RunRequest};

/// The default listen address of `lru-leak serve`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:4517";

/// Default global admission budget in trial-units (cells × trials).
pub const DEFAULT_MAX_INFLIGHT_TRIALS: usize = 1 << 20;

/// Default bound on the admission wait queue: a request that would
/// park behind more than this many earlier waiters is shed with a
/// structured `overloaded` rejection instead of queueing unboundedly.
pub const DEFAULT_MAX_QUEUED: usize = 64;

/// Default slow-reader watchdog: an event write that cannot make
/// progress for this long (the client stopped draining its socket)
/// fails, which cancels the client's in-flight job cooperatively.
pub const DEFAULT_WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long the accept loop sleeps between polls.
const ACCEPT_SLICE: Duration = Duration::from_millis(20);

/// How long an idle connection handler waits for the next request
/// before re-checking the drain flag.
const IDLE_SLICE: Duration = Duration::from_millis(100);

/// Per-connection pipeline bound: at most this many parsed-but-unread
/// request lines buffer between the reader thread and the serving
/// loop. A client that pipelines past it blocks in TCP backpressure
/// instead of growing an unbounded in-memory queue.
const PIPELINE_CAP: usize = 32;

/// Longest frame the server reads: an NDJSON request line, an HTTP
/// request line, one HTTP header line, or an HTTP body. A longer frame
/// is rejected as a `bad_request` and the connection is closed, so a
/// client that never sends a newline cannot grow server memory.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// The synthetic connection id recovery replays run under (no real
/// socket ever carries it — connection ids count up from zero).
const RECOVERY_CONN: u64 = u64::MAX;

/// Server construction options; `..Default::default()` fills the
/// rest.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Listen address (`host:port`; port 0 picks a free one). Empty
    /// means [`DEFAULT_ADDR`].
    pub addr: String,
    /// Default worker-pool width per job (a request's own `threads`
    /// field wins). Applied per run, so consecutive jobs can run at
    /// different widths.
    pub threads: Option<usize>,
    /// Content-addressed result cache shared by every connection.
    pub cache_dir: Option<PathBuf>,
    /// Global admission budget in trial-units; 0 means
    /// [`DEFAULT_MAX_INFLIGHT_TRIALS`].
    pub max_inflight_trials: usize,
    /// Per-connection admission cap; defaults to half the global
    /// budget.
    pub per_conn_trials: Option<usize>,
    /// Admission wait-queue bound; `None` means
    /// [`DEFAULT_MAX_QUEUED`]. Requests past the bound are shed with
    /// a structured `overloaded` rejection (HTTP: `503` +
    /// `Retry-After`) instead of parking.
    pub max_queued: Option<usize>,
    /// Replay the job journal on startup (`serve --recover`):
    /// accepted-but-not-done jobs re-enqueue through the credit
    /// ledger in original admission order; `done` jobs verify against
    /// the result cache. Requires `cache_dir` (the journal lives
    /// there).
    pub recover: bool,
    /// Slow-reader watchdog: how long an event write may stall before
    /// the connection is considered dead and its job cancelled.
    /// `None` means [`DEFAULT_WRITE_TIMEOUT`].
    pub write_timeout: Option<Duration>,
    /// Test support: sleep this long after admission, before running
    /// each job — widens the coalescing/queueing windows the
    /// integration suite pins down. Never set in production.
    pub job_delay: Option<Duration>,
    /// Test support: emit a progress event every N trials instead of
    /// the production ~20-per-job throttle — generates enough event
    /// bytes to fill socket buffers and trip the slow-reader
    /// watchdog deterministically. Never set in production.
    pub progress_every: Option<usize>,
}

/// Counters the status event and exit summary report.
#[derive(Debug, Default)]
struct Stats {
    requests: AtomicU64,
    coalesced: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    computed_cells: AtomicU64,
    cached_cells: AtomicU64,
    lockstep_cells: AtomicU64,
    shed: AtomicU64,
    recovered_pending: AtomicU64,
    recovered_done: AtomicU64,
}

/// A point-in-time snapshot of the service counters, returned by
/// [`Server::run`] on exit and [`ServerHandle::summary`] any time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerSummary {
    /// Run/adhoc requests received, coalesced followers and
    /// malformed requests included.
    pub requests: u64,
    /// Requests served as followers of an identical in-flight job.
    pub coalesced: u64,
    /// Requests that received a `result` event.
    pub completed: u64,
    /// Requests that received an `error` event.
    pub failed: u64,
    /// Grid cells actually simulated across all jobs.
    pub computed_cells: u64,
    /// Grid cells served from the shared result cache.
    pub cached_cells: u64,
    /// Lockstep-eligible grid cells across all jobs this server led:
    /// the cells routed through the lockstep batch path whenever they
    /// are simulated (cache hits skip simulation). Admission
    /// cost is unaffected — see [`credit`] and
    /// [`proto::RunRequest::cost`].
    pub lockstep_cells: u64,
    /// Requests shed with a structured `overloaded` rejection because
    /// the admission queue was at its bound.
    pub shed: u64,
    /// Journal records replayed as pending jobs at startup
    /// (`--recover`): accepted-but-not-done work re-enqueued in
    /// original admission order.
    pub recovered_pending: u64,
    /// Journal `done` records whose result-cache entries all verified
    /// at startup — served from cache with no recomputation.
    pub recovered_done: u64,
}

/// State shared by the accept loop and every connection thread.
#[derive(Debug)]
struct Shared {
    threads: Option<usize>,
    cache: Option<ResultCache>,
    ledger: Arc<Ledger>,
    flights: Flights,
    journal: Option<Journal>,
    stats: Stats,
    draining: AtomicBool,
    write_timeout: Duration,
    job_delay: Option<Duration>,
    progress_every: Option<usize>,
}

impl Shared {
    fn summary(&self) -> ServerSummary {
        ServerSummary {
            requests: self.stats.requests.load(Ordering::Relaxed),
            coalesced: self.stats.coalesced.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            failed: self.stats.failed.load(Ordering::Relaxed),
            computed_cells: self.stats.computed_cells.load(Ordering::Relaxed),
            cached_cells: self.stats.cached_cells.load(Ordering::Relaxed),
            lockstep_cells: self.stats.lockstep_cells.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
            recovered_pending: self.stats.recovered_pending.load(Ordering::Relaxed),
            recovered_done: self.stats.recovered_done.load(Ordering::Relaxed),
        }
    }

    fn status_json(&self) -> Value {
        let s = self.summary();
        let mut v = Value::obj()
            .with("event", "status")
            .with("capacity", self.ledger.capacity())
            .with("per_conn_trials", self.ledger.per_conn())
            .with("inflight_trials", self.ledger.inflight())
            .with("queued_requests", self.ledger.queued())
            .with("active_flights", self.flights.len())
            .with("requests", s.requests)
            .with("coalesced", s.coalesced)
            .with("completed", s.completed)
            .with("failed", s.failed)
            .with("computed_cells", s.computed_cells)
            .with("cached_cells", s.cached_cells)
            .with("lockstep_cells", s.lockstep_cells)
            .with("shed", s.shed)
            .with("recovered_pending", s.recovered_pending)
            .with("recovered_done", s.recovered_done);
        if let Some(cache) = &self.cache {
            v = v.with("cache", cache.stats().to_json());
        }
        v.with("draining", self.draining.load(Ordering::SeqCst))
    }

    fn shutdown_json(&self) -> Value {
        Value::obj()
            .with("event", "shutdown")
            .with("draining", true)
    }
}

/// A handle for observing and stopping a running server from another
/// thread (tests, signal plumbing).
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begins the graceful drain: the accept loop stops taking new
    /// connections, in-flight and queued jobs complete, idle
    /// connections close, then [`Server::run`] returns.
    pub fn begin_shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// A live snapshot of the service counters.
    pub fn summary(&self) -> ServerSummary {
        self.shared.summary()
    }
}

/// The bound-but-not-yet-running service; [`Server::run`] blocks the
/// calling thread until a shutdown request (or
/// [`ServerHandle::begin_shutdown`]) drains it.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    recovery: Vec<journal::PendingJob>,
}

impl Server {
    /// Binds the listen socket, opens the shared result cache and —
    /// when a cache dir is configured — the job journal beside it
    /// (compacting it; with `recover` also reconstructing the replay
    /// plan that [`Server::run`] executes before anything else).
    ///
    /// # Errors
    ///
    /// Propagates bind, cache-directory and journal I/O failures, and
    /// rejects `recover` without a `cache_dir` (the journal lives
    /// there).
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let addr = if config.addr.is_empty() {
            DEFAULT_ADDR
        } else {
            &config.addr
        };
        let listener = TcpListener::bind(addr)?;
        let cache = config
            .cache_dir
            .clone()
            .map(ResultCache::open)
            .transpose()?;
        let capacity = if config.max_inflight_trials == 0 {
            DEFAULT_MAX_INFLIGHT_TRIALS
        } else {
            config.max_inflight_trials
        };
        let per_conn = config.per_conn_trials.unwrap_or(capacity / 2);
        let max_queued = config.max_queued.unwrap_or(DEFAULT_MAX_QUEUED);
        let (journal, recovery, recovered_done) = match (&config.cache_dir, config.recover) {
            (Some(dir), true) => {
                let (journal, report) = Journal::recover(dir, cache.as_ref())?;
                (Some(journal), report.pending, report.done_verified)
            }
            (Some(dir), false) => (Some(Journal::open(dir)?), Vec::new(), 0),
            (None, true) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "--recover needs --cache-dir: the job journal lives in the cache directory",
                ));
            }
            (None, false) => (None, Vec::new(), 0),
        };
        let stats = Stats::default();
        stats
            .recovered_pending
            .store(recovery.len() as u64, Ordering::Relaxed);
        stats
            .recovered_done
            .store(recovered_done as u64, Ordering::Relaxed);
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                threads: config.threads,
                cache,
                ledger: Arc::new(Ledger::bounded(capacity, per_conn, max_queued)),
                flights: Flights::default(),
                journal,
                stats,
                draining: AtomicBool::new(false),
                write_timeout: config.write_timeout.unwrap_or(DEFAULT_WRITE_TIMEOUT),
                job_delay: config.job_delay,
                progress_every: config.progress_every,
            }),
            recovery,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle for stopping/observing the server from elsewhere.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the accept loop until drained; returns the final
    /// counters. Each connection gets its own thread; on drain the
    /// loop stops accepting and joins every connection (in-flight and
    /// queued jobs complete first — that is the drain guarantee).
    ///
    /// With `--recover`, a replay thread re-runs the journal's
    /// pending jobs concurrently with live traffic, in original
    /// admission order, through the same single-flight and admission
    /// path as any client — so a retrying submit for a crashed job
    /// coalesces with its own recovery instead of racing it. Replayed
    /// jobs count as queued work for the drain guarantee.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener failures (transient accept errors
    /// are retried).
    pub fn run(mut self) -> io::Result<ServerSummary> {
        self.listener.set_nonblocking(true)?;
        let replay = {
            let jobs = std::mem::take(&mut self.recovery);
            (!jobs.is_empty()).then(|| {
                let shared = Arc::clone(&self.shared);
                thread::spawn(move || replay_recovery(&shared, jobs))
            })
        };
        let mut conns = Vec::new();
        let mut next_conn: u64 = 0;
        while !self.shared.draining.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    // Accepted sockets must block: connection threads
                    // use plain reads with their own liveness story.
                    stream.set_nonblocking(false)?;
                    let shared = Arc::clone(&self.shared);
                    let conn_id = next_conn;
                    next_conn += 1;
                    conns.push(thread::spawn(move || {
                        handle_connection(&shared, stream, conn_id);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_SLICE),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        drop(self.listener);
        if let Some(replay) = replay {
            let _ = replay.join();
        }
        for conn in conns {
            let _ = conn.join();
        }
        Ok(self.shared.summary())
    }
}

/// Re-runs the journal's pending jobs in original admission order.
/// Each replay goes through [`serve_request`] — single-flight join,
/// credit admission, shared cache — exactly like a client request, so
/// a concurrent retrying submit for the same content coalesces with
/// it, and a job whose cells are already cached completes without
/// recomputation. An unreplayable record (e.g. an artifact retired
/// between versions) is marked `cancelled` so the journal compacts it
/// away — degrade, never crash.
fn replay_recovery(shared: &Arc<Shared>, jobs: Vec<journal::PendingJob>) {
    for job in jobs {
        let req = match proto::parse_request(&job.request.to_string()) {
            Ok(Request::Run(req)) => req,
            _ => {
                if let Some(journal) = &shared.journal {
                    let _ = journal.cancelled(job.seq);
                }
                continue;
            }
        };
        let token = CancelToken::new();
        let _ = serve_request(
            shared,
            RECOVERY_CONN,
            &req,
            &token,
            None,
            &|_| {},
            Some(job.seq),
        );
    }
}

/// Writes one event line (payload + `\n`) and flushes.
fn write_line(writer: &Mutex<TcpStream>, line: &str) -> io::Result<()> {
    let mut w = writer
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// One read from a connection, capped at [`MAX_FRAME_BYTES`].
enum Frame {
    /// A complete `\n`-terminated UTF-8 line.
    Line(String),
    /// [`MAX_FRAME_BYTES`] passed without a newline.
    TooLarge,
    /// EOF, a read error, non-UTF-8 bytes, or a final unterminated
    /// fragment (the client died mid-frame — don't parse half of it).
    End,
}

fn read_frame(reader: &mut impl BufRead) -> Frame {
    let mut buf = Vec::new();
    let cap = MAX_FRAME_BYTES as u64 + 1;
    match reader.by_ref().take(cap).read_until(b'\n', &mut buf) {
        Ok(_) if buf.ends_with(b"\n") => String::from_utf8(buf).map_or(Frame::End, Frame::Line),
        Ok(_) if buf.len() > MAX_FRAME_BYTES => Frame::TooLarge,
        _ => Frame::End,
    }
}

/// The `bad_request` event an over-cap frame gets.
fn frame_too_large_event() -> Value {
    proto::error_event(
        "bad_request",
        &format!("frame exceeds {MAX_FRAME_BYTES} bytes without a newline"),
    )
}

/// Sniffs the first byte: NDJSON requests start with `{`, anything
/// else is handed to the HTTP/1.1 shim.
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream, conn_id: u64) {
    let mut first = [0u8; 1];
    match stream.peek(&mut first) {
        Ok(0) | Err(_) => return,
        Ok(_) => {}
    }
    if first[0] == b'{' {
        serve_ndjson(shared, stream, conn_id);
    } else {
        serve_http(shared, stream, conn_id);
    }
}

/// The NDJSON connection loop. A dedicated reader thread feeds
/// request lines through a *bounded* channel (a client pipelining
/// past [`PIPELINE_CAP`] unserved requests blocks in TCP backpressure
/// instead of growing an in-memory queue); when it sees EOF or a read
/// error — the client hung up — it cancels whatever request is
/// active, so a disconnected client's job stops at the next chunk
/// boundary instead of running to completion for nobody.
///
/// The write side arms the slow-reader watchdog: an event write that
/// cannot progress within the configured timeout fails, and a failed
/// progress write cancels the job — a client that stopped draining
/// its socket cannot pin worker threads indefinitely.
fn serve_ndjson(shared: &Arc<Shared>, stream: TcpStream, conn_id: u64) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let _ = stream.set_write_timeout(Some(shared.write_timeout));
    let writer = Mutex::new(stream);
    let active: Arc<Mutex<Option<CancelToken>>> = Arc::new(Mutex::new(None));
    let (tx, rx) = mpsc::sync_channel::<Frame>(PIPELINE_CAP);
    let reader_active = Arc::clone(&active);
    let reader = thread::spawn(move || {
        let mut lines = BufReader::new(read_half);
        loop {
            match read_frame(&mut lines) {
                Frame::Line(line) => {
                    if tx.send(Frame::Line(line)).is_err() {
                        break;
                    }
                }
                Frame::TooLarge => {
                    let _ = tx.send(Frame::TooLarge);
                    break;
                }
                Frame::End => break,
            }
        }
        // Client gone: cancel the in-flight request, if any.
        let token = reader_active
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        if let Some(token) = token {
            token.cancel();
        }
    });
    loop {
        match rx.recv_timeout(IDLE_SLICE) {
            // The reader stops after an over-cap frame (and never
            // forwards `End`): reject it and hang up.
            Ok(Frame::TooLarge | Frame::End) => {
                shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                let _ = write_line(&writer, &frame_too_large_event().to_string());
                break;
            }
            Ok(Frame::Line(line)) => {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                match proto::parse_request(line) {
                    Err(message) => {
                        // A malformed request is still a (failed)
                        // request — the counters match the events the
                        // client saw.
                        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                        shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                        let event = proto::error_event("bad_request", &message);
                        if write_line(&writer, &event.to_string()).is_err() {
                            break;
                        }
                    }
                    Ok(Request::Status) => {
                        if write_line(&writer, &shared.status_json().to_string()).is_err() {
                            break;
                        }
                    }
                    Ok(Request::Shutdown) => {
                        shared.draining.store(true, Ordering::SeqCst);
                        let _ = write_line(&writer, &shared.shutdown_json().to_string());
                        break;
                    }
                    Ok(Request::Run(req)) => {
                        run_on_connection(shared, conn_id, &writer, &active, &req);
                    }
                }
            }
            // Queued request lines are still drained and served after
            // the shutdown request arrives — only *idle* connections
            // close here.
            Err(RecvTimeoutError::Timeout) => {
                if shared.draining.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    let _ = writer
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .shutdown(Shutdown::Both);
    let _ = reader.join();
}

/// Serves one run/adhoc request on an NDJSON connection: accepted
/// event, coalesce-or-execute, then the shared result line or an
/// error event.
fn run_on_connection(
    shared: &Arc<Shared>,
    conn_id: u64,
    writer: &Mutex<TcpStream>,
    active: &Mutex<Option<CancelToken>>,
    req: &RunRequest,
) {
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    let root = CancelToken::new();
    let token = match req.timeout {
        Some(t) => root.child_with_timeout(t),
        None => root.clone(),
    };
    *active
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(token.clone());
    let accepted = |coalesced: bool| {
        let event = proto::accepted_event(
            &req.job.label,
            req.cost(),
            req.lockstep_cells() > 0,
            coalesced,
        );
        if write_line(writer, &event.to_string()).is_err() {
            token.cancel();
        }
    };
    let progress = req.stream.then_some(writer);
    let outcome = serve_request(shared, conn_id, req, &token, progress, &accepted, None);
    match &outcome {
        FlightOutcome::Line(line) => {
            shared.stats.completed.fetch_add(1, Ordering::Relaxed);
            let _ = write_line(writer, line);
        }
        FlightOutcome::Fail {
            status,
            message,
            retry_after_ms,
        } => {
            shared.stats.failed.fetch_add(1, Ordering::Relaxed);
            let mut event = proto::error_event(status, message);
            if let Some(ms) = retry_after_ms {
                event = event.with("retry_after_ms", *ms);
            }
            let _ = write_line(writer, &event.to_string());
        }
    }
    *active
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

/// The transport-independent request path: single-flight join, then
/// either follow the in-progress leader or lead (journal record,
/// admission, job execution, flight publication). Returns the final
/// outcome; the caller renders it for its transport.
///
/// `journal_seq` is `Some` only for recovery replays, whose
/// `accepted` record already exists in the compacted journal; live
/// requests pass `None` and the leader appends a fresh record. Only
/// leaders journal — followers are deduplicated by content, which is
/// what makes client resubmission idempotent.
fn serve_request(
    shared: &Arc<Shared>,
    conn_id: u64,
    req: &RunRequest,
    token: &CancelToken,
    progress: Option<&Mutex<TcpStream>>,
    accepted: &dyn Fn(bool),
    journal_seq: Option<u64>,
) -> FlightOutcome {
    let key = req.flight_key();
    match shared.flights.join(&key) {
        Role::Follower(slot) => {
            shared.stats.coalesced.fetch_add(1, Ordering::Relaxed);
            accepted(true);
            let outcome = match slot.wait(token) {
                Some(outcome) => outcome,
                // The follower's own deadline or disconnect fired
                // first; the leader keeps running for everyone else.
                None => FlightOutcome::fail(
                    own_cancel_status(token),
                    format!(
                        "request {:?} abandoned while coalesced on an in-flight job",
                        req.job.label
                    ),
                ),
            };
            // A recovery replay that coalesced behind a live client's
            // identical request: the client's leader did the work;
            // settle the replayed record with its outcome.
            if let (Some(journal), Some(seq)) = (&shared.journal, journal_seq) {
                match &outcome {
                    FlightOutcome::Line(_) => drop(journal.done(seq)),
                    FlightOutcome::Fail { .. } => drop(journal.cancelled(seq)),
                }
            }
            outcome
        }
        Role::Leader => {
            accepted(false);
            let seq = match journal_seq {
                Some(seq) => Some(seq),
                None => shared
                    .journal
                    .as_ref()
                    .and_then(|j| j.accepted(req.content_key(), &req.journal_json()).ok()),
            };
            // Publish exactly once, even if execution panics — a
            // stuck flight would wedge every future duplicate.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                execute_leader(shared, conn_id, req, token, progress, seq)
            }))
            .unwrap_or_else(|payload| {
                FlightOutcome::fail(
                    "panicked",
                    format!(
                        "request {:?} panicked outside the isolated job driver: {}",
                        req.job.label,
                        panic_text(&payload)
                    ),
                )
            });
            // Settle the journal record: `done` only after the result
            // (and its cache entries) exist; anything else must not
            // be replayed as if it were still wanted work — a client
            // that still wants it will resubmit, dedupe by content,
            // and re-journal.
            if let (Some(journal), Some(seq)) = (&shared.journal, seq) {
                match &outcome {
                    FlightOutcome::Line(_) => drop(journal.done(seq)),
                    FlightOutcome::Fail { .. } => drop(journal.cancelled(seq)),
                }
            }
            shared.flights.finish(&key, outcome.clone());
            outcome
        }
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".into())
}

/// Classifies a fired request token from the requester's own side.
fn own_cancel_status(token: &CancelToken) -> &'static str {
    if token.timed_out() {
        "timeout"
    } else {
        "cancelled"
    }
}

/// Leader side: admission (where overload sheds), the `started`
/// journal record, optional injected delay, engine run, response
/// rendering. The returned [`FlightOutcome`] carries the complete
/// result line so followers can share it verbatim.
fn execute_leader(
    shared: &Arc<Shared>,
    conn_id: u64,
    req: &RunRequest,
    token: &CancelToken,
    progress: Option<&Mutex<TcpStream>>,
    seq: Option<u64>,
) -> FlightOutcome {
    let started = Instant::now();
    let _credits = match shared.ledger.acquire(conn_id, req.cost(), token) {
        Admission::Admitted(credits) => credits,
        Admission::Overloaded { queued, max_queued } => {
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            // A deterministic hint scaled by queue depth: deeper
            // backlog, longer back-off.
            let retry_after_ms = ((queued as u64 + 1) * 250).min(5_000);
            let event = proto::overloaded_event(queued, max_queued, retry_after_ms);
            return FlightOutcome::Fail {
                status: "overloaded".into(),
                message: event
                    .get("message")
                    .and_then(Value::as_str)
                    .unwrap_or("admission queue is full")
                    .to_string(),
                retry_after_ms: Some(retry_after_ms),
            };
        }
        Admission::Cancelled => {
            return FlightOutcome::fail(
                own_cancel_status(token),
                deadline_message(req, "while queued for admission credits"),
            );
        }
    };
    if let (Some(journal), Some(seq)) = (&shared.journal, seq) {
        let _ = journal.started(seq);
    }
    if let Some(delay) = shared.job_delay {
        thread::sleep(delay);
    }
    let mut engine = Engine::new();
    if let Some(cache) = &shared.cache {
        engine = engine.with_cache(cache.clone());
    }
    if let Some(workers) = req.threads.or(shared.threads) {
        engine = engine.with_workers(workers);
    }
    // Throttled trial-level progress (~20 lines per job; tests can
    // densify via `progress_every` to exercise the slow-reader
    // watchdog). A write failure — including a write that stalled
    // past the watchdog timeout because the client stopped draining —
    // means the client is gone: cancel cooperatively.
    let step = shared
        .progress_every
        .unwrap_or_else(|| (req.job.total_trials() / 20).max(1))
        .max(1);
    let observe = |p: JobProgress| {
        if p.trials_done == p.trials || p.trials_done.is_multiple_of(step) {
            if let Some(writer) = progress {
                if write_line(writer, &proto::progress_event(p).to_string()).is_err() {
                    token.cancel();
                }
            }
        }
    };
    let observer: Option<JobProgressFn> = progress.is_some().then_some(&observe);
    match engine.run_job_observed(&req.job, observer, token) {
        Ok((outcomes, status)) => {
            shared
                .stats
                .computed_cells
                .fetch_add(status.computed as u64, Ordering::Relaxed);
            shared
                .stats
                .cached_cells
                .fetch_add(status.from_cache as u64, Ordering::Relaxed);
            let lockstep_cells = req.lockstep_cells();
            shared
                .stats
                .lockstep_cells
                .fetch_add(lockstep_cells as u64, Ordering::Relaxed);
            let body = render_body(req, &outcomes);
            let wall_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
            let event = proto::result_event(
                &req.job.label,
                &body,
                &status,
                lockstep_cells,
                shared.cache.as_ref().map(ResultCache::stats),
                wall_ms,
            );
            FlightOutcome::Line(event.to_string())
        }
        Err(e) => {
            if token.timed_out() {
                FlightOutcome::fail("timeout", deadline_message(req, "mid-job"))
            } else {
                FlightOutcome::fail(e.status(), format!("{}: {e}", req.job.label))
            }
        }
    }
}

fn deadline_message(req: &RunRequest, stage: &str) -> String {
    match req.timeout {
        Some(t) => format!(
            "{}: deadline exceeded {stage} (timeout {}s)",
            req.job.label,
            t.as_secs()
        ),
        None => format!("{}: cancelled {stage}", req.job.label),
    }
}

/// Renders the response body — the *exact* bytes the CLI prints for
/// the same request (`run <id> --json` / `adhoc ... --json`), which
/// is the service's byte-identity contract.
fn render_body(req: &RunRequest, outcomes: &[Value]) -> String {
    if let Some(artifact) = req.artifact {
        let report = artifact.render_report(&req.opts, &req.job.grid, outcomes);
        format!("{}\n", report.metrics.pretty())
    } else {
        let scenario = req
            .scenario
            .as_ref()
            .expect("adhoc request carries its scenario");
        let result = Value::obj()
            .with("scenario", scenario.to_json())
            .with("outcome", outcomes.first().cloned().unwrap_or(Value::Null));
        format!("{}\n", result.pretty())
    }
}

/// The minimal HTTP/1.1 shim: `GET /status`, `POST /run` (body = one
/// run/adhoc request object), `POST /shutdown`. One request per
/// connection, `Connection: close`, no streaming — curl support, not
/// a web server.
fn serve_http(shared: &Arc<Shared>, stream: TcpStream, conn_id: u64) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let too_large = |stream| {
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        shared.stats.failed.fetch_add(1, Ordering::Relaxed);
        let payload = frame_too_large_event().to_string();
        respond_http(stream, 400, "Bad Request", &payload, None);
    };
    let request_line = match read_frame(&mut reader) {
        Frame::Line(line) => line,
        Frame::TooLarge => return too_large(stream),
        Frame::End => return,
    };
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let mut content_length: usize = 0;
    loop {
        let header = match read_frame(&mut reader) {
            Frame::Line(line) => line,
            Frame::TooLarge => return too_large(stream),
            Frame::End => return,
        };
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap_or(0);
        }
    }
    // A megabyte of request JSON is already absurd; cap the read so a
    // bogus Content-Length cannot pin the thread.
    let mut body = vec![0u8; content_length.min(MAX_FRAME_BYTES)];
    if !body.is_empty() && reader.read_exact(&mut body).is_err() {
        return;
    }
    let body = String::from_utf8_lossy(&body).into_owned();
    let mut retry_after: Option<u64> = None;
    let (code, reason, payload) = match (method, path) {
        ("GET", "/status") => (200, "OK", shared.status_json().to_string()),
        ("POST", "/shutdown") => {
            shared.draining.store(true, Ordering::SeqCst);
            (200, "OK", shared.shutdown_json().to_string())
        }
        ("POST", "/run") => match proto::parse_request(&body) {
            Ok(Request::Run(req)) => {
                shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                let token = match req.timeout {
                    Some(t) => CancelToken::new().child_with_timeout(t),
                    None => CancelToken::new(),
                };
                let outcome = serve_request(shared, conn_id, &req, &token, None, &|_| {}, None);
                match outcome {
                    FlightOutcome::Line(line) => {
                        shared.stats.completed.fetch_add(1, Ordering::Relaxed);
                        (200, "OK", line)
                    }
                    FlightOutcome::Fail {
                        status,
                        message,
                        retry_after_ms,
                    } => {
                        shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                        let (code, reason) = match status.as_str() {
                            "bad_request" => (400, "Bad Request"),
                            "timeout" => (504, "Gateway Timeout"),
                            "cancelled" | "overloaded" => (503, "Service Unavailable"),
                            _ => (500, "Internal Server Error"),
                        };
                        retry_after = retry_after_ms;
                        let mut event = proto::error_event(&status, &message);
                        if let Some(ms) = retry_after_ms {
                            event = event.with("retry_after_ms", ms);
                        }
                        (code, reason, event.to_string())
                    }
                }
            }
            Ok(_) => {
                shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                (
                    400,
                    "Bad Request",
                    proto::error_event("bad_request", "POST /run takes a run or adhoc request")
                        .to_string(),
                )
            }
            Err(message) => {
                shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                (
                    400,
                    "Bad Request",
                    proto::error_event("bad_request", &message).to_string(),
                )
            }
        },
        _ => (
            404,
            "Not Found",
            proto::error_event(
                "bad_request",
                "unknown route (GET /status, POST /run, POST /shutdown)",
            )
            .to_string(),
        ),
    };
    respond_http(stream, code, reason, &payload, retry_after);
}

fn respond_http(
    mut stream: TcpStream,
    code: u16,
    reason: &str,
    payload: &str,
    retry_after_ms: Option<u64>,
) {
    // HTTP Retry-After is whole seconds; round the hint up so a
    // compliant client never comes back early.
    let retry_after = retry_after_ms
        .map(|ms| format!("Retry-After: {}\r\n", ms.div_ceil(1000).max(1)))
        .unwrap_or_default();
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n{retry_after}Connection: close\r\n\r\n",
        payload.len() + 1
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(payload.as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.flush();
}
