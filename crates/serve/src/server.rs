//! The daemon: one acceptor, a bounded session pool, a bounded request
//! queue, and a worker pool — every stage designed to fail small.
//!
//! ```text
//!            accept            frame/parse       bounded queue
//!  clients ─────────▶ sessions ───────────▶ admit ─────────▶ workers
//!                      (≤ max_sessions)      │                 │
//!                      read/write timeouts   │ Overloaded      │ catch_unwind
//!                      stall budget          ▼                 ▼ deadline shed
//!                                         typed ERR        typed ERR
//! ```
//!
//! Robustness invariants, each pinned by a test or the CI fault drill:
//!
//! * **No unbounded anything.** Sessions, queue depth, frame size and
//!   per-request time are all capped; past every cap is a typed error
//!   frame, not latency.
//! * **Workers never touch sockets.** Sessions own their socket and its
//!   timeouts; workers answer through an in-memory channel, so a client
//!   that stops reading stalls only its own session thread (bounded by
//!   the write timeout), never a worker.
//! * **Admission is predictive.** [`admit`] rejects when the queue is
//!   full *or* when an EWMA of recent service times says the request
//!   would miss its deadline anyway — shedding early is cheaper than
//!   computing an answer nobody can use (`halk_serve_overloaded_total`).
//! * **Panics stay inside the request.** Each execution runs under
//!   `catch_unwind`; the requester gets `ERR panic`, the daemon keeps
//!   serving (`halk_serve_panics_total`).
//! * **Shutdown drains.** [`Server::begin_shutdown`] stops the acceptor,
//!   lets queued work finish until the drain deadline, then flushes the
//!   remainder as `ERR shutdown` — [`Server::join`] returns in bounded
//!   time.

use crate::engine::{BatchItem, Engine, PreparedAsk};
use crate::protocol::{encode_frame, ErrorKind, FrameDecoder, Request, Response, MAX_FRAME};
use halk_obs::{Clock, Deadline};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Optional telemetry scrape address (`halk serve --obs-addr`): when
    /// set, a dedicated thread serves `GET /metrics`, `/metrics.json` and
    /// `/healthz` there (the `obs_http` module).
    pub obs_addr: Option<String>,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded request queue depth; past it requests are shed.
    pub queue_cap: usize,
    /// Maximum concurrent client connections.
    pub max_sessions: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Duration,
    /// How long [`Server::join`] lets queued work finish after shutdown
    /// begins before flushing it as `ERR shutdown`.
    pub drain: Duration,
    /// Session poll tick: socket read timeout, worker wakeup cadence.
    pub read_timeout: Duration,
    /// Socket write timeout — the slow-client bound.
    pub write_timeout: Duration,
    /// How long a connection may stall mid-frame before it is dropped as
    /// a slowloris (idle *between* frames is always fine).
    pub stall: Duration,
    /// Frame payload cap (see [`FrameDecoder`]).
    pub max_frame: usize,
    /// The clock deadlines run on — injectable for tests.
    pub clock: Clock,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            obs_addr: None,
            workers: 2,
            queue_cap: 64,
            max_sessions: 64,
            default_deadline: Duration::from_secs(2),
            drain: Duration::from_secs(5),
            read_timeout: Duration::from_millis(50),
            write_timeout: Duration::from_secs(2),
            stall: Duration::from_secs(2),
            max_frame: MAX_FRAME,
            clock: Clock::Monotonic(Instant::now()),
        }
    }
}

/// Why [`admit`] turned a request away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The queue is at capacity.
    QueueFull,
    /// Predicted wait (EWMA service time × queue length) exceeds the
    /// request's remaining deadline — it would be shed later anyway.
    DeadlineUnmeetable,
}

/// The admission decision, as a pure function so backpressure behavior is
/// unit-testable without sockets or clocks: given the current queue
/// length, its cap, the EWMA of recent service times and the request's
/// remaining deadline budget, may this request enter the queue?
pub fn admit(
    queue_len: usize,
    queue_cap: usize,
    ewma_service_ns: u64,
    remaining_ns: u64,
) -> Result<(), Rejection> {
    if queue_len >= queue_cap {
        return Err(Rejection::QueueFull);
    }
    // Everything ahead of us plus our own execution, at recent pace. With
    // no history (ewma 0) or no deadline (u64::MAX) the prediction is
    // vacuous and only the queue cap applies.
    if ewma_service_ns > 0 && remaining_ns != u64::MAX {
        let predicted = ewma_service_ns.saturating_mul(queue_len as u64 + 1);
        if predicted > remaining_ns {
            return Err(Rejection::DeadlineUnmeetable);
        }
    }
    Ok(())
}

/// Mints request-scoped trace ids ([`handle_ask`]); id 0 is reserved for
/// "no identity" (CLI one-shots, tests), so the first request is 1.
static NEXT_REQ_ID: AtomicU64 = AtomicU64::new(1);

/// One queued request, carrying its reply channel. The query was already
/// parsed, validated and shape-resolved in the session thread
/// ([`Engine::prepare`]), so the queue holds only executable work and the
/// shape pointer doubles as the skeleton-batching key.
struct Job {
    prepared: PreparedAsk,
    top: usize,
    deadline: Deadline,
    reply: mpsc::Sender<Response>,
    /// The request's trace id, minted at accept.
    req: u64,
    /// `cfg.clock` ns when the job entered the queue (queue-wait basis).
    enqueued_ns: u64,
}

/// State shared by the acceptor, sessions, workers and the telemetry
/// endpoint ([`crate::obs_http`] reads it for `/healthz`).
pub(crate) struct Shared {
    pub(crate) engine: Engine,
    pub(crate) cfg: ServeConfig,
    pub(crate) shutdown: AtomicBool,
    /// Drain deadline (ns on `cfg.clock`) once shutdown began; 0 = unset.
    drain_by_ns: AtomicU64,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    /// EWMA of worker service time in ns (α = 1/8), 0 until the first
    /// request completes.
    ewma_ns: AtomicU64,
    pub(crate) sessions: AtomicUsize,
}

impl Shared {
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let by = self
                .cfg
                .clock
                .now_ns()
                .saturating_add(self.cfg.drain.as_nanos() as u64)
                .max(1);
            self.drain_by_ns.store(by, Ordering::SeqCst);
        }
        self.queue_cv.notify_all();
    }

    fn draining_expired(&self) -> bool {
        let by = self.drain_by_ns.load(Ordering::SeqCst);
        by != 0 && self.cfg.clock.now_ns() >= by
    }

    /// Current queue depth, for `STATS` and `/healthz`.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.lock().expect("queue").len()
    }

    fn observe_service(&self, ns: u64) {
        let prev = self.ewma_ns.load(Ordering::Relaxed);
        let next = if prev == 0 {
            ns
        } else {
            prev - prev / 8 + ns / 8
        };
        self.ewma_ns.store(next, Ordering::Relaxed);
    }
}

/// A running daemon. Dropping it without [`Server::join`] leaks threads;
/// call `join` (which drains) or keep it for the process lifetime.
pub struct Server {
    local_addr: SocketAddr,
    obs_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    obs_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    session_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds, spawns the worker pool and the acceptor, and returns
    /// immediately; the daemon serves until [`Server::begin_shutdown`].
    pub fn start(engine: Engine, cfg: ServeConfig) -> io::Result<Server> {
        // A daemon is inherently live: arm windowed collection so the
        // rolling STATS quantiles work even without `--obs-addr`. Batch
        // binaries never arm it and pay only a relaxed-load branch.
        halk_obs::window::set_enabled(true);
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            cfg,
            shutdown: AtomicBool::new(false),
            drain_by_ns: AtomicU64::new(0),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            ewma_ns: AtomicU64::new(0),
            sessions: AtomicUsize::new(0),
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("halk-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let session_handles = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = shared.clone();
            let handles = session_handles.clone();
            std::thread::Builder::new()
                .name("halk-serve-acceptor".to_string())
                .spawn(move || accept_loop(&listener, &shared, &handles))
                .expect("spawn acceptor")
        };
        let (obs_addr, obs_thread) = match shared.cfg.obs_addr.clone() {
            Some(addr) => {
                let (a, h) = crate::obs_http::spawn(&addr, shared.clone())?;
                (Some(a), Some(h))
            }
            None => (None, None),
        };
        Ok(Server {
            local_addr,
            obs_addr,
            shared,
            acceptor: Some(acceptor),
            obs_thread,
            workers,
            session_handles,
        })
    }

    /// The bound address (with the OS-assigned port when `addr` had 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The telemetry endpoint's bound address, when `obs_addr` was
    /// configured (with the OS-assigned port when it had port 0).
    pub fn obs_addr(&self) -> Option<SocketAddr> {
        self.obs_addr
    }

    /// Starts graceful shutdown: the acceptor stops, queued work drains
    /// until the drain deadline. Idempotent; also triggered by a client
    /// `SHUTDOWN` frame.
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// True once shutdown began (signal, control frame, or explicit call).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Drains and joins every thread. Returns in bounded time: in-flight
    /// work finishes within the drain window, the rest is flushed with
    /// `ERR shutdown`.
    pub fn join(mut self) {
        self.begin_shutdown();
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        if let Some(o) = self.obs_thread.take() {
            let _ = o.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let handles: Vec<_> = std::mem::take(&mut *self.session_handles.lock().expect("sessions"));
        for h in handles {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    handles: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.sessions.load(Ordering::SeqCst) >= shared.cfg.max_sessions {
                    // Full house: a typed rejection is kinder than an
                    // unexplained RST, and it must not block the acceptor.
                    halk_obs::counter!("halk_serve_overloaded_total", windowed).inc();
                    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
                    let resp = Response::Error {
                        kind: ErrorKind::Overloaded,
                        detail: "session limit reached".to_string(),
                    };
                    let mut stream = stream;
                    let _ = stream.write_all(&encode_frame(resp.encode().as_bytes()));
                    continue;
                }
                shared.sessions.fetch_add(1, Ordering::SeqCst);
                halk_obs::gauge!("halk_serve_sessions")
                    .set(shared.sessions.load(Ordering::SeqCst) as f64);
                let shared = shared.clone();
                let handle = std::thread::Builder::new()
                    .name("halk-serve-session".to_string())
                    .spawn(move || {
                        session_loop(&shared, stream);
                        shared.sessions.fetch_sub(1, Ordering::SeqCst);
                        halk_obs::gauge!("halk_serve_sessions")
                            .set(shared.sessions.load(Ordering::SeqCst) as f64);
                    })
                    .expect("spawn session");
                handles.lock().expect("sessions").push(handle);
            }
            // Nonblocking accept: idle tick, check the shutdown flag.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Writes one response frame; an error means the client is gone or too
/// slow (write timeout) and the session should end.
fn write_response(stream: &mut TcpStream, resp: &Response) -> io::Result<()> {
    stream.write_all(&encode_frame(resp.encode().as_bytes()))
}

fn protocol_error(stream: &mut TcpStream, detail: &str) {
    halk_obs::counter!("halk_serve_protocol_errors_total").inc();
    let resp = Response::Error {
        kind: ErrorKind::Protocol,
        detail: detail.to_string(),
    };
    // Best effort: the peer may already be gone.
    let _ = write_response(stream, &resp);
}

fn session_loop(shared: &Arc<Shared>, mut stream: TcpStream) {
    // Accepted sockets can inherit the listener's nonblocking mode on
    // some platforms; force blocking-with-timeout semantics.
    if stream.set_nonblocking(false).is_err()
        || stream
            .set_read_timeout(Some(shared.cfg.read_timeout))
            .is_err()
        || stream
            .set_write_timeout(Some(shared.cfg.write_timeout))
            .is_err()
    {
        return;
    }
    let mut decoder = FrameDecoder::new(shared.cfg.max_frame);
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let mut buf = [0u8; 4096];
    let mut stalled = Duration::ZERO;
    'session: loop {
        // During drain, idle connections close; one mid-frame request
        // still gets read and served (the worker pool is draining too).
        if shared.shutdown.load(Ordering::SeqCst) && !decoder.is_mid_frame() {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break, // clean or mid-request disconnect — same thing
            Ok(n) => {
                stalled = Duration::ZERO;
                if let Err(e) = decoder.push(&buf[..n], &mut frames) {
                    protocol_error(&mut stream, &e.to_string());
                    break;
                }
                for payload in frames.drain(..) {
                    let Ok(text) = std::str::from_utf8(&payload) else {
                        protocol_error(&mut stream, "frame is not UTF-8");
                        break 'session;
                    };
                    let req = match Request::parse(text) {
                        Ok(r) => r,
                        Err(detail) => {
                            protocol_error(&mut stream, &detail);
                            break 'session;
                        }
                    };
                    match req {
                        Request::Ping => {
                            if write_response(&mut stream, &Response::Pong).is_err() {
                                break 'session;
                            }
                        }
                        Request::Shutdown => {
                            shared.begin_shutdown();
                            let _ = write_response(&mut stream, &Response::Bye);
                            break 'session;
                        }
                        // Counters only — answered inline, never queued, so
                        // stats stay readable under full load.
                        Request::Stats => {
                            if write_response(&mut stream, &stats_response(shared)).is_err() {
                                break 'session;
                            }
                        }
                        Request::Ask {
                            engine,
                            top,
                            deadline_ms,
                            sparql,
                        } => {
                            if handle_ask(shared, &mut stream, engine, top, deadline_ms, sparql)
                                .is_err()
                            {
                                break 'session;
                            }
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if decoder.is_mid_frame() {
                    stalled += shared.cfg.read_timeout;
                    if stalled >= shared.cfg.stall {
                        // Slowloris: a frame started and then the bytes
                        // stopped coming. Truncated streams end here too.
                        protocol_error(&mut stream, "stalled mid-frame");
                        break;
                    }
                }
            }
            Err(_) => break,
        }
    }
}

/// Snapshot of the serving counters `load_gen` folds into its summary,
/// plus the memory-diet gauges: resident trig bytes (total, per shard)
/// at the engine's precision, and how long boot took (`boot_ns` is set by
/// the CLI around engine construction; 0 when serving embedded).
///
/// `latency_p50_us`/`latency_p99_us` are *rolling* quantiles over the
/// windowed latency histogram (last ~60 s), not lifetime aggregates —
/// they recover after a load spike instead of averaging it away.
fn stats_response(shared: &Shared) -> Response {
    let engine = &shared.engine;
    // Rotate stale window slots so a daemon idle since the last request
    // reports decayed, not frozen, rolling quantiles.
    halk_obs::window::tick(halk_obs::trace::now_us());
    let batch = halk_obs::histogram!("halk_serve_batch_size");
    let lat = halk_obs::histogram!("halk_serve_latency_us", windowed)
        .window()
        .map(|w| w.snapshot())
        .unwrap_or_default();
    let mut pairs = vec![
        (
            "requests_total".to_string(),
            halk_obs::counter!("halk_serve_requests_total").get(),
        ),
        (
            "batched_groups".to_string(),
            halk_obs::counter!("halk_serve_batched_groups_total").get(),
        ),
        ("latency_p50_us".to_string(), lat.quantile(0.5)),
        ("latency_p99_us".to_string(), lat.quantile(0.99)),
        ("queue_depth".to_string(), shared.queue_len() as u64),
        ("batch_size_p50".to_string(), batch.quantile(0.5)),
        ("batch_size_p99".to_string(), batch.quantile(0.99)),
        ("batch_cap".to_string(), engine.max_batch() as u64),
        (
            "boot_ns".to_string(),
            halk_obs::metrics::gauge("halk_serve_boot_ns").get() as u64,
        ),
        (
            "trig_resident_bytes".to_string(),
            engine.trig_resident_bytes() as u64,
        ),
        (
            "trig_bytes_per_pair".to_string(),
            engine.scoring_precision().bytes_per_pair() as u64,
        ),
    ];
    for (s, bytes) in engine.trig_shard_bytes().into_iter().enumerate() {
        pairs.push((format!("trig_shard{s}_bytes"), bytes as u64));
    }
    Response::Stats { pairs }
}

/// Prepares, admits, enqueues and answers one ASK. `Err` means the socket
/// failed and the session should close; protocol-level failures are `Ok`
/// typed responses. Malformed queries are rejected right here in the
/// session thread ([`Engine::prepare`]) without ever entering the queue.
fn handle_ask(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    engine: crate::protocol::AskEngine,
    top: usize,
    deadline_ms: u64,
    sparql: String,
) -> io::Result<()> {
    halk_obs::counter!("halk_serve_requests_total", windowed).inc();
    // Mint the request's trace identity here, at accept: every downstream
    // span (queue, executor group, shard sweep, slow-query line) carries
    // this id, so `trace_check --reqids` can stitch the full chain.
    let req_id = NEXT_REQ_ID.fetch_add(1, Ordering::Relaxed);
    halk_obs::trace::instant_detail("req_accept", || {
        format!("req={req_id} top={top} deadline_ms={deadline_ms}")
    });
    let started = Instant::now();
    let prepared = match shared.engine.prepare(engine, &sparql) {
        Ok(p) => p,
        Err(resp) => {
            write_response(stream, &resp)?;
            let us = started.elapsed().as_micros() as u64;
            halk_obs::histogram!("halk_serve_latency_us", windowed).record(us);
            return Ok(());
        }
    };
    let budget = if deadline_ms > 0 {
        Duration::from_millis(deadline_ms)
    } else {
        shared.cfg.default_deadline
    };
    let deadline = Deadline::after(&shared.cfg.clock, budget);
    let (tx, rx) = mpsc::channel();
    let verdict = {
        let mut q = shared.queue.lock().expect("queue");
        if shared.shutdown.load(Ordering::SeqCst) {
            Err(Response::Error {
                kind: ErrorKind::Shutdown,
                detail: "daemon is draining".to_string(),
            })
        } else {
            match admit(
                q.len(),
                shared.cfg.queue_cap,
                shared.ewma_ns.load(Ordering::Relaxed),
                deadline.remaining_ns(),
            ) {
                Ok(()) => {
                    q.push_back(Job {
                        prepared,
                        top,
                        deadline: deadline.clone(),
                        reply: tx,
                        req: req_id,
                        enqueued_ns: shared.cfg.clock.now_ns(),
                    });
                    let depth = q.len();
                    halk_obs::gauge!("halk_serve_queue_depth").set(depth as f64);
                    halk_obs::trace::instant_detail("req_enqueue", || {
                        format!("req={req_id} depth={depth}")
                    });
                    shared.queue_cv.notify_one();
                    Ok(())
                }
                Err(why) => {
                    halk_obs::counter!("halk_serve_overloaded_total", windowed).inc();
                    Err(Response::Error {
                        kind: ErrorKind::Overloaded,
                        detail: match why {
                            Rejection::QueueFull => {
                                format!("queue full ({})", shared.cfg.queue_cap)
                            }
                            Rejection::DeadlineUnmeetable => {
                                "predicted wait exceeds deadline".to_string()
                            }
                        },
                    })
                }
            }
        }
    };
    let resp = match verdict {
        Err(rejection) => rejection,
        Ok(()) => {
            // The worker always replies — even for shed or flushed jobs —
            // so this wait is bounded by deadline + drain + margin.
            let wait = Duration::from_nanos(
                deadline
                    .remaining_ns()
                    .min((shared.cfg.default_deadline + shared.cfg.drain).as_nanos() as u64),
            ) + shared.cfg.drain
                + Duration::from_secs(5);
            match rx.recv_timeout(wait) {
                Ok(r) => r,
                Err(_) => Response::Error {
                    kind: ErrorKind::Panic,
                    detail: "worker did not answer".to_string(),
                },
            }
        }
    };
    write_response(stream, &resp)?;
    let us = started.elapsed().as_micros() as u64;
    halk_obs::histogram!("halk_serve_latency_us", windowed).record(us);
    Ok(())
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("queue");
            loop {
                if let Some(j) = q.pop_front() {
                    halk_obs::gauge!("halk_serve_queue_depth").set(q.len() as f64);
                    break Some(j);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = shared
                    .queue_cv
                    .wait_timeout(q, shared.cfg.read_timeout)
                    .expect("queue")
                    .0;
            }
        };
        let Some(job) = job else { return };
        // Skeleton batching: pull queued companions sharing this job's
        // (shape pointer, engine) key — same `Arc::ptr_eq` homogeneity
        // guard as `train_batch` — so the group runs one kernel pass per
        // shard. Fault probes never batch (`batch_key` is None for them).
        let mut group = vec![job];
        let key = group[0]
            .prepared
            .batch_key()
            .map(|(s, e)| (Arc::clone(s), e));
        if let Some((shape, eng)) = key {
            let mut q = shared.queue.lock().expect("queue");
            let mut i = 0;
            while i < q.len() && group.len() < shared.engine.max_batch() {
                let matches = q[i]
                    .prepared
                    .batch_key()
                    .is_some_and(|(s, e)| Arc::ptr_eq(s, &shape) && e == eng);
                if matches {
                    group.push(q.remove(i).expect("index checked"));
                } else {
                    i += 1;
                }
            }
            halk_obs::gauge!("halk_serve_queue_depth").set(q.len() as f64);
        }

        // Per-job shedding, exactly as for singles: past the drain
        // deadline queued work is flushed, and work whose own deadline
        // passed while queued is shed — the client has given up.
        let draining = shared.draining_expired();
        let mut live: Vec<Job> = Vec::with_capacity(group.len());
        for job in group {
            if draining {
                let _ = job.reply.send(Response::Error {
                    kind: ErrorKind::Shutdown,
                    detail: "drain deadline reached".to_string(),
                });
            } else if job.deadline.expired() {
                halk_obs::counter!("halk_serve_deadline_shed_total", windowed).inc();
                let _ = job.reply.send(Response::Error {
                    kind: ErrorKind::Deadline,
                    detail: "deadline expired while queued".to_string(),
                });
            } else {
                live.push(job);
            }
        }
        if live.is_empty() {
            continue;
        }

        let n = live.len();
        halk_obs::histogram!("halk_serve_batch_size", windowed).record(n as u64);
        if n >= 2 {
            halk_obs::counter!("halk_serve_batched_groups_total", windowed).inc();
        }
        let t0 = shared.cfg.clock.now_ns();
        // Queue wait travels with each item so the slow-query log can tell
        // "sat in the queue" apart from "slow kernel".
        let waits: Vec<u64> = live
            .iter()
            .map(|j| {
                let us = t0.saturating_sub(j.enqueued_ns) / 1_000;
                halk_obs::histogram!("halk_serve_queue_wait_us", windowed).record(us);
                us
            })
            .collect();
        let _span = halk_obs::span!("serve_request");
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Singles go through `execute_batch` too: it carries the req id
            // and queue wait into the executor span and slow-query log.
            let items: Vec<BatchItem> = live
                .iter()
                .zip(&waits)
                .map(|(j, &queue_wait_us)| BatchItem {
                    prepared: &j.prepared,
                    top: j.top,
                    deadline: &j.deadline,
                    req: j.req,
                    queue_wait_us,
                })
                .collect();
            shared.engine.execute_batch(&items)
        }));
        match outcome {
            Ok(resps) => {
                // EWMA observes per-request cost, so batching *improves*
                // the admission controller's service-time estimate.
                shared.observe_service(shared.cfg.clock.now_ns().saturating_sub(t0) / n as u64);
                for (job, resp) in live.iter().zip(resps) {
                    if matches!(
                        resp,
                        Response::Scores {
                            truncated: true,
                            ..
                        }
                    ) {
                        halk_obs::counter!("halk_serve_truncated_total", windowed).inc();
                    }
                    let _ = job.reply.send(resp);
                }
            }
            Err(_) if n == 1 => {
                // The request died; the daemon must not. Panic payload is
                // already printed by the default hook.
                halk_obs::counter!("halk_serve_panics_total", windowed).inc();
                let _ = live[0].reply.send(Response::Error {
                    kind: ErrorKind::Panic,
                    detail: "request panicked; daemon still serving".to_string(),
                });
            }
            Err(_) => {
                // A batch member panicked the whole group: retry each job
                // alone under its own catch_unwind so one hostile query
                // cannot poison its batch-mates' answers. Retries keep the
                // original req id — it is the same request, retraced.
                for (job, &queue_wait_us) in live.iter().zip(&waits) {
                    let t1 = shared.cfg.clock.now_ns();
                    let one = catch_unwind(AssertUnwindSafe(|| {
                        shared.engine.execute_batch(&[BatchItem {
                            prepared: &job.prepared,
                            top: job.top,
                            deadline: &job.deadline,
                            req: job.req,
                            queue_wait_us,
                        }])
                    }));
                    let resp = match one {
                        Ok(mut r) => {
                            shared.observe_service(shared.cfg.clock.now_ns().saturating_sub(t1));
                            r.pop().expect("one item in, one response out")
                        }
                        Err(_) => {
                            halk_obs::counter!("halk_serve_panics_total", windowed).inc();
                            Response::Error {
                                kind: ErrorKind::Panic,
                                detail: "request panicked; daemon still serving".to_string(),
                            }
                        }
                    };
                    let _ = job.reply.send(resp);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_rejects_full_queue() {
        assert_eq!(admit(64, 64, 0, u64::MAX), Err(Rejection::QueueFull));
        assert_eq!(admit(65, 64, 0, u64::MAX), Err(Rejection::QueueFull));
        assert_eq!(admit(63, 64, 0, u64::MAX), Ok(()));
    }

    #[test]
    fn admit_predicts_deadline_misses_from_ewma() {
        let ms = 1_000_000u64;
        // 5 queued, service ~10ms each → ~60ms to finish ours; a 20ms
        // budget is hopeless, a 100ms budget is fine.
        assert_eq!(
            admit(5, 64, 10 * ms, 20 * ms),
            Err(Rejection::DeadlineUnmeetable)
        );
        assert_eq!(admit(5, 64, 10 * ms, 100 * ms), Ok(()));
        // No service history yet → only the cap applies.
        assert_eq!(admit(5, 64, 0, 1), Ok(()));
        // No deadline → prediction is vacuous.
        assert_eq!(admit(60, 64, 10 * ms, u64::MAX), Ok(()));
        // Empty queue but one request's service alone blows the budget.
        assert_eq!(
            admit(0, 64, 50 * ms, 20 * ms),
            Err(Rejection::DeadlineUnmeetable)
        );
    }

    #[test]
    fn ewma_tracks_service_times() {
        let shared = Shared {
            engine: Engine::new(halk_kg::Graph::from_triples(1, 1, vec![]), None),
            cfg: ServeConfig::default(),
            shutdown: AtomicBool::new(false),
            drain_by_ns: AtomicU64::new(0),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            ewma_ns: AtomicU64::new(0),
            sessions: AtomicUsize::new(0),
        };
        shared.observe_service(8_000);
        assert_eq!(shared.ewma_ns.load(Ordering::Relaxed), 8_000);
        // α = 1/8: pulls toward new observations without thrashing.
        shared.observe_service(16_000);
        assert_eq!(shared.ewma_ns.load(Ordering::Relaxed), 9_000);
        shared.observe_service(0);
        assert_eq!(shared.ewma_ns.load(Ordering::Relaxed), 7_875);
    }
}
