//! The daemon: one acceptor, bounded sessions, a bounded request queue and
//! `workers` execution permits — every stage designed to fail small.
//!
//! ```text
//!            accept            frame/parse             permit free, queue empty
//!  clients ─────────▶ sessions ───────────▶ admit ─┬──────────────────────────▶ run on
//!                      (≤ max_sessions)      │     │                            own thread
//!                      read/write timeouts   │     └─▶ bounded queue ─▶ run in a holder's combining
//!                      stall budget          ▼          deadline shed   pass, or a released permit passes
//!                                         typed ERR     drain flush     to the oldest job's group
//! ```
//!
//! Robustness invariants, each pinned by a test or the CI fault drill:
//!
//! * **No unbounded anything.** Sessions, queue depth, frame size and
//!   per-request time are all capped; past every cap is a typed error
//!   frame, not latency.
//! * **No permit is held across socket I/O.** A session takes a permit
//!   only to execute and gives it back before writing its reply, so a
//!   client that stops reading stalls only its own session thread
//!   (bounded by the write timeout), never anyone else's request.
//! * **Admission is predictive.** [`admit`] rejects when the queue is
//!   full *or* when an EWMA of recent service times says the request
//!   would miss its deadline anyway — shedding early is cheaper than
//!   computing an answer nobody can use (`halk_serve_overloaded_total`).
//! * **Panics stay inside the request.** Each execution runs under
//!   `catch_unwind`; the requester gets `ERR panic`, the daemon keeps
//!   serving (`halk_serve_panics_total`), and the permit's drop guard
//!   hands it on even on unwind.
//! * **Shutdown drains.** [`Server::begin_shutdown`] stops the acceptor,
//!   lets queued work finish until the drain deadline, then every queued
//!   session answers itself `ERR shutdown` — [`Server::join`] returns in
//!   bounded time.

use crate::engine::{take_group, BatchItem, Engine, PreparedAsk};
use crate::protocol::{encode_frame, ErrorKind, FrameDecoder, Request, Response, MAX_FRAME};
use halk_obs::{Clock, Deadline};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
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
    /// Execution permits: at most this many requests (or same-skeleton
    /// groups) execute at once, each on the session thread holding one.
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
    /// Session poll tick: socket read timeout, queued-request recheck cadence.
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

/// One admitted request. The query was already parsed, validated and
/// shape-resolved in the session thread ([`Engine::prepare`]), so the
/// queue holds only executable work and the shape pointer doubles as the
/// skeleton-batching key.
struct Job {
    prepared: PreparedAsk,
    top: usize,
    deadline: Deadline,
    /// The request's trace id, minted at accept.
    req: u64,
    /// `cfg.clock` ns when the job was admitted (queue-wait basis).
    enqueued_ns: u64,
    /// The answer, left here by whichever session led the job's group.
    reply: Mutex<Option<Response>>,
    /// Its session parks here until the answer lands or a permit is handed over.
    wake: Condvar,
}

/// The request queue and the execution permits, under one lock so "queue
/// empty and a permit free" is a single decision. A permit is free only
/// while the queue is empty: a released one goes to the oldest queued job.
struct Sched {
    queue: VecDeque<Arc<Job>>,
    free: usize,
    /// Groups handed a released permit, each waiting for its leader to wake.
    granted: Vec<Vec<Arc<Job>>>,
}

/// State shared by the acceptor, sessions and the telemetry endpoint
/// ([`crate::obs_http`] reads it for `/healthz`).
pub(crate) struct Shared {
    pub(crate) engine: Engine,
    pub(crate) cfg: ServeConfig,
    pub(crate) shutdown: AtomicBool,
    /// Drain deadline (ns on `cfg.clock`) once shutdown began; 0 = unset.
    drain_by_ns: AtomicU64,
    sched: Mutex<Sched>,
    /// EWMA of service time in ns (α = 1/8); 0 before the first request.
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
    }

    fn draining_expired(&self) -> bool {
        let by = self.drain_by_ns.load(Ordering::SeqCst);
        by != 0 && self.cfg.clock.now_ns() >= by
    }

    /// Current queue depth, for `STATS` and `/healthz`.
    pub(crate) fn queue_len(&self) -> usize {
        self.sched.lock().expect("queue").queue.len()
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

/// One of `cfg.workers` execution permits. Dropping it — on return or on
/// unwind, so a panic cannot leak it — forms the oldest queued job's group
/// and hands the permit to it, waking only that job's session.
struct Permit<'a>(&'a Shared);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut s = self.0.sched.lock().unwrap_or_else(PoisonError::into_inner);
        let group = take_group(&mut s.queue, self.0.engine.max_batch(), |j| &j.prepared);
        halk_obs::gauge!("halk_serve_queue_depth").set(s.queue.len() as f64);
        let Some(head) = group.first().map(Arc::clone) else {
            s.free += 1;
            return;
        };
        s.granted.push(group);
        drop(s);
        head.wake.notify_one();
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
    session_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds, spawns the acceptor, and returns immediately; the daemon
    /// serves until [`Server::begin_shutdown`].
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
            sched: Mutex::new(Sched {
                queue: VecDeque::new(),
                free: cfg.workers.max(1),
                granted: Vec::new(),
            }),
            cfg,
            shutdown: AtomicBool::new(false),
            drain_by_ns: AtomicU64::new(0),
            ewma_ns: AtomicU64::new(0),
            sessions: AtomicUsize::new(0),
        });
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
        // still gets read and served (the queue is draining too).
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
                    let sent = match req {
                        Request::Ping => write_response(&mut stream, &Response::Pong),
                        Request::Shutdown => {
                            shared.begin_shutdown();
                            let _ = write_response(&mut stream, &Response::Bye);
                            break 'session;
                        }
                        // Counters only — answered inline, never queued, so
                        // stats stay readable under full load.
                        Request::Stats => write_response(&mut stream, &stats_response(shared)),
                        Request::Ask {
                            engine,
                            top,
                            deadline_ms,
                            sparql,
                        } => handle_ask(shared, &mut stream, engine, top, deadline_ms, sparql),
                    };
                    if sent.is_err() {
                        break 'session;
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

/// Prepares, admits and answers one ASK. `Err` means the socket failed
/// and the session should close; protocol-level failures are `Ok` typed
/// responses. Malformed queries are rejected right here in the session
/// thread ([`Engine::prepare`]) without ever entering the queue.
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
    let resp = match shared.engine.prepare(engine, &sparql) {
        Ok(prepared) => {
            let budget = match deadline_ms {
                0 => shared.cfg.default_deadline,
                ms => Duration::from_millis(ms),
            };
            let job = Arc::new(Job {
                prepared,
                top,
                deadline: Deadline::after(&shared.cfg.clock, budget),
                req: req_id,
                enqueued_ns: shared.cfg.clock.now_ns(),
                reply: Mutex::new(None),
                wake: Condvar::new(),
            });
            match enter(shared, &job) {
                Err(rejection) => rejection,
                Ok(true) => lead(shared, Permit(shared), vec![job]),
                Ok(false) => wait_turn(shared, &job),
            }
        }
        Err(resp) => resp,
    };
    write_response(stream, &resp)?;
    let us = started.elapsed().as_micros() as u64;
    halk_obs::histogram!("halk_serve_latency_us", windowed).record(us);
    Ok(())
}

/// Admits `job` and, under the same lock, picks its path: `Ok(true)` means
/// a permit was free and nobody queued — the caller now holds it and runs
/// the job itself; `Ok(false)` means the job joined the queue.
fn enter(shared: &Shared, job: &Arc<Job>) -> Result<bool, Response> {
    let mut s = shared.sched.lock().expect("queue");
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err(Response::Error {
            kind: ErrorKind::Shutdown,
            detail: "daemon is draining".to_string(),
        });
    }
    let ewma = shared.ewma_ns.load(Ordering::Relaxed);
    let remaining = job.deadline.remaining_ns();
    if let Err(why) = admit(s.queue.len(), shared.cfg.queue_cap, ewma, remaining) {
        halk_obs::counter!("halk_serve_overloaded_total", windowed).inc();
        return Err(Response::Error {
            kind: ErrorKind::Overloaded,
            detail: match why {
                Rejection::QueueFull => format!("queue full ({})", shared.cfg.queue_cap),
                Rejection::DeadlineUnmeetable => "predicted wait exceeds deadline".to_string(),
            },
        });
    }
    let run_now = s.queue.is_empty() && s.free > 0;
    if run_now {
        s.free -= 1;
    } else {
        s.queue.push_back(Arc::clone(job));
    }
    let depth = s.queue.len();
    halk_obs::gauge!("halk_serve_queue_depth").set(depth as f64);
    halk_obs::trace::instant_detail("req_enqueue", || format!("req={} depth={depth}", job.req));
    Ok(run_now)
}

/// Parks a queued job's session until it is handed a permit to lead its
/// group or a leader answers it; at every wakeup (at least once per
/// `read_timeout`) a job still queued sheds itself past either deadline.
fn wait_turn(shared: &Shared, job: &Arc<Job>) -> Response {
    let mut s = shared.sched.lock().expect("queue");
    loop {
        if let Some(resp) = job.reply.lock().expect("reply").take() {
            return resp;
        }
        if let Some(i) = s.granted.iter().position(|g| Arc::ptr_eq(&g[0], job)) {
            let group = s.granted.swap_remove(i);
            drop(s);
            return lead(shared, Permit(shared), group);
        }
        if let Some(pos) = s.queue.iter().position(|j| Arc::ptr_eq(j, job)) {
            if let Some(resp) = shed(shared, job) {
                s.queue.remove(pos);
                halk_obs::gauge!("halk_serve_queue_depth").set(s.queue.len() as f64);
                return resp;
            }
        }
        let tick = shared.cfg.read_timeout;
        s = job.wake.wait_timeout(s, tick).expect("queue").0;
    }
}

/// The typed answer for a queued job that must not run: flushed past the
/// drain deadline, or shed because its own deadline passed while queued
/// (the client has given up).
fn shed(shared: &Shared, job: &Job) -> Option<Response> {
    let (kind, detail) = if shared.draining_expired() {
        (ErrorKind::Shutdown, "drain deadline reached")
    } else if job.deadline.expired() {
        halk_obs::counter!("halk_serve_deadline_shed_total", windowed).inc();
        (ErrorKind::Deadline, "deadline expired while queued")
    } else {
        return None;
    };
    let detail = detail.to_string();
    Some(Response::Error { kind, detail })
}

/// Runs `group` on the calling session's thread under `permit`, then —
/// flat combining — one pass over the jobs queued by then, so a busy daemon
/// keeps executing instead of waiting for a parked session to be scheduled.
/// Returns the caller's answer (`group[0]`'s) after the permit passes on.
fn lead(shared: &Shared, permit: Permit<'_>, mut group: Vec<Arc<Job>>) -> Response {
    let own = Arc::clone(&group[0]);
    let mut pass = None;
    while !group.is_empty() {
        run_group(shared, &group);
        let mut s = shared.sched.lock().expect("queue");
        let left = pass.get_or_insert(s.queue.len());
        let next = match *left {
            0 => Vec::new(),
            _ => take_group(&mut s.queue, shared.engine.max_batch(), |j| &j.prepared),
        };
        halk_obs::gauge!("halk_serve_queue_depth").set(s.queue.len() as f64);
        *left = left.saturating_sub(next.len());
        drop(s);
        // The lock was taken after every reply slot was written, so a
        // session between its slot check and its wait cannot miss this.
        for job in group.iter().filter(|j| !Arc::ptr_eq(j, &own)) {
            job.wake.notify_one();
        }
        group = next;
    }
    drop(permit);
    let reply = own.reply.lock().expect("reply").take();
    reply.expect("run_group answers every job")
}

/// Answers every member of a group through its reply slot. Shed members
/// get their typed error; the rest execute as one batch under
/// `catch_unwind`.
fn run_group(shared: &Shared, group: &[Arc<Job>]) {
    let answer = |job: &Job, resp| *job.reply.lock().expect("reply") = Some(resp);
    let mut live: Vec<&Job> = Vec::with_capacity(group.len());
    for job in group {
        match shed(shared, job) {
            Some(resp) => answer(job, resp),
            None => live.push(job),
        }
    }
    let n = live.len();
    if n == 0 {
        return;
    }
    halk_obs::histogram!("halk_serve_batch_size", windowed).record(n as u64);
    if n >= 2 {
        halk_obs::counter!("halk_serve_batched_groups_total", windowed).inc();
    }
    let t0 = shared.cfg.clock.now_ns();
    // Queue wait travels with each item so the slow-query log can tell
    // "sat in the queue" apart from "slow kernel".
    let items: Vec<BatchItem> = live
        .iter()
        .map(|j| {
            let queue_wait_us = t0.saturating_sub(j.enqueued_ns) / 1_000;
            halk_obs::histogram!("halk_serve_queue_wait_us", windowed).record(queue_wait_us);
            BatchItem {
                prepared: &j.prepared,
                top: j.top,
                deadline: &j.deadline,
                req: j.req,
                queue_wait_us,
            }
        })
        .collect();
    let panicked = || {
        halk_obs::counter!("halk_serve_panics_total", windowed).inc();
        Response::Error {
            kind: ErrorKind::Panic,
            detail: "request panicked; daemon still serving".to_string(),
        }
    };
    let _span = halk_obs::span!("serve_request");
    // Singles go through `execute_batch` too: it carries the req id and
    // queue wait into the executor span and slow-query log.
    match catch_unwind(AssertUnwindSafe(|| shared.engine.execute_batch(&items))) {
        Ok(resps) => {
            // EWMA observes per-request cost, so batching *improves* the
            // admission controller's service-time estimate.
            shared.observe_service(shared.cfg.clock.now_ns().saturating_sub(t0) / n as u64);
            for (job, resp) in live.into_iter().zip(resps) {
                if matches!(resp, Response::Scores { truncated, .. } if truncated) {
                    halk_obs::counter!("halk_serve_truncated_total", windowed).inc();
                }
                answer(job, resp);
            }
        }
        // The request died; the daemon must not. Panic payload is already
        // printed by the default hook.
        Err(_) if n == 1 => answer(live[0], panicked()),
        // A batch member panicked the whole group: retry each job alone
        // under its own catch_unwind so one hostile query cannot poison
        // its batch-mates' answers. Retries keep the original req id — it
        // is the same request, retraced.
        Err(_) => {
            for (job, item) in live.into_iter().zip(&items) {
                let t1 = shared.cfg.clock.now_ns();
                let one = catch_unwind(AssertUnwindSafe(|| shared.engine.execute_batch(&[*item])));
                let resp = match one {
                    Ok(mut r) => {
                        shared.observe_service(shared.cfg.clock.now_ns().saturating_sub(t1));
                        r.pop().expect("one item in, one response out")
                    }
                    Err(_) => panicked(),
                };
                answer(job, resp);
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
            sched: Mutex::new(Sched {
                queue: VecDeque::new(),
                free: 1,
                granted: Vec::new(),
            }),
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
