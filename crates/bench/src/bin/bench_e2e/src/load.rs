//! The load generator: one connection per client thread, a closed loop for
//! throughput and an open-loop scheduler for latency at a fixed rate.
//!
//! Every request is timed individually in nanoseconds. In the open loop
//! each thread keeps its own schedule (`start + offset + k · interval`)
//! and a request's latency runs from its *due* time, not its send time:
//! when one response stalls, the requests queued behind it on that
//! connection are charged the wait the stall imposed on them (no
//! coordinated omission). How late the generator actually sent is
//! recorded separately as lag.

use crate::spec::TOP;
use halk_serve::protocol::{FrameDecoder, Response, MAX_FRAME};
use halk_serve::ErrorKind;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What a served answer must look like.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// Exact engine: the full answer count and the first [`TOP`] ids, as
    /// precomputed by `execute_set`.
    Exact { total: usize, ids: Vec<u32> },
    /// HaLk engine: [`TOP`] hits in rank order over all `rows` entities.
    /// Scores are checked bit-for-bit on a sample after the run.
    Halk { rows: usize },
}

/// One request of a workload: its encoded ASK frame and what must come
/// back.
#[derive(Debug, Clone)]
pub struct Item {
    pub frame: Vec<u8>,
    pub expect: Expect,
}

/// How one response was judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `ERR overloaded` or `ERR deadline`.
    Shed,
    /// A halk answer cut short by its deadline.
    Truncated,
    /// A well-formed answer with the wrong content.
    Mismatch,
    /// Any other typed error.
    Error,
}

/// Judges a response against its expectation.
pub fn check(expect: &Expect, resp: &Response) -> Verdict {
    match (expect, resp) {
        (
            _,
            Response::Error {
                kind: ErrorKind::Overloaded | ErrorKind::Deadline,
                ..
            },
        ) => Verdict::Shed,
        (_, Response::Error { .. }) => Verdict::Error,
        (Expect::Exact { total, ids }, Response::Answers { total: t, ids: got }) => {
            if t == total && got == ids {
                Verdict::Ok
            } else {
                Verdict::Mismatch
            }
        }
        (
            Expect::Halk { .. },
            Response::Scores {
                truncated: true, ..
            },
        ) => Verdict::Truncated,
        (
            Expect::Halk { rows },
            Response::Scores {
                scored_rows, hits, ..
            },
        ) => {
            let ranked = hits.windows(2).all(|w| {
                w[0].1.total_cmp(&w[1].1).then(w[0].0.cmp(&w[1].0)) == std::cmp::Ordering::Less
            });
            if scored_rows == rows && hits.len() == TOP.min(*rows) && ranked {
                Verdict::Ok
            } else {
                Verdict::Mismatch
            }
        }
        _ => Verdict::Mismatch,
    }
}

/// One blocking client connection speaking the frame protocol. Unlike
/// `halk_serve::Client` it sends pre-encoded frames, so the bytes on the
/// wire are exactly the hashed ones and encoding stays off the timed path.
pub struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    frames: Vec<Vec<u8>>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            stream,
            decoder: FrameDecoder::new(MAX_FRAME),
            frames: Vec::new(),
            buf: vec![0; 16 * 1024],
        })
    }

    /// Writes one pre-encoded request frame and reads one response.
    pub fn roundtrip(&mut self, frame: &[u8]) -> io::Result<Response> {
        self.stream.write_all(frame)?;
        loop {
            if let Some(payload) = self.frames.pop() {
                let text = std::str::from_utf8(&payload)
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 frame"))?;
                return Response::parse(text)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
            }
            let n = self.stream.read(&mut self.buf)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ));
            }
            self.decoder
                .push(&self.buf[..n], &mut self.frames)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        }
    }
}

/// Outcome counts of one thread's requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub shed: u64,
    pub truncated: u64,
    pub mismatched: u64,
    pub errors: u64,
    /// Refused connections and broken sockets.
    pub io_errors: u64,
    /// Requests whose query was already sent earlier in the run.
    pub repeats: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.shed += o.shed;
        self.truncated += o.truncated;
        self.mismatched += o.mismatched;
        self.errors += o.errors;
        self.io_errors += o.io_errors;
        self.repeats += o.repeats;
    }

    fn note(&mut self, v: Verdict) {
        match v {
            Verdict::Ok => self.ok += 1,
            Verdict::Shed => self.shed += 1,
            Verdict::Truncated => self.truncated += 1,
            Verdict::Mismatch => self.mismatched += 1,
            Verdict::Error => self.errors += 1,
        }
    }
}

/// What one thread measured in one phase.
#[derive(Debug, Default)]
pub struct LaneResult {
    pub tally: Tally,
    /// When the thread's last request of the phase completed.
    pub last_done: Option<Instant>,
    /// Open loop: ns from each request's due time to its parsed response.
    pub latency_ns: Vec<u64>,
    /// Open loop: ns from each request's actual send to its response.
    pub service_ns: Vec<u64>,
    /// Open loop: ns the generator sent each request after its due time.
    pub lag_ns: Vec<u64>,
    /// `(item, hits)` of halk answers, kept for the bit-for-bit sample.
    pub hits: Vec<(u32, Vec<(u32, f32)>)>,
}

impl LaneResult {
    pub fn merge(results: Vec<LaneResult>) -> LaneResult {
        let mut all = LaneResult::default();
        for r in results {
            all.tally.add(&r.tally);
            all.last_done = all.last_done.max(r.last_done);
            all.latency_ns.extend(r.latency_ns);
            all.service_ns.extend(r.service_ns);
            all.lag_ns.extend(r.lag_ns);
            all.hits.extend(r.hits);
        }
        all
    }
}

/// One client thread: its connection (reopened after an I/O error) and
/// its cursor into its own request sequence, which wraps when exhausted.
pub struct Lane<'a> {
    addr: String,
    conn: Option<Conn>,
    seq: &'a [u32],
    cursor: usize,
}

impl<'a> Lane<'a> {
    pub fn new(addr: &str, seq: &'a [u32]) -> Lane<'a> {
        assert!(!seq.is_empty(), "a lane needs a request sequence");
        Lane {
            addr: addr.to_string(),
            conn: None,
            seq,
            cursor: 0,
        }
    }

    /// Sends the lane's next request and judges the reply. Returns the
    /// verdict and the completion instant.
    fn step(
        &mut self,
        items: &[Item],
        seen: &[AtomicBool],
        out: &mut LaneResult,
    ) -> (Verdict, Instant) {
        let idx = self.seq[self.cursor % self.seq.len()] as usize;
        self.cursor += 1;
        out.tally.attempted += 1;
        if seen[idx].swap(true, Ordering::Relaxed) {
            out.tally.repeats += 1;
        }
        let conn = match self.conn.take() {
            Some(c) => Ok(c),
            None => Conn::connect(&self.addr),
        };
        let reply = conn.and_then(|mut c| c.roundtrip(&items[idx].frame).map(|r| (c, r)));
        let done = Instant::now();
        match reply {
            Ok((c, resp)) => {
                self.conn = Some(c);
                let v = check(&items[idx].expect, &resp);
                out.tally.note(v);
                if let (Verdict::Ok, Response::Scores { hits, .. }) = (v, resp) {
                    out.hits.push((idx as u32, hits));
                }
                (v, done)
            }
            Err(_) => {
                out.tally.io_errors += 1;
                (Verdict::Error, done)
            }
        }
    }
}

/// Closed loop: send back-to-back until `until`; the request in flight
/// at `until` completes and counts.
pub fn closed_loop(
    lane: &mut Lane,
    items: &[Item],
    seen: &[AtomicBool],
    until: Instant,
) -> LaneResult {
    let mut out = LaneResult::default();
    while Instant::now() < until {
        out.last_done = Some(lane.step(items, seen, &mut out).1);
    }
    out
}

/// A fixed-rate schedule for one thread: request `k` is due at
/// `start + offset + k · interval`; requests due at or after `end` are not
/// sent.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub end: Instant,
    pub interval: Duration,
    pub offset: Duration,
}

impl Schedule {
    /// Thread `lane` of `lanes` sharing `rate` requests per second evenly:
    /// each thread runs at `rate / lanes`, staggered by `1 / rate`.
    pub fn split(start: Instant, end: Instant, rate: f64, lane: usize, lanes: usize) -> Schedule {
        let gap = 1.0 / rate;
        Schedule {
            start,
            end,
            interval: Duration::from_secs_f64(gap * lanes as f64),
            offset: Duration::from_secs_f64(gap * lane as f64),
        }
    }

    fn due(&self, k: u32) -> Instant {
        self.start + self.offset + self.interval * k
    }
}

/// Open loop: sleep until each request is due, then send it; latency runs
/// from the due time.
pub fn open_loop(
    lane: &mut Lane,
    items: &[Item],
    seen: &[AtomicBool],
    sched: Schedule,
) -> LaneResult {
    let mut out = LaneResult::default();
    for k in 0u32.. {
        let due = sched.due(k);
        if due >= sched.end {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let done = lane.step(items, seen, &mut out).1;
        out.last_done = Some(done);
        out.latency_ns.push((done - due).as_nanos() as u64);
        out.service_ns.push((done - sent).as_nanos() as u64);
        out.lag_ns.push((sent - due).as_nanos() as u64);
    }
    out
}

/// Runs `f` on one scoped thread per lane and collects the results in
/// lane order.
pub fn on_lanes<'a, F>(lanes: &mut [Lane<'a>], f: F) -> Vec<LaneResult>
where
    F: Fn(usize, &mut Lane<'a>) -> LaneResult + Sync,
{
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .enumerate()
            .map(|(t, lane)| s.spawn(move || f(t, lane)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use halk_serve::protocol::encode_frame;
    use std::net::TcpListener;

    /// A one-connection mock daemon: answers every frame immediately,
    /// except that it sleeps `stall` before answering request `stall_at`.
    fn mock_server(stall_at: usize, stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut dec = FrameDecoder::new(MAX_FRAME);
            let mut frames = Vec::new();
            let mut buf = [0u8; 4096];
            let mut served = 0usize;
            loop {
                let n = match s.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => n,
                };
                dec.push(&buf[..n], &mut frames).unwrap();
                for _ in frames.drain(..) {
                    if served == stall_at {
                        std::thread::sleep(stall);
                    }
                    served += 1;
                    let reply = Response::Answers {
                        total: 0,
                        ids: vec![],
                    };
                    if s.write_all(&encode_frame(reply.encode().as_bytes()))
                        .is_err()
                    {
                        return;
                    }
                }
            }
        });
        (addr, handle)
    }

    /// The coordinated-omission case: a 300 ms stall at request 5 of a
    /// 100/s schedule delays the ~29 requests due during it. Timed from
    /// their due times, each of them shows the wait; timed from send, only
    /// the stalled request itself would.
    #[test]
    fn requests_queued_behind_a_stall_are_charged_from_their_due_time() {
        let stall = Duration::from_millis(300);
        let (addr, server) = mock_server(5, stall);
        let items = vec![Item {
            frame: encode_frame(b"ASK exact 10 2000\nSELECT ?x WHERE { e:0 r:0 ?x . }"),
            expect: Expect::Exact {
                total: 0,
                ids: vec![],
            },
        }];
        let seen = vec![AtomicBool::new(false)];
        let seq = [0u32];
        let mut lane = Lane::new(&addr, &seq);
        let start = Instant::now();
        let sched = Schedule::split(start, start + Duration::from_millis(600), 100.0, 0, 1);
        let r = open_loop(&mut lane, &items, &seen, sched);
        drop(lane);
        server.join().unwrap();

        assert_eq!(r.latency_ns.len(), 60, "every due request is sent");
        assert_eq!(r.tally.ok, 60);
        let ms = |ns: &u64| *ns as f64 / 1e6;
        // Requests 6.. were due while request 5 stalled; the one due 10 ms
        // after it waited ~290 ms, and the wait shrinks by 10 ms per slot.
        let charged = r.latency_ns.iter().filter(|ns| ms(ns) > 100.0).count();
        assert!(
            charged >= 15,
            "only {charged} requests charged for the stall"
        );
        assert!(ms(&r.latency_ns[6]) > 250.0, "{}", ms(&r.latency_ns[6]));
        // Their own service time was short: the wait shows up as lag.
        assert!(ms(&r.service_ns[6]) < 50.0, "{}", ms(&r.service_ns[6]));
        assert!(ms(&r.lag_ns[6]) > 250.0, "{}", ms(&r.lag_ns[6]));
        // Send-timed latency would hide all but the stalled request.
        let hidden = r.service_ns.iter().filter(|ns| ms(ns) > 100.0).count();
        assert_eq!(hidden, 1);
    }

    #[test]
    fn halk_answers_must_be_complete_and_ranked() {
        let ok = Response::Scores {
            truncated: false,
            scored_rows: 12,
            hits: (0..10).map(|i| (i, i as f32)).collect(),
        };
        assert_eq!(check(&Expect::Halk { rows: 12 }, &ok), Verdict::Ok);
        assert_eq!(check(&Expect::Halk { rows: 13 }, &ok), Verdict::Mismatch);
        let unsorted = Response::Scores {
            truncated: false,
            scored_rows: 12,
            hits: (0..10).map(|i| (i, -(i as f32))).collect(),
        };
        assert_eq!(
            check(&Expect::Halk { rows: 12 }, &unsorted),
            Verdict::Mismatch
        );
        let cut = Response::Scores {
            truncated: true,
            scored_rows: 4,
            hits: vec![],
        };
        assert_eq!(check(&Expect::Halk { rows: 12 }, &cut), Verdict::Truncated);
        let shed = Response::Error {
            kind: ErrorKind::Overloaded,
            detail: String::new(),
        };
        assert_eq!(check(&Expect::Halk { rows: 12 }, &shed), Verdict::Shed);
        let exact = Expect::Exact {
            total: 3,
            ids: vec![1, 2, 3],
        };
        let right = Response::Answers {
            total: 3,
            ids: vec![1, 2, 3],
        };
        assert_eq!(check(&exact, &right), Verdict::Ok);
        let wrong = Response::Answers {
            total: 4,
            ids: vec![1, 2, 3],
        };
        assert_eq!(check(&exact, &wrong), Verdict::Mismatch);
    }
}
