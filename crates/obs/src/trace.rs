//! JSONL span/event tracing with per-thread buffers.
//!
//! One JSON object per line. Three event kinds:
//!
//! ```json
//! {"ev":"o","name":"eval_structure","ts_us":1203,"tid":2,"detail":"2p"}
//! {"ev":"c","name":"eval_structure","ts_us":5120,"tid":2,"dur_us":3917}
//! {"ev":"i","name":"rollback","ts_us":99,"tid":0}
//! ```
//!
//! `ts_us` is microseconds since the first trace call of the process
//! (monotonic per thread — buffers flush independently, so *file order*
//! across threads is not chronological); `tid` is a small per-process
//! thread ordinal. Open/close events are balanced per thread: the
//! [`SpanGuard`] emits the close in its `Drop`, and guards nest LIFO.
//!
//! Every event is formatted into a thread-local `String` (no locks on the
//! emit path) and flushed to the shared file when the buffer exceeds
//! [`FLUSH_AT`] bytes or the thread exits. Long-lived threads — `main` in
//! particular, whose thread-local destructors are not guaranteed to run —
//! must call [`flush`] before the process ends; the manifest writer and
//! the experiment harness do this for every binary.
//!
//! Short-lived worker threads (e.g. a `std::thread::scope` body) should
//! also call [`flush`] as the last statement of their closure: scope exit
//! waits for the closure to *return*, not for the thread's thread-local
//! destructors, so a drop-only flush can land after the spawner has
//! already read the file. The `halk-par` pool workers do this whenever
//! tracing is enabled.
//!
//! When no trace file is configured, [`span`] is a single relaxed atomic
//! load returning an inert guard.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Buffer size that triggers a mid-run flush to the shared writer.
const FLUSH_AT: usize = 32 * 1024;

static ENABLED: AtomicBool = AtomicBool::new(false);
static WRITER: Mutex<Option<File>> = Mutex::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static BUF: RefCell<TraceBuf> = const { RefCell::new(TraceBuf { buf: String::new() }) };
}

struct TraceBuf {
    buf: String,
}

impl Drop for TraceBuf {
    fn drop(&mut self) {
        flush_str(&mut self.buf);
    }
}

fn flush_str(buf: &mut String) {
    if buf.is_empty() {
        return;
    }
    if let Ok(mut w) = WRITER.lock() {
        if let Some(f) = w.as_mut() {
            // Whole buffers are line-aligned, so concurrent flushes can
            // interleave without ever splitting a JSON line.
            let _ = f.write_all(buf.as_bytes());
        }
    }
    buf.clear();
}

/// True when a trace file is configured; the only cost a disabled span
/// pays.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since the process's trace epoch (pinned at init).
pub fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// The calling thread's per-process trace ordinal.
pub fn thread_ordinal() -> u64 {
    TID.with(|t| *t)
}

/// Starts tracing to `path` (truncating it). Usually reached via
/// [`init_from_env`]; calling it again redirects subsequent events to the
/// new file (earlier buffered events are flushed to the old writer first).
pub fn init_trace(path: impl AsRef<Path>) -> io::Result<()> {
    flush();
    let f = File::create(path)?;
    EPOCH.get_or_init(Instant::now);
    *WRITER.lock().expect("trace writer poisoned") = Some(f);
    ENABLED.store(true, Ordering::SeqCst);
    Ok(())
}

/// Enables tracing when `HALK_TRACE=path` is set and non-empty; errors
/// opening the file are reported once on stderr rather than panicking.
pub fn init_from_env() {
    if let Ok(path) = std::env::var("HALK_TRACE") {
        if !path.is_empty() {
            if let Err(e) = init_trace(&path) {
                eprintln!("warn: cannot open HALK_TRACE file {path}: {e}");
            }
        }
    }
}

/// Flushes the calling thread's buffered events to the trace file. Must be
/// called from the main thread before process exit (thread-local
/// destructors flush worker threads automatically).
pub fn flush() {
    BUF.with(|b| flush_str(&mut b.borrow_mut().buf));
}

fn emit(f: impl FnOnce(&mut String)) {
    BUF.with(|b| {
        let buf = &mut b.borrow_mut().buf;
        f(buf);
        buf.push('\n');
        if buf.len() >= FLUSH_AT {
            flush_str(buf);
        }
    });
}

fn emit_head(buf: &mut String, ev: char, name: &str, ts: u64) {
    let _ = write!(buf, "{{\"ev\":\"{ev}\",\"name\":\"");
    crate::json_escape_into(buf, name);
    let _ = write!(buf, "\",\"ts_us\":{ts},\"tid\":{}", thread_ordinal());
}

/// RAII guard for one span: created by [`span`]/[`crate::span!`], emits the
/// balanced close event (with `dur_us`) when dropped. Inert when tracing
/// was disabled at open time.
#[must_use = "the span closes when this guard drops"]
pub struct SpanGuard {
    name: &'static str,
    start_us: u64,
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            self.close_at(now_us());
        }
    }
}

impl SpanGuard {
    /// True when this guard will emit a close event (tracing was on at
    /// open time).
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Closes this span and opens `name` at the same timestamp, so
    /// consecutive phases tile their parent span: the time between two
    /// phases — a preemption included — is charged to one of them, never
    /// lost between them. An inert guard yields a fresh [`span`].
    pub fn next(mut self, name: &'static str) -> SpanGuard {
        if !self.armed {
            return span(name);
        }
        self.armed = false; // closed here, not again when `self` drops
        let ts = now_us();
        self.close_at(ts);
        span_open(name, None, ts)
    }

    fn close_at(&self, ts: u64) {
        let dur = ts.saturating_sub(self.start_us);
        emit(|buf| {
            emit_head(buf, 'c', self.name, ts);
            let _ = write!(buf, ",\"dur_us\":{dur}}}");
        });
    }
}

/// Opens a span. Prefer the [`crate::span!`] macro.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            name,
            start_us: 0,
            armed: false,
        };
    }
    ready_thread();
    span_open(name, None, now_us())
}

/// Sets up the calling thread's trace state (its ordinal and a buffer with
/// room for the open event) before a span takes its open timestamp. A
/// fresh pool thread otherwise charged that setup to its first span:
/// 3–137 µs between an `eval_structure` open and its first phase, enough
/// to fail the 95% phase-coverage check on a ~1 ms structure.
fn ready_thread() {
    BUF.with(|b| b.borrow_mut().buf.reserve(256));
    thread_ordinal();
}

/// Opens a span with a lazily-built detail string (evaluated only when
/// tracing is enabled).
#[inline]
pub fn span_detail(name: &'static str, detail: impl FnOnce() -> String) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            name,
            start_us: 0,
            armed: false,
        };
    }
    let detail = detail();
    ready_thread();
    span_open(name, Some(detail), now_us())
}

fn span_open(name: &'static str, detail: Option<String>, ts: u64) -> SpanGuard {
    emit(|buf| {
        emit_head(buf, 'o', name, ts);
        if let Some(d) = &detail {
            buf.push_str(",\"detail\":\"");
            crate::json_escape_into(buf, d);
            buf.push('"');
        }
        buf.push('}');
    });
    SpanGuard {
        name,
        start_us: ts,
        armed: true,
    }
}

/// Emits an instant event (no duration).
#[inline]
pub fn instant(name: &'static str) {
    if !enabled() {
        return;
    }
    let ts = now_us();
    emit(|buf| {
        emit_head(buf, 'i', name, ts);
        buf.push('}');
    });
}

/// Emits an instant event with a lazily-built detail string.
#[inline]
pub fn instant_detail(name: &'static str, detail: impl FnOnce() -> String) {
    if !enabled() {
        return;
    }
    let ts = now_us();
    let d = detail();
    emit(|buf| {
        emit_head(buf, 'i', name, ts);
        buf.push_str(",\"detail\":\"");
        crate::json_escape_into(buf, &d);
        buf.push_str("\"}");
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_inert() {
        // Tracing is never initialized in this unit-test process.
        assert!(!enabled());
        let g = span("unit_disabled");
        assert!(!g.is_armed());
        drop(g);
        instant("unit_disabled_instant");
        flush(); // no writer: a no-op
    }

    #[test]
    fn timestamps_are_monotonic() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }

    #[test]
    fn thread_ordinals_are_distinct() {
        let here = thread_ordinal();
        let there = std::thread::spawn(thread_ordinal).join().unwrap();
        assert_ne!(here, there);
        assert_eq!(here, thread_ordinal(), "ordinal is stable per thread");
    }
}
