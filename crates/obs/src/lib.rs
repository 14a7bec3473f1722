//! Dependency-free observability for the HaLk workspace, in the style of
//! `halk-par`: no external crates, no `unsafe`, nothing but `std`.
//!
//! Four layers, all off by default and all cheap enough to leave compiled
//! into release binaries:
//!
//! - **[`trace`]** — span/event tracing to a JSONL file selected by the
//!   `HALK_TRACE=path` environment variable (or [`trace::init_trace`]).
//!   [`span!`] returns an RAII guard that emits balanced open/close events
//!   with monotonic microsecond timestamps and a per-process thread id.
//!   Events accumulate in a lock-free per-thread buffer that flushes to the
//!   shared writer on overflow and on thread exit. When tracing is
//!   disabled the entire span is one relaxed [`AtomicBool`] load — the
//!   `tracing_overhead` entry of `bench_hotpath` pins this down.
//!
//! - **[`metrics`]** — a process-global registry of named counters, gauges
//!   and fixed-log2-bucket histograms. The hot path is one relaxed atomic
//!   op and never allocates; handles are interned once per call site by the
//!   [`counter!`]/[`gauge!`]/[`histogram!`] macros. Snapshots render in
//!   Prometheus exposition format or JSON.
//!
//! - **[`window`]** — the rolling view of a metric: a counter or histogram
//!   registered as windowed (`histogram!(name, windowed)`) owns a ring of
//!   log2-bucket slots rotated on a coarse epoch tick, which gives p50/p99
//!   and rates over the last ~60 s instead of process lifetime. Its one
//!   `record`/`add` call feeds both views; there is no second registry.
//!   Armed only by the serve daemon ([`window::set_enabled`]); everywhere
//!   else the windowed part of an update is a ring-presence check plus,
//!   on a windowed metric, one relaxed load of the arm flag.
//!
//! - **[`log`]** — a leveled [`log!`] macro filtered by
//!   `HALK_LOG=error|warn|info|debug` (default `error`), so warnings that
//!   used to be unconditional `eprintln!` calls are quiet by default and
//!   complete at `debug`.
//!
//! [`manifest::Manifest`] ties a run together: config, seed, git revision,
//! thread count, wall/phase timings and final metrics, written as
//! `results/<run>/manifest.json` (see DESIGN.md §11 for the schema).
//!
//! The batch executor (`halk_core::exec`, DESIGN.md §15) is the one choke
//! point every surface's group lifecycle passes through, so its
//! instrumentation — the `exec_group` span, `halk_exec_jobs_total` /
//! `halk_exec_groups_total` / `halk_exec_group_size` and the cache
//! build/hit counters — covers training, evaluation and serving with a
//! single set of names.
//!
//! [`AtomicBool`]: std::sync::atomic::AtomicBool

pub mod deadline;
pub mod log;
pub mod manifest;
pub mod metrics;
pub mod trace;
pub mod window;

pub use deadline::{Clock, Deadline};
pub use manifest::Manifest;

/// Starts a traced span; the returned RAII guard closes it on drop.
///
/// `span!("name")` takes a `&'static str` span name; the optional second
/// argument is a closure producing a detail string, evaluated **only when
/// tracing is enabled** so formatting costs nothing in the default mode.
///
/// ```
/// let _g = halk_obs::span!("embed_plan");
/// // ... traced work ...
/// drop(_g); // or let it fall out of scope
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name)
    };
    ($name:expr, $detail:expr) => {
        $crate::trace::span_detail($name, $detail)
    };
}

/// Logs a leveled message to stderr, filtered by `HALK_LOG`.
///
/// ```
/// halk_obs::log!(Warn, "attempt budget exhausted after {} tries", 40);
/// ```
#[macro_export]
macro_rules! log {
    ($lvl:ident, $($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::$lvl) {
            $crate::log::emit($crate::log::Level::$lvl, format_args!($($arg)*));
        }
    };
}

/// Caches one interned metric handle per call site behind a `OnceLock`
/// (the expansion of [`counter!`]/[`gauge!`]/[`histogram!`]).
#[doc(hidden)]
#[macro_export]
macro_rules! __interned {
    ($kind:ident, $init:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::metrics::$kind> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $init)
    }};
}

/// Interns a [`metrics::Counter`] once per call site and returns the
/// `&'static` handle (one `OnceLock` load after the first call).
/// `counter!(name, windowed)` also makes it windowed
/// ([`metrics::Counter::windowed`]).
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::__interned!(Counter, $crate::metrics::counter($name))
    };
    ($name:expr, windowed) => {
        $crate::__interned!(Counter, $crate::metrics::counter($name).windowed())
    };
}

/// Interns a [`metrics::Gauge`] once per call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {
        $crate::__interned!(Gauge, $crate::metrics::gauge($name))
    };
}

/// Interns a [`metrics::Histogram`] once per call site;
/// `histogram!(name, windowed)` also makes it windowed
/// ([`metrics::Histogram::windowed`]).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {
        $crate::__interned!(Histogram, $crate::metrics::histogram($name))
    };
    ($name:expr, windowed) => {
        $crate::__interned!(Histogram, $crate::metrics::histogram($name).windowed())
    };
}

/// Escapes a string for embedding inside a JSON string literal.
pub(crate) fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        let mut out = String::new();
        json_escape_into(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn macros_return_usable_handles() {
        let c = counter!("halk_lib_test_total");
        c.inc();
        c.add(2);
        assert!(c.get() >= 3);
        let g = gauge!("halk_lib_test_gauge");
        g.set(1.5);
        assert_eq!(g.get(), 1.5);
        let h = histogram!("halk_lib_test_us");
        h.record(7);
        assert!(h.count() >= 1);
        // Disabled span and filtered log are no-ops that still compile.
        let _g = span!("lib_test_span");
        log!(Debug, "not printed unless HALK_LOG=debug: {}", 1);
    }
}
