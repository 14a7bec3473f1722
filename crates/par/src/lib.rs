//! Dependency-free fork-join parallelism over [`std::thread::scope`].
//!
//! Every parallel stage in the workspace — batch-sharded training, query
//! fan-out in evaluation, entity-sharded scoring — goes through a [`Pool`],
//! a value describing how many worker threads a fork-join region may use.
//! The surfaces do not hold pools directly: the batch executor
//! (`halk_core::exec`, DESIGN.md §15) owns the labeled pool each surface's
//! group kernel fans out on, so this crate stays the single layer that
//! ever spawns a thread.
//! There are no persistent worker threads and no work-stealing deques:
//! scoped threads are spawned per region (a few microseconds, amortized by
//! region bodies that run for milliseconds), which keeps the runtime free of
//! `unsafe`, global state and external crates.
//!
//! Determinism contract: every combinator returns results in **input
//! order**, regardless of the thread count or the dynamic schedule, and
//! `Pool::new(1)` executes the exact sequential loop (no scope, no spawn,
//! no atomics). Callers that reduce the returned values in a fixed order
//! therefore produce bit-identical floats at any thread count — the
//! property the training and evaluation determinism suites pin down (see
//! DESIGN.md §9).
//!
//! Sizing: [`Pool::auto`] resolves, in order, a programmatic override
//! ([`set_threads`], used by `--threads`), the `HALK_THREADS` environment
//! variable, and [`std::thread::available_parallelism`].
//!
//! Observability: this crate stays dependency-free, so instead of linking
//! an observability crate it exposes two `fn`-pointer hooks. A stats hook
//! ([`set_stats_hook`]) receives a [`PoolStats`] — region label, thread
//! count, wall time and per-worker busy time — after every fork-join
//! region, and a worker-exit hook ([`set_worker_exit_hook`]) runs as the
//! last statement of every worker closure (`halk-core` points it at the
//! trace-buffer flush, since scope exit does not wait for thread-local
//! destructors). When no hook is installed the overhead per region is one
//! relaxed atomic load.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Programmatic thread-count override (0 = unset). Set once by binaries
/// from `--threads`; takes precedence over `HALK_THREADS`.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the automatic pool size for every subsequent [`Pool::auto`]
/// (0 clears the override). Binaries call this from their `--threads` flag.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n, Ordering::SeqCst);
}

/// Parses a `HALK_THREADS`-style value: a positive integer, else `None`.
fn parse_threads(s: &str) -> Option<usize> {
    s.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("HALK_THREADS")
            .ok()
            .and_then(|s| parse_threads(&s))
    })
}

/// The thread count [`Pool::auto`] resolves to right now: the
/// [`set_threads`] override, else `HALK_THREADS`, else the machine's
/// available parallelism (1 if that cannot be determined).
pub fn auto_threads() -> usize {
    let o = OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Per-region statistics handed to the stats hook after each fork-join
/// region (including sequential fast paths, which report one "worker").
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// The pool's label (see [`Pool::labeled`]); `"pool"` by default.
    pub region: &'static str,
    /// Number of workers the region actually used (≤ the pool size).
    pub workers: usize,
    /// Wall-clock time of the whole region, nanoseconds.
    pub wall_ns: u64,
    /// Busy time of each worker (closure run time), nanoseconds.
    pub busy_ns: Vec<u64>,
}

/// Set when either hook is installed: the only cost un-instrumented
/// regions pay is one relaxed load of this flag.
static HOOKS_ENABLED: AtomicBool = AtomicBool::new(false);
static STATS_HOOK: Mutex<Option<fn(&PoolStats)>> = Mutex::new(None);
static WORKER_EXIT_HOOK: Mutex<Option<fn()>> = Mutex::new(None);

fn refresh_hooks_enabled() {
    let on = STATS_HOOK.lock().is_ok_and(|h| h.is_some())
        || WORKER_EXIT_HOOK.lock().is_ok_and(|h| h.is_some());
    HOOKS_ENABLED.store(on, Ordering::SeqCst);
}

/// Installs (or clears, with `None`) the per-region stats hook.
pub fn set_stats_hook(hook: Option<fn(&PoolStats)>) {
    if let Ok(mut h) = STATS_HOOK.lock() {
        *h = hook;
    }
    refresh_hooks_enabled();
}

/// Installs (or clears, with `None`) the worker-exit hook, called as the
/// last statement of every pool worker closure.
pub fn set_worker_exit_hook(hook: Option<fn()>) {
    if let Ok(mut h) = WORKER_EXIT_HOOK.lock() {
        *h = hook;
    }
    refresh_hooks_enabled();
}

#[inline]
fn hooks_enabled() -> bool {
    HOOKS_ENABLED.load(Ordering::Relaxed)
}

/// Runs the worker-exit hook if installed. Workers call this (via
/// [`hooks_enabled`] gating) right before their closure returns.
fn run_worker_exit() {
    let hook = WORKER_EXIT_HOOK.lock().ok().and_then(|h| *h);
    if let Some(f) = hook {
        f();
    }
}

fn report_stats(stats: &PoolStats) {
    let hook = STATS_HOOK.lock().ok().and_then(|h| *h);
    if let Some(f) = hook {
        f(stats);
    }
}

/// Region-scope instrumentation state: a wall timer plus one busy-time
/// slot per worker, allocated only when a hook is installed.
struct RegionObs {
    region: &'static str,
    start: Instant,
    busy: Vec<AtomicU64>,
}

impl RegionObs {
    /// `Some` when hooks are installed (`None` costs one atomic load).
    fn begin(region: &'static str, workers: usize) -> Option<RegionObs> {
        if !hooks_enabled() {
            return None;
        }
        Some(RegionObs {
            region,
            start: Instant::now(),
            busy: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// Records worker `w`'s busy time and runs the worker-exit hook.
    /// Callers pass `Some(started)` captured at closure entry.
    fn worker_done(&self, w: usize, started: Instant) {
        let ns = started.elapsed().as_nanos() as u64;
        if let Some(slot) = self.busy.get(w) {
            slot.fetch_add(ns, Ordering::Relaxed);
        }
        run_worker_exit();
    }

    /// Reports the finished region to the stats hook.
    fn finish(self, workers: usize) {
        let stats = PoolStats {
            region: self.region,
            workers,
            wall_ns: self.start.elapsed().as_nanos() as u64,
            busy_ns: self
                .busy
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        };
        report_stats(&stats);
    }
}

/// A fork-join region's thread budget. Cheap to copy; holds no OS
/// resources (threads are scoped to each combinator call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
    label: &'static str,
}

impl Pool {
    /// A pool of exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            label: "pool",
        }
    }

    /// A pool sized by [`auto_threads`].
    pub fn auto() -> Self {
        Self::new(auto_threads())
    }

    /// The same pool with a region label for the stats hook (shows up as
    /// `PoolStats::region` and in per-region pool metrics).
    pub fn labeled(self, label: &'static str) -> Self {
        Self { label, ..self }
    }

    /// The region label (`"pool"` unless set via [`Pool::labeled`]).
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when this pool runs everything inline on the caller's thread.
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }

    /// Maps `f` over `items`, returning results in input order. Items are
    /// split into one contiguous chunk per worker (static schedule — right
    /// for uniform-cost items). With one thread (or one item) this is a
    /// plain sequential `map` on the calling thread.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let workers = self.threads.min(items.len());
        let obs = RegionObs::begin(self.label, workers.max(1));
        if workers <= 1 {
            let out: Vec<R> = items.iter().map(f).collect();
            if let Some(o) = obs {
                o.worker_done(0, o.start);
                o.finish(1);
            }
            return out;
        }
        let mut per_chunk: Vec<Vec<R>> = Vec::with_capacity(workers);
        let chunk = items.len().div_ceil(workers);
        std::thread::scope(|s| {
            let handles: Vec<_> = items
                .chunks(chunk)
                .enumerate()
                .map(|(w, c)| {
                    let (f, obs) = (&f, &obs);
                    s.spawn(move || {
                        let started = Instant::now();
                        let out = c.iter().map(f).collect::<Vec<R>>();
                        if let Some(o) = obs {
                            o.worker_done(w, started);
                        }
                        out
                    })
                })
                .collect();
            per_chunk.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("par_map worker panicked")),
            );
        });
        if let Some(o) = obs {
            o.finish(workers);
        }
        per_chunk.into_iter().flatten().collect()
    }

    /// Shard-affine fan-out: runs `f(s)` once for every shard index
    /// `0..n_shards`, with a *stable* contiguous shard→worker assignment
    /// (worker `w` owns shards `w * per .. (w + 1) * per`). Unlike
    /// [`Pool::par_map_dyn`] there is no work stealing — a shard always
    /// lands on the same worker for a given `(n_shards, threads)` pair, so
    /// shard-local state (trig tables, heaps) stays cache- and, later,
    /// NUMA-resident. Results come back indexed by shard. One thread (or
    /// one shard) runs exactly sequentially.
    pub fn par_shards<R, F>(&self, n_shards: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.threads.min(n_shards);
        let obs = RegionObs::begin(self.label, workers.max(1));
        if workers <= 1 {
            let out: Vec<R> = (0..n_shards).map(f).collect();
            if let Some(o) = obs {
                o.worker_done(0, o.start);
                o.finish(1);
            }
            return out;
        }
        let per = n_shards.div_ceil(workers);
        let mut per_worker: Vec<Vec<R>> = Vec::with_capacity(workers);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (f, obs) = (&f, &obs);
                    s.spawn(move || {
                        let started = Instant::now();
                        let lo = w * per;
                        let hi = (lo + per).min(n_shards);
                        let out = (lo..hi).map(f).collect::<Vec<R>>();
                        if let Some(o) = obs {
                            o.worker_done(w, started);
                        }
                        out
                    })
                })
                .collect();
            per_worker.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("par_shards worker panicked")),
            );
        });
        if let Some(o) = obs {
            o.finish(workers);
        }
        per_worker.into_iter().flatten().collect()
    }

    /// Like [`Pool::par_map`] but with a dynamic splitter: workers claim
    /// items one at a time off a shared atomic counter, so uneven per-item
    /// costs balance automatically. Results still come back in input order.
    pub fn par_map_dyn<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let workers = self.threads.min(items.len());
        let obs = RegionObs::begin(self.label, workers.max(1));
        if workers <= 1 {
            let out: Vec<R> = items.iter().map(f).collect();
            if let Some(o) = obs {
                o.worker_done(0, o.start);
                o.finish(1);
            }
            return out;
        }
        let next = AtomicUsize::new(0);
        let mut per_worker: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (f, next, obs) = (&f, &next, &obs);
                    s.spawn(move || {
                        let started = Instant::now();
                        let mut claimed = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            claimed.push((i, f(item)));
                        }
                        if let Some(o) = obs {
                            o.worker_done(w, started);
                        }
                        claimed
                    })
                })
                .collect();
            per_worker.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("par_map_dyn worker panicked")),
            );
        });
        if let Some(o) = obs {
            o.finish(workers);
        }
        // Scatter the claimed (index, result) pairs back into input order.
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
        for (i, r) in per_worker.into_iter().flatten() {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|r| r.expect("every index claimed exactly once"))
            .collect()
    }

    /// Maps `f(index, &mut item)` over `items` in parallel, returning the
    /// results in input order. Each worker owns one contiguous chunk, so
    /// mutable access needs no synchronization. This is the training
    /// shard driver: each shard slot holds a worker-private tape and
    /// gradient buffer.
    pub fn par_map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let len = items.len();
        let workers = self.threads.min(len);
        let obs = RegionObs::begin(self.label, workers.max(1));
        if workers <= 1 {
            let out: Vec<R> = items
                .iter_mut()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
            if let Some(o) = obs {
                o.worker_done(0, o.start);
                o.finish(1);
            }
            return out;
        }
        let chunk = len.div_ceil(workers);
        let mut per_chunk: Vec<Vec<R>> = Vec::with_capacity(workers);
        std::thread::scope(|s| {
            let handles: Vec<_> = items
                .chunks_mut(chunk)
                .enumerate()
                .map(|(ci, c)| {
                    let (f, obs) = (&f, &obs);
                    s.spawn(move || {
                        let started = Instant::now();
                        let out = c
                            .iter_mut()
                            .enumerate()
                            .map(|(j, item)| f(ci * chunk + j, item))
                            .collect::<Vec<R>>();
                        if let Some(o) = obs {
                            o.worker_done(ci, started);
                        }
                        out
                    })
                })
                .collect();
            per_chunk.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("par_map_mut worker panicked")),
            );
        });
        if let Some(o) = obs {
            o.finish(workers);
        }
        per_chunk.into_iter().flatten().collect()
    }

    /// Runs `f(chunk_index, chunk)` over fixed-size mutable chunks of
    /// `data` in parallel (the last chunk may be short). Chunk boundaries
    /// depend only on `chunk_size`, never on the thread count, so writes
    /// land identically at any parallelism — the entity-sharded scoring
    /// path relies on this.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], chunk_size: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_size > 0, "chunk_size must be positive");
        let n_chunks = data.len().div_ceil(chunk_size);
        let workers = self.threads.min(n_chunks);
        let obs = RegionObs::begin(self.label, workers.max(1));
        if workers <= 1 {
            for (i, c) in data.chunks_mut(chunk_size).enumerate() {
                f(i, c);
            }
            if let Some(o) = obs {
                o.worker_done(0, o.start);
                o.finish(1);
            }
            return;
        }
        let mut chunks: Vec<(usize, &mut [T])> = data.chunks_mut(chunk_size).enumerate().collect();
        let per_worker = chunks.len().div_ceil(workers);
        std::thread::scope(|s| {
            let mut w = 0usize;
            while !chunks.is_empty() {
                let group: Vec<(usize, &mut [T])> =
                    chunks.drain(..per_worker.min(chunks.len())).collect();
                let (f, obs) = (&f, &obs);
                s.spawn(move || {
                    let started = Instant::now();
                    for (i, c) in group {
                        f(i, c);
                    }
                    if let Some(o) = obs {
                        o.worker_done(w, started);
                    }
                });
                w += 1;
            }
        });
        if let Some(o) = obs {
            o.finish(workers);
        }
    }
}

impl Default for Pool {
    fn default() -> Self {
        Self::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const THREADS: [usize; 4] = [1, 2, 4, 8];

    #[test]
    fn pool_clamps_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert!(Pool::new(1).is_sequential());
        assert!(!Pool::new(2).is_sequential());
    }

    #[test]
    fn par_map_matches_sequential_at_any_thread_count() {
        let items: Vec<i64> = (0..97).collect();
        let expect: Vec<i64> = items.iter().map(|x| x * x - 3).collect();
        for t in THREADS {
            let got = Pool::new(t).par_map(&items, |x| x * x - 3);
            assert_eq!(got, expect, "threads={t}");
        }
    }

    #[test]
    fn par_map_dyn_preserves_input_order_under_uneven_cost() {
        // Spin long enough on a cost that varies wildly by index so the
        // dynamic schedule actually interleaves claims across workers.
        let items: Vec<u64> = (0..64).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 7).collect();
        for t in THREADS {
            let got = Pool::new(t).par_map_dyn(&items, |&x| {
                let spins = (x % 13) * 500;
                let mut acc = 0u64;
                for i in 0..spins {
                    acc = acc.wrapping_add(std::hint::black_box(i));
                }
                let _ = acc;
                x * 7
            });
            assert_eq!(got, expect, "threads={t}");
        }
    }

    #[test]
    fn par_map_mut_mutates_every_item_with_its_own_index() {
        for t in THREADS {
            let mut items = vec![0usize; 53];
            let returned = Pool::new(t).par_map_mut(&mut items, |i, slot| {
                *slot = i + 1;
                i * 2
            });
            assert_eq!(items, (1..=53).collect::<Vec<_>>(), "threads={t}");
            assert_eq!(
                returned,
                (0..53).map(|i| i * 2).collect::<Vec<_>>(),
                "threads={t}"
            );
        }
    }

    #[test]
    fn par_chunks_mut_covers_all_chunks_with_stable_boundaries() {
        for t in THREADS {
            let mut data = vec![0usize; 41];
            Pool::new(t).par_chunks_mut(&mut data, 8, |ci, chunk| {
                for (j, x) in chunk.iter_mut().enumerate() {
                    *x = ci * 8 + j;
                }
            });
            // Every slot holds its own global index: chunk boundaries are a
            // function of chunk_size alone.
            assert_eq!(data, (0..41).collect::<Vec<_>>(), "threads={t}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(Pool::new(4).par_map(&empty, |x| *x).is_empty());
        assert!(Pool::new(4).par_map_dyn(&empty, |x| *x).is_empty());
        assert_eq!(Pool::new(4).par_map(&[9u32], |x| x + 1), vec![10]);
        let mut one = [5u32];
        Pool::new(4).par_chunks_mut(&mut one, 3, |_, c| c[0] += 1);
        assert_eq!(one, [6]);
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 16 "), Some(16));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-2"), None);
        assert_eq!(parse_threads("four"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    fn stats_hook_reports_labeled_region() {
        // Hooks are process-global and other tests run pools concurrently,
        // so the hook filters on a label unique to this test.
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        static WORKERS: AtomicUsize = AtomicUsize::new(0);
        static SHAPE_OK: AtomicUsize = AtomicUsize::new(0);
        fn hook(s: &PoolStats) {
            if s.region != "par_hook_test" {
                return;
            }
            CALLS.fetch_add(1, Ordering::SeqCst);
            WORKERS.store(s.workers, Ordering::SeqCst);
            if s.busy_ns.len() == s.workers && s.wall_ns > 0 {
                SHAPE_OK.fetch_add(1, Ordering::SeqCst);
            }
        }
        set_stats_hook(Some(hook));
        let pool = Pool::new(3).labeled("par_hook_test");
        assert_eq!(pool.label(), "par_hook_test");
        let out = pool.par_map_dyn(&[1u64, 2, 3, 4, 5, 6], |x| x * 2);
        set_stats_hook(None);
        assert_eq!(out, vec![2, 4, 6, 8, 10, 12]);
        assert_eq!(CALLS.load(Ordering::SeqCst), 1);
        assert_eq!(WORKERS.load(Ordering::SeqCst), 3);
        assert_eq!(SHAPE_OK.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stats_hook_covers_sequential_fast_path() {
        static SEQ_WORKERS: AtomicUsize = AtomicUsize::new(usize::MAX);
        fn hook(s: &PoolStats) {
            if s.region == "par_hook_seq_test" {
                SEQ_WORKERS.store(s.workers, Ordering::SeqCst);
            }
        }
        set_stats_hook(Some(hook));
        let got = Pool::new(1)
            .labeled("par_hook_seq_test")
            .par_map(&[7u32, 8], |x| x + 1);
        set_stats_hook(None);
        assert_eq!(got, vec![8, 9]);
        assert_eq!(SEQ_WORKERS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn worker_exit_hook_runs_for_each_worker() {
        static EXITS: AtomicUsize = AtomicUsize::new(0);
        fn on_exit() {
            EXITS.fetch_add(1, Ordering::SeqCst);
        }
        set_worker_exit_hook(Some(on_exit));
        let before = EXITS.load(Ordering::SeqCst);
        let items: Vec<u32> = (0..16).collect();
        Pool::new(4).par_map(&items, |x| *x);
        set_worker_exit_hook(None);
        // Other tests' pool regions may add to the count concurrently;
        // at least this region's four workers must have reported.
        assert!(EXITS.load(Ordering::SeqCst) - before >= 4);
    }

    #[test]
    fn par_shards_returns_shard_order_and_stable_assignment() {
        for threads in [1, 2, 4, 8] {
            let got = Pool::new(threads).par_shards(7, |s| s * 10);
            assert_eq!(got, vec![0, 10, 20, 30, 40, 50, 60], "threads={threads}");
        }
        // Zero shards is fine.
        assert_eq!(Pool::new(4).par_shards(0, |s| s), Vec::<usize>::new());
        // Contiguous affinity: with 2 workers over 4 shards, shards 0–1
        // run on worker 0's thread and 2–3 on worker 1's.
        let ids = Pool::new(2).par_shards(4, |_| std::thread::current().id());
        assert_eq!(ids[0], ids[1]);
        assert_eq!(ids[2], ids[3]);
        assert_ne!(ids[0], ids[2]);
    }

    #[test]
    fn auto_threads_respects_programmatic_override() {
        // The override outranks env and hardware; clearing restores auto.
        set_threads(3);
        assert_eq!(auto_threads(), 3);
        assert_eq!(Pool::auto().threads(), 3);
        set_threads(0);
        assert!(auto_threads() >= 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The ISSUE-mandated ordering property: the dynamic splitter's
        /// output always matches the sequential map, element for element.
        #[test]
        fn dyn_splitter_output_order_matches_sequential(
            len in 0usize..200,
            seed in 0u64..1000,
            threads in 1usize..9,
        ) {
            let items: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(seed ^ 0x9e37)).collect();
            let f = |x: &u64| x.wrapping_mul(31).wrapping_add(7);
            let seq: Vec<u64> = items.iter().map(f).collect();
            let par = Pool::new(threads).par_map_dyn(&items, f);
            prop_assert_eq!(par, seq);
        }
    }
}
