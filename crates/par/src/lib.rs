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
//! scoped threads are spawned per region, which keeps the runtime free of
//! `unsafe`, global state and external crates. A spawn is not free next to
//! a sub-millisecond region body, so the caller never just waits, and
//! serve's top-k sweep (`halk_core::shard`) forks only when the sweep is
//! big enough to pay for the spawn; a smaller one runs on a one-thread
//! pool. That choice is the caller's: this crate holds no fork policy, it
//! runs the pool it is given. Every combinator splits its input into at
//! most `threads` shares and hands them to one private fork-join core,
//! which follows the caller-share rule: **the calling
//! thread runs share 0 itself, and each other share gets one scoped
//! thread.** A `k`-share region spawns `k − 1` threads; `Pool::new(1)`,
//! or a one-item input, spawns none.
//!
//! Determinism contract: every combinator returns results in **input
//! order**, regardless of the thread count or the dynamic schedule, and
//! `Pool::new(1)` runs the whole input on the calling thread in input
//! order (no scope, no spawn). Callers that reduce the returned values in
//! a fixed order therefore produce bit-identical floats at any thread
//! count — the property the training and evaluation determinism suites
//! pin down (see DESIGN.md §9).
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
//! last statement of every share, the caller's included (`halk-core`
//! points it at the trace-buffer flush, since scope exit does not wait for
//! thread-local destructors). When no hook is installed the overhead per
//! region is one relaxed atomic load; with hooks installed a region reads
//! them under one lock, takes no lock per share, and allocates nothing for
//! regions of up to 8 shares.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
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
#[derive(Debug, Clone, Copy)]
pub struct PoolStats<'a> {
    /// The pool's label (see [`Pool::labeled`]); `"pool"` by default.
    pub region: &'static str,
    /// Number of shares the region ran (≤ the pool size); worker 0 is the
    /// calling thread.
    pub workers: usize,
    /// Wall-clock time of the whole region, nanoseconds.
    pub wall_ns: u64,
    /// Busy time of each worker (closure run time), nanoseconds.
    pub busy_ns: &'a [u64],
}

/// The stats hook's type (see [`set_stats_hook`]).
pub type StatsHook = fn(&PoolStats<'_>);

/// Both hooks, read together once per region.
#[derive(Clone, Copy)]
struct Hooks {
    stats: Option<StatsHook>,
    exit: Option<fn()>,
}

/// Set when either hook is installed: the only cost un-instrumented
/// regions pay is one relaxed load of this flag.
static HOOKS_ENABLED: AtomicBool = AtomicBool::new(false);
static HOOKS: Mutex<Hooks> = Mutex::new(Hooks {
    stats: None,
    exit: None,
});

fn set_hook(update: impl FnOnce(&mut Hooks)) {
    let mut hooks = HOOKS.lock().unwrap_or_else(PoisonError::into_inner);
    update(&mut hooks);
    HOOKS_ENABLED.store(
        hooks.stats.is_some() || hooks.exit.is_some(),
        Ordering::SeqCst,
    );
}

/// Installs (or clears, with `None`) the per-region stats hook.
pub fn set_stats_hook(hook: Option<StatsHook>) {
    set_hook(|h| h.stats = hook);
}

/// Installs (or clears, with `None`) the worker-exit hook, called as the
/// last statement of every share a region runs (the caller's included).
pub fn set_worker_exit_hook(hook: Option<fn()>) {
    set_hook(|h| h.exit = hook);
}

/// Busy-time slots a region keeps inline: regions of up to this many
/// shares allocate nothing for their bookkeeping.
const INLINE_SHARES: usize = 8;

/// Region-scope instrumentation state, built only when a hook is
/// installed: the hooks as read at region entry (one lock per region,
/// none per share), and, when the stats hook is on, a wall timer plus one
/// busy-time slot per worker. A one-share region's busy time is its wall
/// time, so it reads the clock twice, not four times.
struct RegionObs {
    region: &'static str,
    workers: usize,
    exit: Option<fn()>,
    /// The stats hook and the region's start; `None` skips all timing.
    stats: Option<(StatsHook, Instant)>,
    busy: [AtomicU64; INLINE_SHARES],
    /// Slots of the shares past [`INLINE_SHARES`]; empty, and never
    /// allocated, for smaller regions.
    spill: Vec<AtomicU64>,
}

impl RegionObs {
    /// `Some` when hooks are installed (`None` costs one atomic load).
    fn begin(region: &'static str, workers: usize) -> Option<RegionObs> {
        if !HOOKS_ENABLED.load(Ordering::Relaxed) {
            return None;
        }
        let hooks = *HOOKS.lock().unwrap_or_else(PoisonError::into_inner);
        Some(RegionObs {
            region,
            workers,
            exit: hooks.exit,
            stats: hooks.stats.map(|f| (f, Instant::now())),
            busy: Default::default(),
            spill: (INLINE_SHARES..workers)
                .map(|_| AtomicU64::new(0))
                .collect(),
        })
    }

    /// Runs share `w`, recording its busy time when the stats hook is on,
    /// then the worker-exit hook.
    fn share<R>(&self, w: usize, run: impl FnOnce() -> R) -> R {
        let out = match self.stats {
            Some(_) if self.workers > 1 => {
                let started = Instant::now();
                let out = run();
                let slot = self
                    .busy
                    .get(w)
                    .unwrap_or_else(|| &self.spill[w - INLINE_SHARES]);
                slot.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                out
            }
            _ => run(),
        };
        if let Some(exit) = self.exit {
            exit();
        }
        out
    }

    /// Reports the finished region to the stats hook.
    fn finish(self) {
        let Some((hook, start)) = self.stats else {
            return;
        };
        let wall_ns = start.elapsed().as_nanos() as u64;
        let (mut inline, mut spilled) = ([0u64; INLINE_SHARES], Vec::new());
        let busy_ns = if self.workers <= INLINE_SHARES {
            &mut inline[..self.workers]
        } else {
            spilled.resize(self.workers, 0);
            &mut spilled[..]
        };
        for (dst, slot) in busy_ns.iter_mut().zip(self.busy.iter().chain(&self.spill)) {
            *dst = slot.load(Ordering::Relaxed);
        }
        if self.workers == 1 {
            busy_ns[0] = wall_ns;
        }
        hook(&PoolStats {
            region: self.region,
            workers: self.workers,
            wall_ns,
            busy_ns,
        });
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

    /// The one fork-join core behind every combinator: runs `run(w, task)`
    /// for each task `w` and returns the results in task order. Task 0 runs
    /// inline on the calling thread and each other task gets one scoped
    /// thread, so `k` tasks spawn `k − 1` threads; one task (or none) opens
    /// no scope at all. Every share, the caller's included, records its
    /// busy time as worker `w` and ends with the worker-exit hook.
    fn fork<T: Send, R: Send>(&self, tasks: Vec<T>, run: impl Fn(usize, T) -> R + Sync) -> Vec<R> {
        let workers = tasks.len().max(1);
        let obs = RegionObs::begin(self.label, workers);
        let share = |w: usize, task: T| match &obs {
            None => run(w, task),
            Some(o) => o.share(w, || run(w, task)),
        };
        let mut tasks = tasks.into_iter();
        let out = match (tasks.next(), tasks.len()) {
            (None, _) => Vec::new(),
            (Some(first), 0) => vec![share(0, first)],
            (Some(first), rest) => std::thread::scope(|s| {
                let share = &share;
                let handles: Vec<_> = tasks
                    .enumerate()
                    .map(|(i, task)| s.spawn(move || share(i + 1, task)))
                    .collect();
                let mut out = Vec::with_capacity(rest + 1);
                out.push(share(0, first));
                out.extend(
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("pool worker panicked")),
                );
                out
            }),
        };
        if let Some(o) = obs {
            o.finish();
        }
        out
    }

    /// Shard-affine fan-out: runs `f(s)` once for every shard index
    /// `0..n_shards`, with a *stable* contiguous shard→worker assignment
    /// (worker `w` owns shards `w * per .. (w + 1) * per`, and worker 0 is
    /// the calling thread). Unlike [`Pool::par_map_dyn`] there is no work
    /// stealing — a shard always lands on the same worker for a given
    /// `(n_shards, threads)` pair, so shard-local state (trig tables, heaps)
    /// stays cache- and, later, NUMA-resident. Results come back indexed by
    /// shard. One thread (or one shard) runs exactly sequentially.
    pub fn par_shards<R, F>(&self, n_shards: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let per = n_shards.div_ceil(self.threads).max(1);
        let ranges: Vec<_> = (0..n_shards)
            .step_by(per)
            .map(|lo| lo..(lo + per).min(n_shards))
            .collect();
        self.fork(ranges, |_, range| range.map(&f).collect::<Vec<R>>())
            .into_iter()
            .flatten()
            .collect()
    }

    /// Maps `f` over `items` with a dynamic splitter: workers claim items
    /// one at a time off a shared atomic counter, so uneven per-item costs
    /// balance automatically. Results still come back in input order.
    pub fn par_map_dyn<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(items.len());
        let mut claimed: Vec<(usize, R)> = self
            .fork(vec![(); workers], |_, ()| {
                let mut claimed = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else {
                        break claimed;
                    };
                    claimed.push((i, f(item)));
                }
            })
            .into_iter()
            .flatten()
            .collect();
        // Put the claimed (index, result) pairs back into input order.
        claimed.sort_unstable_by_key(|&(i, _)| i);
        claimed.into_iter().map(|(_, r)| r).collect()
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
        let chunk = items.len().div_ceil(self.threads).max(1);
        let chunks: Vec<&mut [T]> = items.chunks_mut(chunk).collect();
        self.fork(chunks, |ci, c| {
            c.iter_mut()
                .enumerate()
                .map(|(j, item)| f(ci * chunk + j, item))
                .collect::<Vec<R>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const THREADS: [usize; 4] = [1, 2, 4, 8];

    /// The hooks are process-global: tests that install one take turns.
    static HOOK_SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn pool_clamps_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
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
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(Pool::new(4).par_shards(0, |s| s).is_empty());
        assert!(Pool::new(4).par_map_dyn(&empty, |x| *x).is_empty());
        assert_eq!(Pool::new(4).par_map_dyn(&[9u32], |x| x + 1), vec![10]);
        let mut one = [5u32];
        Pool::new(4).par_map_mut(&mut one, |_, x| *x += 1);
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
        let _serial = HOOK_SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
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
        let _serial = HOOK_SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        static SEQ_WORKERS: AtomicUsize = AtomicUsize::new(usize::MAX);
        fn hook(s: &PoolStats) {
            if s.region == "par_hook_seq_test" {
                SEQ_WORKERS.store(s.workers, Ordering::SeqCst);
            }
        }
        set_stats_hook(Some(hook));
        let got = Pool::new(1)
            .labeled("par_hook_seq_test")
            .par_map_dyn(&[7u32, 8], |x| x + 1);
        set_stats_hook(None);
        assert_eq!(got, vec![8, 9]);
        assert_eq!(SEQ_WORKERS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stats_hook_reports_shares_past_the_inline_slots() {
        let _serial = HOOK_SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        static BUSY_LEN: AtomicUsize = AtomicUsize::new(0);
        fn hook(s: &PoolStats<'_>) {
            if s.region == "par_hook_spill_test" {
                BUSY_LEN.store(s.busy_ns.len(), Ordering::SeqCst);
            }
        }
        set_stats_hook(Some(hook));
        let n = INLINE_SHARES + 2;
        let got = Pool::new(n)
            .labeled("par_hook_spill_test")
            .par_shards(n, |s| s);
        set_stats_hook(None);
        assert_eq!(got, (0..n).collect::<Vec<_>>());
        assert_eq!(BUSY_LEN.load(Ordering::SeqCst), n);
    }

    #[test]
    fn worker_exit_hook_runs_for_each_worker() {
        let _serial = HOOK_SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        static EXITS: AtomicUsize = AtomicUsize::new(0);
        fn on_exit() {
            EXITS.fetch_add(1, Ordering::SeqCst);
        }
        set_worker_exit_hook(Some(on_exit));
        let before = EXITS.load(Ordering::SeqCst);
        let items: Vec<u32> = (0..16).collect();
        Pool::new(4).par_map_dyn(&items, |x| *x);
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
    fn first_share_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = Pool::new(2).par_shards(2, |_| std::thread::current().id());
        assert_eq!(ids[0], caller);
        assert_ne!(ids[1], caller);
        // A one-thread pool spawns nothing: every item runs on the caller.
        let ids = Pool::new(1).par_shards(5, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
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
