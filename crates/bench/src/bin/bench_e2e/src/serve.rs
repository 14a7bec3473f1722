//! The untraced serve run: boot the real daemon repeatedly, drive it
//! closed-loop for throughput and open-loop for latency, check every
//! answer, and report the end-to-end metrics.

use crate::daemon::Daemon;
use crate::inputs::{build_serve, rng_for, BootFiles, Requests};
use crate::load::{closed_loop, on_lanes, open_loop, Item, Lane, LaneResult, Schedule, Tally};
use crate::report::Report;
use crate::spec::{Better, Boot, ServeSpec, BIT_CHECKS, BOOTS, LANES, TOP};
use crate::stats::{beyond, median, quantile};
use halk_core::{top_k_indices, HalkModel};
use rand::seq::SliceRandom;
use std::io;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Unmeasured closed-loop warm-up before the measured `--seconds`.
pub const WARM_SECS: f64 = 1.0;
/// The measured `--seconds` are cut into rounds of about this length; each
/// round is a closed-loop window ([`CLOSED_SHARE`] of it) followed by an
/// open-loop window at the workload's rate, so both loops sample the whole
/// run. The shared host's speed changes by up to 2× every few seconds, so
/// each metric takes its windows' value on the good side ([`good_side`]):
/// short windows let every run catch some undisturbed ones.
pub const ROUND_SECS: f64 = 1.25;
pub const CLOSED_SHARE: f64 = 0.4;
/// Which share of the closed-loop windows may read a higher rate than
/// `throughput_qps`.
pub const RATE_GOOD_SHARE: f64 = 0.1;
/// Which share of the open-loop windows may read a lower median than
/// `p50_ms`. A window's median rests on only 45 (`halk_64k`) to 6 000
/// (`exact_64k`) requests, so it takes a less extreme quantile than the
/// rate.
pub const P50_GOOD_SHARE: f64 = 0.25;

/// What the alternating rounds measured.
pub struct Rounds {
    /// Closed-loop verified answers per second, per round.
    pub throughput: Vec<f64>,
    /// Open-loop p50 latency in ms, per round.
    pub p50: Vec<f64>,
    /// Every open-loop request of every round.
    pub open: LaneResult,
}

/// Both client threads, their request sequences, and which queries were
/// already sent.
pub struct Traffic<'a> {
    lanes: Vec<Lane<'a>>,
    items: &'a [Item],
    seen: Vec<AtomicBool>,
    /// Every request of every phase so far.
    pub tally: Tally,
    /// Verified halk answers `(item, hits)` of every phase so far.
    pub hits: Vec<(u32, Vec<(u32, f32)>)>,
}

impl<'a> Traffic<'a> {
    pub fn new(addr: &str, req: &'a Requests) -> Traffic<'a> {
        Traffic {
            lanes: req.seqs.iter().map(|s| Lane::new(addr, s)).collect(),
            items: &req.items,
            seen: req.items.iter().map(|_| AtomicBool::new(false)).collect(),
            tally: Tally::default(),
            hits: Vec::new(),
        }
    }

    fn absorb(&mut self, results: Vec<LaneResult>) -> LaneResult {
        let mut r = LaneResult::merge(results);
        self.tally.add(&r.tally);
        self.hits.append(&mut r.hits);
        r
    }

    /// Both threads back-to-back for `secs`; returns verified answers per
    /// second, over the time until the last one completed.
    pub fn closed(&mut self, secs: f64) -> f64 {
        let (items, seen) = (self.items, &self.seen);
        let start = Instant::now();
        let until = start + Duration::from_secs_f64(secs);
        let r = on_lanes(&mut self.lanes, |_, lane| {
            closed_loop(lane, items, seen, until)
        });
        let r = self.absorb(r);
        let elapsed = r.last_done.map_or(secs, |t| (t - start).as_secs_f64());
        r.tally.ok as f64 / elapsed
    }

    /// Both threads on a fixed schedule totalling `rate` requests per
    /// second for `secs`.
    pub fn open(&mut self, secs: f64, rate: f64) -> LaneResult {
        let (items, seen) = (self.items, &self.seen);
        let start = Instant::now() + Duration::from_millis(5);
        let end = start + Duration::from_secs_f64(secs);
        let r = on_lanes(&mut self.lanes, |t, lane| {
            open_loop(
                lane,
                items,
                seen,
                Schedule::split(start, end, rate, t, LANES),
            )
        });
        self.absorb(r)
    }

    /// Rounds of about [`ROUND_SECS`] of closed loop then open loop at
    /// `rate`, filling `secs`.
    pub fn rounds(&mut self, secs: f64, rate: f64) -> Rounds {
        let n = (secs / ROUND_SECS).round().max(1.0) as usize;
        let round = secs / n as f64;
        let mut out = Rounds {
            throughput: Vec::with_capacity(n),
            p50: Vec::with_capacity(n),
            open: LaneResult::default(),
        };
        let mut opens = Vec::with_capacity(n);
        for _ in 0..n {
            out.throughput.push(self.closed(round * CLOSED_SHARE));
            let open = self.open(round * (1.0 - CLOSED_SHARE), rate);
            out.p50.push(Latency::of(&open).p50);
            opens.push(open);
        }
        out.open = LaneResult::merge(opens);
        out
    }
}

/// The quantile of per-window values on the metric's good side, with
/// `share` of the windows beyond it: the `share` quantile of a
/// lower-is-better metric, the `1 − share` quantile of a higher-is-better
/// one.
pub fn good_side(windows: &[f64], better: Better, share: f64) -> f64 {
    let q = match better {
        Better::Lower => share,
        Better::Higher => 1.0 - share,
    };
    quantile(&mut windows.to_vec(), q).unwrap_or(0.0)
}

/// Client-side latency summary of an open-loop phase, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub samples: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub p90_beyond: usize,
    pub p99_beyond: usize,
    pub lag_p50: f64,
    pub lag_p99: f64,
    /// Median send-to-response time in ms.
    pub service_p50: f64,
    /// Mean send-to-response time in µs (the client's view of one
    /// request, without schedule lag).
    pub service_mean_us: f64,
}

impl Latency {
    pub fn of(r: &LaneResult) -> Latency {
        let ms = |v: Option<u64>| v.unwrap_or(0) as f64 / 1e6;
        let mut lat = r.latency_ns.clone();
        let n = r.service_ns.len().max(1) as f64;
        Latency {
            samples: lat.len(),
            p50: ms(quantile(&mut lat, 0.5)),
            p90: ms(quantile(&mut lat, 0.9)),
            p99: ms(quantile(&mut lat, 0.99)),
            p90_beyond: beyond(&r.latency_ns, 0.9),
            p99_beyond: beyond(&r.latency_ns, 0.99),
            lag_p50: ms(quantile(&mut r.lag_ns.clone(), 0.5)),
            lag_p99: ms(quantile(&mut r.lag_ns.clone(), 0.99)),
            service_p50: ms(quantile(&mut r.service_ns.clone(), 0.5)),
            service_mean_us: r.service_ns.iter().sum::<u64>() as f64 / n / 1e3,
        }
    }

    pub fn print(&self, label: &str) {
        eprintln!(
            "{label}: p50_ms {:.4}  p90_ms {:.4} ({} beyond)  p99_ms {:.4} ({} beyond)  \
             lag_p50_ms {:.4}  lag_p99_ms {:.4}  service_p50_ms {:.4}  samples {}",
            self.p50,
            self.p90,
            self.p90_beyond,
            self.p99,
            self.p99_beyond,
            self.lag_p50,
            self.lag_p99,
            self.service_p50,
            self.samples
        );
    }
}

/// The model the daemon boots, loaded the way the daemon loads it, for
/// the bit-for-bit reference.
pub fn load_reference(spec: &ServeSpec, files: &BootFiles) -> io::Result<HalkModel> {
    match spec.boot {
        Boot::Snapshot => Ok(halk_snap::read_file(&files.snapshot)?.1),
        Boot::Tsv { .. } => {
            let g = halk_kg::tsv::load(&files.graph_tsv)?;
            HalkModel::load(&g, &files.model_dir)
        }
    }
}

/// Checks a seeded sample of up to [`BIT_CHECKS`] served halk answers
/// bit-for-bit against `score_all_with` + `top_k_indices` on `model`. Returns
/// `(checked, mismatched)`.
pub fn bit_check(
    model: &HalkModel,
    sparql: &[String],
    hits: &[(u32, Vec<(u32, f32)>)],
    seed: u64,
) -> (usize, usize) {
    let mut picks: Vec<usize> = (0..hits.len()).collect();
    picks.shuffle(&mut rng_for(seed, 7));
    picks.truncate(BIT_CHECKS);
    let trig = model.entity_trig();
    let mismatched: usize = std::thread::scope(|s| {
        let handles: Vec<_> = picks
            .chunks(picks.len().div_ceil(LANES).max(1))
            .map(|chunk| {
                let trig = &trig;
                s.spawn(move || {
                    let mut scores = Vec::new();
                    chunk
                        .iter()
                        .filter(|&&p| {
                            let (item, got) = &hits[p];
                            let q = halk_sparql::sparql_to_query(&sparql[*item as usize])
                                .expect("pool queries adapt");
                            model.score_all_with(trig, &q, &mut scores);
                            let want = top_k_indices(&scores, TOP);
                            want.len() != got.len()
                                || want.iter().zip(got).any(|(&w, &(id, score))| {
                                    w != id || scores[w as usize].to_bits() != score.to_bits()
                                })
                        })
                        .count()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .sum()
    });
    (picks.len(), mismatched)
}

/// One untraced run of a serve workload.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, work: &Path) -> io::Result<Report> {
    let t0 = Instant::now();
    let (files, req) = build_serve(spec, seed, work)?;
    eprintln!(
        "{}: {} queries in the pool, request_hash {:016x}, inputs built in {:.2?}",
        spec.name,
        req.items.len(),
        req.hash,
        t0.elapsed()
    );

    // Boot-only daemons are killed, not drained: only their time to
    // `listening on` matters. The last boot serves the traffic.
    let mut boots = Vec::with_capacity(BOOTS);
    let mut daemon = None;
    for _ in 0..BOOTS {
        drop(daemon.take()); // the previous boot must not run during this one
        let (d, took) = Daemon::boot(&files.args, work, false)?;
        boots.push(took.as_secs_f64());
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one boot");
    eprintln!("{}: {BOOTS} boots done at {:.2?}", spec.name, t0.elapsed());

    let mut traffic = Traffic::new(&daemon.addr, &req);
    traffic.closed(WARM_SECS);
    let rounds = traffic.rounds(seconds, spec.rate_qps);
    let rss_kb = daemon.vm_hwm_kb()?;
    daemon.stop()?;

    let lat = Latency::of(&rounds.open);
    eprintln!(
        "{}: traffic done at {:.2?}; per-round throughput {:.1?}, p50_ms {:.4?}",
        spec.name,
        t0.elapsed(),
        rounds.throughput,
        rounds.p50
    );
    let (checked, mismatched) = match spec.engine {
        halk_serve::AskEngine::Halk => bit_check(
            &load_reference(spec, &files)?,
            &req.sparql,
            &traffic.hits,
            seed,
        ),
        halk_serve::AskEngine::Exact => (0, 0),
    };

    let t = traffic.tally;
    lat.print(spec.name);
    eprintln!(
        "{}: attempted {} ok {} shed {} truncated {} mismatched {} errors {} io_errors {} \
         repeat_share {:.4}; halk bit-checks {checked} ({mismatched} mismatched); run took {:.2?}",
        spec.name,
        t.attempted,
        t.ok,
        t.shed,
        t.truncated,
        t.mismatched,
        t.errors,
        t.io_errors,
        t.repeats as f64 / t.attempted.max(1) as f64,
        t0.elapsed()
    );
    let bits_ok = spec.engine == halk_serve::AskEngine::Exact || checked > 0;
    Ok(Report {
        correct: t.failed() == 0 && mismatched == 0 && bits_ok,
        attempted: t.attempted,
        failed: t.failed() + mismatched as u64,
        metrics: vec![
            ("setup_s", median(&boots)),
            (
                "throughput_qps",
                good_side(&rounds.throughput, Better::Higher, RATE_GOOD_SHARE),
            ),
            (
                "p50_ms",
                good_side(&rounds.p50, Better::Lower, P50_GOOD_SHARE),
            ),
            ("rss_mb", rss_kb as f64 / 1024.0),
        ],
    })
}
