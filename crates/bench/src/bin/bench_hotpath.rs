//! Hot-path regression harness: times the kernels the whole reproduction
//! sits on at fixed seeds and writes `BENCH_hotpath.json` at the repo root,
//! so later changes can be diffed with `--compare`. Every entry is the
//! median per-call nanoseconds over sample batches:
//!
//! - scoring: `score_all_{up,p2}` (vectorized kernel) against their
//!   `_scalar` references, and `score_all_up_cached_trig` with the entity
//!   trig table and output buffer hoisted out of the loop;
//! - the query-plan compiler: `plan_compile_up` (cold DNF rewrite + slot
//!   dedup) against `embed_up_cached_plan` (embed through the warm cache);
//! - observability: `tracing_overhead_disabled` (one span with no trace
//!   file) and `windowed_record_{disarmed,armed}` (one windowed-histogram
//!   record, batch default vs live daemon);
//! - training: `train_step_<structure>`, one optimizer step per operator
//!   family (pi, 1p projection, 3p chain, 3i intersection, 3d difference,
//!   2in negation) — the per-operator cost behind Fig. 6b — and
//!   `train_step_parallel` / `eval_parallel` at the ambient thread count
//!   against one thread;
//! - substrate: `sampler_pi_batch` and dense `matmul_<n>`;
//! - serving scale (8000 entities, ns per query over a group of 8
//!   same-skeleton requests): `score_all_8000` (full vector + argsort per
//!   request), `topk_sharded_8000` (batched embed + arc-sharded streaming
//!   top-k), `executor_group_8000` (the same group as prepared halk asks
//!   through serve's group path, `Engine::execute_batch`),
//!   `score_all_8000_{f32,i16}` (trig table at each precision);
//! - cold start at 8000 entities / 50k triples: `tsv_boot_8000` against
//!   `snapshot_boot_8000`.
//!
//! Schema `halk-bench-hotpath/v9`: `{schema, metrics_snapshot, config,
//! results: {<name>: {median_ns, iters, ...extra}}, derived}`.
//! `--compare` reads every earlier version and compares the keys both runs
//! share. `metrics_snapshot` names where the metrics-registry snapshot
//! (pool, plan-cache and eval counters accumulated while benching) went.
//!
//! Usage:
//!   bench_hotpath [--smoke] [--out <path>] [--compare <old.json>]
//!                 [--metrics-out <path>]
//!
//! `--smoke` runs a seconds-scale configuration (CI sanity; writes neither
//! the JSON nor the metrics snapshot unless `--out` / `--metrics-out` is
//! given). `--compare` exits non-zero if any shared benchmark regressed by
//! more than 15%, naming each regressed entry with its slowdown percentage.

use halk_core::{
    evaluate_structure_pool, top_k_indices, ArcShards, HalkConfig, HalkModel, Pool, Precision,
    QueryModel, ShardedTrig, TrainExample,
};
use halk_kg::{generate, DatasetSplit, Graph, SynthConfig};
use halk_logic::plan::{PlanBindings, PlanShape};
use halk_logic::{answers, Query, Sampler, Structure};
use halk_obs::Deadline;
use halk_serve::{AskEngine, BatchItem, Engine, PreparedAsk, Response};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{json, Value};
use std::hint::black_box;
use std::time::Instant;

/// Regression threshold for `--compare`: new median may exceed the old one
/// by at most this factor.
const REGRESSION_FACTOR: f64 = 1.15;

struct Args {
    smoke: bool,
    out: Option<String>,
    compare: Option<String>,
    metrics_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        out: None,
        compare: None,
        metrics_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => args.out = it.next(),
            "--compare" => args.compare = it.next(),
            "--metrics-out" => args.metrics_out = it.next(),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: bench_hotpath [--smoke] [--out <path>] [--compare <old.json>] \
                     [--metrics-out <path>]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// Times `f` over `samples` batches of `iters` calls each; returns the
/// median per-call nanoseconds (median over batches is robust to one-off
/// scheduler noise without needing many iterations).
fn median_ns(samples: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up (page in code, fill buffer pools)
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[per_call.len() / 2]
}

fn batch_for(g: &Graph, s: Structure, n: usize, seed: u64) -> Vec<TrainExample> {
    let sampler = Sampler::new(g);
    let mut rng = StdRng::seed_from_u64(seed);
    sampler
        .sample_many(s, n, &mut rng)
        .into_iter()
        .map(|gq| {
            let ans = answers(&gq.query, g);
            let positive = ans.iter().next().expect("non-empty");
            let negatives = sampler.negatives(&ans, 16, &mut rng);
            TrainExample {
                positive,
                negatives,
                query: gq.query,
            }
        })
        .collect()
}

fn main() {
    let args = parse_args();
    // Pool/plan/eval metrics accumulate while benching; the snapshot at the
    // end captures them. HALK_TRACE works here like everywhere else.
    halk_core::obs::install();
    halk_obs::trace::init_from_env();
    // (samples, iters) per benchmark family: enough for a stable median at
    // full scale, seconds total under --smoke.
    let (samples, iters) = if args.smoke { (3, 3) } else { (9, 20) };
    let cfg = if args.smoke {
        HalkConfig::tiny()
    } else {
        HalkConfig::default()
    };
    let matmul_n = if args.smoke { 32 } else { 128 };

    let g = generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(1));
    let mut model = HalkModel::new(&g, cfg.clone());
    let sampler = Sampler::new(&g);

    // A multi-branch (union) query plus a plain projection: the two shapes
    // online answering spends its time in.
    let up = sampler
        .sample(Structure::Up, &mut StdRng::seed_from_u64(3))
        .expect("groundable up query");
    let p2 = sampler
        .sample(Structure::P2, &mut StdRng::seed_from_u64(4))
        .expect("groundable p2 query");

    let mut results: Vec<(String, Value)> = Vec::new();
    // One entry per measurement: `median_ns` and `iters`, then any extra
    // context fields (thread counts, scale, sizes) in the order given.
    let mut record = |name: &str, ns: f64, iters: usize, extra: Option<Value>| {
        println!("{name:24} {ns:>12.0} ns/op   ({iters} iters/sample)");
        let mut entry = vec![
            ("median_ns".to_string(), json!(ns)),
            ("iters".to_string(), json!(iters)),
        ];
        if let Some(Value::Object(fields)) = extra {
            entry.extend(fields);
        }
        results.push((name.to_string(), Value::Object(entry)));
    };

    // --- score_all: vectorized kernel (public path) vs scalar reference.
    let ns_vec = median_ns(samples, iters, || {
        black_box(model.score_all(&up.query));
    });
    record("score_all_up", ns_vec, iters, None);
    let ns_scalar = median_ns(samples, iters, || {
        black_box(model.score_all_scalar(&up.query));
    });
    record("score_all_up_scalar", ns_scalar, iters, None);
    let ns_vec_p2 = median_ns(samples, iters, || {
        black_box(model.score_all(&p2.query));
    });
    record("score_all_p2", ns_vec_p2, iters, None);
    let ns_scalar_p2 = median_ns(samples, iters, || {
        black_box(model.score_all_scalar(&p2.query));
    });
    record("score_all_p2_scalar", ns_scalar_p2, iters, None);
    // Amortized shape (what eval's score cache does): entity trig and the
    // output buffer hoisted out of the loop.
    let trig = model.entity_trig();
    let mut scores = Vec::new();
    let ns_amort = median_ns(samples, iters, || {
        model.score_all_with(&trig, &up.query, &mut scores);
        black_box(&scores);
    });
    record("score_all_up_cached_trig", ns_amort, iters, None);

    // --- query-plan compiler: one cold compile (DNF rewrite + slot
    // dedup + binding extraction) vs a full embed through the warm
    // per-structure cache — the amortization the plan IR buys.
    let ns_compile = median_ns(samples, iters, || {
        let shape = PlanShape::compile(&up.query);
        let bindings = PlanBindings::of(&up.query);
        black_box((shape, bindings));
    });
    record("plan_compile_up", ns_compile, iters, None);
    let ns_embed_cached = median_ns(samples, iters, || {
        black_box(model.embed_query(&up.query));
    });
    record("embed_up_cached_plan", ns_embed_cached, iters, None);

    // --- disabled-tracing overhead: one span open+close with no trace file
    // configured must cost a few ns (one relaxed atomic load and an inert
    // guard drop). This is the zero-cost-when-disabled contract of
    // halk-obs; regressions here slow every instrumented hot path.
    let span_iters = 10_000;
    let ns_span = median_ns(samples, span_iters, || {
        let guard = halk_obs::span!("bench_disabled_span");
        black_box(&guard);
    });
    record("tracing_overhead_disabled", ns_span, span_iters, None);

    // --- windowed-histogram record path: one `record` on a windowed
    // histogram handle. Disarmed (the default for every batch binary) it
    // pays the cumulative two relaxed adds plus the ring-presence check
    // and the arm-flag load; armed it is what a live daemon pays per
    // latency sample, adding an Acquire slot-index load and two more
    // relaxed fetch_adds into the ring. Disarmed again afterwards so later
    // entries run as before.
    let wh = halk_obs::histogram!("bench_windowed_record_us", windowed);
    let ns_disarmed = median_ns(samples, span_iters, || {
        wh.record(black_box(137));
    });
    record("windowed_record_disarmed", ns_disarmed, span_iters, None);
    halk_obs::window::set_enabled(true);
    let ns_armed = median_ns(samples, span_iters, || {
        wh.record(black_box(137));
    });
    halk_obs::window::set_enabled(false);
    record("windowed_record_armed", ns_armed, span_iters, None);

    // --- one optimizer step (embed + loss + backward + Adam), pooled tape,
    // per operator family: the per-operator cost behind Fig. 6b's offline
    // time. pi runs first, on the untrained model its baseline key was
    // recorded against; a structure with no groundable batch is skipped.
    let train_iters = if args.smoke { 2 } else { 5 };
    let train_batches = [
        Structure::Pi,
        Structure::P1,
        Structure::P3,
        Structure::I3,
        Structure::D3,
        Structure::In2,
    ]
    .map(|s| (s, batch_for(&g, s, cfg.batch_size, 2)));
    for (s, batch) in &train_batches {
        if batch.is_empty() {
            continue;
        }
        let ns_train = median_ns(samples, train_iters, || {
            black_box(model.train_batch(batch));
        });
        record(
            &format!("train_step_{}", s.name()),
            ns_train,
            train_iters,
            None,
        );
    }
    let batch = &train_batches[0].1; // pi, also train_step_parallel's batch

    // --- sampler throughput (queries/s feeds the training loop).
    let n_q = if args.smoke { 8 } else { 64 };
    let mut srng = StdRng::seed_from_u64(5);
    let ns_sample = median_ns(samples, iters, || {
        black_box(sampler.sample_many(Structure::Pi, n_q, &mut srng));
    });
    record("sampler_pi_batch", ns_sample, iters, None);

    // --- dense matmul (the MLP workhorse), branch-free inner loop.
    let mut mrng = StdRng::seed_from_u64(6);
    let a = halk_nn::init::uniform(matmul_n, matmul_n, -1.0, 1.0, &mut mrng);
    let b = halk_nn::init::uniform(matmul_n, matmul_n, -1.0, 1.0, &mut mrng);
    let ns_matmul = median_ns(samples, iters, || {
        black_box(a.matmul(&b));
    });
    record(&format!("matmul_{matmul_n}"), ns_matmul, iters, None);

    // --- parallel runtime: an evaluation sweep and a training step
    // at the ambient thread count vs one worker. Thread counts and the
    // host's hardware parallelism are recorded so speedups are read in
    // context (on a single-core host both pools collapse to one worker and
    // the ratio is ~1.0 by construction).
    let threads = halk_par::auto_threads();
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let split = DatasetSplit::nested(&g, 0.8, 0.1, &mut StdRng::seed_from_u64(7));
    let eval_q = if args.smoke { 4 } else { 16 };
    let ns_eval_1 = median_ns(samples, 1, || {
        black_box(evaluate_structure_pool(
            &model,
            &split,
            Structure::P2,
            eval_q,
            11,
            Pool::new(1),
        ));
    });
    let ns_eval_n = median_ns(samples, 1, || {
        black_box(evaluate_structure_pool(
            &model,
            &split,
            Structure::P2,
            eval_q,
            11,
            Pool::new(threads),
        ));
    });
    let eval_speedup = ns_eval_1 / ns_eval_n;
    record(
        "eval_parallel",
        ns_eval_n,
        1,
        Some(json!({
            "threads": threads,
            "baseline_1thread_ns": ns_eval_1,
            "speedup_vs_1thread": eval_speedup,
        })),
    );

    model.set_threads(1);
    let ns_train_1 = median_ns(samples, train_iters, || {
        black_box(model.train_batch(batch));
    });
    model.set_threads(threads);
    let ns_train_n = median_ns(samples, train_iters, || {
        black_box(model.train_batch(batch));
    });
    model.set_threads(0);
    let train_speedup = ns_train_1 / ns_train_n;
    record(
        "train_step_parallel",
        ns_train_n,
        train_iters,
        Some(json!({
            "threads": threads,
            "baseline_1thread_ns": ns_train_1,
            "speedup_vs_1thread": train_speedup,
        })),
    );

    // --- sharded streaming top-k at serving scale: 8000 entities,
    // same config otherwise. `score_all_8000` is the pre-sharding serve
    // path — a fresh full score vector plus `top_k_indices` argsort per
    // request, repeated for each request in a group of 8; `topk_sharded_8000`
    // is what `halk serve`'s worker now runs for that same group: one batched
    // plan embedding (`scorers_for_shape`, B = 8) plus one sharded sweep — 8
    // arc shards streamed through bounded heaps, each trig slice visited once
    // for the whole group, merged by rank, never materializing the O(n)
    // vector. Both report ns *per query*. One worker on purpose: the win
    // measured here is embed amortization plus the avoided per-request
    // allocations and the 4 KB slice working set, not parallelism.
    let g8 = generate(
        &SynthConfig {
            n_entities: 8000,
            ..SynthConfig::fb237_like()
        },
        &mut StdRng::seed_from_u64(8),
    );
    let model8 = HalkModel::new(&g8, cfg.clone());
    let sampler8 = Sampler::new(&g8);
    let mut rng8 = StdRng::seed_from_u64(9);
    let group8: Vec<_> = (0..64)
        .filter_map(|_| sampler8.sample(Structure::P2, &mut rng8))
        .map(|gq| gq.query)
        .take(8)
        .collect();
    assert_eq!(group8.len(), 8, "8 groundable p2 queries");
    let trig8 = model8.entity_trig();
    let sharded8 = model8.entity_shards_with(8, Precision::F32);
    let pool1 = Pool::new(1);
    let never = Deadline::never();
    let ns_full8 = median_ns(samples, iters, || {
        for q in &group8 {
            let mut scores = Vec::new();
            model8.score_all_with(&trig8, q, &mut scores);
            black_box(top_k_indices(&scores, 10));
        }
    }) / group8.len() as f64;
    record(
        "score_all_8000",
        ns_full8,
        iters,
        Some(json!({
            "n_entities": 8000,
            "k": 10,
            "group": group8.len(),
        })),
    );
    let shape8 = PlanShape::compile(&group8[0]);
    let ks8 = [10usize; 8];
    let deadlines8 = [&never; 8];
    let ns_sharded8 = median_ns(samples, iters, || {
        let refs: Vec<&Query> = group8.iter().collect();
        let scorers = model8.scorers_for_shape(&shape8, &refs);
        black_box(halk_core::sharded_top_k_timed(
            &pool1,
            &sharded8,
            &scorers,
            &ks8,
            &deadlines8,
            None,
        ));
    }) / group8.len() as f64;
    record(
        "topk_sharded_8000",
        ns_sharded8,
        iters,
        Some(json!({
            "n_entities": 8000,
            "k": 10,
            "group": group8.len(),
            "shards": 8,
            "pool_threads": 1,
        })),
    );
    let sharded_speedup = ns_full8 / ns_sharded8;

    // --- the serve group path: the same 8 queries as halk asks, prepared
    // from SPARQL and answered through `Engine::execute_batch` on an
    // 8-shard engine, its pool pinned to one thread for the timing.
    // Grouping, the executor's group accounting, the slow-query check and
    // the protocol replies all ride on top of the batched embed + sharded
    // sweep `topk_sharded_8000` times in isolation, so the pair prices the
    // serve group envelope — the derived overhead ratio must stay ~1.0.
    let engine8 = Engine::with_options(
        g8.clone(),
        Some(HalkModel::new(&g8, cfg.clone())),
        Some(8),
        Precision::F32,
    );
    let asks8: Vec<PreparedAsk> = group8
        .iter()
        .map(|q| {
            let Query::Projection { rel: r2, input } = q else {
                unreachable!("p2 ends in a projection")
            };
            let Query::Projection { rel: r1, input } = input.as_ref() else {
                unreachable!("p2 is a two-hop chain")
            };
            let Query::Anchor(e) = input.as_ref() else {
                unreachable!("p2 starts at an anchor")
            };
            let sparql = format!(
                "SELECT ?x WHERE {{ e:{} r:{} ?y . ?y r:{} ?x . }}",
                e.0, r1.0, r2.0
            );
            engine8
                .prepare(AskEngine::Halk, &sparql)
                .expect("p2 ask prepares")
        })
        .collect();
    let items8: Vec<BatchItem> = asks8
        .iter()
        .map(|prepared| BatchItem {
            prepared,
            top: 10,
            deadline: &never,
            req: 0,
            queue_wait_us: 0,
        })
        .collect();
    let replies8 = engine8.execute_batch(&items8);
    assert!(
        replies8
            .iter()
            .all(|r| matches!(r, Response::Scores { .. })),
        "every ask is answered with scores"
    );
    halk_par::set_threads(1);
    let ns_exec8 = median_ns(samples, iters, || {
        black_box(engine8.execute_batch(&items8));
    }) / group8.len() as f64;
    halk_par::set_threads(0);
    record(
        "executor_group_8000",
        ns_exec8,
        iters,
        Some(json!({
            "n_entities": 8000,
            "k": 10,
            "group": group8.len(),
            "shards": 8,
            "pool_threads": 1,
        })),
    );
    let executor_overhead = ns_exec8 / ns_sharded8;

    // --- quantized scoring: the same 8-query group swept with
    // the trig table stored at F32 vs I16 fixed point. Both use the
    // amortized shape (hoisted trig + reusable output buffer) so the
    // number isolates the kernel, not allocation. I16 halves the resident
    // table; whether it also wins wall-clock at a cache-resident 8000×d
    // scale is exactly what this pair records honestly.
    let trig8_i16 = model8.entity_trig_with(Precision::I16);
    let mut qscores = Vec::new();
    let ns_q_f32 = median_ns(samples, iters, || {
        for q in &group8 {
            model8.score_all_with(&trig8, q, &mut qscores);
            black_box(&qscores);
        }
    }) / group8.len() as f64;
    record(
        "score_all_8000_f32",
        ns_q_f32,
        iters,
        Some(json!({
            "n_entities": 8000,
            "group": group8.len(),
            "trig_resident_bytes": trig8.resident_bytes(),
        })),
    );
    let ns_q_i16 = median_ns(samples, iters, || {
        for q in &group8 {
            model8.score_all_with(&trig8_i16, q, &mut qscores);
            black_box(&qscores);
        }
    }) / group8.len() as f64;
    record(
        "score_all_8000_i16",
        ns_q_i16,
        iters,
        Some(json!({
            "n_entities": 8000,
            "group": group8.len(),
            "trig_resident_bytes": trig8_i16.resident_bytes(),
        })),
    );
    let quantized_ratio = ns_q_f32 / ns_q_i16;

    // --- cold start: the two ways `halk serve` can reach a
    // *serving-ready* engine — graph loaded, model restored, shard-local
    // trig tables built — at the 10x Table VI scale (8000 entities and a
    // realistically dense 50k triples; the quantized-scoring graph above
    // keeps the sparser seed for schema continuity). The TSV path is what
    // boot cost before snapshots: parse the triple TSV, pay
    // `HalkModel::new`'s O(n_entities * dim) seeded init plus the grouping
    // sweep, load the checkpoint (values + Adam moments), then compute the
    // sin/cos trig sweep. The snapshot path is one CRC-verified binary
    // decode whose TRIG section is re-sliced into shards without any
    // recompute. Medians over single boots (a boot is a one-shot event;
    // batching would hide allocator effects).
    let boot_cfg = SynthConfig {
        n_entities: 8000,
        n_triples: 50_000,
        ..SynthConfig::fb237_like()
    };
    let boot_g = generate(&boot_cfg, &mut StdRng::seed_from_u64(9));
    let boot_model = HalkModel::new(&boot_g, cfg.clone());
    let boot_shards = 4usize;
    let boot_dir = std::env::temp_dir().join(format!("halk_bench_boot_{}", std::process::id()));
    std::fs::create_dir_all(&boot_dir).expect("create boot scratch dir");
    let tsv_path = boot_dir.join("g8.tsv");
    let model_dir = boot_dir.join("model8");
    let snap_path = boot_dir.join("g8.snap");
    halk_kg::tsv::save(&boot_g, &tsv_path).expect("write tsv");
    boot_model.save(&model_dir).expect("write model dir");
    halk_snap::write_file(&snap_path, &boot_g, &boot_model).expect("write snapshot");
    let boot_samples = if args.smoke { 3 } else { 7 };
    let ns_tsv_boot = median_ns(boot_samples, 1, || {
        let g = halk_kg::tsv::load(&tsv_path).expect("tsv boot: graph");
        let m = HalkModel::load(&g, &model_dir).expect("tsv boot: model");
        let sharded = m.entity_shards_with(boot_shards, Precision::F32);
        black_box((g, m, sharded));
    });
    record(
        "tsv_boot_8000",
        ns_tsv_boot,
        1,
        Some(json!({
            "n_entities": 8000,
            "n_triples": boot_g.n_triples(),
            "shards": boot_shards,
        })),
    );
    let ns_snap_boot = median_ns(boot_samples, 1, || {
        let (g, m, trig) = halk_snap::read_file(&snap_path).expect("snapshot boot");
        let parts = ArcShards::new(trig.n_entities(), boot_shards);
        let sharded = ShardedTrig::from_table(&trig, &parts, Precision::F32);
        drop(trig); // the engine keeps only the shard slices resident
        black_box((g, m, sharded));
    });
    record(
        "snapshot_boot_8000",
        ns_snap_boot,
        1,
        Some(json!({
            "n_entities": 8000,
            "n_triples": boot_g.n_triples(),
            "shards": boot_shards,
            "snapshot_bytes": std::fs::metadata(&snap_path).map_or(0, |m| m.len()),
        })),
    );
    let boot_speedup = ns_tsv_boot / ns_snap_boot;
    // Both boots must land on the same deployment: snapshot answers are
    // bit-identical to the TSV path's by construction — spot-check it here
    // so the speedup number can never be quoted for a divergent decode.
    {
        let (gs, ms, trig_s) = halk_snap::read_file(&snap_path).expect("snapshot boot");
        let gt = halk_kg::tsv::load(&tsv_path).expect("tsv boot: graph");
        let mt = HalkModel::load(&gt, &model_dir).expect("tsv boot: model");
        assert_eq!(gs.triples(), gt.triples(), "snapshot graph drifted");
        let probe = {
            let t = boot_g.triples()[0];
            Query::atom(t.h, t.r)
        };
        assert_eq!(
            ms.score_all(&probe),
            mt.score_all(&probe),
            "snapshot model scores drifted"
        );
        // The shipped trig scores the same bits as a fresh TSV-side build.
        let mut via_snap = Vec::new();
        ms.score_all_with(&trig_s, &probe, &mut via_snap);
        assert_eq!(via_snap, mt.score_all(&probe), "snapshot trig drifted");
    }
    let _ = std::fs::remove_dir_all(&boot_dir);

    let speedup = ns_scalar / ns_vec;
    let speedup_p2 = ns_scalar_p2 / ns_vec_p2;
    println!("score_all speedup vs scalar: up {speedup:.2}x, p2 {speedup_p2:.2}x");
    println!("topk_sharded_8000 vs score_all_8000: {sharded_speedup:.2}x");
    println!("executor_group_8000 vs topk_sharded_8000: {executor_overhead:.2}x serve envelope");
    println!("score_all_8000 f32 vs i16: {quantized_ratio:.2}x");
    println!("snapshot_boot_8000 vs tsv_boot_8000: {boot_speedup:.2}x");
    println!(
        "eval_parallel / train_step_parallel vs 1 thread: {eval_speedup:.2}x / \
         {train_speedup:.2}x ({threads} threads)"
    );

    // Snapshot the metrics the instrumented paths accumulated while
    // benching (pool regions, plan-cache hits/misses, eval counters).
    let metrics_path = output_path(
        &args.metrics_out,
        args.smoke,
        "results/bench_hotpath_metrics.json",
    );
    if let Some(path) = &metrics_path {
        match halk_obs::metrics::write_snapshot(path) {
            Ok(()) => println!("metrics snapshot written to {path}"),
            Err(e) => halk_obs::log!(Error, "cannot write metrics snapshot {path}: {e}"),
        }
    }

    let report = json!({
        "schema": "halk-bench-hotpath/v9",
        "metrics_snapshot": metrics_path,
        "config": json!({
            "smoke": args.smoke,
            "dim": cfg.dim,
            "n_entities": g.n_entities(),
            "n_relations": g.n_relations(),
            "batch_size": cfg.batch_size,
            "matmul_n": matmul_n,
            "samples": samples,
            "seed": 1,
            "threads": threads,
            "hardware_threads": hardware_threads,
            "tracing_enabled": halk_obs::trace::enabled(),
        }),
        "results": Value::Object(results),
        "derived": json!({
            "score_all_up_speedup": speedup,
            "score_all_p2_speedup": speedup_p2,
            "eval_parallel_speedup": eval_speedup,
            "train_parallel_speedup": train_speedup,
            "topk_sharded_8000_speedup": sharded_speedup,
            "executor_group_8000_overhead": executor_overhead,
            "score_all_8000_f32_vs_i16": quantized_ratio,
            "snapshot_boot_8000_speedup": boot_speedup,
        }),
    });

    if let Some(path) = output_path(&args.out, args.smoke, "BENCH_hotpath.json") {
        let text = serde_json::to_string_pretty(&report).expect("serialize");
        std::fs::write(&path, text + "\n").expect("write benchmark json");
        println!("wrote {path}");
    }

    if let Some(old_path) = args.compare {
        let old_text = std::fs::read_to_string(&old_path)
            .unwrap_or_else(|e| panic!("cannot read {old_path}: {e}"));
        let old: Value = serde_json::from_str(&old_text).expect("parse old json");
        std::process::exit(compare(&old, &report));
    }
}

/// Where an output goes: the explicit path if given; otherwise full runs
/// refresh the committed file and `--smoke` writes nothing (CI must not
/// clobber the release-mode numbers).
fn output_path(given: &Option<String>, smoke: bool, default: &str) -> Option<String> {
    match (given, smoke) {
        (Some(p), _) => Some(p.clone()),
        (None, false) => Some(default.to_string()),
        (None, true) => None,
    }
}

/// Compares shared benchmark keys; returns the process exit code (0 = ok,
/// 1 = at least one regression beyond [`REGRESSION_FACTOR`]).
fn compare(old: &Value, new: &Value) -> i32 {
    let old_results = match old.get("results") {
        Some(Value::Object(fields)) => fields,
        _ => {
            eprintln!("old json has no `results` object");
            return 2;
        }
    };
    let new_results = match new.get("results") {
        Some(Value::Object(fields)) => fields,
        _ => unreachable!("report always has results"),
    };
    let mut regressed: Vec<(String, f64)> = Vec::new();
    for (name, old_entry) in old_results {
        let Some(old_ns) = old_entry.get("median_ns").and_then(Value::as_f64) else {
            continue;
        };
        let Some(new_ns) = new_results
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, e)| e.get("median_ns"))
            .and_then(Value::as_f64)
        else {
            println!("compare {name:24} (absent in new run, skipped)");
            continue;
        };
        let ratio = new_ns / old_ns;
        let verdict = if ratio > REGRESSION_FACTOR {
            regressed.push((name.clone(), (ratio - 1.0) * 100.0));
            "REGRESSION"
        } else {
            "ok"
        };
        println!("compare {name:24} {old_ns:>12.0} -> {new_ns:>12.0} ns  ({ratio:.2}x)  {verdict}");
    }
    if regressed.is_empty() {
        println!("no regressions beyond {REGRESSION_FACTOR}x");
        0
    } else {
        let list = regressed
            .iter()
            .map(|(name, pct)| format!("{name} +{pct:.1}%"))
            .collect::<Vec<_>>()
            .join(", ");
        eprintln!(
            "regression: {} entr{} slowed beyond {REGRESSION_FACTOR}x: {list}",
            regressed.len(),
            if regressed.len() == 1 { "y" } else { "ies" },
        );
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(entries: &[(&str, f64)]) -> Value {
        let results = entries
            .iter()
            .map(|&(name, ns)| (name.to_string(), json!({ "median_ns": ns, "iters": 1 })))
            .collect();
        json!({ "schema": "halk-bench-hotpath/v9", "results": Value::Object(results) })
    }

    #[test]
    fn entry_beyond_the_bound_regresses() {
        let old = report(&[("score_all_up", 100.0), ("matmul_128", 100.0)]);
        let new = report(&[("score_all_up", 116.0), ("matmul_128", 100.0)]);
        assert_eq!(compare(&old, &new), 1);
    }

    #[test]
    fn entries_within_the_bound_pass() {
        let old = report(&[("score_all_up", 100.0), ("matmul_128", 100.0)]);
        let new = report(&[("score_all_up", 114.0), ("matmul_128", 60.0)]);
        assert_eq!(compare(&old, &new), 0);
    }

    #[test]
    fn entry_missing_from_the_new_run_is_skipped() {
        let old = report(&[("score_all_up", 100.0), ("retired_entry", 1.0)]);
        let new = report(&[("score_all_up", 100.0)]);
        assert_eq!(compare(&old, &new), 0);
    }

    #[test]
    fn key_only_in_the_new_run_is_ignored() {
        // A v8 baseline knows only train_step_pi; the per-operator keys
        // added beside it have nothing to compare against.
        let old = report(&[("train_step_pi", 100.0)]);
        let new = report(&[("train_step_pi", 100.0), ("train_step_2in", 1e9)]);
        assert_eq!(compare(&old, &new), 0);
    }

    #[test]
    fn baseline_without_results_is_an_input_error() {
        let old = json!({ "schema": "halk-bench-hotpath/v8" });
        assert_eq!(compare(&old, &report(&[("score_all_up", 1.0)])), 2);
    }
}
