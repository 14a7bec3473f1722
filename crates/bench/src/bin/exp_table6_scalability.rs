//! Table VI: accuracy and execution time vs query size (1–5) for HaLk vs
//! GFinder on the NELL stand-in.
//!
//! Query-size ladder: 1p → 2p → pi → pip → p3ip (§IV-G). Accuracy is
//! recall@|truth| against exact test-graph answers; both engines observe
//! only the (incomplete) training graph, so the matcher's accuracy decays
//! with size while the embedding executor stays flat-ish and much faster.
//!
//! Run with `cargo run --release -p halk-bench --bin exp_table6_scalability`.

use halk_bench::{save_json, RunObs, Scale, Table};
use halk_core::{top_k_indices, train_model, HalkModel};
use halk_kg::Dataset;
use halk_logic::{answers, Sampler, Structure};
use halk_matching::{answer_accuracy, Matcher};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;
use std::time::Instant;

fn main() {
    let mut obs = RunObs::init("table6_scalability");
    let scale = Scale::from_env();
    obs.scale(&scale);
    let queries_per_size = scale.eval_queries.min(30);
    eprintln!(
        "Table VI (scalability, NELL) at scale '{}' ({} queries/size)",
        scale.name(),
        queries_per_size
    );
    let nell = Dataset::standard_suite(&mut StdRng::seed_from_u64(scale.seed))
        .into_iter()
        .find(|d| d.name == "NELL")
        .expect("NELL in the standard suite");

    let mut halk = HalkModel::new(&nell.split.train, scale.model_config());
    let stats = train_model(
        &mut halk,
        &nell.split.train,
        &Structure::training(),
        &scale.train_config(),
    )
    .expect("training failed");
    eprintln!("  trained HaLk in {:.1?}", stats.wall);

    let matcher = Matcher::new(&nell.split.train);
    let sampler = Sampler::new(&nell.split.test);
    let mut rng = StdRng::seed_from_u64(scale.seed ^ 0x76);

    let mut acc_table = Table::new(
        "Table VI — accuracy (%) by query size",
        &["QS1/1p", "QS2/2p", "QS3/pi", "QS4/pip", "QS5/p3ip"],
    )
    .percentages();
    let mut time_table = Table::new(
        "Table VI — execution time (ms) by query size",
        &["QS1/1p", "QS2/2p", "QS3/pi", "QS4/pip", "QS5/p3ip"],
    )
    .precision(2);

    let mut h_acc = Vec::new();
    let mut g_acc = Vec::new();
    let mut h_ms = Vec::new();
    let mut g_ms = Vec::new();
    let mut json_rows = Vec::new();
    for (size, s) in Structure::scalability_ladder() {
        let mut ha = 0.0;
        let mut ga = 0.0;
        let mut hm = 0.0f64;
        let mut gm = 0.0f64;
        let mut n = 0usize;
        for gq in sampler.sample_many(s, queries_per_size, &mut rng) {
            let truth = answers(&gq.query, &nell.split.test);
            if truth.is_empty() {
                continue;
            }
            let k = truth.len();

            let t0 = Instant::now();
            let scores = halk.score_all(&gq.query);
            hm += t0.elapsed().as_secs_f64() * 1e3;
            let predicted: Vec<halk_kg::EntityId> = top_k_indices(&scores, k)
                .into_iter()
                .map(halk_kg::EntityId)
                .collect();
            ha += answer_accuracy(&predicted, &truth);

            let t1 = Instant::now();
            let matched = matcher.answer_entities(&gq.query);
            gm += t1.elapsed().as_secs_f64() * 1e3;
            ga += answer_accuracy(&matched, &truth);
            n += 1;
        }
        let n = n.max(1) as f64;
        h_acc.push(Some(ha / n));
        g_acc.push(Some(ga / n));
        h_ms.push(Some(hm / n));
        g_ms.push(Some(gm / n));
        json_rows.push(json!({
            "size": size, "structure": s.name(),
            "halk_acc": ha / n, "gfinder_acc": ga / n,
            "halk_ms": hm / n, "gfinder_ms": gm / n,
        }));
    }
    acc_table.push_row("HaLk", h_acc);
    acc_table.push_row("GFinder", g_acc);
    time_table.push_row("HaLk", h_ms);
    time_table.push_row("GFinder", g_ms);
    acc_table.print();
    time_table.print();
    if let Some(p) = save_json(
        "table6_scalability",
        &json!({ "scale": scale.name(), "rows": json_rows }),
    ) {
        eprintln!("results written to {}", p.display());
    }
    obs.finish();
}
