//! Design-choice ablation (this reproduction's own, beyond Table V): the
//! two readings of Eq. 16's outside distance.
//!
//! * **LiteralEq16** — `d_o` is the smaller endpoint chord everywhere (the
//!   formula as printed; point arcs degenerate to RotatE).
//! * **ZeroedInside** — `d_o = 0` anywhere on the arc (the ConE-style
//!   reading we first implemented).
//!
//! DESIGN.md §6 and EXPERIMENTS.md document why the literal reading is the
//! default: under zeroed-inside the cheapest way to satisfy positives is to
//! inflate arcs, which destroys the embedding structure generalization
//! depends on. This binary regenerates that comparison.
//!
//! Run with `cargo run --release -p halk-bench --bin exp_ablation_distance`.

use halk_bench::{save_json, truncated_structures, RunObs, Scale, Table};
use halk_core::eval::evaluate_table_pool;
use halk_core::{train_model, DistanceMode, HalkModel, Pool};
use halk_kg::Dataset;
use halk_logic::Structure;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;

fn main() {
    let mut obs = RunObs::init("ablation_distance");
    let scale = Scale::from_env();
    obs.scale(&scale);
    eprintln!(
        "Distance-mode ablation (FB237) at scale '{}' ({} steps)",
        scale.name(),
        scale.steps
    );
    let fb237 = Dataset::standard_suite(&mut StdRng::seed_from_u64(scale.seed))
        .into_iter()
        .find(|d| d.name == "FB237")
        .expect("FB237 in the standard suite");

    let structures = [Structure::P1, Structure::P2, Structure::I2, Structure::D2];
    let cols: Vec<&str> = structures.iter().map(|s| s.name()).collect();
    let mut mrr = Table::new("Eq. 16 reading ablation (MRR %)", &cols).percentages();
    let mut mean_len =
        Table::new("Mean learned arc length (rad, of 2π≈6.28)", &["1p arcs"]).precision(2);

    let mut json_rows = Vec::new();
    for (label, mode) in [
        ("CenterAnchored", DistanceMode::CenterAnchored),
        ("LiteralEq16", DistanceMode::LiteralEq16),
        ("ZeroedInside", DistanceMode::ZeroedInside),
    ] {
        let cfg = scale.model_config().with_distance(mode);
        let mut model = HalkModel::new(&fb237.split.train, cfg);
        let stats = train_model(
            &mut model,
            &fb237.split.train,
            &Structure::training(),
            &scale.train_config(),
        )
        .expect("training failed");
        eprintln!(
            "  trained {label} in {:.1?} (tail loss {:.3})",
            stats.wall,
            stats.tail_loss()
        );

        let row = evaluate_table_pool(
            &model,
            &fb237.split,
            &structures,
            scale.eval_queries,
            scale.seed ^ 0xD1,
            Pool::auto(),
        );
        let cells: Vec<Option<f64>> = row.iter().map(|(_, c)| c.map(|c| c.metrics.mrr)).collect();
        mrr.push_row(label, cells.clone());

        // Diagnostic: how wide do 1p arcs end up under each reading?
        let sampler = halk_logic::Sampler::new(&fb237.split.train);
        let mut rng = StdRng::seed_from_u64(scale.seed ^ 0xD2);
        let mut total = 0.0f64;
        let mut n = 0usize;
        for gq in sampler.sample_many(Structure::P1, 20, &mut rng) {
            for arc in &model.embed_query(&gq.query)[0] {
                total += arc.len as f64;
                n += 1;
            }
        }
        let avg_len = total / n.max(1) as f64;
        mean_len.push_row(label, vec![Some(avg_len)]);
        json_rows.push(json!({
            "mode": label,
            "mrr": cells,
            "mean_1p_arc_len": avg_len,
            "tail_loss": stats.tail_loss(),
            "truncated": truncated_structures(&row),
        }));
    }
    mrr.print();
    mean_len.print();
    if let Some(p) = save_json(
        "ablation_distance",
        &json!({ "scale": scale.name(), "rows": json_rows }),
    ) {
        eprintln!("results written to {}", p.display());
    }
    obs.finish();
}
