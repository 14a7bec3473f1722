//! Table V: ablation study on the NELL stand-in.
//!
//! * Difference rows (2d 3d dp): HaLk vs **HaLk-V1** (NewLook-style
//!   raw-value overlap, no cardinality constraint).
//! * Negation rows (2in 3in pin): HaLk vs **HaLk-V2** (linear negation).
//! * Projection rows (1p 2p 3p): HaLk vs **HaLk-V3** (independent
//!   center/length learning, NewLook-style).
//!
//! Run with `cargo run --release -p halk-bench --bin exp_table5_ablation`.

use halk_bench::{save_json, truncated_structures, RunObs, Scale, Table};
use halk_core::eval::evaluate_table_pool;
use halk_core::{train_model, Ablation, HalkModel, Pool};
use halk_kg::Dataset;
use halk_logic::Structure;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;

fn main() {
    let mut obs = RunObs::init("table5_ablation");
    let scale = Scale::from_env();
    obs.scale(&scale);
    eprintln!(
        "Table V (ablations, NELL) at scale '{}' ({} steps)",
        scale.name(),
        scale.steps
    );
    let nell = Dataset::standard_suite(&mut StdRng::seed_from_u64(scale.seed))
        .into_iter()
        .find(|d| d.name == "NELL")
        .expect("NELL in the standard suite");

    let groups: [(&str, Ablation, Vec<Structure>); 3] = [
        (
            "Difference",
            Ablation::V1,
            vec![Structure::D2, Structure::D3, Structure::Dp],
        ),
        (
            "Negation",
            Ablation::V2,
            vec![Structure::In2, Structure::In3, Structure::Pin],
        ),
        (
            "Projection",
            Ablation::V3,
            vec![Structure::P1, Structure::P2, Structure::P3],
        ),
    ];

    // Train the full model once; each variant once.
    let train = |ablation: Ablation| -> HalkModel {
        let cfg = scale.model_config().with_ablation(ablation);
        let mut m = HalkModel::new(&nell.split.train, cfg);
        let stats = train_model(
            &mut m,
            &nell.split.train,
            &Structure::training(),
            &scale.train_config(),
        )
        .expect("training failed");
        eprintln!(
            "  trained HaLk{:?} in {:.1?} (tail loss {:.3})",
            ablation,
            stats.wall,
            stats.tail_loss()
        );
        m
    };
    let full = train(Ablation::None);

    let mut json_out = Vec::new();
    for (label, ablation, structures) in groups {
        let variant = train(ablation);
        let cols: Vec<&str> = structures.iter().map(|s| s.name()).collect();
        let mut hit3 = Table::new(format!("Table V — {label} (Hit@3 %)"), &cols).percentages();
        let mut mrr = Table::new(format!("Table V — {label} (MRR %)"), &cols).percentages();
        let mut truncated_out = Vec::new();
        for (name, model) in [
            (format!("HaLk-{ablation:?}"), &variant),
            ("HaLk".to_string(), &full),
        ] {
            let row = evaluate_table_pool(
                model,
                &nell.split,
                &structures,
                scale.eval_queries,
                scale.seed ^ 0x55,
                Pool::auto(),
            );
            hit3.push_row(
                name.clone(),
                row.iter()
                    .map(|(_, c)| c.map(|c| c.metrics.hits3))
                    .collect(),
            );
            mrr.push_row(
                name.clone(),
                row.iter().map(|(_, c)| c.map(|c| c.metrics.mrr)).collect(),
            );
            truncated_out.push(json!({
                "model": name,
                "structures": truncated_structures(&row),
            }));
        }
        hit3.print();
        mrr.print();
        json_out.push(json!({
            "group": label,
            "hit3": hit3.to_json(),
            "mrr": mrr.to_json(),
            "truncated": truncated_out,
        }));
    }
    if let Some(p) = save_json(
        "table5_ablation",
        &json!({ "scale": scale.name(), "results": json_out }),
    ) {
        eprintln!("results written to {}", p.display());
    }
    obs.finish();
}
