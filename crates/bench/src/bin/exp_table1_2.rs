//! Tables I and II: MRR and Hit@3 for the 12 non-negation query structures
//! on the three benchmark datasets, for ConE / NewLook / MLPMix / HaLk.
//!
//! Run with `cargo run --release -p halk-bench --bin exp_table1_2`;
//! scale via `HALK_SCALE=smoke|quick|standard|full`.

use halk_bench::suite::{standard_datasets, train_suite, ModelKind};
use halk_bench::{save_json, truncated_structures, RunObs, Scale, Table};
use halk_core::eval::{evaluate_table_pool, row_average};
use halk_core::Pool;
use halk_logic::Structure;
use serde_json::json;

fn main() {
    let mut obs = RunObs::init("table1_2");
    let scale = Scale::from_env();
    obs.scale(&scale);
    eprintln!(
        "Tables I-II at scale '{}' (dim {}, {} steps, {} eval queries/cell)",
        scale.name(),
        scale.dim,
        scale.steps,
        scale.eval_queries
    );
    let structures = Structure::table12();
    let mut columns: Vec<&str> = structures.iter().map(|s| s.name()).collect();
    columns.push("AVG");

    let mut json_out = Vec::new();
    for dataset in standard_datasets(&scale) {
        eprintln!("dataset {}:", dataset.name);
        let suite = obs.phase(&format!("train_{}", dataset.name), || {
            train_suite(&dataset.split, &scale, &ModelKind::all())
        });

        let mut mrr_table =
            Table::new(format!("Table I (MRR %) — {}", dataset.name), &columns).percentages();
        let mut hit3_table =
            Table::new(format!("Table II (Hit@3 %) — {}", dataset.name), &columns).percentages();

        let mut truncated_out = Vec::new();
        for trained in &suite {
            let row = obs.phase(&format!("eval_{}", dataset.name), || {
                evaluate_table_pool(
                    trained.model.as_ref(),
                    &dataset.split,
                    &structures,
                    scale.eval_queries,
                    scale.seed ^ 0x12,
                    Pool::auto(),
                )
            });
            let mut mrr_cells: Vec<Option<f64>> =
                row.iter().map(|(_, c)| c.map(|c| c.metrics.mrr)).collect();
            let mut hit3_cells: Vec<Option<f64>> = row
                .iter()
                .map(|(_, c)| c.map(|c| c.metrics.hits3))
                .collect();
            let mrr_avg = row_average(&row, |m| m.mrr);
            if trained.name() == "HaLk" {
                obs.metric(&format!("mrr_avg_{}", dataset.name), mrr_avg);
            }
            mrr_cells.push(Some(mrr_avg));
            hit3_cells.push(Some(row_average(&row, |m| m.hits3)));
            mrr_table.push_row(trained.name(), mrr_cells);
            hit3_table.push_row(trained.name(), hit3_cells);
            truncated_out.push(json!({
                "model": trained.name(),
                "structures": truncated_structures(&row),
            }));
        }
        mrr_table.print();
        hit3_table.print();
        json_out.push(json!({
            "dataset": dataset.name,
            "mrr": mrr_table.to_json(),
            "hit3": hit3_table.to_json(),
            // Cells whose attempt budget ran out before `eval_queries`
            // answerable queries were found — read these MRRs with care.
            "truncated": truncated_out,
        }));
    }
    if let Some(p) = save_json(
        "table1_2",
        &json!({ "scale": scale.name(), "results": json_out }),
    ) {
        eprintln!("results written to {}", p.display());
    }
    obs.finish();
}
