//! Tables III and IV: MRR and Hit@3 for the 4 negation structures
//! (2in 3in pni pin) on the three benchmark datasets, for the
//! negation-capable methods ConE / MLPMix / HaLk.
//!
//! Run with `cargo run --release -p halk-bench --bin exp_table3_4`.

use halk_bench::suite::{standard_datasets, train_suite, ModelKind};
use halk_bench::{save_json, truncated_structures, RunObs, Scale, Table};
use halk_core::eval::{evaluate_table_pool, row_average};
use halk_core::Pool;
use halk_logic::Structure;
use serde_json::json;

fn main() {
    let mut obs = RunObs::init("table3_4");
    let scale = Scale::from_env();
    obs.scale(&scale);
    eprintln!(
        "Tables III-IV at scale '{}' (dim {}, {} steps)",
        scale.name(),
        scale.dim,
        scale.steps
    );
    let structures = Structure::table34();
    let mut columns: Vec<&str> = structures.iter().map(|s| s.name()).collect();
    columns.push("AVG");

    let mut json_out = Vec::new();
    for dataset in standard_datasets(&scale) {
        eprintln!("dataset {}:", dataset.name);
        let suite = train_suite(&dataset.split, &scale, &ModelKind::negation_capable());

        let mut mrr_table = Table::new(
            format!("Table III (MRR %, negation) — {}", dataset.name),
            &columns,
        )
        .percentages();
        let mut hit3_table = Table::new(
            format!("Table IV (Hit@3 %, negation) — {}", dataset.name),
            &columns,
        )
        .percentages();

        let mut truncated_out = Vec::new();
        for trained in &suite {
            let row = evaluate_table_pool(
                trained.model.as_ref(),
                &dataset.split,
                &structures,
                scale.eval_queries,
                scale.seed ^ 0x34,
                Pool::auto(),
            );
            let mut mrr_cells: Vec<Option<f64>> =
                row.iter().map(|(_, c)| c.map(|c| c.metrics.mrr)).collect();
            let mut hit3_cells: Vec<Option<f64>> = row
                .iter()
                .map(|(_, c)| c.map(|c| c.metrics.hits3))
                .collect();
            mrr_cells.push(Some(row_average(&row, |m| m.mrr)));
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
        "table3_4",
        &json!({ "scale": scale.name(), "results": json_out }),
    ) {
        eprintln!("results written to {}", p.display());
    }
    obs.finish();
}
