//! Figure 7: answering a SPARQL query end-to-end with the HaLk executor.
//!
//! A SPARQL query exercising all five operators is parsed, mapped by the
//! Adaptor onto a computation tree, and executed three ways: the exact
//! engine (ground truth), trained HaLk (ranked candidates), and the GFinder
//! matcher — demonstrating the executor integration of §IV-F.
//!
//! Run with `cargo run --release -p halk-bench --bin exp_fig7_sparql`.

use halk_bench::{save_json, RunObs, Scale};
use halk_core::{top_k_indices, train_model, HalkModel};
use halk_kg::Dataset;
use halk_logic::{answers, Structure};
use halk_matching::Matcher;
use halk_sparql::sparql_to_query;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;

fn main() {
    let mut obs = RunObs::init("fig7_sparql");
    let scale = Scale::from_env();
    obs.scale(&scale);
    eprintln!(
        "Fig. 7 (SPARQL executor, FB237) at scale '{}'",
        scale.name()
    );
    let fb237 = Dataset::standard_suite(&mut StdRng::seed_from_u64(scale.seed))
        .into_iter()
        .find(|d| d.name == "FB237")
        .expect("FB237 in the standard suite");
    let graph = &fb237.split.test;

    // Ground the SPARQL text in actual graph edges so it has answers:
    // pick a chain m -rb-> v and an extra edge h2 -r2-> v.
    let t = graph.triples()[10];
    let (m, rb, _v) = (t.h, t.r, t.t);
    let t2 = graph
        .triples()
        .iter()
        .find(|x| x.t == m && (x.h, x.r) != (m, rb))
        .copied()
        .unwrap_or(graph.triples()[0]);
    let sparql = format!(
        "SELECT ?x WHERE {{
            e:{a} r:{r1} ?d .
            ?d r:{r2} ?x .
            MINUS {{ e:{a} r:{r2} ?x . }}
         }}",
        a = t2.h.0,
        r1 = t2.r.0,
        r2 = rb.0,
    );
    println!("SPARQL query:\n{sparql}\n");

    let query = sparql_to_query(&sparql).expect("adaptor maps the query");
    println!("Adaptor output (computation tree): {}\n", query.render());

    // Exact engine.
    let truth = answers(&query, graph);
    println!(
        "Exact engine: {} answers: {:?}",
        truth.len(),
        truth.to_vec().iter().take(10).collect::<Vec<_>>()
    );

    // HaLk executor.
    let mut halk = HalkModel::new(&fb237.split.train, scale.model_config());
    train_model(
        &mut halk,
        &fb237.split.train,
        &Structure::training(),
        &scale.train_config(),
    )
    .expect("training failed");
    let scores = halk.score_all(&query);
    let top = top_k_indices(&scores, 10);
    println!("HaLk executor top-10: {top:?}");
    let hits = top
        .iter()
        .filter(|&&e| truth.contains(halk_kg::EntityId(e)))
        .count();
    println!("  ({hits}/10 are exact answers)");

    // GFinder executor.
    let matched = Matcher::new(&fb237.split.train).answer_entities(&query);
    println!(
        "GFinder executor: {} candidates, first 10: {:?}",
        matched.len(),
        matched.iter().take(10).map(|e| e.0).collect::<Vec<_>>()
    );

    if let Some(p) = save_json(
        "fig7_sparql",
        &json!({
            "sparql": sparql,
            "computation_tree": query.render(),
            "exact_answers": truth.to_vec().iter().map(|e| e.0).collect::<Vec<_>>(),
            "halk_top10": top,
            "halk_hits_in_top10": hits,
        }),
    ) {
        eprintln!("results written to {}", p.display());
    }
    obs.finish();
}
