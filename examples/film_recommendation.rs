//! The paper's motivating scenario (Fig. 1): *"What are the films directed
//! by Oscar-winning American directors?"* — built as an explicit
//! mini knowledge graph, expressed as a computation tree, and answered by
//! the exact engine, a trained HaLk model, and the subgraph matcher.
//!
//! ```sh
//! cargo run --release --example film_recommendation
//! ```

use halk::core::{top_k_indices, train_model, HalkConfig, HalkModel, TrainConfig};
use halk::kg::{EntityId, Graph, RelationId, Triple};
use halk::logic::{answers, Query, Structure};
use halk::matching::Matcher;

// Entity ids in the mini graph.
const OSCAR: u32 = 0;
const USA: u32 = 1;
const DIR_BORZAGE: u32 = 2; // Oscar winner, American
const DIR_LANG: u32 = 3; // not an Oscar winner (in this toy), not American
const DIR_WELLES: u32 = 4; // Oscar winner, not American (toy)
const FILM_7TH_HEAVEN: u32 = 5;
const FILM_METROPOLIS: u32 = 6;
const FILM_KANE: u32 = 7;
const N_ENTITIES: u32 = 16;

// Relations.
const WON: u32 = 0; // award -won_by-> director
const CITIZEN: u32 = 1; // country -citizen-> director
const DIRECTED: u32 = 2; // director -directed-> film

fn film_graph() -> Graph {
    let mut triples = vec![
        Triple::new(OSCAR, WON, DIR_BORZAGE),
        Triple::new(OSCAR, WON, DIR_WELLES),
        Triple::new(USA, CITIZEN, DIR_BORZAGE),
        Triple::new(DIR_BORZAGE, DIRECTED, FILM_7TH_HEAVEN),
        Triple::new(DIR_LANG, DIRECTED, FILM_METROPOLIS),
        Triple::new(DIR_WELLES, DIRECTED, FILM_KANE),
    ];
    // Background entities/edges so the embedding space has something to
    // separate (a realistic graph is never just the query's neighborhood).
    for i in 8..N_ENTITIES {
        triples.push(Triple::new(i, DIRECTED, (i + 3) % N_ENTITIES));
        triples.push(Triple::new(OSCAR, WON, (i + 1) % N_ENTITIES));
    }
    Graph::from_triples(N_ENTITIES as usize, 3, triples)
}

fn name(e: u32) -> &'static str {
    match e {
        OSCAR => "Oscar",
        USA => "USA",
        DIR_BORZAGE => "Frank Borzage",
        DIR_LANG => "Fritz Lang",
        DIR_WELLES => "Orson Welles",
        FILM_7TH_HEAVEN => "7th Heaven",
        FILM_METROPOLIS => "Metropolis",
        FILM_KANE => "Citizen Kane",
        _ => "(background)",
    }
}

fn main() {
    let g = film_graph();

    // Fig. 1b's computation graph:
    //   films( directed( won(Oscar) ∩ citizen(USA) ) )
    let query = Query::Intersection(vec![
        Query::atom(EntityId(OSCAR), RelationId(WON)),
        Query::atom(EntityId(USA), RelationId(CITIZEN)),
    ])
    .project(RelationId(DIRECTED));
    println!("computation graph: {}\n", query.render());

    // Exact engine (Fig. 1d's expected output).
    let exact = answers(&query, &g);
    println!("exact engine:");
    for e in exact.iter() {
        println!("  -> {} (e{})", name(e.0), e.0);
    }

    // HaLk executor: embed the query as an arc, rank entities by distance.
    let mut model = HalkModel::new(&g, HalkConfig::default());
    let tc = TrainConfig {
        steps: 1200,
        queries_per_structure: 64,
        ..TrainConfig::default()
    };
    train_model(
        &mut model,
        &g,
        &[Structure::P1, Structure::P2, Structure::I2, Structure::Ip],
        &tc,
    )
    .expect("training failed");
    let scores = model.score_all(&query);
    println!("\nHaLk executor (top 3 by arc distance):");
    for e in top_k_indices(&scores, 3) {
        let mark = if exact.contains(EntityId(e)) {
            "✓"
        } else {
            " "
        };
        println!(
            "  {mark} {} (e{e}, distance {:.3})",
            name(e),
            scores[e as usize]
        );
    }

    // GFinder-style matcher.
    let matches = Matcher::new(&g).answer(&query);
    println!("\nsubgraph matcher (best-effort):");
    for m in matches.iter().take(3) {
        println!("  {} (score {:.1})", name(m.entity.0), m.score);
    }
}
