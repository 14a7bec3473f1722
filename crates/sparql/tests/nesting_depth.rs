//! One ASK frame must not be able to abort the daemon: group nesting and
//! the triple count are capped, so hostile depth or a long triple chain
//! comes back as a typed parse error (serve's `ERR bad_query`) even on a
//! thread with the default 2 MiB stack, the size serve's session threads
//! run with.

use halk_sparql::parser::MAX_TRIPLES;
use halk_sparql::{sparql_to_query, SparqlError};

/// Serve's frame limit (`halk_serve::MAX_FRAME`).
const MAX_FRAME: usize = 64 * 1024;

/// Parses and adapts `sparql` on a freshly spawned default-stack thread.
fn on_default_stack(sparql: String) -> Result<halk_logic::Query, SparqlError> {
    assert!(sparql.len() <= MAX_FRAME, "fits one frame");
    std::thread::spawn(move || sparql_to_query(&sparql))
        .join()
        .expect("the parser thread survives")
}

#[test]
fn thirty_thousand_nested_braces_are_a_parse_error() {
    let depth = 30_000;
    let sparql = format!("SELECT ?x WHERE {}{}", "{".repeat(depth), "}".repeat(depth));
    assert!(matches!(
        on_default_stack(sparql),
        Err(SparqlError::Parse(_))
    ));
}

#[test]
fn a_frame_sized_minus_chain_is_a_parse_error() {
    let mut sparql = String::from("SELECT ?x WHERE { e:0 r:0 ?x . ");
    let link = "MINUS { e:1 r:0 ?x . ";
    let levels = (MAX_FRAME - sparql.len() - 1) / (link.len() + 1);
    sparql.push_str(&link.repeat(levels));
    sparql.push_str(&"}".repeat(levels + 1));
    assert!(levels > 2_000, "{levels} levels");
    assert!(matches!(
        on_default_stack(sparql),
        Err(SparqlError::Parse(_))
    ));
}

/// `n` triples chained through fresh variables into `?x`:
/// `e:0 r:0 ?v0 . ?v0 r:0 ?v1 . … ?v{n-2} r:0 ?x .` — the Adaptor
/// recurses once per link and builds an `n`-deep projection chain.
fn triple_chain(n: usize) -> String {
    let mut sparql = String::from("SELECT ?x WHERE { e:0 r:0 ?v0 . ");
    for i in 1..n - 1 {
        sparql.push_str(&format!("?v{} r:0 ?v{i} . ", i - 1));
    }
    sparql.push_str(&format!("?v{} r:0 ?x . }}", n - 2));
    sparql
}

#[test]
fn a_frame_sized_triple_chain_is_a_parse_error() {
    // Grow the chain in steps of 100 links while it still fits one frame.
    let mut n = 3_000;
    while triple_chain(n + 100).len() <= MAX_FRAME {
        n += 100;
    }
    assert!(n > 3_000, "{n} triples");
    assert!(matches!(
        on_default_stack(triple_chain(n)),
        Err(SparqlError::Parse(_))
    ));
}

#[test]
fn a_max_triples_chain_adapts_on_a_default_stack() {
    let q = on_default_stack(triple_chain(MAX_TRIPLES)).expect("adapts");
    let mut depth = 0;
    let mut node = &q;
    while let halk_logic::Query::Projection { input, .. } = node {
        depth += 1;
        node = input;
    }
    assert_eq!(depth, MAX_TRIPLES);
    assert!(matches!(
        on_default_stack(triple_chain(MAX_TRIPLES + 1)),
        Err(SparqlError::Parse(_))
    ));
}
