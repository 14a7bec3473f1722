//! One ASK frame must not be able to abort the daemon: group nesting is
//! capped, so hostile depth comes back as a typed parse error (serve's
//! `ERR bad_query`) even on a thread with the default 2 MiB stack, the
//! size serve's session threads run with.

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
