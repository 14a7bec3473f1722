//! SPARQL text inside an ASK frame is untrusted input. Parse and adapt
//! must never panic on it, whatever it holds, and any query that adapts
//! must stay inside the Adaptor's two caps: [`MAX_QUERY_NODES`] tree nodes
//! and [`MAX_DNF_BRANCHES`] DNF branches for every sub-query. The two
//! shapes that expand exponentially without those caps (a forking and
//! rejoining diamond, an intersection of many `UNION`s) fail fast with
//! their typed errors.

use halk_logic::plan::PlanShape;
use halk_logic::{to_dnf, Query};
use halk_sparql::parser::{MAX_DNF_BRANCHES, MAX_QUERY_NODES};
use halk_sparql::{sparql_to_query, AdaptError, SparqlError};
use proptest::prelude::*;
use std::time::{Duration, Instant};

const VARS: [&str; 5] = ["x", "a", "b", "c", "d"];

fn below(rng: &mut TestRng, n: usize) -> usize {
    rng.next_below(n as u64) as usize
}

fn var(rng: &mut TestRng) -> String {
    format!("?{}", VARS[below(rng, VARS.len())])
}

/// One triple over a small shared variable pool, so generated patterns
/// join, fork, rejoin and cycle. Half the objects are `?x`, the variable
/// most generated queries select, and most subjects are anchors.
fn triple(rng: &mut TestRng) -> String {
    let subject = match below(rng, 3) {
        0 => var(rng),
        _ => format!("e:{}", below(rng, 8)),
    };
    let object = match below(rng, 24) {
        0 => format!("e:{}", below(rng, 8)),
        1..=12 => "?x".to_string(),
        _ => var(rng),
    };
    format!("{subject} r:{} {object} ", below(rng, 4))
}

/// A group of triples and nested `UNION` / `MINUS` / `FILTER NOT EXISTS`
/// blocks, following the parser's grammar.
fn group(rng: &mut TestRng, depth: usize, out: &mut String) {
    out.push_str("{ ");
    for _ in 0..1 + below(rng, 4) {
        match below(rng, 10) {
            6 if depth < 4 => {
                group(rng, depth + 1, out);
                for _ in 0..1 + below(rng, 2) {
                    out.push_str("UNION ");
                    group(rng, depth + 1, out);
                }
            }
            7 if depth < 4 => {
                out.push_str("MINUS ");
                group(rng, depth + 1, out);
            }
            8 if depth < 4 => {
                out.push_str("FILTER NOT EXISTS ");
                group(rng, depth + 1, out);
            }
            _ => {
                out.push_str(&triple(rng));
                if below(rng, 2) == 0 {
                    out.push_str(". ");
                }
            }
        }
    }
    out.push_str("} ");
}

/// A grammatical query drawn from `seed`.
fn grammatical(seed: u64) -> String {
    let mut rng = TestRng::new(seed);
    let target = if below(&mut rng, 4) == 0 {
        var(&mut rng)
    } else {
        "?x".to_string()
    };
    let mut q = format!("SELECT {target} WHERE ");
    group(&mut rng, 1, &mut q);
    q
}

/// Whitespace-separated tokens in any order: the grammar's pieces without
/// its structure.
fn token_soup(seed: u64) -> String {
    let mut rng = TestRng::new(seed);
    let mut q = String::from("SELECT ?x WHERE { ");
    for _ in 0..below(&mut rng, 40) {
        match below(&mut rng, 8) {
            0 => q.push_str("{ "),
            1 => q.push_str("} "),
            2 => q.push_str("UNION "),
            3 => q.push_str("MINUS "),
            4 => q.push_str("FILTER NOT EXISTS "),
            5 => q.push_str(". "),
            _ => q.push_str(&triple(&mut rng)),
        }
    }
    if below(&mut rng, 2) == 0 {
        q.push('}');
    }
    q
}

/// `query` after a few byte flips, inserts and deletes, read back lossily,
/// so the text may carry non-ASCII characters anywhere.
fn mutate_bytes(query: &str, seed: u64) -> String {
    let mut rng = TestRng::new(seed);
    let mut bytes = query.as_bytes().to_vec();
    for _ in 0..1 + below(&mut rng, 4) {
        let at = below(&mut rng, bytes.len() + 1);
        match below(&mut rng, 3) {
            0 if at < bytes.len() => bytes[at] ^= 1 << below(&mut rng, 8),
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, rng.next_u64() as u8),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `query` with multi-byte characters spliced in after random bytes,
/// including inside variable names and keywords.
fn splice_unicode(query: &str, seed: u64) -> String {
    const CHARS: [char; 6] = ['é', 'µ', 'ª', 'ß', '\u{FFFD}', '字'];
    let mut rng = TestRng::new(seed);
    let mut out = String::new();
    for c in query.chars() {
        out.push(c);
        if below(&mut rng, 6) == 0 {
            out.push(CHARS[below(&mut rng, CHARS.len())]);
        }
    }
    out
}

/// Node count of `q` and the largest DNF branch count of any sub-query.
fn size(q: &Query) -> (usize, usize) {
    let children = match q {
        Query::Anchor(_) => &[],
        Query::Projection { input, .. } | Query::Negation(input) => std::slice::from_ref(&**input),
        Query::Intersection(qs) | Query::Union(qs) | Query::Difference(qs) => qs.as_slice(),
    };
    children
        .iter()
        .map(size)
        .fold((1, to_dnf(q).len()), |(n, w), (cn, cw)| (n + cn, w.max(cw)))
}

/// Parses and adapts `sparql`; whatever adapts must fit both caps, and
/// its compiled plan must have no more branches than the cap allows.
fn adapts_within_caps(sparql: &str) -> Result<(), TestCaseError> {
    if let Ok(q) = sparql_to_query(sparql) {
        let (nodes, widest) = size(&q);
        prop_assert!(nodes <= MAX_QUERY_NODES, "{sparql}");
        prop_assert!(widest <= MAX_DNF_BRANCHES, "{sparql}");
        prop_assert!(PlanShape::compile(&q).n_branches() <= MAX_DNF_BRANCHES);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn grammatical_queries_never_panic(seed in any::<u64>()) {
        adapts_within_caps(&grammatical(seed))?;
    }

    #[test]
    fn token_soup_never_panics(seed in any::<u64>()) {
        adapts_within_caps(&token_soup(seed))?;
    }

    #[test]
    fn byte_mutations_never_panic(seed in any::<u64>(), mutation in any::<u64>()) {
        adapts_within_caps(&mutate_bytes(&grammatical(seed), mutation))?;
    }

    #[test]
    fn spliced_unicode_never_panics(seed in any::<u64>(), splice in any::<u64>()) {
        adapts_within_caps(&splice_unicode(&grammatical(seed), splice))?;
    }
}

/// Some generated queries must actually adapt, or the suite above only
/// ever exercises error paths.
#[test]
fn the_grammar_reaches_the_adaptor() {
    let adapted = (0..512)
        .filter(|&seed| sparql_to_query(&grammatical(seed)).is_ok())
        .count();
    assert!(adapted >= 64, "{adapted} of 512 adapt");
}

/// `n` levels of `?v_i` forking into `?a_i` and `?b_i` and rejoining at
/// `?v_{i+1}`: 4n + 2 triples whose tree doubles per level.
fn diamond(levels: usize) -> String {
    let mut q = String::from("SELECT ?x WHERE { e:0 r:0 ?v0 . ");
    for i in 0..levels {
        let j = i + 1;
        q.push_str(&format!(
            "?v{i} r:0 ?a{i} . ?v{i} r:1 ?b{i} . ?a{i} r:0 ?v{j} . ?b{i} r:1 ?v{j} . "
        ));
    }
    q + &format!("?v{levels} r:0 ?x . }}")
}

/// An intersection on `?x` of `k` two-way `UNION` blocks: `2^k` branches.
fn union_bomb(k: usize) -> String {
    let mut q = String::from("SELECT ?x WHERE { ");
    for i in 0..k {
        q.push_str(&format!("{{ e:{i} r:0 ?x . }} UNION {{ e:{i} r:1 ?x . }} "));
    }
    q + "}"
}

/// Adapts `sparql`, asserting it returns well inside `limit`; uncapped,
/// the 22-level diamond alone would build a tree of ~2^22 nodes.
fn timed(sparql: &str, limit: Duration) -> Result<Query, SparqlError> {
    let t0 = Instant::now();
    let out = sparql_to_query(sparql);
    assert!(t0.elapsed() < limit, "took {:?}", t0.elapsed());
    out
}

#[test]
fn a_22_level_diamond_fails_fast_with_too_many_nodes() {
    let sparql = diamond(22);
    assert!(sparql.len() < 1_500);
    assert_eq!(
        timed(&sparql, Duration::from_secs(5)),
        Err(SparqlError::Adapt(AdaptError::TooManyNodes))
    );
}

#[test]
fn a_24_union_intersection_fails_fast_with_too_many_branches() {
    assert_eq!(
        timed(&union_bomb(24), Duration::from_secs(5)),
        Err(SparqlError::Adapt(AdaptError::TooManyBranches(1 << 24)))
    );
}

#[test]
fn small_diamonds_and_union_products_still_adapt() {
    // A diamond's tree doubles per level; the deepest one under the node
    // cap adapts and one level more does not.
    let fits = (1..)
        .take_while(|&n| sparql_to_query(&diamond(n)).is_ok())
        .last()
        .expect("a one-level diamond adapts");
    let (nodes, _) = size(&sparql_to_query(&diamond(fits)).unwrap());
    assert!(
        nodes <= MAX_QUERY_NODES && 2 * nodes > MAX_QUERY_NODES,
        "{fits} levels"
    );
    assert_eq!(
        sparql_to_query(&diamond(fits + 1)),
        Err(SparqlError::Adapt(AdaptError::TooManyNodes))
    );
    // 2^8 = MAX_DNF_BRANCHES branches adapt; 2^9 do not.
    assert_eq!(MAX_DNF_BRANCHES, 1 << 8);
    let q = sparql_to_query(&union_bomb(8)).unwrap();
    assert_eq!(PlanShape::compile(&q).n_branches(), MAX_DNF_BRANCHES);
    assert_eq!(
        sparql_to_query(&union_bomb(9)),
        Err(SparqlError::Adapt(AdaptError::TooManyBranches(1 << 9)))
    );
}

#[test]
fn a_wide_negated_union_is_capped_inside_the_negation() {
    // ¬(b ∪ c ∪ …) compiles to one branch, but its input still expands
    // every alternative: the cap counts every sub-query, not just the root.
    let mut q = String::from("SELECT ?x WHERE { e:0 r:0 ?x . FILTER NOT EXISTS { ");
    for i in 0..9 {
        q.push_str(&format!("{{ e:{i} r:0 ?x . }} UNION {{ e:{i} r:1 ?x . }} "));
    }
    q.push_str("} }");
    assert_eq!(
        sparql_to_query(&q),
        Err(SparqlError::Adapt(AdaptError::TooManyBranches(1 << 9)))
    );
}
