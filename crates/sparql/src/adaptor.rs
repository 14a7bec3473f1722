//! The query Adaptor (§IV-F, Fig. 7b): graph patterns → the five logical
//! operators.
//!
//! The Adaptor turns a parsed SPARQL `SELECT` into a computation tree for
//! the target variable: joined triple patterns become projections feeding
//! intersections, `UNION` blocks become the union operator, `MINUS` becomes
//! difference, and `FILTER NOT EXISTS` becomes negation — exactly the
//! mapping the paper illustrates and the reason supporting all five
//! operators matters in practice.
//!
//! Supported shape: patterns must flow *towards* the target (each variable
//! is the object of its defining triples), and the join graph must be
//! acyclic — the computation-graph restriction of §II-A. The tree it builds
//! is capped at [`MAX_QUERY_NODES`] nodes and its DNF at
//! [`MAX_DNF_BRANCHES`] branches per sub-query.

use crate::parser::{Group, SelectQuery, Term, MAX_DNF_BRANCHES, MAX_QUERY_NODES};
use halk_kg::{EntityId, RelationId};
use halk_logic::Query;
use std::fmt;

/// Errors from the pattern → operator mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdaptError {
    /// A variable has no defining triple (it never appears as an object).
    UnboundVariable(String),
    /// The join graph contains a cycle through the named variable.
    CyclicPattern(String),
    /// A `MINUS` / `UNION` / `FILTER NOT EXISTS` block does not constrain
    /// the same variable it is attached to.
    BlockTargetMismatch(String),
    /// A triple uses an entity in object position (only variables flow).
    GroundObject,
    /// The computation tree would pass [`MAX_QUERY_NODES`] nodes.
    TooManyNodes,
    /// A sub-query expands to this many DNF branches (saturating), more
    /// than [`MAX_DNF_BRANCHES`].
    TooManyBranches(usize),
}

impl fmt::Display for AdaptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdaptError::UnboundVariable(v) => write!(f, "variable ?{v} has no defining triple"),
            AdaptError::CyclicPattern(v) => write!(f, "cyclic pattern through ?{v}"),
            AdaptError::BlockTargetMismatch(v) => {
                write!(
                    f,
                    "algebra block does not bind the attachment variable ?{v}"
                )
            }
            AdaptError::GroundObject => write!(f, "object positions must be variables"),
            AdaptError::TooManyNodes => {
                write!(f, "pattern expands past {MAX_QUERY_NODES} operator nodes")
            }
            AdaptError::TooManyBranches(n) => write!(
                f,
                "a sub-query expands to {n} DNF branches, more than {MAX_DNF_BRANCHES}"
            ),
        }
    }
}

impl std::error::Error for AdaptError {}

/// Maps a parsed query to a logical computation tree (the paper's Fig. 1b
/// artifact) rooted at the SELECT variable.
///
/// `MINUS` blocks subtract from the SELECT variable; `UNION` and
/// `FILTER NOT EXISTS` blocks attach to whichever variable their own
/// patterns bind (normally the target). Every block must bind the variable
/// it is checked against or the mapping fails, and so does a query past
/// [`MAX_QUERY_NODES`] or [`MAX_DNF_BRANCHES`].
pub fn adapt(q: &SelectQuery) -> Result<Query, AdaptError> {
    let scope = Scope::new(&q.where_clause);
    let mut nodes = 0;
    let positive = build_var(&scope, &q.target, &mut Vec::new(), &mut nodes)?;
    let query = if scope.minus.is_empty() {
        positive
    } else {
        charge(&mut nodes, 1)?;
        let mut parts = vec![positive];
        for m in &scope.minus {
            if !binds(m.group, &q.target) {
                return Err(AdaptError::BlockTargetMismatch(q.target.clone()));
            }
            parts.push(build_var(m, &q.target, &mut Vec::new(), &mut nodes)?);
        }
        Query::Difference(parts)
    };
    let mut widest = 0;
    dnf_branches(&query, &mut widest);
    if widest > MAX_DNF_BRANCHES {
        return Err(AdaptError::TooManyBranches(widest));
    }
    Ok(query)
}

/// A group with its defining triples sorted by the variable they define,
/// built once per group, so each [`build_var`] visit binary-searches to
/// its own variable's triples instead of scanning the group. Nested blocks
/// are indexed the same way.
struct Scope<'g> {
    group: &'g Group,
    /// `(var, subject, relation)` of every triple `subject relation ?var`
    /// up to the group's first triple with an entity object, sorted by
    /// variable and in pattern order within one.
    defs: Vec<(&'g str, &'g Term, u32)>,
    /// Whether some triple has an entity object, which fails every visit
    /// once the defining triples before it are built.
    ground: bool,
    unions: Vec<Vec<Scope<'g>>>,
    minus: Vec<Scope<'g>>,
    not_exists: Vec<Scope<'g>>,
}

impl<'g> Scope<'g> {
    fn new(group: &'g Group) -> Self {
        let mut defs = Vec::with_capacity(group.triples.len());
        let mut ground = false;
        for t in &group.triples {
            match &t.object {
                Term::Entity(_) => {
                    ground = true;
                    break;
                }
                Term::Var(v) => defs.push((v.as_str(), &t.subject, t.relation)),
            }
        }
        defs.sort_by_key(|&(v, _, _)| v); // stable: pattern order per variable
        let scopes = |groups: &'g [Group]| groups.iter().map(Scope::new).collect();
        Self {
            group,
            defs,
            ground,
            unions: group.unions.iter().map(|alts| scopes(alts)).collect(),
            minus: scopes(&group.minus),
            not_exists: scopes(&group.not_exists),
        }
    }
}

/// Counts `n` more tree nodes against [`MAX_QUERY_NODES`]. A node that
/// recurses is counted before it recurses, so no call runs past the cap.
fn charge(nodes: &mut usize, n: usize) -> Result<(), AdaptError> {
    *nodes += n;
    if *nodes > MAX_QUERY_NODES {
        Err(AdaptError::TooManyNodes)
    } else {
        Ok(())
    }
}

/// The number of DNF branches `q` compiles to, counted without expanding
/// (saturating); `widest` keeps the largest count of any sub-query. An
/// intersection multiplies its children's counts, a union adds them, a
/// difference keeps its minuend's, and a negation (De Morgan) is one
/// conjunction.
fn dnf_branches(q: &Query, widest: &mut usize) -> usize {
    let n = match q {
        Query::Anchor(_) => 1,
        Query::Projection { input, .. } => dnf_branches(input, widest),
        Query::Union(qs) => qs
            .iter()
            .fold(0usize, |n, q| n.saturating_add(dnf_branches(q, widest))),
        Query::Intersection(qs) => qs
            .iter()
            .fold(1usize, |n, q| n.saturating_mul(dnf_branches(q, widest))),
        Query::Difference(qs) => {
            for q in &qs[1..] {
                dnf_branches(q, widest);
            }
            dnf_branches(&qs[0], widest)
        }
        Query::Negation(inner) => {
            dnf_branches(inner, widest);
            1
        }
    };
    *widest = (*widest).max(n);
    n
}

/// Whether a group binds `var` (has a triple with `?var` in object
/// position, directly or in nested algebra blocks).
fn binds(group: &Group, var: &str) -> bool {
    group
        .triples
        .iter()
        .any(|t| matches!(&t.object, Term::Var(v) if v == var))
        || group.unions.iter().flatten().any(|g| binds(g, var))
        || group.minus.iter().any(|g| binds(g, var))
        || group.not_exists.iter().any(|g| binds(g, var))
}

/// Builds the computation tree for `var` within `scope`, counting its nodes
/// into `nodes`.
fn build_var<'g>(
    scope: &Scope<'g>,
    var: &'g str,
    in_progress: &mut Vec<&'g str>,
    nodes: &mut usize,
) -> Result<Query, AdaptError> {
    if in_progress.contains(&var) {
        return Err(AdaptError::CyclicPattern(var.to_string()));
    }
    in_progress.push(var);

    let result = (|| {
        // Defining triples: (subject, rel, ?var).
        let mut branches: Vec<Query> = Vec::new();
        let first = scope.defs.partition_point(|&(v, _, _)| v < var);
        for &(_, subj, rel) in scope.defs[first..].iter().take_while(|d| d.0 == var) {
            let rel = RelationId(rel);
            let q = match subj {
                Term::Entity(e) => {
                    charge(nodes, 2)?;
                    Query::atom(EntityId(*e), rel)
                }
                Term::Var(sv) => {
                    charge(nodes, 1)?;
                    build_var(scope, sv, in_progress, nodes)?.project(rel)
                }
            };
            branches.push(q);
        }
        if scope.ground {
            return Err(AdaptError::GroundObject);
        }

        // Algebra blocks that bind this variable.
        for alts in &scope.unions {
            if !alts.iter().any(|a| binds(a.group, var)) {
                continue;
            }
            charge(nodes, 1)?;
            let mut unioned = Vec::with_capacity(alts.len());
            for alt in alts {
                if !binds(alt.group, var) {
                    return Err(AdaptError::BlockTargetMismatch(var.to_string()));
                }
                unioned.push(build_var(alt, var, &mut Vec::new(), nodes)?);
            }
            branches.push(Query::Union(unioned));
        }
        for ne in &scope.not_exists {
            if !binds(ne.group, var) {
                continue;
            }
            charge(nodes, 1)?;
            let inner = build_var(ne, var, &mut Vec::new(), nodes)?;
            branches.push(inner.negate());
        }

        if branches.is_empty() {
            return Err(AdaptError::UnboundVariable(var.to_string()));
        }
        Ok(if branches.len() == 1 {
            branches.into_iter().next().expect("one branch")
        } else {
            charge(nodes, 1)?;
            Query::Intersection(branches)
        })
    })();

    in_progress.pop();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn adapt_str(s: &str) -> Result<Query, AdaptError> {
        adapt(&parse(s).expect("parses"))
    }

    #[test]
    fn single_triple_is_1p() {
        let q = adapt_str("SELECT ?x WHERE { e:3 r:1 ?x . }").unwrap();
        assert_eq!(q.render(), "P[r1](e3)");
    }

    #[test]
    fn chain_becomes_nested_projection() {
        let q = adapt_str("SELECT ?x WHERE { e:0 r:1 ?m . ?m r:2 ?x . }").unwrap();
        assert_eq!(q.render(), "P[r2](P[r1](e0))");
    }

    #[test]
    fn fig1_movie_query_shape() {
        // "Films directed by Oscar-winning American directors": two anchors
        // join on the director variable, then project to films (Fig. 1).
        let q = adapt_str("SELECT ?film WHERE { e:100 r:0 ?d . e:101 r:1 ?d . ?d r:2 ?film . }")
            .unwrap();
        assert_eq!(q.render(), "P[r2](I(P[r0](e100), P[r1](e101)))");
    }

    #[test]
    fn union_blocks_map_to_union() {
        let q = adapt_str("SELECT ?x WHERE { { e:1 r:0 ?x . } UNION { e:2 r:0 ?x . } }").unwrap();
        assert_eq!(q.render(), "U(P[r0](e1), P[r0](e2))");
    }

    #[test]
    fn minus_maps_to_difference() {
        let q = adapt_str("SELECT ?x WHERE { e:1 r:0 ?x . MINUS { e:2 r:1 ?x . } }").unwrap();
        assert_eq!(q.render(), "D(P[r0](e1), P[r1](e2))");
    }

    #[test]
    fn not_exists_maps_to_negation() {
        let q = adapt_str("SELECT ?x WHERE { e:1 r:0 ?x . FILTER NOT EXISTS { e:2 r:1 ?x . } }")
            .unwrap();
        assert_eq!(q.render(), "I(P[r0](e1), N(P[r1](e2)))");
    }

    #[test]
    fn all_five_operators_in_one_query() {
        let q = adapt_str(
            "SELECT ?x WHERE {
                ?d r:2 ?x .
                e:1 r:0 ?d .
                { e:3 r:3 ?x . } UNION { e:4 r:3 ?x . }
                MINUS { e:5 r:4 ?x . }
                FILTER NOT EXISTS { e:6 r:5 ?x . }
             }",
        )
        .unwrap();
        assert!(q.has_union() && q.has_difference() && q.has_negation());
        assert!(q.render().contains("P[r2](P[r0](e1))"));
    }

    #[test]
    fn unbound_variable_errors() {
        let err = adapt_str("SELECT ?x WHERE { ?y r:0 ?x . }").unwrap_err();
        assert_eq!(err, AdaptError::UnboundVariable("y".into()));
    }

    #[test]
    fn cyclic_pattern_errors() {
        let err = adapt_str("SELECT ?x WHERE { ?x r:0 ?y . ?y r:1 ?x . }").unwrap_err();
        assert!(matches!(err, AdaptError::CyclicPattern(_)));
    }

    #[test]
    fn ground_object_errors() {
        // Entities in object position are not part of the Adaptor's subset.
        let parsed = parse("SELECT ?x WHERE { ?x r:0 e:5 . }").unwrap();
        assert_eq!(adapt(&parsed).unwrap_err(), AdaptError::GroundObject);
    }

    #[test]
    fn block_must_bind_target() {
        let err = adapt_str("SELECT ?x WHERE { e:1 r:0 ?x . MINUS { e:2 r:1 ?z . } }").unwrap_err();
        assert!(matches!(err, AdaptError::BlockTargetMismatch(_)));
    }
}
