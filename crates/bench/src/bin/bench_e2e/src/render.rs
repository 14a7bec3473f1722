//! Query → SPARQL rendering, frozen for this benchmark.
//!
//! A private copy of `load_gen`'s renderer: the bytes this benchmark sends
//! must not change when `load_gen` does, or a parent and a change would
//! be measured on different requests. The rendering follows the Adaptor's
//! grammar backwards: projection chains become triples through fresh
//! intermediate variables, intersections become conjunctive patterns on
//! the same variable, `Union` becomes `{…} UNION {…}`, a root `Difference`
//! becomes `MINUS` on the SELECT variable, and `Negation` (or a nested
//! `Difference`) becomes `FILTER NOT EXISTS`.

use halk_logic::Query;

/// Renders a computation tree into the SPARQL subset the Adaptor accepts;
/// `None` for trees outside the subset (a bare anchor).
pub fn query_to_sparql(q: &Query) -> Option<String> {
    let mut body = String::new();
    let mut next_var = 0usize;
    if let Query::Difference(parts) = q {
        let (first, rest) = parts.split_first()?;
        render(first, "x", &mut body, &mut next_var)?;
        for part in rest {
            body.push_str("MINUS { ");
            render(part, "x", &mut body, &mut next_var)?;
            body.push_str("} ");
        }
    } else {
        render(q, "x", &mut body, &mut next_var)?;
    }
    Some(format!("SELECT ?x WHERE {{ {body}}}"))
}

fn render(q: &Query, var: &str, out: &mut String, next_var: &mut usize) -> Option<()> {
    match q {
        Query::Anchor(_) => None,
        Query::Projection { rel, input } => {
            match input.as_ref() {
                Query::Anchor(e) => out.push_str(&format!("e:{} r:{} ?{var} . ", e.0, rel.0)),
                other => {
                    let v = format!("v{}", *next_var);
                    *next_var += 1;
                    render(other, &v, out, next_var)?;
                    out.push_str(&format!("?{v} r:{} ?{var} . ", rel.0));
                }
            }
            Some(())
        }
        Query::Intersection(children) => {
            for child in children {
                match child {
                    Query::Negation(inner) => {
                        out.push_str("FILTER NOT EXISTS { ");
                        render(inner, var, out, next_var)?;
                        out.push_str("} ");
                    }
                    other => render(other, var, out, next_var)?,
                }
            }
            Some(())
        }
        Query::Union(children) => {
            for (i, child) in children.iter().enumerate() {
                if i > 0 {
                    out.push_str("UNION ");
                }
                out.push_str("{ ");
                render(child, var, out, next_var)?;
                out.push_str("} ");
            }
            Some(())
        }
        Query::Negation(inner) => {
            out.push_str("FILTER NOT EXISTS { ");
            render(inner, var, out, next_var)?;
            out.push_str("} ");
            Some(())
        }
        Query::Difference(parts) => {
            // a \ b ≡ a ∩ ¬b over the entity universe.
            let (first, rest) = parts.split_first()?;
            render(first, var, out, next_var)?;
            for part in rest {
                out.push_str("FILTER NOT EXISTS { ");
                render(part, var, out, next_var)?;
                out.push_str("} ");
            }
            Some(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halk_kg::{generate, SynthConfig};
    use halk_logic::plan::{execute_set, PlanBindings, PlanShape};
    use halk_logic::{Sampler, Structure};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every structure renders, and the rendered text adapts back to a
    /// query with identical exact answers.
    #[test]
    fn every_structure_round_trips_to_identical_exact_answers() {
        let g = generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(9));
        let sampler = Sampler::new(&g);
        let mut rng = StdRng::seed_from_u64(10);
        for s in Structure::all() {
            let mut rendered = 0;
            for _ in 0..8 {
                let Some(gq) = sampler.sample(s, &mut rng) else {
                    continue;
                };
                let sparql = query_to_sparql(&gq.query)
                    .unwrap_or_else(|| panic!("structure {} did not render", s.name()));
                let round = halk_sparql::sparql_to_query(&sparql)
                    .unwrap_or_else(|e| panic!("{}: {e}\n  {sparql}", s.name()));
                let answers = |q: &Query| {
                    execute_set(&PlanShape::compile(q), &PlanBindings::of(q), &g)
                        .iter()
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    answers(&round),
                    answers(&gq.query),
                    "{}: answers diverge\n  {sparql}",
                    s.name()
                );
                rendered += 1;
            }
            assert!(rendered > 0, "structure {} never sampled", s.name());
        }
    }
}
