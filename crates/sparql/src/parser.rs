//! Recursive-descent parser for the SPARQL subset.
//!
//! Grammar (informal):
//! ```text
//! query      := SELECT var WHERE group
//! group      := '{' item* '}'
//! item       := triple '.'?
//!             | group (UNION group)+
//!             | MINUS group
//!             | FILTER NOT EXISTS group
//! triple     := term relation term
//! term       := var | entity
//! ```
//!
//! `group` recurses once per nesting level, so nesting is capped at
//! [`MAX_GROUP_DEPTH`]: a frame of nothing but `{` fits well inside
//! serve's frame limit and would otherwise overflow a thread's stack.
//! The Adaptor recurses once per chained triple, and the `Query` it builds
//! nests as deep, so the triple count is capped too, at [`MAX_TRIPLES`],
//! before anything is adapted. The Adaptor itself enforces
//! [`MAX_QUERY_NODES`] and [`MAX_DNF_BRANCHES`] on what it builds.

use crate::lexer::{tokenize, LexError, Token};
use std::fmt;

/// Deepest group nesting the parser accepts (the `WHERE` group is depth
/// 1). The paper's structures nest only a few levels; deeper input is a
/// [`ParseError`], never a stack overflow.
pub const MAX_GROUP_DEPTH: usize = 64;

/// Most triple patterns one query may hold, over all its groups. The
/// paper's structures use at most a handful; a longer input is a
/// [`ParseError`], so a chain of triples can never drive the Adaptor's
/// per-triple recursion past a thread's stack.
pub const MAX_TRIPLES: usize = 256;

/// Most operator nodes the Adaptor may build for one query. It rebuilds a
/// variable's subtree at every use, so a pattern that forks and rejoins
/// (a diamond) doubles its tree per level; the Adaptor stops with an
/// [`AdaptError`](crate::AdaptError) as soon as its count passes this cap,
/// so its work is bounded by the cap, not by the tree it would have built.
/// A tree-shaped pattern needs at most a few nodes per triple.
pub const MAX_QUERY_NODES: usize = 16 * MAX_TRIPLES;

/// Most DNF branches any sub-query of an adapted query may expand to. An
/// intersection of `k` two-way `UNION`s expands to `2^k` branches at plan
/// compile time; the Adaptor counts branches bottom-up before any
/// expansion and rejects a wider query with an
/// [`AdaptError`](crate::AdaptError). One `UNION` with an alternative per
/// triple still fits.
pub const MAX_DNF_BRANCHES: usize = MAX_TRIPLES;

/// A subject/object position: variable or grounded entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// A named variable.
    Var(String),
    /// A grounded entity id.
    Entity(u32),
}

/// One triple pattern `subject relation object`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriplePattern {
    /// Subject term.
    pub subject: Term,
    /// Relation id.
    pub relation: u32,
    /// Object term.
    pub object: Term,
}

/// A group graph pattern: conjunctive triples plus nested algebra blocks.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Group {
    /// Conjunctive triple patterns.
    pub triples: Vec<TriplePattern>,
    /// `{g1} UNION {g2} UNION …` alternatives.
    pub unions: Vec<Vec<Group>>,
    /// `MINUS {g}` blocks.
    pub minus: Vec<Group>,
    /// `FILTER NOT EXISTS {g}` blocks.
    pub not_exists: Vec<Group>,
}

/// A parsed `SELECT` query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    /// The projected (answer) variable.
    pub target: String,
    /// The WHERE pattern.
    pub where_clause: Group,
}

/// Parse error with token index.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Index of the offending token (or token count at EOF).
    pub at: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at token {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            at: 0,
            message: e.to_string(),
        }
    }
}

/// Parses a SPARQL string into a [`SelectQuery`].
pub fn parse(input: &str) -> Result<SelectQuery, ParseError> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        triples: 0,
    };
    let q = p.query()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing tokens after query"));
    }
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Triple patterns parsed so far (checked against [`MAX_TRIPLES`]).
    triples: usize,
}

impl Parser {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: &Token, what: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(t) if &t == tok => Ok(()),
            _ => Err(ParseError {
                at: self.pos.saturating_sub(1),
                message: format!("expected {what}"),
            }),
        }
    }

    fn query(&mut self) -> Result<SelectQuery, ParseError> {
        self.expect(&Token::Select, "SELECT")?;
        let target = match self.next() {
            Some(Token::Var(v)) => v,
            _ => return Err(self.err("expected a variable after SELECT")),
        };
        self.expect(&Token::Where, "WHERE")?;
        let where_clause = self.group(1)?;
        Ok(SelectQuery {
            target,
            where_clause,
        })
    }

    /// Parses a group nested `depth` levels deep.
    fn group(&mut self, depth: usize) -> Result<Group, ParseError> {
        if depth > MAX_GROUP_DEPTH {
            return Err(self.err(&format!(
                "groups nested deeper than {MAX_GROUP_DEPTH} levels"
            )));
        }
        self.expect(&Token::LBrace, "'{'")?;
        let mut g = Group::default();
        loop {
            match self.peek() {
                Some(Token::RBrace) => {
                    self.pos += 1;
                    return Ok(g);
                }
                Some(Token::LBrace) => {
                    // A sub-group: only meaningful as part of a UNION chain.
                    let first = self.group(depth + 1)?;
                    let mut alts = vec![first];
                    while self.peek() == Some(&Token::Union) {
                        self.pos += 1;
                        alts.push(self.group(depth + 1)?);
                    }
                    if alts.len() < 2 {
                        return Err(self.err("bare sub-group without UNION"));
                    }
                    g.unions.push(alts);
                }
                Some(Token::Minus) => {
                    self.pos += 1;
                    g.minus.push(self.group(depth + 1)?);
                }
                Some(Token::Filter) => {
                    self.pos += 1;
                    self.expect(&Token::Not, "NOT after FILTER")?;
                    self.expect(&Token::Exists, "EXISTS after FILTER NOT")?;
                    g.not_exists.push(self.group(depth + 1)?);
                }
                Some(_) => {
                    if self.triples == MAX_TRIPLES {
                        return Err(self.err(&format!("more than {MAX_TRIPLES} triple patterns")));
                    }
                    self.triples += 1;
                    g.triples.push(self.triple()?);
                    // Optional dot separator.
                    if self.peek() == Some(&Token::Dot) {
                        self.pos += 1;
                    }
                }
                None => return Err(self.err("unterminated group (missing '}')")),
            }
        }
    }

    fn triple(&mut self) -> Result<TriplePattern, ParseError> {
        let subject = self.term()?;
        let relation = match self.next() {
            Some(Token::Relation(r)) => r,
            _ => return Err(self.err("expected relation (r:<id>) in triple")),
        };
        let object = self.term()?;
        Ok(TriplePattern {
            subject,
            relation,
            object,
        })
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        match self.next() {
            Some(Token::Var(v)) => Ok(Term::Var(v)),
            Some(Token::Entity(e)) => Ok(Term::Entity(e)),
            _ => Err(self.err("expected a variable or entity term")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let q = parse("SELECT ?x WHERE { e:3 r:1 ?x . }").unwrap();
        assert_eq!(q.target, "x");
        assert_eq!(q.where_clause.triples.len(), 1);
        assert_eq!(
            q.where_clause.triples[0],
            TriplePattern {
                subject: Term::Entity(3),
                relation: 1,
                object: Term::Var("x".into()),
            }
        );
    }

    #[test]
    fn parses_chain_and_join() {
        let q = parse("SELECT ?f WHERE { e:10 r:0 ?d . e:11 r:1 ?d . ?d r:2 ?f . }").unwrap();
        assert_eq!(q.where_clause.triples.len(), 3);
    }

    #[test]
    fn parses_union_blocks() {
        let q = parse("SELECT ?x WHERE { { e:1 r:0 ?x . } UNION { e:2 r:0 ?x . } }").unwrap();
        assert_eq!(q.where_clause.unions.len(), 1);
        assert_eq!(q.where_clause.unions[0].len(), 2);
    }

    #[test]
    fn parses_minus_and_not_exists() {
        let q = parse(
            "SELECT ?x WHERE { e:1 r:0 ?x . MINUS { e:2 r:1 ?x . } FILTER NOT EXISTS { e:3 r:2 ?x . } }",
        )
        .unwrap();
        assert_eq!(q.where_clause.minus.len(), 1);
        assert_eq!(q.where_clause.not_exists.len(), 1);
    }

    #[test]
    fn dot_is_optional() {
        let q = parse("SELECT ?x WHERE { e:1 r:0 ?x }").unwrap();
        assert_eq!(q.where_clause.triples.len(), 1);
    }

    #[test]
    fn errors_are_positioned() {
        assert!(parse("WHERE { }").is_err());
        assert!(parse("SELECT ?x WHERE { e:1 e:2 ?x }").is_err()); // entity in relation slot
        assert!(parse("SELECT ?x WHERE { e:1 r:0 ?x").is_err()); // unterminated
        assert!(parse("SELECT ?x WHERE { { e:1 r:0 ?x } }").is_err()); // bare subgroup
        assert!(parse("SELECT ?x WHERE { } trailing").is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_group_depth() {
        // A MINUS chain nested exactly MAX_GROUP_DEPTH deep still parses;
        // one level more is a positioned error, not a deeper recursion.
        let chain = |levels: usize| {
            let mut q = String::from("SELECT ?x WHERE { e:0 r:0 ?x . ");
            for _ in 1..levels {
                q.push_str("MINUS { e:1 r:0 ?x . ");
            }
            q + &"} ".repeat(levels)
        };
        assert!(parse(&chain(MAX_GROUP_DEPTH)).is_ok());
        let err = parse(&chain(MAX_GROUP_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
    }

    #[test]
    fn triple_count_is_capped_at_max_triples() {
        // Triples count across groups: MAX_TRIPLES in all parses, one more
        // is a positioned error wherever it sits.
        let query = |top: usize, in_minus: usize| {
            format!(
                "SELECT ?x WHERE {{ {}MINUS {{ {}}} }}",
                "e:0 r:0 ?x . ".repeat(top),
                "e:1 r:0 ?x . ".repeat(in_minus)
            )
        };
        assert!(parse(&query(MAX_TRIPLES - 1, 1)).is_ok());
        let err = parse(&query(MAX_TRIPLES - 1, 2)).unwrap_err();
        assert!(err.message.contains("triple patterns"), "{err}");
        assert!(parse(&query(MAX_TRIPLES, 1)).is_err());
    }

    #[test]
    fn nested_union_of_three() {
        let q =
            parse("SELECT ?x WHERE { { e:1 r:0 ?x } UNION { e:2 r:0 ?x } UNION { e:3 r:0 ?x } }")
                .unwrap();
        assert_eq!(q.where_clause.unions[0].len(), 3);
    }
}
