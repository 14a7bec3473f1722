//! Tokenizer for the SPARQL subset of the paper's application section
//! (§IV-F, Fig. 7).
//!
//! The subset covers what the query Adaptor maps onto the five logical
//! operators: `SELECT ?x WHERE { … }` with triple patterns, `UNION` blocks,
//! `MINUS` blocks and `FILTER NOT EXISTS` blocks. Entities are written
//! `e:<id>` and relations `r:<id>` (the numeric ids of the benchmark
//! graphs).

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// `SELECT` keyword.
    Select,
    /// `WHERE` keyword.
    Where,
    /// `UNION` keyword.
    Union,
    /// `MINUS` keyword.
    Minus,
    /// `FILTER` keyword.
    Filter,
    /// `NOT` keyword.
    Not,
    /// `EXISTS` keyword.
    Exists,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `.` triple terminator.
    Dot,
    /// A variable, e.g. `?film`.
    Var(String),
    /// An entity IRI `e:<id>`.
    Entity(u32),
    /// A relation IRI `r:<id>`.
    Relation(u32),
}

/// A lexing error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset of the offending character.
    pub pos: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes a SPARQL string.
pub fn tokenize(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '#' => {
                // Comment to end of line.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '{' => {
                tokens.push(Token::LBrace);
                i += 1;
            }
            '}' => {
                tokens.push(Token::RBrace);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '?' => {
                let start = i + 1;
                let j = word_end(input, start, false);
                if j == start {
                    return Err(LexError {
                        pos: i,
                        message: "empty variable name".into(),
                    });
                }
                tokens.push(Token::Var(input[start..j].to_string()));
                i = j;
            }
            _ if c.is_ascii_alphabetic() => {
                let start = i;
                let j = word_end(input, start, true);
                let word = &input[start..j];
                let tok = match word.to_ascii_uppercase().as_str() {
                    "SELECT" => Token::Select,
                    "WHERE" => Token::Where,
                    "UNION" => Token::Union,
                    "MINUS" => Token::Minus,
                    "FILTER" => Token::Filter,
                    "NOT" => Token::Not,
                    "EXISTS" => Token::Exists,
                    _ => {
                        if let Some(id) = word.strip_prefix("e:") {
                            Token::Entity(id.parse().map_err(|_| LexError {
                                pos: start,
                                message: format!("bad entity id in '{word}'"),
                            })?)
                        } else if let Some(id) = word.strip_prefix("r:") {
                            Token::Relation(id.parse().map_err(|_| LexError {
                                pos: start,
                                message: format!("bad relation id in '{word}'"),
                            })?)
                        } else {
                            return Err(LexError {
                                pos: start,
                                message: format!("unknown token '{word}'"),
                            });
                        }
                    }
                };
                tokens.push(tok);
                i = j;
            }
            _ => {
                let c = input[i..].chars().next().expect("i is a char boundary");
                return Err(LexError {
                    pos: i,
                    message: format!("unexpected character '{c}'"),
                });
            }
        }
    }
    Ok(tokens)
}

/// End of the name that starts at byte `from` (a char boundary): the run
/// of alphanumeric characters and `_`, plus `:` when `colon` is set.
/// Walks whole characters, so a multi-byte character never splits.
fn word_end(input: &str, from: usize, colon: bool) -> usize {
    input[from..]
        .char_indices()
        .find(|&(_, c)| !(c.is_alphanumeric() || c == '_' || colon && c == ':'))
        .map_or(input.len(), |(k, _)| from + k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_basic_query() {
        let toks = tokenize("SELECT ?x WHERE { e:3 r:1 ?x . }").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Select,
                Token::Var("x".into()),
                Token::Where,
                Token::LBrace,
                Token::Entity(3),
                Token::Relation(1),
                Token::Var("x".into()),
                Token::Dot,
                Token::RBrace,
            ]
        );
    }

    #[test]
    fn keywords_case_insensitive() {
        let toks = tokenize("select ?x where { } union minus filter not exists").unwrap();
        assert!(toks.contains(&Token::Union));
        assert!(toks.contains(&Token::Minus));
        assert!(toks.contains(&Token::Filter));
        assert!(toks.contains(&Token::Not));
        assert!(toks.contains(&Token::Exists));
    }

    #[test]
    fn comments_are_skipped() {
        let toks = tokenize("# a comment\nSELECT ?x # trailing\nWHERE { }").unwrap();
        assert_eq!(toks[0], Token::Select);
        assert_eq!(toks.len(), 5);
    }

    #[test]
    fn bad_tokens_error_with_position() {
        let err = tokenize("SELECT ?x WHERE @").unwrap_err();
        assert_eq!(err.pos, 16);
        let err2 = tokenize("SELECT ? WHERE").unwrap_err();
        assert!(err2.message.contains("variable"));
        let err3 = tokenize("e:notanumber").unwrap_err();
        assert!(err3.message.contains("entity"));
    }

    #[test]
    fn multibyte_characters_never_split() {
        // Names run over whole characters; a character that cannot start
        // a token is reported as itself.
        let toks = tokenize("?µé_1 ?x").unwrap();
        assert_eq!(toks[0], Token::Var("µé_1".into()));
        assert!(tokenize("SELéCT").unwrap_err().message.contains("SELéCT"));
        assert!(tokenize("?x 字").unwrap_err().message.contains('字'));
        assert!(tokenize("?\u{FFFD}")
            .unwrap_err()
            .message
            .contains("variable"));
    }

    #[test]
    fn underscored_variables() {
        let toks = tokenize("?long_name_1").unwrap();
        assert_eq!(toks, vec![Token::Var("long_name_1".into())]);
    }
}
