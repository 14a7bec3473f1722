//! Table rendering and JSON persistence for the experiment binaries.
//!
//! Each binary prints the paper's row/column layout to stdout and writes the
//! same numbers as JSON under `results/` so EXPERIMENTS.md entries are
//! regenerable and diffable.

use halk_core::eval::EvalCell;
use halk_logic::Structure;
use serde_json::{json, Value};
use std::fmt::Write as _;
use std::path::PathBuf;

/// A simple fixed-layout table (rows of optional numeric cells; `None`
/// renders as the paper's "-" for unsupported operators).
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<Option<f64>>)>,
    /// Numbers are multiplied by this factor before printing (the paper's
    /// tables report percentages).
    display_factor: f64,
    /// Decimal places.
    precision: usize,
}

impl Table {
    /// Creates a table with the given title and column labels.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            display_factor: 1.0,
            precision: 1,
        }
    }

    /// Prints values as percentages (×100).
    pub fn percentages(mut self) -> Self {
        self.display_factor = 100.0;
        self
    }

    /// Sets decimal places.
    pub fn precision(mut self, p: usize) -> Self {
        self.precision = p;
        self
    }

    /// Appends one labeled row; cell count must match the column count.
    pub fn push_row(&mut self, label: impl Into<String>, cells: Vec<Option<f64>>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push((label.into(), cells));
    }

    /// Renders the table as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(8))
            .max()
            .unwrap_or(8);
        let cell_w = self
            .columns
            .iter()
            .map(|c| c.len().max(6))
            .collect::<Vec<_>>();
        let _ = writeln!(out, "== {} ==", self.title);
        let _ = write!(out, "{:label_w$}", "");
        for (c, w) in self.columns.iter().zip(&cell_w) {
            let _ = write!(out, "  {c:>w$}");
        }
        let _ = writeln!(out);
        for (label, cells) in &self.rows {
            let _ = write!(out, "{label:label_w$}");
            for (cell, w) in cells.iter().zip(&cell_w) {
                match cell {
                    Some(v) => {
                        let _ = write!(
                            out,
                            "  {:>w$.prec$}",
                            v * self.display_factor,
                            w = w,
                            prec = self.precision
                        );
                    }
                    None => {
                        let _ = write!(out, "  {:>w$}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// The table as a JSON value.
    pub fn to_json(&self) -> Value {
        json!({
            "title": self.title,
            "columns": self.columns,
            "rows": self.rows.iter().map(|(label, cells)| {
                json!({ "label": label, "cells": cells })
            }).collect::<Vec<_>>(),
        })
    }
}

/// Names of the structures in an `evaluate_table_pool` row whose attempt budget
/// ran out before the requested number of answerable queries was found
/// ([`EvalCell::truncated`]) — surfaced in each binary's JSON so downstream
/// readers know which cells averaged fewer queries than configured.
pub fn truncated_structures(row: &[(Structure, Option<EvalCell>)]) -> Vec<String> {
    row.iter()
        .filter(|(_, c)| c.is_some_and(|c| c.truncated))
        .map(|(s, _)| s.name().to_string())
        .collect()
}

/// Writes a JSON value to `results/<name>.json` (creating the directory),
/// returning the path. Failures are reported but non-fatal — the printed
/// table is the primary artifact.
pub fn save_json(name: &str, value: &Value) -> Option<PathBuf> {
    let dir = PathBuf::from("results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        halk_obs::log!(Warn, "cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                halk_obs::log!(Warn, "cannot write {}: {e}", path.display());
                return None;
            }
            Some(path)
        }
        Err(e) => {
            halk_obs::log!(Warn, "cannot serialize {name}: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_title_columns_and_dashes() {
        let mut t = Table::new("MRR results", &["1p", "2p"]).percentages();
        t.push_row("ConE", vec![Some(0.421), None]);
        t.push_row("HaLk", vec![Some(0.97), Some(0.639)]);
        let s = t.render();
        assert!(s.contains("MRR results"));
        assert!(s.contains("1p") && s.contains("2p"));
        assert!(s.contains("42.1"));
        assert!(s.contains('-'));
        assert!(s.contains("97.0"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row("r", vec![Some(1.0)]);
    }

    #[test]
    fn json_roundtrip_shape() {
        let mut t = Table::new("x", &["a"]);
        t.push_row("r", vec![Some(0.5)]);
        let j = t.to_json();
        assert_eq!(j["title"], "x");
        assert_eq!(j["rows"][0]["label"], "r");
        assert_eq!(j["rows"][0]["cells"][0], 0.5);
    }

    #[test]
    fn precision_control() {
        let mut t = Table::new("x", &["a"]).precision(3);
        t.push_row("r", vec![Some(0.12345)]);
        assert!(t.render().contains("0.123"));
    }
}
