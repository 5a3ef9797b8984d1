//! Aligned text tables and CSV output for experiment reports.

use std::fmt::Write as _;
use std::path::PathBuf;

/// A simple column-aligned table that renders to the terminal and to CSV.
///
/// # Examples
///
/// ```
/// use pif_bench::report::Table;
///
/// let mut t = Table::new("demo", &["topology", "rounds", "bound"]);
/// t.row(&["ring(8)", "24", "45"]);
/// let text = t.render();
/// assert!(text.contains("ring(8)"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.iter().map(ToString::to_string).collect());
        self
    }

    /// Appends one row of already-owned cells.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned monospace text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "{:<w$}  ", c, w = widths[i]);
            }
            s.trim_end().to_string()
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total.min(120)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// Prints the table to stdout and writes `target/experiments/<name>.csv`.
    pub fn emit(&self, name: &str) {
        println!("{}", self.render());
        let dir = PathBuf::from("target/experiments");
        if std::fs::create_dir_all(&dir).is_ok() {
            let path = dir.join(format!("{name}.csv"));
            if let Err(e) = std::fs::write(&path, self.to_csv()) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("[csv written to {}]\n", path.display());
            }
        }
    }
}

/// Summary statistics over a sample of `u64` measurements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stats {
    /// Sample size.
    pub n: usize,
    /// Minimum.
    pub min: u64,
    /// Maximum.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Stats {
    /// Computes statistics of a sample (zeros for an empty sample).
    pub fn of(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return Stats { n: 0, min: 0, max: 0, mean: 0.0 };
        }
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        Stats { n: samples.len(), min, max, mean }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("t", &["a", "long-header"]);
        t.row(&["xxxxx", "1"]);
        let r = t.render();
        assert!(r.contains("== t =="));
        assert!(r.contains("long-header"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("t", &["a"]);
        t.row(&["x,y"]);
        assert!(t.to_csv().contains("\"x,y\""));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn rejects_wrong_arity() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn stats_basics() {
        let s = Stats::of(&[1, 2, 3, 10]);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 10);
        assert_eq!(s.n, 4);
        assert!((s.mean - 4.0).abs() < 1e-9);
        assert_eq!(Stats::of(&[]).n, 0);
    }
}
