//! Table formatting and CSV output for the harness binaries.

use std::fmt::Write as _;
use std::path::Path;

/// Bytes → MB (the unit of the paper's memory figures).
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// A generic figure table: one row per runtime configuration, one numeric
/// column per density (or a single column for startup figures).
#[derive(Debug, Clone)]
pub struct Table {
    pub title: String,
    pub columns: Vec<String>,
    pub rows: Vec<TableRow>,
    /// Unit shown in the header ("MB/container", "s").
    pub unit: &'static str,
}

#[derive(Debug, Clone)]
pub struct TableRow {
    pub label: String,
    pub values: Vec<f64>,
    /// Highlighted ("our work's results are labeled in red").
    pub ours: bool,
}

impl Table {
    pub fn new(title: impl Into<String>, columns: Vec<String>, unit: &'static str) -> Table {
        Table { title: title.into(), columns, rows: Vec::new(), unit }
    }

    pub fn row(&mut self, label: impl Into<String>, values: Vec<f64>, ours: bool) {
        self.rows.push(TableRow { label: label.into(), values, ours });
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let _ = writeln!(out, "{}", "=".repeat(self.title.len()));
        let label_w = self.rows.iter().map(|r| r.label.len() + 2).chain([12]).max().unwrap_or(12);
        let _ = write!(out, "{:label_w$}", "runtime");
        // A column is as wide as its title plus a two-space gutter, 14 at
        // least, for the title and the values under it alike.
        let mut widths = Vec::with_capacity(self.columns.len());
        for c in &self.columns {
            // An empty unit means the columns name their own units.
            let header =
                if self.unit.is_empty() { c.clone() } else { format!("{c} [{}]", self.unit) };
            let w = (header.chars().count() + 2).max(14);
            let _ = write!(out, "{header:>w$}");
            widths.push(w);
        }
        let _ = writeln!(out);
        for r in &self.rows {
            let marker = if r.ours { "* " } else { "  " };
            let _ = write!(out, "{:label_w$}", format!("{marker}{}", r.label));
            for (i, v) in r.values.iter().enumerate() {
                let w = widths.get(i).copied().unwrap_or(14);
                let _ = write!(out, "{v:>w$.2}");
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "(* = our work: WAMR embedded in crun)");
        out
    }

    /// Write as CSV (for plotting).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "runtime");
        for c in &self.columns {
            let _ = write!(out, ",{c}");
        }
        let _ = writeln!(out, ",ours");
        for r in &self.rows {
            let _ = write!(out, "{}", r.label);
            for v in &r.values {
                let _ = write!(out, ",{v:.4}");
            }
            let _ = writeln!(out, ",{}", r.ours);
        }
        out
    }

    /// What every binary does with a finished table: print it, write the
    /// CSV beside the repo's other experiment outputs
    /// (`target/experiments/<name>.csv`), and say where it went — or, on
    /// stderr, why it could not be written.
    pub fn emit(&self, name: &str) {
        println!("{}", self.render());
        let dir = Path::new("target/experiments");
        let path = dir.join(format!("{name}.csv"));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, self.to_csv())) {
            Ok(()) => println!("CSV written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }

    /// Value lookup by row label (for assertions and claim checks).
    pub fn value(&self, label_contains: &str, col: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.label.contains(label_contains))
            .and_then(|r| r.values.get(col))
            .copied()
    }

    /// The highlighted row.
    pub fn ours(&self) -> Option<&TableRow> {
        self.rows.iter().find(|r| r.ours)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversion() {
        assert!((mb(10 << 20) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn render_and_csv() {
        let mut t = Table::new("Fig X", vec!["10".into(), "100".into()], "MB");
        t.row("crun-wamr (ours)", vec![5.5, 5.4], true);
        t.row("crun-wasmtime", vec![15.1, 15.0], false);
        let text = t.render();
        assert!(text.contains("* crun-wamr"));
        assert!(text.contains("15.10"));
        let csv = t.to_csv();
        assert!(csv.starts_with("runtime,10,100,ours"));
        assert!(csv.contains("crun-wasmtime,15.1000,15.0000,false"));
        assert_eq!(t.value("wamr", 1), Some(5.4));
        assert!(t.ours().unwrap().ours);
    }

    #[test]
    fn a_long_header_widens_its_own_column_only() {
        let mut t = Table::new("T", vec!["p99 ms".into(), "overload goodput rps".into()], "");
        t.row("crun-wamr", vec![1.5, 250.0], true);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        // 12-wide label column, a 14-wide column, then one sized to its
        // 20-character title plus the gutter.
        assert_eq!(
            lines[2],
            format!("{:12}{:>14}{:>22}", "runtime", "p99 ms", "overload goodput rps")
        );
        assert_eq!(lines[3], format!("{:12}{:>14}{:>22}", "* crun-wamr", "1.50", "250.00"));
    }
}
