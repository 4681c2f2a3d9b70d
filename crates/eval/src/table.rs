//! Plain-text and CSV tables for the experiment harnesses.

/// A simple rectangular table with headers.
#[derive(Clone, Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// If the row width differs from the header width.
    pub fn push<S: Into<String>>(&mut self, row: impl IntoIterator<Item = S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned monospace table (also valid GitHub markdown).
    pub fn to_markdown(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let mut line = String::from("|");
            for i in 0..ncol {
                line.push_str(&format!(" {:width$} |", cells[i], width = widths[i]));
            }
            line.push('\n');
            line
        };
        let mut out = fmt_row(&self.headers);
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{:-<width$}|", "", width = w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }
}

/// Formats a float with `prec` decimals, trimming trailing zeros
/// (the paper's table style).
pub fn fnum(x: f64, prec: usize) -> String {
    let s = format!("{x:.prec$}");
    if s.contains('.') {
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_renders_aligned() {
        let mut t = Table::new(["com", "Tm", "Tp"]);
        t.push(["a", "0.087", "0.089"]);
        t.push(["b", "0.1", "0.2"]);
        let md = t.to_markdown();
        assert!(md.contains("| com | Tm    | Tp    |"));
        assert!(md.lines().count() == 4);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut t = Table::new(["a"]);
        t.push(["x", "y"]);
    }

    #[test]
    fn fnum_trims() {
        assert_eq!(fnum(2.500, 3), "2.5");
        assert_eq!(fnum(1.0, 2), "1");
        assert_eq!(fnum(0.0866, 3), "0.087");
    }
}
