//! Minimal plain-text table rendering for experiment binaries.

/// A simple column-aligned table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Rows shorter than the header are padded with blanks.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        let mut row: Vec<String> = cells.to_vec();
        while row.len() < self.header.len() {
            row.push(String::new());
        }
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Render the table as a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Format a float with two decimal places (helper for experiment binaries).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_title_header_and_rows() {
        let mut t = Table::new("Demo", &["method", "savings"]);
        t.row(&["FirstFit".to_string(), "1.00".to_string()]);
        t.row(&["Adaptive Ranking".to_string(), "3.47".to_string()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("method"));
        assert!(s.contains("Adaptive Ranking"));
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new("x", &["a", "b", "c"]);
        t.row(&["only-one".to_string()]);
        assert_eq!(t.num_rows(), 1);
        assert!(t.render().contains("only-one"));
    }

    #[test]
    fn f2_formats_two_decimals() {
        assert_eq!(f2(3.17159), "3.17");
        assert_eq!(f2(-0.5), "-0.50");
    }
}
