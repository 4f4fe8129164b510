//! Report formatting shared by the subcommands: JSON string escaping
//! (no serde in the tree — see `DESIGN.md` §7 — so every JSON writer
//! escapes through [`json_escape`]) and the one fixed-width text table.

use std::fmt::Write as _;

/// Escapes `s` for inclusion inside a JSON string literal: quotes,
/// backslashes, and control characters per RFC 8259 §7.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A deterministic fixed-width text table: first column left-aligned,
/// the rest right-aligned, widths fitted to content.
///
/// The one table renderer for every subcommand (`trace --format
/// histograms`, `profile`) so their outputs stay visually consistent and
/// byte-stable for determinism diffs.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    left: Vec<usize>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            left: Vec::new(),
        }
    }

    /// Left-aligns column `i` as well (the first column always is).
    /// Useful for trailing free-text columns, whose width would otherwise
    /// pad every other row far to the right.
    pub fn align_left(mut self, i: usize) -> Self {
        self.left.push(i);
        self
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table with a dashed rule under the header.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.headers.len()])
            .max()
            .unwrap_or(0);
        let mut width = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = width[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, &w) in width.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    out.push_str("  ");
                }
                if i == 0 || self.left.contains(&i) {
                    let _ = write!(out, "{cell:<w$}");
                } else {
                    let _ = write!(out, "{cell:>w$}");
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&mut out, &self.headers);
        let rule: usize = width.iter().sum::<usize>() + 2 * cols.saturating_sub(1);
        let _ = writeln!(out, "{}", "-".repeat(rule));
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("line1\nline2\ttab"), "line1\\nline2\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn table_renders_aligned_and_stable() {
        let mut t = Table::new(&["state", "ns", "share"]);
        t.row(vec!["running_user".into(), "123".into(), "40.0%".into()]);
        t.row(vec!["idle".into(), "7".into(), "2.2%".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("state"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Numeric columns right-aligned: "123" and "7" end at same offset.
        let c1 = lines[2].rfind("123").unwrap() + 3;
        let c2 = lines[3].rfind('7').unwrap() + 1;
        assert_eq!(c1, c2);
        // No trailing whitespace anywhere (byte-stable diffs).
        assert!(r.lines().all(|l| l.trim_end() == l));
    }
}
