//! Rendering of experiment results as the tables/series the paper reports.

use std::fmt::Write as _;

/// One plotted line: an algorithm's metric across the ε grid (or any other
/// x axis).
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (e.g. "CAPP").
    pub label: String,
    /// `(x, y)` pairs, e.g. `(ε, MSE)`.
    pub points: Vec<(f64, f64)>,
}

/// A figure panel: several series over a shared x axis, with a caption
/// matching the paper's subfigure title.
#[derive(Debug, Clone)]
pub struct SeriesTable {
    /// Subfigure caption, e.g. "C6H6, w = 10".
    pub caption: String,
    /// Name of the x axis (e.g. "ε" or "δ").
    pub x_label: String,
    /// Name of the metric (e.g. "MSE").
    pub y_label: String,
    /// The plotted series.
    pub series: Vec<Series>,
}

impl SeriesTable {
    /// Creates an empty panel.
    #[must_use]
    pub fn new(caption: &str, x_label: &str, y_label: &str) -> Self {
        Self {
            caption: caption.to_owned(),
            x_label: x_label.to_owned(),
            y_label: y_label.to_owned(),
            series: Vec::new(),
        }
    }

    /// Adds one series.
    pub fn push(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Renders a markdown table: one row per x value, one column per series.
    ///
    /// # Panics
    /// Panics if series have inconsistent x grids.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}", self.caption, self.y_label);
        if self.series.is_empty() {
            let _ = writeln!(out, "(no data)");
            return out;
        }
        let xs: Vec<f64> = self.series[0].points.iter().map(|p| p.0).collect();
        for s in &self.series {
            assert_eq!(
                s.points.len(),
                xs.len(),
                "series '{}' has a different x grid",
                s.label
            );
        }
        let _ = write!(out, "| {} |", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {} |", s.label);
        }
        let _ = writeln!(out);
        let _ = write!(out, "|---|");
        for _ in &self.series {
            let _ = write!(out, "---|");
        }
        let _ = writeln!(out);
        for (i, x) in xs.iter().enumerate() {
            let _ = write!(out, "| {x} |");
            for s in &self.series {
                let _ = write!(out, " {:.4e} |", s.points[i].1);
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Renders a whole artifact (list of panels) to markdown under a heading.
#[must_use]
pub fn render_artifact(title: &str, panels: &[SeriesTable]) -> String {
    let mut out = format!("## {title}\n\n");
    for p in panels {
        out.push_str(&p.to_markdown());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> SeriesTable {
        let mut t = SeriesTable::new("C6H6, w = 10", "ε", "MSE");
        t.push(Series {
            label: "A".into(),
            points: vec![(0.5, 0.2), (1.0, 0.1)],
        });
        t.push(Series {
            label: "B".into(),
            points: vec![(0.5, 0.3), (1.0, 0.05)],
        });
        t
    }

    #[test]
    fn markdown_contains_all_cells() {
        let md = sample_table().to_markdown();
        assert!(md.contains("| ε | A | B |"));
        assert!(md.contains("| 0.5 |"));
        assert!(md.contains("2.0000e-1"));
        assert!(md.contains("5.0000e-2"));
    }

    #[test]
    fn empty_table_renders_placeholder() {
        let t = SeriesTable::new("x", "ε", "MSE");
        assert!(t.to_markdown().contains("(no data)"));
    }

    #[test]
    #[should_panic(expected = "different x grid")]
    fn inconsistent_grids_panic() {
        let mut t = sample_table();
        t.push(Series {
            label: "C".into(),
            points: vec![(0.5, 0.1)],
        });
        let _ = t.to_markdown();
    }
}
