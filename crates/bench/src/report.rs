//! Plain-text table and bar rendering for the experiment binaries.

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..ncol {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = widths[i] - cells[i].len();
                // Right-align numbers, left-align first column.
                if i == 0 {
                    line.push_str(&cells[i]);
                    line.push_str(&" ".repeat(pad));
                } else {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(&cells[i]);
                }
            }
            line
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncol - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// A horizontal ASCII bar of `value` against `scale` (value mapped to at
/// most `width` characters). Used for the normalized Figures 6–9.
pub fn bar(value: f64, scale: f64, width: usize) -> String {
    // NaN fails every comparison, so test finiteness explicitly: a NaN or
    // infinite value/scale must render as empty, not panic or overflow.
    if !value.is_finite() || !scale.is_finite() || scale <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / scale) * width as f64).round() as usize;
    "#".repeat(n.min(width * 2)) // allow mild overshoot beyond the scale
}

/// The eight block glyphs a sparkline is built from, shortest first.
const SPARK_GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// A one-line sparkline of `values`, each mapped to one of eight block
/// glyphs scaled against the series maximum. Non-finite values render as
/// spaces; an all-zero (or empty) series renders as all-minimum glyphs,
/// so a flat idle series still has visible width. A single-sample series
/// is flat by construction (there is no shape to scale against), so it
/// also renders as the minimum glyph instead of a misleading full-height
/// block. Used by `tlbmap top`, `inspect` and the loadgen curve.
pub fn sparkline(values: &[f64]) -> String {
    // With fewer than two samples the series has no relative shape: every
    // finite value is simultaneously the minimum and the maximum.
    if values.len() < 2 {
        return values
            .iter()
            .map(|v| if v.is_finite() { SPARK_GLYPHS[0] } else { ' ' })
            .collect();
    }
    let max = values
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                ' '
            } else if max <= 0.0 || v <= 0.0 {
                SPARK_GLYPHS[0]
            } else {
                let idx = ((v / max) * 7.0).round() as usize;
                SPARK_GLYPHS[idx.min(7)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["app", "value"]);
        t.row(vec!["BT", "1.00"]);
        t.row(vec!["LONGNAME", "0.9"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("app"));
        assert!(lines[2].starts_with("BT"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        Table::new(vec!["a", "b"]).row(vec!["only one"]);
    }

    #[test]
    fn bars_scale() {
        assert_eq!(bar(1.0, 1.0, 10).len(), 10);
        assert_eq!(bar(0.5, 1.0, 10).len(), 5);
        assert_eq!(bar(0.0, 1.0, 10), "");
        // Overshoot is visible but capped.
        assert!(bar(5.0, 1.0, 10).len() <= 20);
    }

    #[test]
    fn bars_clamp_degenerate_inputs() {
        assert_eq!(bar(f64::NAN, 1.0, 10), "");
        assert_eq!(bar(1.0, f64::NAN, 10), "");
        assert_eq!(bar(-0.5, 1.0, 10), "");
        assert_eq!(bar(1.0, -1.0, 10), "");
        assert_eq!(bar(1.0, 0.0, 10), "");
        assert_eq!(bar(f64::INFINITY, 1.0, 10), "");
        assert_eq!(bar(1.0, f64::INFINITY, 10), "");
        assert_eq!(bar(f64::NEG_INFINITY, 1.0, 10), "");
    }

    #[test]
    fn sparklines_scale_to_the_series_max() {
        let s = sparkline(&[0.0, 1.0, 2.0, 4.0]);
        let glyphs: Vec<char> = s.chars().collect();
        assert_eq!(glyphs.len(), 4);
        assert_eq!(glyphs[0], '▁');
        assert_eq!(glyphs[3], '█');
        // Half the max lands mid-ladder, strictly between the extremes.
        assert!(glyphs[2] > glyphs[0] && glyphs[2] < glyphs[3]);
    }

    #[test]
    fn sparklines_survive_degenerate_series() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        assert_eq!(sparkline(&[f64::NAN, 1.0]), " █");
        assert_eq!(sparkline(&[f64::INFINITY, 1.0]), " █");
        assert_eq!(sparkline(&[-3.0, 6.0]), "▁█");
    }

    #[test]
    fn single_sample_sparklines_are_flat() {
        // One sample is its own max: rendering it '█' suggested a spike
        // where there is no shape at all. Flat bar instead.
        assert_eq!(sparkline(&[7.0]), "▁");
        assert_eq!(sparkline(&[0.0]), "▁");
        assert_eq!(sparkline(&[-2.0]), "▁");
        assert_eq!(sparkline(&[f64::NAN]), " ");
    }

    #[test]
    fn table_columns_align() {
        let mut t = Table::new(vec!["name", "count", "share"]);
        t.row(vec!["a", "1", "0.5"]);
        t.row(vec!["longer", "12345", "100.0"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        // Every line is equally wide (trailing pad on left-aligned col 0).
        let width = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == width), "ragged table:\n{r}");
        // Numeric columns are right-aligned: the short value ends where
        // the long one does.
        let col = |line: &str, s: &str| line.find(s).unwrap() + s.len();
        assert_eq!(col(lines[2], "1"), col(lines[3], "12345"));
        assert_eq!(col(lines[2], "0.5"), col(lines[3], "100.0"));
    }
}
