//! Rendering of highlighted tables.
//!
//! Three renderers share the same highlight map:
//!
//! * [`render_text`] — a plain-text grid using markers (`[v]` colored,
//!   `(v)` framed, `*v*` lit), suitable for logs, tests and the experiments
//!   binary's figure gallery,
//! * [`render_ansi`] — ANSI-colored terminal output (colored cells on a green
//!   background, framed cells in bold yellow, lit cells dimmed),
//! * [`render_html`] — an HTML `<table>` with CSS classes, the form a web
//!   deployment like the paper's AMT interface would embed.

use wtq_table::{CellRef, Table};

use wtq_provenance::HighlightKind;

use super::highlight::Highlights;

fn text_cell(kind: HighlightKind, text: &str) -> String {
    match kind {
        HighlightKind::Colored => format!("[{text}]"),
        HighlightKind::Framed => format!("({text})"),
        HighlightKind::Lit => format!("*{text}*"),
        HighlightKind::None => text.to_string(),
    }
}

/// Render the highlighted table as a plain-text grid.
pub fn render_text(table: &Table, highlights: &Highlights) -> String {
    let headers: Vec<String> = (0..table.num_columns())
        .map(|column| highlights.header_label(table, column))
        .collect();
    let mut cells: Vec<Vec<String>> = Vec::with_capacity(table.num_records());
    for record in table.record_indices() {
        let row: Vec<String> = (0..table.num_columns())
            .map(|column| {
                let cell = CellRef::new(record, column);
                text_cell(highlights.kind(cell), &table.cell_text(cell))
            })
            .collect();
        cells.push(row);
    }
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in &cells {
        for (column, text) in row.iter().enumerate() {
            widths[column] = widths[column].max(text.len());
        }
    }
    let mut out = String::new();
    for (column, header) in headers.iter().enumerate() {
        out.push_str(&format!("{:<width$}  ", header, width = widths[column]));
    }
    out.push('\n');
    for row in &cells {
        for (column, text) in row.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", text, width = widths[column]));
        }
        out.push('\n');
    }
    out
}

/// Render the highlighted table with ANSI escape codes for terminals.
pub fn render_ansi(table: &Table, highlights: &Highlights) -> String {
    const RESET: &str = "\u{1b}[0m";
    const COLORED: &str = "\u{1b}[42;30m"; // green background
    const FRAMED: &str = "\u{1b}[1;33m"; // bold yellow
    const LIT: &str = "\u{1b}[36m"; // cyan
    let mut out = String::new();
    for column in 0..table.num_columns() {
        out.push_str(&format!("{:<18}", highlights.header_label(table, column)));
    }
    out.push('\n');
    for record in table.record_indices() {
        for column in 0..table.num_columns() {
            let cell = CellRef::new(record, column);
            let text = format!("{:<18}", table.cell_text(cell));
            match highlights.kind(cell) {
                HighlightKind::Colored => out.push_str(&format!("{COLORED}{text}{RESET}")),
                HighlightKind::Framed => out.push_str(&format!("{FRAMED}{text}{RESET}")),
                HighlightKind::Lit => out.push_str(&format!("{LIT}{text}{RESET}")),
                HighlightKind::None => out.push_str(&text),
            }
        }
        out.push('\n');
    }
    out
}

/// Render the highlighted table as an HTML `<table>` with one CSS class per
/// highlight level.
pub fn render_html(table: &Table, highlights: &Highlights) -> String {
    fn escape(text: &str) -> String {
        text.replace('&', "&amp;")
            .replace('<', "&lt;")
            .replace('>', "&gt;")
    }
    let mut out = String::from("<table class=\"wtq-highlights\">\n  <thead><tr>");
    for column in 0..table.num_columns() {
        out.push_str(&format!(
            "<th>{}</th>",
            escape(&highlights.header_label(table, column))
        ));
    }
    out.push_str("</tr></thead>\n  <tbody>\n");
    for record in table.record_indices() {
        out.push_str("    <tr>");
        for column in 0..table.num_columns() {
            let cell = CellRef::new(record, column);
            let class = match highlights.kind(cell) {
                HighlightKind::Colored => "colored",
                HighlightKind::Framed => "framed",
                HighlightKind::Lit => "lit",
                HighlightKind::None => "plain",
            };
            out.push_str(&format!(
                "<td class=\"{class}\">{}</td>",
                escape(&table.cell_text(cell))
            ));
        }
        out.push_str("</tr>\n");
    }
    out.push_str("  </tbody>\n</table>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtq_dcs::parse_formula;
    use wtq_table::samples;

    fn figure_six() -> (Table, Highlights) {
        let table = samples::medals();
        let highlights = Highlights::compute(
            &parse_formula("sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)").unwrap(),
            &table,
        )
        .unwrap();
        (table, highlights)
    }

    #[test]
    fn text_rendering_marks_all_three_levels() {
        let (table, highlights) = figure_six();
        let text = render_text(&table, &highlights);
        assert!(
            text.contains("[130]"),
            "colored output cell missing:\n{text}"
        );
        assert!(text.contains("[20]"));
        assert!(text.contains("(Fiji)"), "framed cell missing:\n{text}");
        assert!(text.contains("(Tonga)"));
        assert!(text.contains("*288*"), "lit cell missing:\n{text}");
        // Cells of unrelated columns (Gold) stay unmarked.
        assert!(text.contains("120"));
        assert!(!text.contains("*120*"));
        assert!(!text.contains("[120]"));
    }

    #[test]
    fn ansi_rendering_contains_escape_codes() {
        let (table, highlights) = figure_six();
        let ansi = render_ansi(&table, &highlights);
        assert!(ansi.contains("\u{1b}[42;30m"));
        assert!(ansi.contains("\u{1b}[0m"));
    }

    #[test]
    fn html_rendering_classes_and_escaping() {
        let (table, highlights) = figure_six();
        let html = render_html(&table, &highlights);
        assert!(html.contains("<td class=\"colored\">130</td>"));
        assert!(html.contains("<td class=\"framed\">Fiji</td>"));
        assert!(html.contains("<td class=\"lit\">288</td>"));
        assert!(html.contains("<th>Nation</th>"));
        // Escaping of special characters.
        let table = wtq_table::Table::from_rows("t", &["A"], &[vec!["a<b&c"]]).unwrap();
        let highlights = Highlights::compute(&parse_formula("R[A].Rows").unwrap(), &table).unwrap();
        let html = render_html(&table, &highlights);
        assert!(html.contains("a&lt;b&amp;c"));
    }

    #[test]
    fn headers_carry_aggregate_marks_in_all_renderers() {
        let table = samples::olympics();
        let highlights = Highlights::compute(
            &parse_formula("max(R[Year].Country.Greece)").unwrap(),
            &table,
        )
        .unwrap();
        for rendering in [
            render_text(&table, &highlights),
            render_ansi(&table, &highlights),
            render_html(&table, &highlights),
        ] {
            assert!(
                rendering.contains("MAX(Year)"),
                "missing header mark:\n{rendering}"
            );
        }
    }
}
