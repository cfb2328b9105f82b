//! The explanation pipeline: question → candidates → explanations.
//!
//! This is the deployment path of Figure 2: the semantic parser produces
//! candidate queries, and for each candidate the system generates (1) a
//! detailed NL utterance, (2) provenance-based highlights over the table and
//! (3) the SQL form of the query. The explained candidates are what the
//! interface shows to a non-expert user for selection.

use wtq_dcs::{Answer, Evaluator, Formula};
use wtq_explain::utter;
use wtq_parser::Candidate;
use wtq_provenance::{render, sample_highlights, Highlights};
use wtq_sql::translate;
use wtq_table::Table;

/// One candidate query together with all of its explanations.
#[derive(Debug, Clone)]
pub struct ExplainedCandidate {
    /// The candidate lambda DCS formula.
    pub formula: Formula,
    /// The parser's score for the candidate.
    pub score: f64,
    /// The candidate's answer on the table.
    pub answer: Answer,
    /// The NL utterance explaining the query (§5.1).
    pub utterance: String,
    /// The SQL rendering of the query (Table 10), when the formula falls in
    /// the translatable fragment.
    pub sql: Option<String>,
    /// Provenance-based highlights (§5.2).
    pub highlights: Highlights,
}

impl ExplainedCandidate {
    /// Explain one parsed candidate: attach the utterance, the SQL rendering
    /// and the provenance highlights, computed on the session's `evaluator`
    /// (the table's index and the memo the parse just warmed). `None` when
    /// highlight computation fails (the candidate does not evaluate on the
    /// table).
    pub(crate) fn from_candidate(candidate: Candidate, evaluator: &Evaluator<'_>) -> Option<Self> {
        let highlights = Highlights::compute_with(&candidate.formula, evaluator).ok()?;
        Some(ExplainedCandidate {
            utterance: utter(&candidate.formula),
            sql: translate(&candidate.formula).ok().map(|q| q.to_sql()),
            highlights,
            formula: candidate.formula,
            score: candidate.score,
            answer: candidate.answer,
        })
    }

    /// Explain a handwritten formula (score 0, answer from evaluation on the
    /// session's `evaluator`).
    pub(crate) fn from_formula(
        formula: &Formula,
        evaluator: &Evaluator<'_>,
    ) -> wtq_dcs::Result<Self> {
        let denotation = evaluator.eval(formula)?;
        let highlights = Highlights::compute_with(formula, evaluator)?;
        Ok(ExplainedCandidate {
            utterance: utter(formula),
            sql: translate(formula).ok().map(|q| q.to_sql()),
            highlights,
            formula: formula.clone(),
            score: 0.0,
            answer: Answer::from_denotation(&denotation),
        })
    }

    /// Plain-text rendering of the highlighted table (optionally sampled to a
    /// few rows for large tables, §5.3).
    pub fn render_highlights(&self, table: &Table, sampled: bool) -> String {
        if sampled {
            sample_highlights(&self.formula, table, &self.highlights).render_text()
        } else {
            render::render_text(table, &self.highlights)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use wtq_dcs::parse_formula;
    use wtq_table::samples;

    #[test]
    fn explains_the_figure_one_question_end_to_end() {
        let engine = Engine::new();
        let table = samples::olympics();
        let explained =
            engine.explain_question("Greece held its last Olympics in what year?", &table, 7);
        assert!(!explained.is_empty());
        assert!(explained.len() <= 7);
        // The gold query is among the explained candidates, with utterance,
        // SQL and highlights attached.
        let gold = parse_formula("max(R[Year].Country.Greece)").unwrap();
        let gold_candidate = explained
            .iter()
            .find(|c| wtq_parser::formulas_equivalent(&c.formula, &gold))
            .expect("gold candidate explained");
        assert_eq!(
            gold_candidate.utterance,
            "maximum of values in column Year in rows where value of column Country is Greece"
        );
        assert!(gold_candidate
            .sql
            .as_deref()
            .unwrap_or("")
            .contains("MAX(Year)"));
        assert_eq!(gold_candidate.answer, Answer::number(2004.0));
        let rendering = gold_candidate.render_highlights(&table, false);
        assert!(rendering.contains("MAX(Year)"));
        assert!(rendering.contains("(Greece)"));
    }

    #[test]
    fn explain_formula_works_for_handwritten_queries() {
        let engine = Engine::new();
        let table = samples::medals();
        let formula = parse_formula("sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)").unwrap();
        let explained = engine.explain_formula(&formula, &table).unwrap();
        assert_eq!(explained.answer, Answer::number(110.0));
        assert!(explained
            .utterance
            .contains("difference in values of column Total"));
        let sampled = explained.render_highlights(&table, true);
        assert!(
            sampled.lines().count() <= 6,
            "sampled rendering too large:\n{sampled}"
        );
        // Errors propagate for formulas that do not evaluate.
        let bad = parse_formula("R[Missing].Nation.Fiji").unwrap();
        assert!(engine.explain_formula(&bad, &table).is_err());
    }

    #[test]
    fn candidates_are_ranked_by_score() {
        let engine = Engine::new();
        let table = samples::shipwrecks();
        let explained = engine.explain_question(
            "How many more ships were wrecked in Lake Huron than in Lake Erie?",
            &table,
            5,
        );
        for pair in explained.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }
}
