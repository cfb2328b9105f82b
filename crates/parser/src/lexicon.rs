//! Question analysis: tokenization and entity linking against the table.
//!
//! The floating-parser family of semantic parsers anchors candidate formulas
//! to *links* between question phrases and the table: cell values, column
//! headers and literal numbers. This module finds those links with greedy
//! longest-match n-gram lookup over the knowledge-base view of the table,
//! whose lookups the table index's shared text index answers.

use std::collections::HashSet;

use wtq_table::{KnowledgeBase, Table, Value};

/// A question phrase linked to a table value in a specific column.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueLink {
    /// Column the value occurs in.
    pub column: usize,
    /// The linked cell value.
    pub value: Value,
    /// The question phrase that produced the link.
    pub phrase: String,
}

/// Everything the candidate generator needs to know about a question.
#[derive(Debug, Clone)]
pub struct QuestionAnalysis {
    /// Lower-cased question tokens.
    pub tokens: Vec<String>,
    /// The raw question, lower-cased (for phrase-level trigger tests).
    pub lowered: String,
    /// Question phrases linked to table cell values.
    pub value_links: Vec<ValueLink>,
    /// Columns whose header text appears in the question.
    pub column_links: Vec<usize>,
    /// Literal numbers mentioned in the question.
    pub numbers: Vec<f64>,
}

impl QuestionAnalysis {
    /// Whether any of `words` occurs in the question (word or phrase level).
    pub fn mentions_any(&self, words: &[&str]) -> bool {
        words.iter().any(|w| {
            if w.contains(' ') {
                self.lowered.contains(w)
            } else {
                self.tokens.iter().any(|t| t == w)
            }
        })
    }

    /// Whether the question contains the given phrase.
    pub fn mentions(&self, phrase: &str) -> bool {
        self.mentions_any(&[phrase])
    }

    /// Value links grouped so that at most `limit` links are kept, preferring
    /// longer matched phrases (more specific links) first.
    pub fn top_value_links(&self, limit: usize) -> Vec<&ValueLink> {
        let mut links: Vec<&ValueLink> = self.value_links.iter().collect();
        links.sort_by_key(|link| std::cmp::Reverse(link.phrase.len()));
        links.truncate(limit);
        links
    }
}

/// Canonicalize a question for comparison and cache keying: lowercase,
/// collapse whitespace runs to single spaces, trim, and strip trailing
/// sentence punctuation (`?`, `!`, and `.` — except a `.` that follows a
/// digit, which [`tokenize`] treats as part of a decimal number).
///
/// This is the **single source of truth** for question identity: answer
/// caches key on `normalize_question(q)` and question analysis itself runs
/// on the normalized text, so two questions with equal normalizations are
/// *guaranteed* to produce identical analyses (and therefore identical
/// parses and answers) — the normalization cannot drift from parse-time
/// tokenization because parsing consumes its output. The function is
/// idempotent, and deliberately conservative: it never touches interior
/// punctuation, so `tokenize(normalize_question(q)) == tokenize(q)` holds
/// for every question.
pub fn normalize_question(question: &str) -> String {
    let mut out = String::with_capacity(question.len());
    let mut pending_space = false;
    for c in question.chars() {
        if c.is_whitespace() {
            pending_space = !out.is_empty();
        } else {
            if pending_space {
                out.push(' ');
                pending_space = false;
            }
            out.extend(c.to_lowercase());
        }
    }
    loop {
        let mut chars = out.chars().rev();
        let strip = match chars.next() {
            Some('?') | Some('!') | Some(' ') => true,
            Some('.') => !chars.next().is_some_and(|p| p.is_ascii_digit()),
            _ => false,
        };
        if !strip {
            break;
        }
        out.pop();
    }
    out
}

/// Tokenize a question: lowercase, split on whitespace and punctuation while
/// keeping decimal numbers and hyphenated words intact.
pub fn tokenize(question: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for c in question.chars() {
        let keep = c.is_alphanumeric()
            || c == '-'
            || (c == '.' && current.chars().all(|x| x.is_ascii_digit()) && !current.is_empty());
        if keep {
            current.extend(c.to_lowercase());
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

const STOP_WORDS: &[&str] = &[
    "the", "a", "an", "of", "in", "is", "are", "was", "were", "for", "to", "and", "or", "with",
    "do", "does", "did", "what", "which", "who", "whose", "when", "how", "many", "much", "that",
    "have", "has", "had", "than", "also", "row", "rows", "table", "column", "value", "values",
];

/// Analyze a question against a table: tokenization, entity links, column
/// links and numbers, over a [`KnowledgeBase`] view of the table's own
/// index; callers that already hold a view can use [`analyze_question_with`].
pub fn analyze_question(question: &str, table: &Table) -> QuestionAnalysis {
    analyze_question_with(question, &KnowledgeBase::new(table))
}

/// Analyze a question against an existing knowledge-base view (an
/// evaluator session's, for one).
pub fn analyze_question_with(question: &str, kb: &KnowledgeBase<'_>) -> QuestionAnalysis {
    let (lowered, tokens) = tokenize_stage(question);
    link_stage(lowered, tokens, kb)
}

/// The tokenize stage of question analysis: canonicalize and tokenize.
/// Split out so the parse pipeline can time it separately from linking.
pub(crate) fn tokenize_stage(question: &str) -> (String, Vec<String>) {
    // Analysis runs on the canonical question: tokenization is invariant
    // under normalization, and `lowered` becoming the normalized text is
    // what makes answers a function of the normalized question — the
    // property answer caches rely on.
    let lowered = normalize_question(question);
    let tokens = tokenize(&lowered);
    (lowered, tokens)
}

/// The entity-linking stage of question analysis: value links, column links
/// and literal numbers against the knowledge-base view.
pub(crate) fn link_stage(
    lowered: String,
    tokens: Vec<String>,
    kb: &KnowledgeBase<'_>,
) -> QuestionAnalysis {
    let table = kb.table();
    // Column links: a column is linked when its full lower-cased header
    // appears as a phrase in the question.
    let mut column_links = Vec::new();
    for column in 0..table.num_columns() {
        let header = table.column_name(column).to_lowercase();
        if !header.is_empty() && lowered.contains(&header) {
            column_links.push(column);
        }
    }

    // Value links: greedy longest-first n-gram matching (n = 4..1) against
    // the KB; a token consumed by a longer match is not reused for shorter
    // ones so "New Caledonia" does not also link "Caledonia".
    let mut value_links: Vec<ValueLink> = Vec::new();
    let mut consumed: HashSet<usize> = HashSet::new();
    for n in (1..=4usize).rev() {
        if n > tokens.len() {
            continue;
        }
        for start in 0..=(tokens.len() - n) {
            if (start..start + n).any(|i| consumed.contains(&i)) {
                continue;
            }
            let phrase = tokens[start..start + n].join(" ");
            if n == 1 && (STOP_WORDS.contains(&phrase.as_str()) || phrase.len() < 2) {
                continue;
            }
            let links = kb.link_text(&phrase);
            if links.is_empty() {
                continue;
            }
            for (column, value) in links {
                if !value_links
                    .iter()
                    .any(|l| l.column == column && l.value == value)
                {
                    value_links.push(ValueLink {
                        column,
                        value,
                        phrase: phrase.clone(),
                    });
                }
            }
            for i in start..start + n {
                consumed.insert(i);
            }
        }
    }

    // Partial links: an unconsumed content token that appears as a word
    // inside a cell value still links to it ("Erie" → "Lake Erie", matching
    // how the paper's Figure 9 question refers to the lake).
    for (i, token) in tokens.iter().enumerate() {
        if consumed.contains(&i) || token.len() < 3 || STOP_WORDS.contains(&token.as_str()) {
            continue;
        }
        if token.parse::<f64>().is_ok() {
            continue;
        }
        for (column, value) in kb.link_word(token) {
            if !value_links
                .iter()
                .any(|l| l.column == column && l.value == value)
            {
                value_links.push(ValueLink {
                    column,
                    value,
                    phrase: token.clone(),
                });
            }
        }
    }

    // Numbers mentioned literally in the question.
    let mut numbers: Vec<f64> = tokens
        .iter()
        .filter_map(|t| t.parse::<f64>().ok())
        .collect();
    numbers.dedup();

    QuestionAnalysis {
        tokens,
        lowered,
        value_links,
        column_links,
        numbers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtq_table::samples;

    #[test]
    fn tokenization_keeps_numbers_and_hyphens() {
        let tokens = tokenize("How many rows have a Rating of 7.5 in the USL A-League?");
        assert!(tokens.contains(&"7.5".to_string()));
        assert!(tokens.contains(&"a-league".to_string()));
        assert!(tokens.contains(&"how".to_string()));
        assert!(!tokens.iter().any(|t| t.contains('?')));
    }

    #[test]
    fn normalize_question_canonicalizes_and_is_idempotent() {
        assert_eq!(
            normalize_question("  Which   YEAR did Greece host?  "),
            "which year did greece host"
        );
        assert_eq!(normalize_question("How many games?!"), "how many games");
        assert_eq!(normalize_question("It ended."), "it ended");
        // A '.' after a digit is part of a decimal number, not punctuation.
        assert_eq!(normalize_question("costs 2."), "costs 2.");
        for q in ["Which year did Greece host?", "costs 2.", "", "   ", "a?!."] {
            let once = normalize_question(q);
            assert_eq!(normalize_question(&once), once, "idempotent on {q:?}");
        }
    }

    #[test]
    fn tokenize_is_invariant_under_normalization() {
        // The guarantee cache keys depend on: normalizing first never
        // changes what the tokenizer produces.
        for q in [
            "How many rows have a Rating of 7.5 in the USL A-League?",
            "  Which   YEAR did Greece host?  ",
            "costs 2.",
            "Was it Lake Huron, or Lake Erie?!",
            "what is -3.5 plus 2",
            "",
        ] {
            assert_eq!(tokenize(&normalize_question(q)), tokenize(q), "on {q:?}");
        }
    }

    #[test]
    fn variant_phrasings_share_an_analysis() {
        let table = samples::olympics();
        let a = analyze_question("Greece held its last Olympics in what year?", &table);
        let b = analyze_question("  greece held its LAST Olympics in what year  ", &table);
        assert_eq!(a.tokens, b.tokens);
        assert_eq!(a.lowered, b.lowered);
        assert_eq!(a.value_links, b.value_links);
        assert_eq!(a.column_links, b.column_links);
        assert_eq!(a.numbers, b.numbers);
    }

    #[test]
    fn figure_one_question_links() {
        let table = samples::olympics();
        let analysis = analyze_question("Greece held its last Olympics in what year?", &table);
        let country = table.column_index("Country").unwrap();
        assert!(analysis
            .value_links
            .iter()
            .any(|l| l.column == country && l.value == Value::str("Greece")));
        // The Year column header appears in the question.
        assert!(analysis
            .column_links
            .contains(&table.column_index("Year").unwrap()));
        assert!(analysis.mentions("last"));
        assert!(!analysis.mentions("difference"));
    }

    #[test]
    fn multiword_values_link_as_phrases() {
        let table = samples::shipwrecks();
        let analysis = analyze_question(
            "How many more ships were wrecked in Lake Huron than in Lake Erie?",
            &table,
        );
        let lake = table.column_index("Lake").unwrap();
        let linked: Vec<&str> = analysis
            .value_links
            .iter()
            .filter(|l| l.column == lake)
            .map(|l| l.phrase.as_str())
            .collect();
        assert!(linked.contains(&"lake huron"));
        assert!(linked.contains(&"lake erie"));
    }

    #[test]
    fn numbers_are_extracted() {
        let table = samples::squad();
        let analysis = analyze_question("How many players played more than 4 games?", &table);
        assert_eq!(analysis.numbers, vec![4.0]);
        assert!(analysis
            .column_links
            .contains(&table.column_index("Games").unwrap()));
    }

    #[test]
    fn stop_words_do_not_link() {
        let table = samples::usl_league();
        let analysis = analyze_question(
            "What was the last year the team was a part of the USL A-League?",
            &table,
        );
        // "a" must not link even though values contain the letter; the league
        // itself must link as a long phrase.
        let league = table.column_index("League").unwrap();
        assert!(analysis
            .value_links
            .iter()
            .any(|l| l.column == league && l.value == Value::str("USL A-League")));
        assert!(analysis.value_links.iter().all(|l| l.phrase.len() >= 2));
    }

    #[test]
    fn top_value_links_prefers_longer_phrases() {
        let table = samples::shipwrecks();
        let analysis =
            analyze_question("Was the Argus lost on Lake Huron or Lake Superior?", &table);
        let top = analysis.top_value_links(2);
        assert_eq!(top.len(), 2);
        assert!(top
            .iter()
            .all(|l| l.phrase.contains("lake") || l.phrase == "argus"));
    }

    #[test]
    fn mentions_any_supports_phrases() {
        let table = samples::olympics();
        let analysis = analyze_question("How many times did Athens host?", &table);
        assert!(analysis.mentions_any(&["how many", "number of"]));
        assert!(!analysis.mentions_any(&["difference", "more than"]));
    }
}
