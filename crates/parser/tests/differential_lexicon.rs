//! Differential suite for entity linking: the table index's text index must
//! link exactly like the scans it replaced, order included.
//!
//! The oracle keeps those scans verbatim: `KnowledgeBase::link_text` as
//! `Value::matches_text` over every distinct value of every column, sorted
//! by `(column, value)`, and the partial-link pass as a word-by-word test of
//! every distinct value's lowercased display text, column by column in
//! first-appearance order. Values are compared through their `Debug` form,
//! so a different representative of an equal value (`"Erie"` for
//! `"ERIE"`) fails too.

use std::collections::HashSet;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use wtq_dataset::tablegen::generate_table_with_rows;
use wtq_dataset::{all_domains, generate_questions, generate_table};
use wtq_parser::analyze_question_with;
use wtq_parser::lexicon::{normalize_question, tokenize, ValueLink};
use wtq_table::{Date, KnowledgeBase, Table, TableBuilder, Value};

/// The lexicon's stop words (`wtq_parser::lexicon`), which both passes skip.
const STOP_WORDS: &[&str] = &[
    "the", "a", "an", "of", "in", "is", "are", "was", "were", "for", "to", "and", "or", "with",
    "do", "does", "did", "what", "which", "who", "whose", "when", "how", "many", "much", "that",
    "have", "has", "had", "than", "also", "row", "rows", "table", "column", "value", "values",
];

/// Oracle for `KnowledgeBase::link_text`: every distinct value tested with
/// `Value::matches_text`.
fn scan_link_text(kb: &KnowledgeBase<'_>, text: &str) -> Vec<(usize, Value)> {
    let mut out = Vec::new();
    for column in 0..kb.index().num_columns() {
        for (value, _records) in kb.column(column).entries() {
            if value.matches_text(text) {
                out.push((column, value.clone()));
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    out
}

/// Oracle for the value links of `analyze_question_with`: the greedy n-gram
/// pass over [`scan_link_text`], then the partial-link scan.
fn scan_value_links(question: &str, kb: &KnowledgeBase<'_>) -> Vec<ValueLink> {
    let table = kb.table();
    let tokens = tokenize(&normalize_question(question));
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
            let links = scan_link_text(kb, &phrase);
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
    let distinct_per_column: Vec<Vec<Value>> = (0..table.num_columns())
        .map(|column| table.distinct_column_values(column))
        .collect();
    for (i, token) in tokens.iter().enumerate() {
        if consumed.contains(&i) || token.len() < 3 || STOP_WORDS.contains(&token.as_str()) {
            continue;
        }
        if token.parse::<f64>().is_ok() {
            continue;
        }
        for (column, distinct) in distinct_per_column.iter().enumerate() {
            for value in distinct {
                let text = value.to_string().to_lowercase();
                let is_word_inside = text != *token
                    && text
                        .split(|c: char| !c.is_alphanumeric())
                        .any(|word| word == token);
                if is_word_inside
                    && !value_links
                        .iter()
                        .any(|l| l.column == column && l.value == *value)
                {
                    value_links.push(ValueLink {
                        column,
                        value: value.clone(),
                        phrase: token.clone(),
                    });
                }
            }
        }
    }
    value_links
}

/// Phrases that exercise every matching rule: numbers in their decorated
/// forms, ISO and display-form dates, and a non-ASCII case pair that
/// `eq_ignore_ascii_case` keeps apart.
const FIXED_PHRASES: &[&str] = &[
    "1,000",
    "1000",
    "$5",
    "5%",
    "5",
    "12.50",
    "12.5",
    "-3.5",
    "2004",
    "2004-05-06",
    "2004/05/06",
    "May 6, 2004",
    "6 May 2004",
    "June 8, 2013",
    "2013-06-08",
    "October 1983",
    "1983-10",
    "ÉCOLE",
    "école",
    "École",
    "ECOLE",
    "école normale",
    "lake erie",
    "erie",
    "padded",
    "  padded  ",
    "athens",
    "",
    "   ",
];

/// `phrase` as typed, with flipped case and with surrounding whitespace.
fn variants(phrase: &str) -> [String; 4] {
    let title: String = phrase
        .split(' ')
        .map(|word| {
            let mut chars = word.chars();
            chars
                .next()
                .map(|first| first.to_uppercase().chain(chars).collect::<String>())
                .unwrap_or_default()
        })
        .collect::<Vec<_>>()
        .join(" ");
    [
        phrase.to_string(),
        phrase.to_uppercase(),
        title,
        format!(" \t{phrase}  "),
    ]
}

/// Every n-gram of `question`'s tokens, every distinct value's display
/// text (up to `values_per_column` per column) and the fixed phrases, each
/// in all its [`variants`].
fn phrases(table: &Table, questions: &[String], values_per_column: usize) -> Vec<String> {
    let mut base: Vec<String> = FIXED_PHRASES.iter().map(|p| p.to_string()).collect();
    for question in questions {
        let tokens = tokenize(&normalize_question(question));
        for n in 1..=tokens.len() {
            for window in tokens.windows(n) {
                base.push(window.join(" "));
            }
        }
    }
    for column in 0..table.num_columns() {
        for value in table
            .distinct_column_values(column)
            .into_iter()
            .take(values_per_column)
        {
            base.push(value.to_string());
        }
    }
    let mut seen = HashSet::new();
    base.iter()
        .flat_map(|phrase| variants(phrase))
        .filter(|phrase| seen.insert(phrase.clone()))
        .collect()
}

fn debug_forms<T: std::fmt::Debug>(links: &[T]) -> Vec<String> {
    links.iter().map(|link| format!("{link:?}")).collect()
}

/// Compare both lookups against the oracle on one table.
fn assert_links_match(table: &Table, questions: &[String], values_per_column: usize) {
    let kb = KnowledgeBase::new(table);
    for phrase in phrases(table, questions, values_per_column) {
        assert_eq!(
            debug_forms(&kb.link_text(&phrase)),
            debug_forms(&scan_link_text(&kb, &phrase)),
            "link_text({phrase:?}) on {}",
            table.name()
        );
    }
    for question in questions {
        assert_eq!(
            debug_forms(&analyze_question_with(question, &kb).value_links),
            debug_forms(&scan_value_links(question, &kb)),
            "value links of {question:?} on {}",
            table.name()
        );
    }
}

fn questions_about(table: &Table, count: usize, rng: &mut ChaCha8Rng) -> Vec<String> {
    generate_questions(table, count, rng)
        .into_iter()
        .map(|q| q.question)
        .collect()
}

#[test]
fn text_index_links_like_the_scan_on_wtq_size_tables() {
    let mut rng = ChaCha8Rng::seed_from_u64(20190416);
    for (t, domain) in all_domains().iter().enumerate() {
        let table = generate_table(domain, t, &mut rng);
        let questions = questions_about(&table, 8, &mut rng);
        assert_links_match(&table, &questions, usize::MAX);
    }
}

#[test]
fn text_index_links_like_the_scan_on_large_tables() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for (t, domain) in all_domains().iter().take(3).enumerate() {
        let rows = [256, 384, 512][t];
        let table = generate_table_with_rows(domain, t, rows, &mut rng);
        let questions = questions_about(&table, 4, &mut rng);
        assert_links_match(&table, &questions, 24);
    }
}

/// A hand-built table covering what generated tables lack: dates of every
/// precision, decorated numbers, empty cells, unparsed numeric-looking
/// strings, mixed columns, non-finite numbers, untrimmed strings, values
/// equal up to ASCII case, and the non-ASCII pair `ÉCOLE` / `école`.
#[test]
fn text_index_links_like_the_scan_on_edge_case_cells() {
    let s = Value::str;
    let rows: Vec<Vec<Value>> = vec![
        vec![
            s("ÉCOLE"),
            Value::parse("1,000"),
            Value::parse("2004-05-06"),
            s("2004"),
        ],
        vec![
            s("école"),
            Value::parse("$5"),
            Value::parse("June 8, 2013"),
            Value::num(2004.0),
        ],
        vec![
            s("École Normale"),
            Value::parse("5%"),
            Value::parse("October 1983"),
            Value::date(2004, 5, 6),
        ],
        vec![
            s("Lake Erie"),
            Value::parse("12.50"),
            Value::year(2004),
            s("Athens"),
        ],
        vec![
            s("LAKE ERIE"),
            Value::parse(""),
            Value::Date(Date::year_month(2004, 5)),
            Value::num(f64::INFINITY),
        ],
        vec![
            s("lake erie west"),
            Value::parse("-3.5"),
            Value::parse("6 May 2004"),
            Value::num(f64::NAN),
        ],
        vec![
            s("Erie"),
            Value::num(1000.0),
            Value::year(1983),
            s("ATHENS"),
        ],
        vec![
            s("  padded  "),
            Value::num(12.5),
            Value::parse("2013-06-08"),
            Value::parse("Lake Erie"),
        ],
    ];
    let mut builder = TableBuilder::new("edge_cases").columns(["Name", "Amount", "When", "Mixed"]);
    for row in rows {
        builder = builder.row(row).expect("row arity");
    }
    let table = builder.build().expect("table builds");
    let questions: Vec<String> = [
        "Which ÉCOLE has an Amount of 1,000?",
        "How many rows mention erie or west?",
        "When was the École Normale amount 12.50 on 2004-05-06?",
        "Was it Lake Erie in October 1983 or athens?",
        "What happened on June 8, 2013 at the école?",
        "Is padded normale a value of 5%?",
    ]
    .iter()
    .map(|q| q.to_string())
    .collect();
    assert_links_match(&table, &questions, usize::MAX);

    // Without `école` in the table, the token `école` links nothing
    // exactly, so the partial pass sees it — and must not link `ÉCOLE`,
    // whose lowercased text is the whole token rather than a word inside.
    let table = Table::from_rows(
        "ecoles",
        &["Name", "City"],
        &[vec!["ÉCOLE", "Paris"], vec!["ÉCOLE Centrale", "Lyon"]],
    )
    .expect("table builds");
    let questions = vec!["Which école is in Lyon?".to_string()];
    assert_links_match(&table, &questions, usize::MAX);
}
