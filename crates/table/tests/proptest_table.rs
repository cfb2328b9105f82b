//! Property-based tests for the table data model.

use proptest::prelude::*;
use wtq_table::csv::{read_table, write_table, Delimiter};
use wtq_table::{KnowledgeBase, Table, TableBuilder, Value};

/// Strategy producing printable cell text without control characters.
fn cell_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~&&[^\"]]{0,12}").expect("valid regex")
}

/// Strategy producing arbitrary strings of Unicode scalar values.
fn any_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u32>(), 0..12).prop_map(|codes| {
        codes
            .into_iter()
            .filter_map(|code| char::from_u32(code % 0x11_0000))
            .collect()
    })
}

/// Strategy producing short strings over a mixed-case, partly non-ASCII
/// alphabet.
fn mixed_case_string() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[aAzZ_^éÉßſ0]{0,6}").expect("valid regex")
}

/// Strategy producing small tables (1–6 columns, 0–12 rows) of text cells.
fn table_strategy() -> impl Strategy<Value = Table> {
    (1usize..=6, 0usize..=12).prop_flat_map(|(cols, rows)| {
        let header: Vec<String> = (0..cols).map(|i| format!("Col{i}")).collect();
        proptest::collection::vec(proptest::collection::vec(cell_text(), cols), rows).prop_map(
            move |rows| {
                let mut builder = TableBuilder::new("prop").columns(header.clone());
                for row in &rows {
                    builder = builder.row_text(row).expect("arity matches");
                }
                builder.build().expect("non-empty header")
            },
        )
    })
}

proptest! {
    /// Value parsing never panics and display of the parsed value re-parses to
    /// an equal value (textual round-trip stability).
    #[test]
    fn value_parse_display_roundtrip(text in cell_text()) {
        let value = Value::parse(&text);
        let redisplayed = value.to_string();
        let reparsed = Value::parse(&redisplayed);
        prop_assert_eq!(value, reparsed);
    }

    /// Value ordering is a total order: antisymmetric and transitive on
    /// sampled triples.
    #[test]
    fn value_ordering_is_consistent(a in cell_text(), b in cell_text(), c in cell_text()) {
        let (a, b, c) = (Value::parse(&a), Value::parse(&b), Value::parse(&c));
        // Antisymmetry.
        if a < b {
            prop_assert!(b > a);
        }
        // Transitivity.
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
        // Equality implies equal ordering.
        if a == b {
            prop_assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        }
    }

    /// CSV round trip preserves the table shape and the displayed cell text.
    #[test]
    fn csv_roundtrip(table in table_strategy()) {
        for delim in [Delimiter::Comma, Delimiter::Tab] {
            let text = write_table(&table, delim);
            let parsed = read_table("prop", &text, delim);
            // Tables whose trailing rows are entirely empty lose those rows to
            // blank-line skipping; skip that corner.
            if table.record_indices().all(|r| {
                table.record_values(r).unwrap().iter().any(|v| !v.to_string().is_empty())
            }) {
                let parsed = parsed.expect("roundtrip parses");
                prop_assert_eq!(parsed.num_records(), table.num_records());
                prop_assert_eq!(parsed.num_columns(), table.num_columns());
                for r in table.record_indices() {
                    for c in 0..table.num_columns() {
                        let orig = table.value_at(r, c).unwrap();
                        let round = parsed.value_at(r, c).unwrap();
                        prop_assert_eq!(
                            Value::parse(&orig.to_string()),
                            round.clone(),
                            "cell ({}, {}) changed", r, c
                        );
                    }
                }
            }
        }
    }

    /// The KB inverted index agrees with a direct table scan for every
    /// (column, value) pair present in the table.
    #[test]
    fn kb_join_matches_scan(table in table_strategy()) {
        let kb = KnowledgeBase::new(&table);
        for column in 0..table.num_columns() {
            for value in table.distinct_column_values(column) {
                let via_kb = kb.join(column, &value).to_vec();
                // Oracle: a direct per-row scan over the accessor API.
                let via_scan: Vec<usize> = table
                    .record_indices()
                    .filter(|&r| table.eq_at(r, column, &value))
                    .collect();
                prop_assert_eq!(&via_kb, &via_scan);
                // The columnar kernel agrees with both.
                prop_assert_eq!(table.filter_eq(column, &value), via_scan);
            }
        }
    }

    /// Prev/next pointers are mutually inverse wherever both are defined.
    #[test]
    fn prev_next_inverse(table in table_strategy()) {
        for record in table.record_indices() {
            if let Some(next) = table.next_record(record) {
                prop_assert_eq!(table.prev_record(next), Some(record));
            }
            if let Some(prev) = table.prev_record(record) {
                prop_assert_eq!(table.next_record(prev), Some(record));
            }
        }
    }
}

proptest! {
    // Each case is cheap, and a wrong fold only shows on the rare pairs that
    // meet an upper-case letter at the deciding byte: run many.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// String values order exactly as their ASCII-lowercased text compares
    /// byte-wise, non-ASCII text included. Strings come both arbitrary and
    /// from a small mixed-case alphabet, so case-only differences, shared
    /// prefixes and multi-byte characters meet often. The alphabet holds
    /// `_` and `^`, which sit between `Z` and `a` in byte order, where
    /// comparing unfolded bytes would decide differently.
    #[test]
    fn string_order_is_the_lowercased_byte_order(
        (a, b) in prop_oneof![
            (any_string(), any_string()),
            (mixed_case_string(), mixed_case_string()),
        ]
    ) {
        let expected = a.to_ascii_lowercase().cmp(&b.to_ascii_lowercase());
        prop_assert_eq!(Value::Str(a).cmp(&Value::Str(b)), expected);
    }
}
