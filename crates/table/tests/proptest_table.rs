//! Property-based tests for the table data model.

use proptest::prelude::*;
use wtq_table::csv::{read_table, write_table, Delimiter};
use wtq_table::{CellRef, Date, KnowledgeBase, Table, TableBuilder, Value};

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

/// Numbers `Value` equality blurs: both zeros, NaNs of two payloads, and
/// pairs within its 1e-9 relative tolerance.
fn numbers() -> Vec<f64> {
    vec![
        0.0,
        -0.0,
        f64::NAN,
        f64::from_bits(f64::NAN.to_bits() ^ 1),
        1.0,
        1.0 + 1e-12,
        2004.0,
        2004.0 * (1.0 + 1e-10),
        1983.0,
        -17.5,
        1e300,
    ]
}

/// Strings for `Value` equality to tell apart or fold: ASCII case variants
/// (folded), non-ASCII ones (not folded), the empty string and a numeric
/// text.
fn texts() -> Vec<&'static str> {
    vec!["Athens", "athens", "ATHENS", "", "Paris", "2004", "é", "É"]
}

/// Year-only dates equal to numbers of the pool, and dates of finer
/// precision that equal nothing else.
fn dates() -> Vec<Date> {
    vec![
        Date::year(2004),
        Date::year(1983),
        Date::year_month(1983, 10),
        Date::ymd(2004, 8, 13),
    ]
}

/// Every value of the three pools.
fn pool() -> Vec<Value> {
    let numbers = numbers().into_iter().map(Value::Num);
    let texts = texts().into_iter().map(Value::str);
    let dates = dates().into_iter().map(Value::Date);
    numbers.chain(texts).chain(dates).collect()
}

fn number_cell() -> impl Strategy<Value = Value> {
    (0..numbers().len()).prop_map(|i| Value::Num(numbers()[i]))
}

fn text_cell() -> impl Strategy<Value = Value> {
    (0..texts().len()).prop_map(|i| Value::str(texts()[i]))
}

fn date_cell() -> impl Strategy<Value = Value> {
    (0..dates().len()).prop_map(|i| Value::Date(dates()[i]))
}

/// One column of `rows` cells of one adversarial kind: numbers, strings,
/// dates beside numbers, or all three mixed.
fn adversarial_column(rows: usize) -> impl Strategy<Value = Vec<Value>> {
    prop_oneof![
        proptest::collection::vec(number_cell(), rows),
        proptest::collection::vec(text_cell(), rows),
        proptest::collection::vec(prop_oneof![date_cell(), number_cell()], rows),
        proptest::collection::vec(prop_oneof![number_cell(), text_cell(), date_cell()], rows),
    ]
}

/// 1–4 adversarial columns of 1–10 cells each.
fn adversarial_columns() -> impl Strategy<Value = Vec<Vec<Value>>> {
    (1usize..=4, 1usize..=10).prop_flat_map(|(columns, rows)| {
        proptest::collection::vec(adversarial_column(rows), columns)
    })
}

/// The table whose column `c` holds `columns[c]`.
fn build(columns: &[Vec<Value>]) -> Table {
    let mut builder =
        TableBuilder::new("adversarial").columns((0..columns.len()).map(|c| format!("C{c}")));
    for record in 0..columns[0].len() {
        let row = columns.iter().map(|cells| cells[record].clone()).collect();
        builder = builder.row(row).expect("arity matches");
    }
    builder.build().expect("non-empty header")
}

/// Whether two values are the same bits: strings by bytes, numbers by bits,
/// dates by field.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Date(x), Value::Date(y)) => x == y,
        _ => false,
    }
}

/// `value` with its bits changed but, where `Value` equality allows, its
/// meaning kept: the other zero, the neighbouring float (another payload
/// of a NaN) or the first ASCII letter in the other case.
fn bit_twin(value: &Value) -> Option<Value> {
    match value {
        Value::Num(n) if *n == 0.0 => Some(Value::Num(-n)),
        Value::Num(n) => Some(Value::Num(f64::from_bits(n.to_bits() ^ 1))),
        Value::Str(s) => {
            let at = s.find(|c: char| c.is_ascii_alphabetic())?;
            let mut bytes = s.clone().into_bytes();
            bytes[at] ^= 0x20;
            Some(Value::Str(
                String::from_utf8(bytes).expect("ASCII stays UTF-8"),
            ))
        }
        Value::Date(_) => None,
    }
}

proptest! {
    // Each case is cheap, and a blurred entry shows only when a column
    // holds two values `Value` equality confuses: run many.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every column is one dictionary of exact values, and the cell
    /// accessors keep `Value`'s semantics on columns built to blur them:
    /// `value_at` returns the same bits, `eq_at` is `Value` equality
    /// against needles from the column and from outside it, `number_at` is
    /// `as_number` by bits and `cell_text` is `to_string`. The content
    /// fingerprint is a function of the cells' bits: a rebuilt table has
    /// the same one, and changing one cell's bits alone changes it.
    #[test]
    fn one_dictionary_layout_keeps_value_semantics(
        (columns, pick) in (adversarial_columns(), 0usize..1000)
    ) {
        let table = build(&columns);
        let outside = pool();
        for (c, cells) in columns.iter().enumerate() {
            for (r, cell) in cells.iter().enumerate() {
                let stored = table.value_at(r, c).expect("in range");
                prop_assert!(same_bits(&stored, cell), "({r}, {c}): {stored:?} for {cell:?}");
                prop_assert_eq!(
                    table.number_at(r, c).map(f64::to_bits),
                    cell.as_number().map(f64::to_bits),
                    "number of ({}, {})", r, c
                );
                prop_assert_eq!(table.cell_text(CellRef::new(r, c)), cell.to_string());
                for needle in cells.iter().chain(&outside) {
                    prop_assert_eq!(
                        table.eq_at(r, c, needle),
                        cell == needle,
                        "({}, {}) = {:?} against {:?}", r, c, cell, needle
                    );
                }
            }
        }
        prop_assert_eq!(build(&columns).content_fingerprint(), table.content_fingerprint());
        let rows = columns[0].len();
        let (r, c) = (pick % rows, (pick / rows) % columns.len());
        if let Some(twin) = bit_twin(&columns[c][r]) {
            let mut changed = columns.clone();
            changed[c][r] = twin;
            prop_assert_ne!(build(&changed).content_fingerprint(), table.content_fingerprint());
        }
    }
}
