//! Wire-format compatibility suite for the columnar [`Table`] storage.
//!
//! The table stores each column as one dictionary of exact values (an id
//! per cell into the column's distinct values), but its serde encoding
//! must stay **byte-identical** to the legacy row-major format that
//! `#[derive(Serialize)]` produced when the struct stored
//! `rows: Vec<Vec<Value>>` — otherwise every stored dataset, bench fixture
//! and wire peer breaks. These properties pin that down:
//!
//! * the serialized JSON equals, byte for byte, a hand-built legacy
//!   encoding (`{"name": …, "columns": […], "rows": [[…]]}`) materialized
//!   row-major from the accessor API, and
//! * deserializing re-creates an equal table whose cells are bit-exact
//!   (including the empty-string nulls of numeric columns).

use proptest::prelude::*;
use wtq_table::{Table, TableBuilder, Value};

/// Serialize an already-built [`serde::Value`] tree as-is.
struct Raw(serde::Value);

impl serde::Serialize for Raw {
    fn to_value(&self) -> serde::Value {
        self.0.clone()
    }
}

/// Cell text spanning every kind of cell a column's dictionary holds:
/// repeated category strings, numbers and empties, full and year-only
/// dates, and free text, mixed within one column.
fn cell_text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("Greece".to_string()),
        Just("Athens".to_string()),
        Just(String::new()),
        (0i32..500).prop_map(|n| n.to_string()),
        (0u32..4000).prop_map(|n| format!("{}.{:02}", n / 100, n % 100)),
        (1900i32..2020).prop_map(|y| y.to_string()),
        (1900i32..2020).prop_map(|y| format!("June {}, {}", (y % 27) + 1, y)),
        proptest::string::string_regex("[ -~&&[^\"\\\\]]{0,10}").expect("valid regex"),
    ]
}

/// Random tables of mixed cells: 1–6 columns, 0–14 rows.
fn table_strategy() -> impl Strategy<Value = Table> {
    (1usize..=6, 0usize..=14).prop_flat_map(|(cols, rows)| {
        let header: Vec<String> = (0..cols).map(|i| format!("Col{i}")).collect();
        proptest::collection::vec(proptest::collection::vec(cell_text(), cols), rows).prop_map(
            move |rows| {
                let mut builder = TableBuilder::new("serde").columns(header.clone());
                for row in &rows {
                    builder = builder.row_text(row).expect("arity matches");
                }
                builder.build().expect("non-empty header")
            },
        )
    })
}

/// The legacy derive's encoding, built by hand from the accessor API:
/// a field map in declaration order with row-major cell values.
fn legacy_encoding(table: &Table) -> serde::Value {
    use serde::Serialize;
    let rows: Vec<Vec<Value>> = table
        .record_indices()
        .map(|r| table.record_values(r).expect("record in range"))
        .collect();
    serde::Value::Map(vec![
        ("name".to_string(), table.name().to_value()),
        ("columns".to_string(), table.columns().to_vec().to_value()),
        ("rows".to_string(), rows.to_value()),
    ])
}

proptest! {
    /// The columnar table serializes to exactly the bytes of the legacy
    /// row-major format.
    #[test]
    fn wire_format_is_byte_identical_to_legacy(table in table_strategy()) {
        let columnar = serde_json::to_string(&table).expect("table serializes");
        let legacy = serde_json::to_string(&Raw(legacy_encoding(&table)))
            .expect("legacy value serializes");
        prop_assert_eq!(columnar, legacy);
    }

    /// Round trip: deserializing the wire bytes rebuilds an equal table
    /// with bit-exact cells.
    #[test]
    fn wire_roundtrip_is_bit_exact(table in table_strategy()) {
        let json = serde_json::to_string(&table).expect("table serializes");
        let back: Table = serde_json::from_str(&json).expect("table parses");
        prop_assert_eq!(&back, &table);
        for r in table.record_indices() {
            let original = table.record_values(r).expect("in range");
            let reparsed = back.record_values(r).expect("in range");
            for (a, b) in original.iter().zip(&reparsed) {
                // `==` on Value tolerates close numerics; the wire format
                // must be stricter (bit-exact numbers, byte-exact strings).
                match (a, b) {
                    (Value::Num(x), Value::Num(y)) => {
                        prop_assert_eq!(x.to_bits(), y.to_bits())
                    }
                    (Value::Str(x), Value::Str(y)) => prop_assert_eq!(x, y),
                    (x, y) => prop_assert_eq!(x, y),
                }
            }
        }
        // Re-serializing produces the same bytes again (stable fixpoint).
        prop_assert_eq!(serde_json::to_string(&back).expect("serializes"), json);
    }
}
