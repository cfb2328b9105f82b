//! The example tables used throughout the paper's figures.
//!
//! These small tables back the running examples (Figure 1), the highlight
//! figures (Figures 4–9) and the operator gallery (Figures 11–22). They are
//! used across the workspace in unit tests, integration tests, the examples
//! and the figure-regeneration section of the experiments binary.

use crate::table::Table;

/// Figure 1 / Figures 13–22: the Olympic games table
/// (`Year`, `Country`, `City`).
pub fn olympics() -> Table {
    Table::from_rows(
        "olympics",
        &["Year", "Country", "City"],
        &[
            vec!["1896", "Greece", "Athens"],
            vec!["1900", "France", "Paris"],
            vec!["1904", "USA", "St. Louis"],
            vec!["1908", "UK", "London"],
            vec!["2000", "Australia", "Sydney"],
            vec!["2004", "Greece", "Athens"],
            vec!["2008", "China", "Beijing"],
            vec!["2012", "UK", "London"],
            vec!["2016", "Brazil", "Rio de Janeiro"],
        ],
    )
    .expect("static sample table is well formed")
}

/// Figure 4 / Table 12: the national-squad table
/// (`Name`, `Position`, `Games`, `Club`).
pub fn squad() -> Table {
    Table::from_rows(
        "squad",
        &["Name", "Position", "Games", "Club"],
        &[
            vec!["Erich Burgener", "GK", "3", "Servette"],
            vec!["Roger Berbig", "GK", "3", "Grasshoppers"],
            vec!["Charly In-Albon", "DF", "4", "Grasshoppers"],
            vec!["Beat Rietmann", "DF", "2", "FC St. Gallen"],
            vec!["Andy Egli", "DF", "6", "Grasshoppers"],
            vec!["Marcel Koller", "DF", "2", "Grasshoppers"],
            vec!["Rene Botteron", "MF", "1", "FC Nuremburg"],
            vec!["Heinz Hermann", "MF", "6", "Grasshoppers"],
            vec!["Roger Wehrli", "MF", "6", "Grasshoppers"],
            vec!["Lucien Favre", "MF", "5", "Toulouse Servette"],
        ],
    )
    .expect("static sample table is well formed")
}

/// Figure 6 / Table 17: the Pacific Games medal table
/// (`Rank`, `Nation`, `Gold`, `Silver`, `Bronze`, `Total`).
pub fn medals() -> Table {
    Table::from_rows(
        "medals",
        &["Rank", "Nation", "Gold", "Silver", "Bronze", "Total"],
        &[
            vec!["1", "New Caledonia", "120", "107", "61", "288"],
            vec!["2", "Tahiti", "60", "42", "42", "144"],
            vec!["3", "Papua New Guinea", "48", "25", "48", "121"],
            vec!["4", "Fiji", "33", "44", "53", "130"],
            vec!["5", "Samoa", "22", "17", "34", "73"],
            vec!["6", "Nauru", "8", "10", "10", "28"],
            vec!["7", "Tonga", "4", "6", "10", "20"],
            vec!["8", "Cook Islands", "3", "5", "9", "17"],
        ],
    )
    .expect("static sample table is well formed")
}

/// Figure 7: the growth-rate table sampled from a large public table
/// (`Row`, `Country`, `Year`, `Growth Rate`).
pub fn growth_rate() -> Table {
    Table::from_rows(
        "growth_rate",
        &["Row", "Country", "Year", "Growth Rate"],
        &[
            vec!["14260", "Madagascar", "1980", "2.731"],
            vec!["14262", "Madagascar", "1981", "2.752"],
            vec!["14264", "Madagascar", "1982", "2.801"],
            vec!["14266", "Madagascar", "1986", "2.945"],
            vec!["14268", "Madagascar", "1984", "2.812"],
            vec!["14270", "Madagascar", "1983", "2.877"],
            vec!["14300", "Madagascar", "1991", "3.001"],
            vec!["14452", "Burkina Faso", "2010", "3.012"],
            vec!["14454", "Burkina Faso", "2011", "3.085"],
            vec!["14456", "Burkina Faso", "2012", "3.101"],
        ],
    )
    .expect("static sample table is well formed")
}

/// Figure 8: the USL soccer-team history table
/// (`Year`, `League`, `Attendance`, `Open Cup`).
pub fn usl_league() -> Table {
    Table::from_rows(
        "usl_league",
        &["Year", "League", "Attendance", "Open Cup"],
        &[
            vec!["2002", "USL A-League", "6260", "Did not qualify"],
            vec!["2003", "USL A-League", "5871", "Did not qualify"],
            vec!["2004", "USL A-League", "5628", "4th Round"],
            vec!["2005", "USL First Division", "6028", "4th Round"],
            vec!["2006", "USL First Division", "5575", "3rd Round"],
            vec!["2007", "USL First Division", "6851", "2nd Round"],
            vec!["2008", "USL First Division", "8567", "1st Round"],
        ],
    )
    .expect("static sample table is well formed")
}

/// Figure 9: the Great Lakes shipwreck table
/// (`Ship`, `Vessel`, `Lake`, `Lives lost`).
pub fn shipwrecks() -> Table {
    Table::from_rows(
        "shipwrecks",
        &["Ship", "Vessel", "Lake", "Lives lost"],
        &[
            vec!["Argus", "Steamer", "Lake Huron", "25 lost"],
            vec!["Hydrus", "Steamer", "Lake Huron", "28 lost"],
            vec!["Plymouth", "Barge", "Lake Michigan", "7 lost"],
            vec!["Issac M. Scott", "Steamer", "Lake Huron", "28 lost"],
            vec!["Henry B. Smith", "Steamer", "Lake Superior", "all hands"],
            vec!["Lightship No. 82", "Lightship", "Lake Erie", "6 lost"],
            vec!["Wexford", "Steamer", "Lake Huron", "17 lost"],
            vec!["Leafield", "Steamer", "Lake Superior", "18 lost"],
        ],
    )
    .expect("static sample table is well formed")
}

/// Table 11: the yacht registry (`Name`, `Type`, `Owner`).
pub fn yachts() -> Table {
    Table::from_rows(
        "yachts",
        &["Name", "Type", "Owner"],
        &[
            vec!["Sally", "Yacht", "Lyman"],
            vec!["Caprice", "Yacht", "Robinson"],
            vec!["Eleanor", "Yacht", "Clapp"],
            vec!["USS Lawrence", "Yacht", "U.S. Navy"],
            vec!["USS Macdonough", "Yacht", "U.S. Navy"],
            vec!["Jule", "Yacht", "J. Arthur"],
            vec!["lightship LV-72", "Lightvessel", "U.S Lighthouse Board"],
        ],
    )
    .expect("static sample table is well formed")
}

/// Table 18: the pilgrimage-temple table (`Temple`, `Town`, `Prefecture`).
pub fn temples() -> Table {
    Table::from_rows(
        "temples",
        &["Temple", "Town", "Prefecture"],
        &[
            vec!["Iwaya-ji", "Kumakogen", "Ehime Prefecture"],
            vec!["Yakushi Nyorai", "Matsuyama", "Ehime Prefecture"],
            vec!["Amida Nyorai", "Matsuyama", "Ehime Prefecture"],
            vec!["Shaka Nyorai", "Matsuyama", "Ehime Prefecture"],
            vec!["Dainichi Nyorai", "Matsuyama", "Ehime Prefecture"],
            vec!["Yokomine-ji", "Saijo", "Ehime Prefecture"],
            vec!["Fudo Myoo", "Imabari", "Ehime Prefecture"],
            vec!["Jizo Bosatsu", "Imabari", "Ehime Prefecture"],
        ],
    )
    .expect("static sample table is well formed")
}

/// Table 1 row 2-style Olympic medal standings used for tie-break questions
/// (`Rank`, `Nation`, `Gold`, `Silver`, `Bronze`, `Total`).
pub fn medal_standings() -> Table {
    Table::from_rows(
        "medal_standings",
        &["Rank", "Nation", "Gold", "Silver", "Bronze", "Total"],
        &[
            vec!["1", "US", "46", "37", "38", "121"],
            vec!["2", "China", "38", "45", "38", "121"],
            vec!["3", "UK", "27", "23", "17", "67"],
            vec!["4", "Russia", "19", "18", "19", "56"],
            vec!["5", "Germany", "17", "10", "15", "42"],
            vec!["6", "Japan", "12", "8", "21", "41"],
            vec!["7", "France", "10", "18", "14", "42"],
            vec!["8", "South Korea", "9", "3", "9", "21"],
        ],
    )
    .expect("static sample table is well formed")
}

/// All sample tables, keyed by the figures they appear in; convenient for
/// gallery generation and integration tests.
pub fn all_samples() -> Vec<Table> {
    vec![
        olympics(),
        squad(),
        medals(),
        growth_rate(),
        usl_league(),
        shipwrecks(),
        yachts(),
        temples(),
        medal_standings(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ColumnType;
    use crate::value::Value;

    #[test]
    fn all_samples_build_and_are_nonempty() {
        for table in all_samples() {
            assert!(table.num_records() >= 7, "{} too small", table.name());
            assert!(table.num_columns() >= 3, "{} too narrow", table.name());
        }
    }

    #[test]
    fn olympics_matches_figure_one() {
        let t = olympics();
        let country = t.column_index("Country").unwrap();
        let greece = Value::str("Greece");
        let greece_records: Vec<usize> = t
            .record_indices()
            .filter(|&r| t.eq_at(r, country, &greece))
            .collect();
        assert_eq!(greece_records, [0, 5]);
        assert_eq!(t.column_type(0), ColumnType::Number);
    }

    #[test]
    fn medals_contains_fiji_and_tonga_totals() {
        let t = medals();
        let nation = t.column_index("Nation").unwrap();
        let total = t.column_index("Total").unwrap();
        let find = |name: &str| {
            let name = Value::str(name);
            t.record_indices().find(|&r| t.eq_at(r, nation, &name))
        };
        let (fiji, tonga) = (find("Fiji").unwrap(), find("Tonga").unwrap());
        assert_eq!(t.value_at(fiji, total), Some(Value::num(130.0)));
        assert_eq!(t.value_at(tonga, total), Some(Value::num(20.0)));
    }

    #[test]
    fn sample_names_are_distinct() {
        let samples = all_samples();
        let mut names: Vec<&str> = samples.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), samples.len());
    }
}
