//! Quickstart: ask a question over a web table and inspect the explained
//! candidate queries (utterance, highlights, SQL).
//!
//! Run with `cargo run -p wtq-examples --bin quickstart`.

use wtq_core::Engine;
use wtq_examples::{indent, section};
use wtq_table::samples;

fn main() {
    let engine = Engine::new();
    let table = samples::olympics();
    let question = "Greece held its last Olympics in what year?";

    section("Table");
    println!("{table}");
    section("Question");
    println!("{question}");

    let explained = engine.explain_question(question, &table, 3);
    for (rank, candidate) in explained.iter().enumerate() {
        section(&format!(
            "Candidate #{} (score {:.2})",
            rank + 1,
            candidate.score
        ));
        println!("lambda DCS : {}", candidate.formula);
        println!("utterance  : {}", candidate.utterance);
        if let Some(sql) = &candidate.sql {
            println!("SQL        : {sql}");
        }
        println!("answer     : {}", candidate.answer);
        println!("highlights :");
        print!("{}", indent(&candidate.render_highlights(&table, false)));
    }
    println!("\n{}", wtq_provenance::render::TEXT_LEGEND);
}
