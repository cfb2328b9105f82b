//! The running example of Figure 1: the Olympic-games table, the correct and
//! an incorrect candidate for the same question, and why explanations are
//! needed to tell them apart even though both return 2004.
//!
//! Run with `cargo run -p wtq-examples --bin olympics`.

use wtq_core::Engine;
use wtq_dcs::{eval, parse_formula, Answer};
use wtq_examples::{indent, section};
use wtq_explain::derivation;
use wtq_table::samples;

fn main() {
    let table = samples::usl_league();
    let engine = Engine::new();
    let question = "What was the last year the team was a part of the USL A-League?";

    section("Figure 8 — two candidates, one answer");
    println!("question: {question}\n");
    for text in [
        "max(R[Year].League.\"USL A-League\")",
        "min(R[Year].argmax(Rows, \"Open Cup\"))",
    ] {
        let formula = parse_formula(text).expect("example formula parses");
        let answer = Answer::from_denotation(&eval(&formula, &table).expect("evaluates"));
        let explained = engine.explain_formula(&formula, &table).expect("explains");
        println!("query     : {formula}");
        println!("utterance : {}", explained.utterance);
        println!("answer    : {answer}");
        print!("{}", indent(&explained.render_highlights(&table, false)));
        println!();
    }
    println!(
        "Both candidates return 2004, but only the first is a correct translation —\n\
         exactly the ambiguity the paper's explanations let a non-expert resolve."
    );

    section("Figure 3 — derivation tree of the Figure 1 query");
    let figure_one = parse_formula("max(R[Year].Country.Greece)").expect("parses");
    print!("{}", derivation(&figure_one).render_tree());
}
