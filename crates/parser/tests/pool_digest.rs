//! Pins the ranked candidate pools of a fixed, seeded question set.
//!
//! `differential_parser` checks the interned ranking against the reference
//! ranking, but both sides share `generate_candidates_with`, so a change
//! that alters which candidates a pool holds (or their answers) passes it.
//! This test closes that gap: it hashes every ranked pool — formula text,
//! answer (numbers by bits) and score bits, in rank order — for questions
//! on large (256–512-row) and WTQ-size (8–18-row) generated tables, and
//! compares the digest with a pinned value. A change that is meant to
//! alter pools updates the pin in its own diff.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use wtq_dataset::tablegen::generate_table_with_rows;
use wtq_dataset::{all_domains, generate_questions, generate_table};
use wtq_dcs::{Answer, Evaluator};
use wtq_parser::SemanticParser;
use wtq_table::{Table, Value};

/// The digest of every pool below, captured before the evaluator's grouped
/// projections and untraced answers landed; they must leave it unchanged.
const POOL_DIGEST: u64 = 0x57ef_d0d9_0a8c_8d0f;

/// FNV-1a, 64-bit: stable across platforms and Rust versions.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Length-terminate each field so adjacent fields cannot run together.
        self.u64(bytes.len() as u64);
    }

    fn u64(&mut self, n: u64) {
        for byte in n.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn value(&mut self, value: &Value) {
        match value {
            Value::Num(n) => {
                self.u64(0);
                self.u64(n.to_bits());
            }
            other => {
                self.u64(1);
                self.bytes(other.to_string().as_bytes());
            }
        }
    }

    fn answer(&mut self, answer: &Answer) {
        match answer {
            Answer::Number(n) => {
                self.u64(0);
                self.u64(n.to_bits());
            }
            Answer::Values(values) => {
                self.u64(1);
                self.u64(values.len() as u64);
                values.iter().for_each(|value| self.value(value));
            }
            Answer::Records(records) => {
                self.u64(2);
                self.u64(records.len() as u64);
                records.iter().for_each(|&record| self.u64(record as u64));
            }
        }
    }
}

/// `(table, questions)` pairs: four 256–512-row tables with six questions
/// each and eight WTQ-size tables with five questions each, from one seed.
fn question_set() -> Vec<(Table, Vec<String>)> {
    let mut rng = ChaCha8Rng::seed_from_u64(20190408);
    let domains = all_domains();
    let mut set = Vec::new();
    for index in 0..4 {
        let rows = rng.gen_range(256..513);
        let table =
            generate_table_with_rows(&domains[index % domains.len()], index, rows, &mut rng);
        set.push((table, 6));
    }
    for index in 0..8 {
        let table = generate_table(&domains[(index + 4) % domains.len()], index, &mut rng);
        set.push((table, 5));
    }
    set.into_iter()
        .map(|(table, count)| {
            let questions = generate_questions(&table, count, &mut rng)
                .into_iter()
                .map(|question| question.question)
                .collect();
            (table, questions)
        })
        .collect()
}

#[test]
fn ranked_pools_match_the_pinned_digest() {
    let parser = SemanticParser::with_prior();
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let mut pools = 0u64;
    for (table, questions) in question_set() {
        // One warm session per table, as a served batch shares one.
        let evaluator = Evaluator::new(&table);
        for question in &questions {
            let ranked = parser.parse_in_session(question, &evaluator);
            digest.bytes(question.as_bytes());
            digest.u64(ranked.len() as u64);
            for candidate in &ranked {
                digest.bytes(candidate.formula.to_string().as_bytes());
                digest.answer(&candidate.answer);
                digest.u64(candidate.score.to_bits());
            }
            pools += 1;
        }
    }
    assert_eq!(pools, 64);
    assert_eq!(
        digest.0, POOL_DIGEST,
        "the ranked pools changed (digest {:#018x})",
        digest.0
    );
}
