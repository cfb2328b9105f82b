//! Pins the generated questions of a fixed seed.
//!
//! Benchmarks, gates and the served workloads all draw their inputs from
//! `generate_questions`, which answers every gold formula on the evaluator.
//! A change to the evaluator (or to how generation drives it) that shifts
//! which questions survive, or their gold answers, would silently change
//! every benchmark's inputs. This test hashes the output for seeded
//! WTQ-size (8–18-row) and 256–512-row tables — question text, family,
//! gold formula text and gold answer (numbers by bits), in order — and
//! compares the digest with a pinned value. A change meant to alter the
//! generated questions updates the pin in its own diff.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use wtq_dataset::tablegen::generate_table_with_rows;
use wtq_dataset::{all_domains, generate_questions, generate_table};
use wtq_dcs::Answer;
use wtq_table::{Table, Value};

/// The digest of every question set below, captured while each gold
/// formula still ran on an evaluator of its own; sharing one session per
/// table, and the evaluator's class-id grouping, left it unchanged.
const QUESTION_DIGEST: u64 = 0xe787_fb06_b60d_5fca;

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
                self.bytes(format!("{other:?}").as_bytes());
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

/// `(table, questions wanted)`: one WTQ-size table per domain, then four
/// 256–512-row tables, from one seed.
fn tables() -> Vec<(Table, usize)> {
    let mut rng = ChaCha8Rng::seed_from_u64(20190420);
    let domains = all_domains();
    let mut tables = Vec::new();
    for (index, domain) in domains.iter().enumerate() {
        tables.push((generate_table(domain, index, &mut rng), 12));
    }
    for index in 0..4 {
        let rows = rng.gen_range(256..513);
        let domain = &domains[(index * 3) % domains.len()];
        tables.push((generate_table_with_rows(domain, index, rows, &mut rng), 24));
    }
    tables
}

#[test]
fn generated_questions_match_the_pinned_digest() {
    let mut rng = ChaCha8Rng::seed_from_u64(20190421);
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let mut questions = 0u64;
    for (table, count) in tables() {
        let generated = generate_questions(&table, count, &mut rng);
        digest.bytes(table.name().as_bytes());
        digest.u64(generated.len() as u64);
        for question in &generated {
            digest.bytes(question.question.as_bytes());
            digest.bytes(question.family.name().as_bytes());
            digest.bytes(question.formula.to_string().as_bytes());
            digest.answer(&question.answer);
            questions += 1;
        }
    }
    assert!(questions >= 150, "only {questions} questions generated");
    assert_eq!(
        digest.0, QUESTION_DIGEST,
        "the generated questions changed ({questions} questions, digest {:#018x})",
        digest.0
    );
}
