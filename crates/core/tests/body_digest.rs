//! Pins the served response body of a fixed, seeded question set.
//!
//! A served question is `Engine::explain_question(.., 7)` followed by
//! `candidates_json`, whose bytes the answer cache stores and every later
//! hit splices into its envelope. This test hashes those bytes for
//! generated questions on WTQ-size (8–18-row) tables, one per domain, and
//! on 256–512-row tables, and compares the digest with a pinned value.
//! `pool_digest` pins the ranked pools; this pin also covers what the
//! explanation layers add on top of them: the top-k cut, utterances, SQL,
//! highlight renderings, cell-class counts and the JSON encoding. A change
//! that is meant to alter served bodies updates the pin in its own diff.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use wtq_core::{candidates_json, Engine};
use wtq_dataset::tablegen::generate_table_with_rows;
use wtq_dataset::{all_domains, generate_questions, generate_table};
use wtq_table::Table;

/// The digest of every served body below, captured before the dev-only
/// oracle crate split the executable specifications out of the serving
/// crates; that move must leave it unchanged.
const BODY_DIGEST: u64 = 0xb329_c5ac_66b8_a640;

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
}

/// `(table, questions)` pairs from one seed: one WTQ-size table per domain
/// with five questions each, then four 256–512-row tables with four each.
fn question_set() -> Vec<(Table, Vec<String>)> {
    let mut rng = ChaCha8Rng::seed_from_u64(20190423);
    let domains = all_domains();
    let mut set = Vec::new();
    for (index, domain) in domains.iter().enumerate() {
        set.push((generate_table(domain, index, &mut rng), 5));
    }
    for index in 0..4 {
        let rows = rng.gen_range(256..513);
        let domain = &domains[(index + 2) % domains.len()];
        set.push((generate_table_with_rows(domain, index, rows, &mut rng), 4));
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
fn served_bodies_match_the_pinned_digest() {
    let engine = Engine::new();
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let mut bodies = 0u64;
    for (table, questions) in question_set() {
        for question in &questions {
            let explained = engine.explain_question(question, &table, 7);
            digest.bytes(question.as_bytes());
            digest.bytes(&candidates_json(&explained, &table));
            bodies += 1;
        }
    }
    assert_eq!(bodies, 61);
    assert_eq!(
        digest.0, BODY_DIGEST,
        "the served bodies changed (digest {:#018x})",
        digest.0
    );
}
