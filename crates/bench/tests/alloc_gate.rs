//! Allocation gates for the served explain path. A counting global
//! allocator tallies the `alloc` and `realloc` calls made on the test
//! thread, and the bytes they ask for, while `Engine::explain_question(..,
//! 7)` answers fixed, seeded sets of questions: on WTQ-size (8–18-row)
//! generated tables the calls per question must equal their pins, and on
//! 256–512-row tables both calls and bytes per question must. Both repeat
//! exactly from run to run and between debug and release builds, so unlike
//! the wall-clock gates these cannot flake. Work that scales with the
//! whole candidate pool instead of the served top-k — ranking keys rendered
//! for every candidate, formula trees cloned into a dedup set — or with
//! the table instead of the question — answers built for projections the
//! pool rejects, a value cloned per projected cell — moves the counts and
//! fails them; a change meant to move them updates the pins in its own
//! diff.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wtq_core::Engine;
use wtq_dataset::tablegen::generate_table_with_rows;
use wtq_dataset::{all_domains, generate_questions, generate_table};
use wtq_table::Table;

/// Counts allocations on threads that switched counting on.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation call asking for `bytes` bytes.
fn count_one(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            ALLOCATIONS.with(|allocations| allocations.set(allocations.get() + 1));
            BYTES.with(|total| total.set(total.get() + bytes as u64));
        }
    });
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocation calls, bytes asked for)` of `f` on this thread; a
/// `realloc` counts its new size.
fn allocations_during(f: impl FnOnce()) -> (u64, u64) {
    ALLOCATIONS.with(|allocations| allocations.set(0));
    BYTES.with(|total| total.set(0));
    COUNTING.with(|counting| counting.set(true));
    f();
    COUNTING.with(|counting| counting.set(false));
    (
        ALLOCATIONS.with(|allocations| allocations.get()),
        BYTES.with(|total| total.get()),
    )
}

/// `(calls, bytes)` per question of `Engine::explain_question(.., 7)`,
/// question by question, over `questions` seeded questions on each of
/// `tables` tables drawn from `table(index, rng)`; each table's first
/// question is an uncounted warm-up (index build, lazily built lookups).
fn served_allocations(
    seed: u64,
    tables: usize,
    mut table: impl FnMut(usize, &mut ChaCha8Rng) -> Table,
    questions: usize,
) -> Vec<(u64, u64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let engine = Engine::new();
    let mut counts = Vec::new();
    for index in 0..tables {
        let table = table(index, &mut rng);
        let generated = generate_questions(&table, questions, &mut rng);
        assert_eq!(generated.len(), questions);
        assert!(!engine
            .explain_question(&generated[0].question, &table, 7)
            .is_empty());
        for question in &generated[1..] {
            counts.push(allocations_during(|| {
                let explained = engine.explain_question(&question.question, &table, 7);
                assert!(!explained.is_empty());
            }));
        }
    }
    counts
}

/// Tables generated, and questions per table: the first question on each
/// table is a warm-up (index build, lazily built lookups), the rest count.
const TABLES: usize = 8;
const QUESTIONS_PER_TABLE: usize = 6;

/// Allocations per counted question, in question order.
const PINNED: [u64; TABLES * (QUESTIONS_PER_TABLE - 1)] = [
    1806, 1739, 1831, 1282, 2024, 1597, 1537, 1405, 1449, 1741, 1991, 1639, 1665, 1252, 2056, 2320,
    1679, 1772, 2230, 2454, 1799, 1705, 1890, 1226, 1971, 1881, 1745, 1770, 1247, 1959, 1875, 1681,
    1658, 1169, 2177, 1991, 1808, 1811, 1211, 1697,
];

#[test]
fn allocations_per_served_question_match_the_pins() {
    let domains = all_domains();
    let table =
        |index, rng: &mut ChaCha8Rng| generate_table(&domains[index % domains.len()], index, rng);
    let counts: Vec<u64> = served_allocations(20190419, TABLES, table, QUESTIONS_PER_TABLE)
        .into_iter()
        .map(|(calls, _)| calls)
        .collect();
    let total: u64 = counts.iter().sum();
    assert_eq!(
        counts, PINNED,
        "allocations per served question changed ({total} in total)"
    );
}

/// Tables of 256–512 rows generated, and questions per table (the first a
/// warm-up), for the large-table pins.
const LARGE_TABLES: usize = 4;
const LARGE_QUESTIONS_PER_TABLE: usize = 6;

/// `(calls, bytes)` per counted question on 256–512-row tables, in
/// question order.
const PINNED_LARGE: [(u64, u64); LARGE_TABLES * (LARGE_QUESTIONS_PER_TABLE - 1)] = [
    (2535, 921689),
    (2315, 847194),
    (2200, 761947),
    (2292, 988633),
    (2504, 858179),
    (4814, 930592),
    (4706, 832701),
    (5491, 1133716),
    (5873, 1114836),
    (4668, 755259),
    (7381, 2196888),
    (6837, 2046794),
    (7160, 2249231),
    (6622, 2012419),
    (7513, 1370514),
    (3305, 1285341),
    (2949, 1180058),
    (2722, 1131486),
    (2576, 845856),
    (3266, 1215855),
];

#[test]
fn allocations_and_bytes_per_served_question_on_large_tables_match_the_pins() {
    let domains = all_domains();
    let table = |index, rng: &mut ChaCha8Rng| {
        let rows = rng.gen_range(256..513);
        generate_table_with_rows(&domains[(index + 1) % domains.len()], index, rows, rng)
    };
    let counts = served_allocations(20190422, LARGE_TABLES, table, LARGE_QUESTIONS_PER_TABLE);
    let calls: u64 = counts.iter().map(|&(calls, _)| calls).sum();
    let bytes: u64 = counts.iter().map(|&(_, bytes)| bytes).sum();
    assert_eq!(
        counts, PINNED_LARGE,
        "allocations per served question on large tables changed ({calls} calls, {bytes} bytes in total)"
    );
}
