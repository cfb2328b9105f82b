//! Allocation-count gate for the served explain path. A counting global
//! allocator tallies `alloc` and `realloc` calls made on the test thread
//! while `Engine::explain_question(.., 7)` answers a fixed, seeded set of
//! questions on WTQ-size (8–18-row) generated tables, and the count per
//! question must equal its pin. Allocation counts repeat exactly from run
//! to run and between debug and release builds, so unlike the wall-clock
//! gates this one cannot flake. Work that scales with the whole candidate
//! pool instead of the served top-k — ranking keys rendered for every
//! candidate, formula trees cloned into a dedup set — moves the counts and
//! fails it; a change meant to move them updates the pins in its own diff.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wtq_core::Engine;
use wtq_dataset::{all_domains, generate_questions, generate_table};

/// Counts allocations on threads that switched counting on.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            ALLOCATIONS.with(|allocations| allocations.set(allocations.get() + 1));
        }
    });
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|allocations| allocations.set(0));
    COUNTING.with(|counting| counting.set(true));
    f();
    COUNTING.with(|counting| counting.set(false));
    ALLOCATIONS.with(|allocations| allocations.get())
}

/// Tables generated, and questions per table: the first question on each
/// table is a warm-up (index build, lazily built lookups), the rest count.
const TABLES: usize = 8;
const QUESTIONS_PER_TABLE: usize = 6;

/// Allocations per counted question, in question order.
const PINNED: [u64; TABLES * (QUESTIONS_PER_TABLE - 1)] = [
    2148, 2086, 2169, 1450, 2378, 1942, 1879, 1748, 1762, 2119, 2356, 1939, 1988, 1412, 2456, 2922,
    1974, 2058, 2832, 3082, 2269, 2047, 2261, 1398, 2371, 2210, 2074, 2099, 1395, 2300, 2126, 1932,
    1924, 1285, 2551, 2384, 2200, 2202, 1417, 2099,
];

#[test]
fn allocations_per_served_question_match_the_pins() {
    let mut rng = ChaCha8Rng::seed_from_u64(20190419);
    let domains = all_domains();
    let engine = Engine::new();
    let mut counts = Vec::new();
    for index in 0..TABLES {
        let table = generate_table(&domains[index % domains.len()], index, &mut rng);
        let questions = generate_questions(&table, QUESTIONS_PER_TABLE, &mut rng);
        assert_eq!(questions.len(), QUESTIONS_PER_TABLE);
        assert!(!engine
            .explain_question(&questions[0].question, &table, 7)
            .is_empty());
        for question in &questions[1..] {
            counts.push(allocations_during(|| {
                let explained = engine.explain_question(&question.question, &table, 7);
                assert!(!explained.is_empty());
            }));
        }
    }
    let total: u64 = counts.iter().sum();
    assert_eq!(
        counts, PINNED,
        "allocations per served question changed ({total} in total)"
    );
}
