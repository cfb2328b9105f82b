//! Allocation gates for the served explain path. A counting global
//! allocator tallies the `alloc` and `realloc` calls made on the test
//! thread, and the bytes they ask for, while `Engine::explain_question(..,
//! 7)` answers fixed, seeded sets of questions: on WTQ-size (8–18-row)
//! generated tables the calls per question must equal their pins, and on
//! 256–512-row tables both calls and bytes per question must. A second
//! pair of sets counts the whole served body on the same tables and
//! questions: the parse and explanation plus `candidates_json`, the bytes
//! the answer cache stores. Two more sets pin what a served request costs
//! around its body: the framed head the reactor writes for an answer-cache
//! hit, and the server's request traces at its default sampling rate. All
//! repeat exactly from run to run and between debug and release builds, so
//! unlike a wall-clock gate these cannot flake. Work that scales with the
//! whole candidate pool instead of the served top-k — ranking keys
//! rendered for every candidate, formula trees cloned into a dedup set, an
//! index built or a string-keyed feature map rendered per candidate — or
//! with the table instead of the question — answers built for projections
//! the pool rejects, a value cloned per projected cell — moves the counts
//! and fails them, and so does a hit path that serializes what it could
//! copy, or a tracer that builds a trace for a request it does not sample.
//! A change meant to move them updates the pins in its own diff.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::time::Instant;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wtq_core::{candidates_json, Engine};
use wtq_dataset::tablegen::generate_table_with_rows;
use wtq_dataset::{all_domains, generate_questions, generate_table};
use wtq_obs::Tracer;
use wtq_parser::ParseSpans;
use wtq_server::{wire, ServerConfig};
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

/// What `serve` returns for each of `questions` seeded questions on each of
/// `tables` tables drawn from `table(index, rng)`, question by question;
/// each table's first question is served uncounted as a warm-up (index
/// build, lazily built lookups).
fn served_allocations(
    seed: u64,
    tables: usize,
    mut table: impl FnMut(usize, &mut ChaCha8Rng) -> Table,
    questions: usize,
    mut serve: impl FnMut(&Engine, &str, &Table) -> (u64, u64),
) -> Vec<(u64, u64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let engine = Engine::new();
    let mut counts = Vec::new();
    for index in 0..tables {
        let table = table(index, &mut rng);
        let generated = generate_questions(&table, questions, &mut rng);
        assert_eq!(generated.len(), questions);
        serve(&engine, &generated[0].question, &table);
        for question in &generated[1..] {
            counts.push(serve(&engine, &question.question, &table));
        }
    }
    counts
}

/// `(calls, bytes)` of `Engine::explain_question(.., 7)`, followed by
/// `candidates_json` when `body` is set.
fn explain(body: bool) -> impl FnMut(&Engine, &str, &Table) -> (u64, u64) {
    move |engine, question, table| {
        allocations_during(|| {
            let explained = engine.explain_question(question, table, 7);
            assert!(!explained.is_empty());
            if body {
                assert!(candidates_json(&explained, table).len() > 2);
            }
        })
    }
}

/// Tables generated, and questions per table: the first question on each
/// table is a warm-up (index build, lazily built lookups), the rest count.
const TABLES: usize = 8;
const QUESTIONS_PER_TABLE: usize = 6;

/// What `serve` returns per counted question on WTQ-size tables.
fn wtq_size_allocations(serve: impl FnMut(&Engine, &str, &Table) -> (u64, u64)) -> Vec<(u64, u64)> {
    let domains = all_domains();
    let table =
        |index, rng: &mut ChaCha8Rng| generate_table(&domains[index % domains.len()], index, rng);
    served_allocations(20190419, TABLES, table, QUESTIONS_PER_TABLE, serve)
}

/// Allocations per counted question, in question order.
const PINNED: [u64; TABLES * (QUESTIONS_PER_TABLE - 1)] = [
    1494, 1448, 1480, 1032, 1710, 1351, 1309, 1183, 1221, 1522, 1554, 1263, 1267, 956, 1708, 1876,
    1309, 1409, 1770, 2014, 1471, 1405, 1580, 997, 1693, 1556, 1447, 1461, 1025, 1650, 1516, 1348,
    1306, 925, 1829, 1645, 1489, 1489, 962, 1412,
];

#[test]
fn allocations_per_served_question_match_the_pins() {
    let counts: Vec<u64> = wtq_size_allocations(explain(false))
        .into_iter()
        .map(|(calls, _)| calls)
        .collect();
    let total: u64 = counts.iter().sum();
    assert_eq!(
        counts, PINNED,
        "allocations per served question changed ({total} in total)"
    );
}

/// Allocations per counted question with its served body, in question
/// order.
const PINNED_BODY: [u64; TABLES * (QUESTIONS_PER_TABLE - 1)] = [
    2040, 2039, 2009, 1552, 2253, 2012, 1899, 1746, 1774, 2080, 2149, 1832, 1842, 1469, 2204, 2510,
    1906, 1990, 2345, 2542, 2109, 1985, 2174, 1520, 2221, 2110, 2020, 1979, 1547, 2200, 2073, 1949,
    1876, 1446, 2375, 2297, 2086, 2070, 1492, 1929,
];

#[test]
fn allocations_per_served_body_match_the_pins() {
    let counts: Vec<u64> = wtq_size_allocations(explain(true))
        .into_iter()
        .map(|(calls, _)| calls)
        .collect();
    let total: u64 = counts.iter().sum();
    assert_eq!(
        counts, PINNED_BODY,
        "allocations per served body changed ({total} in total)"
    );
}

/// Tables of 256–512 rows generated, and questions per table (the first a
/// warm-up), for the large-table pins.
const LARGE_TABLES: usize = 4;
const LARGE_QUESTIONS_PER_TABLE: usize = 6;

/// `(calls, bytes)` per counted question on 256–512-row tables, explained
/// alone or with the served body when `body` is set.
fn large_table_allocations(body: bool) -> Vec<(u64, u64)> {
    let domains = all_domains();
    let table = |index, rng: &mut ChaCha8Rng| {
        let rows = rng.gen_range(256..513);
        generate_table_with_rows(&domains[(index + 1) % domains.len()], index, rows, rng)
    };
    served_allocations(
        20190422,
        LARGE_TABLES,
        table,
        LARGE_QUESTIONS_PER_TABLE,
        explain(body),
    )
}

/// `(calls, bytes)` per counted question on 256–512-row tables, in
/// question order.
const PINNED_LARGE: [(u64, u64); LARGE_TABLES * (LARGE_QUESTIONS_PER_TABLE - 1)] = [
    (1347, 562317),
    (1465, 565904),
    (1286, 497629),
    (1529, 683159),
    (1480, 560414),
    (1407, 344373),
    (1564, 352111),
    (2145, 707372),
    (1909, 615211),
    (1739, 338330),
    (2213, 1004117),
    (2231, 1001227),
    (2090, 1011020),
    (2232, 998155),
    (1856, 561207),
    (1868, 767042),
    (1882, 761296),
    (1631, 721567),
    (1744, 585142),
    (2045, 773234),
];

#[test]
fn allocations_and_bytes_per_served_question_on_large_tables_match_the_pins() {
    let counts = large_table_allocations(false);
    let calls: u64 = counts.iter().map(|&(calls, _)| calls).sum();
    let bytes: u64 = counts.iter().map(|&(_, bytes)| bytes).sum();
    assert_eq!(
        counts, PINNED_LARGE,
        "allocations per served question on large tables changed ({calls} calls, {bytes} bytes in total)"
    );
}

/// `(calls, bytes)` per counted question with its served body on
/// 256–512-row tables, in question order.
const PINNED_LARGE_BODY: [(u64, u64); LARGE_TABLES * (LARGE_QUESTIONS_PER_TABLE - 1)] = [
    (1943, 595657),
    (2055, 597755),
    (1830, 535285),
    (2080, 715239),
    (2127, 601683),
    (1956, 394670),
    (2112, 399514),
    (2666, 734466),
    (2525, 654313),
    (2383, 381220),
    (2815, 1063183),
    (2790, 1050268),
    (2662, 1073743),
    (2760, 1037429),
    (2479, 600071),
    (2408, 807723),
    (2440, 805622),
    (2229, 767229),
    (2274, 626183),
    (2691, 824814),
];

#[test]
fn allocations_and_bytes_per_served_body_on_large_tables_match_the_pins() {
    let counts = large_table_allocations(true);
    let calls: u64 = counts.iter().map(|&(calls, _)| calls).sum();
    let bytes: u64 = counts.iter().map(|&(_, bytes)| bytes).sum();
    assert_eq!(
        counts, PINNED_LARGE_BODY,
        "allocations per served body on large tables changed ({calls} calls, {bytes} bytes in total)"
    );
}

/// `(calls, bytes)` per counted WTQ-size question of the framed head the
/// reactor writes when the answer cache holds the question's body:
/// `wire::spliced_frame_head` into one reused buffer. The body is not
/// copied in: it is the response's own `writev` segment.
fn frame_head_allocations() -> Vec<(u64, u64)> {
    let mut head = Vec::new();
    let mut id = 0u64;
    wtq_size_allocations(|engine, question, table| {
        let body = candidates_json(&engine.explain_question(question, table, 7), table);
        id += 1;
        allocations_during(|| {
            assert!(wire::spliced_frame_head(
                &mut head,
                id,
                question,
                table.name(),
                body.len()
            ));
        })
    })
}

/// `(calls, bytes)` per counted WTQ-size question of its hit frame's head,
/// in question order: `write_json_u64` renders the protocol version and
/// the id through `format!`, one 8-byte string each, and no head outgrows
/// the reused buffer.
const PINNED_FRAME_HEAD: [(u64, u64); TABLES * (QUESTIONS_PER_TABLE - 1)] =
    [(2, 16); TABLES * (QUESTIONS_PER_TABLE - 1)];

#[test]
fn allocations_and_bytes_per_hit_frame_head_match_the_pins() {
    let counts = frame_head_allocations();
    let calls: u64 = counts.iter().map(|&(calls, _)| calls).sum();
    let bytes: u64 = counts.iter().map(|&(_, bytes)| bytes).sum();
    assert_eq!(
        counts, PINNED_FRAME_HEAD,
        "allocations per hit frame head changed ({calls} calls, {bytes} bytes in total)"
    );
}

/// Requests whose trace lifecycles the trace set counts, and the capacity
/// of each of the server's trace rings (`GET /trace/recent`).
const TRACED_REQUESTS: u64 = 1_600;
const TRACE_RING_SIZE: usize = 128;

/// `(calls, bytes)` of [`TRACED_REQUESTS`] request-trace lifecycles on a
/// tracer at the server's default sampling rate. Every request asks the
/// tracer for a trace; a sampled one is recorded as the server records an
/// answer-cache miss: decode and queue-wait spans on the reactor, the
/// endpoint and detail, the cache-probe, admission-wait and eval spans,
/// the parse's six stage spans, the encode span, then `finish` into the
/// rings.
fn trace_allocations() -> (u64, u64) {
    let tracer = Tracer::new(ServerConfig::default().trace_sample_rate, TRACE_RING_SIZE);
    let (question, table) = ("Which city hosted in 2008?", "olympics");
    let counts = allocations_during(|| {
        for request in 0..TRACED_REQUESTS {
            let Some(mut trace) = tracer.start(Instant::now()) else {
                continue;
            };
            trace.record_ns("decode", 0, 2_000);
            trace.record_ns("queue_wait", 2_000, 1_000);
            trace.set_endpoint("explain");
            trace.set_detail(format!("{question} @ {table}"));
            let now = Instant::now();
            for span in ["cache_probe", "admission_wait", "eval"] {
                trace.record(span, now, now);
            }
            for (offset, stage) in (0..).zip(ParseSpans::STAGES) {
                trace.record_ns(format!("parse:{stage}"), 3_000 + offset * 1_000, 1_000);
            }
            trace.record("encode", now, now);
            tracer.finish(trace, "ok", 10_000 + request % 97 * 1_000);
        }
    });
    assert_eq!(tracer.sampled(), TRACED_REQUESTS / 16);
    counts
}

/// `(calls, bytes)` of the [`TRACED_REQUESTS`] trace lifecycles.
const PINNED_TRACES: (u64, u64) = (3812, 248548);

#[test]
fn allocations_and_bytes_of_request_traces_match_the_pins() {
    assert_eq!(
        trace_allocations(),
        PINNED_TRACES,
        "allocations of {TRACED_REQUESTS} request-trace lifecycles changed"
    );
}
