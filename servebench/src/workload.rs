//! Seeded inputs of the three workloads: web tables and questions from
//! `wtq-dataset`, the request sequence of each phase and the open-loop
//! arrival schedule. Everything here is a pure function of the workload and
//! the seed.

use std::collections::HashSet;
use std::ops::Range;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wtq_dataset::tablegen::generate_table_with_rows;
use wtq_dataset::{all_domains, generate_questions, generate_table};
use wtq_dcs::Answer;
use wtq_table::Table;

/// Candidates requested per question: the paper's k = 7.
pub const TOP_K: usize = 7;

/// `deploy_hot`: tables, pooled questions per table and Zipf exponent.
const HOT_TABLES: usize = 20;
const HOT_QUESTIONS_PER_TABLE: usize = 15;
const HOT_ZIPF_S: f64 = 1.1;
/// `deploy_hot`'s open-loop Poisson rate (requests/s).
const HOT_OPEN_RATE: f64 = 1000.0;
/// Length of `deploy_hot`'s closed-loop sequence (cycled when exhausted).
const HOT_CLOSED_LEN: usize = 1 << 17;

/// `deploy_cold`: tables (within the engine's 256-table index cache) and
/// questions generated per table.
const COLD_TABLES: usize = 250;
const COLD_QUESTIONS_PER_TABLE: usize = 60;
/// `deploy_cold`'s open-loop Poisson rate (requests/s), well below capacity.
const COLD_OPEN_RATE: f64 = 60.0;

/// `annotate_batch`: tables of 256–512 rows, questions per table, batch size.
const BATCH_TABLES: usize = 48;
const BATCH_ROWS: Range<usize> = 256..513;
const BATCH_QUESTIONS_PER_TABLE: usize = 60;
pub const BATCH_SIZE: usize = 2;

/// Requests answered during set-up on the miss workloads (drawn from
/// questions the timed phases never send).
const COLD_WARMUP: usize = 64;
const BATCH_WARMUP: usize = 4;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Deployment with popular questions: every timed request is an
    /// answer-cache hit.
    DeployHot,
    /// Deployment with new questions: every timed request misses.
    DeployCold,
    /// Training-phase bulk explanation: `ExplainBatch` over large tables.
    AnnotateBatch,
}

impl Workload {
    /// Every workload the benchmark runs by name (`BENCHMARK.json` lists
    /// the two steady ones; see README.md).
    pub const ALL: [Workload; 3] = [
        Workload::DeployHot,
        Workload::DeployCold,
        Workload::AnnotateBatch,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DeployHot => "deploy_hot",
            Workload::DeployCold => "deploy_cold",
            Workload::AnnotateBatch => "annotate_batch",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Share of the measured time spent in the open-loop phase.
    pub fn open_share(self) -> f64 {
        match self {
            Workload::DeployHot => 0.5,
            Workload::DeployCold => 2.0 / 3.0,
            Workload::AnnotateBatch => 0.0,
        }
    }

    /// Requests every closed-loop phase completes, however long that takes:
    /// with the open loop's, the scored set every run answers (and
    /// `annotate_batch`'s p99 sample floor).
    pub fn closed_min_requests(self) -> usize {
        match self {
            Workload::DeployHot => 0,
            Workload::DeployCold => 4000,
            Workload::AnnotateBatch => 1400,
        }
    }
}

/// One question with the generator's gold answer.
#[derive(Debug, Clone)]
pub struct Question {
    /// The natural-language question.
    pub text: String,
    /// Catalog name of the table it is asked about.
    pub table: String,
    /// The generator's gold answer.
    pub gold: Answer,
}

/// One request: a contiguous range of [`Inputs::questions`] — a single
/// question for `Explain`, several for `ExplainBatch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Index of the first question.
    pub start: u32,
    /// Number of questions (1 for `Explain`).
    pub len: u32,
}

impl Request {
    fn one(index: usize) -> Request {
        Request {
            start: index as u32,
            len: 1,
        }
    }

    /// The question indices this request carries.
    pub fn questions(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Everything one run sends, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// The served tables.
    pub tables: Vec<Table>,
    /// Every distinct question: `deploy_hot`'s pool, or the whole supply
    /// of the miss workloads (warm-up first, then send order).
    pub questions: Vec<Question>,
    /// Answered during set-up: `deploy_hot` prewarms every pooled
    /// question; the miss workloads warm up on reserved questions.
    pub warmup: Vec<Request>,
    /// Open-loop arrivals as (offset from phase start in ns, request).
    pub open: Vec<(u64, Request)>,
    /// Closed-loop requests in send order (`deploy_hot` cycles through
    /// them; the miss workloads end the phase when they run out).
    pub closed: Vec<Request>,
}

impl Inputs {
    /// Generate the inputs of `workload` for `seed`, with `open_secs`
    /// seconds of open-loop arrivals.
    pub fn generate(workload: Workload, seed: u64, open_secs: f64) -> Inputs {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed_0f5e_7e0b_e4c7);
        match workload {
            Workload::DeployHot => deploy_hot(&mut rng, open_secs),
            Workload::DeployCold => deploy_cold(&mut rng, open_secs),
            Workload::AnnotateBatch => annotate_batch(&mut rng),
        }
    }

    /// Requests of the timed phases, open loop first.
    pub fn timed_requests(&self) -> impl Iterator<Item = Request> + '_ {
        self.open
            .iter()
            .map(|(_, request)| *request)
            .chain(self.closed.iter().copied())
    }
}

/// `count` WTQ-size tables (8–18 rows) cycling over every domain.
fn wtq_tables(rng: &mut ChaCha8Rng, count: usize) -> Vec<Table> {
    let domains = all_domains();
    (0..count)
        .map(|index| generate_table(&domains[index % domains.len()], index, rng))
        .collect()
}

/// Up to `per_table` questions per table, keeping only questions whose
/// (normalized text, table) pair is new.
fn distinct_questions(rng: &mut ChaCha8Rng, tables: &[Table], per_table: usize) -> Vec<Question> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for table in tables {
        for generated in generate_questions(table, per_table, rng) {
            let key = (
                wtq_parser::normalize_question(&generated.question),
                table.name().to_string(),
            );
            if seen.insert(key) {
                out.push(Question {
                    text: generated.question,
                    table: table.name().to_string(),
                    gold: generated.answer,
                });
            }
        }
    }
    out
}

/// Poisson arrival offsets (ns) at `rate` per second over `secs` seconds.
fn poisson_offsets(rng: &mut ChaCha8Rng, rate: f64, secs: f64) -> Vec<u64> {
    let mut offsets = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate;
        if t >= secs {
            return offsets;
        }
        offsets.push((t * 1e9) as u64);
    }
}

fn deploy_hot(rng: &mut ChaCha8Rng, open_secs: f64) -> Inputs {
    let tables = wtq_tables(rng, HOT_TABLES);
    // The answer cache keys on the normalized question per table, so the
    // distinct pairs are exactly the cache entries the pool occupies.
    let questions = distinct_questions(rng, &tables, HOT_QUESTIONS_PER_TABLE);
    // Zipf popularity over a seeded ranking of the pool.
    let mut by_rank: Vec<usize> = (0..questions.len()).collect();
    by_rank.shuffle(rng);
    let mut cumulative = Vec::with_capacity(by_rank.len());
    let mut total = 0.0;
    for rank in 0..by_rank.len() {
        total += 1.0 / ((rank + 1) as f64).powf(HOT_ZIPF_S);
        cumulative.push(total);
    }
    let draw = |rng: &mut ChaCha8Rng| {
        let u = rng.gen_range(0.0..total);
        let rank = cumulative
            .partition_point(|&c| c <= u)
            .min(by_rank.len() - 1);
        Request::one(by_rank[rank])
    };
    let open = poisson_offsets(rng, HOT_OPEN_RATE, open_secs)
        .into_iter()
        .map(|offset| (offset, draw(rng)))
        .collect();
    let closed = (0..HOT_CLOSED_LEN).map(|_| draw(rng)).collect();
    Inputs {
        workload: Workload::DeployHot,
        warmup: (0..questions.len()).map(Request::one).collect(),
        tables,
        questions,
        open,
        closed,
    }
}

fn deploy_cold(rng: &mut ChaCha8Rng, open_secs: f64) -> Inputs {
    let tables = wtq_tables(rng, COLD_TABLES);
    let mut questions = distinct_questions(rng, &tables, COLD_QUESTIONS_PER_TABLE);
    questions.shuffle(rng);
    let offsets = poisson_offsets(rng, COLD_OPEN_RATE, open_secs);
    let warmup: Vec<Request> = (0..COLD_WARMUP).map(Request::one).collect();
    let open_end = (COLD_WARMUP + offsets.len()).min(questions.len());
    let open = offsets
        .into_iter()
        .zip(COLD_WARMUP..open_end)
        .map(|(offset, index)| (offset, Request::one(index)))
        .collect();
    let closed = (open_end..questions.len()).map(Request::one).collect();
    Inputs {
        workload: Workload::DeployCold,
        tables,
        questions,
        warmup,
        open,
        closed,
    }
}

fn annotate_batch(rng: &mut ChaCha8Rng) -> Inputs {
    let domains = all_domains();
    let tables: Vec<Table> = (0..BATCH_TABLES)
        .map(|index| {
            let rows = rng.gen_range(BATCH_ROWS);
            generate_table_with_rows(&domains[index % domains.len()], index, rows, rng)
        })
        .collect();
    // One shuffled queue of questions per table; every batch takes the
    // next question of BATCH_SIZE different tables, so batches never repeat
    // a table and never repeat a question.
    let mut per_table: Vec<Vec<Question>> = tables
        .iter()
        .map(|table| {
            let mut questions =
                distinct_questions(rng, std::slice::from_ref(table), BATCH_QUESTIONS_PER_TABLE);
            questions.shuffle(rng);
            questions
        })
        .collect();
    let mut questions = Vec::new();
    let mut batches = Vec::new();
    loop {
        let mut open_tables: Vec<usize> = (0..per_table.len())
            .filter(|&t| !per_table[t].is_empty())
            .collect();
        if open_tables.len() < BATCH_SIZE {
            break;
        }
        // Prefer the fullest tables so the supply drains evenly.
        open_tables.shuffle(rng);
        open_tables.sort_by_key(|&t| std::cmp::Reverse(per_table[t].len()));
        let start = questions.len();
        for &t in &open_tables[..BATCH_SIZE] {
            questions.push(per_table[t].pop().expect("non-empty queue"));
        }
        batches.push(Request {
            start: start as u32,
            len: BATCH_SIZE as u32,
        });
    }
    let warmup = batches[..BATCH_WARMUP].to_vec();
    let closed = batches[BATCH_WARMUP..].to_vec();
    Inputs {
        workload: Workload::AnnotateBatch,
        tables,
        questions,
        warmup,
        open: Vec::new(),
        closed,
    }
}
