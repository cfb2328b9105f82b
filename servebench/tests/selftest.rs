//! Self-tests of the benchmark: seeded inputs, the workload invariants
//! each workload exists for, the response checks and the `/proc` parser.
//!
//! Run with `cargo test --release --manifest-path servebench/Cargo.toml`.

use std::collections::HashSet;
use std::path::Path;
use std::process::Command;

use wtq_parser::normalize_question;
use wtq_servebench::check::{digest, json_value_end, HitExpectation, Template};
use wtq_servebench::procfs::{self, Group, TaskCounters};
use wtq_servebench::prom::Scrape;
use wtq_servebench::workload::{Inputs, Question, Request, Workload, BATCH_SIZE};
use wtq_server::ServerConfig;

fn sequence(inputs: &Inputs) -> Vec<(String, String)> {
    inputs
        .warmup
        .iter()
        .copied()
        .chain(inputs.timed_requests())
        .flat_map(|request: Request| request.questions())
        .map(|index| {
            let question = &inputs.questions[index];
            (question.text.clone(), question.table.clone())
        })
        .collect()
}

#[test]
fn same_seed_same_sequence_other_seed_other_sequence() {
    for workload in [Workload::DeployHot, Workload::DeployCold] {
        let a = Inputs::generate(workload, 7, 2.0);
        let b = Inputs::generate(workload, 7, 2.0);
        let c = Inputs::generate(workload, 8, 2.0);
        assert_eq!(sequence(&a), sequence(&b), "{}", workload.name());
        assert_eq!(a.open, b.open, "{}: arrival schedule", workload.name());
        assert_ne!(sequence(&a), sequence(&c), "{}", workload.name());
    }
}

/// The `name value unit` lines of one benchmark run, by name.
fn run_benchmark(workload: &str, seed: u64) -> std::collections::HashMap<String, f64> {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{workload}-{seed}"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let output = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "0"])
        .current_dir(&dir)
        .output()
        .expect("run the benchmark");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        stdout
            .lines()
            .last()
            .unwrap_or("")
            .contains("\"correct\":true"),
        "{stdout}"
    );
    stdout
        .lines()
        .filter_map(|line| {
            let mut fields = line.split(' ');
            Some((fields.next()?.to_string(), fields.next()?.parse().ok()?))
        })
        .collect()
}

#[test]
fn same_seed_same_accuracy() {
    let a = run_benchmark("deploy_hot", 3);
    let b = run_benchmark("deploy_hot", 3);
    for metric in ["answer_accuracy", "gold_in_topk"] {
        assert_eq!(a[metric], b[metric], "{metric}");
        assert!(a[metric] > 0.0, "{metric}");
    }
    assert_eq!(a["success_rate"], 1.0);
}

#[test]
fn deploy_hot_pool_fits_the_answer_cache_and_is_prewarmed() {
    let inputs = Inputs::generate(Workload::DeployHot, 11, 2.0);
    let pool = inputs.questions.len();
    assert!(pool >= 200, "a few hundred pooled questions, got {pool}");
    assert!(pool <= ServerConfig::default().cache_capacity);
    let keys: HashSet<_> = inputs
        .questions
        .iter()
        .map(|q| (normalize_question(&q.text), q.table.clone()))
        .collect();
    assert_eq!(
        keys.len(),
        pool,
        "pooled questions map to distinct cache keys"
    );
    let prewarmed: HashSet<usize> = inputs.warmup.iter().flat_map(|r| r.questions()).collect();
    assert_eq!(prewarmed.len(), pool);
    assert!(inputs
        .timed_requests()
        .all(|request| request.len == 1 && prewarmed.contains(&(request.start as usize))));
}

#[test]
fn deploy_cold_never_repeats_and_outgrows_the_answer_cache() {
    let open_secs = 30.0 * Workload::DeployCold.open_share();
    let inputs = Inputs::generate(Workload::DeployCold, 11, open_secs);
    let mut seen = HashSet::new();
    for (text, table) in sequence(&inputs) {
        assert!(
            seen.insert((normalize_question(&text), table)),
            "repeated: {text}"
        );
    }
    let timed = inputs.timed_requests().count();
    assert!(
        timed > ServerConfig::default().cache_capacity,
        "{timed} timed questions"
    );
    assert!(
        inputs.open.len() >= 1000,
        "{} open-loop arrivals",
        inputs.open.len()
    );
}

#[test]
fn annotate_batches_span_distinct_tables() {
    let inputs = Inputs::generate(Workload::AnnotateBatch, 11, 0.0);
    assert!(inputs.open.is_empty(), "closed loop only");
    assert!(inputs.closed.len() >= Workload::AnnotateBatch.closed_min_requests());
    let mut seen = HashSet::new();
    for batch in inputs.warmup.iter().chain(&inputs.closed) {
        assert_eq!(batch.len as usize, BATCH_SIZE);
        let tables: HashSet<&str> = batch
            .questions()
            .map(|index| inputs.questions[index].table.as_str())
            .collect();
        assert_eq!(tables.len(), BATCH_SIZE, "batch repeats a table");
        for index in batch.questions() {
            let question = &inputs.questions[index];
            assert!(seen.insert((normalize_question(&question.text), question.table.clone())));
        }
    }
    for table in &inputs.tables {
        assert!(
            (256..=512).contains(&table.num_records()),
            "{} rows",
            table.num_records()
        );
    }
}

#[test]
fn proc_task_parser_reads_the_fixture() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/task");
    let (comm, counters) = procfs::read_task(&dir).expect("fixture parses");
    assert_eq!(comm, "wtq-dispatch-3");
    assert_eq!(
        counters,
        TaskCounters {
            cpu_ns: 10_003_456_789,
            ctx_switches: 40_000,
            rw_syscalls: 30_001,
        }
    );
    let stat = std::fs::read_to_string(dir.join("stat")).expect("fixture");
    assert_eq!(
        procfs::parse_stat(&stat).map(|(_, ns)| ns),
        Some(10_000_000_000)
    );
    // A name with spaces and parentheses: fields count from the last ')'.
    let odd = "7 (a b) c) R 1 1 1 0 -1 0 0 0 0 0 5 7 0 0 20 0";
    assert_eq!(
        procfs::parse_stat(odd),
        Some(("a b) c".to_string(), 120_000_000))
    );
    assert_eq!(procfs::group_of(9, "wtq-reactor-1", 1), Group::Reactor);
    assert_eq!(procfs::group_of(9, "wtq-dispatch-65", 1), Group::Dispatch);
    assert_eq!(procfs::group_of(1, "servebench", 1), Group::Bench);
    assert_eq!(procfs::group_of(9, "wtq-server-acce", 1), Group::Other);
}

#[test]
fn scrape_stage_means() {
    let before = Scrape::parse(
        "# TYPE wtq_request_stage_duration_seconds histogram\n\
         wtq_request_stage_duration_seconds_sum{stage=\"queue_wait\"} 0.5\n\
         wtq_request_stage_duration_seconds_count{stage=\"queue_wait\"} 1000\n",
    );
    let after = Scrape::parse(
        "wtq_request_stage_duration_seconds_sum{stage=\"queue_wait\"} 0.7\n\
         wtq_request_stage_duration_seconds_count{stage=\"queue_wait\"} 1100\n\
         wtq_answer_cache_ops_total{op=\"hit\"} 42\n",
    );
    assert!((after.stage_mean_us(&before, "queue_wait") - 2000.0).abs() < 1e-6);
    assert_eq!(after.stage_mean_us(&before, "admission_wait"), 0.0);
    assert_eq!(
        after.delta(&before, "wtq_answer_cache_ops_total{op=\"hit\"}"),
        42.0
    );
}

#[test]
fn hit_check_accepts_only_the_prewarm_bytes() {
    let question = Question {
        text: "Which \"city\" hosted?".into(),
        table: "olympics".into(),
        gold: wtq_dcs::Answer::number(1.0),
    };
    let envelope = |id: u64, candidates: &str| {
        let mut out = format!("{{\"v\":1,\"id\":{id},\"body\":{{\"Explanation\":{{\"question\":")
            .into_bytes();
        wtq_server::wire::write_json_string(&mut out, &question.text);
        out.extend_from_slice(b",\"table\":\"olympics\",\"candidates\":");
        out.extend_from_slice(candidates.as_bytes());
        out.extend_from_slice(wtq_server::wire::SPLICE_ENVELOPE_TAIL);
        out
    };
    let candidates = r#"[{"formula":"max(R[Year])","highlights":"a ] [ b"}]"#;
    let expected = HitExpectation::from_prewarm(&envelope(100_000_000, candidates), &question)
        .expect("prewarm response parses");
    assert_eq!(
        expected.check(123_456_789, &envelope(123_456_789, candidates)),
        Ok(())
    );
    assert!(expected
        .check(123_456_788, &envelope(123_456_789, candidates))
        .is_err());
    let other = candidates.replace("Year", "Yaer");
    assert!(expected
        .check(123_456_789, &envelope(123_456_789, &other))
        .is_err());
    assert_eq!(
        json_value_end(candidates.as_bytes(), 0),
        Some(candidates.len())
    );
    assert_ne!(digest(candidates.as_bytes()), digest(other.as_bytes()));
}

#[test]
fn templates_patch_only_the_id() {
    let template = Template::encode(wtq_server::RequestBody::ListTables);
    let mut frame = Vec::new();
    let patched = template.with_id(100_000_042, &mut frame).to_vec();
    let text = std::str::from_utf8(&patched[4..]).expect("UTF-8");
    assert_eq!(text, "{\"v\":1,\"id\":100000042,\"body\":\"ListTables\"}");
    assert_eq!(
        u32::from_be_bytes(patched[..4].try_into().unwrap()) as usize,
        text.len()
    );
}
