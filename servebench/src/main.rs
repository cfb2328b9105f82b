//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the serving benchmark and prints every metric as a
//! `name value unit` line, then one JSON object on the last line:
//! end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.

use std::collections::{BTreeMap, HashSet};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wtq_core::{candidates_json, Engine};
use wtq_server::{Client, Server, ServerConfig, ServerHandle};
use wtq_table::{Catalog, TableIndex};

use wtq_servebench::check::{Checker, HitExpectation, Tally, Templates, ID_BASE};
use wtq_servebench::gen::{self, ClosedPlan, PhaseResult};
use wtq_servebench::procfs::{self, Group};
use wtq_servebench::prom::Scrape;
use wtq_servebench::replay::{self, Tracer};
use wtq_servebench::workload::{Inputs, Request, Workload, TOP_K};
use wtq_servebench::{generator_width, median, percentile};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Answers compared byte for byte with in-process explanation.
const BYTE_CHECK_SAMPLE: usize = 16;
/// Questions replayed in-process by the traced run.
const REPLAY_QUESTIONS: usize = 160;
/// Where the traced run writes its spans (inside the checkout).
const OUT_DIR: &str = ".servebench-out";
/// Slices of a phase whose median throughput is `capacity_qps`.
const WINDOWS: usize = 10;
/// First request id of each phase.
const OPEN_ID_BASE: u64 = ID_BASE + 10_000_000;
const CLOSED_ID_BASE: u64 = ID_BASE + 20_000_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|arg| arg == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    Ok(Args {
        workload: Workload::from_name(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: value("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: value("--seconds")?.parse().map_err(|_| "bad --seconds")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
    })
}

/// A booted server with its inputs, warmed up and ready for the first
/// timed request.
struct Setup {
    inputs: Inputs,
    engine: Arc<Engine>,
    catalog: Arc<Catalog>,
    server: ServerHandle,
    templates: Templates,
    /// `deploy_hot`: what each pooled question's hits must look like.
    hits: Vec<Option<HitExpectation>>,
    /// Checks of the set-up traffic (and `deploy_hot`'s scored pool).
    warmup: Tally,
    warmup_attempted: u64,
    streams: Vec<TcpStream>,
    control: Client,
    /// Questions whose raw answers are compared with in-process explanation.
    keep: HashSet<usize>,
}

fn setup(args: &Args, open_secs: f64) -> Result<Setup, String> {
    let inputs = Inputs::generate(args.workload, args.seed, open_secs);
    let templates = Templates::encode(&inputs);
    let engine = Arc::new(Engine::new());
    let catalog: Arc<Catalog> = Arc::new(inputs.tables.iter().cloned().collect());
    for table in &inputs.tables {
        engine.index_for(table);
    }
    let server = Server::bind(
        "127.0.0.1:0",
        engine.clone(),
        catalog.clone(),
        ServerConfig::default(),
    )
    .map_err(|err| format!("bind: {err}"))?;
    let addr = server.local_addr();
    let mut streams =
        gen::connect(addr, generator_width()).map_err(|err| format!("connect: {err}"))?;
    let control = Client::connect(addr).map_err(|err| format!("connect: {err}"))?;
    let keep = byte_check_sample(&inputs, args.seed);

    // Warm up: deploy_hot prewarms (and scores) every pooled question;
    // the miss workloads answer a few reserved questions.
    let hot = inputs.workload == Workload::DeployHot;
    let mut warmup = Tally::default();
    let mut hits = vec![None; if hot { inputs.questions.len() } else { 0 }];
    let checker = Checker {
        inputs: &inputs,
        hits: &[],
        keep: &keep,
    };
    for (offset, &request) in inputs.warmup.iter().enumerate() {
        let id = ID_BASE + offset as u64;
        match gen::round_trip(&mut streams[0], &templates, request, id) {
            Ok(payload) => {
                let failures = warmup.failures.len();
                checker.check(request, id, &payload, hot, &mut warmup);
                if hot && warmup.failures.len() == failures {
                    let question = &inputs.questions[request.start as usize];
                    match HitExpectation::from_prewarm(&payload, question) {
                        Ok(expected) => hits[request.start as usize] = Some(expected),
                        Err(reason) => warmup.fail(&inputs, request, &reason),
                    }
                }
            }
            Err(reason) => warmup.fail(&inputs, request, &reason),
        }
    }
    Ok(Setup {
        warmup_attempted: inputs.warmup.len() as u64,
        inputs,
        engine,
        catalog,
        server,
        templates,
        hits,
        warmup,
        streams,
        control,
        keep,
    })
}

/// The seeded sample of questions whose served answers are compared byte
/// for byte with in-process `Engine::explain_question` + `candidates_json`:
/// drawn from the scored set, which every run completes.
fn byte_check_sample(inputs: &Inputs, seed: u64) -> HashSet<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xb17e_c4ec);
    let scored: Vec<usize> = match inputs.workload {
        Workload::DeployHot => (0..inputs.questions.len()).collect(),
        _ => scored_requests(inputs)
            .flat_map(|r| r.questions())
            .collect(),
    };
    scored
        .choose_multiple(&mut rng, BYTE_CHECK_SAMPLE)
        .copied()
        .collect()
}

/// The miss workloads' scored requests: every open-loop request and the
/// closed loop's first `closed_min_requests`, which every run completes.
fn scored_requests(inputs: &Inputs) -> impl Iterator<Item = Request> + '_ {
    let closed = inputs
        .workload
        .closed_min_requests()
        .min(inputs.closed.len());
    inputs
        .open
        .iter()
        .map(|(_, r)| *r)
        .chain(inputs.closed[..closed].iter().copied())
}

/// The seeded sample of requests the traced run replays in-process.
fn replay_sample(inputs: &Inputs, seed: u64) -> Vec<Request> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x004e_91a7);
    let pool: Vec<Request> = match inputs.workload {
        Workload::DeployHot => inputs.open.iter().map(|(_, r)| *r).collect(),
        _ => scored_requests(inputs).collect(),
    };
    let per_request = pool.first().map_or(1, |r| r.len as usize);
    pool.choose_multiple(&mut rng, REPLAY_QUESTIONS / per_request)
        .copied()
        .collect()
}

/// Compare the kept served answers with in-process explanation.
fn byte_check(setup: &Setup, kept: &[(usize, Vec<u8>)]) -> Vec<String> {
    kept.iter()
        .filter_map(|(index, served)| {
            let question = &setup.inputs.questions[*index];
            let table = setup.catalog.get(&question.table)?;
            let explained = setup.engine.explain_question(&question.text, table, TOP_K);
            (candidates_json(&explained, table) != *served).then(|| {
                format!(
                    "served answer differs from in-process explanation (question {:?} on table {})",
                    question.text, question.table
                )
            })
        })
        .collect()
}

/// Everything the timed phases produced.
struct Phases {
    open: Option<PhaseResult>,
    closed: PhaseResult,
}

fn run_phases(setup: &mut Setup, args: &Args, open_secs: f64) -> Phases {
    let workload = setup.inputs.workload;
    let checker = Checker {
        inputs: &setup.inputs,
        hits: &setup.hits,
        keep: &setup.keep,
    };
    let open = (!setup.inputs.open.is_empty()).then(|| {
        gen::open_loop(
            &mut setup.streams,
            &setup.inputs.open,
            &setup.templates,
            &checker,
            OPEN_ID_BASE,
            workload == Workload::DeployCold,
        )
    });
    let plan = ClosedPlan {
        requests: &setup.inputs.closed,
        cycle: workload == Workload::DeployHot,
        duration: Duration::from_secs_f64((args.seconds - open_secs).max(0.0)),
        min_requests: workload.closed_min_requests(),
        id_base: CLOSED_ID_BASE,
    };
    let closed = gen::closed_loop(&mut setup.streams, &plan, &setup.templates, &checker);
    Phases { open, closed }
}

/// Metric name → (value, unit), printed in insertion order of the caller.
type Metrics = BTreeMap<String, (f64, &'static str)>;

fn put(metrics: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    metrics.insert(name.to_string(), (value, unit));
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The traced run's server-side bracket: OS counters and a scrape.
struct Bracket {
    tasks: BTreeMap<u64, (String, procfs::TaskCounters)>,
    process_cpu_ns: u64,
    scrape: Scrape,
}

fn bracket(control: &mut Client) -> Result<Bracket, String> {
    let scrape = Scrape::parse(&control.metrics().map_err(|err| format!("scrape: {err}"))?);
    Ok(Bracket {
        tasks: procfs::snapshot(),
        process_cpu_ns: procfs::process_cpu_ns(),
        scrape,
    })
}

fn server_layer_metrics(metrics: &mut Metrics, before: &Bracket, after: &Bracket, phases: &Phases) {
    let pid = std::process::id() as u64;
    let groups = procfs::group_deltas(&before.tasks, &after.tasks, pid);
    let requests = phases.closed.attempted + phases.open.as_ref().map_or(0, |p| p.attempted);
    let questions =
        phases.closed.tally.questions_ok + phases.open.as_ref().map_or(0, |p| p.tally.questions_ok);
    let per_req = |v: u64| v as f64 / requests.max(1) as f64;
    let gen_counters = generator_counters(phases);
    let group = |g: Group| groups.get(&g).copied().unwrap_or_default();
    for (prefix, g) in [
        ("reactor", Group::Reactor),
        ("dispatch", Group::Dispatch),
        ("other", Group::Other),
    ] {
        let (counters, threads) = group(g);
        put(
            metrics,
            &format!("{prefix}.cpu_us_per_req"),
            per_req(counters.cpu_ns) / 1e3,
            "us",
        );
        if g != Group::Other {
            put(
                metrics,
                &format!("{prefix}.ctx_switches_per_req"),
                per_req(counters.ctx_switches),
                "count",
            );
            put(
                metrics,
                &format!("{prefix}.rw_syscalls_per_req"),
                per_req(counters.rw_syscalls),
                "count",
            );
        }
        if g != Group::Reactor {
            put(
                metrics,
                &format!("{prefix}.threads"),
                threads as f64,
                "count",
            );
        }
    }
    let process_ns = after.process_cpu_ns.saturating_sub(before.process_cpu_ns);
    let bench_live = group(Group::Bench).0.cpu_ns;
    let server_ns = process_ns.saturating_sub(gen_counters.cpu_ns + bench_live);
    put(
        metrics,
        "server.cpu_us_per_req",
        per_req(server_ns) / 1e3,
        "us",
    );
    let accounted: u64 = groups.values().map(|(c, _)| c.cpu_ns).sum::<u64>() + gen_counters.cpu_ns;
    put(
        metrics,
        "reconcile.cpu_gap_frac",
        (process_ns as f64 - accounted as f64) / process_ns.max(1) as f64,
        "fraction",
    );

    let (s0, s1) = (&before.scrape, &after.scrape);
    put(
        metrics,
        "dispatch.queue_wait_us",
        s1.stage_mean_us(s0, "queue_wait"),
        "us",
    );
    put(
        metrics,
        "dispatch.admission_wait_us",
        s1.stage_mean_us(s0, "admission_wait"),
        "us",
    );
    let op = |name: &str| s1.delta(s0, &format!("wtq_answer_cache_ops_total{{op=\"{name}\"}}"));
    let (hits, misses) = (op("hit"), op("miss"));
    put(
        metrics,
        "cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "fraction",
    );
    let evictions: f64 = ["lru", "ttl", "stale"]
        .iter()
        .map(|reason| {
            s1.delta(
                s0,
                &format!("wtq_answer_cache_evictions_total{{reason=\"{reason}\"}}"),
            )
        })
        .sum();
    put(
        metrics,
        "cache.evictions_per_req",
        evictions / questions.max(1) as f64,
        "count",
    );
    put(
        metrics,
        "cache.bytes",
        s1.get("wtq_answer_cache_bytes"),
        "bytes",
    );
}

/// CPU, context switches and syscalls of every generator thread.
fn generator_counters(phases: &Phases) -> procfs::TaskCounters {
    let mut counters = phases.closed.gen;
    if let Some(open) = &phases.open {
        counters.add(open.gen);
    }
    counters
}

/// The `gen.*` metrics: whether the generator kept up with its schedule.
fn generator_metrics(metrics: &mut Metrics, phases: &Phases) {
    let requests = phases.closed.attempted + phases.open.as_ref().map_or(0, |p| p.attempted);
    let cpu_ns = generator_counters(phases).cpu_ns;
    put(
        metrics,
        "gen.cpu_us_per_req",
        cpu_ns as f64 / 1e3 / requests.max(1) as f64,
        "us",
    );
    let mut lag = phases
        .open
        .as_ref()
        .map_or(Vec::new(), |p| p.lag_ns.clone());
    lag.sort_unstable();
    put(metrics, "gen.lag_p99_ms", ms(percentile(&lag, 99.0)), "ms");
    let outstanding = phases
        .open
        .as_ref()
        .map_or(0, |p| p.max_outstanding)
        .max(phases.closed.max_outstanding);
    put(metrics, "gen.max_outstanding", outstanding as f64, "count");
}

fn print_report(metrics: &Metrics) {
    for (name, (value, unit)) in metrics {
        println!("{name} {value} {unit}");
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            let value = if value.is_finite() { *value } else { -1.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

fn run(args: &Args, process_start: Instant) -> Result<(), String> {
    let open_secs = args.seconds * args.workload.open_share();

    // Set up several times and keep the last; setup_s is the median.
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_secs = Vec::new();
    let mut ready = None;
    for attempt in 0..repeats {
        let started = if attempt == 0 {
            process_start
        } else {
            Instant::now()
        };
        if let Some(previous) = ready.take() {
            let Setup { server, .. } = previous;
            server.shutdown();
        }
        ready = Some(setup(args, open_secs)?);
        setup_secs.push(started.elapsed().as_secs_f64());
    }
    let mut setup = ready.expect("at least one set-up");
    eprintln!(
        "set-up: {} tables, {} questions, {} warm-up requests, {:?} s",
        setup.inputs.tables.len(),
        setup.inputs.questions.len(),
        setup.inputs.warmup.len(),
        setup_secs
    );

    let before = if args.trace {
        Some(bracket(&mut setup.control)?)
    } else {
        None
    };
    let phases = run_phases(&mut setup, args, open_secs);
    let after = if args.trace {
        Some(bracket(&mut setup.control)?)
    } else {
        None
    };

    // Answer checks of the whole run.
    let mut tally = std::mem::take(&mut setup.warmup);
    let mut attempted = setup.warmup_attempted + phases.closed.attempted;
    if let Some(open) = &phases.open {
        attempted += open.attempted;
    }
    let (open_tally, closed_tally) = (phases.open.as_ref().map(|p| &p.tally), &phases.closed.tally);
    let kept: Vec<(usize, Vec<u8>)> = tally
        .kept
        .iter()
        .chain(open_tally.map_or(&[][..], |t| &t.kept[..]))
        .chain(&closed_tally.kept)
        .cloned()
        .collect();
    let mut failures = byte_check(&setup, &kept);
    failures.append(&mut tally.failures);
    if let Some(t) = open_tally {
        failures.extend(t.failures.iter().cloned());
    }
    failures.extend(closed_tally.failures.iter().cloned());
    attempted += kept.len() as u64;
    for failure in &failures {
        eprintln!("FAILED: {failure}");
    }
    let failed = failures.len() as u64;

    // The scored set: deploy_hot's pool at prewarm, the miss workloads'
    // open-loop requests and first closed-loop requests.
    let tallies = [Some(&tally), open_tally, Some(closed_tally)];
    let total = |field: fn(&Tally) -> u64| tallies.iter().flatten().map(|t| field(t)).sum::<u64>();
    let scored = total(|t| t.scored);
    // The gated latency comes from the closed loop, where the CPUs stay
    // busy; the open-loop percentiles mostly measure how fast this VM wakes
    // an idle vCPU and are printed only (see README.md).
    let latencies = phases.closed.sorted_latencies();
    eprintln!(
        "phases: open {} requests in {:?}, closed {} requests in {:?}; scored {scored} questions",
        phases.open.as_ref().map_or(0, |p| p.attempted),
        phases.open.as_ref().map_or(Duration::ZERO, |p| p.elapsed),
        phases.closed.attempted,
        phases.closed.elapsed,
    );
    if latencies.len() < 1000 {
        eprintln!(
            "warning: {} closed-loop samples leave fewer than 10 beyond p99",
            latencies.len()
        );
    }
    let error_rate = failed as f64 / attempted.max(1) as f64;
    println!("latency_p99_ms {} ms", ms(percentile(&latencies, 99.0)));
    if let Some(open) = &phases.open {
        let open = open.sorted_latencies();
        println!(
            "open_loop.latency_p50_ms {} ms",
            ms(percentile(&open, 50.0))
        );
        println!(
            "open_loop.latency_p99_ms {} ms",
            ms(percentile(&open, 99.0))
        );
    }
    println!("error_rate {error_rate} fraction");
    let mut e2e = Metrics::new();
    put(&mut e2e, "setup_s", median(&setup_secs), "s");
    put(
        &mut e2e,
        "latency_p50_ms",
        ms(percentile(&latencies, 50.0)),
        "ms",
    );
    put(
        &mut e2e,
        "capacity_qps",
        median(&phases.closed.windowed_throughput(WINDOWS)),
        "questions/s",
    );
    put(&mut e2e, "success_rate", 1.0 - error_rate, "fraction");
    let share = |n: u64| n as f64 / scored.max(1) as f64;
    put(
        &mut e2e,
        "answer_accuracy",
        share(total(|t| t.top1_correct)),
        "fraction",
    );
    put(
        &mut e2e,
        "gold_in_topk",
        share(total(|t| t.gold_in_topk)),
        "fraction",
    );
    put(
        &mut e2e,
        "peak_rss_mb",
        procfs::peak_rss_kib() as f64 / 1024.0,
        "MiB",
    );
    let correct = failed == 0 && scored > 0;

    std::fs::create_dir_all(OUT_DIR).map_err(|err| format!("create {OUT_DIR}: {err}"))?;
    let e2e_file = format!("{OUT_DIR}/e2e-{}-{}.txt", args.workload.name(), args.seed);
    let capacity = e2e["capacity_qps"].0;
    let mut generator = Metrics::new();
    generator_metrics(&mut generator, &phases);
    if !args.trace {
        print_report(&generator);
        print_report(&e2e);
        let _ = std::fs::write(&e2e_file, format!("{capacity}\n"));
        println!("{}", result_line(correct, attempted, failed, &e2e));
        return Ok(());
    }

    // Traced run: server layers from the bracket, engine layers from an
    // in-process replay.
    let mut layers = Metrics::new();
    let (before, after) = (before.expect("traced"), after.expect("traced"));
    server_layer_metrics(&mut layers, &before, &after, &phases);
    layers.append(&mut generator);
    let Setup {
        server,
        inputs,
        engine,
        catalog,
        ..
    } = setup;
    server.shutdown();
    let build_ms: Vec<f64> = inputs
        .tables
        .iter()
        .map(|table| {
            let started = Instant::now();
            std::hint::black_box(TableIndex::new(table));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    put(
        &mut layers,
        "table.index_build_ms",
        build_ms.iter().sum::<f64>() / build_ms.len() as f64,
        "ms",
    );
    let mut tracer = Tracer::default();
    let sample = replay_sample(&inputs, args.seed);
    let (engine_layers, mismatches) = replay::replay(
        &engine,
        &catalog,
        &inputs,
        &sample,
        inputs.workload == Workload::DeployHot,
        &mut tracer,
    );
    for (name, value) in engine_layers {
        let unit = match name {
            n if n.ends_with("_us") => "us",
            n if n.ends_with("_frac") || n.ends_with("_ratio") || n.ends_with("efficiency") => {
                "fraction"
            }
            "core.response_bytes" => "bytes",
            _ => "count",
        };
        put(&mut layers, name, value, unit);
    }
    if mismatches > 0 {
        eprintln!("note: the stage-by-stage ranking differs from Session::parse on {mismatches} replayed questions");
    }
    eprintln!("replay self time by span (count, total ms, self ms):");
    for (name, (count, total, own)) in tracer.self_times() {
        eprintln!(
            "  {name:<24} {count:>6} {:>10.3} {:>10.3}",
            ms(total),
            ms(own)
        );
    }
    let spans_file = format!(
        "{OUT_DIR}/spans-{}-{}.jsonl",
        inputs.workload.name(),
        args.seed
    );
    std::fs::write(&spans_file, tracer.to_jsonl())
        .map_err(|err| format!("write {spans_file}: {err}"))?;
    eprintln!("spans written to {spans_file}");
    match std::fs::read_to_string(&e2e_file).ok().and_then(|s| s.trim().parse::<f64>().ok()) {
        Some(untraced) => println!(
            "tracing overhead: capacity_qps {untraced:.1} untraced vs {capacity:.1} traced ({:+.2}%)",
            (capacity - untraced) / untraced * 100.0
        ),
        None => println!("tracing overhead: no untraced run of this workload and seed to compare with"),
    }
    print_report(&e2e);
    print_report(&layers);
    println!("{}", result_line(correct, attempted, failed, &layers));
    Ok(())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\nusage: servebench --workload <deploy_hot|deploy_cold|annotate_batch> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args, process_start) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("servebench: {err}");
            ExitCode::FAILURE
        }
    }
}
