//! Regenerate every table and figure of the paper's evaluation (§7) on the
//! synthetic substrate and print a paper-vs-measured report.
//!
//! Usage:
//!
//! ```text
//! cargo run -p wtq-bench --bin experiments --release [-- --section <name>]
//! ```
//!
//! Sections: `table4`, `table5`, `table6`, `ksweep`, `table7`, `table9`,
//! `figures`, `gallery`, `operators`, `examples`, `exec`, `parse`,
//! `serve`, `cache`, `encode`, `obs`. With no argument every section is
//! produced.
//!
//! `--exec-json [path]` additionally writes the execution-layer report
//! (indexed vs scan timings, candidate throughput, cache statistics, and —
//! when the `parse` / `serve` / `cache` / `obs` sections ran — the
//! parse-stage breakdown under `parsing`, the loopback serving latency
//! percentiles under `serving`, the Zipfian answer-cache replay under
//! `caching` and the `/metrics`-scraped percentiles plus tracing overhead
//! under `observability`) as machine-readable JSON — `BENCH_exec.json` by
//! default.

use wtq_bench::{
    environment, k_sweep, raw_formula_control, table4, table5, table6, table7, table9,
};
use wtq_core::Engine;
use wtq_dcs::parse_formula;
use wtq_explain::{derivation, utter};
use wtq_provenance::{render, Highlights};
use wtq_sql::translate;
use wtq_table::samples;

fn wanted(section: &str) -> bool {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--section") {
        Some(index) => args.get(index + 1).map(|s| s == section).unwrap_or(true),
        None => true,
    }
}

/// The `--exec-json [path]` flag: `Some(path)` when JSON output is wanted.
fn exec_json_path() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let index = args.iter().position(|a| a == "--exec-json")?;
    Some(
        args.get(index + 1)
            .filter(|next| !next.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "BENCH_exec.json".to_string()),
    )
}

fn heading(title: &str) {
    println!("\n## {title}\n");
}

fn main() {
    println!("# Experiment report — Explaining Queries over Web Tables to Non-Experts");
    println!(
        "\nSynthetic substrate (see DESIGN.md); all numbers deterministic for the fixed seed."
    );

    // A moderately sized environment keeps the full run under a minute in
    // release mode while leaving enough test questions for stable numbers.
    let env = environment(20, 10, 80);
    println!(
        "\nEnvironment: {} tables, {} examples ({} test questions used).",
        env.dataset.tables.len(),
        env.dataset.examples.len(),
        env.test_examples.len()
    );

    if wanted("table4") {
        heading("Table 4 — user-study success rate");
        let t4 = table4(&env);
        let control = raw_formula_control(&env);
        println!("| metric | paper | measured |");
        println!("|---|---|---|");
        println!("| distinct questions | 405 | {} |", t4.questions);
        println!("| explanations shown | 2,835 | {} |", t4.explanations);
        println!("| success rate | 78.4% | {:.1}% |", t4.success_rate * 100.0);
        println!(
            "| success rate without explanations (raw lambda DCS) | \"failed\" | {:.1}% |",
            control * 100.0
        );
    }

    if wanted("table5") {
        heading("Table 5 — work time (minutes per 20-question session)");
        let [with, without] = table5(&env, 10);
        println!(
            "| method | paper avg | measured avg | paper median | measured median | min | max |"
        );
        println!("|---|---|---|---|---|---|---|");
        println!(
            "| utterances + highlights | 16.2 | {:.1} | 16.6 | {:.1} | {:.1} | {:.1} |",
            with.0, with.1, with.2, with.3
        );
        println!(
            "| utterances only | 24.7 | {:.1} | 20.7 | {:.1} | {:.1} | {:.1} |",
            without.0, without.1, without.2, without.3
        );
        println!(
            "\nMeasured saving: {:.0}% of average work time (paper: 34%).",
            (1.0 - with.0 / without.0) * 100.0
        );
    }

    if wanted("table6") {
        heading("Table 6 — correctness at deployment (top-7)");
        let t6 = table6(&env);
        let d = &t6.deployment;
        println!("| scenario | paper | measured |");
        println!("|---|---|---|");
        println!(
            "| parser (top-1) | 37.1% | {:.1}% |",
            d.parser_correctness * 100.0
        );
        println!("| users | 44.6% | {:.1}% |", d.user_correctness * 100.0);
        println!("| hybrid | 48.7% | {:.1}% |", d.hybrid_correctness * 100.0);
        println!("| bound (top-7) | 56.0% | {:.1}% |", d.bound * 100.0);
        println!("| MRR | — | {:.3} |", d.mrr);
        println!(
            "\nχ² users vs parser: {:.2} (significant at 0.01: {}); hybrid vs parser: {:.2} ({}).",
            t6.user_vs_parser.0, t6.user_vs_parser.1, t6.hybrid_vs_parser.0, t6.hybrid_vs_parser.1
        );
    }

    if wanted("ksweep") {
        heading("§7.2 — correctness bound as a function of k");
        println!("| k | measured bound |");
        println!("|---|---|");
        for (k, coverage) in k_sweep(&env, &[1, 3, 7, 14]) {
            println!("| {k} | {:.1}% |", coverage * 100.0);
        }
        println!(
            "\nPaper: moving from k = 7 to k = 14 recovered only ~5% of the remaining failures."
        );
    }

    if wanted("table7") {
        heading("Table 7 — average execution time per question (seconds)");
        let t7 = table7(&env, 7);
        println!("| stage | paper | measured |");
        println!("|---|---|---|");
        println!(
            "| candidate generation | 1.22 | {:.6} |",
            t7.candidate_generation
        );
        println!(
            "| utterance generation | 0.22 | {:.6} |",
            t7.utterance_generation
        );
        println!(
            "| highlight generation | 1.36 | {:.6} |",
            t7.highlight_generation
        );
        println!(
            "\nAbsolute times differ (different hardware and parser); the ordering —\nutterances an order of magnitude cheaper than candidate/highlight generation — is preserved."
        );
    }

    if wanted("table9") {
        heading("Table 9 — effect of user feedback on retraining");
        let rows = table9(&env, 60, 2);
        println!("| train ex. | annotations | correctness | MRR | paper analogue |");
        println!("|---|---|---|---|---|");
        let analogues = [
            "1,650 train / 1,650 annotations → 49.8% / 0.586",
            "1,650 train / 0 annotations → 41.8% / 0.499",
            "11,000 train / 1,650 annotations → 51.6% / 0.600",
            "11,000 train / 0 annotations → 49.5% / 0.570",
        ];
        for (row, analogue) in rows.iter().zip(analogues) {
            println!(
                "| {} | {} | {:.1}% | {:.3} | {} |",
                row.train_examples,
                row.annotations,
                row.correctness * 100.0,
                row.mrr,
                analogue
            );
        }
    }

    if wanted("figures") {
        heading("Figures 1, 3, 6, 8 — running examples");
        let engine = Engine::new();
        let olympics = samples::olympics();
        let question = "Greece held its last Olympics in what year?";
        println!("Figure 1 question: {question}");
        let explained = engine.explain_question(question, &olympics, 1);
        if let Some(top) = explained.first() {
            println!("top candidate : {}", top.formula);
            println!("utterance     : {}", top.utterance);
            println!("answer        : {}", top.answer);
            println!("{}", top.render_highlights(&olympics, false));
        }
        let figure1 = parse_formula("max(R[Year].Country.Greece)").expect("parses");
        println!(
            "Figure 3 derivation tree:\n{}",
            derivation(&figure1).render_tree()
        );
        let medals = samples::medals();
        let figure6 = parse_formula("sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)").unwrap();
        let highlights = Highlights::compute(&figure6, &medals).unwrap();
        println!("Figure 6 — {}", utter(&figure6));
        println!("{}", render::render_text(&medals, &highlights));
    }

    if wanted("gallery") {
        heading("Figures 11–22 — operator highlight gallery");
        let cases: Vec<(&str, &str, wtq_table::Table)> = vec![
            ("Figure 11 simple join", "Name.Jule", samples::yachts()),
            ("Figure 12 comparison", "Games.(> 4)", samples::squad()),
            (
                "Figure 13 reverse join",
                "R[Year].City.Athens",
                samples::olympics(),
            ),
            (
                "Figure 14 previous",
                "R[City].Prev.City.London",
                samples::olympics(),
            ),
            (
                "Figure 15 next",
                "R[City].R[Prev].City.Athens",
                samples::olympics(),
            ),
            (
                "Figure 16 aggregation",
                "count(City.Athens)",
                samples::olympics(),
            ),
            (
                "Figure 17 difference (values)",
                "sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)",
                samples::medals(),
            ),
            (
                "Figure 18 difference (occurrences)",
                "sub(count(Town.Matsuyama), count(Town.Imabari))",
                samples::temples(),
            ),
            (
                "Figure 19 union",
                "R[City].(Country.China or Country.Greece)",
                samples::olympics(),
            ),
            (
                "Figure 20 intersection",
                "R[City].(Country.UK and Year.2012)",
                samples::olympics(),
            ),
            (
                "Figure 21 superlative (values)",
                "compare_max((London or Beijing), Year, City)",
                samples::olympics(),
            ),
            (
                "Figure 22 superlative (occurrences)",
                "most_common(R[Lake].Rows, Lake)",
                samples::shipwrecks(),
            ),
        ];
        for (name, formula_text, table) in cases {
            let formula = parse_formula(formula_text).expect("gallery formula parses");
            let highlights = Highlights::compute(&formula, &table).expect("evaluates");
            println!("### {name}\n");
            println!("utterance: {}\n", utter(&formula));
            println!("{}", render::render_text(&table, &highlights));
        }
        println!("{}", render::TEXT_LEGEND);
    }

    if wanted("operators") {
        heading("Table 10 — lambda DCS operators, SQL translation and provenance sizes");
        let table = samples::olympics();
        println!("| operator | lambda DCS | SQL | |P_O| / |P_E| / |P_C| |");
        println!("|---|---|---|---|");
        for (name, text) in [
            ("Column Records", "City.Athens"),
            ("Column Values", "R[Year].City.Athens"),
            ("Preceding Records", "R[Year].Prev.City.Athens"),
            ("Following Records", "R[Year].R[Prev].City.Athens"),
            ("Aggregation", "sum(R[Year].City.Athens)"),
            (
                "Difference of Values",
                "sub(R[Year].City.London, R[Year].City.Beijing)",
            ),
            (
                "Difference of Occurrences",
                "sub(count(City.Athens), count(City.London))",
            ),
            ("Union of Values", "(Country.China or Country.Greece)"),
            ("Intersection of Records", "(City.London and Country.UK)"),
            ("Records with Highest Value", "argmax(Rows, Year)"),
            ("Value in Last Record", "R[Year].last(City.Athens)"),
            (
                "Value with Most Appearances",
                "most_common((Athens or London), City)",
            ),
            (
                "Comparing Values",
                "compare_max((London or Beijing), Year, City)",
            ),
        ] {
            let formula = parse_formula(text).expect("operator formula parses");
            let sql = translate(&formula)
                .map(|q| q.to_sql())
                .unwrap_or_else(|_| "—".to_string());
            let chain = wtq_provenance::provenance(&formula, &table).expect("provenance");
            println!(
                "| {name} | `{text}` | `{sql}` | {} / {} / {} |",
                chain.output.len(),
                chain.execution.len(),
                chain.columns.len()
            );
        }
    }

    let json_path = exec_json_path();
    let mut exec_report = None;
    if wanted("exec") || json_path.is_some() {
        heading("Execution layer — indexed engines vs scan reference");
        let report = wtq_bench::exec::exec_report(2000, 12);
        println!(
            "{} rows × {} columns; index build: {:.0} µs\n",
            report.rows, report.columns, report.index_build_us
        );
        println!("| workload | scan µs | indexed µs | warm µs | speedup (cold) | speedup (warm) |");
        println!("|---|---|---|---|---|---|");
        for case in report.dcs.iter() {
            println!(
                "| dcs/{} | {:.1} | {:.1} | {:.1} | {:.1}× | {:.1}× |",
                case.name,
                case.scan_us,
                case.indexed_cold_us,
                case.indexed_warm_us,
                case.speedup_cold,
                case.speedup_warm
            );
        }
        for case in report.sql.iter() {
            println!(
                "| sql/{} | {:.1} | {:.1} | {:.1} | {:.1}× | {:.1}× |",
                case.name,
                case.scan_us,
                case.indexed_cold_us,
                case.indexed_warm_us,
                case.speedup_cold,
                case.speedup_warm
            );
        }
        println!("\nPlanner decisions over the SQL workloads (Auto mode):\n");
        for sample in &report.planner {
            println!("- `{}` {}", sample.series, sample.value);
        }
        println!(
            "\nCandidate throughput: {:.0} questions/s ({:.0} µs/question); \
             denotation cache {} hits / {} misses over one pool.",
            report.candidate_throughput_qps,
            report.candidate_parse_us,
            report.cache_hits,
            report.cache_misses
        );
        println!(
            "\nBatch serving over a shared Engine ({}-row table, explain incl. highlights):\n",
            report.rows
        );
        println!("| workers | questions/s | speedup vs 1 worker |");
        println!("|---|---|---|");
        for case in report.parallel.iter() {
            println!(
                "| {} | {:.1} | {:.2}× |",
                case.workers, case.qps, case.speedup_vs_serial
            );
        }
        exec_report = Some(report);
    }

    if wanted("parse") {
        heading("Parsing layer — interned features vs string-keyed reference");
        let parsing = wtq_bench::parse::parsing_report(8);
        println!(
            "{} questions per operator workload, one warm evaluator session \
             per workload shared by both pipelines (interleaved medians):\n",
            parsing.questions_per_workload
        );
        println!("| workload | family | reference µs/q | interned µs/q | speedup |");
        println!("|---|---|---|---|---|");
        for case in parsing.cases.iter() {
            println!(
                "| {} | {} | {:.1} | {:.1} | {:.1}× |",
                case.name, case.family, case.reference_us, case.interned_us, case.speedup
            );
        }
        println!(
            "\nAggregate: {:.0} questions/s interned vs {:.0} questions/s \
             string-keyed ({:.1}×).",
            parsing.interned_qps, parsing.reference_qps, parsing.speedup
        );
        let stages = &parsing.stages;
        println!(
            "\nInterned-pipeline stage breakdown over {} parses (µs/question):\n",
            stages.questions
        );
        println!("| stage | µs/question | share |");
        println!("|---|---|---|");
        for (name, us) in [
            ("tokenize", stages.tokenize_us),
            ("lexicon", stages.lexicon_us),
            ("candidates", stages.candidates_us),
            ("eval", stages.eval_us),
            ("features", stages.features_us),
            ("score", stages.score_us),
        ] {
            println!(
                "| {name} | {:.1} | {:.1}% |",
                us,
                100.0 * us / stages.total_us.max(1e-9)
            );
        }
        if let Some(report) = exec_report.as_mut() {
            report.parsing = Some(parsing);
        }
    }

    if wanted("serve") {
        heading("Serving layer — loopback TCP server latency");
        let serving = wtq_bench::serve::serving_report(512, 24, 2);
        println!(
            "{} questions over {} connections against a {}-row table (framed \
             JSON protocol, default backpressure/admission config):\n",
            serving.questions, serving.connections, serving.rows
        );
        println!("| metric | value |");
        println!("|---|---|");
        println!("| throughput | {:.1} questions/s |", serving.qps);
        println!("| mean latency | {:.2} ms |", serving.mean_ms);
        println!("| p50 | {:.2} ms |", serving.p50_ms);
        println!("| p90 | {:.2} ms |", serving.p90_ms);
        println!("| p99 | {:.2} ms |", serving.p99_ms);
        println!("| max | {:.2} ms |", serving.max_ms);
        println!("| backpressure rejections | {} |", serving.rejected);
        println!(
            "| answer cache | {} hits / {} misses / {} collapsed |",
            serving.cache_hits, serving.cache_misses, serving.cache_collapsed_waiters
        );
        if let Some(report) = exec_report.as_mut() {
            report.serving = Some(serving);
        }

        heading("Serving layer — connection scaling (epoll reactor)");
        let idle = wtq_bench::serve::idle_connections_report(5000, 8, 24, 512);
        println!(
            "{} idle connections held open ({} requested; soft fd limit {}) \
             while {} active clients replay {} questions:\n",
            idle.idle_connections,
            idle.requested_idle,
            idle.nofile_soft_limit,
            idle.active_connections,
            idle.questions
        );
        println!("| metric | value |");
        println!("|---|---|");
        println!(
            "| server open-connections gauge | {} |",
            idle.server_open_connections
        );
        println!("| reactor threads | {} |", idle.reactor_threads);
        println!("| dispatch threads | {} |", idle.dispatch_threads);
        println!("| throughput | {:.1} questions/s |", idle.qps);
        println!("| p50 | {:.2} ms |", idle.p50_ms);
        println!("| p99 | {:.2} ms |", idle.p99_ms);
        if let Some(report) = exec_report.as_mut() {
            report.idle_serving = Some(idle);
        }
    }

    if wanted("cache") {
        heading("Caching layer — Zipfian replay through the answer cache");
        let caching = wtq_bench::cache::caching_report(512, 40, 240, 4);
        println!(
            "{} requests per skew drawn Zipf(s) from a {}-question pool over \
             a {}-row table; each trace replayed through the bare Engine and \
             a fresh CachedEngine (misses included):\n",
            caching.skews[0].requests, caching.question_pool, caching.rows
        );
        println!("| skew | distinct | hit rate | uncached q/s | cached q/s | speedup |");
        println!("|---|---|---|---|---|---|");
        for case in caching.skews.iter() {
            println!(
                "| {:.1} | {} | {:.1}% | {:.1} | {:.1} | {:.1}× |",
                case.skew,
                case.distinct_questions,
                case.hit_rate * 100.0,
                case.uncached_qps,
                case.cached_qps,
                case.speedup
            );
        }
        let served = &caching.served;
        println!(
            "\nServed over loopback TCP at s = {:.1} ({} requests, {} connections): \
             {:.1} q/s uncached vs {:.1} q/s cached ({:.1}×), hit rate {:.1}%, \
             {} single-flight collapses.",
            served.skew,
            served.requests,
            served.connections,
            served.uncached_qps,
            served.cached_qps,
            served.speedup,
            served.hit_rate * 100.0,
            served.collapsed_waiters
        );
        if let Some(report) = exec_report.as_mut() {
            report.caching = Some(caching);
        }
    }

    if wanted("encode") {
        heading("Encode-once serving — hit-path splice vs rebuild-and-serialize");
        let encode = wtq_bench::encode::encode_report(512, 6);
        println!(
            "Hit-path frame assembly over a {}-row table (reused buffers on \
             both sides, byte-identical output asserted):\n",
            encode.rows
        );
        println!("| question | candidates | frame bytes | rebuild µs | splice µs | speedup |");
        println!("|---|---|---|---|---|---|");
        for case in encode.micro.iter() {
            println!(
                "| {} | {} | {} | {:.1} | {:.1} | {:.1}× |",
                case.question,
                case.candidates,
                case.frame_bytes,
                case.rebuild_us,
                case.splice_us,
                case.speedup
            );
        }
        println!(
            "\nMedian micro speedup {:.1}×.",
            encode.median_micro_speedup
        );
        if let Some(report) = exec_report.as_mut() {
            report.encode = Some(encode);
        }
    }

    if wanted("obs") {
        heading("Observability layer — /metrics percentiles and tracing overhead");
        let obs = wtq_bench::obs::obs_report(512, 48, 2, 7);
        println!(
            "{} requests over {} connections against a {}-row table, every \
             request traced; percentiles recovered from the /metrics scrape \
             (bucket upper-bound resolution):\n",
            obs.questions, obs.connections, obs.rows
        );
        println!("| metric | value |");
        println!("|---|---|");
        println!("| requests observed | {} |", obs.requests_observed);
        println!("| p50 | {:.2} ms |", obs.request_p50_ms);
        println!("| p90 | {:.2} ms |", obs.request_p90_ms);
        println!("| p99 | {:.2} ms |", obs.request_p99_ms);
        println!("| mean | {:.2} ms |", obs.request_mean_ms);
        println!("\nPer-stage breakdown (same scrape):\n");
        println!("| stage | observations | p50 ms | p99 ms | mean ms |");
        println!("|---|---|---|---|---|");
        for stage in obs.stages.iter() {
            println!(
                "| {} | {} | {:.3} | {:.3} | {:.3} |",
                stage.stage, stage.observations, stage.p50_ms, stage.p99_ms, stage.mean_ms
            );
        }
        println!(
            "\nTrace rings: {} traced (period {}), {} recent / {} slowest \
             held at scrape time.",
            obs.traces_sampled, obs.trace_sample_period, obs.recent_traces, obs.slowest_traces
        );
        println!(
            "\nTracing overhead (default sampling vs disabled, {} interleaved \
             rounds × {} requests): {:.1} q/s sampled vs {:.1} q/s disabled \
             — ratio {:.3}.",
            obs.overhead.rounds,
            obs.overhead.questions_per_round,
            obs.overhead.qps_sampled,
            obs.overhead.qps_disabled,
            obs.overhead.ratio
        );
        if let Some(report) = exec_report.as_mut() {
            report.observability = Some(obs);
        }
    }

    if let (Some(path), Some(report)) = (&json_path, &exec_report) {
        let json = serde_json::to_string_pretty(report).expect("report serializes");
        std::fs::write(path, json).expect("write exec report");
        println!("\nWrote {path}.");
    }

    if wanted("examples") {
        heading("Table 1 / Table 8 — sample generated questions per operator family");
        for example in env.dataset.examples.iter().take(14) {
            println!(
                "- [{}] {} → `{}`",
                example.family.name(),
                example.question,
                example.gold_formula
            );
        }
    }

    println!("\n(done)");
}
