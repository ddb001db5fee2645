//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path talebench/Cargo.toml -- \
//!     --workload <astral_search|bind_served|bind_rw_served> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `bind_rw_served` is not in `BENCHMARK.json`: its figures follow
//! where the seeded schedule puts folds and cache invalidations, and
//! they spread past the bounds. It still runs by name.
//!
//! Runs one workload from the seed, checks every answer with the
//! oracle, and prints as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics in an
//! untraced run (`--trace 0`), the per-layer metrics in a traced run
//! (`--trace 1`). The line before it is the full report: the same
//! figures stamped with cores, seed, commit, workload parameters, sample
//! counts and the percentile behind each tail. Reports, per-operation
//! records and spans are also written under `.bench_out/`; temporary
//! indexes live under `.bench_work/` and are removed at exit.

mod astral;
mod json;
mod loadgen;
mod oracle;
mod served;
mod stats;
mod sys;
mod trace;

use json::J;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports each of them.
///
/// The median query latency is not among them: on the served workload
/// most queries take 2–5 ms, of which thread wake-ups and loopback
/// round trips are most, and on a shared host those swing by 1.5–2×
/// from one minute to the next. It is a per-layer metric instead, and
/// `cpu_ms_per_query` (CPU time the deployment spends per query, which
/// leaves out time the host takes the CPUs away) stands for the cost.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_tail_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("cpu_ms_per_query", "ms"),
    ("index_bytes_per_node", "B"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A metric a workload has no
/// layer for (a server counter in process) reads 0. The write figures
/// of `bind_rw_served` (`write_p50_ms`, `write_tail_ms`, `fold_ms`,
/// `server.engine.fold_overlap_query_ms`, `tale.cache.hit_rate`) are in
/// its report line only: no workload of `BENCHMARK.json` has them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("query_p50_ms", "ms"),
    ("tale.match.ms", "ms"),
    ("tale.match.ms_per_graph", "ms"),
    ("tale.match.candidate_graphs", "count"),
    ("tale.match.kept_ratio", "ratio"),
    ("tale.plan.ms", "ms"),
    ("tale.probe.ms", "ms"),
    ("tale.rank.ms", "ms"),
    ("tale.unattributed.ms", "ms"),
    ("nhindex.probes", "count"),
    ("nhindex.keys_scanned", "count"),
    ("nhindex.postings_fetched", "count"),
    ("nhindex.postings_filtered", "count"),
    ("nhindex.rows_examined", "count"),
    ("nhindex.candidates", "count"),
    ("nhindex.candidates_per_row", "ratio"),
    ("storage.pool_hit_rate", "ratio"),
    ("storage.pool_misses", "count"),
    ("shard.skew", "ratio"),
    ("shard.pruned", "count"),
    ("server.unattributed_ms", "ms"),
    ("server.wire.encode_us", "us"),
    ("server.wire.decode_us", "us"),
    ("server.wire.bytes_per_query", "B"),
    ("server.admission.queue_hwm", "count"),
    ("server.admission.inflight_hwm", "count"),
    ("server.admission.shed", "count"),
    ("server.transport.retries", "count"),
    ("server.transport.failovers", "count"),
    ("server.engine.insert_ms", "ms"),
    ("server.engine.remove_ms", "ms"),
    ("server.engine.fold_ms", "ms"),
    ("server.engine.write_bytes_per_insert", "B"),
    ("client.lag_p99_ms", "ms"),
    ("client.backlog_max", "count"),
    ("slo_qps", "1/s"),
    ("precision_at_r", "ratio"),
    ("failed_frac", "ratio"),
    ("trace.unattributed_ms", "ms"),
    ("trace.frontend.self_ms", "ms"),
    ("trace.transport.self_ms", "ms"),
    ("trace.engine.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// What one workload run produced.
pub struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    stamp: J,
    spans: Vec<trace::Span>,
    /// One line per operation of an open-loop run.
    records: Vec<J>,
}

impl Run {
    fn new(correct: bool, attempted: u64, failed: u64) -> Run {
        Run {
            correct,
            attempted,
            failed,
            metrics: BTreeMap::new(),
            stamp: J::Obj(Vec::new()),
            spans: Vec::new(),
            records: Vec::new(),
        }
    }

    fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// The final line: exactly the metrics of the run's mode, each with its
/// unit. A workload that left a per-layer metric unmeasured reads 0.
fn result_line(run: &Run, traced: bool) -> J {
    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    let metrics = catalogue
        .iter()
        .map(|&(name, unit)| {
            let value = match run.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => f64::MAX,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            (name.to_owned(), jobj!({ "value": value, "unit": unit }))
        })
        .collect();
    jobj!({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": J::Obj(metrics),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("talebench: {e}");
            return ExitCode::from(2);
        }
    };
    let work: PathBuf =
        Path::new(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let out = Path::new(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&work).and_then(|_| std::fs::create_dir_all(out)) {
        eprintln!("talebench: cannot create work directories: {e}");
        return ExitCode::from(1);
    }
    let (secs, traced) = (args.seconds, args.trace);
    let mut run = match args.workload.as_str() {
        "astral_search" => astral::run(args.seed, secs, traced, &work),
        "bind_served" => served::run(served::Kind::ReadOnly, args.seed, secs, traced, &work),
        "bind_rw_served" => served::run(served::Kind::ReadWrite, args.seed, secs, traced, &work),
        other => {
            eprintln!("talebench: unknown workload {other}");
            let _ = std::fs::remove_dir_all(&work);
            return ExitCode::from(2);
        }
    };
    run.metric("peak_rss_mb", sys::peak_rss_mib());
    let _ = std::fs::remove_dir_all(&work);

    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(traced)
    );
    if !run.records.is_empty() {
        let lines: String = run.records.iter().map(|r| format!("{r}\n")).collect();
        let _ = std::fs::write(out.join(format!("{tag}.records.jsonl")), lines);
    }
    if traced {
        let path = out.join(format!("{tag}.spans.jsonl"));
        if let Err(e) = trace::write_jsonl(&path, &run.spans) {
            eprintln!("talebench: cannot write spans: {e}");
        }
    }
    let mut report = jobj!({
        "workload": args.workload.as_str(),
        "seed": args.seed,
        "seconds": secs,
        "traced": traced,
        "cores": sys::cores(),
        "commit": sys::git_commit(),
    });
    if let J::Obj(stamp) = &run.stamp {
        for (k, v) in stamp {
            report.insert(k, v.clone());
        }
    }
    let all = run
        .metrics
        .iter()
        .map(|(k, v)| ((*k).to_owned(), J::Num(*v)))
        .collect();
    report.insert("metrics", J::Obj(all));
    let _ = std::fs::write(
        out.join(format!("{tag}.report.json")),
        format!("{report}\n"),
    );
    println!("{report}");
    println!("{}", result_line(&run, traced));
    ExitCode::SUCCESS
}
