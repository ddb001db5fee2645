//! `astral_search`: Fig. 5 ASTRAL family retrieval, in process.
//!
//! A `ContactDataset` corpus is indexed with `TaleParams::astral`; one
//! client queries it in a closed loop through `TaleDatabase`, with the
//! C-Tree similarity, `top_k` = 2 × domains per family, every core, and
//! the result cache off (the queries repeat only to gather samples).
//! Every answer is checked against a `threads = 1` reference computed
//! at set-up, which also gives the retrieval quality (R-precision).

use crate::jobj;
use crate::json::J;
use crate::oracle::{self, Answer};
use crate::stats::{self, mean, ratio};
use crate::trace::{self, Tracer};
use crate::{sys, Run};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tale::{BatchStats, CTreeStyle, QueryOptions, TaleDatabase, TaleParams};
use tale_datasets::contact::{ContactDataset, ContactSpec};
use tale_graph::GraphId;

/// The corpus is the Fig. 5 corpus of the `experiments` binary at its
/// default seed. Query cost moves by up to a quarter between
/// `ContactDataset` draws, which would make the figures a property of
/// the draw; `--seed` drives the query order instead.
const CORPUS_SEED: u64 = 20080407;
/// Corpus scale: 13 families × 10 domains = 130 graphs.
const SCALE: f64 = 0.01;
/// Index builds per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// The fixed tail percentile of this workload.
pub const TAIL_P: u32 = 90;

/// Seeded order of query indexes: every distinct query once per block,
/// blocks shuffled independently.
pub fn block_order(seed: u64, distinct: usize, blocks: usize) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(distinct * blocks);
    for _ in 0..blocks {
        let mut b: Vec<usize> = (0..distinct).collect();
        b.shuffle(&mut rng);
        out.extend(b);
    }
    out
}

/// Mean R-precision of family retrieval, the query itself excluded.
fn r_precision(ds: &ContactDataset, queries: &[GraphId], answers: &[Answer], r: usize) -> f64 {
    let per_query: Vec<f64> = queries
        .iter()
        .zip(answers)
        .map(|(&q, a)| {
            let fam = ds.family(q);
            let relevant = a
                .iter()
                .filter(|h| h.graph != q.0)
                .take(r)
                .filter(|h| ds.family(GraphId(h.graph)) == fam)
                .count();
            relevant as f64 / r as f64
        })
        .collect();
    mean(&per_query)
}

/// Records the spans of one traced query: the call, the engine run
/// inside it and its four stages laid end to end from the engine's
/// start (the stage clocks give lengths, not positions).
fn record_spans(tr: &Tracer, request: u64, t0: Instant, t1: Instant, b: &BatchStats) {
    let root = tr.record("request", None, request, t0, t1);
    let (plan, probe, matching, rank, _) = stats::critical_stages_ms(b);
    let start = tr.ns(t0);
    let ns = |ms: f64| (ms * 1e6) as u64;
    let engine = tr.record_ns(
        "engine",
        Some(root),
        request,
        start,
        start + (b.stages.total_secs * 1e9) as u64,
    );
    let mut at = start;
    for (name, ms) in [
        ("plan", plan),
        ("probe", probe),
        ("match", matching),
        ("rank", rank),
    ] {
        tr.record_ns(name, Some(engine), request, at, at + ns(ms));
        at += ns(ms);
    }
}

/// Runs the workload for `secs` seconds of measurement.
pub fn run(seed: u64, secs: f64, traced: bool, work: &Path) -> Run {
    let spec = ContactSpec::default().scaled(SCALE);
    let ds = ContactDataset::generate(CORPUS_SEED, &spec);
    let queries = ds.pick_queries(CORPUS_SEED ^ 0x5a, spec.families);
    let top_k = 2 * spec.domains_per_family;
    let cores = sys::cores();
    let params = TaleParams::astral();
    let opts = QueryOptions::astral()
        .with_top_k(top_k)
        .with_similarity(Arc::new(CTreeStyle))
        .with_cache(false);

    // Set-up: index build until the database answers.
    let mut setup = Vec::with_capacity(SETUPS);
    let mut db = None;
    for i in 0..SETUPS {
        let dir = work.join(format!("astral-{i}"));
        let corpus = ds.db.clone();
        drop(db.take());
        let t = Instant::now();
        db = Some(TaleDatabase::build(corpus, &dir, &params).expect("astral index build"));
        setup.push(t.elapsed().as_secs_f64());
        if i > 0 {
            let _ = std::fs::remove_dir_all(work.join(format!("astral-{}", i - 1)));
        }
    }
    let db = db.expect("at least one set-up");

    // Reference: the same queries on one thread.
    let serial = opts.clone().with_threads(1);
    let reference: Vec<Answer> = queries
        .iter()
        .map(|&q| {
            oracle::from_matches(&db.query(ds.db.graph(q), &serial).expect("reference query"))
        })
        .collect();
    let precision = r_precision(&ds, &queries, &reference, spec.domains_per_family - 1);

    // Measurement: one client, closed loop. In a traced run the first
    // half is untraced and the second traced, so the difference is the
    // tracing overhead.
    let parallel = opts.clone().with_threads(cores);
    let order = block_order(seed ^ 0x0a57, queries.len(), 1 + (secs * 50.0) as usize);
    let tracer = Tracer::new();
    let (mut lat_ms, mut lat_untraced, mut lat_traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_query: Vec<(usize, f64)> = Vec::new();
    let (mut failed, mut wrong) = (0u64, Vec::<String>::new());
    let mut batches: Vec<BatchStats> = Vec::new();
    let (cpu0, steal0) = (sys::cpu_seconds(), sys::steal_seconds());
    let started = Instant::now();
    let mut n = 0usize;
    while started.elapsed().as_secs_f64() < secs {
        let qi = order[n % order.len()];
        let traced_now = traced && started.elapsed().as_secs_f64() >= secs / 2.0;
        tracer.set_enabled(traced_now);
        let g = ds.db.graph(queries[qi]);
        let t0 = Instant::now();
        let res = db.query_batch_with_stats(&[g], &parallel);
        let t1 = Instant::now();
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        lat_ms.push(ms);
        per_query.push((qi, ms));
        match res {
            Ok((answers, batch)) => {
                if let Err(e) = oracle::check(&reference[qi], &oracle::from_matches(&answers[0])) {
                    failed += 1;
                    wrong.push(format!("query {qi}: {e}"));
                }
                if traced_now {
                    lat_traced.push(ms);
                    record_spans(&tracer, n as u64, t0, t1, &batch);
                    batches.push(batch);
                } else {
                    lat_untraced.push(ms);
                }
            }
            Err(e) => {
                failed += 1;
                wrong.push(format!("query {qi}: {e}"));
            }
        }
        n += 1;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let (cpu, steal) = (sys::cpu_seconds() - cpu0, sys::steal_seconds() - steal0);
    tracer.set_enabled(false);

    let sorted = stats::sorted(&lat_ms);
    let nodes = ds.db.total_nodes() as f64;
    let mut run = Run::new(failed == 0, n as u64, failed);
    run.metric("setup_s", stats::median(&setup));
    run.metric("query_p50_ms", stats::median_of_medians(&per_query));
    run.stamp
        .insert("request_p50_ms", J::from(stats::percentile(&sorted, 50)));
    run.metric("query_tail_ms", stats::percentile(&sorted, TAIL_P));
    run.metric("queries_per_s", n as f64 / elapsed);
    run.metric("cpu_ms_per_query", cpu * 1e3 / n as f64);
    run.stamp.insert("host_steal_s", J::from(steal));
    run.metric("index_bytes_per_node", db.index_size_bytes() as f64 / nodes);
    run.metric("precision_at_r", precision);
    run.metric("failed_frac", ratio(failed as f64, n as f64));

    if traced {
        let spans = tracer.take();
        let by = trace::self_ms_by_name(&spans);
        let per =
            |name: &str| by.get(name).copied().unwrap_or(0.0) / lat_traced.len().max(1) as f64;
        let qs: Vec<&tale::QueryStats> = batches.iter().map(|b| &b.per_query[0]).collect();
        let sum = |f: &dyn Fn(&tale::QueryStats) -> f64| qs.iter().map(|q| f(q)).sum::<f64>();
        let cand_graphs = sum(&|q| q.candidate_graphs as f64);
        let match_ms = by.get("match").copied().unwrap_or(0.0);
        let pool_hits = sum(&|q| (q.pool.hits + q.pool.coalesced) as f64);
        let pool_all =
            sum(&|q| (q.pool.hits + q.pool.coalesced + q.pool.misses + q.pool.prefetched) as f64);
        let k = qs.len().max(1) as f64;
        run.metric("tale.match.ms", per("match"));
        run.metric("tale.match.ms_per_graph", ratio(match_ms, cand_graphs));
        run.metric("tale.match.candidate_graphs", cand_graphs / k);
        run.metric(
            "tale.match.kept_ratio",
            ratio(sum(&|q| q.matches as f64), cand_graphs),
        );
        run.metric("tale.plan.ms", per("plan"));
        run.metric("tale.probe.ms", per("probe"));
        run.metric("tale.rank.ms", per("rank"));
        run.metric("tale.unattributed.ms", per("engine"));
        run.metric("nhindex.probes", sum(&|q| q.probes as f64) / k);
        run.metric("nhindex.keys_scanned", sum(&|q| q.keys_scanned as f64) / k);
        run.metric(
            "nhindex.postings_fetched",
            sum(&|q| q.postings_fetched as f64) / k,
        );
        run.metric(
            "nhindex.postings_filtered",
            sum(&|q| q.postings_filtered as f64) / k,
        );
        run.metric(
            "nhindex.rows_examined",
            sum(&|q| q.rows_examined as f64) / k,
        );
        run.metric("nhindex.candidates", sum(&|q| q.candidates as f64) / k);
        run.metric(
            "nhindex.candidates_per_row",
            ratio(
                sum(&|q| q.candidates as f64),
                sum(&|q| q.rows_examined as f64),
            ),
        );
        run.metric("storage.pool_hit_rate", ratio(pool_hits, pool_all));
        run.metric("storage.pool_misses", sum(&|q| q.pool.misses as f64) / k);
        run.metric(
            "shard.skew",
            mean(
                &batches
                    .iter()
                    .map(BatchStats::shard_skew)
                    .collect::<Vec<_>>(),
            ),
        );
        run.metric("shard.pruned", sum(&|q| q.shards_pruned as f64) / k);
        run.metric("trace.unattributed_ms", per("request"));
        run.metric("trace.engine.self_ms", per("engine"));
        run.metric(
            "trace.overhead_pct",
            100.0 * (stats::median(&lat_traced) / stats::median(&lat_untraced) - 1.0),
        );
        let wall: f64 = lat_traced.iter().sum();
        let share = |ms: f64| 100.0 * ratio(ms, wall);
        run.stamp.insert(
            "stage_share_pct",
            jobj!({
                "match": share(by.get("match").copied().unwrap_or(0.0)),
                "probe": share(by.get("probe").copied().unwrap_or(0.0)),
                "plan": share(by.get("plan").copied().unwrap_or(0.0)),
                "rank": share(by.get("rank").copied().unwrap_or(0.0)),
                "engine_other": share(by.get("engine").copied().unwrap_or(0.0)),
                "unattributed": share(by.get("request").copied().unwrap_or(0.0)),
            }),
        );
        run.spans = spans;
    }
    run.stamp.insert(
        "params",
        jobj!({
            "corpus": "ContactDataset",
            "corpus_seed": CORPUS_SEED,
            "scale": SCALE,
            "families": spec.families,
            "domains_per_family": spec.domains_per_family,
            "graphs": ds.db.len(),
            "nodes": ds.db.total_nodes(),
            "distinct_queries": queries.len(),
            "top_k": top_k,
            "similarity": "ctree",
            "threads": cores,
            "cache": false,
            "loop": "closed, 1 client",
            "index_bytes": db.index_size_bytes(),
            "buffer_frames": params.buffer_frames,
        }),
    );
    run.stamp.insert(
        "samples",
        jobj!({
            "queries": n,
            "traced_queries": lat_traced.len(),
            "setups": SETUPS,
            "reference_queries": queries.len(),
        }),
    );
    run.stamp
        .insert("tail_percentile", jobj!({ "query_tail_ms": TAIL_P }));
    run.stamp
        .insert("wrong", J::from(wrong.iter().take(5).collect::<Vec<_>>()));
    drop(db);

    run
}
