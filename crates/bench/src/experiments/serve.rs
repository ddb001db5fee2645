//! E-SERVE — the networked service under open-loop Poisson load.
//!
//! Stands up a real deployment on loopback — one `tale-server` shard
//! worker per shard, a scatter/gather frontend over remote transports,
//! all talking the versioned wire protocol over TCP — and drives it with
//! an **open-loop** load generator: request arrivals follow a Poisson
//! process at the target rate, each arrival gets its own client thread
//! and connection, and arrivals never wait for completions (so queueing
//! delay shows up in the latency tail instead of being hidden by a
//! closed loop's self-throttling).
//!
//! The report records the service-level numbers a deployment would be
//! judged on — p50/p99/max latency, achieved vs offered QPS, how many
//! requests were explicitly shed — plus the correctness anchor: the full
//! query workload run once through the served path must be bit-identical
//! to the in-process [`TaleDatabase`] answers. The server-side
//! counter blocks (frontend and every worker) are fetched over the
//! `stats` endpoint itself, so the observability path is exercised too.

use crate::Scale;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tale::shard::HashPolicy;
use tale::{QueryMatch, QueryOptions, TaleDatabase, TaleParams};
use tale_datasets::pin::PinCorpus;
use tale_graph::{Graph, GraphDb};
use tale_server::counters::ServerStatsSnapshot;
use tale_server::engine::{EngineConfig, ShardEngine};
use tale_server::transport::{RemoteConfig, RemoteTransport, ShardTransport};
use tale_server::wire::{
    self, QueryBatchRequest, Request, Response, StatsRequest, WireGraph, WireMatch, WireOptions,
};
use tale_server::worker::{serve, serve_shard, ServerHandle, Service, WorkerConfig};
use tale_server::{Frontend, FrontendConfig};

/// Schema version stamped into `BENCH_serve.json`.
pub const SERVE_REPORT_SCHEMA_VERSION: u32 = 1;

/// The full E-SERVE report (serialized to `BENCH_serve.json`).
#[derive(Debug, Clone, serde::Serialize)]
pub struct ServeReport {
    /// Report format version ([`SERVE_REPORT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Generator seed.
    pub seed: u64,
    /// Dataset scale factor.
    pub scale: f64,
    /// Cores the OS reports as available.
    pub cores: usize,
    /// Graphs in the corpus.
    pub graphs: usize,
    /// Shard workers in the deployment.
    pub shards: usize,
    /// Distinct queries in the workload (arrivals cycle through them).
    pub queries: usize,
    /// Offered load, requests per second.
    pub target_qps: f64,
    /// Requests the generator dispatched.
    pub requests: usize,
    /// First arrival to last completion, seconds.
    pub duration_secs: f64,
    /// Completed requests / duration.
    pub achieved_qps: f64,
    /// Requests answered with results.
    pub ok: usize,
    /// Requests explicitly shed (`overloaded` responses — admission gate
    /// or connection budget).
    pub shed: usize,
    /// Requests that failed any other way (transport errors, unexpected
    /// responses). Anything nonzero here is a bug, not load.
    pub failed: usize,
    /// Median latency over served requests, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Worst latency, milliseconds.
    pub max_ms: f64,
    /// Whether the served answers for the full workload were
    /// bit-identical to the in-process sharded database.
    pub identical: bool,
    /// Frontend counters, fetched over the `stats` endpoint.
    pub frontend: ServerStatsSnapshot,
    /// Per-worker counters, in shard order, fetched over the `stats`
    /// endpoint.
    pub workers: Vec<ServerStatsSnapshot>,
}

/// One client request over its own connection: connect, send a
/// single-query batch, read the answer. Returns `Ok(latency)` on
/// results, `Err(true)` on an explicit shed, `Err(false)` on anything
/// else.
fn one_request(addr: SocketAddr, req: &Request) -> std::result::Result<Duration, bool> {
    let t0 = Instant::now();
    let run = || -> std::result::Result<Response, wire::WireError> {
        let mut stream = TcpStream::connect(addr).map_err(wire::WireError::from)?;
        stream.set_nodelay(true).ok();
        wire::write_request(&mut stream, req)?;
        match wire::read_response(&mut stream)? {
            Some((resp, _)) => Ok(resp),
            None => Err(wire::WireError::Truncated),
        }
    };
    match run() {
        Ok(Response::QueryBatch(_)) => Ok(t0.elapsed()),
        Ok(Response::Error(e)) if e.code == wire::codes::OVERLOADED => Err(true),
        _ => Err(false),
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return f64::NAN;
    }
    let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Fetches a server's counter snapshot over the wire.
fn stats_of(addr: SocketAddr) -> ServerStatsSnapshot {
    let mut stream = TcpStream::connect(addr).expect("stats connect");
    wire::write_request(
        &mut stream,
        &Request::Stats(StatsRequest { reserved: false }),
    )
    .expect("stats request");
    match wire::read_response(&mut stream).expect("stats response") {
        Some((Response::Stats(s), _)) => s.server,
        other => panic!("expected stats, got {other:?}"),
    }
}

fn decode(results: &[wire::WireMatches]) -> Vec<Vec<QueryMatch>> {
    results
        .iter()
        .map(|wm| wm.matches.iter().map(WireMatch::to_match).collect())
        .collect()
}

fn wire_queries(db: &GraphDb, queries: &[&Graph]) -> Vec<WireGraph> {
    queries
        .iter()
        .map(|g| WireGraph::from_graph(db, g))
        .collect()
}

/// Runs E-SERVE: builds a sharded database, serves it (one TCP worker
/// per shard + a TCP frontend), checks served answers bit-identical to
/// the in-process path, then applies `requests` arrivals of open-loop
/// Poisson load at `target_qps` and measures the latency distribution.
pub fn run_serve(
    seed: u64,
    scale: Scale,
    shards: usize,
    target_qps: f64,
    requests: usize,
) -> ServeReport {
    let corpus = PinCorpus::generate(seed, 16, scale.0);
    let graphs = corpus.db.iter().count();
    let query_ids = corpus.queries(None);
    let queries: Vec<&Graph> = query_ids.iter().map(|&g| corpus.db.graph(g)).collect();
    let params = TaleParams::bind();
    let opts = QueryOptions::bind().with_cache(false);

    // The deployment: sharded build on disk, one worker per shard, a
    // frontend over remote transports, everything on loopback TCP.
    let dir = tempfile::tempdir().expect("tempdir");
    let sharded =
        TaleDatabase::build_sharded(corpus.db.clone(), dir.path(), &params, shards, &HashPolicy)
            .expect("sharded build");
    let reference = sharded.query_batch(&queries, &opts).expect("local query");

    let worker_handles: Vec<ServerHandle> = (0..shards)
        .map(|s| {
            let engine = ShardEngine::open(dir.path(), s as u32, EngineConfig::default())
                .expect("open shard engine");
            serve_shard(
                Arc::new(engine),
                "127.0.0.1:0".parse().expect("literal addr"),
                WorkerConfig::default(),
            )
            .expect("serve shard")
        })
        .collect();
    let transports: Vec<Arc<dyn ShardTransport>> = worker_handles
        .iter()
        .enumerate()
        .map(|(i, h)| {
            RemoteTransport::new(h.addr(), i as u32, RemoteConfig::default())
                as Arc<dyn ShardTransport>
        })
        .collect();
    // Gate sized against the machine: as many concurrent batches as
    // cores (the scatter fans each one out anyway), with a queue four
    // deep per slot. Offered load beyond that sheds explicitly — the
    // report records it rather than hiding it.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let gate = tale_server::GateConfig {
        max_inflight: cores.clamp(2, 8),
        max_queue: cores.clamp(2, 8) * 4,
    };
    let frontend = Arc::new(
        Frontend::new(
            transports,
            FrontendConfig {
                gate,
                ..FrontendConfig::default()
            },
        )
        .expect("frontend handshake"),
    );
    let front = serve(
        Arc::clone(&frontend) as Arc<dyn Service>,
        "127.0.0.1:0".parse().expect("literal addr"),
        WorkerConfig::default(),
    )
    .expect("serve frontend");
    let front_addr = front.addr();

    // Correctness anchor: the whole workload through the served path.
    let wire_opts = WireOptions::from_options(&opts);
    let identical = {
        let req = Request::QueryBatch(QueryBatchRequest {
            queries: wire_queries(&corpus.db, &queries),
            options: wire_opts.clone(),
            deadline_ms: None,
            allow_partial: false,
        });
        let mut stream = TcpStream::connect(front_addr).expect("identity connect");
        wire::write_request(&mut stream, &req).expect("identity request");
        match wire::read_response(&mut stream).expect("identity response") {
            Some((Response::QueryBatch(resp), _)) => {
                super::speedup::identical(&reference, &decode(&resp.results))
            }
            other => panic!("expected a batch response, got {other:?}"),
        }
    };

    // The load: one single-query request per arrival, arrivals cycling
    // through the workload, inter-arrival gaps drawn from Exp(rate).
    let single_requests: Vec<Arc<Request>> = queries
        .iter()
        .map(|g| {
            Arc::new(Request::QueryBatch(QueryBatchRequest {
                queries: vec![WireGraph::from_graph(&corpus.db, g)],
                options: wire_opts.clone(),
                deadline_ms: None,
                allow_partial: false,
            }))
        })
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x53_4552_5645);
    let started = Instant::now();
    let mut next_arrival = started;
    let clients: Vec<std::thread::JoinHandle<std::result::Result<Duration, bool>>> = (0..requests)
        .map(|i| {
            // Open loop: sleep to the scheduled arrival, then dispatch
            // regardless of how many requests are still in flight.
            let gap = -(1.0 - rng.gen::<f64>()).ln() / target_qps;
            now_until(next_arrival);
            next_arrival += Duration::from_secs_f64(gap);
            let req = Arc::clone(&single_requests[i % single_requests.len()]);
            std::thread::spawn(move || one_request(front_addr, &req))
        })
        .collect();

    let mut latencies_ms: Vec<f64> = Vec::with_capacity(requests);
    let (mut shed, mut failed) = (0usize, 0usize);
    for c in clients {
        match c.join().expect("client thread") {
            Ok(lat) => latencies_ms.push(lat.as_secs_f64() * 1e3),
            Err(true) => shed += 1,
            Err(false) => failed += 1,
        }
    }
    let duration_secs = started.elapsed().as_secs_f64();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

    let frontend_stats = stats_of(front_addr);
    let worker_stats: Vec<ServerStatsSnapshot> =
        worker_handles.iter().map(|h| stats_of(h.addr())).collect();

    ServeReport {
        schema_version: SERVE_REPORT_SCHEMA_VERSION,
        seed,
        scale: scale.0,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        graphs,
        shards,
        queries: queries.len(),
        target_qps,
        requests,
        duration_secs,
        achieved_qps: latencies_ms.len() as f64 / duration_secs,
        ok: latencies_ms.len(),
        shed,
        failed,
        p50_ms: percentile(&latencies_ms, 50.0),
        p99_ms: percentile(&latencies_ms, 99.0),
        max_ms: latencies_ms.last().copied().unwrap_or(f64::NAN),
        identical,
        frontend: frontend_stats,
        workers: worker_stats,
    }
}

/// Sleeps until `t` (no-op if already past).
fn now_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small smoke deployment: everything served, nothing shed at
    /// gentle load, answers bit-identical, counters populated.
    #[test]
    fn serve_report_is_identical_and_complete() {
        let r = run_serve(11, Scale(0.02), 2, 20.0, 30);
        assert_eq!(r.schema_version, SERVE_REPORT_SCHEMA_VERSION);
        assert!(r.identical, "served answers diverged from in-process");
        assert_eq!(r.ok, 30, "shed={} failed={}", r.shed, r.failed);
        assert_eq!(r.shed + r.failed, 0);
        assert!(r.p50_ms.is_finite() && r.p99_ms.is_finite() && r.max_ms.is_finite());
        assert!(r.p50_ms <= r.p99_ms && r.p99_ms <= r.max_ms);
        assert!(r.achieved_qps > 0.0);
        assert_eq!(r.workers.len(), 2);
        // Each worker saw the identity batch + its share of the load +
        // one stats fetch; the frontend saw every client request.
        assert!(r.frontend.requests_query >= 31);
        for (i, w) in r.workers.iter().enumerate() {
            assert!(w.requests_query >= 1, "worker {i} served no queries");
            assert_eq!(w.requests_stats, 1, "worker {i} stats endpoint");
            assert!(
                w.bytes_in > 0 && w.bytes_out > 0,
                "worker {i} byte counters"
            );
        }
    }
}
