//! E-CHAOS — availability under injected network faults.
//!
//! Stands up the same loopback deployment as E-SERVE but with **two
//! replica workers per shard**, every replica reached through its own
//! [`ChaosProxy`] drawing a random fault (refuse, black-hole, delay,
//! kill-after-bytes, truncate mid-frame, corrupt) on a seeded fraction
//! of connections. The remote transports run with an empty connection
//! pool, so every shard call dials a fresh connection and therefore
//! draws from the fault plan at the configured rate — the rate is
//! effectively per request, not per long-lived socket.
//!
//! The fault-tolerance layer under test is the [`ReplicaSet`]: bounded
//! retries with decorrelated-jitter backoff, failover to the sibling
//! replica, hedged requests on the slow tail (black holes and delays),
//! and per-replica circuit breakers. The report is judged on three
//! axes: **availability** (fraction of requests answered with results),
//! **integrity** (every surviving answer bit-identical to the
//! in-process sharded database — a wrong answer is worse than an
//! error), and **classification** (every failure a typed error code —
//! anything else is a bug, not weather).

use crate::Scale;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tale::shard::HashPolicy;
use tale::{QueryMatch, QueryOptions, TaleDatabase, TaleParams};
use tale_datasets::pin::PinCorpus;
use tale_graph::Graph;
use tale_server::chaos::ChaosProxy;
use tale_server::counters::ServerStatsSnapshot;
use tale_server::engine::{EngineConfig, ShardEngine};
use tale_server::transport::{RemoteConfig, RemoteTransport, ShardTransport};
use tale_server::wire::{
    self, QueryBatchRequest, Request, Response, StatsRequest, WireGraph, WireMatch, WireOptions,
};
use tale_server::worker::{serve, serve_shard, ServerHandle, Service, WorkerConfig};
use tale_server::{Frontend, FrontendConfig, ReplicaConfig, ReplicaSet};

/// Schema version stamped into `BENCH_chaos.json`.
pub const CHAOS_REPORT_SCHEMA_VERSION: u32 = 1;

/// Count of one typed error code observed during the load.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ErrorCount {
    /// The wire error code (`overloaded`, `deadline_exceeded`, ...).
    pub code: String,
    /// Requests that ended with it.
    pub count: usize,
}

/// The full E-CHAOS report (serialized to `BENCH_chaos.json`).
#[derive(Debug, Clone, serde::Serialize)]
pub struct ChaosReport {
    /// Report format version ([`CHAOS_REPORT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Generator seed (also seeds every proxy's fault plan).
    pub seed: u64,
    /// Dataset scale factor.
    pub scale: f64,
    /// Graphs in the corpus.
    pub graphs: usize,
    /// Shards in the deployment.
    pub shards: usize,
    /// Replica workers per shard.
    pub replicas_per_shard: usize,
    /// Distinct queries in the workload (requests cycle through them).
    pub queries: usize,
    /// Fraction of connections each proxy faults.
    pub fault_rate: f64,
    /// Requests dispatched.
    pub requests: usize,
    /// Requests answered with results.
    pub ok: usize,
    /// Requests refused with a typed error code, by code.
    pub errors: Vec<ErrorCount>,
    /// Requests that failed any other way (client-side transport error,
    /// unexpected response shape). Nonzero = bug, not weather.
    pub unclassified: usize,
    /// Surviving answers that were NOT bit-identical to the in-process
    /// reference, or carried a degraded marker the client never opted
    /// into. Nonzero = bug.
    pub wrong_answers: usize,
    /// `ok / requests`.
    pub availability: f64,
    /// Median latency over answered requests, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Worst latency, milliseconds.
    pub max_ms: f64,
    /// Whether the clean-network identity anchor AND every surviving
    /// chaos answer were bit-identical to the in-process database.
    pub identical: bool,
    /// Connections the proxies accepted, total.
    pub proxy_connections: u64,
    /// Faults the proxies actually injected, total.
    pub faults_injected: u64,
    /// Frontend counters (retries / hedges / failovers / breaker
    /// transitions land here via the attached replica sets).
    pub frontend: ServerStatsSnapshot,
}

/// One request's fate.
enum Outcome {
    /// Answered; latency + whether the answer was bit-identical and
    /// carried no degraded marker.
    Answered(Duration, bool),
    /// Refused with a typed error code.
    Typed(String),
    /// Anything else — a client-side transport failure or a response
    /// shape that is neither results nor a typed error.
    Unclassified,
}

/// Sends one single-query batch over a fresh client connection to the
/// frontend (the client↔frontend link is clean loopback; all chaos sits
/// between the frontend and the workers).
fn chaos_request(addr: SocketAddr, req: &Request, reference: &[QueryMatch]) -> Outcome {
    let t0 = Instant::now();
    let run = || -> Result<Response, wire::WireError> {
        let mut stream = TcpStream::connect(addr).map_err(wire::WireError::from)?;
        stream.set_nodelay(true).ok();
        wire::write_request(&mut stream, req)?;
        match wire::read_response(&mut stream)? {
            Some((resp, _)) => Ok(resp),
            None => Err(wire::WireError::Truncated),
        }
    };
    match run() {
        Ok(Response::QueryBatch(resp)) => {
            let answer: Vec<Vec<QueryMatch>> = resp
                .results
                .iter()
                .map(|wm| wm.matches.iter().map(WireMatch::to_match).collect())
                .collect();
            let clean = resp.degraded.is_empty()
                && super::speedup::identical(std::slice::from_ref(&reference.to_vec()), &answer);
            Outcome::Answered(t0.elapsed(), clean)
        }
        Ok(Response::Error(e)) => Outcome::Typed(e.code),
        _ => Outcome::Unclassified,
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

/// Runs E-CHAOS: builds a sharded database, serves every shard from
/// `replicas` workers behind per-replica chaos proxies, anchors the
/// served path bit-identically on a clean network, then arms every
/// proxy's random fault plan at `fault_rate` and drives `requests`
/// single-query requests, classifying every one.
pub fn run_chaos(
    seed: u64,
    scale: Scale,
    shards: usize,
    replicas: usize,
    fault_rate: f64,
    requests: usize,
) -> ChaosReport {
    let corpus = PinCorpus::generate(seed, 16, scale.0);
    let graphs = corpus.db.iter().count();
    let query_ids = corpus.queries(None);
    let queries: Vec<&Graph> = query_ids.iter().map(|&g| corpus.db.graph(g)).collect();
    let params = TaleParams::bind();
    let opts = QueryOptions::bind().with_cache(false);

    let dir = tempfile::tempdir().expect("tempdir");
    let sharded =
        TaleDatabase::build_sharded(corpus.db.clone(), dir.path(), &params, shards, &HashPolicy)
            .expect("sharded build");
    let reference = sharded.query_batch(&queries, &opts).expect("local query");

    // Deployment: `replicas` workers per shard (all serving the same
    // on-disk shard), each behind its own chaos proxy. The transports
    // keep no idle connections (`pool_size: 0`), so every call dials
    // fresh and the per-connection fault rate is a per-call fault rate.
    let mut worker_handles: Vec<ServerHandle> = Vec::new();
    let mut proxies: Vec<ChaosProxy> = Vec::new();
    let mut sets: Vec<Arc<dyn ShardTransport>> = Vec::new();
    let remote_cfg = RemoteConfig {
        connect_attempts: 1,
        backoff: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        pool_size: 0,
        retries: 0, // the ReplicaSet owns retry policy
        io_timeout: Some(Duration::from_millis(250)),
    };
    let replica_cfg = ReplicaConfig {
        failure_threshold: 3,
        open_cooldown: Duration::from_millis(200),
        probe_interval: Duration::from_millis(100),
        retries: 3,
        backoff: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        // Fixed hedge trigger well above a healthy call, well below the
        // 250ms I/O timeout a black hole costs: the hedge races the
        // sibling replica instead of waiting out the timeout.
        hedge_after: Some(Duration::from_millis(60)),
        ..ReplicaConfig::default()
    };
    for s in 0..shards {
        let mut members: Vec<Arc<dyn ShardTransport>> = Vec::new();
        for _ in 0..replicas {
            let engine = ShardEngine::open(dir.path(), s as u32, EngineConfig::default())
                .expect("open shard engine");
            let handle = serve_shard(
                Arc::new(engine),
                "127.0.0.1:0".parse().expect("literal addr"),
                WorkerConfig::default(),
            )
            .expect("serve shard");
            let proxy = ChaosProxy::new(handle.addr()).expect("chaos proxy");
            members
                .push(RemoteTransport::new(proxy.addr(), s as u32, remote_cfg)
                    as Arc<dyn ShardTransport>);
            worker_handles.push(handle);
            proxies.push(proxy);
        }
        sets.push(ReplicaSet::new(s as u32, members, replica_cfg) as Arc<dyn ShardTransport>);
    }

    let frontend =
        Arc::new(Frontend::new(sets, FrontendConfig::default()).expect("frontend handshake"));
    let front = serve(
        Arc::clone(&frontend) as Arc<dyn Service>,
        "127.0.0.1:0".parse().expect("literal addr"),
        WorkerConfig::default(),
    )
    .expect("serve frontend");
    let front_addr = front.addr();

    // Correctness anchor on the still-clean network: the whole workload
    // through the served path must match the in-process answers.
    let wire_opts = WireOptions::from_options(&opts);
    let anchor_identical = {
        let req = Request::QueryBatch(QueryBatchRequest {
            queries: queries
                .iter()
                .map(|g| WireGraph::from_graph(&corpus.db, g))
                .collect(),
            options: wire_opts.clone(),
            deadline_ms: None,
            allow_partial: false,
        });
        let mut stream = TcpStream::connect(front_addr).expect("anchor connect");
        wire::write_request(&mut stream, &req).expect("anchor request");
        match wire::read_response(&mut stream).expect("anchor response") {
            Some((Response::QueryBatch(resp), _)) => {
                let answer: Vec<Vec<QueryMatch>> = resp
                    .results
                    .iter()
                    .map(|wm| wm.matches.iter().map(WireMatch::to_match).collect())
                    .collect();
                super::speedup::identical(&reference, &answer)
            }
            other => panic!("expected a batch response, got {other:?}"),
        }
    };

    // Arm the weather: every proxy faults `fault_rate` of its
    // connections, each on its own reproducible schedule.
    for (i, p) in proxies.iter().enumerate() {
        p.set_random(
            fault_rate,
            seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
    }

    // The load: single-query requests cycling through the workload,
    // fail-closed (no allow_partial) with a generous deadline — the
    // replica sets must mask faults by retry/failover/hedge, not by
    // degrading the answer.
    let single_requests: Vec<Request> = queries
        .iter()
        .map(|g| {
            Request::QueryBatch(QueryBatchRequest {
                queries: vec![WireGraph::from_graph(&corpus.db, g)],
                options: wire_opts.clone(),
                deadline_ms: Some(8_000),
                allow_partial: false,
            })
        })
        .collect();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(requests);
    let mut errors: std::collections::BTreeMap<String, usize> = Default::default();
    let (mut unclassified, mut wrong_answers) = (0usize, 0usize);
    for i in 0..requests {
        let qi = i % single_requests.len();
        match chaos_request(front_addr, &single_requests[qi], &reference[qi]) {
            Outcome::Answered(lat, clean) => {
                latencies_ms.push(lat.as_secs_f64() * 1e3);
                if !clean {
                    wrong_answers += 1;
                }
            }
            Outcome::Typed(code) => *errors.entry(code).or_insert(0) += 1,
            Outcome::Unclassified => unclassified += 1,
        }
    }
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

    let frontend_stats = stats_of(front_addr);
    let ok = latencies_ms.len();
    ChaosReport {
        schema_version: CHAOS_REPORT_SCHEMA_VERSION,
        seed,
        scale: scale.0,
        graphs,
        shards,
        replicas_per_shard: replicas,
        queries: queries.len(),
        fault_rate,
        requests,
        ok,
        errors: errors
            .into_iter()
            .map(|(code, count)| ErrorCount { code, count })
            .collect(),
        unclassified,
        wrong_answers,
        availability: if requests == 0 {
            1.0
        } else {
            ok as f64 / requests as f64
        },
        p50_ms: percentile(&latencies_ms, 50.0),
        p99_ms: percentile(&latencies_ms, 99.0),
        max_ms: latencies_ms.last().copied().unwrap_or(f64::NAN),
        identical: anchor_identical && wrong_answers == 0,
        proxy_connections: proxies.iter().map(|p| p.connections()).sum(),
        faults_injected: proxies.iter().map(|p| p.faults_injected()).sum(),
        frontend: frontend_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small storm at a deliberately brutal 25% fault rate: faults
    /// are actually injected, yet every surviving answer is
    /// bit-identical, every failure is typed, and the masking counters
    /// (retries at minimum) are nonzero.
    #[test]
    fn chaos_report_is_identical_and_classified() {
        let r = run_chaos(11, Scale(0.02), 2, 2, 0.25, 24);
        assert_eq!(r.schema_version, CHAOS_REPORT_SCHEMA_VERSION);
        assert!(r.identical, "a surviving answer diverged");
        assert_eq!(r.wrong_answers, 0);
        assert_eq!(r.unclassified, 0, "an unclassified failure escaped");
        let typed: usize = r.errors.iter().map(|e| e.count).sum();
        assert_eq!(r.ok + typed, 24);
        assert!(
            r.faults_injected >= 1,
            "the storm never struck ({} connections)",
            r.proxy_connections
        );
        assert!(
            r.frontend.retries >= 1,
            "faults were injected but nothing was retried"
        );
        assert!(r.availability > 0.5, "availability {}", r.availability);
    }
}
