//! End-to-end contract of the serving layer, over real loopback TCP:
//!
//! * **Bit identity** — a batch run through frontend + shard workers
//!   (each a separate TCP server) returns exactly the ranked answers the
//!   in-process [`TaleDatabase`] produces, across shard counts,
//!   thread counts, and plan modes — including through a second TCP hop
//!   (raw client socket → frontend server → workers).
//! * **Worker death** — killing a worker mid-deployment fails the whole
//!   batch with the typed `ServerError::Transport { shard, .. }` (never a
//!   partial merge), and the frontend recovers on its own — reconnect
//!   with backoff — once the worker is back on the same address.
//! * **Saturation** — past the admission gate's limits, requests are
//!   shed with an explicit `Overloaded`, visible in the shed counter.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tale::shard::HashPolicy;
use tale::{PlanMode, QueryMatch, QueryOptions, TaleDatabase, TaleParams};
use tale_graph::generate::{gnm, mutate, MutationRates};
use tale_graph::{Graph, GraphDb};
use tale_server::engine::{EngineConfig, ShardEngine};
use tale_server::transport::{RemoteConfig, RemoteTransport, ShardTransport};
use tale_server::wire::{
    self, HelloResponse, QueryBatchRequest, QueryBatchResponse, Request, Response, WireExecStats,
    WireGraph, WireMatch, WireOptions, PROTOCOL_VERSION,
};
use tale_server::worker::{serve, serve_shard, ServerHandle, WorkerConfig};
use tale_server::{Frontend, FrontendConfig, GateConfig, ServerError};

const LABELS: u32 = 6;

fn corpus(seed: u64, n_graphs: usize) -> (GraphDb, Vec<Graph>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut db = GraphDb::new();
    for i in 0..LABELS {
        db.intern_node_label(&format!("L{i}"));
    }
    let mut originals = Vec::new();
    for i in 0..n_graphs {
        let g = gnm(&mut rng, 30, 60, LABELS);
        let (noisy, _) = mutate(&mut rng, &g, &MutationRates::mild(), LABELS);
        db.insert(format!("g{i}"), noisy);
        originals.push(g);
    }
    (db, originals)
}

fn assert_bit_identical(a: &[Vec<QueryMatch>], b: &[Vec<QueryMatch>], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: batch size");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.len(), y.len(), "{ctx}: result count for query {i}");
        for (m, n) in x.iter().zip(y) {
            assert_eq!(m.graph, n.graph, "{ctx}: graph order for query {i}");
            assert_eq!(m.graph_name, n.graph_name, "{ctx}: query {i}");
            assert_eq!(
                m.score.to_bits(),
                n.score.to_bits(),
                "{ctx}: score bits for query {i} graph {:?}",
                m.graph
            );
            assert_eq!(m.matched_nodes, n.matched_nodes, "{ctx}: query {i}");
            assert_eq!(m.matched_edges, n.matched_edges, "{ctx}: query {i}");
            assert_eq!(m.m.pairs, n.m.pairs, "{ctx}: pair list for query {i}");
        }
    }
}

/// One TCP server per shard of the database at `dir`, on ephemeral ports.
fn start_workers(dir: &Path, nshards: usize) -> Vec<ServerHandle> {
    (0..nshards)
        .map(|s| {
            let engine = ShardEngine::open(dir, s as u32, EngineConfig::default()).unwrap();
            serve_shard(
                Arc::new(engine),
                "127.0.0.1:0".parse().unwrap(),
                WorkerConfig::default(),
            )
            .unwrap()
        })
        .collect()
}

fn frontend_over(handles: &[ServerHandle]) -> Frontend {
    let transports: Vec<Arc<dyn ShardTransport>> = handles
        .iter()
        .enumerate()
        .map(|(i, h)| {
            RemoteTransport::new(h.addr(), i as u32, RemoteConfig::default())
                as Arc<dyn ShardTransport>
        })
        .collect();
    Frontend::new(transports, FrontendConfig::default()).unwrap()
}

fn wire_batch(db: &GraphDb, queries: &[Graph], opts: &QueryOptions) -> QueryBatchRequest {
    QueryBatchRequest {
        queries: queries
            .iter()
            .map(|g| WireGraph::from_graph(db, g))
            .collect(),
        options: WireOptions::from_options(opts),
        deadline_ms: None,
        allow_partial: false,
    }
}

fn decode(resp: &QueryBatchResponse) -> Vec<Vec<QueryMatch>> {
    resp.results
        .iter()
        .map(|wm| wm.matches.iter().map(WireMatch::to_match).collect())
        .collect()
}

/// The tentpole oracle: frontend + workers over loopback TCP vs the
/// in-process sharded database, across shards × threads × plan modes.
/// Also drives one batch per shard count through a *served* frontend via
/// a raw client socket, covering the full two-hop path.
#[test]
fn remote_execution_is_bit_identical_to_in_process() {
    let (db, originals) = corpus(91, 6);
    let params = TaleParams::default();
    let queries: Vec<&Graph> = originals.iter().collect();

    for &nshards in &[1usize, 2, 4] {
        let dir = tempfile::tempdir().unwrap();
        let sharded =
            TaleDatabase::build_sharded(db.clone(), dir.path(), &params, nshards, &HashPolicy)
                .unwrap();
        let handles = start_workers(dir.path(), nshards);
        let frontend = Arc::new(frontend_over(&handles));

        for &threads in &[0usize, 4] {
            for plan in [PlanMode::Fixed, PlanMode::Cost] {
                let ctx = format!("shards={nshards} threads={threads} plan={plan:?}");
                let opts = QueryOptions {
                    rho: 0.25,
                    p_imp: 0.25,
                    threads,
                    plan,
                    ..QueryOptions::default()
                }
                .with_cache(false);
                let expected = sharded.query_batch(&queries, &opts).unwrap();
                let req = wire_batch(&db, &originals, &opts);
                let resp = frontend.query_batch(&req, Instant::now()).unwrap();
                assert_bit_identical(&expected, &decode(&resp), &ctx);
            }
        }

        // Full client path: raw socket -> served frontend -> workers.
        let served = serve(
            Arc::clone(&frontend) as Arc<dyn tale_server::worker::Service>,
            "127.0.0.1:0".parse().unwrap(),
            WorkerConfig::default(),
        )
        .unwrap();
        let opts = QueryOptions {
            rho: 0.25,
            p_imp: 0.25,
            ..QueryOptions::default()
        }
        .with_cache(false);
        let expected = sharded.query_batch(&queries, &opts).unwrap();
        let mut client = std::net::TcpStream::connect(served.addr()).unwrap();
        wire::write_request(
            &mut client,
            &Request::QueryBatch(wire_batch(&db, &originals, &opts)),
        )
        .unwrap();
        match wire::read_response(&mut client).unwrap() {
            Some((Response::QueryBatch(resp), _)) => assert_bit_identical(
                &expected,
                &decode(&resp),
                &format!("shards={nshards} via client socket"),
            ),
            other => panic!("expected a batch response, got {other:?}"),
        }
    }
}

/// Restarts a worker for `shard` on the exact address it died on,
/// retrying the bind while the kernel clears the dead incarnation's
/// lingering sockets.
fn restart_worker(dir: &Path, shard: u32, addr: SocketAddr) -> ServerHandle {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let engine = ShardEngine::open(dir, shard, EngineConfig::default()).unwrap();
        match serve_shard(Arc::new(engine), addr, WorkerConfig::default()) {
            Ok(h) => return h,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("could not rebind {addr}: {e}"),
        }
    }
}

/// Worker death fails the whole batch with the typed transport error —
/// naming the dead shard, never a partial merge — and the frontend's
/// reconnect-with-backoff recovers once the worker is back.
#[test]
fn worker_death_is_typed_and_reconnect_recovers() {
    let (db, originals) = corpus(7, 4);
    let params = TaleParams::default();
    let queries: Vec<&Graph> = originals.iter().collect();
    let dir = tempfile::tempdir().unwrap();
    let sharded =
        TaleDatabase::build_sharded(db.clone(), dir.path(), &params, 2, &HashPolicy).unwrap();
    let mut handles = start_workers(dir.path(), 2);
    let frontend = frontend_over(&handles);

    let opts = QueryOptions {
        rho: 0.25,
        p_imp: 0.25,
        ..QueryOptions::default()
    }
    .with_cache(false);
    let expected = sharded.query_batch(&queries, &opts).unwrap();
    let req = wire_batch(&db, &originals, &opts);

    // Healthy round first.
    let resp = frontend.query_batch(&req, Instant::now()).unwrap();
    assert_bit_identical(&expected, &decode(&resp), "before worker death");

    // Kill shard 1's worker: listener down, live connections severed.
    let dead_addr = handles[1].addr();
    handles[1].shutdown();
    match frontend.query_batch(&req, Instant::now()) {
        Err(ServerError::Transport { shard, .. }) => {
            assert_eq!(shard, 1, "the error names the dead shard")
        }
        other => panic!("expected a shard-1 transport error, got {other:?}"),
    }

    // Revive the worker on the same address; the very next batch must
    // succeed through the transport's own redial, bit-identically.
    handles[1] = restart_worker(dir.path(), 1, dead_addr);
    let resp = frontend.query_batch(&req, Instant::now()).unwrap();
    assert_bit_identical(&expected, &decode(&resp), "after worker revival");
}

/// A transport that answers hello correctly and then takes `delay` per
/// batch — long enough for concurrent arrivals to pile up at the gate.
struct SlowTransport {
    delay: Duration,
}

impl ShardTransport for SlowTransport {
    fn shard(&self) -> u32 {
        0
    }
    fn call(&self, req: &Request, _deadline: Option<Instant>) -> tale_server::Result<Response> {
        match req {
            Request::Hello(_) => Ok(Response::Hello(HelloResponse {
                protocol: PROTOCOL_VERSION,
                shard: 0,
                shard_count: 1,
                graphs: 0,
                vocab_fingerprint: 42,
            })),
            _ => {
                std::thread::sleep(self.delay);
                Ok(Response::QueryBatch(QueryBatchResponse {
                    results: Vec::new(),
                    stats: WireExecStats::default(),
                    degraded: Vec::new(),
                }))
            }
        }
    }
    fn describe(&self) -> String {
        "slow stub".into()
    }
}

/// Saturating the admission gate sheds with an explicit `Overloaded` —
/// every refused request gets the typed answer and is counted; nothing
/// is silently dropped.
#[test]
fn saturation_sheds_with_explicit_overloaded() {
    let frontend = Arc::new(
        Frontend::new(
            vec![Arc::new(SlowTransport {
                delay: Duration::from_millis(150),
            }) as Arc<dyn ShardTransport>],
            FrontendConfig {
                gate: GateConfig {
                    max_inflight: 1,
                    max_queue: 0,
                },
                ..FrontendConfig::default()
            },
        )
        .unwrap(),
    );
    let req = QueryBatchRequest {
        queries: Vec::new(),
        options: WireOptions::from_options(&QueryOptions::default()),
        deadline_ms: None,
        allow_partial: false,
    };

    const CLIENTS: usize = 8;
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let frontend = Arc::clone(&frontend);
                let req = req.clone();
                s.spawn(move || frontend.query_batch(&req, Instant::now()))
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });

    let ok = outcomes.iter().filter(|r| r.is_ok()).count();
    let shed = outcomes
        .iter()
        .filter(|r| matches!(r, Err(ServerError::Overloaded(_))))
        .count();
    assert_eq!(
        ok + shed,
        CLIENTS,
        "every request is either served or explicitly shed: {outcomes:?}"
    );
    assert!(ok >= 1, "at least the first arrival is served");
    assert!(shed >= 1, "past the gate, arrivals shed explicitly");
    let snap = frontend.counters().snapshot();
    assert_eq!(snap.requests_shed, shed as u64, "every shed is counted");
}
