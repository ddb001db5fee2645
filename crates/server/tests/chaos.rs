//! Chaos sweep: the serving stack under injected faults.
//!
//! The contract under test, end to end: a client behind the
//! fault-tolerance layer (retries, failover, hedging, circuit breakers)
//! either gets an answer **bit-identical** to in-process execution, a
//! **typed** error, or — only when it opted in — an explicit `degraded`
//! marker naming the missing shards. Never a silently wrong or silently
//! partial answer, no matter what the network does.
//!
//! Faults come from two injectors: [`ChaosProxy`] damages real TCP byte
//! streams (refused connections, black holes, delays, connections
//! killed mid-frame, truncated and bit-flipped responses), and
//! [`FaultyTransport`] fails calls deterministically in-process for the
//! breaker/failover/mutation unit contracts.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tale::shard::HashPolicy;
use tale::{QueryMatch, QueryOptions, TaleDatabase, TaleParams};
use tale_graph::generate::{gnm, mutate, MutationRates};
use tale_graph::{Graph, GraphDb};
use tale_server::admission::{AdmissionGate, GateConfig};
use tale_server::engine::{EngineConfig, ShardEngine};
use tale_server::transport::{LocalTransport, RemoteConfig, RemoteTransport, ShardTransport};
use tale_server::wire::{
    self, InsertRequest, QueryBatchRequest, QueryBatchResponse, Request, Response, WireExecStats,
    WireGraph, WireMatch, WireOptions,
};
use tale_server::worker::{serve, serve_shard, ServerContext, ServerHandle, Service, WorkerConfig};
use tale_server::{
    ChaosProxy, Fault, FaultyTransport, Frontend, FrontendConfig, ReplicaConfig, ReplicaSet,
    ServerCounters, ServerError, WireError,
};

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

fn test_options() -> QueryOptions {
    QueryOptions {
        rho: 0.25,
        p_imp: 0.25,
        ..QueryOptions::default()
    }
    .with_cache(false)
}

fn wire_batch(
    db: &GraphDb,
    queries: &[Graph],
    opts: &QueryOptions,
    deadline_ms: Option<u64>,
    allow_partial: bool,
) -> QueryBatchRequest {
    QueryBatchRequest {
        queries: queries
            .iter()
            .map(|g| WireGraph::from_graph(db, g))
            .collect(),
        options: WireOptions::from_options(opts),
        deadline_ms,
        allow_partial,
    }
}

fn decode(resp: &QueryBatchResponse) -> Vec<Vec<QueryMatch>> {
    resp.results
        .iter()
        .map(|wm| wm.matches.iter().map(WireMatch::to_match).collect())
        .collect()
}

fn assert_bit_identical(a: &[Vec<QueryMatch>], b: &[Vec<QueryMatch>], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: batch size");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.len(), y.len(), "{ctx}: result count for query {i}");
        for (m, n) in x.iter().zip(y) {
            assert_eq!(m.graph, n.graph, "{ctx}: graph order for query {i}");
            assert_eq!(
                m.score.to_bits(),
                n.score.to_bits(),
                "{ctx}: score bits for query {i} graph {:?}",
                m.graph
            );
            assert_eq!(m.m.pairs, n.m.pairs, "{ctx}: pair list for query {i}");
        }
    }
}

/// Builds a 1-shard database in `dir` and returns the in-process
/// reference answers for the whole workload.
fn build_single_shard(
    db: &GraphDb,
    originals: &[Graph],
    dir: &Path,
    opts: &QueryOptions,
) -> Vec<Vec<QueryMatch>> {
    let queries: Vec<&Graph> = originals.iter().collect();
    let sharded =
        TaleDatabase::build_sharded(db.clone(), dir, &TaleParams::default(), 1, &HashPolicy)
            .unwrap();
    sharded.query_batch(&queries, opts).unwrap()
}

fn start_worker(dir: &Path, shard: u32) -> ServerHandle {
    let engine = ShardEngine::open(dir, shard, EngineConfig::default()).unwrap();
    serve_shard(
        Arc::new(engine),
        "127.0.0.1:0".parse().unwrap(),
        WorkerConfig::default(),
    )
    .unwrap()
}

fn local_transport(dir: &Path, shard: u32) -> Arc<dyn ShardTransport> {
    let engine = ShardEngine::open(dir, shard, EngineConfig::default()).unwrap();
    Arc::new(LocalTransport::new(ServerContext {
        engine: Arc::new(engine),
        gate: AdmissionGate::new(GateConfig::default()),
        counters: Arc::new(ServerCounters::new()),
    }))
}

/// Transport tuning for chaos runs: tight io timeout so black holes
/// resolve in test time, a few retries to mask severed connections.
fn chaos_remote_cfg(retries: u32) -> RemoteConfig {
    RemoteConfig {
        connect_attempts: 3,
        backoff: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(40),
        retries,
        io_timeout: Some(Duration::from_millis(250)),
        ..RemoteConfig::default()
    }
}

/// No background prober, no hedging: every breaker transition in these
/// tests comes from a request the test itself issued.
fn deterministic_replica_cfg() -> ReplicaConfig {
    ReplicaConfig {
        probe_interval: Duration::ZERO,
        retries: 3,
        backoff: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
        hedge_after: None,
        ..ReplicaConfig::default()
    }
}

/// The scripted sweep: every fault in the palette, injected into the
/// first connection a fresh transport makes, with retries enabled. The
/// client must come out with either the bit-identical answer (the fault
/// was masked by a retry on a clean connection) or a typed error —
/// never a wrong or partial answer.
#[test]
fn fault_sweep_masks_or_types_every_failure() {
    let (db, originals) = corpus(21, 5);
    let opts = test_options();
    let dir = tempfile::tempdir().unwrap();
    let expected = build_single_shard(&db, &originals, dir.path(), &opts);
    let worker = start_worker(dir.path(), 0);

    let faults = [
        Fault::Refuse,
        Fault::BlackHole,
        Fault::Delay(Duration::from_millis(40)),
        Fault::KillAfterRequestBytes(24),
        Fault::TruncateResponseAfter(24),
        // Offset 600 lands inside the (multi-KiB) query response
        // payload, past the ~100-byte hello exchange.
        Fault::CorruptResponseByte(600),
    ];
    for fault in faults {
        let ctx = format!("{fault:?}");
        let proxy = ChaosProxy::new(worker.addr()).unwrap();
        proxy.enqueue(fault);
        let transport = RemoteTransport::new(proxy.addr(), 0, chaos_remote_cfg(3));
        let req = Request::QueryBatch(wire_batch(&db, &originals, &opts, Some(5000), false));
        let deadline = Some(Instant::now() + Duration::from_secs(5));
        match transport.call(&req, deadline) {
            Ok(Response::QueryBatch(resp)) => {
                assert_bit_identical(&expected, &decode(&resp), &ctx);
                assert!(resp.degraded.is_empty(), "{ctx}: degraded without opt-in");
            }
            // A typed error is an acceptable outcome; a wrong answer is
            // not, and would have surfaced as Ok above.
            Err(e) => eprintln!("{ctx}: typed error {e}"),
            Ok(other) => panic!("{ctx}: non-batch answer {other:?}"),
        }
        assert!(
            proxy.faults_injected() >= 1,
            "{ctx}: the scripted fault was never drawn"
        );
    }
}

/// A flipped response bit must die at the frame CRC with the typed
/// `Corrupt` refusal — with retries disabled so the refusal itself is
/// visible instead of being masked by a clean reconnect.
#[test]
fn corrupted_response_dies_at_the_crc() {
    let (db, originals) = corpus(22, 5);
    let opts = test_options();
    let dir = tempfile::tempdir().unwrap();
    let _expected = build_single_shard(&db, &originals, dir.path(), &opts);
    let worker = start_worker(dir.path(), 0);

    let proxy = ChaosProxy::new(worker.addr()).unwrap();
    proxy.enqueue(Fault::CorruptResponseByte(600));
    let transport = RemoteTransport::new(proxy.addr(), 0, chaos_remote_cfg(0));
    let req = Request::QueryBatch(wire_batch(&db, &originals, &opts, Some(5000), false));
    match transport.call(&req, Some(Instant::now() + Duration::from_secs(5))) {
        Err(ServerError::Wire(WireError::Corrupt { expected, got })) => {
            assert_ne!(expected, got, "corrupt CRCs must differ");
        }
        other => panic!("expected a CRC refusal, got {other:?}"),
    }
}

/// The acceptance scenario: two replicas serve the same shard, the
/// primary is killed while batches are in flight, and the client sees
/// zero errors — every batch still comes back bit-identical, with the
/// failover visible in the counters instead of the answers.
#[test]
fn killed_replica_mid_batch_fails_over_with_zero_errors() {
    let (db, originals) = corpus(23, 4);
    let opts = test_options();
    let dir = tempfile::tempdir().unwrap();
    let expected = build_single_shard(&db, &originals, dir.path(), &opts);
    let mut primary = start_worker(dir.path(), 0);
    let secondary = start_worker(dir.path(), 0);

    let members: Vec<Arc<dyn ShardTransport>> = vec![
        RemoteTransport::new(primary.addr(), 0, chaos_remote_cfg(0)),
        RemoteTransport::new(secondary.addr(), 0, chaos_remote_cfg(0)),
    ];
    let set = ReplicaSet::new(0, members, deterministic_replica_cfg());
    let counters = Arc::new(ServerCounters::new());
    let frontend = Arc::new(
        Frontend::with_counters(
            vec![set as Arc<dyn ShardTransport>],
            FrontendConfig::default(),
            Arc::clone(&counters),
        )
        .unwrap(),
    );

    let req = wire_batch(&db, &originals, &opts, Some(10_000), false);
    let resp = frontend.query_batch(&req, Instant::now()).unwrap();
    assert_bit_identical(&expected, &decode(&resp), "before the kill");

    // Batches stream from a client thread while the primary dies.
    let client = {
        let frontend = Arc::clone(&frontend);
        let req = req.clone();
        std::thread::spawn(move || {
            let until = Instant::now() + Duration::from_millis(600);
            let mut answers = Vec::new();
            while Instant::now() < until {
                answers.push(frontend.query_batch(&req, Instant::now()));
            }
            answers
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    primary.shutdown();
    let answers = client.join().unwrap();

    assert!(!answers.is_empty());
    for (i, ans) in answers.iter().enumerate() {
        match ans {
            Ok(resp) => assert_bit_identical(&expected, &decode(resp), &format!("batch {i}")),
            Err(e) => panic!("client-visible error on batch {i}: {e}"),
        }
    }
    let snap = counters.snapshot();
    assert!(snap.failovers >= 1, "failover never engaged: {snap:?}");
    assert!(
        snap.replica_failures >= 1,
        "the dead replica's failures went uncounted"
    );
}

/// A transport that answers correctly, slowly.
struct Laggy {
    inner: Arc<dyn ShardTransport>,
    delay: Duration,
}

impl ShardTransport for Laggy {
    fn shard(&self) -> u32 {
        self.inner.shard()
    }
    fn call(&self, req: &Request, deadline: Option<Instant>) -> tale_server::Result<Response> {
        std::thread::sleep(self.delay);
        self.inner.call(req, deadline)
    }
    fn describe(&self) -> String {
        format!("laggy({})", self.inner.describe())
    }
}

/// With a fixed hedge trigger, a slow primary loses the race to the
/// hedged probe on the second replica: the fast answer wins, the client
/// never waits out the laggard, and both hedge counters move.
#[test]
fn hedged_request_wins_on_a_slow_replica() {
    let (db, originals) = corpus(24, 3);
    let opts = test_options();
    let dir = tempfile::tempdir().unwrap();
    let expected = build_single_shard(&db, &originals, dir.path(), &opts);

    let slow: Arc<dyn ShardTransport> = Arc::new(Laggy {
        inner: local_transport(dir.path(), 0),
        delay: Duration::from_millis(300),
    });
    let fast = local_transport(dir.path(), 0);
    let cfg = ReplicaConfig {
        hedge_after: Some(Duration::from_millis(25)),
        ..deterministic_replica_cfg()
    };
    let set = ReplicaSet::new(0, vec![slow, fast], cfg);
    let counters = Arc::new(ServerCounters::new());
    set.attach_counters(&counters);

    let req = Request::QueryBatch(wire_batch(&db, &originals, &opts, None, false));
    let t0 = Instant::now();
    match set.call(&req, Some(Instant::now() + Duration::from_secs(5))) {
        Ok(Response::QueryBatch(resp)) => {
            assert_bit_identical(&expected, &decode(&resp), "hedged answer")
        }
        other => panic!("expected a batch answer, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_millis(290),
        "the client waited out the slow replica instead of hedging"
    );
    let snap = counters.snapshot();
    assert!(snap.hedges_fired >= 1, "hedge never fired: {snap:?}");
    assert!(snap.hedges_won >= 1, "hedge never won: {snap:?}");
}

/// Breaker lifecycle against a dead replica: consecutive failures open
/// it, requests stop landing on it, and after the cooldown one
/// half-open trial against the revived replica closes it again.
#[test]
fn breaker_opens_after_threshold_and_recovers_half_open() {
    let (db, originals) = corpus(25, 3);
    let opts = test_options();
    let dir = tempfile::tempdir().unwrap();
    let expected = build_single_shard(&db, &originals, dir.path(), &opts);

    let flaky = FaultyTransport::new(local_transport(dir.path(), 0));
    let healthy = local_transport(dir.path(), 0);
    let cfg = ReplicaConfig {
        failure_threshold: 2,
        open_cooldown: Duration::from_millis(50),
        ..deterministic_replica_cfg()
    };
    let set = ReplicaSet::new(
        0,
        vec![Arc::clone(&flaky) as Arc<dyn ShardTransport>, healthy],
        cfg,
    );
    let counters = Arc::new(ServerCounters::new());
    set.attach_counters(&counters);
    flaky.set_dead(true);

    let req = Request::QueryBatch(wire_batch(&db, &originals, &opts, None, false));
    for i in 0..3 {
        match set.call(&req, Some(Instant::now() + Duration::from_secs(5))) {
            Ok(Response::QueryBatch(resp)) => {
                assert_bit_identical(&expected, &decode(&resp), &format!("round {i}"))
            }
            other => panic!("round {i}: expected a batch answer, got {other:?}"),
        }
    }
    let health = set.replica_health().unwrap();
    assert_eq!(
        health[0].state, "open",
        "dead replica's breaker: {health:?}"
    );
    assert_eq!(health[1].state, "closed");
    let snap = counters.snapshot();
    assert!(snap.breaker_opened >= 1, "breaker never opened: {snap:?}");
    assert!(snap.failovers >= 1, "failover went uncounted: {snap:?}");
    assert!(snap.retries >= 1, "retries went uncounted: {snap:?}");

    // Revive; after the cooldown the next request is the half-open
    // trial and its success closes the breaker.
    flaky.set_dead(false);
    std::thread::sleep(Duration::from_millis(60));
    match set.call(&req, Some(Instant::now() + Duration::from_secs(5))) {
        Ok(Response::QueryBatch(resp)) => {
            assert_bit_identical(&expected, &decode(&resp), "after revival")
        }
        other => panic!("expected a batch answer, got {other:?}"),
    }
    let health = set.replica_health().unwrap();
    assert_eq!(health[0].state, "closed", "revived replica: {health:?}");
}

/// Mutations are never retried or failed over: a dead primary fails the
/// mutation with a typed error after exactly one attempt, and the
/// healthy secondary never sees it — a lost acknowledgement must not
/// become a double apply.
#[test]
fn mutations_go_to_the_primary_exactly_once() {
    let (db, _) = corpus(26, 3);
    let dir = tempfile::tempdir().unwrap();
    drop(
        TaleDatabase::build_sharded(
            db.clone(),
            dir.path(),
            &TaleParams::default(),
            1,
            &HashPolicy,
        )
        .unwrap(),
    );

    let primary = FaultyTransport::new(local_transport(dir.path(), 0));
    let secondary = FaultyTransport::new(local_transport(dir.path(), 0));
    let set = ReplicaSet::new(
        0,
        vec![
            Arc::clone(&primary) as Arc<dyn ShardTransport>,
            Arc::clone(&secondary) as Arc<dyn ShardTransport>,
        ],
        deterministic_replica_cfg(),
    );
    primary.set_dead(true);

    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let g = gnm(&mut rng, 8, 12, LABELS);
    let insert = Request::Insert(InsertRequest {
        name: "chaos-insert".into(),
        graph: WireGraph::from_graph(&db, &g),
    });
    match set.call(&insert, Some(Instant::now() + Duration::from_secs(5))) {
        Err(ServerError::Io(_)) => {}
        other => panic!("expected the primary's failure to surface, got {other:?}"),
    }
    assert_eq!(primary.calls(), 1, "mutations get exactly one attempt");
    assert_eq!(
        secondary.calls(),
        0,
        "a mutation must never fail over to another replica"
    );
}

/// `allow_partial` is the only road to a partial answer, and it is an
/// explicit one: the default fails closed with the typed transport
/// error, opting in yields the surviving shards' merge plus a
/// `degraded` list naming the missing shard — and when every shard is
/// gone there is nothing to degrade *to*, so even the opt-in fails.
#[test]
fn allow_partial_degrades_explicitly_and_default_fails_closed() {
    let (db, originals) = corpus(27, 6);
    let opts = test_options();
    let queries: Vec<&Graph> = originals.iter().collect();
    let dir = tempfile::tempdir().unwrap();
    let sharded = TaleDatabase::build_sharded(
        db.clone(),
        dir.path(),
        &TaleParams::default(),
        2,
        &HashPolicy,
    )
    .unwrap();
    let expected = sharded.query_batch(&queries, &opts).unwrap();

    let t0 = FaultyTransport::new(local_transport(dir.path(), 0));
    let t1 = FaultyTransport::new(local_transport(dir.path(), 1));
    let counters = Arc::new(ServerCounters::new());
    let frontend = Frontend::with_counters(
        vec![
            Arc::clone(&t0) as Arc<dyn ShardTransport>,
            Arc::clone(&t1) as Arc<dyn ShardTransport>,
        ],
        FrontendConfig::default(),
        Arc::clone(&counters),
    )
    .unwrap();

    // Healthy: full merge, nothing degraded, even with the opt-in set.
    let req = wire_batch(&db, &originals, &opts, None, true);
    let resp = frontend.query_batch(&req, Instant::now()).unwrap();
    assert_bit_identical(&expected, &decode(&resp), "healthy with opt-in");
    assert!(resp.degraded.is_empty());

    // Shard 1 exhausted. Default: the whole batch fails, typed.
    t1.set_dead(true);
    let strict = wire_batch(&db, &originals, &opts, None, false);
    match frontend.query_batch(&strict, Instant::now()) {
        Err(ServerError::Transport { shard, .. }) => assert_eq!(shard, 1),
        other => panic!("expected a shard-1 transport error, got {other:?}"),
    }

    // Opt-in: the shard-0 partials come back, shard 1 is named.
    let resp = frontend.query_batch(&req, Instant::now()).unwrap();
    assert_eq!(resp.degraded, vec![1], "the missing shard is named");
    let shard0_only = match t0.call(&Request::QueryBatch(strict.clone()), None) {
        Ok(Response::QueryBatch(p)) => decode(&p),
        other => panic!("shard 0 reference call failed: {other:?}"),
    };
    assert_bit_identical(&shard0_only, &decode(&resp), "degraded answer = shard 0's");
    assert!(counters.snapshot().responses_degraded >= 1);

    // Every shard exhausted: nothing to answer from, opt-in or not.
    t0.set_dead(true);
    match frontend.query_batch(&req, Instant::now()) {
        Err(ServerError::Transport { .. }) => {}
        other => panic!("all-shards-down must fail even with opt-in, got {other:?}"),
    }

    // Recovery is symmetric: revive both, full merge again.
    t0.set_dead(false);
    t1.set_dead(false);
    let resp = frontend.query_batch(&req, Instant::now()).unwrap();
    assert_bit_identical(&expected, &decode(&resp), "after revival");
    assert!(resp.degraded.is_empty());
}

/// A service whose handling takes a fixed, visible amount of time — so
/// the drain test can deterministically catch a request in flight.
struct SlowService {
    counters: Arc<ServerCounters>,
    delay: Duration,
}

impl Service for SlowService {
    fn handle(&self, _req: &Request, _received: Instant) -> Response {
        std::thread::sleep(self.delay);
        Response::QueryBatch(QueryBatchResponse {
            results: Vec::new(),
            stats: WireExecStats::default(),
            degraded: Vec::new(),
        })
    }
    fn counters(&self) -> &Arc<ServerCounters> {
        &self.counters
    }
}

/// Graceful drain never drops an accepted request: a request already
/// being served when the drain begins still gets its full response, and
/// the drain reports clean.
#[test]
fn draining_worker_finishes_accepted_requests() {
    let counters = Arc::new(ServerCounters::new());
    let service = Arc::new(SlowService {
        counters: Arc::clone(&counters),
        delay: Duration::from_millis(300),
    });
    let mut handle = serve(
        service as Arc<dyn Service>,
        "127.0.0.1:0".parse().unwrap(),
        WorkerConfig::default(),
    )
    .unwrap();
    let addr = handle.addr();

    let client = std::thread::spawn(move || {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let req = Request::QueryBatch(QueryBatchRequest {
            queries: Vec::new(),
            options: WireOptions::from_options(&QueryOptions::default()),
            deadline_ms: None,
            allow_partial: false,
        });
        wire::write_request(&mut stream, &req).unwrap();
        wire::read_response(&mut stream)
    });

    // Wait until the request is provably in flight, then drain.
    let seen = Instant::now() + Duration::from_secs(5);
    while counters.requests_serving.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < seen, "the request never started serving");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        handle.drain(Duration::from_secs(5)),
        "drain should finish clean once the in-flight request completes"
    );

    match client.join().unwrap() {
        Ok(Some((Response::QueryBatch(_), _))) => {}
        other => panic!("the accepted request was dropped by the drain: {other:?}"),
    }
}
