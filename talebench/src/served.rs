//! `bind_served` and `bind_rw_served`: Fig. 6 BIND through a loopback
//! deployment of `tale_server`.
//!
//! The deployment is the one `tale-server` runs: one `serve_shard`
//! worker per shard and a `Frontend` over remote transports, all on
//! loopback TCP in this process. The benchmark reaches it only through
//! public entry points. It wraps each transport and the frontend's
//! `Service` in its own recorders, which time the calls and read the
//! statistics the responses carry; nothing inside the program changes.
//!
//! Clients are the open-loop generator of [`crate::loadgen`], one
//! persistent connection per core. Each connection has its own listener
//! in front of the one shared `Frontend`, so the frontend span of a
//! request is found by (connection, position on it).

use crate::jobj;
use crate::json::J;
use crate::loadgen::{self, Client, Outcome, Record};
use crate::oracle::{self, Answer};
use crate::stats::{self, mean, ratio};
use crate::trace::{self, Span, Tracer};
use crate::{sys, Run};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tale::{BatchStats, QueryOptions, TaleDatabase, TaleParams};
use tale_datasets::pin::PinCorpus;
use tale_graph::{Graph, GraphDb, GraphId};
use tale_server::counters::{ServerCounters, ServerStatsSnapshot};
use tale_server::engine::{EngineConfig, ShardEngine};
use tale_server::transport::{RemoteConfig, RemoteTransport, ShardTransport};
use tale_server::wire::{
    self, FoldRequest, InsertRequest, QueryBatchRequest, RemoveRequest, Request, Response,
    WireExecStats, WireGraph, WireOptions,
};
use tale_server::worker::{serve, serve_shard, ServerHandle, Service, WorkerConfig};
use tale_server::{Frontend, FrontendConfig, GateConfig};
use tale_shard::{HashPolicy, ShardedTaleDatabase};

/// The BIND corpus is the Fig. 6 corpus of the `experiments` binary at
/// its default seed and scale. The engine time of the largest query
/// ranges from 6 ms to 350 ms over `PinCorpus` draws, so a corpus drawn
/// from `--seed` would make the tail a property of the draw; `--seed`
/// drives the arrival schedule, the query order and the writes instead.
const CORPUS_SEED: u64 = 20080407;
/// Corpus scale (the `experiments` default).
const CORPUS_SCALE: f64 = 0.12;
/// Graphs in the corpus (D4).
const GRAPHS: usize = 40;
/// Deployments built per run; `setup_s` is the median.
const SETUPS: usize = 15;
/// Latency limit on each ladder rung's p90, milliseconds.
const LIMIT_MS: f64 = 500.0;
/// Offered-rate ladder behind `slo_qps` (queries per second), and the
/// requests sent at each rung.
const LADDER: [f64; 5] = [10.0, 20.0, 40.0, 60.0, 80.0];
const LADDER_REQUESTS: usize = 100;
/// The fixed percentile behind `query_tail_ms`: both BIND workloads
/// send at least 200 queries per run.
const TAIL_P: u32 = 95;
/// Writes to the shard engine, called directly, per traced run.
const ENGINE_WRITES: usize = 10;

/// Which BIND workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Two shards, queries only, cache off.
    ReadOnly,
    /// One shard, queries mixed with inserts, removes and folds, cache on.
    ReadWrite,
}

impl Kind {
    fn shards(self) -> usize {
        match self {
            Kind::ReadOnly => 2,
            Kind::ReadWrite => 1,
        }
    }
    /// Offered query rate, per second.
    fn query_rate(self) -> f64 {
        match self {
            Kind::ReadOnly => 10.0,
            Kind::ReadWrite => 8.0,
        }
    }
    /// Offered write rate (inserts, removes and folds), per second.
    fn write_rate(self) -> f64 {
        match self {
            Kind::ReadOnly => 0.0,
            Kind::ReadWrite => 2.0,
        }
    }
}

/// `bind_rw_served` folds once every `FOLD_EVERY` writes, half a cycle
/// in, so the last write of a run is no fold.
const FOLD_EVERY: usize = 30;
/// Inserts before the first remove: one copy of every query graph, so
/// that with removes taking the oldest copy and inserts cycling through
/// the query set the live corpus holds one copy of each.
const WARM_INSERTS: usize = 8;

/// The corpus and its Fig. 6 query set (D1, capped as in Table III).
struct Corpus {
    db: GraphDb,
    queries: Vec<GraphId>,
}

fn corpus() -> Corpus {
    let c = PinCorpus::generate(CORPUS_SEED, GRAPHS, CORPUS_SCALE);
    let cap = ((3100.0 * CORPUS_SCALE) as usize).max(20);
    let queries = c.queries(Some(cap));
    Corpus { db: c.db, queries }
}

/// Identifies a query by its shape, which differs across the query set.
fn qkey(g: &WireGraph) -> u64 {
    ((g.node_labels.len() as u64) << 32) | g.edges.len() as u64
}

fn batch_key(req: &Request) -> Option<u64> {
    match req {
        Request::QueryBatch(q) => q.queries.first().map(qkey),
        _ => None,
    }
}

/// Frames seen on the frontend-to-worker hop, first of each kind.
#[derive(Default)]
struct Capture {
    partials: Mutex<BTreeMap<(u64, u32), (Request, Response)>>,
}

/// A transport that records the hop to one worker: a `transport` span
/// around the call, and inside it an `engine` span as long as the
/// worker's reported engine wall clock (centred: only its length is
/// known).
struct TracedTransport {
    inner: Arc<dyn ShardTransport>,
    tracer: Arc<Tracer>,
    capture: Arc<Capture>,
}

impl ShardTransport for TracedTransport {
    fn shard(&self) -> u32 {
        self.inner.shard()
    }
    fn call(&self, req: &Request, deadline: Option<Instant>) -> tale_server::Result<Response> {
        let t0 = Instant::now();
        let resp = self.inner.call(req, deadline);
        let t1 = Instant::now();
        if let (true, Some(key), Ok(Response::QueryBatch(p))) =
            (self.tracer.enabled(), batch_key(req), &resp)
        {
            let id = self.tracer.record("transport", None, key, t0, t1);
            let (a, b) = (self.tracer.ns(t0), self.tracer.ns(t1));
            let wall = ((p.stats.wall_secs * 1e9) as u64).min(b - a);
            let start = a + (b - a - wall) / 2;
            self.tracer
                .record_ns("engine", Some(id), key, start, start + wall);
            self.capture
                .partials
                .lock()
                .expect("capture lock")
                .entry((key, self.shard()))
                .or_insert_with(|| (req.clone(), Response::QueryBatch(p.clone())));
        }
        resp
    }
    fn describe(&self) -> String {
        self.inner.describe()
    }
    fn pin_fingerprint(&self, fp: u64) {
        self.inner.pin_fingerprint(fp)
    }
    fn replica_health(&self) -> Option<Vec<wire::ReplicaHealthInfo>> {
        self.inner.replica_health()
    }
    fn attach_counters(&self, counters: &Arc<ServerCounters>) {
        self.inner.attach_counters(counters)
    }
}

/// The frontend as served to client connection `conn`: records a
/// `frontend` span around each query batch, keyed by the request's
/// position on the connection.
struct FrontService {
    conn: u64,
    seq: AtomicU64,
    inner: Arc<Frontend>,
    tracer: Arc<Tracer>,
}

impl Service for FrontService {
    fn handle(&self, req: &Request, received: Instant) -> Response {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let resp = self.inner.handle(req, received);
        if self.tracer.enabled() && matches!(req, Request::QueryBatch(_)) {
            self.tracer.record(
                "frontend",
                None,
                (self.conn << 32) | seq,
                t0,
                Instant::now(),
            );
        }
        resp
    }
    fn counters(&self) -> &Arc<ServerCounters> {
        self.inner.counters()
    }
}

/// A running deployment.
struct Deployment {
    root: PathBuf,
    workers: Vec<ServerHandle>,
    fronts: Vec<ServerHandle>,
    frontend: Arc<Frontend>,
}

impl Deployment {
    fn addrs(&self) -> Vec<SocketAddr> {
        self.fronts.iter().map(ServerHandle::addr).collect()
    }

    fn shutdown(mut self) {
        for h in self.fronts.iter_mut().chain(self.workers.iter_mut()) {
            h.shutdown();
        }
    }
}

fn local() -> SocketAddr {
    "127.0.0.1:0".parse().expect("literal address")
}

/// Builds the sharded index under `root` and serves it: workers, the
/// frontend (handshake included) and one listener per client
/// connection. Everything `setup_s` times.
fn deploy(
    db: GraphDb,
    root: &Path,
    shards: usize,
    conns: usize,
    tracer: &Arc<Tracer>,
    capture: &Arc<Capture>,
) -> Deployment {
    let built = ShardedTaleDatabase::build(db, root, &TaleParams::bind(), shards, &HashPolicy)
        .expect("sharded build");
    drop(built);
    let workers: Vec<ServerHandle> = (0..shards)
        .map(|s| {
            let engine = ShardEngine::open(root, s as u32, EngineConfig::default())
                .expect("open shard engine");
            serve_shard(Arc::new(engine), local(), WorkerConfig::default()).expect("serve shard")
        })
        .collect();
    let transports: Vec<Arc<dyn ShardTransport>> = workers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            Arc::new(TracedTransport {
                inner: RemoteTransport::new(h.addr(), i as u32, RemoteConfig::default()),
                tracer: Arc::clone(tracer),
                capture: Arc::clone(capture),
            }) as Arc<dyn ShardTransport>
        })
        .collect();
    let cores = sys::cores();
    let frontend = Arc::new(
        Frontend::new(
            transports,
            FrontendConfig {
                gate: GateConfig {
                    max_inflight: cores.clamp(2, 8),
                    max_queue: 64,
                },
                ..FrontendConfig::default()
            },
        )
        .expect("frontend handshake"),
    );
    let fronts = (0..conns)
        .map(|c| {
            let svc = FrontService {
                conn: c as u64,
                seq: AtomicU64::new(0),
                inner: Arc::clone(&frontend),
                tracer: Arc::clone(tracer),
            };
            serve(Arc::new(svc), local(), WorkerConfig::default()).expect("serve frontend")
        })
        .collect();
    Deployment {
        root: root.to_owned(),
        workers,
        fronts,
        frontend,
    }
}

/// One scheduled operation.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Query `i` of the query set.
    Query(usize),
    /// The `n`-th write (0-based); its kind is decided when it is sent.
    Write(usize),
}

/// What came back for one operation.
#[derive(Clone, Debug)]
enum Got {
    Query {
        qi: usize,
        answer: Answer,
        stats: WireExecStats,
    },
    Insert,
    Remove,
    Fold,
}

/// Writes resolved at send time: removes target the oldest
/// acknowledged insert still live, so the live corpus stays flat.
#[derive(Default)]
struct WriteState {
    inserts: usize,
    live: VecDeque<u32>,
    inserted: BTreeMap<u32, usize>,
    removed: Vec<u32>,
}

/// The benchmark's client side of a deployment.
struct Clients<'a> {
    addrs: Vec<SocketAddr>,
    ops: &'a [Op],
    query_reqs: &'a [Request],
    insert_order: &'a [usize],
    insert_graphs: &'a [WireGraph],
    writes: Mutex<WriteState>,
    got: Mutex<BTreeMap<usize, Got>>,
    finals: Mutex<BTreeMap<usize, Response>>,
    capture_finals: bool,
}

impl Clients<'_> {
    fn write_request(&self, n: usize) -> Request {
        // folds fall mid-cycle, so the last write of a run is no fold
        if (n + 1 + FOLD_EVERY / 2).is_multiple_of(FOLD_EVERY) {
            return Request::Fold(FoldRequest { confirm: true });
        }
        // ordinal among the inserts and removes
        let plain = n - (n + FOLD_EVERY / 2) / FOLD_EVERY;
        let removing = plain >= WARM_INSERTS && plain.is_multiple_of(2);
        let mut w = self.writes.lock().expect("write state");
        if removing {
            if let Some(gid) = w.live.pop_front() {
                return Request::Remove(RemoveRequest { graph: gid });
            }
        }
        let src = self.insert_order[w.inserts % self.insert_order.len()];
        w.inserts += 1;
        Request::Insert(InsertRequest {
            name: format!("copy{n}"),
            graph: self.insert_graphs[src].clone(),
        })
    }
}

impl Client for Clients<'_> {
    type Conn = TcpStream;

    fn connect(&self, i: usize) -> TcpStream {
        let s = TcpStream::connect(self.addrs[i % self.addrs.len()]).expect("client connect");
        s.set_nodelay(true).expect("nodelay");
        s
    }

    fn call(&self, conn: &mut TcpStream, idx: usize) -> Outcome {
        let built;
        let req = match self.ops[idx] {
            Op::Query(qi) => &self.query_reqs[qi],
            Op::Write(n) => {
                built = self.write_request(n);
                &built
            }
        };
        if let Err(e) = wire::write_request(conn, req) {
            return Outcome::Failed(format!("send: {e}"));
        }
        let resp = match wire::read_response(conn) {
            Ok(Some((resp, _))) => resp,
            Ok(None) => return Outcome::Failed("connection closed".into()),
            Err(e) => return Outcome::Failed(format!("receive: {e}")),
        };
        let got = match (req, &resp) {
            (_, Response::Error(e)) if e.code == wire::codes::OVERLOADED => return Outcome::Shed,
            (_, Response::Error(e)) => {
                return Outcome::Failed(format!("{}: {}", e.code, e.message))
            }
            (Request::QueryBatch(_), Response::QueryBatch(b)) if b.results.len() == 1 => {
                let Op::Query(qi) = self.ops[idx] else {
                    unreachable!("query requests come from query ops")
                };
                if self.capture_finals {
                    self.finals
                        .lock()
                        .expect("finals lock")
                        .entry(qi)
                        .or_insert_with(|| resp.clone());
                }
                Got::Query {
                    qi,
                    answer: oracle::from_wire(&b.results[0].matches),
                    stats: b.stats.clone(),
                }
            }
            (Request::Insert(i), Response::Mutate(m)) if m.applied => {
                let Some(gid) = m.graph else {
                    return Outcome::Failed("insert acknowledged without an id".into());
                };
                let src = self
                    .insert_graphs
                    .iter()
                    .position(|g| qkey(g) == qkey(&i.graph));
                let src = src.expect("inserted graphs come from the query set");
                let mut w = self.writes.lock().expect("write state");
                w.live.push_back(gid);
                w.inserted.insert(gid, src);
                Got::Insert
            }
            (Request::Remove(r), Response::Mutate(m)) if m.applied => {
                self.writes
                    .lock()
                    .expect("write state")
                    .removed
                    .push(r.graph);
                Got::Remove
            }
            (Request::Fold(_), Response::Mutate(m)) if m.applied => Got::Fold,
            (_, other) => return Outcome::Failed(format!("unexpected response {other:?}")),
        };
        self.got.lock().expect("got lock").insert(idx, got);
        Outcome::Ok
    }
}

/// A query request for one graph of the corpus.
fn query_request(db: &GraphDb, g: &Graph, opts: &WireOptions) -> Request {
    Request::QueryBatch(QueryBatchRequest {
        queries: vec![WireGraph::from_graph(db, g)],
        options: opts.clone(),
        deadline_ms: None,
        allow_partial: false,
    })
}

/// The open-loop plan: Poisson arrivals at the workload's total rate,
/// exactly `rate × secs` queries and writes in seeded order, queries
/// cycling through seeded shuffles of the query set.
fn plan(kind: Kind, seed: u64, nq: usize, secs: f64) -> (Vec<Duration>, Vec<Op>) {
    let n_writes = (kind.write_rate() * secs).round() as usize;
    let n_queries = (kind.query_rate() * secs).round() as usize;
    let due = loadgen::poisson(seed ^ 0x0b1d, (n_writes + n_queries) as f64 / secs, secs);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0b1e);
    let mut is_write: Vec<bool> = (0..due.len()).map(|i| i < n_writes).collect();
    is_write.shuffle(&mut rng);
    let (mut writes, mut block) = (0usize, Vec::new());
    let ops = is_write
        .into_iter()
        .map(|w| {
            if w {
                writes += 1;
                return Op::Write(writes - 1);
            }
            if block.is_empty() {
                block = (0..nq).collect();
                block.shuffle(&mut rng);
            }
            Op::Query(block.pop().expect("refilled"))
        })
        .collect();
    (due, ops)
}

/// Links server-side spans to the client requests that caused them and
/// gives every span its arrival index as request id. Spans that cannot
/// be linked are dropped.
fn assemble(
    tracer: &Tracer,
    t0: Instant,
    traced_from: Duration,
    records: &[Record],
    ops: &[Op],
    keys: &[u64],
) -> Vec<Span> {
    let mut server = tracer.take();
    let mut by_conn: BTreeMap<u64, (usize, u64)> = BTreeMap::new();
    let mut spans = Vec::new();
    for r in records.iter().filter(|r| r.sent >= traced_from) {
        if let (Op::Query(_), Outcome::Ok) = (ops[r.idx], &r.outcome) {
            let id = tracer.record("request", None, r.idx as u64, t0 + r.sent, t0 + r.done);
            by_conn.insert(((r.conn as u64) << 32) | r.seq, (r.idx, id));
        }
    }
    spans.extend(tracer.take());
    // frontend spans: (connection, position) → request span
    let mut fronts: Vec<(Span, u64)> = Vec::new();
    server.retain(|s| {
        if s.name != "frontend" {
            return true;
        }
        if let Some(&(idx, parent)) = by_conn.get(&s.request) {
            let Op::Query(qi) = ops[idx] else {
                return false;
            };
            let mut f = s.clone();
            f.parent = Some(parent);
            f.request = idx as u64;
            fronts.push((f, keys[qi]));
        }
        false
    });
    // transport spans: the frontend span of the same query containing
    // them, latest start first
    let mut linked: BTreeMap<u64, u64> = BTreeMap::new();
    for s in server.iter_mut().filter(|s| s.name == "transport") {
        let owner = fronts
            .iter()
            .filter(|(f, k)| *k == s.request && f.start_ns <= s.start_ns && f.end_ns >= s.end_ns)
            .max_by_key(|(f, _)| f.start_ns);
        if let Some((f, _)) = owner {
            s.parent = Some(f.id);
            s.request = f.request;
            linked.insert(s.id, f.request);
        }
    }
    for s in server.iter_mut().filter(|s| s.name == "engine") {
        if let Some(&req) = s.parent.and_then(|p| linked.get(&p)) {
            s.request = req;
        }
    }
    server.retain(|s| match s.name {
        "transport" => linked.contains_key(&s.id),
        _ => s.parent.is_some_and(|p| linked.contains_key(&p)),
    });
    spans.extend(fronts.into_iter().map(|(f, _)| f));
    spans.extend(server);
    spans
}

/// The spans on each request's critical path: of the parallel hops to
/// the workers, only the longest (and the engine run inside it), so the
/// self times of one request add up to its round trip.
fn critical_path(spans: &[Span]) -> Vec<Span> {
    let mut longest: BTreeMap<u64, &Span> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "transport") {
        let parent = s.parent.expect("linked transport spans have a parent");
        let e = longest.entry(parent).or_insert(s);
        if s.end_ns - s.start_ns > e.end_ns - e.start_ns {
            *e = s;
        }
    }
    let kept: std::collections::BTreeSet<u64> = longest.values().map(|s| s.id).collect();
    spans
        .iter()
        .filter(|s| match s.name {
            "transport" => kept.contains(&s.id),
            "engine" => s.parent.is_some_and(|p| kept.contains(&p)),
            _ => true,
        })
        .cloned()
        .collect()
}

/// Median time to run `f` `reps` times, in microseconds.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&v)
}

/// Encode and decode time (µs) and bytes of every frame one query
/// crosses: client → frontend → each worker and back.
fn wire_costs(req: &Request, partials: &[(Request, Response)], fin: &Response) -> (f64, f64, f64) {
    let (mut enc, mut dec, mut bytes) = (0.0, 0.0, 0.0);
    let mut request = |r: &Request| {
        let mut buf = Vec::new();
        bytes += wire::write_request(&mut buf, r).expect("encode request") as f64;
        enc += time_us(9, || {
            let mut b = Vec::with_capacity(buf.len());
            wire::write_request(&mut b, r).expect("encode request");
        });
        dec += time_us(9, || {
            wire::read_request(&mut buf.as_slice()).expect("decode request");
        });
    };
    request(req);
    for (r, _) in partials {
        request(r);
    }
    let mut response = |r: &Response| {
        let mut buf = Vec::new();
        bytes += wire::write_response(&mut buf, r).expect("encode response") as f64;
        enc += time_us(9, || {
            let mut b = Vec::with_capacity(buf.len());
            wire::write_response(&mut b, r).expect("encode response");
        });
        dec += time_us(9, || {
            wire::read_response(&mut buf.as_slice()).expect("decode response");
        });
    };
    for (_, r) in partials {
        response(r);
    }
    response(fin);
    (enc, dec, bytes)
}

/// `slo_qps`: the highest ladder rung whose tail meets [`LIMIT_MS`]
/// without a growing backlog; failed requests miss the limit.
fn slo_ladder(seed: u64, dep: &Deployment, query_reqs: &[Request], conns: usize) -> (f64, Vec<J>) {
    let mut best = 0.0;
    let mut rungs = Vec::new();
    for (i, &rate) in LADDER.iter().enumerate() {
        let secs = LADDER_REQUESTS as f64 / rate;
        let due = loadgen::poisson(seed ^ (0x51_0000 + i as u64), rate, secs);
        let ops: Vec<Op> = (0..due.len())
            .map(|k| Op::Query(k % query_reqs.len()))
            .collect();
        let clients = Clients {
            addrs: dep.addrs(),
            ops: &ops,
            query_reqs,
            insert_order: &[],
            insert_graphs: &[],
            writes: Mutex::default(),
            got: Mutex::default(),
            finals: Mutex::default(),
            capture_finals: false,
        };
        let (recs, _) = loadgen::run(&clients, &due, conns);
        let lat: Vec<f64> = recs
            .iter()
            .map(|r| {
                if r.outcome == Outcome::Ok {
                    r.latency_ms()
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let p = stats::tail_percentile(lat.len()).unwrap_or(90);
        let tail = stats::percentile(&stats::sorted(&lat), p);
        let growing = loadgen::backlog_growing(&recs, 50.0);
        let ok = tail <= LIMIT_MS && !growing;
        rungs.push(jobj!({ "qps": rate, "tail_percentile": p, "tail_ms": fin(tail), "backlog_growing": growing, "meets": ok }));
        if !ok {
            break;
        }
        best = rate;
    }
    (best, rungs)
}

fn fin(x: f64) -> J {
    if x.is_finite() {
        J::from(x)
    } else {
        J::from("inf")
    }
}

/// Times insert, remove and fold called directly on a one-shard engine
/// over the BIND corpus, built the way the served shards are (writes
/// go to one-shard deployments only: the frontend refuses them behind
/// more than one shard).
fn engine_writes(c: &Corpus, root: &Path, insert_graphs: &[WireGraph]) -> (f64, f64, f64, f64) {
    let built = ShardedTaleDatabase::build(c.db.clone(), root, &TaleParams::bind(), 1, &HashPolicy)
        .expect("engine shard build");
    drop(built);
    let engine = ShardEngine::open(root, 0, EngineConfig::default()).expect("open engine");
    let (mut ins, mut rem, mut fold, mut wbytes) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut ids = Vec::new();
    for n in 0..ENGINE_WRITES {
        let req = InsertRequest {
            name: format!("direct{n}"),
            graph: insert_graphs[n % insert_graphs.len()].clone(),
        };
        let w0 = sys::wchar();
        let t = Instant::now();
        ids.push(engine.insert(&req).expect("direct insert"));
        ins.push(t.elapsed().as_secs_f64() * 1e3);
        wbytes.push((sys::wchar() - w0) as f64);
    }
    for gid in ids {
        let t = Instant::now();
        engine
            .remove(&RemoveRequest { graph: gid.0 })
            .expect("direct remove");
        rem.push(t.elapsed().as_secs_f64() * 1e3);
    }
    for _ in 0..3 {
        let t = Instant::now();
        engine
            .fold(&FoldRequest { confirm: true })
            .expect("direct fold");
        fold.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (
        stats::median(&ins),
        stats::median(&rem),
        stats::median(&fold),
        mean(&wbytes),
    )
}

/// Checks a mid-run answer of the read-write workload: the hits on
/// corpus graphs equal the reference answer exactly, and every hit on
/// an inserted copy equals the reference hit on the graph it copies.
fn check_rw(
    expected: &Answer,
    got: &Answer,
    base_graphs: u32,
    inserted: &BTreeMap<u32, usize>,
    source_ids: &[u32],
) -> Result<(), String> {
    let base: Answer = got
        .iter()
        .filter(|h| h.graph < base_graphs)
        .cloned()
        .collect();
    oracle::check(expected, &base)?;
    for h in got.iter().filter(|h| h.graph >= base_graphs) {
        let src = inserted
            .get(&h.graph)
            .ok_or_else(|| format!("hit on graph {} that no acknowledged insert made", h.graph))?;
        let reference = expected
            .iter()
            .find(|e| e.graph == source_ids[*src])
            .ok_or_else(|| format!("copy {} matched, its source did not", h.graph))?;
        let mut copy = h.clone();
        copy.graph = reference.graph;
        if &copy != reference {
            return Err(format!("copy {} differs from its source's hit", h.graph));
        }
    }
    Ok(())
}

/// Sends each query once more on a fresh connection with the given
/// cache setting.
fn final_answers(addr: SocketAddr, c: &Corpus, opts: &QueryOptions) -> Vec<Result<Answer, String>> {
    let wopts = WireOptions::from_options(opts);
    let mut s = TcpStream::connect(addr).expect("oracle connect");
    c.queries
        .iter()
        .map(|&q| {
            let req = query_request(&c.db, c.db.graph(q), &wopts);
            wire::write_request(&mut s, &req).map_err(|e| e.to_string())?;
            match wire::read_response(&mut s).map_err(|e| e.to_string())? {
                Some((Response::QueryBatch(b), _)) if b.results.len() == 1 => {
                    Ok(oracle::from_wire(&b.results[0].matches))
                }
                other => Err(format!("unexpected {other:?}")),
            }
        })
        .collect()
}

fn counters_of(dep: &Deployment) -> (ServerStatsSnapshot, Vec<ServerStatsSnapshot>) {
    (
        dep.frontend.counters().snapshot(),
        dep.workers
            .iter()
            .map(|w| w.counters().snapshot())
            .collect(),
    )
}

/// Runs one BIND workload for `secs` seconds of measurement.
pub fn run(kind: Kind, seed: u64, secs: f64, traced: bool, work: &Path) -> Run {
    let c = corpus();
    let cores = sys::cores();
    let conns = cores;
    let opts = QueryOptions::bind().with_cache(kind == Kind::ReadWrite);
    let wopts = WireOptions::from_options(&opts);
    let query_reqs: Vec<Request> = c
        .queries
        .iter()
        .map(|&q| query_request(&c.db, c.db.graph(q), &wopts))
        .collect();
    let keys: Vec<u64> = query_reqs
        .iter()
        .map(|r| batch_key(r).expect("query"))
        .collect();
    let insert_graphs: Vec<WireGraph> = c
        .queries
        .iter()
        .map(|&q| WireGraph::from_graph(&c.db, c.db.graph(q)))
        .collect();
    let source_ids: Vec<u32> = c.queries.iter().map(|q| q.0).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1a5e);
    let mut insert_order: Vec<usize> = (0..c.queries.len()).collect();
    insert_order.shuffle(&mut rng);

    // Reference answers: in-process sharded database, cache off.
    let ref_opts = opts.clone().with_cache(false);
    let reference_db = ShardedTaleDatabase::build(
        c.db.clone(),
        &work.join("reference"),
        &TaleParams::bind(),
        kind.shards(),
        &HashPolicy,
    )
    .expect("reference build");
    let reference: Vec<Answer> = c
        .queries
        .iter()
        .map(|&q| {
            oracle::from_matches(
                &reference_db
                    .query(c.db.graph(q), &ref_opts)
                    .expect("reference query"),
            )
        })
        .collect();

    // Set-up: build and serve until the frontend has shaken hands with
    // every worker and listens for clients.
    let tracer = Arc::new(Tracer::new());
    let capture = Arc::new(Capture::default());
    let mut setup = Vec::with_capacity(SETUPS);
    let mut dep: Option<Deployment> = None;
    for i in 0..SETUPS {
        let root = work.join(format!("deploy-{i}"));
        let db = c.db.clone();
        if let Some(old) = dep.take() {
            let old_root = old.root.clone();
            old.shutdown();
            let _ = std::fs::remove_dir_all(old_root);
        }
        let t = Instant::now();
        dep = Some(deploy(db, &root, kind.shards(), conns, &tracer, &capture));
        setup.push(t.elapsed().as_secs_f64());
    }
    let dep = dep.expect("at least one set-up");

    // Measurement: open loop; in a traced run the second half is traced.
    let (due, ops) = plan(kind, seed, c.queries.len(), secs);
    let clients = Clients {
        addrs: dep.addrs(),
        ops: &ops,
        query_reqs: &query_reqs,
        insert_order: &insert_order,
        insert_graphs: &insert_graphs,
        writes: Mutex::default(),
        got: Mutex::default(),
        finals: Mutex::default(),
        capture_finals: traced,
    };
    let half = Duration::from_secs_f64(secs / 2.0);
    let (cpu0, steal0) = (sys::cpu_seconds(), sys::steal_seconds());
    let (records, t0) = std::thread::scope(|s| {
        if traced {
            let tracer = Arc::clone(&tracer);
            s.spawn(move || {
                std::thread::sleep(half);
                tracer.set_enabled(true);
            });
        }
        loadgen::run(&clients, &due, conns)
    });
    tracer.set_enabled(false);
    let (cpu, steal) = (sys::cpu_seconds() - cpu0, sys::steal_seconds() - steal0);
    // throughput over the run: schedule start to the last completion
    let elapsed = records
        .iter()
        .map(|r| r.done.as_secs_f64())
        .fold(f64::MIN_POSITIVE, f64::max);
    let got = clients.got.into_inner().expect("got lock");
    let writes = clients.writes.into_inner().expect("write state");

    // Oracle over every answer.
    let base_graphs = c.db.len() as u32;
    let loadgen::Tally {
        mut failed,
        shed,
        mut wrong,
    } = loadgen::Tally::of(&records, |r| match got.get(&r.idx) {
        Some(Got::Query { qi, answer, .. }) => match kind {
            Kind::ReadOnly => oracle::check(&reference[*qi], answer),
            Kind::ReadWrite => check_rw(
                &reference[*qi],
                answer,
                base_graphs,
                &writes.inserted,
                &source_ids,
            ),
        }
        .map_err(|e| format!("query {qi}: {e}")),
        _ => Ok(()),
    });
    let mut attempted = records.len() as u64;

    // Read-write: the final served answers, cache on and off, against an
    // in-process database replaying the acknowledged mutation log.
    let mut replay_db: Option<TaleDatabase> = None;
    if kind == Kind::ReadWrite {
        let db = TaleDatabase::build(c.db.clone(), &work.join("replay"), &TaleParams::bind())
            .expect("replay build");
        let mut vocab = c.db.clone();
        for (&gid, &src) in &writes.inserted {
            let g = insert_graphs[src]
                .to_inserted_graph(&mut vocab)
                .expect("decode copy");
            let id = db
                .insert_graph(format!("replay{gid}"), g)
                .expect("replay insert");
            if id.0 != gid {
                failed += 1;
                wrong.push(format!("served insert {gid} replayed as {}", id.0));
            }
        }
        for &gid in &writes.removed {
            db.remove_graph(GraphId(gid)).expect("replay remove");
        }
        let addr = dep.addrs()[0];
        for cache in [true, false] {
            let served = final_answers(addr, &c, &opts.clone().with_cache(cache));
            for (qi, (&q, s)) in c.queries.iter().zip(served).enumerate() {
                attempted += 1;
                let expected = oracle::from_matches(
                    &db.query(c.db.graph(q), &ref_opts).expect("replay query"),
                );
                if let Err(e) = s.and_then(|a| oracle::check(&expected, &a)) {
                    failed += 1;
                    wrong.push(format!("final query {qi} cache {cache}: {e}"));
                }
            }
        }
        replay_db = Some(db);
    }

    // End-to-end figures over queries; failed queries miss every limit.
    let is_query = |r: &&Record| matches!(ops[r.idx], Op::Query(_));
    let q_lat: Vec<f64> = records
        .iter()
        .filter(is_query)
        .map(|r| {
            if r.outcome == Outcome::Ok {
                r.latency_ms()
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let q_sorted = stats::sorted(&q_lat);
    let per_query: Vec<(usize, f64)> = records
        .iter()
        .filter(is_query)
        .zip(&q_lat)
        .map(|(r, &ms)| match ops[r.idx] {
            Op::Query(qi) => (qi, ms),
            Op::Write(_) => unreachable!("filtered to queries"),
        })
        .collect();
    let completed = records
        .iter()
        .filter(is_query)
        .filter(|r| r.outcome == Outcome::Ok)
        .count();
    let index_bytes: u64 = (0..kind.shards() as u32)
        .map(|s| sys::dir_bytes(&tale_shard::ShardManifest::shard_dir(&dep.root, s)))
        .sum();
    let live_nodes = c.db.total_nodes()
        + writes
            .live
            .iter()
            .map(|g| insert_graphs[writes.inserted[g]].node_labels.len())
            .sum::<usize>();

    let mut run = Run::new(failed == 0, attempted, failed);
    run.metric("setup_s", stats::median(&setup));
    run.metric("query_p50_ms", stats::median_of_medians(&per_query));
    run.stamp
        .insert("request_p50_ms", J::from(stats::percentile(&q_sorted, 50)));
    run.metric("query_tail_ms", stats::percentile(&q_sorted, TAIL_P));
    run.metric("queries_per_s", completed as f64 / elapsed);
    run.metric("cpu_ms_per_query", cpu * 1e3 / completed.max(1) as f64);
    run.stamp.insert("host_steal_s", J::from(steal));
    run.metric(
        "index_bytes_per_node",
        index_bytes as f64 / live_nodes as f64,
    );
    run.metric("failed_frac", ratio(failed as f64, attempted as f64));

    // Writes, folds and queries overlapping a fold.
    let kind_of = |r: &Record| match got.get(&r.idx) {
        Some(Got::Insert) | Some(Got::Remove) => "write",
        Some(Got::Fold) => "fold",
        _ => "other",
    };
    let w_lat: Vec<f64> = records
        .iter()
        .filter(|r| kind_of(r) == "write")
        .map(Record::latency_ms)
        .collect();
    let folds: Vec<&Record> = records.iter().filter(|r| kind_of(r) == "fold").collect();
    let f_lat: Vec<f64> = folds.iter().map(|r| r.latency_ms()).collect();
    let overlap: Vec<f64> = records
        .iter()
        .filter(is_query)
        .filter(|q| folds.iter().any(|f| q.due < f.done && f.sent < q.done))
        .map(Record::latency_ms)
        .collect();
    let w_tail_p = stats::tail_percentile(w_lat.len()).unwrap_or(90);
    run.metric("write_p50_ms", stats::median(&w_lat).max(0.0));
    run.metric(
        "write_tail_ms",
        stats::percentile(&stats::sorted(&w_lat), w_tail_p).max(0.0),
    );
    run.metric("fold_ms", stats::median(&f_lat).max(0.0));
    run.metric(
        "server.engine.fold_overlap_query_ms",
        stats::median(&overlap).max(0.0),
    );
    let lags: Vec<f64> = records.iter().map(Record::lag_ms).collect();
    run.metric(
        "client.lag_p99_ms",
        stats::percentile(&stats::sorted(&lags), 99),
    );
    run.metric("client.backlog_max", loadgen::backlog_max(&records) as f64);
    let (front, workers) = counters_of(&dep);
    run.metric("server.admission.queue_hwm", front.queue_depth_hwm as f64);
    run.metric("server.admission.inflight_hwm", front.inflight_hwm as f64);
    run.metric(
        "server.admission.shed",
        (front.requests_shed
            + front.conns_shed
            + workers
                .iter()
                .map(|w| w.requests_shed + w.conns_shed)
                .sum::<u64>()) as f64,
    );
    run.metric("server.transport.retries", front.retries as f64);
    run.metric("server.transport.failovers", front.failovers as f64);

    let mut trace_stamp = J::Null;
    if traced {
        trace_stamp = traced_layers(
            &mut run,
            TraceInput {
                kind,
                tracer: &tracer,
                t0,
                records: &records,
                ops: &ops,
                keys: &keys,
                got: &got,
                finals: &clients.finals.into_inner().expect("finals lock"),
                capture: &capture,
                query_reqs: &query_reqs,
                corpus: &c,
                replay_sharded: &reference_db,
                replay_single: replay_db.as_ref(),
                opts: &ref_opts,
                secs,
            },
        );
        if kind == Kind::ReadOnly {
            let (slo, rungs) = slo_ladder(seed, &dep, &query_reqs, conns);
            run.metric("slo_qps", slo);
            run.stamp.insert(
                "slo_ladder",
                jobj!({ "limit_ms": LIMIT_MS, "rungs": rungs }),
            );
        }
        let (i, r, f, b) = engine_writes(&c, &work.join("engine"), &insert_graphs);
        run.metric("server.engine.insert_ms", i);
        run.metric("server.engine.remove_ms", r);
        run.metric("server.engine.fold_ms", f);
        run.metric("server.engine.write_bytes_per_insert", b);
    }
    dep.shutdown();

    run.records = records
        .iter()
        .map(|r| {
            let kind = match (ops[r.idx], got.get(&r.idx)) {
                (Op::Query(qi), _) => format!("query{qi}"),
                (_, Some(Got::Insert)) => "insert".into(),
                (_, Some(Got::Remove)) => "remove".into(),
                (_, Some(Got::Fold)) => "fold".into(),
                _ => "write".into(),
            };
            let ms = |d: Duration| d.as_secs_f64() * 1e3;
            jobj!({
                "idx": r.idx,
                "conn": r.conn,
                "op": kind,
                "due_ms": ms(r.due),
                "sent_ms": ms(r.sent),
                "done_ms": ms(r.done),
                "ok": r.outcome == Outcome::Ok,
            })
        })
        .collect();
    let n_queries = q_lat.len();
    run.stamp.insert("params",
        jobj!({
            "corpus": "PinCorpus",
            "corpus_seed": CORPUS_SEED,
            "scale": CORPUS_SCALE,
            "graphs": c.db.len(),
            "nodes": c.db.total_nodes(),
            "queries": c.queries.iter().map(|&q| c.db.graph(q).node_count()).collect::<Vec<_>>(),
            "shards": kind.shards(),
            "connections": conns,
            "loop": "open, Poisson",
            "offered_query_qps": kind.query_rate(),
            "offered_write_qps": kind.write_rate(),
            "fold_every_writes": if kind == Kind::ReadWrite { J::from(FOLD_EVERY) } else { J::Null },
            "cache": kind == Kind::ReadWrite,
            "index_bytes": index_bytes,
            "buffer_frames": EngineConfig::default().buffer_frames,
        }),
    );
    run.stamp.insert(
        "samples",
        jobj!({
            "arrivals": records.len(),
            "queries": n_queries,
            "writes": w_lat.len(),
            "folds": f_lat.len(),
            "fold_overlap_queries": overlap.len(),
            "shed": shed,
            "setups": SETUPS,
        }),
    );
    run.stamp.insert(
        "tail_percentile",
        jobj!({ "query_tail_ms": TAIL_P, "write_tail_ms": w_tail_p }),
    );
    run.stamp.insert("trace", trace_stamp);
    run.stamp
        .insert("wrong", J::from(wrong.iter().take(5).collect::<Vec<_>>()));
    run
}

/// Everything the traced half's per-layer figures come from.
struct TraceInput<'a> {
    kind: Kind,
    tracer: &'a Tracer,
    t0: Instant,
    records: &'a [Record],
    ops: &'a [Op],
    keys: &'a [u64],
    got: &'a BTreeMap<usize, Got>,
    finals: &'a BTreeMap<usize, Response>,
    capture: &'a Capture,
    query_reqs: &'a [Request],
    corpus: &'a Corpus,
    replay_sharded: &'a ShardedTaleDatabase,
    replay_single: Option<&'a TaleDatabase>,
    opts: &'a QueryOptions,
    secs: f64,
}

/// Per-layer figures of the traced half; returns the trace summary.
fn traced_layers(run: &mut Run, t: TraceInput<'_>) -> J {
    let spans = assemble(
        t.tracer,
        t.t0,
        Duration::from_secs_f64(t.secs / 2.0),
        t.records,
        t.ops,
        t.keys,
    );
    let traced: Vec<&Record> = t
        .records
        .iter()
        .filter(|r| r.sent.as_secs_f64() >= t.secs / 2.0 && r.outcome == Outcome::Ok)
        .filter(|r| matches!(t.ops[r.idx], Op::Query(_)))
        .collect();
    let untraced: Vec<f64> = t
        .records
        .iter()
        .filter(|r| r.sent.as_secs_f64() < t.secs / 2.0 && r.outcome == Outcome::Ok)
        .filter(|r| matches!(t.ops[r.idx], Op::Query(_)))
        .map(Record::latency_ms)
        .collect();
    let traced_lat: Vec<f64> = traced.iter().map(|r| r.latency_ms()).collect();
    let n = spans.iter().filter(|s| s.name == "request").count().max(1) as f64;
    let by = trace::self_ms_by_name(&critical_path(&spans));
    let per = |name: &str| by.get(name).copied().unwrap_or(0.0) / n;
    run.metric("trace.unattributed_ms", per("request"));
    run.metric("trace.frontend.self_ms", per("frontend"));
    run.metric("trace.transport.self_ms", per("transport"));
    run.metric("trace.engine.self_ms", per("engine"));
    run.metric(
        "trace.overhead_pct",
        100.0 * (stats::median(&traced_lat) / stats::median(&untraced) - 1.0),
    );

    // server.unattributed_ms: round trip minus the slowest worker's
    // reported engine time, per traced request.
    let mut engine_max: BTreeMap<u64, f64> = BTreeMap::new();
    let mut rtt: BTreeMap<u64, f64> = BTreeMap::new();
    for s in &spans {
        let ms = (s.end_ns - s.start_ns) as f64 / 1e6;
        match s.name {
            "engine" => {
                let e = engine_max.entry(s.request).or_insert(0.0);
                *e = e.max(ms);
            }
            "request" => {
                rtt.insert(s.request, ms);
            }
            _ => {}
        }
    }
    let unattributed: Vec<f64> = rtt
        .iter()
        .map(|(r, ms)| ms - engine_max.get(r).copied().unwrap_or(0.0))
        .collect();
    run.metric("server.unattributed_ms", mean(&unattributed));

    // Mix of the traced half, per distinct query.
    let nq = t.corpus.queries.len();
    let mut counts = vec![0usize; nq];
    let mut wire_stats: Vec<&WireExecStats> = Vec::new();
    for r in &traced {
        if let Some(Got::Query { qi, stats, .. }) = t.got.get(&r.idx) {
            counts[*qi] += 1;
            wire_stats.push(stats);
        }
    }
    let total: f64 = counts.iter().sum::<usize>().max(1) as f64;
    let weighted = |v: &[f64]| {
        v.iter()
            .zip(&counts)
            .map(|(x, &c)| x * c as f64)
            .sum::<f64>()
            / total
    };

    // Engine counters as the responses reported them.
    let k = wire_stats.len().max(1) as f64;
    let wsum =
        |f: &dyn Fn(&WireExecStats) -> u64| wire_stats.iter().map(|s| f(s) as f64).sum::<f64>();
    run.metric("nhindex.probes", wsum(&|s| s.probes) / k);
    run.metric("nhindex.keys_scanned", wsum(&|s| s.keys_scanned) / k);
    run.metric(
        "nhindex.postings_fetched",
        wsum(&|s| s.postings_fetched) / k,
    );
    run.metric(
        "nhindex.postings_filtered",
        wsum(&|s| s.postings_filtered) / k,
    );
    run.metric("nhindex.rows_examined", wsum(&|s| s.rows_examined) / k);
    run.metric("nhindex.candidates", wsum(&|s| s.candidates) / k);
    run.metric(
        "nhindex.candidates_per_row",
        ratio(wsum(&|s| s.candidates), wsum(&|s| s.rows_examined)),
    );
    run.metric("tale.cache.hit_rate", wsum(&|s| s.cache_hits) / k);

    // Stage split: in-process replay of the same requests.
    let replays: Vec<BatchStats> = t
        .corpus
        .queries
        .iter()
        .map(|&q| {
            let g = t.corpus.db.graph(q);
            match t.replay_single {
                Some(db) => db.query_batch_with_stats(&[g], t.opts).expect("replay").1,
                None => {
                    t.replay_sharded
                        .query_batch_with_stats(&[g], t.opts)
                        .expect("replay")
                        .1
                }
            }
        })
        .collect();
    let field = |f: &dyn Fn(&BatchStats) -> f64| replays.iter().map(f).collect::<Vec<_>>();
    let stage_ms = |i: usize| {
        weighted(&field(&|b| {
            let (plan, probe, matching, rank, other) = stats::critical_stages_ms(b);
            [plan, probe, matching, rank, other][i]
        }))
    };
    let cand = weighted(&field(&|b| b.per_query[0].candidate_graphs as f64));
    let matches = weighted(&field(&|b| b.per_query[0].matches as f64));
    let match_ms = stage_ms(2);
    run.metric("tale.match.ms", match_ms);
    run.metric("tale.match.ms_per_graph", ratio(match_ms, cand));
    run.metric("tale.match.candidate_graphs", cand);
    run.metric("tale.match.kept_ratio", ratio(matches, cand));
    run.metric("tale.plan.ms", stage_ms(0));
    run.metric("tale.probe.ms", stage_ms(1));
    run.metric("tale.rank.ms", stage_ms(3));
    run.metric("tale.unattributed.ms", stage_ms(4));
    let hits = weighted(&field(&|b| (b.pool.hits + b.pool.coalesced) as f64));
    let all = weighted(&field(&|b| {
        (b.pool.hits + b.pool.coalesced + b.pool.misses + b.pool.prefetched) as f64
    }));
    run.metric("storage.pool_hit_rate", ratio(hits, all));
    run.metric(
        "storage.pool_misses",
        weighted(&field(&|b| b.pool.misses as f64)),
    );
    run.metric("shard.skew", weighted(&field(&BatchStats::shard_skew)));
    run.metric(
        "shard.pruned",
        weighted(&field(&|b| b.shards_pruned as f64)),
    );

    // Wire: the frames one query crosses, replayed in memory.
    let partials = t.capture.partials.lock().expect("capture lock");
    let (mut enc, mut dec, mut bytes) = (vec![0.0; nq], vec![0.0; nq], vec![0.0; nq]);
    for qi in 0..nq {
        let Some(fin) = t.finals.get(&qi) else {
            continue;
        };
        let hop: Vec<(Request, Response)> = partials
            .range((t.keys[qi], 0)..=(t.keys[qi], u32::MAX))
            .map(|(_, v)| v.clone())
            .collect();
        (enc[qi], dec[qi], bytes[qi]) = wire_costs(&t.query_reqs[qi], &hop, fin);
    }
    run.metric("server.wire.encode_us", weighted(&enc));
    run.metric("server.wire.decode_us", weighted(&dec));
    run.metric("server.wire.bytes_per_query", weighted(&bytes));

    let wall: f64 = spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .sum();
    let share = |name: &str| 100.0 * ratio(by.get(name).copied().unwrap_or(0.0), wall);
    let engine_share = share("engine");
    let stage_total = (0..5).map(stage_ms).sum::<f64>().max(f64::MIN_POSITIVE);
    let summary = jobj!({
        "traced_requests": rtt.len(),
        "spans": spans.len(),
        "self_share_pct": jobj!({
            "engine": engine_share,
            "transport": share("transport"),
            "frontend": share("frontend"),
            "unattributed": share("request"),
        }),
        "engine_stage_share_pct_from_replay": jobj!({
            "match": 100.0 * match_ms / stage_total,
            "probe": 100.0 * stage_ms(1) / stage_total,
            "plan": 100.0 * stage_ms(0) / stage_total,
            "rank": 100.0 * stage_ms(3) / stage_total,
            "other": 100.0 * stage_ms(4) / stage_total,
        }),
        "workload": match t.kind { Kind::ReadOnly => "bind_served", Kind::ReadWrite => "bind_rw_served" },
    });
    run.spans = spans;
    summary
}
