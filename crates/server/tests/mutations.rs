//! Served mutations over loopback TCP, with the result cache on:
//!
//! * **Replay identity** — insert, remove and fold requests interleaved
//!   with query batches through frontend + worker on a one-shard
//!   deployment: every answer is bit-identical to an in-process
//!   [`TaleDatabase`] replaying the acknowledged mutation log.
//! * **Readers during a fold** — queries issued while the worker folds
//!   complete from the snapshot they pinned, bit-identically, and a
//!   snapshot pinned before the fold keeps its generation on disk until
//!   it is dropped.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tale::shard::HashPolicy;
use tale::{QueryMatch, QueryOptions, TaleDatabase, TaleParams};
use tale_graph::generate::{gnm, mutate, MutationRates};
use tale_graph::{Graph, GraphDb, GraphId};
use tale_server::engine::{EngineConfig, ShardEngine};
use tale_server::transport::{RemoteConfig, RemoteTransport, ShardTransport};
use tale_server::wire::{
    FoldRequest, InsertRequest, QueryBatchRequest, RemoveRequest, Request, Response, WireGraph,
    WireMatch, WireOptions,
};
use tale_server::worker::{serve_shard, Service, WorkerConfig};
use tale_server::{Frontend, FrontendConfig};

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

/// Ranked answers compressed to raw bits for exact comparison.
type Rows = Vec<Vec<(GraphId, String, u64, usize, usize)>>;

fn rows(answers: &[Vec<QueryMatch>]) -> Rows {
    answers
        .iter()
        .map(|ms| {
            ms.iter()
                .map(|m| {
                    (
                        m.graph,
                        m.graph_name.clone(),
                        m.score.to_bits(),
                        m.matched_nodes,
                        m.matched_edges,
                    )
                })
                .collect()
        })
        .collect()
}

fn opts() -> QueryOptions {
    QueryOptions {
        rho: 0.25,
        p_imp: 0.25,
        ..QueryOptions::default()
    }
}

fn batch(db: &GraphDb, queries: &[Graph]) -> QueryBatchRequest {
    QueryBatchRequest {
        queries: queries
            .iter()
            .map(|g| WireGraph::from_graph(db, g))
            .collect(),
        options: WireOptions::from_options(&opts()),
        deadline_ms: None,
        allow_partial: false,
    }
}

fn served_rows(frontend: &Frontend, req: &QueryBatchRequest) -> Rows {
    let resp = frontend.query_batch(req, Instant::now()).unwrap();
    let answers: Vec<Vec<QueryMatch>> = resp
        .results
        .iter()
        .map(|wm| wm.matches.iter().map(WireMatch::to_match).collect())
        .collect();
    rows(&answers)
}

/// Sends one mutation through the frontend; returns the assigned graph id
/// for an insert.
fn mutate_served(frontend: &Frontend, req: Request) -> Option<u32> {
    match frontend.handle(&req, Instant::now()) {
        Response::Mutate(m) => {
            assert!(m.applied, "mutation not applied: {m:?}");
            m.graph
        }
        other => panic!("expected a mutate response, got {other:?}"),
    }
}

#[test]
fn served_mutations_match_an_in_process_replay() {
    let (db, originals) = corpus(61, 6);
    let mut rng = ChaCha8Rng::seed_from_u64(62);
    let extras: Vec<Graph> = (0..3).map(|_| gnm(&mut rng, 30, 60, LABELS)).collect();
    let dir = tempfile::tempdir().unwrap();
    let params = TaleParams::default();
    drop(TaleDatabase::build_sharded(db.clone(), dir.path(), &params, 1, &HashPolicy).unwrap());
    let engine = ShardEngine::open(dir.path(), 0, EngineConfig::default()).unwrap();
    let worker = serve_shard(
        Arc::new(engine),
        "127.0.0.1:0".parse().unwrap(),
        WorkerConfig::default(),
    )
    .unwrap();
    let transport =
        RemoteTransport::new(worker.addr(), 0, RemoteConfig::default()) as Arc<dyn ShardTransport>;
    let frontend = Frontend::new(vec![transport], FrontendConfig::default()).unwrap();
    let replay = TaleDatabase::build_in_temp(db.clone(), &params).unwrap();
    let req = batch(&db, &originals);

    let check = |step: &str| {
        let want = rows(
            &replay
                .query_batch(&originals.iter().collect::<Vec<_>>(), &opts())
                .unwrap(),
        );
        // twice: the second round is served from the worker's cache
        for round in 0..2 {
            assert_eq!(served_rows(&frontend, &req), want, "{step}, round {round}");
        }
    };
    let insert = |name: &str, g: &Graph| {
        let gid = mutate_served(
            &frontend,
            Request::Insert(InsertRequest {
                name: name.into(),
                graph: WireGraph::from_graph(&db, g),
            }),
        )
        .expect("insert returns the new id");
        assert_eq!(GraphId(gid), replay.insert_graph(name, g.clone()).unwrap());
        GraphId(gid)
    };
    let remove = |gid: GraphId| {
        mutate_served(&frontend, Request::Remove(RemoveRequest { graph: gid.0 }));
        replay.remove_graph(gid).unwrap();
    };
    let fold = || {
        mutate_served(&frontend, Request::Fold(FoldRequest { confirm: true }));
        replay.fold().unwrap();
    };

    check("initial");
    let x0 = insert("x0", &extras[0]);
    check("after insert x0");
    let x1 = insert("x1", &extras[1]);
    remove(x0);
    check("after insert x1, remove x0");
    fold();
    check("after fold");
    remove(GraphId(1));
    insert("x2", &extras[2]);
    check("after remove g1, insert x2");
    fold();
    remove(x1);
    check("after fold, remove x1");
    fold();
    check("after second fold");
}

#[test]
fn queries_during_a_served_fold_complete_from_their_pinned_snapshot() {
    let (db, originals) = corpus(71, 10);
    let dir = tempfile::tempdir().unwrap();
    let params = TaleParams::default();
    let built =
        TaleDatabase::build_sharded(db.clone(), dir.path(), &params, 1, &HashPolicy).unwrap();
    let want = rows(
        &built
            .query_batch(
                &originals.iter().collect::<Vec<_>>(),
                &opts().with_cache(false),
            )
            .unwrap(),
    );
    drop(built);
    let engine = Arc::new(ShardEngine::open(dir.path(), 0, EngineConfig::default()).unwrap());

    // A snapshot pinned before any fold keeps generation 0 (and its
    // directory) for as long as it lives.
    let pinned = engine.database().index().shards()[0].snapshot();
    let g0 = pinned.base().dir().to_owned();

    let worker = serve_shard(
        Arc::clone(&engine),
        "127.0.0.1:0".parse().unwrap(),
        WorkerConfig::default(),
    )
    .unwrap();
    let req = batch(&db, &originals);
    let folding = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let overlapped = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| {
                let transport = RemoteTransport::new(worker.addr(), 0, RemoteConfig::default())
                    as Arc<dyn ShardTransport>;
                let frontend = Frontend::new(vec![transport], FrontendConfig::default()).unwrap();
                while !done.load(Ordering::Acquire) {
                    let started_during = folding.load(Ordering::Acquire);
                    let got = served_rows(&frontend, &req);
                    if started_during || folding.load(Ordering::Acquire) {
                        overlapped.fetch_add(1, Ordering::Relaxed);
                    }
                    assert_eq!(got, want, "a query racing a fold changed its answer");
                }
            });
        }
        for _ in 0..6 {
            folding.store(true, Ordering::Release);
            engine.fold(&FoldRequest { confirm: true }).unwrap();
            folding.store(false, Ordering::Release);
        }
        done.store(true, Ordering::Release);
    });
    assert!(
        overlapped.load(Ordering::Relaxed) > 0,
        "no query overlapped a fold"
    );

    assert_eq!(
        engine.database().index().shards()[0].current_generation(),
        6
    );
    assert_eq!(pinned.base_generation(), 0);
    assert!(
        g0.exists(),
        "a pinned generation was deleted under its reader"
    );
    drop(pinned);
    assert!(
        !g0.exists(),
        "the last pin dropped but generation 0 was not collected"
    );
}
