//! Crash torture for the served shard engine: every gated I/O operation
//! of a served insert (journal, `graphs.json`, the `shards.json` commit),
//! removal (the shard's `mvcc.json` tombstone) and fold (generation build
//! plus the `mvcc.json` flip) is failed in turn on a one-shard
//! deployment, the engine is dropped with the fault still tripped (the
//! worker process "dies"), and a freshly opened engine must answer
//! bit-identically to the pre-mutation or the post-mutation state.
//!
//! The fault shim is thread-local, so these tests are safe under the
//! default parallel test runner.

use std::path::Path;
use tale::shard::HashPolicy;
use tale::{QueryOptions, TaleDatabase, TaleParams};
use tale_graph::{Graph, GraphDb, GraphId, NodeId};
use tale_server::engine::{EngineConfig, ShardEngine};
use tale_server::wire::{FoldRequest, InsertRequest, RemoveRequest, WireGraph};
use tale_storage::faults;

/// Tiny pool so generation builds overflow it and exercise eviction
/// write-backs.
fn engine_config() -> EngineConfig {
    EngineConfig {
        buffer_frames: 8,
        ..EngineConfig::default()
    }
}

/// Six member graphs (cycles with a chord over four labels) plus one kept
/// aside as insertion fodder.
fn corpus() -> (GraphDb, Vec<Graph>, Graph) {
    let mut db = GraphDb::new();
    let labels: Vec<_> = (0..4)
        .map(|i| db.intern_node_label(&format!("L{i}")))
        .collect();
    let build = |k: usize| {
        let mut g = Graph::new_undirected();
        let n: Vec<NodeId> = (0..4 + k % 3)
            .map(|j| g.add_node(labels[(j + k) % 4]))
            .collect();
        for w in n.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        g.add_edge(n[0], n[n.len() - 1]).unwrap();
        g
    };
    let mut graphs = Vec::new();
    for k in 0..6usize {
        let g = build(k);
        db.insert(format!("g{k}"), g.clone());
        graphs.push(g);
    }
    (db, graphs, build(6))
}

fn copy_tree(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// Query answers (raw bits) plus the durable counters that tell pre from
/// post: graph count, the shard's generation and tombstone count.
type Observed = (Vec<Vec<(GraphId, u64, usize)>>, [u64; 3]);

fn observe(engine: &ShardEngine, queries: &[Graph]) -> Observed {
    let db = engine.database();
    let opts = QueryOptions {
        p_imp: 0.5,
        ..QueryOptions::default()
    };
    let answers = queries
        .iter()
        .map(|q| {
            db.query(q, &opts)
                .unwrap()
                .into_iter()
                .map(|m| (m.graph, m.score.to_bits(), m.matched_nodes))
                .collect()
        })
        .collect();
    for report in db.index().verify().unwrap() {
        assert!(report.is_ok(), "integrity errors: {:?}", report.errors);
    }
    let snap = db.index().shards()[0].snapshot();
    let marks = [
        db.db().len() as u64,
        snap.base_generation(),
        snap.removed_count() as u64,
    ];
    (answers, marks)
}

fn open(dir: &Path) -> ShardEngine {
    ShardEngine::open(dir, 0, engine_config()).unwrap()
}

/// Fails each gated I/O operation of `mutate` in turn on a copy of `pre`
/// and checks the reopened engine is observed as exactly pre or post.
/// Returns the number of fault points.
fn sweep<F>(pre: &Path, scratch: &Path, queries: &[Graph], mutate: F) -> u64
where
    F: Fn(&ShardEngine) -> tale_server::Result<()>,
{
    let pre_state = observe(&open(pre), queries);
    let post_dir = scratch.join("post");
    copy_tree(pre, &post_dir);
    mutate(&open(&post_dir)).unwrap();
    let post_state = observe(&open(&post_dir), queries);
    assert_ne!(pre_state, post_state, "the mutation changed nothing");

    let count_dir = scratch.join("count");
    copy_tree(pre, &count_dir);
    let counted = open(&count_dir);
    faults::arm_counting();
    mutate(&counted).unwrap();
    let n = faults::disarm();
    drop(counted);
    assert!(n > 0, "mutation made no gated I/O");

    for i in 0..n {
        let work = scratch.join(format!("fault-{i}"));
        copy_tree(pre, &work);
        let engine = open(&work);
        faults::arm(i);
        let res = mutate(&engine);
        drop(engine); // the worker process is "dead"
        faults::disarm();
        assert!(res.is_err(), "fault {i} of {n} did not surface");
        let got = observe(&open(&work), queries);
        assert!(
            got == pre_state || got == post_state,
            "fault {i} of {n}: recovered state is neither pre nor post (marks {:?})",
            got.1
        );
        std::fs::remove_dir_all(&work).unwrap();
    }
    std::fs::remove_dir_all(&post_dir).unwrap();
    std::fs::remove_dir_all(&count_dir).unwrap();
    n
}

fn deployment(scratch: &Path) -> (std::path::PathBuf, Vec<Graph>, Graph, GraphDb) {
    let (db, graphs, fodder) = corpus();
    let params = TaleParams {
        buffer_frames: 8,
        parallel_build: false,
        ..TaleParams::default()
    };
    let pre = scratch.join("pre");
    drop(TaleDatabase::build_sharded(db.clone(), &pre, &params, 1, &HashPolicy).unwrap());
    let mut queries = graphs;
    queries.push(fodder.clone());
    (pre, queries, fodder, db)
}

fn insert_req(db: &GraphDb, g: &Graph, name: &str) -> InsertRequest {
    InsertRequest {
        name: name.into(),
        graph: WireGraph::from_graph(db, g),
    }
}

#[test]
fn torture_served_insert() {
    let scratch = tempfile::tempdir().unwrap();
    let (pre, queries, fodder, db) = deployment(scratch.path());
    let req = insert_req(&db, &fodder, "late");
    let n = sweep(&pre, scratch.path(), &queries, |e| {
        e.insert(&req).map(|_| ())
    });
    // journal marker, graphs.json, shards.json: one atomic write each
    assert_eq!(n, 6, "served insert fault points");
}

#[test]
fn torture_served_remove() {
    let scratch = tempfile::tempdir().unwrap();
    let (pre, queries, _, _) = deployment(scratch.path());
    let n = sweep(&pre, scratch.path(), &queries, |e| {
        e.remove(&RemoveRequest { graph: 0 }).map(|_| ())
    });
    assert_eq!(n, 2, "one atomic mvcc.json write");
}

#[test]
fn torture_served_fold() {
    let scratch = tempfile::tempdir().unwrap();
    let (pre, queries, fodder, db) = deployment(scratch.path());
    let engine = open(&pre);
    engine.insert(&insert_req(&db, &fodder, "late")).unwrap();
    engine.remove(&RemoveRequest { graph: 1 }).unwrap();
    drop(engine);
    let n = sweep(&pre, scratch.path(), &queries, |e| {
        e.fold(&FoldRequest { confirm: true }).map(|_| ())
    });
    assert!(n >= 3, "suspiciously few fold fault points: {n}");
}
