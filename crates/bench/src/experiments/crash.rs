//! E-CRASH — fault-injection torture sweep over every durable mutation.
//!
//! For each mutation kind the harness first runs the mutation cleanly
//! while *counting* its gated I/O operations, then re-runs it once per
//! fault point with exactly that operation failing. Process death is
//! simulated by dropping the handle with the fault still tripped (so even
//! the buffer pool's best-effort `Drop` flush fails), the directory is
//! reopened through the recovery path, and the observed state — query
//! answers plus the durable counters that tell pre from post — is
//! compared against both the pre-mutation and the post-mutation reference
//! states. A recovery that matches neither — a corrupted-but-served state
//! — fails the row.
//!
//! Sweeps cover the in-process database at one shard and at two (insert:
//! journal + `graphs.json` + the `shards.json` assignment commit; remove:
//! one shard's `mvcc.json` tombstone write; fold: every shard's
//! generation build plus its manifest flip) and the served shard engine
//! (the same three on a one-shard deployment). Only built with
//! `--features failpoints`.

use std::path::Path;
use tale::shard::HashPolicy;
use tale::{QueryOptions, TaleDatabase, TaleParams};
use tale_graph::{Graph, GraphDb, GraphId, NodeId};
use tale_server::engine::{EngineConfig, ShardEngine};
use tale_server::wire::{FoldRequest, InsertRequest, RemoveRequest, WireGraph};
use tale_storage::faults;

/// One mutation kind's sweep outcome.
#[derive(Debug, Clone, serde::Serialize)]
pub struct CrashRow {
    /// Mutation swept.
    pub mutation: String,
    /// Gated I/O operations the clean mutation performs — one simulated
    /// crash per point.
    pub fault_points: u64,
    /// Recoveries that rolled back to the pre-mutation state.
    pub rolled_back: u64,
    /// Recoveries that completed to the post-mutation state.
    pub committed: u64,
    /// Every recovery was bit-identical to pre or post and passed the
    /// deep integrity check.
    pub identical: bool,
}

/// Tiny per-index pool so builds overflow it and exercise eviction
/// write-backs.
fn params() -> TaleParams {
    TaleParams {
        buffer_frames: 8,
        parallel_build: false,
        ..TaleParams::default()
    }
}

fn opts() -> QueryOptions {
    QueryOptions {
        p_imp: 0.5,
        ..QueryOptions::default()
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

/// What a recovered directory is observed as: its query answers plus
/// the durable counters that tell the pre state from the post state.
/// `None` = the directory would not open or failed its integrity check.
type Observed = Option<(Vec<Vec<(GraphId, u64, usize)>>, Vec<u64>)>;

/// Sweeps one mutation over all its fault points. `open` reopens a
/// directory through its recovery path, `mutate` applies the mutation
/// (true = it succeeded), `observe` reads the state.
fn sweep<H>(
    pre: &Path,
    scratch: &Path,
    name: &str,
    open: impl Fn(&Path) -> Option<H>,
    mutate: impl Fn(&H) -> bool,
    observe: impl Fn(&H) -> Observed,
) -> CrashRow {
    let observed = |dir: &Path| open(dir).and_then(|h| observe(&h));
    let pre_state = observed(pre).expect("pre state opens");
    let post_dir = scratch.join("post");
    copy_tree(pre, &post_dir);
    let post = open(&post_dir).expect("post copy opens");
    assert!(mutate(&post), "{name}: clean mutation failed");
    drop(post);
    let post_state = observed(&post_dir).expect("post state opens");

    let count_dir = scratch.join("count");
    copy_tree(pre, &count_dir);
    let counted = open(&count_dir).expect("count copy opens");
    faults::arm_counting();
    mutate(&counted);
    let n = faults::disarm();
    drop(counted);

    let mut row = CrashRow {
        mutation: name.to_owned(),
        fault_points: n,
        rolled_back: 0,
        committed: 0,
        identical: true,
    };
    for i in 0..n {
        let work = scratch.join(format!("fault-{i}"));
        copy_tree(pre, &work);
        let h = open(&work).expect("work copy opens");
        faults::arm(i);
        let crashed = !mutate(&h);
        drop(h); // the process is "dead"
        faults::disarm();
        match observed(&work) {
            Some(got) if got == post_state => row.committed += 1,
            Some(got) if got == pre_state && crashed => row.rolled_back += 1,
            _ => row.identical = false,
        }
        std::fs::remove_dir_all(&work).unwrap();
    }
    std::fs::remove_dir_all(&post_dir).unwrap();
    std::fs::remove_dir_all(&count_dir).unwrap();
    row
}

/// A reopened database under test: in process, or behind the served
/// shard engine.
enum Handle {
    Local(TaleDatabase),
    Served(ShardEngine),
}

impl Handle {
    fn open(served: bool, dir: &Path) -> Option<Handle> {
        let frames = params().buffer_frames;
        if !served {
            return TaleDatabase::open(dir, frames).ok().map(Handle::Local);
        }
        let cfg = EngineConfig {
            buffer_frames: frames,
            ..EngineConfig::default()
        };
        ShardEngine::open(dir, 0, cfg).ok().map(Handle::Served)
    }

    fn database(&self) -> &TaleDatabase {
        match self {
            Handle::Local(d) => d,
            Handle::Served(e) => e.database(),
        }
    }

    fn insert(&self, g: &Graph) -> bool {
        match self {
            Handle::Local(d) => d.insert_graph("late", g.clone()).is_ok(),
            Handle::Served(e) => e
                .insert(&InsertRequest {
                    name: "late".into(),
                    graph: WireGraph::from_graph(&e.database().db(), g),
                })
                .is_ok(),
        }
    }

    fn remove(&self, gid: GraphId) -> bool {
        match self {
            Handle::Local(d) => d.remove_graph(gid).is_ok(),
            Handle::Served(e) => e.remove(&RemoveRequest { graph: gid.0 }).is_ok(),
        }
    }

    fn fold(&self) -> bool {
        match self {
            Handle::Local(d) => d.fold().is_ok(),
            Handle::Served(e) => e.fold(&FoldRequest { confirm: true }).is_ok(),
        }
    }

    /// Query answers plus (per shard: current generation, tombstone
    /// count, then the graph count) after a deep integrity check.
    fn observe(&self, queries: &[Graph]) -> Observed {
        let d = self.database();
        let mut marks = Vec::new();
        for idx in d.index().shards() {
            if !idx.verify().is_ok_and(|r| r.is_ok()) {
                return None;
            }
            let snap = idx.snapshot();
            marks.extend([snap.base_generation(), snap.removed_count() as u64]);
        }
        marks.push(d.db().len() as u64);
        Some((answers(queries, |q| d.query(q, &opts()).ok())?, marks))
    }
}

fn answers(
    queries: &[Graph],
    run: impl Fn(&Graph) -> Option<Vec<tale::QueryMatch>>,
) -> Option<Vec<Vec<(GraphId, u64, usize)>>> {
    queries
        .iter()
        .map(|q| {
            run(q).map(|ms| {
                ms.into_iter()
                    .map(|m| (m.graph, m.score.to_bits(), m.matched_nodes))
                    .collect()
            })
        })
        .collect()
}

/// Runs the full crash-safety sweep — insert, remove and fold of the
/// in-process database at one shard and at two, and of the served shard
/// engine on a one-shard deployment. Returns one row per mutation;
/// `identical` must be true on every row.
pub fn run_crash() -> Vec<CrashRow> {
    let (db, graphs, fodder) = corpus();
    let mut queries = graphs.clone();
    queries.push(fodder.clone());
    let mut rows = Vec::new();
    for (kind, nshards, served) in [
        ("1 shard", 1, false),
        ("2 shards", 2, false),
        ("served engine", 1, true),
    ] {
        let scratch = tempfile::tempdir().unwrap();
        let pre = scratch.path().join("pre");
        let dir = pre.as_path();
        drop(
            TaleDatabase::build_sharded(db.clone(), dir, &params(), nshards, &HashPolicy).unwrap(),
        );
        let open = |d: &Path| Handle::open(served, d);
        let observe = |h: &Handle| h.observe(&queries);
        rows.push(sweep(
            dir,
            scratch.path(),
            &format!("{kind} insert (journal + shards.json)"),
            open,
            |h| h.insert(&fodder),
            observe,
        ));
        rows.push(sweep(
            dir,
            scratch.path(),
            &format!("{kind} remove (mvcc.json tombstone)"),
            open,
            |h| h.remove(GraphId(0)),
            observe,
        ));
        // a fold with real work: one unfolded insert and one tombstone
        let h = open(dir).unwrap();
        assert!(h.insert(&fodder) && h.remove(GraphId(1)));
        drop(h);
        rows.push(sweep(
            dir,
            scratch.path(),
            &format!("{kind} fold (generation build + mvcc.json flip)"),
            open,
            |h| h.fold(),
            observe,
        ));
    }
    rows
}
