//! Concurrent reader-during-mutation harness for the generational MVCC
//! index — the tentpole's serving property, tested with bit-identity as
//! the oracle:
//!
//! * A snapshot pinned *before* a mutation storm answers every probe
//!   bit-identically to its pre-storm answers, forever — while inserts,
//!   removes and folds commit around it.
//! * A snapshot pinned *during* the storm is self-consistent: probing it
//!   twice brackets any number of concurrent commits and must agree
//!   bit-for-bit.
//! * After the storm (plus a final fold), the served state is
//!   bit-identical to an index rebuilt from scratch over exactly the
//!   live graphs — folding is a representation change, never a logical
//!   one.
//!
//! Readers never take the writer lock, so the harness also doubles as a
//! liveness check: reader iterations proceed while folds are running.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use tale_graph::{Graph, GraphDb, GraphId, NodeId, NodeLabel};
use tale_nhindex::{
    GenerationalNhIndex, IndexReader, NhIndex, NhIndexConfig, NodeCandidate, Snapshot,
};

const RHO: f64 = 0.3;
const READERS: usize = 4;
const MIN_READER_ITERS: u32 = 25;

/// Generation 0 owning every graph of `db`.
fn build(dir: &std::path::Path, db: &GraphDb) -> GenerationalNhIndex {
    let all = (0..db.len() as u32).map(GraphId).collect();
    GenerationalNhIndex::build_owned(dir, db, &cfg(), all, None).unwrap()
}

fn cfg() -> NhIndexConfig {
    NhIndexConfig {
        sbit: 32,
        buffer_frames: 64,
        parallel_build: false,
        ..NhIndexConfig::default()
    }
}

fn chain(db: &mut GraphDb, labels: &[&str]) -> GraphId {
    let ids: Vec<_> = labels.iter().map(|l| db.intern_node_label(l)).collect();
    let mut g = Graph::new_undirected();
    let nodes: Vec<_> = ids.iter().map(|&l| g.add_node(l)).collect();
    for w in nodes.windows(2) {
        g.add_edge(w[0], w[1]).unwrap();
    }
    let n = db.len();
    db.insert(format!("g{n}"), g)
}

/// Standalone query graphs over the label ids the database interns for
/// A=0, B=1, C=2 — independent of the (mutating) database, so reader
/// threads need no reference to it.
fn query_graphs() -> Vec<Graph> {
    [&[0u32, 1, 2][..], &[1, 2, 0], &[2, 0, 1, 2], &[0, 1]]
        .iter()
        .map(|labels| {
            let mut g = Graph::new_undirected();
            let nodes: Vec<_> = labels.iter().map(|&l| g.add_node(NodeLabel(l))).collect();
            for w in nodes.windows(2) {
                g.add_edge(w[0], w[1]).unwrap();
            }
            g
        })
        .collect()
}

/// Probes every node of every query graph against the snapshot (base and
/// delta readers, answers concatenated and sorted — exactly the engine's
/// scatter/gather shape) and returns the full answer matrix.
fn probe_snapshot(snap: &Snapshot, queries: &[Graph]) -> Vec<Vec<NodeCandidate>> {
    let mut out = Vec::new();
    for g in queries {
        let label_of = |n: NodeId| g.label(n).0;
        let sigs: Vec<_> = g
            .nodes()
            .map(|n| snap.base().signature(g, n, &label_of))
            .collect();
        let base = snap.base_reader().probe_batch(&sigs, RHO, 1).unwrap();
        let delta = snap.delta_reader().probe_batch(&sigs, RHO, 1).unwrap();
        for ((mut hits, _), (d, _)) in base.into_iter().zip(delta) {
            hits.extend(d);
            hits.sort_by_key(|c| c.node);
            out.push(hits);
        }
    }
    out
}

/// Same matrix from a plain (non-generational) index — the rebuild oracle.
fn probe_oracle(idx: &NhIndex, queries: &[Graph]) -> Vec<Vec<NodeCandidate>> {
    let mut out = Vec::new();
    for g in queries {
        let label_of = |n: NodeId| g.label(n).0;
        let sigs: Vec<_> = g.nodes().map(|n| idx.signature(g, n, &label_of)).collect();
        for (mut hits, _) in idx.probe_batch(&sigs, RHO, 1).unwrap() {
            hits.sort_by_key(|c| c.node);
            out.push(hits);
        }
    }
    out
}

#[test]
fn pinned_snapshots_answer_bit_identically_under_concurrent_mutations() {
    let dir = tempfile::tempdir().unwrap();
    let mut db = GraphDb::new();
    for labels in [
        &["A", "B", "C"][..],
        &["B", "C", "A"],
        &["C", "A", "B"],
        &["A", "B", "C", "A"],
        &["B", "A"],
    ] {
        chain(&mut db, labels);
    }
    let idx = build(dir.path(), &db);
    let queries = query_graphs();

    // Pin the pre-storm state and record its answers.
    let pinned = idx.snapshot();
    let g0_dir = pinned.base().dir().to_owned();
    let pinned_matrix = probe_snapshot(&pinned, &queries);

    // The writer's scripted storm: a rotation of inserts, tombstones and
    // folds. Removed ids are graphs that exist from the start.
    let removed = [GraphId(1), GraphId(3)];
    let writer_done = AtomicBool::new(false);
    let start = Barrier::new(READERS + 1);

    std::thread::scope(|scope| {
        let idx = &idx;
        let queries = &queries;
        let pinned_matrix = &pinned_matrix;
        let writer_done = &writer_done;
        let start = &start;
        for r in 0..READERS {
            let pinned = pinned.clone();
            scope.spawn(move || {
                start.wait();
                let mut iters = 0u32;
                while iters < MIN_READER_ITERS || !writer_done.load(Ordering::Acquire) {
                    assert_eq!(
                        &probe_snapshot(&pinned, queries),
                        pinned_matrix,
                        "reader {r}: pinned pre-storm snapshot drifted"
                    );
                    // A snapshot taken mid-storm must be self-consistent:
                    // any number of commits can land between these two
                    // probe passes.
                    let snap = idx.snapshot();
                    let first = probe_snapshot(&snap, queries);
                    let second = probe_snapshot(&snap, queries);
                    assert_eq!(
                        first,
                        second,
                        "reader {r}: one snapshot answered two ways (generation {}, {} delta graphs)",
                        snap.base_generation(),
                        snap.delta_graphs()
                    );
                    iters += 1;
                }
            });
        }

        let db = &mut db;
        scope.spawn(move || {
            start.wait();
            let rotation = [&["C", "B", "A"][..], &["A", "C", "B"], &["B", "A", "C"]];
            for step in 0..12usize {
                let gid = chain(db, rotation[step % rotation.len()]);
                idx.extend_delta(db, gid).unwrap();
                match step {
                    2 => idx.remove_graph(removed[0]).unwrap(),
                    7 => idx.remove_graph(removed[1]).unwrap(),
                    _ => {}
                }
                if step % 3 == 2 {
                    idx.fold(db).unwrap();
                }
                std::thread::yield_now();
            }
            writer_done.store(true, Ordering::Release);
        });
    });

    // The pinned snapshot survived the whole storm unchanged...
    assert_eq!(probe_snapshot(&pinned, &queries), pinned_matrix);
    assert_eq!(pinned.base_generation(), 0);
    assert!(g0_dir.exists(), "pinned generation GCed under a live pin");
    // ...and its generation is GCed the moment the pin drops (the storm's
    // folds retired it long ago).
    drop(pinned);
    assert!(
        !g0_dir.exists(),
        "retired generation leaked after last unpin"
    );

    // Final oracle: fold whatever delta remains, then compare the served
    // state against an index rebuilt from scratch over the live graphs.
    idx.fold(&db).unwrap();
    let live: Vec<GraphId> = (0..db.len() as u32)
        .map(GraphId)
        .filter(|g| !removed.contains(g))
        .collect();
    let oracle_dir = tempfile::tempdir().unwrap();
    let oracle = NhIndex::build_subset(oracle_dir.path(), &db, &cfg(), &live).unwrap();

    let snap = idx.snapshot();
    assert_eq!(snap.delta_graphs(), 0);
    assert_eq!(
        probe_snapshot(&snap, &queries),
        probe_oracle(&oracle, &queries),
        "post-fold state is not bit-identical to a from-scratch rebuild"
    );
}

#[test]
fn fold_is_a_pure_representation_change() {
    // Deterministic single-thread variant of the oracle above, for clear
    // failure attribution: insert + remove + two folds, compared against
    // a from-scratch rebuild after every fold.
    let dir = tempfile::tempdir().unwrap();
    let mut db = GraphDb::new();
    chain(&mut db, &["A", "B", "C"]);
    chain(&mut db, &["B", "C", "A"]);
    chain(&mut db, &["C", "A", "B"]);
    let idx = build(dir.path(), &db);
    let queries = query_graphs();

    let g3 = chain(&mut db, &["A", "C", "B", "A"]);
    idx.extend_delta(&db, g3).unwrap();
    idx.remove_graph(GraphId(0)).unwrap();

    let before = probe_snapshot(&idx.snapshot(), &queries);
    for round in 1..=2u64 {
        let report = idx.fold(&db).unwrap();
        assert_eq!(report.new_generation, round);
        let after = probe_snapshot(&idx.snapshot(), &queries);
        assert_eq!(
            before, after,
            "fold {round} changed query answers (representation leaked into logic)"
        );
    }

    let live: Vec<GraphId> = (1..db.len() as u32).map(GraphId).collect();
    let oracle_dir = tempfile::tempdir().unwrap();
    let oracle = NhIndex::build_subset(oracle_dir.path(), &db, &cfg(), &live).unwrap();
    assert_eq!(before, probe_oracle(&oracle, &queries));
}
