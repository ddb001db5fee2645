//! Database crash-torture harness: every gated I/O operation of every
//! mutation — the insert's journal staging, `graphs.json` save and
//! `shards.json` commit; the removal's tombstone write; each shard's
//! generation build and manifest flip in a fold — is failed in turn, at
//! one shard and at two, process death is simulated by dropping the
//! handle with the fault still tripped, and the reopened database must
//! answer queries bit-identically to either the pre-mutation or the
//! post-mutation state.
//!
//! The fault shim is thread-local, so these tests are safe under the
//! default parallel test runner.

use std::path::Path;
use tale::shard::HashPolicy;
use tale::{QueryOptions, TaleDatabase, TaleError, TaleParams};
use tale_graph::{Graph, GraphDb, GraphId, NodeId};
use tale_storage::faults;

/// The shard counts every sweep runs at: the default one-shard database
/// and a partitioned one.
const SHARD_COUNTS: [usize; 2] = [1, 2];

/// Tiny per-shard pool so generation builds overflow it and exercise
/// eviction write-backs.
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
fn small_db() -> (GraphDb, Vec<Graph>, Graph) {
    let mut db = GraphDb::new();
    let labels: Vec<_> = (0..4)
        .map(|i| db.intern_node_label(&format!("L{i}")))
        .collect();
    let mut graphs = Vec::new();
    let build = |k: usize, labels: &[tale_graph::NodeLabel]| {
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
    for k in 0..6usize {
        let g = build(k, &labels);
        db.insert(format!("g{k}"), g.clone());
        graphs.push(g);
    }
    let fodder = build(6, &labels);
    (db, graphs, fodder)
}

/// One ranked match, compressed to raw bits for exact comparison.
type Row = (GraphId, u64, Vec<(NodeId, NodeId, u64)>);

/// Compressed query answers over all probe graphs — the "query output"
/// whose bit-identity the torture asserts.
fn answers(sharded: &TaleDatabase, queries: &[Graph]) -> Vec<Vec<Row>> {
    queries
        .iter()
        .map(|q| {
            sharded
                .query(q, &opts())
                .unwrap()
                .into_iter()
                .map(|m| {
                    let pairs =
                        m.m.pairs
                            .iter()
                            .map(|p| (p.query, p.target, p.quality.to_bits()))
                            .collect();
                    (m.graph, m.score.to_bits(), pairs)
                })
                .collect()
        })
        .collect()
}

/// Recursive copy: a database directory nests one index dir per shard.
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

/// The observed state of a recovered database: query answers plus the
/// durable counters that tell the pre state from the post state (graph
/// count, then each shard's generation and tombstone count).
type Observed = (Vec<Vec<Row>>, Vec<u64>);

fn observe(sharded: &TaleDatabase, queries: &[Graph]) -> Observed {
    let mut marks = vec![sharded.db().len() as u64];
    for sh in sharded.index().shards() {
        let snap = sh.snapshot();
        marks.extend([snap.base_generation(), snap.removed_count() as u64]);
    }
    (answers(sharded, queries), marks)
}

/// Fails every gated I/O operation of `mutate` in turn on a copy of
/// `pre`, drops the handle with the fault tripped (the process is
/// "dead"), reopens through recovery, and asserts the recovered database
/// is observed exactly as the pre or the post state, with clean shards.
/// Returns the number of fault points.
fn sweep<F>(pre: &Path, scratch: &Path, queries: &[Graph], mutate: F) -> u64
where
    F: Fn(&TaleDatabase) -> tale::Result<()>,
{
    let frames = params().buffer_frames;
    let pre_state = observe(&TaleDatabase::open(pre, frames).unwrap(), queries);

    let post_dir = scratch.join("post");
    copy_tree(pre, &post_dir);
    let post = TaleDatabase::open(&post_dir, frames).unwrap();
    mutate(&post).unwrap();
    drop(post);
    let post_state = observe(&TaleDatabase::open(&post_dir, frames).unwrap(), queries);
    assert_ne!(pre_state, post_state, "the mutation changed nothing");

    // Measuring run: how many gated I/O operations does the mutation make?
    let count_dir = scratch.join("count");
    copy_tree(pre, &count_dir);
    let counted = TaleDatabase::open(&count_dir, frames).unwrap();
    faults::arm_counting();
    mutate(&counted).unwrap();
    let n = faults::disarm();
    drop(counted);
    assert!(n > 0, "mutation made no gated I/O");

    for i in 0..n {
        let work = scratch.join(format!("fault-{i}"));
        copy_tree(pre, &work);
        let sharded = TaleDatabase::open(&work, frames).unwrap();
        faults::arm(i);
        let res = mutate(&sharded);
        drop(sharded);
        faults::disarm();
        assert!(res.is_err(), "fault {i} of {n} did not surface");

        let (recovered, _) = TaleDatabase::open_with_recovery(&work, frames).unwrap();
        let got = observe(&recovered, queries);
        assert!(
            got == pre_state || got == post_state,
            "fault {i} of {n}: recovered state is neither pre nor post: {:?}",
            got.1
        );
        for (s, report) in recovered.index().verify().unwrap().iter().enumerate() {
            assert!(
                report.is_ok(),
                "fault {i} of {n}: shard {s} integrity errors after recovery: {:?}",
                report.errors
            );
        }
        drop(recovered);
        std::fs::remove_dir_all(&work).unwrap();
    }
    std::fs::remove_dir_all(&post_dir).unwrap();
    std::fs::remove_dir_all(&count_dir).unwrap();
    n
}

fn built_pre(scratch: &Path, nshards: usize) -> (std::path::PathBuf, Vec<Graph>, Graph) {
    let (db, graphs, fodder) = small_db();
    let pre = scratch.join("pre");
    drop(TaleDatabase::build_sharded(db, &pre, &params(), nshards, &HashPolicy).unwrap());
    let mut queries = graphs;
    queries.push(fodder.clone());
    (pre, queries, fodder)
}

#[test]
fn torture_insert_graph() {
    for nshards in SHARD_COUNTS {
        let scratch = tempfile::tempdir().unwrap();
        let (pre, queries, fodder) = built_pre(scratch.path(), nshards);
        let n = sweep(&pre, scratch.path(), &queries, |s| {
            s.insert_graph("late", fodder.clone()).map(|_| ())
        });
        // the protocol's gated steps, each an atomic write (write +
        // rename): the journal marker, graphs.json, and the shards.json
        // commit — the same at every shard count
        assert_eq!(n, 6, "insert fault points at {nshards} shard(s)");
    }
}

#[test]
fn torture_remove_graph() {
    // Removal tombstones only the owning shard's mvcc.json (no journal,
    // no graphs.json or shards.json change).
    for nshards in SHARD_COUNTS {
        let scratch = tempfile::tempdir().unwrap();
        let (pre, queries, _) = built_pre(scratch.path(), nshards);
        let n = sweep(&pre, scratch.path(), &queries, |s| {
            s.remove_graph(GraphId(0))
        });
        assert_eq!(n, 2, "one atomic mvcc.json write at {nshards} shard(s)");
    }
}

#[test]
fn torture_fold() {
    // A fold with real work in the deltas and tombstones; at two shards a
    // crash between the shards' flips is completed on open.
    for nshards in SHARD_COUNTS {
        let scratch = tempfile::tempdir().unwrap();
        let (pre, queries, fodder) = built_pre(scratch.path(), nshards);
        let db = TaleDatabase::open(&pre, params().buffer_frames).unwrap();
        db.insert_graph("late", fodder.clone()).unwrap();
        db.insert_graph("later", queries[2].clone()).unwrap();
        db.remove_graph(GraphId(0)).unwrap();
        db.remove_graph(GraphId(1)).unwrap();
        drop(db);
        let n = sweep(&pre, scratch.path(), &queries, |s| s.fold().map(|_| ()));
        assert!(
            n >= 2 * nshards as u64,
            "suspiciously few fold fault points at {nshards} shard(s): {n}"
        );
    }
}

#[test]
fn uncommitted_insert_rolls_graphs_json_back_on_open() {
    // The one recovery rule, driven directly: a graphs.json that grew
    // without the shards.json assignment growing is rolled back.
    let scratch = tempfile::tempdir().unwrap();
    let (pre, queries, fodder) = built_pre(scratch.path(), 1);
    let frames = params().buffer_frames;
    let want = observe(&TaleDatabase::open(&pre, frames).unwrap(), &queries);
    let journal = tale::journal::MutationJournal::new(&pre);
    let mut grown = tale_graph::io::load_json(&pre.join("graphs.json")).unwrap();
    journal
        .stage(
            &pre.join("graphs.json"),
            tale::journal::PendingMutation {
                pre_generation: grown.len() as u64,
            },
        )
        .unwrap();
    grown.insert("phantom", fodder);
    tale_graph::io::save_json(&grown, &pre.join("graphs.json")).unwrap();
    let (db, rec) = TaleDatabase::open_with_recovery(&pre, frames).unwrap();
    assert!(rec.journal_present && rec.db_rolled_back, "{rec:?}");
    assert_eq!(observe(&db, &queries), want);
}

#[test]
fn partial_shard_failure_names_the_shard() {
    let (db, _, _) = small_db();
    let dir = tempfile::tempdir().unwrap();
    let sharded = TaleDatabase::build_sharded(db, dir.path(), &params(), 3, &HashPolicy).unwrap();
    drop(sharded);
    // destroy one shard's meta file; its siblings stay healthy
    std::fs::remove_file(dir.path().join("shard-001").join("mvcc.json")).unwrap();
    let err = match TaleDatabase::open(dir.path(), params().buffer_frames) {
        Ok(_) => panic!("open served a database with a destroyed shard"),
        Err(e) => e,
    };
    match err {
        TaleError::Shard { shard, .. } => assert_eq!(shard, 1),
        other => panic!("expected a shard-attributed error, got: {other}"),
    }
}

#[test]
fn sharded_verify_attributes_bit_flips() {
    let (db, _, _) = small_db();
    let dir = tempfile::tempdir().unwrap();
    let sharded = TaleDatabase::build_sharded(db, dir.path(), &params(), 2, &HashPolicy).unwrap();
    let clean = sharded.index().verify().unwrap();
    assert!(clean.iter().all(|r| r.is_ok()));
    drop(sharded);

    // flip one payload byte in the middle of shard 0's B+-tree file
    let bt = dir.path().join("shard-000/gens/g0/nh.btree");
    let mut bytes = std::fs::read(&bt).unwrap();
    let victim = bytes.len() / 2;
    bytes[victim] ^= 0x40;
    std::fs::write(&bt, &bytes).unwrap();

    let sharded = TaleDatabase::open(dir.path(), params().buffer_frames).unwrap();
    let reports = sharded.index().verify().unwrap();
    assert!(!reports[0].is_ok(), "bit flip in shard 0 not detected");
    assert!(reports[1].is_ok(), "healthy shard 1 flagged");
}
