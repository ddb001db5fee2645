//! Crash-torture harness for the generational index: every gated I/O
//! operation of every durable mutation (remove, fold) is failed in turn,
//! process death is simulated by dropping the handle with the fault still
//! tripped (so even the buffer pool's best-effort `Drop` flush fails), and
//! the reopened index must be *bit-identical in query output* to either
//! the pre-mutation state (not committed) or the post-mutation state
//! (committed) — never anything in between. An index directory is never
//! rewritten in place, so the only durable step of a mutation is its
//! atomic `mvcc.json` write (plus, for a fold, a generation build that an
//! open sweeps if the flip never happened). An insert writes nothing here:
//! its owner commits it (the database's `shards.json` assignment), and
//! open re-derives the delta from the owned graphs.
//!
//! The fault shim is thread-local, so these tests are safe under the
//! default parallel test runner.

use std::path::Path;
use tale_graph::{Graph, GraphDb, GraphId, NodeId};
use tale_nhindex::{GenerationalNhIndex, IndexReader, NhIndex, NhIndexConfig, NodeCandidate};
use tale_storage::faults;

/// Tiny pool so generation builds overflow it and exercise eviction
/// write-backs.
fn cfg() -> NhIndexConfig {
    NhIndexConfig {
        sbit: 32,
        buffer_frames: 8,
        parallel_build: false,
        bloom_hashes: 1,
        use_edge_labels: false,
        ..NhIndexConfig::default()
    }
}

/// Five graphs over labels {A, B, C}: three in the initial index, two kept
/// aside as insertion fodder.
fn sample_db() -> GraphDb {
    let mut db = GraphDb::new();
    let a = db.intern_node_label("A");
    let b = db.intern_node_label("B");
    let c = db.intern_node_label("C");

    // g0: triangle with a pendant
    let mut g0 = Graph::new_undirected();
    let n0 = g0.add_node(a);
    let n1 = g0.add_node(b);
    let n2 = g0.add_node(c);
    let n3 = g0.add_node(a);
    g0.add_edge(n0, n1).unwrap();
    g0.add_edge(n1, n2).unwrap();
    g0.add_edge(n0, n2).unwrap();
    g0.add_edge(n0, n3).unwrap();
    db.insert("g0", g0);

    // g1: star
    let mut g1 = Graph::new_undirected();
    let m0 = g1.add_node(a);
    let m1 = g1.add_node(b);
    let m2 = g1.add_node(b);
    let m3 = g1.add_node(c);
    g1.add_edge(m0, m1).unwrap();
    g1.add_edge(m0, m2).unwrap();
    g1.add_edge(m0, m3).unwrap();
    db.insert("g1", g1);

    // g2: 6-chain alternating labels
    let mut g2 = Graph::new_undirected();
    let nodes: Vec<NodeId> = [a, b, c, a, b, c].iter().map(|&l| g2.add_node(l)).collect();
    for w in nodes.windows(2) {
        g2.add_edge(w[0], w[1]).unwrap();
    }
    db.insert("g2", g2);

    // g3, g4: insertion fodder
    let mut g3 = Graph::new_undirected();
    let x = g3.add_node(a);
    let y = g3.add_node(b);
    let z = g3.add_node(a);
    g3.add_edge(x, y).unwrap();
    g3.add_edge(y, z).unwrap();
    db.insert("g3", g3);

    let mut g4 = Graph::new_undirected();
    let u = g4.add_node(c);
    let v = g4.add_node(c);
    g4.add_edge(u, v).unwrap();
    db.insert("g4", g4);

    db
}

/// The first `n` graphs of `db` over its full vocabulary — the graph
/// store as it stood before later inserts.
fn prefix(db: &GraphDb, n: usize) -> GraphDb {
    let mut out = GraphDb::new();
    for (_, name) in db.node_vocab().iter() {
        out.intern_node_label(name);
    }
    for (_, name, g) in db.iter().take(n) {
        out.insert(name.to_owned(), g.clone());
    }
    out
}

/// Full probe matrix through a snapshot (base + delta concatenated,
/// sorted per node) over every graph of `probe_db` — the query output
/// whose bit-identity the torture asserts.
fn probe_matrix(idx: &GenerationalNhIndex, probe_db: &GraphDb) -> Vec<Vec<NodeCandidate>> {
    let snap = idx.snapshot();
    let mut out = Vec::new();
    for (gid, _, g) in probe_db.iter() {
        let label_of = |n: NodeId| probe_db.effective_label(gid, n);
        let sigs: Vec<_> = g
            .nodes()
            .map(|n| snap.base().signature(g, n, &label_of))
            .collect();
        let base = snap.base_reader().probe_batch(&sigs, 0.3, 1).unwrap();
        let delta = snap.delta_reader().probe_batch(&sigs, 0.3, 1).unwrap();
        for ((mut hits, _), (d, _)) in base.into_iter().zip(delta) {
            hits.extend(d);
            hits.sort_by_key(|c| c.node);
            out.push(hits);
        }
    }
    out
}

/// What a reopened index is observed as: its probe matrix plus the
/// durable counters (current generation, tombstones).
type Observed = (Vec<Vec<NodeCandidate>>, [u64; 2]);

fn observe(idx: &GenerationalNhIndex, probe_db: &GraphDb) -> Observed {
    let snap = idx.snapshot();
    let marks = [snap.base_generation(), snap.removed_count() as u64];
    (probe_matrix(idx, probe_db), marks)
}

fn copy_tree(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &dst.join(entry.file_name()));
        } else {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }
}

fn all(db: &GraphDb) -> Vec<GraphId> {
    (0..db.len() as u32).map(GraphId).collect()
}

/// Builds generation 0 owning every graph of `db`.
fn build(dir: &Path, db: &GraphDb) -> GenerationalNhIndex {
    GenerationalNhIndex::build_owned(dir, db, &cfg(), all(db), None).unwrap()
}

/// Reopens `dir` owning every graph of `db`.
fn reopen(dir: &Path, db: &GraphDb) -> GenerationalNhIndex {
    GenerationalNhIndex::open_owned(dir, db, &all(db), cfg().buffer_frames, None)
        .unwrap()
        .0
}

/// Runs `mutate` against a copy of `pre` failing the `i`-th gated I/O
/// operation for every `i`, and asserts the recovered index is observed
/// exactly as the pre state or the post state, with generation
/// directories swept and a clean integrity check. `db` is the graph
/// store (a removal or a fold leaves it unchanged). Returns the number of
/// fault points swept.
fn sweep<F>(pre: &Path, scratch: &Path, db: &GraphDb, mutate: F) -> u64
where
    F: Fn(&GenerationalNhIndex) -> tale_nhindex::Result<()>,
{
    let pre_state = observe(&reopen(pre, db), db);

    let post_dir = scratch.join("post");
    copy_tree(pre, &post_dir);
    let idx = reopen(&post_dir, db);
    mutate(&idx).unwrap();
    drop(idx);
    let post_state = observe(&reopen(&post_dir, db), db);
    assert_ne!(pre_state.1, post_state.1, "the mutation committed nothing");

    // Measuring run: how many gated I/O operations does the mutation make?
    let count_dir = scratch.join("count");
    copy_tree(pre, &count_dir);
    let idx = reopen(&count_dir, db);
    faults::arm_counting();
    mutate(&idx).unwrap();
    let n = faults::disarm();
    drop(idx);
    assert!(n > 0, "mutation made no gated I/O");

    for i in 0..n {
        let work = scratch.join(format!("fault-{i}"));
        copy_tree(pre, &work);
        let idx = reopen(&work, db);
        faults::arm(i);
        let res = mutate(&idx);
        drop(idx); // the process is "dead"; no GC runs
        faults::disarm();
        assert!(res.is_err(), "fault {i} of {n} did not surface");

        let idx = reopen(&work, db);
        let got = observe(&idx, db);
        assert!(
            got == pre_state || got == post_state,
            "fault {i} of {n}: recovered state is neither pre nor post (marks {:?})",
            got.1
        );
        assert_gens_swept(&work, idx.current_generation());
        let integrity = idx.verify().unwrap();
        assert!(
            integrity.is_ok(),
            "fault {i} of {n}: integrity errors after recovery: {:?}",
            integrity.errors
        );
        drop(idx);
        std::fs::remove_dir_all(&work).unwrap();
    }
    std::fs::remove_dir_all(&post_dir).unwrap();
    std::fs::remove_dir_all(&count_dir).unwrap();
    n
}

/// `gens/` must hold exactly the current generation's directory.
fn assert_gens_swept(dir: &Path, current: u64) {
    let names: Vec<String> = std::fs::read_dir(dir.join("gens"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        names,
        vec![format!("g{current}")],
        "orphaned generation directories not swept"
    );
}

#[test]
fn torture_remove_graph() {
    let db3 = prefix(&sample_db(), 3);
    let scratch = tempfile::tempdir().unwrap();
    let pre = scratch.path().join("pre");
    build(&pre, &db3);
    let n = sweep(&pre, scratch.path(), &db3, |idx| {
        idx.remove_graph(GraphId(1))
    });
    // the removal's one durable step: the atomic mvcc.json write
    assert_eq!(n, 2, "remove fault points");
}

#[test]
fn insert_writes_nothing_and_reopens_from_the_owned_set() {
    // An insert only extends the in-memory delta: no gated I/O at all, and
    // a reopen re-derives the same answers from the owned graphs.
    let db = sample_db();
    let (db3, db4) = (prefix(&db, 3), prefix(&db, 4));
    let dir = tempfile::tempdir().unwrap();
    let idx = build(dir.path(), &db3);
    faults::arm_counting();
    idx.extend_delta(&db4, GraphId(3)).unwrap();
    assert_eq!(faults::disarm(), 0, "an insert touched the disk");
    let live = probe_matrix(&idx, &db4);
    drop(idx);
    assert_eq!(probe_matrix(&reopen(dir.path(), &db4), &db4), live);
}

#[test]
fn torture_fold() {
    // A fold with real work (an unfolded insert and a tombstone) lands on
    // exactly generation G or G+1, answering identically either way — a
    // fold changes representation, never contents.
    let db = sample_db();
    let (db4, db5) = (prefix(&db, 4), prefix(&db, 5));
    let scratch = tempfile::tempdir().unwrap();
    let pre = scratch.path().join("pre");
    let idx = build(&pre, &db4);
    idx.extend_delta(&db5, GraphId(4)).unwrap();
    idx.remove_graph(GraphId(1)).unwrap();
    let before = probe_matrix(&idx, &db5);
    drop(idx);
    let n = sweep(&pre, scratch.path(), &db5, |idx| {
        let report = idx.fold(&db5)?;
        assert_eq!((report.folded_inserts, report.folded_removes), (1, 1));
        Ok(())
    });
    assert!(n >= 3, "suspiciously few fold fault points: {n}");
    let idx = reopen(&pre, &db5);
    idx.fold(&db5).unwrap();
    assert_eq!(probe_matrix(&idx, &db5), before, "fold changed answers");
}

const INITIAL: [GraphId; 3] = [GraphId(0), GraphId(1), GraphId(2)];

#[test]
fn bit_flip_is_refused_not_served() {
    let db = sample_db();
    let dir = tempfile::tempdir().unwrap();
    let idx = NhIndex::build_subset(dir.path(), &db, &cfg(), &INITIAL).unwrap();
    let clean = idx.verify().unwrap();
    assert!(
        clean.is_ok(),
        "clean index fails verify: {:?}",
        clean.errors
    );
    assert!(clean.btree_pages > 0 && clean.postings > 0);
    drop(idx);

    // flip one payload byte in the middle of the B+-tree file
    let bt = dir.path().join("nh.btree");
    let mut bytes = std::fs::read(&bt).unwrap();
    let victim = bytes.len() / 2;
    bytes[victim] ^= 0x40;
    std::fs::write(&bt, &bytes).unwrap();

    let idx = NhIndex::open(dir.path(), cfg().buffer_frames).unwrap();
    let report = idx.verify().unwrap();
    assert!(!report.is_ok(), "bit flip not detected");
    assert!(
        report.errors.iter().any(|e| e.contains("nh.btree")),
        "corruption not attributed to the damaged file: {:?}",
        report.errors
    );
}

use proptest::prelude::*;

proptest! {
    // Each case builds and crash-recovers several indexes, so keep the
    // case count modest; the deterministic sweeps above cover every fault
    // point exhaustively, this adds interleaving coverage.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized interleavings: shuffle two inserts, two removes and a
    /// fold, crash one of the three durable ones at a random fault point,
    /// and check the recovered index equals a clean replay of exactly the
    /// committed prefix.
    #[test]
    fn random_interleavings_recover_to_a_clean_replay(
        order_seed in any::<u64>(),
        durable_pick in 0usize..3,
        fault_seed in any::<u64>(),
    ) {
        // Fisher–Yates over the five ops, driven by the generated seed.
        let mut order = [0usize, 1, 2, 3, 4];
        let mut s = order_seed | 1;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        let full = sample_db();
        let dbs: Vec<GraphDb> = (3..=5).map(|n| prefix(&full, n)).collect();
        // ops 0/1 insert the next graph, 2/3 remove graphs 0/1, 4 folds;
        // `inserted` is how many inserts have committed before the op
        let apply = |idx: &GenerationalNhIndex, op: usize, inserted: usize| match op {
            0 | 1 => idx.extend_delta(&dbs[inserted + 1], GraphId(3 + inserted as u32)),
            2 => idx.remove_graph(GraphId(0)),
            3 => idx.remove_graph(GraphId(1)),
            _ => idx.fold(&dbs[inserted]).map(|_| ()),
        };
        let inserts_before = |k: usize| order[..k].iter().filter(|&&op| op < 2).count();
        let marks = |idx: &GenerationalNhIndex| {
            let snap = idx.snapshot();
            (snap.base_generation(), snap.removed_count())
        };
        // inserts make no gated I/O, so the crash hits a remove or the fold
        let crash_at = (0..order.len())
            .filter(|&k| order[k] >= 2)
            .nth(durable_pick)
            .unwrap();
        let scratch = tempfile::tempdir().unwrap();

        // work index: clean ops before the crash point
        let work = scratch.path().join("work");
        let idx = build(&work, &dbs[0]);
        for (k, &op) in order[..crash_at].iter().enumerate() {
            apply(&idx, op, inserts_before(k)).unwrap();
        }
        let pre_marks = marks(&idx);
        drop(idx);
        let inserted = inserts_before(crash_at);
        let crashing = order[crash_at];

        // measure the crashing op's fault points on a throwaway copy
        let count_dir = scratch.path().join("count");
        copy_tree(&work, &count_dir);
        let idx = reopen(&count_dir, &dbs[inserted]);
        faults::arm_counting();
        apply(&idx, crashing, inserted).unwrap();
        let n = faults::disarm();
        drop(idx);
        prop_assert!(n > 0);

        // crash the real one
        let idx = reopen(&work, &dbs[inserted]);
        faults::arm(fault_seed % n);
        let res = apply(&idx, crashing, inserted);
        drop(idx);
        faults::disarm();
        prop_assert!(res.is_err());

        let idx = reopen(&work, &dbs[inserted]);
        let committed = marks(&idx) != pre_marks;
        let replayed = crash_at + usize::from(committed);

        // clean replay of exactly the committed prefix
        let replay_dir = scratch.path().join("replay");
        let replay = build(&replay_dir, &dbs[0]);
        for (k, &op) in order[..replayed].iter().enumerate() {
            apply(&replay, op, inserts_before(k)).unwrap();
        }
        let probe_db = &dbs[2];
        prop_assert_eq!(observe(&idx, probe_db), observe(&replay, probe_db));
        let integrity = idx.verify().unwrap();
        prop_assert!(integrity.is_ok(), "integrity: {:?}", integrity.errors);
    }
}
