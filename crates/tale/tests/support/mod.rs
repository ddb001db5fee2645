//! Test support shared by the bit-identity suites.
//!
//! [`Reference`] is the oracle every layout is compared against: one
//! generational index over all graphs, queried through
//! `exec::run_batch` on its `[base, delta]` readers. It never touches the
//! shard layer — no `shards.json`, no routing, no journal — so a bug
//! there cannot hide by agreeing with itself.

#![allow(dead_code)]

use tale::engine::exec;
use tale::{QueryMatch, QueryOptions, TaleParams};
use tale_graph::{Graph, GraphDb, GraphId};
use tale_nhindex::{GenerationalNhIndex, IndexReader, NhIndexConfig};

/// An unsharded reference database with the same mutation surface as
/// [`tale::TaleDatabase`].
pub struct Reference {
    db: GraphDb,
    index: GenerationalNhIndex,
    _dir: tempfile::TempDir,
}

impl Reference {
    /// Generation 0 over every graph of `db`, built with `params`.
    pub fn build(db: GraphDb, params: &TaleParams) -> Reference {
        let dir = tempfile::tempdir().unwrap();
        let config = NhIndexConfig {
            sbit: params.sbit,
            buffer_frames: params.buffer_frames,
            parallel_build: params.parallel_build,
            bloom_hashes: params.bloom_hashes,
            use_edge_labels: params.use_edge_labels,
            ..NhIndexConfig::default()
        };
        let all = (0..db.len() as u32).map(GraphId).collect();
        let index = GenerationalNhIndex::build_owned(dir.path(), &db, &config, all, None).unwrap();
        Reference {
            db,
            index,
            _dir: dir,
        }
    }

    /// Appends a graph to the delta; ids are dense, as in the database.
    pub fn insert_graph(&mut self, name: &str, g: Graph) -> GraphId {
        let gid = self.db.insert(name, g);
        self.index.extend_delta(&self.db, gid).unwrap();
        gid
    }

    /// Tombstones a graph.
    pub fn remove_graph(&self, gid: GraphId) {
        self.index.remove_graph(gid).unwrap();
    }

    /// Folds delta and tombstones into the next generation.
    pub fn fold(&self) {
        self.index.fold(&self.db).unwrap();
    }

    /// The batch answers, cache bypassed.
    pub fn query_batch(&self, queries: &[&Graph], opts: &QueryOptions) -> Vec<Vec<QueryMatch>> {
        let snap = self.index.snapshot();
        let base = snap.base_reader();
        let delta = snap.delta_reader();
        let readers: [&dyn IndexReader; 2] = [&base, &delta];
        exec::run_batch(&self.db, &readers, None, queries, opts)
            .unwrap()
            .0
    }
}

/// Demands equal answers bit for bit: graph order, names, score bits,
/// match sizes and the node-pair lists.
pub fn assert_bit_identical(a: &[Vec<QueryMatch>], b: &[Vec<QueryMatch>], ctx: &str) {
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
