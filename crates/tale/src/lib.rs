//! TALE — a Tool for Approximate Large graph matching Efficiently
//! (Tian & Patel, ICDE 2008).
//!
//! This crate is the public face of the reproduction: build a
//! [`TaleDatabase`] over a [`tale_graph::GraphDb`] (constructing the
//! disk-resident NH-Index), then run approximate subgraph queries with
//! [`TaleDatabase::query`]. The pipeline is exactly the paper's (Fig. 4):
//!
//! 1. select the query's important nodes (top `Pimp` fraction by the
//!    configured importance measure, degree centrality by default);
//! 2. probe the NH-Index for each important node (conditions IV.1–IV.4,
//!    Algorithm 1), score hits with Eq. IV.5;
//! 3. per candidate database graph, resolve hits into one-to-one anchors
//!    by maximum-weight bipartite matching;
//! 4. grow each anchored match with Algorithms 2–4;
//! 5. rank matches under a pluggable similarity model and return the
//!    top-K.
//!
//! Every database is partitioned into `N ≥ 1` shards ([`shard`]), each a
//! generational NH-Index over a disjoint subset of the graphs. The
//! paper's single index is the default, one-shard database
//! ([`TaleDatabase::build`]); [`TaleDatabase::build_sharded`] spreads the
//! same design over more shards, with bit-identical answers at any `N`.
//! One code path serves every `N`: one mutation journal, one insert
//! commit point (the `shards.json` assignment length), one recovery.
//!
//! ```no_run
//! use tale::{TaleDatabase, TaleParams, QueryOptions};
//! use tale_graph::{GraphDb, Graph};
//!
//! let mut db = GraphDb::new();
//! let a = db.intern_node_label("A");
//! let b = db.intern_node_label("B");
//! let mut g = Graph::new_undirected();
//! let n0 = g.add_node(a);
//! let n1 = g.add_node(b);
//! g.add_edge(n0, n1).unwrap();
//! db.insert("toy", g.clone());
//!
//! let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
//! let results = tale.query(&g, &QueryOptions::default()).unwrap();
//! assert_eq!(results[0].matched_nodes, 2);
//! ```

mod database;
pub mod engine;
pub mod journal;
mod params;
mod result;
mod scratch;
pub mod shard;

pub use database::{Recovery, TaleDatabase};
pub use engine::cache::{options_fingerprint, CacheStats, DEFAULT_CACHE_ENTRIES, PLAN_VERSION};
pub use engine::plan::{canonical_signature, PlanNode, PlanReport, ProbeReport, ShardPlan};
pub use engine::stats::{BatchStats, PoolDelta, QueryStats, ShardStats, StageTimes};
pub use params::{PlanMode, QueryOptions, TaleParams};
pub use result::QueryMatch;
pub use scratch::ScratchDir;
pub use tale_graph::centrality::ImportanceMeasure;
pub use tale_matching::similarity::{CTreeStyle, MatchedNodesEdges, QualitySum, SimilarityModel};

/// Errors surfaced by the TALE API.
#[derive(Debug)]
pub enum TaleError {
    /// Index-layer failure.
    Index(tale_nhindex::NhError),
    /// Graph-layer failure.
    Graph(tale_graph::GraphError),
    /// Index-layer failure attributed to one shard, so a partial-shard
    /// failure (one corrupt `shard-NNN/` among healthy siblings) is
    /// diagnosable.
    Shard {
        /// The shard whose index failed.
        shard: u32,
        /// The underlying index error.
        source: tale_nhindex::NhError,
    },
    /// The `shards.json` manifest is missing, malformed, or inconsistent
    /// with the database — or the directory holds a layout this build
    /// refuses to serve.
    Manifest(String),
    /// Filesystem failure.
    Io(std::io::Error),
}

impl std::fmt::Display for TaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaleError::Index(e) => write!(f, "index: {e}"),
            TaleError::Graph(e) => write!(f, "graph: {e}"),
            TaleError::Shard { shard, source } => write!(f, "shard {shard}: {source}"),
            TaleError::Manifest(m) => write!(f, "manifest: {m}"),
            TaleError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for TaleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TaleError::Index(e) => Some(e),
            TaleError::Graph(e) => Some(e),
            TaleError::Shard { source, .. } => Some(source),
            TaleError::Manifest(_) => None,
            TaleError::Io(e) => Some(e),
        }
    }
}

impl From<tale_nhindex::NhError> for TaleError {
    fn from(e: tale_nhindex::NhError) -> Self {
        TaleError::Index(e)
    }
}

impl From<tale_graph::GraphError> for TaleError {
    fn from(e: tale_graph::GraphError) -> Self {
        TaleError::Graph(e)
    }
}

impl From<std::io::Error> for TaleError {
    fn from(e: std::io::Error) -> Self {
        TaleError::Io(e)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, TaleError>;
