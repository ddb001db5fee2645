//! [`ShardEngine`]: one shard's slice of a TALE database, wrapped for
//! serving.
//!
//! A worker process owns exactly one shard of a database built by
//! `TaleDatabase::build_sharded` (or `tale-cli build`): the shared
//! `graphs.json` + `shards.json` at the root, and its own `shard-NNN/`
//! generational index. The engine is a [`TaleDatabase`] opened on that
//! one shard ([`TaleDatabase::open_shard`]), so queries, mutations, folds
//! and crash recovery all run the in-process code path. Queries run the
//! *complete* engine pipeline over the shard's base and delta readers —
//! the one-shard case of the scatter/gather the in-process database
//! uses — so each worker's partials are ranked exactly as a
//! local run would rank that shard's contribution. The frontend's re-rank
//! of concatenated partials is then bit-identical to local execution
//! (see `exec::rank_matches`).
//!
//! Mutations follow the in-process protocol: an insert commits by its
//! `shards.json` assignment, a removal by the shard's `mvcc.json`
//! tombstone, a fold by the shard's generation flip. Readers keep the
//! snapshot they pinned throughout, and the MVCC cache epochs retire
//! stale result-cache entries — nothing blocks queries or clears the
//! cache.

use crate::wire::{
    ExplainRequest, FoldRequest, InsertRequest, QueryBatchRequest, RemoveRequest, WireExecStats,
    WireMatch, WireMatches,
};
use crate::{Result, ServerError};
use std::path::Path;
use tale::shard::vocab_fingerprint;
use tale::{BatchStats, TaleDatabase};
use tale_graph::{Graph, GraphId};
use tale_nhindex::SharedIo;

/// Page-cache / I/O sizing for a worker's index.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Buffer-pool frames for this shard's page files.
    pub buffer_frames: usize,
    /// Async read-path worker threads (0 = no prefetching).
    pub io_workers: usize,
    /// Prefetch staging capacity in pages.
    pub prefetch_pages: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            buffer_frames: 4096,
            io_workers: tale_nhindex::DEFAULT_IO_WORKERS,
            prefetch_pages: tale_nhindex::DEFAULT_PREFETCH_PAGES,
        }
    }
}

/// One shard of a sharded database, served: queries run concurrently
/// against pinned snapshots while mutations serialize inside the
/// database.
pub struct ShardEngine {
    shard: u32,
    db: TaleDatabase,
}

impl ShardEngine {
    /// Opens shard `shard` of the database rooted at `root` (the
    /// directory holding `graphs.json` and `shards.json`), running the
    /// database's crash recovery first.
    pub fn open(root: &Path, shard: u32, cfg: EngineConfig) -> Result<ShardEngine> {
        let io = SharedIo::new(cfg.io_workers, cfg.prefetch_pages);
        let (db, _recovery) = TaleDatabase::open_shard(root, shard, cfg.buffer_frames, io)?;
        Ok(ShardEngine { shard, db })
    }

    /// The shard this engine serves.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Shards in the layout this engine belongs to.
    pub fn shard_count(&self) -> u32 {
        self.db.index().shard_count() as u32
    }

    /// Graphs in the shared database (all shards).
    pub fn graphs(&self) -> u64 {
        self.db.db().len() as u64
    }

    /// FNV-64 fingerprint of the database's label vocabulary.
    pub fn vocab_fingerprint(&self) -> u64 {
        vocab_fingerprint(&self.db.db())
    }

    /// The served database (this shard's view of it).
    pub fn database(&self) -> &TaleDatabase {
        &self.db
    }

    /// Runs a wire batch through the full engine pipeline on this one
    /// shard and returns ranked, top-K-truncated partials.
    pub fn query_batch(
        &self,
        req: &QueryBatchRequest,
    ) -> Result<(Vec<WireMatches>, WireExecStats)> {
        let opts = req.options.to_options()?;
        let db = self.db.db();
        let queries: Vec<Graph> = req
            .queries
            .iter()
            .map(|w| w.to_query_graph(&db))
            .collect::<Result<_>>()?;
        let query_refs: Vec<&Graph> = queries.iter().collect();
        let (outputs, batch) = self.db.query_batch_with_stats(&query_refs, &opts)?;
        let stats = exec_stats_of(&batch);
        let results = outputs
            .into_iter()
            .map(|ms| WireMatches {
                matches: ms.iter().map(WireMatch::from_match).collect(),
            })
            .collect();
        Ok((results, stats))
    }

    /// Renders the plan this shard's engine would choose.
    pub fn explain(&self, req: &ExplainRequest) -> Result<String> {
        let opts = req.options.to_options()?;
        let query = req.query.to_query_graph(&self.db.db())?;
        Ok(self.db.explain(&query, &opts).render())
    }

    /// Inserts a graph through [`TaleDatabase::insert_with`]:
    /// labels are interned, the routing policy must place the graph on
    /// this shard, and the insert commits by its `shards.json`
    /// assignment. Returns the new id.
    ///
    /// Only meaningful while this worker is the sole writer of the
    /// database root (the frontend enforces this by refusing to forward
    /// mutations in multi-shard deployments).
    pub fn insert(&self, req: &InsertRequest) -> Result<GraphId> {
        self.db
            .insert_with(req.name.clone(), |db| req.graph.to_inserted_graph(db))
    }

    /// Tombstones a graph this shard owns. Returns the owning shard in
    /// `Err` position semantics: `Ok(None)` = removed here, `Ok(Some(s))`
    /// = refused, shard `s` owns it (the caller reports the owner).
    pub fn remove(&self, req: &RemoveRequest) -> Result<Option<u32>> {
        let gid = GraphId(req.graph);
        match self.db.index().shard_of(gid) {
            None => Err(ServerError::BadRequest(format!(
                "graph {} is not in the shard map",
                req.graph
            ))),
            Some(s) if s != self.shard => Ok(Some(s)),
            Some(_) => {
                self.db.remove_graph(gid)?;
                Ok(None)
            }
        }
    }

    /// Folds this shard's delta and tombstones into a new generation
    /// ([`TaleDatabase::fold`]); queries keep running from their
    /// pinned snapshots. The tombstone markers persist (the dead graphs
    /// still hold ids in the shared database) while their postings are
    /// reclaimed. Returns `(live_graphs, tombstones_whose_postings_were_dropped)`.
    pub fn fold(&self, _req: &FoldRequest) -> Result<(u64, u64)> {
        let reports = self.db.fold()?;
        let index = self.db.index();
        let owned = index.manifest().graphs_of(self.shard);
        let live = owned.iter().filter(|&&g| !index.is_removed(g)).count() as u64;
        let dropped = reports.iter().map(|r| r.folded_removes as u64).sum();
        Ok((live, dropped))
    }
}

/// Flattens the engine's batch statistics into the wire form.
fn exec_stats_of(batch: &BatchStats) -> WireExecStats {
    let mut s = WireExecStats {
        probes: batch.probes_issued,
        shards_pruned: batch.shards_pruned,
        wall_secs: batch.stages.total_secs,
        ..WireExecStats::default()
    };
    for q in &batch.per_query {
        s.keys_scanned += q.keys_scanned;
        s.postings_fetched += q.postings_fetched;
        s.postings_filtered += q.postings_filtered;
        s.rows_examined += q.rows_examined;
        s.candidates += q.candidates;
        s.matches += q.matches as u64;
        s.cache_hits += q.cache_hit as u64;
    }
    s
}
