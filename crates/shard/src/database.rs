//! [`ShardedTaleDatabase`]: the sharded counterpart of
//! [`tale::TaleDatabase`].
//!
//! Owns the [`GraphDb`], a [`ShardedNhIndex`] whose every shard is a
//! generational index, and two [`ResultCache`]s *per shard* (one for its
//! base generation, one for its delta). Queries pin one snapshot per
//! shard and scatter/gather over each shard's base and delta readers
//! through the same staged engine as the unsharded database
//! (`tale::engine::exec`), so results are bit-identical to a single-index
//! [`tale::TaleDatabase`] over the same graphs at any shard count and
//! thread count. Cache invalidation is the MVCC one: an insert rolls only
//! the owning shard's delta epoch, a removal filters at read time, and a
//! fold rolls the folded shards' epochs — no cache is ever cleared.
//!
//! Mutations go through `&self`; queries running concurrently keep the
//! snapshots they pinned.

use crate::index::{ShardBuildStats, ShardedNhIndex};
use crate::policy::{HashPolicy, ShardPolicy};
use crate::{Result, ShardError};
use std::path::Path;
use std::sync::Arc;
use std::sync::{Mutex, RwLock};
use tale::engine::cache::{CacheStats, ResultCache, DEFAULT_CACHE_ENTRIES};
use tale::engine::exec;
use tale::engine::stats::{BatchStats, QueryStats};
use tale::journal::{MutationJournal, PendingMutation};
use tale::{QueryMatch, QueryOptions, ScratchDir, TaleParams};
use tale_graph::{Graph, GraphDb, GraphId};
use tale_nhindex::{FoldReport, IndexReader, MvccRecovery, NhIndexConfig, SharedIo, Snapshot};

const DB_FILE: &str = "graphs.json";

/// What [`ShardedTaleDatabase::open_with_recovery`] found and repaired.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct ShardedRecovery {
    /// A `pending.json` marker was present (an insert was in flight at
    /// crash time).
    pub journal_present: bool,
    /// `graphs.json` was restored from its pre-insert backup: the
    /// `shards.json` assignment never grew, so the insert never
    /// committed.
    pub db_rolled_back: bool,
    /// Shards a fold cut short had not flipped yet; open folded them so
    /// every shard names the same generation again.
    pub folds_completed: Vec<u32>,
    /// Each loaded shard's open (generation opened, orphaned generation
    /// directories swept), in shard order.
    pub shards: Vec<MvccRecovery>,
}

fn config_of(params: &TaleParams) -> NhIndexConfig {
    NhIndexConfig {
        sbit: params.sbit,
        buffer_frames: params.buffer_frames,
        parallel_build: params.parallel_build,
        bloom_hashes: params.bloom_hashes,
        use_edge_labels: params.use_edge_labels,
        io_workers: params.io_workers,
        prefetch_pages: params.prefetch_pages,
    }
}

/// An indexed graph database partitioned across generational NH-Index
/// shards, ready for approximate subgraph queries.
pub struct ShardedTaleDatabase {
    /// The graph store. Writers publish a fresh `Arc` *before* touching
    /// the shards; readers pin the shard snapshots *first* — so a pinned
    /// snapshot's graphs always exist in the db the reader sees.
    db: RwLock<Arc<GraphDb>>,
    index: ShardedNhIndex,
    /// Serializes mutations; never touched by queries.
    writer: Mutex<()>,
    /// Held for writing while a scheme-changing fold flips its shards, and
    /// for reading while a query pins its snapshots, so no query mixes
    /// two schemes across shards.
    scheme_gate: RwLock<()>,
    /// Per loaded shard: the base cache, then the delta cache.
    caches: Vec<ResultCache>,
    // Keeps the scratch directory alive for in-temp builds.
    _scratch: Option<ScratchDir>,
}

impl ShardedTaleDatabase {
    fn assemble(db: GraphDb, index: ShardedNhIndex, scratch: Option<ScratchDir>) -> Self {
        ShardedTaleDatabase {
            caches: (0..2 * index.shards().len())
                .map(|_| ResultCache::new(DEFAULT_CACHE_ENTRIES))
                .collect(),
            db: RwLock::new(Arc::new(db)),
            index,
            writer: Mutex::new(()),
            scheme_gate: RwLock::new(()),
            _scratch: scratch,
        }
    }

    /// Builds a sharded NH-Index for `db` into `dir` and persists the
    /// graphs alongside it, so [`ShardedTaleDatabase::open`] can restore
    /// everything.
    pub fn build(
        db: GraphDb,
        dir: &Path,
        params: &TaleParams,
        nshards: usize,
        policy: &dyn ShardPolicy,
    ) -> Result<Self> {
        Ok(Self::build_with_stats(db, dir, params, nshards, policy)?.0)
    }

    /// Like [`ShardedTaleDatabase::build`], also reporting per-shard
    /// build timings ([`ShardBuildStats`]).
    pub fn build_with_stats(
        db: GraphDb,
        dir: &Path,
        params: &TaleParams,
        nshards: usize,
        policy: &dyn ShardPolicy,
    ) -> Result<(Self, ShardBuildStats)> {
        std::fs::create_dir_all(dir)?;
        let (index, stats) =
            ShardedNhIndex::build_with_stats(dir, &db, &config_of(params), nshards, policy, 0)?;
        tale_graph::io::save_json(&db, &dir.join(DB_FILE))?;
        Ok((Self::assemble(db, index, None), stats))
    }

    /// Builds into a self-cleaning scratch directory with the default
    /// hash placement — convenient for experiments and tests.
    pub fn build_in_temp(db: GraphDb, params: &TaleParams, nshards: usize) -> Result<Self> {
        let scratch = ScratchDir::new("tale-shards")?;
        let (index, _) = ShardedNhIndex::build_with_stats(
            scratch.path(),
            &db,
            &config_of(params),
            nshards,
            &HashPolicy,
            0,
        )?;
        Ok(Self::assemble(db, index, Some(scratch)))
    }

    /// Reopens a database previously built with
    /// [`ShardedTaleDatabase::build`]. `buffer_frames` is the page budget
    /// per shard. Fails if any shard's recorded vocabulary fingerprint
    /// disagrees with the reloaded graphs.
    pub fn open(dir: &Path, buffer_frames: usize) -> Result<Self> {
        Ok(Self::open_with_recovery(dir, buffer_frames)?.0)
    }

    /// Like [`ShardedTaleDatabase::open`], also repairing any mutation
    /// that a crash cut short and reporting what was done. One rule
    /// decides an interrupted insert, from the files on disk: it committed
    /// iff the `shards.json` assignment grew past the length the journal
    /// recorded; otherwise `graphs.json` is restored from the journal's
    /// backup. A removal commits by one shard's manifest write; a fold
    /// cut short between two shards' generation flips is completed (see
    /// [`ShardedNhIndex::open_with_recovery`]).
    pub fn open_with_recovery(dir: &Path, buffer_frames: usize) -> Result<(Self, ShardedRecovery)> {
        Self::open_impl(dir, |db| {
            ShardedNhIndex::open_with_recovery(dir, buffer_frames, db)
        })
    }

    /// Opens only shard `shard` of the database rooted at `dir` — the
    /// view a served worker holds (see [`ShardedNhIndex::open_shard`]),
    /// with the same recovery as [`ShardedTaleDatabase::open_with_recovery`].
    /// Queries run against this shard alone; inserts are accepted only
    /// when the routing policy places them here.
    pub fn open_shard(
        dir: &Path,
        shard: u32,
        buffer_frames: usize,
        io: Option<SharedIo>,
    ) -> Result<(Self, ShardedRecovery)> {
        Self::open_impl(dir, |db| {
            ShardedNhIndex::open_shard(dir, db, shard, buffer_frames, io)
        })
    }

    fn open_impl<F>(dir: &Path, open_index: F) -> Result<(Self, ShardedRecovery)>
    where
        F: FnOnce(&GraphDb) -> Result<(ShardedNhIndex, Vec<MvccRecovery>)>,
    {
        let committed = crate::ShardManifest::load(dir)?.assignment.len() as u64;
        let (journal_present, db_rolled_back) = MutationJournal::new(dir).recover(committed)?;
        let db = tale_graph::io::load_json(&dir.join(DB_FILE))?;
        let (index, shards) = open_index(&db)?;
        let folds_completed = index
            .numbered()
            .zip(&shards)
            .filter(|((_, sh), r)| sh.current_generation() != r.generation)
            .map(|((s, _), _)| s)
            .collect();
        let rec = ShardedRecovery {
            journal_present,
            db_rolled_back,
            folds_completed,
            shards,
        };
        Ok((Self::assemble(db, index, None), rec))
    }

    /// Adds a graph, routes it to a shard with the build policy, and
    /// extends that shard's in-memory delta. Returns the new graph's id.
    /// No cache is cleared: only the owning shard's delta epoch rolls.
    ///
    /// For a persistent database the insert is journaled: route, stage
    /// the journal with the current assignment length, save the new
    /// `graphs.json`, rewrite `shards.json` (the commit point), clear the
    /// journal. A crash at any point recovers to a state bit-identical to
    /// before or after the insert ([`ShardedTaleDatabase::open_with_recovery`]).
    /// An insert that fails before its commit point leaves the handle
    /// serving the pre-insert state; the next insert (or open) settles the
    /// journal it left behind by the same rule.
    pub fn insert_graph(&self, name: impl Into<String>, g: Graph) -> Result<GraphId> {
        self.insert_with(name, |_| Ok::<_, ShardError>(g))
    }

    /// [`ShardedTaleDatabase::insert_graph`] for a graph built against the
    /// database under the writer lock: `build` may intern labels into
    /// (a copy of) the vocabulary before returning the graph to insert.
    pub fn insert_with<E, F>(
        &self,
        name: impl Into<String>,
        build: F,
    ) -> std::result::Result<GraphId, E>
    where
        E: From<ShardError>,
        F: FnOnce(&mut GraphDb) -> std::result::Result<Graph, E>,
    {
        let _w = crate::lock(&self.writer);
        let mut next = (**crate::read(&self.db)).clone();
        let g = build(&mut next)?;
        let gid = next.insert(name, g);
        let next = Arc::new(next);
        let s = self.index.route(&next, gid)?;
        let journal = self
            ._scratch
            .is_none()
            .then(|| MutationJournal::new(self.index.dir()));
        if let Some(journal) = &journal {
            let committed = self.index.graph_count() as u64;
            let db_file = self.index.dir().join(DB_FILE);
            journal.recover(committed).map_err(ShardError::from)?;
            journal
                .stage(
                    &db_file,
                    PendingMutation {
                        pre_generation: committed,
                    },
                )
                .map_err(ShardError::from)?;
            tale_graph::io::save_json(&next, &db_file).map_err(ShardError::from)?;
        }
        self.index.commit_insert(&next, gid, s)?;
        *crate::write(&self.db) = Arc::clone(&next);
        self.index.extend_delta(&next, gid, s)?;
        if let Some(journal) = &journal {
            journal.clear().map_err(ShardError::from)?;
        }
        Ok(gid)
    }

    /// Logically removes a graph (a tombstone in its owning shard). No
    /// cache entry is evicted: the engine filters cached partials through
    /// the shard's tombstone set at read time.
    pub fn remove_graph(&self, id: GraphId) -> Result<()> {
        let _w = crate::lock(&self.writer);
        crate::read(&self.db).try_graph(id)?;
        self.index.remove_graph(id)?;
        Ok(())
    }

    /// Folds every loaded shard's delta and tombstones into a new
    /// immutable generation, all against one `GraphDb` so every shard
    /// keeps one neighbor-array scheme. Queries keep flowing from their
    /// pinned snapshots; only a fold that changes the scheme holds new
    /// queries back while it runs, so none of them pins two schemes.
    pub fn fold(&self) -> Result<Vec<FoldReport>> {
        let _w = crate::lock(&self.writer);
        let db = crate::read(&self.db).clone();
        let _gate = self
            .index
            .fold_changes_scheme(&db)
            .then(|| crate::write(&self.scheme_gate));
        self.index.fold(&db)
    }

    /// Interns a node label name into the database vocabulary (for
    /// authoring graphs to pass to
    /// [`ShardedTaleDatabase::insert_graph`]). Interning is append-only —
    /// it never renumbers existing labels — so cached results stay exact
    /// and nothing is cleared; a query using the new label is a new
    /// [`QueryRepr`](tale::engine::cache::QueryRepr) and misses naturally.
    pub fn intern_node_label(&self, name: &str) -> tale_graph::NodeLabel {
        let _w = crate::lock(&self.writer);
        let mut next = (**crate::read(&self.db)).clone();
        let label = next.intern_node_label(name);
        *crate::write(&self.db) = Arc::new(next);
        label
    }

    /// The underlying graph database (a cheap `Arc` clone of the current
    /// published state).
    pub fn db(&self) -> Arc<GraphDb> {
        crate::read(&self.db).clone()
    }

    /// The sharded NH-Index (for introspection: shard map, sizes, probe
    /// counters, generations).
    pub fn index(&self) -> &ShardedNhIndex {
        &self.index
    }

    /// On-disk index footprint in bytes, summed over shards.
    pub fn index_size_bytes(&self) -> u64 {
        self.index.size_bytes()
    }

    /// Runs `f` over one pinned snapshot per loaded shard — its readers
    /// in shard order, base then delta — and the graph store. Snapshots
    /// are pinned before the store is read (see the `db` field for why).
    pub fn with_readers<T>(&self, f: impl FnOnce(&GraphDb, &[&dyn IndexReader]) -> T) -> T {
        let snaps: Vec<Snapshot> = {
            let _gate = crate::read(&self.scheme_gate);
            self.index.shards().iter().map(|s| s.snapshot()).collect()
        };
        let db = crate::read(&self.db).clone();
        let bases: Vec<_> = snaps.iter().map(Snapshot::base_reader).collect();
        let deltas: Vec<_> = snaps.iter().map(Snapshot::delta_reader).collect();
        let readers: Vec<&dyn IndexReader> = bases
            .iter()
            .zip(&deltas)
            .flat_map(|(b, d)| [b as &dyn IndexReader, d as &dyn IndexReader])
            .collect();
        f(&db, &readers)
    }

    fn run(
        &self,
        queries: &[&Graph],
        opts: &QueryOptions,
    ) -> Result<(Vec<Vec<QueryMatch>>, BatchStats)> {
        let caches: Vec<&ResultCache> = self.caches.iter().collect();
        Ok(self.with_readers(|db, readers| {
            exec::run_batch(
                db,
                readers,
                opts.use_cache.then_some(&caches[..]),
                queries,
                opts,
            )
        })?)
    }

    /// Describes — without executing — the plan the engine would choose
    /// for `query` under `opts`: probe order with row estimates, the
    /// readahead budget, and per-reader feasibility and score bounds
    /// (each shard contributes its base and its delta reader). Render
    /// with [`tale::PlanReport::render`] or serialize to JSON.
    pub fn explain(&self, query: &Graph, opts: &QueryOptions) -> tale::PlanReport {
        self.with_readers(|db, readers| tale::engine::plan::plan_report(db, readers, query, opts))
    }

    /// Runs an approximate subgraph query, scattered over the shards.
    /// Results are bit-identical to [`tale::TaleDatabase::query`] on the
    /// same graphs.
    pub fn query(&self, query: &Graph, opts: &QueryOptions) -> Result<Vec<QueryMatch>> {
        Ok(self.query_with_stats(query, opts)?.0)
    }

    /// Like [`ShardedTaleDatabase::query`], also returning per-stage
    /// execution statistics.
    pub fn query_with_stats(
        &self,
        query: &Graph,
        opts: &QueryOptions,
    ) -> Result<(Vec<QueryMatch>, QueryStats)> {
        let (mut outputs, mut batch) = self.run(&[query], opts)?;
        Ok((outputs.remove(0), batch.per_query.remove(0)))
    }

    /// Runs a batch of queries, scattered over the shards. Output is
    /// aligned with `queries` and bit-identical to the unsharded batch.
    pub fn query_batch(
        &self,
        queries: &[&Graph],
        opts: &QueryOptions,
    ) -> Result<Vec<Vec<QueryMatch>>> {
        Ok(self.query_batch_with_stats(queries, opts)?.0)
    }

    /// Like [`ShardedTaleDatabase::query_batch`], also returning
    /// batch-level statistics — including one [`tale::ShardStats`] per
    /// *reader* in [`BatchStats::shards`] (entry `2s` is shard `s`'s base
    /// generation, `2s + 1` its delta) and the skew ratio via
    /// [`BatchStats::shard_skew`].
    pub fn query_batch_with_stats(
        &self,
        queries: &[&Graph],
        opts: &QueryOptions,
    ) -> Result<(Vec<Vec<QueryMatch>>, BatchStats)> {
        self.run(queries, opts)
    }

    /// Result-cache counters summed over all shards.
    pub fn result_cache_stats(&self) -> CacheStats {
        self.caches
            .iter()
            .map(ResultCache::stats)
            .fold(CacheStats::default(), merge_cache_stats)
    }

    /// Result-cache counters per loaded shard (base and delta caches
    /// summed), in shard order.
    pub fn shard_cache_stats(&self) -> Vec<CacheStats> {
        self.caches
            .chunks(2)
            .map(|pair| {
                pair.iter()
                    .map(ResultCache::stats)
                    .fold(CacheStats::default(), merge_cache_stats)
            })
            .collect()
    }

    /// Drops every cached result on every shard.
    pub fn clear_result_cache(&self) {
        for c in &self.caches {
            c.clear();
        }
    }
}

fn merge_cache_stats(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        entries: a.entries + b.entries,
        capacity: a.capacity + b.capacity,
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        insertions: a.insertions + b.insertions,
        invalidations: a.invalidations + b.invalidations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tale::TaleDatabase;

    fn small_db() -> (GraphDb, Vec<Graph>) {
        let mut db = GraphDb::new();
        let labels: Vec<_> = (0..4)
            .map(|i| db.intern_node_label(&format!("L{i}")))
            .collect();
        let mut graphs = Vec::new();
        for k in 0..6usize {
            let mut g = Graph::new_undirected();
            let n: Vec<_> = (0..4 + k % 3)
                .map(|j| g.add_node(labels[(j + k) % 4]))
                .collect();
            for w in n.windows(2) {
                g.add_edge(w[0], w[1]).unwrap();
            }
            g.add_edge(n[0], n[n.len() - 1]).unwrap();
            db.insert(format!("g{k}"), g.clone());
            graphs.push(g);
        }
        (db, graphs)
    }

    #[test]
    fn sharded_matches_unsharded() {
        let (db, graphs) = small_db();
        let params = TaleParams::default();
        let single = TaleDatabase::build_in_temp(db.clone(), &params).unwrap();
        let opts = QueryOptions {
            p_imp: 0.5,
            ..Default::default()
        };
        let want: Vec<_> = graphs
            .iter()
            .map(|g| single.query(g, &opts).unwrap())
            .collect();
        for nshards in [1, 2, 3] {
            let sharded = ShardedTaleDatabase::build_in_temp(db.clone(), &params, nshards).unwrap();
            for (g, expect) in graphs.iter().zip(&want) {
                let got = sharded.query(g, &opts).unwrap();
                assert_eq!(got.len(), expect.len(), "nshards={nshards}");
                for (a, b) in got.iter().zip(expect) {
                    assert_eq!(a.graph, b.graph, "nshards={nshards}");
                    assert_eq!(a.score.to_bits(), b.score.to_bits(), "nshards={nshards}");
                    assert_eq!(a.m.pairs, b.m.pairs, "nshards={nshards}");
                }
            }
        }
    }

    #[test]
    fn insert_retires_only_owning_shard_delta_cache_keys() {
        let (db, graphs) = small_db();
        let sharded = ShardedTaleDatabase::build_in_temp(db, &TaleParams::default(), 3).unwrap();
        let opts = QueryOptions {
            p_imp: 0.5,
            ..Default::default()
        };
        // populate every shard's cache
        for g in &graphs {
            sharded.query(g, &opts).unwrap();
        }
        let before: Vec<usize> = sharded
            .shard_cache_stats()
            .iter()
            .map(|s| s.entries)
            .collect();
        assert!(before.iter().all(|&e| e > 0), "{before:?}");
        // 1-WL canonicals can collide between these small rings, letting a
        // later populate query overwrite graphs[0]'s slot (same key,
        // different exact repr). Re-query the probe target so its repr is
        // the resident one before measuring.
        sharded.query(&graphs[0], &opts).unwrap();
        let gid = sharded.insert_graph("late", graphs[0].clone()).unwrap();
        let owner = sharded.index().shard_of(gid).unwrap() as usize;
        // nothing is cleared — only the owning shard's delta epoch rolled
        let after: Vec<usize> = sharded
            .shard_cache_stats()
            .iter()
            .map(|s| s.entries)
            .collect();
        assert_eq!(before, after, "insert must not clear any cache");
        // a repeat query re-probes *only* the owning shard's delta; every
        // base, and every other shard, answers from still-reachable
        // cached partials
        let snaps: Vec<_> = sharded
            .index()
            .shards()
            .iter()
            .map(|s| s.snapshot())
            .collect();
        let counters: Vec<_> = snaps
            .iter()
            .map(|s| (s.base().counters(), s.delta().counters()))
            .collect();
        let res = sharded.query(&graphs[0], &opts).unwrap();
        for (s, snap) in snaps.iter().enumerate() {
            let base = snap.base().counters().since(counters[s].0);
            let delta = snap.delta().counters().since(counters[s].1);
            assert_eq!(base.probes, 0, "shard {s}'s base must hit its cache");
            if s == owner {
                assert!(delta.probes > 0, "owning shard's delta must re-run");
            } else {
                assert_eq!(delta.probes, 0, "non-owning shard {s} must hit its cache");
            }
        }
        // and the inserted graph is immediately queryable
        assert!(res.iter().any(|m| m.graph == gid));
    }

    #[test]
    fn fold_keeps_answers_and_moves_every_shard_on() {
        let (db, graphs) = small_db();
        let dir = tempfile::tempdir().unwrap();
        let sharded =
            ShardedTaleDatabase::build(db, dir.path(), &TaleParams::default(), 3, &HashPolicy)
                .unwrap();
        let opts = QueryOptions {
            p_imp: 0.5,
            ..Default::default()
        };
        sharded.insert_graph("late", graphs[1].clone()).unwrap();
        sharded.remove_graph(GraphId(2)).unwrap();
        let want: Vec<_> = graphs
            .iter()
            .map(|g| sharded.query(g, &opts).unwrap())
            .collect();
        let pinned = sharded.index().shards()[0].snapshot();
        let reports = sharded.fold().unwrap();
        assert_eq!(reports.len(), 3);
        assert!(reports.iter().all(|r| r.new_generation == 1));
        assert_eq!(reports.iter().map(|r| r.folded_inserts).sum::<u32>(), 1);
        assert_eq!(
            pinned.base_generation(),
            0,
            "a pinned snapshot keeps its generation"
        );
        drop(pinned);
        for (g, w) in graphs.iter().zip(&want) {
            let got = sharded.query(g, &opts).unwrap();
            let key = |ms: &[QueryMatch]| -> Vec<_> {
                ms.iter().map(|m| (m.graph, m.score.to_bits())).collect()
            };
            assert_eq!(key(&got), key(w));
        }
        drop(sharded);
        let reopened = ShardedTaleDatabase::open(dir.path(), 256).unwrap();
        for sh in reopened.index().shards() {
            assert_eq!(sh.current_generation(), 1);
            assert_eq!(sh.snapshot().delta_graphs(), 0);
        }
        assert!(reopened.index().is_removed(GraphId(2)));
    }

    #[test]
    fn persist_reopen_and_fingerprint_guard() {
        let (db, graphs) = small_db();
        let dir = tempfile::tempdir().unwrap();
        let params = TaleParams::default();
        let opts = QueryOptions {
            p_imp: 0.5,
            ..Default::default()
        };
        let want = {
            let sharded =
                ShardedTaleDatabase::build(db, dir.path(), &params, 2, &HashPolicy).unwrap();
            sharded.query(&graphs[0], &opts).unwrap()
        };
        let sharded = ShardedTaleDatabase::open(dir.path(), 256).unwrap();
        let got = sharded.query(&graphs[0], &opts).unwrap();
        assert_eq!(got.len(), want.len());
        assert_eq!(got[0].graph, want[0].graph);
        drop(sharded);
        // swap graphs.json for one whose vocabulary drifted (an extra
        // interned label): open must refuse rather than serve wrong
        // bitmaps
        let mut drifted = tale_graph::io::load_json(&dir.path().join(DB_FILE)).unwrap();
        drifted.intern_node_label("ZZZ-drift");
        tale_graph::io::save_json(&drifted, &dir.path().join(DB_FILE)).unwrap();
        assert!(ShardedTaleDatabase::open(dir.path(), 256).is_err());
    }
}
