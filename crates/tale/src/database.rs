//! [`TaleDatabase`]: the indexed graph database — MVCC reads over
//! immutable index generations, partitioned across `N ≥ 1` shards and
//! served by the staged query engine in [`crate::engine`].
//!
//! Owns the [`GraphDb`], a [`ShardedNhIndex`] whose every shard is a
//! generational index, and two [`ResultCache`]s *per shard* (one for its
//! base generation, one for its delta). The paper's single NH-Index is the
//! one-shard database ([`TaleDatabase::build`]); more shards
//! ([`TaleDatabase::build_sharded`]) spread the same design over several
//! parts. Queries pin one snapshot per shard and scatter/gather over each
//! shard's base and delta readers ([`crate::engine::exec`]), so answers
//! are bit-identical at any shard count and thread count.
//!
//! Readers never block on writers: every query pins immutable snapshots
//! and runs to completion against them, bit-identical to the database as
//! it stood at pin time. Writers mutate through `&self`; cache
//! invalidation is the MVCC one — an insert rolls only the owning shard's
//! delta epoch, a removal filters at read time, and a fold rolls the
//! folded shards' epochs. No cache is ever cleared.

use crate::engine::cache::{CacheStats, ResultCache, DEFAULT_CACHE_ENTRIES};
use crate::engine::exec;
use crate::engine::stats::{BatchStats, QueryStats};
use crate::journal::{MutationJournal, PendingMutation};
use crate::params::{QueryOptions, TaleParams};
use crate::result::QueryMatch;
use crate::scratch::ScratchDir;
use crate::shard::{HashPolicy, ShardBuildStats, ShardPolicy, ShardedNhIndex};
use crate::{Result, TaleError};
use parking_lot::{Mutex, RwLock};
use std::path::Path;
use std::sync::Arc;
use tale_graph::{Graph, GraphDb, GraphId};
use tale_nhindex::{FoldReport, IndexReader, MvccRecovery, NhIndexConfig, SharedIo, Snapshot};

pub(crate) const DB_FILE: &str = "graphs.json";

/// What [`TaleDatabase::open_with_recovery`] found and repaired.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct Recovery {
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

/// An indexed graph database ready for approximate subgraph queries.
///
/// All mutation methods take `&self`: queries running concurrently with
/// [`TaleDatabase::insert_graph`], [`TaleDatabase::remove_graph`] or
/// [`TaleDatabase::fold`] keep the snapshots they pinned and are never
/// blocked or perturbed by the writer.
pub struct TaleDatabase {
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

impl TaleDatabase {
    fn assemble(db: GraphDb, index: ShardedNhIndex, scratch: Option<ScratchDir>) -> Self {
        TaleDatabase {
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

    /// Builds the one-shard database for `db` into `dir` — generation 0
    /// of the NH-Index — and persists the graphs alongside it, so
    /// [`TaleDatabase::open`] can restore everything.
    pub fn build(db: GraphDb, dir: &Path, params: &TaleParams) -> Result<Self> {
        Self::build_sharded(db, dir, params, 1, &HashPolicy)
    }

    /// Builds a database partitioned across `nshards` shards placed by
    /// `policy` (see [`TaleDatabase::build_with_stats`]).
    pub fn build_sharded(
        db: GraphDb,
        dir: &Path,
        params: &TaleParams,
        nshards: usize,
        policy: &dyn ShardPolicy,
    ) -> Result<Self> {
        Ok(Self::build_with_stats(db, dir, params, nshards, policy)?.0)
    }

    /// Like [`TaleDatabase::build_sharded`], also reporting per-shard
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
            ShardedNhIndex::build_with_stats(dir, &db, &config_of(params), nshards, policy)?;
        tale_graph::io::save_json(&db, &dir.join(DB_FILE))?;
        Ok((Self::assemble(db, index, None), stats))
    }

    /// Builds the one-shard database into a self-cleaning scratch
    /// directory — convenient for experiments and tests. The index is
    /// still genuinely disk-based; it just lives in the OS temp dir for
    /// this process's lifetime, and mutations skip the journal.
    pub fn build_in_temp(db: GraphDb, params: &TaleParams) -> Result<Self> {
        Self::build_in_scratch(db, params, 1, &HashPolicy)
    }

    fn build_in_scratch(
        db: GraphDb,
        params: &TaleParams,
        nshards: usize,
        policy: &dyn ShardPolicy,
    ) -> Result<Self> {
        let scratch = ScratchDir::new("tale-index")?;
        let (index, _) = ShardedNhIndex::build_with_stats(
            scratch.path(),
            &db,
            &config_of(params),
            nshards,
            policy,
        )?;
        Ok(Self::assemble(db, index, Some(scratch)))
    }

    /// Reopens a database previously built into `dir`, running crash
    /// recovery (discarding the report — use
    /// [`TaleDatabase::open_with_recovery`] to inspect it).
    /// `buffer_frames` is the page budget per shard. Fails if any shard's
    /// recorded vocabulary fingerprint disagrees with the reloaded graphs.
    pub fn open(dir: &Path, buffer_frames: usize) -> Result<Self> {
        Ok(Self::open_with_recovery(dir, buffer_frames)?.0)
    }

    /// Like [`TaleDatabase::open`], also repairing any mutation that a
    /// crash cut short and reporting what was done. One rule decides an
    /// interrupted insert, from the files on disk: it committed iff the
    /// `shards.json` assignment grew past the length the journal
    /// recorded; otherwise `graphs.json` is restored from the journal's
    /// backup ([`crate::journal`]). A removal commits by one shard's
    /// manifest write; a fold cut short between two shards' generation
    /// flips is completed (see [`ShardedNhIndex::open_with_recovery`]).
    pub fn open_with_recovery(dir: &Path, buffer_frames: usize) -> Result<(Self, Recovery)> {
        Self::open_impl(dir, |db| {
            ShardedNhIndex::open_with_recovery(dir, buffer_frames, db)
        })
    }

    /// Opens only shard `shard` of the database rooted at `dir` — the
    /// view a served worker holds (see [`ShardedNhIndex::open_shard`]),
    /// with the same recovery as [`TaleDatabase::open_with_recovery`].
    /// Queries run against this shard alone; inserts are accepted only
    /// when the routing policy places them here.
    pub fn open_shard(
        dir: &Path,
        shard: u32,
        buffer_frames: usize,
        io: Option<SharedIo>,
    ) -> Result<(Self, Recovery)> {
        Self::open_impl(dir, |db| {
            ShardedNhIndex::open_shard(dir, db, shard, buffer_frames, io)
        })
    }

    fn open_impl<F>(dir: &Path, open_index: F) -> Result<(Self, Recovery)>
    where
        F: FnOnce(&GraphDb) -> Result<(ShardedNhIndex, Vec<MvccRecovery>)>,
    {
        let committed = crate::shard::ShardManifest::load(dir)?.assignment.len() as u64;
        let (journal_present, db_rolled_back) = MutationJournal::new(dir).recover(committed)?;
        let db = tale_graph::io::load_json(&dir.join(DB_FILE))?;
        let (index, shards) = open_index(&db)?;
        let folds_completed = index
            .numbered()
            .zip(&shards)
            .filter(|((_, sh), r)| sh.current_generation() != r.generation)
            .map(|((s, _), _)| s)
            .collect();
        let rec = Recovery {
            journal_present,
            db_rolled_back,
            folds_completed,
            shards,
        };
        Ok((Self::assemble(db, index, None), rec))
    }

    /// Adds a graph to the database — the growing-database scenario the
    /// paper's introduction motivates. The build policy routes it to one
    /// shard, whose in-memory delta overlay takes it (no on-disk index
    /// structure is touched); it is immediately queryable, and a later
    /// [`TaleDatabase::fold`] moves it into the next on-disk generation.
    /// The graph must use this database's label vocabulary. Returns the
    /// new graph's id. No cache is cleared: only the owning shard's delta
    /// epoch rolls.
    ///
    /// For a persistent database the insert is journaled
    /// ([`crate::journal`]): route, stage the journal with the current
    /// assignment length, save the new `graphs.json`, rewrite
    /// `shards.json` (the commit point), clear the journal. A crash at any
    /// point recovers to a state bit-identical to before or after the
    /// insert ([`TaleDatabase::open_with_recovery`]). An insert that fails
    /// before its commit point leaves the handle serving the pre-insert
    /// state; the next insert (or open) settles the journal it left behind
    /// by the same rule.
    pub fn insert_graph(&self, name: impl Into<String>, g: Graph) -> Result<GraphId> {
        self.insert_with(name, |_| Ok::<_, TaleError>(g))
    }

    /// [`TaleDatabase::insert_graph`] for a graph built against the
    /// database under the writer lock: `build` may intern labels into
    /// (a copy of) the vocabulary before returning the graph to insert.
    pub fn insert_with<E, F>(
        &self,
        name: impl Into<String>,
        build: F,
    ) -> std::result::Result<GraphId, E>
    where
        E: From<TaleError>,
        F: FnOnce(&mut GraphDb) -> std::result::Result<Graph, E>,
    {
        let _w = self.writer.lock();
        let mut next = (**self.db.read()).clone();
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
            journal.recover(committed)?;
            journal.stage(
                &db_file,
                PendingMutation {
                    pre_generation: committed,
                },
            )?;
            tale_graph::io::save_json(&next, &db_file).map_err(TaleError::from)?;
        }
        self.index.commit_insert(&next, gid, s)?;
        *self.db.write() = Arc::clone(&next);
        self.index.extend_delta(&next, gid, s)?;
        if let Some(journal) = &journal {
            journal.clear()?;
        }
        Ok(gid)
    }

    /// Logically removes a graph from query results (a tombstone in its
    /// owning shard; space is reclaimed by [`TaleDatabase::fold`]). The
    /// graph's id and data remain readable through [`TaleDatabase::db`],
    /// and queries that already pinned a snapshot keep seeing it — that
    /// is the MVCC contract. No cache entry is evicted: the engine
    /// filters cached partials through the shard's tombstone set at read
    /// time, so every entry stays warm and exactly correct.
    pub fn remove_graph(&self, id: GraphId) -> Result<()> {
        let _w = self.writer.lock();
        self.db.read().try_graph(id)?;
        self.index.remove_graph(id)?;
        Ok(())
    }

    /// Folds every loaded shard's delta and tombstones into a new
    /// immutable generation, all against one `GraphDb` so every shard
    /// keeps one neighbor-array scheme. Returns one report per shard.
    /// Queries keep flowing from their pinned snapshots (an old
    /// generation's files are deleted when its last pin drops); only a
    /// fold that changes the scheme holds new queries back while it runs,
    /// so none of them pins two schemes.
    pub fn fold(&self) -> Result<Vec<FoldReport>> {
        let _w = self.writer.lock();
        let db = self.db.read().clone();
        let _gate = self
            .index
            .fold_changes_scheme(&db)
            .then(|| self.scheme_gate.write());
        self.index.fold(&db)
    }

    /// Rebuilds the database without tombstoned graphs, reclaiming the
    /// dead posting space `remove_graph` leaves behind. Graph ids are
    /// re-assigned (compaction renumbers); vocabulary, group map, shard
    /// count and placement policy are preserved. On-disk databases are
    /// rebuilt in place; in-temp databases get a fresh scratch directory.
    ///
    /// Refused on a one-shard view ([`TaleDatabase::open_shard`]): the
    /// graphs of the shards it did not load read as removed there, so a
    /// rebuild would drop them.
    pub fn compact(self, params: &TaleParams) -> Result<TaleDatabase> {
        let nshards = self.index.shard_count();
        if self.index.shards().len() != nshards {
            return Err(TaleError::Manifest(format!(
                "compact needs every shard loaded; this handle holds {} of {nshards}",
                self.index.shards().len()
            )));
        }
        let policy = self.index.manifest().policy()?;
        let TaleDatabase {
            db,
            index,
            _scratch,
            ..
        } = self;
        let db = db.into_inner();
        let mut fresh = GraphDb::new();
        for (_, name) in db.node_vocab().iter() {
            fresh.intern_node_label(name);
        }
        for (_, name) in db.edge_vocab().iter() {
            fresh.intern_edge_label(name);
        }
        if let Some(groups) = db.group_map() {
            fresh.set_group(groups.to_vec())?;
        }
        for (id, name, g) in db.iter() {
            if !index.is_removed(id) {
                fresh.insert(name.to_owned(), g.clone());
            }
        }
        let dir = index.dir().to_owned();
        drop(index); // release page-file handles before rebuilding
        match _scratch {
            Some(_) => Self::build_in_scratch(fresh, params, nshards, policy.as_ref()),
            None => Self::build_sharded(fresh, &dir, params, nshards, policy.as_ref()),
        }
    }

    /// Interns a node label name into the database vocabulary (for
    /// authoring graphs to pass to [`TaleDatabase::insert_graph`]).
    ///
    /// Growing the vocabulary past `Sbit` after a deterministic-regime
    /// build keeps the index *correct* (bit positions wrap, which can only
    /// add filter false positives, never false negatives) but a rebuild
    /// regains the Bloom regime's precision. Interning is append-only —
    /// it never renumbers existing labels — so cached results stay exact
    /// and nothing is cleared; a query using the new label is a new
    /// [`QueryRepr`](crate::engine::cache::QueryRepr) and misses naturally.
    pub fn intern_node_label(&self, name: &str) -> tale_graph::NodeLabel {
        let _w = self.writer.lock();
        let mut next = (**self.db.read()).clone();
        let label = next.intern_node_label(name);
        *self.db.write() = Arc::new(next);
        label
    }

    /// The underlying graph database (a cheap `Arc` clone of the current
    /// published state; concurrent inserts publish fresh `Arc`s and never
    /// mutate one you hold).
    pub fn db(&self) -> Arc<GraphDb> {
        self.db.read().clone()
    }

    /// The partitioned NH-Index (for introspection: shard map, sizes,
    /// probe counters, and each shard's generations and reader pins).
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
            let _gate = self.scheme_gate.read();
            self.index.shards().iter().map(|s| s.snapshot()).collect()
        };
        let db = self.db.read().clone();
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
        self.with_readers(|db, readers| {
            exec::run_batch(
                db,
                readers,
                opts.use_cache.then_some(&caches[..]),
                queries,
                opts,
            )
        })
    }

    /// Describes — without executing — the plan the engine would choose
    /// for `query` under `opts`: probe order with row estimates, the
    /// readahead budget, and per-reader feasibility and score bounds
    /// (each shard contributes its base and its delta reader). Render
    /// with [`PlanReport::render`](crate::PlanReport::render) or
    /// serialize to JSON.
    pub fn explain(&self, query: &Graph, opts: &QueryOptions) -> crate::PlanReport {
        self.with_readers(|db, readers| crate::engine::plan::plan_report(db, readers, query, opts))
    }

    /// Runs an approximate subgraph query (the full §V pipeline, staged
    /// through [`crate::engine`] and scattered over the shards).
    ///
    /// The query graph's labels must come from this database's vocabulary
    /// (intern them via [`GraphDb::intern_node_label`] before building, or
    /// construct queries from database graphs).
    pub fn query(&self, query: &Graph, opts: &QueryOptions) -> Result<Vec<QueryMatch>> {
        Ok(self.query_with_stats(query, opts)?.0)
    }

    /// Like [`TaleDatabase::query`], also returning per-stage execution
    /// statistics (probe traffic, buffer-pool hit rate, wall clock).
    pub fn query_with_stats(
        &self,
        query: &Graph,
        opts: &QueryOptions,
    ) -> Result<(Vec<QueryMatch>, QueryStats)> {
        let (mut outputs, mut batch) = self.run(&[query], opts)?;
        Ok((outputs.remove(0), batch.per_query.remove(0)))
    }

    /// Runs a batch of queries through the staged engine. The returned
    /// vector is aligned with `queries`, and each entry is bit-identical
    /// to what a standalone [`TaleDatabase::query`] call would return —
    /// the batch only amortizes: duplicate queries run once, duplicate
    /// probe signatures hit the disk index once, and the thread pool fans
    /// over all per-graph work without syncing at query boundaries.
    pub fn query_batch(
        &self,
        queries: &[&Graph],
        opts: &QueryOptions,
    ) -> Result<Vec<Vec<QueryMatch>>> {
        Ok(self.query_batch_with_stats(queries, opts)?.0)
    }

    /// Like [`TaleDatabase::query_batch`], also returning batch-level
    /// statistics — including one [`crate::ShardStats`] per *reader* in
    /// [`BatchStats::shards`] (entry `2s` is shard `s`'s base generation,
    /// `2s + 1` its delta) and the skew ratio via
    /// [`BatchStats::shard_skew`].
    pub fn query_batch_with_stats(
        &self,
        queries: &[&Graph],
        opts: &QueryOptions,
    ) -> Result<(Vec<Vec<QueryMatch>>, BatchStats)> {
        self.run(queries, opts)
    }

    /// Result-cache counters summed over every shard's base and delta
    /// caches. Each query consults one cache per reader, so a fully
    /// cached query on one shard counts two hits.
    pub fn result_cache_stats(&self) -> CacheStats {
        merged(self.caches.iter())
    }

    /// Counters of the base-generation caches alone (whose entries are
    /// the ones that survive inserts), summed over shards.
    pub fn base_cache_stats(&self) -> CacheStats {
        merged(self.caches.iter().step_by(2))
    }

    /// Result-cache counters per loaded shard (base and delta caches
    /// summed), in shard order.
    pub fn shard_cache_stats(&self) -> Vec<CacheStats> {
        self.caches
            .chunks(2)
            .map(|pair| merged(pair.iter()))
            .collect()
    }

    /// Drops every cached result on every shard. No mutation path does
    /// this — invalidation is generation-keyed — but explicit maintenance
    /// may still want a cold cache.
    pub fn clear_result_cache(&self) {
        for c in &self.caches {
            c.clear();
        }
    }
}

fn merged<'a>(caches: impl Iterator<Item = &'a ResultCache>) -> CacheStats {
    caches
        .map(ResultCache::stats)
        .fold(CacheStats::default(), |a, b| CacheStats {
            entries: a.entries + b.entries,
            capacity: a.capacity + b.capacity,
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
            insertions: a.insertions + b.insertions,
            invalidations: a.invalidations + b.invalidations,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tale_graph::generate::{gnm, mutate, MutationRates};
    use tale_graph::labels::NodeLabel;
    use tale_graph::Graph;

    fn triangle_plus_tail(db: &mut GraphDb) -> Graph {
        let a = db.intern_node_label("A");
        let b = db.intern_node_label("B");
        let c = db.intern_node_label("C");
        let d = db.intern_node_label("D");
        let mut g = Graph::new_undirected();
        let n0 = g.add_node(a);
        let n1 = g.add_node(b);
        let n2 = g.add_node(c);
        let n3 = g.add_node(d);
        g.add_edge(n0, n1).unwrap();
        g.add_edge(n1, n2).unwrap();
        g.add_edge(n0, n2).unwrap();
        g.add_edge(n2, n3).unwrap();
        g
    }

    #[test]
    fn self_query_is_top_hit_with_full_match() {
        let mut db = GraphDb::new();
        let g = triangle_plus_tail(&mut db);
        db.insert("target", g.clone());
        // decoy: same labels, no edges
        let mut decoy = Graph::new_undirected();
        for n in g.nodes() {
            decoy.add_node(g.label(n));
        }
        db.insert("decoy", decoy);

        let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
        let opts = QueryOptions {
            p_imp: 0.5,
            ..Default::default()
        };
        let res = tale.query(&g, &opts).unwrap();
        assert!(!res.is_empty());
        assert_eq!(res[0].graph_name, "target");
        assert_eq!(res[0].matched_nodes, 4);
        assert_eq!(res[0].matched_edges, 4);
    }

    #[test]
    fn top_k_truncates() {
        let mut db = GraphDb::new();
        let base = triangle_plus_tail(&mut db);
        for i in 0..6 {
            db.insert(format!("g{i}"), base.clone());
        }
        let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
        let opts = QueryOptions::default().with_top_k(3);
        let res = tale.query(&base, &opts).unwrap();
        assert_eq!(res.len(), 3);
    }

    #[test]
    fn noisy_variant_still_found() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut db = GraphDb::new();
        for i in 0..8 {
            db.intern_node_label(&format!("L{i}"));
        }
        let original = gnm(&mut rng, 60, 120, 8);
        let (noisy, _) = mutate(&mut rng, &original, &MutationRates::mild(), 8);
        db.insert("noisy-home", noisy);
        // unrelated graphs
        for i in 0..4 {
            let other = gnm(&mut rng, 60, 120, 8);
            db.insert(format!("other{i}"), other);
        }
        let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
        let opts = QueryOptions {
            rho: 0.25,
            p_imp: 0.25,
            ..Default::default()
        };
        let res = tale.query(&original, &opts).unwrap();
        assert!(!res.is_empty());
        // The mutated sibling should match more of the query than random
        // graphs; check it lands on top.
        assert_eq!(res[0].graph_name, "noisy-home");
        assert!(
            res[0].matched_nodes > 30,
            "matched {}",
            res[0].matched_nodes
        );
    }

    #[test]
    fn random_importance_is_worse_or_equal() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let mut db = GraphDb::new();
        for i in 0..6 {
            db.intern_node_label(&format!("L{i}"));
        }
        let original = tale_graph::generate::preferential_attachment(&mut rng, 150, 2, 0.9, 6);
        let (noisy, _) = mutate(&mut rng, &original, &MutationRates::mild(), 6);
        db.insert("home", noisy);
        let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
        let degree_opts = QueryOptions {
            p_imp: 0.15,
            ..Default::default()
        };
        let random_opts = QueryOptions {
            p_imp: 0.15,
            importance: crate::ImportanceMeasure::Random(3),
            ..Default::default()
        };
        let by_degree = tale.query(&original, &degree_opts).unwrap();
        let by_random = tale.query(&original, &random_opts).unwrap();
        // §VI-D's direction: degree centrality should not lose to random
        // on *structure* (preserved edges). Node counts alone can tie or
        // flip by a few either way — any sticking anchor lets growth add
        // nodes; edges capture whether the right paralogs were chosen.
        let ed = by_degree.first().map(|r| r.matched_edges).unwrap_or(0);
        let er = by_random.first().map(|r| r.matched_edges).unwrap_or(0);
        assert!(ed >= er, "degree edges {ed} < random edges {er}");
        assert!(ed > 0);
    }

    #[test]
    fn persist_and_reopen() {
        let mut db = GraphDb::new();
        let g = triangle_plus_tail(&mut db);
        db.insert("target", g.clone());
        let dir = tempfile::tempdir().unwrap();
        {
            let tale = TaleDatabase::build(db, dir.path(), &TaleParams::default()).unwrap();
            let r = tale.query(&g, &QueryOptions::default()).unwrap();
            assert_eq!(r[0].matched_nodes, 4);
        }
        let tale = TaleDatabase::open(dir.path(), 256).unwrap();
        let r = tale.query(&g, &QueryOptions::default()).unwrap();
        assert_eq!(r[0].matched_nodes, 4);
        assert_eq!(tale.db().len(), 1);
        assert!(tale.index_size_bytes() > 0);
    }

    #[test]
    fn incremental_insert_is_queriable_and_persistent() {
        let mut db = GraphDb::new();
        let base = triangle_plus_tail(&mut db);
        db.insert("original", base.clone());
        let dir = tempfile::tempdir().unwrap();
        let tale = TaleDatabase::build(db, dir.path(), &TaleParams::default()).unwrap();
        // a second copy arrives later
        let gid = tale.insert_graph("late-arrival", base.clone()).unwrap();
        assert_eq!(tale.db().len(), 2);
        let opts = QueryOptions {
            p_imp: 0.5,
            ..Default::default()
        };
        let res = tale.query(&base, &opts).unwrap();
        let names: Vec<&str> = res.iter().map(|r| r.graph_name.as_str()).collect();
        assert!(names.contains(&"late-arrival"), "{names:?}");
        assert!(names.contains(&"original"));
        let late = res.iter().find(|r| r.graph == gid).unwrap();
        assert_eq!(late.matched_nodes, 4);
        drop(tale);
        // reopen: the inserted graph survived on disk
        let tale = TaleDatabase::open(dir.path(), 128).unwrap();
        assert_eq!(tale.db().len(), 2);
        let res = tale.query(&base, &opts).unwrap();
        assert!(res.iter().any(|r| r.graph_name == "late-arrival"));
    }

    #[test]
    fn removed_graph_disappears_from_results() {
        let mut db = GraphDb::new();
        let g = triangle_plus_tail(&mut db);
        db.insert("keep", g.clone());
        db.insert("drop", g.clone());
        let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
        let opts = QueryOptions {
            p_imp: 0.5,
            ..Default::default()
        };
        assert_eq!(tale.query(&g, &opts).unwrap().len(), 2);
        tale.remove_graph(GraphId(1)).unwrap();
        let res = tale.query(&g, &opts).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].graph_name, "keep");
    }

    #[test]
    fn compact_reclaims_tombstones() {
        let mut db = GraphDb::new();
        let g = triangle_plus_tail(&mut db);
        db.insert("keep", g.clone());
        db.insert("drop", g.clone());
        db.insert("keep2", g.clone());
        let dir = tempfile::tempdir().unwrap();
        let tale = TaleDatabase::build(db, dir.path(), &TaleParams::default()).unwrap();
        let full_size = tale.index_size_bytes();
        tale.remove_graph(GraphId(1)).unwrap();
        let tale = tale.compact(&TaleParams::default()).unwrap();
        assert_eq!(tale.db().len(), 2);
        assert!(tale.db().find_by_name("drop").is_none());
        assert!(tale.index_size_bytes() <= full_size);
        let opts = QueryOptions {
            p_imp: 0.5,
            ..Default::default()
        };
        let res = tale.query(&g, &opts).unwrap();
        let names: Vec<&str> = res.iter().map(|r| r.graph_name.as_str()).collect();
        assert_eq!(res.len(), 2, "{names:?}");
        assert!(names.contains(&"keep") && names.contains(&"keep2"));
        // the compacted on-disk form reopens cleanly
        drop(tale);
        let tale = TaleDatabase::open(dir.path(), 128).unwrap();
        assert_eq!(tale.db().len(), 2);
    }

    #[test]
    fn empty_query_returns_nothing() {
        let mut db = GraphDb::new();
        let g = triangle_plus_tail(&mut db);
        db.insert("t", g);
        let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
        let res = tale
            .query(&Graph::new_undirected(), &QueryOptions::default())
            .unwrap();
        assert!(res.is_empty());
    }

    #[test]
    fn greedy_anchor_mode_runs() {
        let mut db = GraphDb::new();
        let g = triangle_plus_tail(&mut db);
        db.insert("t", g.clone());
        let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
        let opts = QueryOptions {
            greedy_anchors: true,
            ..Default::default()
        };
        let res = tale.query(&g, &opts).unwrap();
        assert_eq!(res[0].matched_nodes, 4);
    }

    #[test]
    fn unknown_label_query_matches_nothing() {
        let mut db = GraphDb::new();
        let g = triangle_plus_tail(&mut db);
        db.insert("t", g);
        let tale = TaleDatabase::build_in_temp(db, &TaleParams::default()).unwrap();
        let mut q = Graph::new_undirected();
        let x = q.add_node(NodeLabel(99)); // label never interned
        let y = q.add_node(NodeLabel(99));
        q.add_edge(x, y).unwrap();
        let res = tale.query(&q, &QueryOptions::default()).unwrap();
        assert!(res.is_empty());
    }

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
    fn insert_retires_only_owning_shard_delta_cache_keys() {
        let (db, graphs) = small_db();
        let dir = tempfile::tempdir().unwrap();
        let sharded =
            TaleDatabase::build_sharded(db, dir.path(), &TaleParams::default(), 3, &HashPolicy)
                .unwrap();
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
            TaleDatabase::build_sharded(db, dir.path(), &TaleParams::default(), 3, &HashPolicy)
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
        let reopened = TaleDatabase::open(dir.path(), 256).unwrap();
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
                TaleDatabase::build_sharded(db, dir.path(), &params, 2, &HashPolicy).unwrap();
            sharded.query(&graphs[0], &opts).unwrap()
        };
        let sharded = TaleDatabase::open(dir.path(), 256).unwrap();
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
        assert!(TaleDatabase::open(dir.path(), 256).is_err());
    }

    #[test]
    fn compact_keeps_shard_count_and_policy() {
        let (db, graphs) = small_db();
        let dir = tempfile::tempdir().unwrap();
        let policy = crate::shard::SizeBalancedPolicy;
        let tale = TaleDatabase::build_sharded(db, dir.path(), &TaleParams::default(), 3, &policy)
            .unwrap();
        tale.insert_graph("late", graphs[0].clone()).unwrap();
        tale.remove_graph(GraphId(2)).unwrap();
        let opts = QueryOptions {
            p_imp: 0.5,
            ..Default::default()
        };
        let names = |t: &TaleDatabase| -> Vec<Vec<String>> {
            graphs
                .iter()
                .map(|g| {
                    let mut v: Vec<String> = t
                        .query(g, &opts)
                        .unwrap()
                        .into_iter()
                        .map(|m| m.graph_name)
                        .collect();
                    v.sort();
                    v
                })
                .collect()
        };
        let want = names(&tale);
        let tale = tale.compact(&TaleParams::default()).unwrap();
        assert_eq!(tale.db().len(), 6);
        assert!(tale.db().find_by_name("g2").is_none());
        let m = tale.index().manifest();
        assert_eq!((m.shard_count, m.policy.as_str()), (3, "size-balanced"));
        assert_eq!(names(&tale), want);
        drop(tale);
        let tale = TaleDatabase::open(dir.path(), 128).unwrap();
        assert_eq!(tale.index().shard_count(), 3);
        assert_eq!(names(&tale), want);
    }

    #[test]
    fn compact_is_refused_on_a_one_shard_view() {
        let (db, _) = small_db();
        let dir = tempfile::tempdir().unwrap();
        drop(
            TaleDatabase::build_sharded(db, dir.path(), &TaleParams::default(), 2, &HashPolicy)
                .unwrap(),
        );
        let (view, _) = TaleDatabase::open_shard(dir.path(), 1, 128, None).unwrap();
        match view.compact(&TaleParams::default()) {
            Err(TaleError::Manifest(m)) => assert!(m.contains("every shard"), "{m}"),
            Err(e) => panic!("expected a manifest refusal, got {e}"),
            Ok(_) => panic!("compact on a one-shard view must be refused"),
        }
        // nothing was touched: the full database still opens with all graphs
        assert_eq!(TaleDatabase::open(dir.path(), 128).unwrap().db().len(), 6);
    }

    #[test]
    fn single_index_layout_is_refused_with_a_typed_error() {
        // the retired layout: graphs.json + a root-level mvcc.json + gens/
        let (db, _) = small_db();
        let dir = tempfile::tempdir().unwrap();
        tale_graph::io::save_json(&db, &dir.path().join(DB_FILE)).unwrap();
        std::fs::write(
            dir.path().join("mvcc.json"),
            r#"{"schema_version": 1, "current": 0, "logical": 3, "base_len": 6, "removed": []}"#,
        )
        .unwrap();
        std::fs::create_dir_all(dir.path().join("gens/g0")).unwrap();
        match TaleDatabase::open(dir.path(), 128) {
            Err(TaleError::Manifest(m)) => {
                assert!(m.contains("single-index layout"), "{m}");
                assert!(m.contains("rebuild"), "{m}");
            }
            Err(e) => panic!("expected a manifest refusal, got {e}"),
            Ok(_) => panic!("the single-index layout must not open"),
        }
    }

    #[test]
    fn shard_manifests_with_a_logical_counter_still_open() {
        // shard mvcc.json files written before the counter was dropped
        // carry a `logical` field; it is ignored, never misread
        let (db, graphs) = small_db();
        let dir = tempfile::tempdir().unwrap();
        let opts = QueryOptions {
            p_imp: 0.5,
            ..Default::default()
        };
        let want = {
            let t =
                TaleDatabase::build_sharded(db, dir.path(), &TaleParams::default(), 2, &HashPolicy)
                    .unwrap();
            t.remove_graph(GraphId(3)).unwrap();
            t.query(&graphs[0], &opts).unwrap()
        };
        for s in 0..2u32 {
            let path = crate::shard::ShardManifest::shard_dir(dir.path(), s).join("mvcc.json");
            let raw = std::fs::read_to_string(&path).unwrap();
            let with_logical = raw.replacen('{', "{\n  \"logical\": 7,", 1);
            std::fs::write(&path, with_logical).unwrap();
        }
        let tale = TaleDatabase::open(dir.path(), 128).unwrap();
        let got = tale.query(&graphs[0], &opts).unwrap();
        let key = |ms: &[QueryMatch]| -> Vec<_> {
            ms.iter().map(|m| (m.graph, m.score.to_bits())).collect()
        };
        assert_eq!(key(&got), key(&want));
        assert!(tale.index().is_removed(GraphId(3)));
    }
}
