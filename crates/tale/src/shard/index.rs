//! [`ShardedNhIndex`]: N independent generational NH-Indexes behind one
//! handle.
//!
//! Each shard is a complete, self-contained [`GenerationalNhIndex`]
//! directory (`mvcc.json` + immutable `gens/gN/` generations) covering a
//! disjoint subset of the database's graphs: its on-disk base, an
//! in-memory delta over the owned graphs inserted since, and a tombstone
//! set. All shards share one neighbor-array scheme — every build and
//! every fold derives it from the *full* database vocabulary
//! ([`NhIndex::scheme_for`]) — which is what makes per-shard probe
//! answers byte-equal to the matching slice of an unsharded probe (see
//! `crate::engine::exec` for the full determinism argument).
//!
//! Building fans one generation-0 build per shard across worker threads:
//! each shard extracts, sorts, and bulk-loads in isolation, so the
//! sort+merge step — serial in a single-file build even with
//! `parallel_build` on — is itself partitioned N ways.
//!
//! ## Commit points
//!
//! * **insert** — the `shards.json` assignment length. The caller stages
//!   its mutation journal and saves `graphs.json` first; the manifest
//!   rewrite that appends the new graph's shard commits the insert; the
//!   owning shard's delta is then extended in memory only (it is
//!   re-derived from the assignment on open).
//! * **remove** — the owning shard's `mvcc.json` tombstone write.
//! * **fold** — each shard's `mvcc.json` generation flip. A fold cut
//!   short between two shards' flips leaves the shards on different
//!   generations; open completes it by folding the shards that lag.

use super::manifest::{
    vocab_fingerprint, ShardManifest, ShardStatsSummary, MANIFEST_SCHEMA_VERSION,
};
use super::policy::ShardPolicy;
use crate::{Result, TaleError};
use parking_lot::RwLock;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tale_graph::{GraphDb, GraphId};
use tale_nhindex::{
    FoldReport, GenerationalNhIndex, IntegrityReport, MvccRecovery, NhIndex, NhIndexConfig,
    ProbeCounters, SharedIo,
};

/// Per-shard build timings and sizes, for observability and the E-SHARD
/// experiment. Produced by [`ShardedNhIndex::build_with_stats`].
#[derive(Debug, Clone, serde::Serialize)]
pub struct ShardBuildStats {
    /// Wall-clock seconds each shard spent in its own
    /// extract/sort/bulk-load, indexed by shard.
    pub per_shard_secs: Vec<f64>,
    /// Wall clock of the whole sharded build (parallel region + manifest).
    pub total_secs: f64,
    /// Graphs assigned to each shard.
    pub graphs_per_shard: Vec<usize>,
    /// Total nodes assigned to each shard (the load the size-balanced
    /// policy equalizes).
    pub nodes_per_shard: Vec<u64>,
}

impl ShardBuildStats {
    /// Max shard build time over mean shard build time (1.0 = perfectly
    /// even; the build's critical path is the max).
    pub fn skew(&self) -> f64 {
        if self.per_shard_secs.is_empty() {
            return 0.0;
        }
        let max = self.per_shard_secs.iter().copied().fold(0.0, f64::max);
        let mean = self.per_shard_secs.iter().sum::<f64>() / self.per_shard_secs.len() as f64;
        if mean <= 0.0 {
            0.0
        } else {
            max / mean
        }
    }
}

/// Manifest-embedded digests of every shard's base statistics
/// (observability only — the planner reads the live per-shard statistics
/// instead).
fn summarize_shards(shards: &[GenerationalNhIndex]) -> Vec<ShardStatsSummary> {
    shards
        .iter()
        .map(|sh| match sh.snapshot().base().statistics() {
            Some(s) => ShardStatsSummary::from(s.as_ref()),
            None => ShardStatsSummary::default(),
        })
        .collect()
}

/// A partitioned NH-Index: one generational index per shard plus the
/// [`ShardManifest`] mapping graphs to shards. Mutates through `&self`;
/// the caller serializes writers.
///
/// A handle loads either every shard ([`ShardedNhIndex::open_with_recovery`])
/// or one ([`ShardedNhIndex::open_shard`], a served worker's view);
/// [`ShardedNhIndex::shards`] lists the loaded ones.
pub struct ShardedNhIndex {
    /// Loaded shards, in shard order, starting at shard `first`.
    shards: Vec<GenerationalNhIndex>,
    first: u32,
    manifest: RwLock<ShardManifest>,
    dir: PathBuf,
}

impl ShardedNhIndex {
    /// Builds a sharded index for `db` under `dir` and reports per-shard
    /// timings.
    ///
    /// `policy.assign` splits the graphs; each shard then builds
    /// generation 0 over its graphs in its own `shard-NNN/` directory,
    /// fanned over all cores. The manifest is written last, so a crash
    /// mid-build leaves no directory that
    /// [`ShardedNhIndex::open_with_recovery`] would accept.
    pub fn build_with_stats(
        dir: &Path,
        db: &GraphDb,
        config: &NhIndexConfig,
        nshards: usize,
        policy: &dyn ShardPolicy,
    ) -> Result<(Self, ShardBuildStats)> {
        if nshards == 0 {
            return Err(TaleError::Manifest("shard count must be >= 1".into()));
        }
        std::fs::create_dir_all(dir)?;
        let assignment = policy.assign(db, nshards);
        if assignment.len() != db.len() {
            return Err(TaleError::Manifest(format!(
                "policy {} assigned {} graphs, database has {}",
                policy.name(),
                assignment.len(),
                db.len()
            )));
        }
        if let Some(&bad) = assignment.iter().find(|&&s| s >= nshards as u32) {
            return Err(TaleError::Manifest(format!(
                "policy {} assigned shard {bad} with only {nshards} shards",
                policy.name()
            )));
        }
        let mut groups: Vec<Vec<GraphId>> = vec![Vec::new(); nshards];
        for (i, &s) in assignment.iter().enumerate() {
            groups[s as usize].push(GraphId(i as u32));
        }

        let t_total = Instant::now();
        // The parallel region: every shard sorts its own units and
        // bulk-loads its own B+-tree — no cross-shard merge exists. With
        // more than one shard the shard-level fan-out already occupies the
        // workers, so each shard extracts serially inside its thread.
        // Every shard's generations bind to ONE shared worker pool, so
        // total I/O concurrency stays `config.io_workers`, not
        // `shards × io_workers`.
        let sub_config = NhIndexConfig {
            parallel_build: config.parallel_build && nshards == 1,
            ..config.clone()
        };
        let io = SharedIo::new(config.io_workers, config.prefetch_pages);
        let built: Vec<tale_nhindex::Result<(GenerationalNhIndex, f64)>> =
            tale_par::parallel_map(0, nshards, |s| {
                let t = Instant::now();
                let idx = GenerationalNhIndex::build_owned(
                    &ShardManifest::shard_dir(dir, s as u32),
                    db,
                    &sub_config,
                    groups[s].clone(),
                    io.clone(),
                )?;
                Ok((idx, t.elapsed().as_secs_f64()))
            });
        let mut shards = Vec::with_capacity(nshards);
        let mut per_shard_secs = Vec::with_capacity(nshards);
        for r in built {
            let (idx, secs) = r?;
            shards.push(idx);
            per_shard_secs.push(secs);
        }

        let fp = vocab_fingerprint(db);
        let manifest = ShardManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            shard_count: nshards as u32,
            policy: policy.name().to_owned(),
            assignment,
            vocab_fingerprints: vec![fp; nshards],
            shard_stats: summarize_shards(&shards),
        };
        manifest.save(dir)?;

        let stats = ShardBuildStats {
            per_shard_secs,
            total_secs: t_total.elapsed().as_secs_f64(),
            graphs_per_shard: groups.iter().map(Vec::len).collect(),
            nodes_per_shard: groups
                .iter()
                .map(|g| g.iter().map(|&gid| db.graph(gid).node_count() as u64).sum())
                .collect(),
        };
        Ok((
            ShardedNhIndex {
                shards,
                first: 0,
                manifest: RwLock::new(manifest),
                dir: dir.to_owned(),
            },
            stats,
        ))
    }

    /// Reopens a sharded index built by
    /// [`ShardedNhIndex::build_with_stats`], reporting what each shard's
    /// open found (in shard order).
    ///
    /// `db` must be the same database the index was built against; each
    /// shard's recorded vocabulary fingerprint is checked against it
    /// (vocabulary drift would silently corrupt probe bitmaps, so it is an
    /// error here). `buffer_frames` is the page budget *per shard*. Shards
    /// left a generation behind by an interrupted fold are folded forward.
    /// A shard that cannot be opened fails with [`TaleError::Shard`]
    /// naming it, so a partial-shard failure is distinguishable from a bad
    /// manifest.
    pub fn open_with_recovery(
        dir: &Path,
        buffer_frames: usize,
        db: &GraphDb,
    ) -> Result<(Self, Vec<MvccRecovery>)> {
        let io = SharedIo::new(
            tale_nhindex::DEFAULT_IO_WORKERS,
            tale_nhindex::DEFAULT_PREFETCH_PAGES,
        );
        Self::open_range(dir, db, None, buffer_frames, io)
    }

    /// Opens only shard `shard` — the view a served worker holds. Reads
    /// and routes against the full manifest, but probes, folds and
    /// accepts mutations for this one shard.
    pub fn open_shard(
        dir: &Path,
        db: &GraphDb,
        shard: u32,
        buffer_frames: usize,
        io: Option<SharedIo>,
    ) -> Result<(Self, Vec<MvccRecovery>)> {
        Self::open_range(dir, db, Some(shard), buffer_frames, io)
    }

    fn open_range(
        dir: &Path,
        db: &GraphDb,
        only: Option<u32>,
        buffer_frames: usize,
        io: Option<SharedIo>,
    ) -> Result<(Self, Vec<MvccRecovery>)> {
        let manifest = ShardManifest::load(dir)?;
        if manifest.assignment.len() != db.len() {
            return Err(TaleError::Manifest(format!(
                "manifest maps {} graphs, database has {}",
                manifest.assignment.len(),
                db.len()
            )));
        }
        let fp = vocab_fingerprint(db);
        if let Some(s) = manifest.vocab_fingerprints.iter().position(|&f| f != fp) {
            return Err(TaleError::Manifest(format!(
                "shard {s} was built against a different vocabulary \
                 (fingerprint {:#018x}, database has {fp:#018x})",
                manifest.vocab_fingerprints[s]
            )));
        }
        let range = match only {
            Some(s) if s >= manifest.shard_count => {
                return Err(TaleError::Manifest(format!(
                    "shard {s} out of range: manifest has {} shards",
                    manifest.shard_count
                )))
            }
            Some(s) => s..s + 1,
            None => 0..manifest.shard_count,
        };
        let mut shards = Vec::with_capacity(range.len());
        let mut reports = Vec::with_capacity(range.len());
        for s in range.clone() {
            let (idx, report) = GenerationalNhIndex::open_owned(
                &ShardManifest::shard_dir(dir, s),
                db,
                &manifest.graphs_of(s),
                buffer_frames,
                io.clone(),
            )
            .map_err(|source| TaleError::Shard { shard: s, source })?;
            shards.push(idx);
            reports.push(report);
        }
        // Every fold moves all shards one generation on, so shards on
        // different generations mean a fold cut short between two shards'
        // manifest flips: finish it — otherwise a fold that changed the
        // scheme would leave the shards probing under two.
        let newest = shards
            .iter()
            .map(GenerationalNhIndex::current_generation)
            .max();
        for (s, sh) in range.clone().zip(&shards) {
            while Some(sh.current_generation()) < newest {
                sh.fold(db)
                    .map_err(|source| TaleError::Shard { shard: s, source })?;
            }
        }
        Ok((
            ShardedNhIndex {
                shards,
                first: range.start,
                manifest: RwLock::new(manifest),
                dir: dir.to_owned(),
            },
            reports,
        ))
    }

    /// Deep integrity check of every loaded shard's current generation:
    /// page checksums, B+-tree key ordering, and posting decodability
    /// ([`NhIndex::verify`]). Returns one report per shard, in shard
    /// order; an I/O failure while sweeping a shard is attributed to it
    /// via [`TaleError::Shard`].
    pub fn verify(&self) -> Result<Vec<IntegrityReport>> {
        self.numbered()
            .map(|(s, sh)| {
                sh.verify()
                    .map_err(|source| TaleError::Shard { shard: s, source })
            })
            .collect()
    }

    /// The loaded shards, in shard order. The query engine scatters over
    /// each one's base and delta readers.
    pub fn shards(&self) -> &[GenerationalNhIndex] {
        &self.shards
    }

    /// The loaded shards with their shard numbers.
    pub fn numbered(&self) -> impl Iterator<Item = (u32, &GenerationalNhIndex)> {
        (self.first..).zip(&self.shards)
    }

    /// Shard `s`, if this handle loaded it.
    pub fn shard(&self, s: u32) -> Option<&GenerationalNhIndex> {
        s.checked_sub(self.first)
            .and_then(|i| self.shards.get(i as usize))
    }

    /// Number of shards in the layout (loaded or not).
    pub fn shard_count(&self) -> usize {
        self.manifest.read().shard_count as usize
    }

    /// A copy of the shard map.
    pub fn manifest(&self) -> ShardManifest {
        self.manifest.read().clone()
    }

    /// Graphs the shard map assigns — the insert commit counter.
    pub fn graph_count(&self) -> usize {
        self.manifest.read().assignment.len()
    }

    /// Root directory (the one holding `shards.json`).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shard owning `gid`, or `None` if the manifest has never seen
    /// that id.
    pub fn shard_of(&self, gid: GraphId) -> Option<u32> {
        self.manifest.read().shard_of(gid)
    }

    fn loaded(&self, s: u32) -> Result<&GenerationalNhIndex> {
        self.shard(s)
            .ok_or_else(|| TaleError::Manifest(format!("shard {s} is not loaded by this handle")))
    }

    /// Where the build policy places a newly inserted graph, without
    /// mutating anything. `gid` must be the id just returned by
    /// [`GraphDb::insert`] on `db` (dense append), and the owning shard
    /// must be loaded.
    pub fn route(&self, db: &GraphDb, gid: GraphId) -> Result<u32> {
        let manifest = self.manifest.read();
        if gid.idx() != manifest.assignment.len() {
            return Err(TaleError::Manifest(format!(
                "insert of graph {} but manifest maps {} graphs (ids are dense)",
                gid.0,
                manifest.assignment.len()
            )));
        }
        let policy = manifest.policy()?;
        let loads: Vec<u64> = (0..manifest.shard_count)
            .map(|s| {
                manifest
                    .graphs_of(s)
                    .iter()
                    .map(|&g| db.graph(g).node_count() as u64)
                    .sum()
            })
            .collect();
        let s = policy.route(db, gid, &loads);
        self.loaded(s)?;
        Ok(s)
    }

    /// Commits the insert of `gid` (routed to shard `s` by
    /// [`ShardedNhIndex::route`]): the atomic `shards.json` rewrite
    /// appending `s` is the commit point. The caller must already have
    /// saved a `graphs.json` holding `gid` under its mutation journal,
    /// and follows up with [`ShardedNhIndex::extend_delta`].
    pub fn commit_insert(&self, db: &GraphDb, gid: GraphId, s: u32) -> Result<()> {
        self.loaded(s)?;
        let mut next = self.manifest.read().clone();
        next.assignment.push(s);
        // Inserting can grow the vocabulary; every shard keyed off the old
        // one stays correct (bit positions only wrap), but the recorded
        // fingerprints must match what `open` will recompute.
        next.vocab_fingerprints = vec![vocab_fingerprint(db); next.shard_count as usize];
        if self.shards.len() == next.shard_count as usize {
            next.shard_stats = summarize_shards(&self.shards);
        }
        debug_assert_eq!(gid.idx() + 1, next.assignment.len());
        next.save(&self.dir)?;
        *self.manifest.write() = next;
        Ok(())
    }

    /// Publishes a committed insert to shard `s`'s readers (in memory
    /// only — open re-derives the delta from the assignment).
    pub fn extend_delta(&self, db: &GraphDb, gid: GraphId, s: u32) -> Result<()> {
        self.loaded(s)?
            .extend_delta(db, gid)
            .map_err(|source| TaleError::Shard { shard: s, source })
    }

    /// Tombstones a graph in its owning shard (the shard's `mvcc.json`
    /// write is the commit point). Returns the owning shard.
    pub fn remove_graph(&self, gid: GraphId) -> Result<u32> {
        let s = self.shard_of(gid).ok_or_else(|| {
            TaleError::Manifest(format!("graph {} is not in the shard map", gid.0))
        })?;
        self.loaded(s)?
            .remove_graph(gid)
            .map_err(|source| TaleError::Shard { shard: s, source })?;
        Ok(s)
    }

    /// Folds every loaded shard against `db` — one `db`, so every shard
    /// lands on the same scheme. Returns one report per shard.
    pub fn fold(&self, db: &GraphDb) -> Result<Vec<FoldReport>> {
        self.numbered()
            .map(|(s, sh)| {
                sh.fold(db)
                    .map_err(|source| TaleError::Shard { shard: s, source })
            })
            .collect()
    }

    /// Whether the next [`ShardedNhIndex::fold`] against `db` changes the
    /// neighbor-array scheme (and with it the answers).
    pub fn fold_changes_scheme(&self, db: &GraphDb) -> bool {
        self.shards
            .first()
            .is_some_and(|sh| sh.scheme() != NhIndex::scheme_for(db, sh.config()))
    }

    /// Whether `gid` has been tombstoned (unknown ids, and ids of shards
    /// this handle did not load, read as removed).
    pub fn is_removed(&self, gid: GraphId) -> bool {
        match self.shard_of(gid).and_then(|s| self.shard(s)) {
            Some(sh) => sh.is_removed(gid),
            None => true,
        }
    }

    /// Probe-traffic counters summed over all loaded shards (base and
    /// delta).
    pub fn counters(&self) -> ProbeCounters {
        let mut total = ProbeCounters::default();
        for sh in &self.shards {
            let c = sh.counters();
            total.probes += c.probes;
            total.keys_scanned += c.keys_scanned;
            total.postings_fetched += c.postings_fetched;
            total.postings_filtered += c.postings_filtered;
            total.rows_examined += c.rows_examined;
        }
        total
    }

    /// Buffer-pool statistics summed over all loaded shards.
    pub fn pool_stats(&self) -> tale_storage::PoolStats {
        self.shards
            .iter()
            .map(GenerationalNhIndex::pool_stats)
            .fold(tale_storage::PoolStats::default(), |a, b| a.merged(b))
    }

    /// Readahead statistics summed over all loaded shards.
    pub fn prefetch_stats(&self) -> tale_storage::PrefetchStats {
        self.shards
            .iter()
            .map(GenerationalNhIndex::prefetch_stats)
            .fold(tale_storage::PrefetchStats::default(), |a, b| a.merged(b))
    }

    /// On-disk footprint of the loaded shards' current generations, in
    /// bytes.
    pub fn size_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(GenerationalNhIndex::size_bytes)
            .sum()
    }

    /// Indexed nodes (base and delta) over all loaded shards.
    pub fn node_count(&self) -> u64 {
        self.shards
            .iter()
            .map(GenerationalNhIndex::node_count)
            .sum()
    }

    /// Composite keys (base and delta) over all loaded shards (shards
    /// index disjoint graph sets but can share key values, so this can
    /// exceed the one-shard key count).
    pub fn key_count(&self) -> u64 {
        self.shards.iter().map(GenerationalNhIndex::key_count).sum()
    }
}
