//! E-COLD — larger-than-RAM query path under a shrinking buffer pool.
//!
//! The paper's core systems claim is that the NH-Index, being
//! disk-based, is "not limited by the memory size" (§VI-B.2). This
//! harness measures what that costs and what the async read path buys
//! back: a wide PIN corpus (256 small graphs) and its query workload
//! run against buffer pools sized from 1% of the index up to the whole
//! index, each pass starting *cold* (fresh open, empty pools, result
//! cache off). Every cell's answers are checked bit-identical to an
//! unbounded-pool serial reference — pool size and thread count are
//! latency knobs only, never correctness knobs.
//!
//! Tempfile-backed indexes read from the OS page cache in microseconds,
//! which would hide the effect being measured, so each measured pass
//! wraps the read backends with a fixed per-read delay
//! ([`tale_storage::LatencyBackend`], `read_latency_us` in the report)
//! to model a device with seek latency. The headline ratio —
//! 4-thread over 1-thread cold batch wall clock at the 10% pool — then
//! isolates genuine I/O-wait overlap (demand misses overlapping across
//! worker threads plus batched posting readahead), which is why it
//! holds even on a single-core runner where compute cannot speed up.

use crate::{timed, Scale};
use std::time::Duration;
use tale::shard::HashPolicy;
use tale::{QueryOptions, TaleDatabase, TaleParams};
use tale_datasets::pin::PinCorpus;
use tale_graph::Graph;
use tale_storage::PAGE_SIZE;

/// Schema version stamped into `BENCH_cold.json`.
pub const COLD_REPORT_SCHEMA_VERSION: u32 = 1;

/// Pool-size fractions swept by [`run_cold`] (of the total index pages).
pub const DEFAULT_POOL_FRACTIONS: &[f64] = &[0.01, 0.10, 0.25, 1.0];

/// One cold pass: a pool size × thread count × layout cell.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ColdCell {
    /// Pool size as a fraction of the index's total pages.
    pub pool_frac: f64,
    /// Buffer-pool frames per page file this cell ran with.
    pub pool_pages: usize,
    /// Query worker threads.
    pub threads: usize,
    /// Whether the index was the 4-shard scatter/gather layout.
    pub sharded: bool,
    /// Cold wall clock of one batch pass over the workload, seconds.
    pub query_secs: f64,
    /// Fetches served from resident frames.
    pub pool_hits: u64,
    /// Fetches that parked on another thread's in-flight load.
    pub pool_coalesced: u64,
    /// Fetches that performed their own synchronous disk read.
    pub pool_misses: u64,
    /// Fetches served from the async prefetch staging area.
    pub pool_prefetched: u64,
    /// Readahead jobs handed to the I/O worker pool.
    pub prefetch_issued: u64,
    /// Staged pages later consumed by a pool miss.
    pub prefetch_used: u64,
    /// Whether answers matched the unbounded-pool serial reference
    /// bit for bit.
    pub identical: bool,
}

/// The full E-COLD report (serialized to `BENCH_cold.json`).
#[derive(Debug, Clone, serde::Serialize)]
pub struct ColdReport {
    /// Report format version ([`COLD_REPORT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Generator seed.
    pub seed: u64,
    /// Requested scale factor (`TALE_SCALE`).
    pub scale: f64,
    /// Effective corpus scale: the cold corpus runs 256 graphs at one
    /// sixth the requested scale (see [`run_cold`]).
    pub corpus_scale: f64,
    /// Cores the OS reports as available. The headline ratio measures
    /// I/O-wait overlap, so it is meaningful even when this is 1.
    pub cores: usize,
    /// Graphs in the corpus.
    pub graphs: usize,
    /// Queries in the workload.
    pub queries: usize,
    /// Total index bytes on disk (both page files).
    pub index_bytes: u64,
    /// Total index pages (the 100% pool size).
    pub index_pages: usize,
    /// Simulated per-read device latency applied to every measured
    /// cell, microseconds.
    pub read_latency_us: u64,
    /// One row per measured cell.
    pub rows: Vec<ColdCell>,
    /// Headline: 1-thread over 4-thread cold batch wall clock at the
    /// 10% pool (unsharded) — >1 means the threaded cold path
    /// genuinely overlapped reads.
    pub speedup_4t_at_10pct: f64,
}

/// Runs the E-COLD sweep: build once on disk, then for each pool size ×
/// thread count reopen cold, apply the simulated read latency, run the
/// whole query workload as one batch, and compare answers to the
/// unbounded-pool serial reference. Two extra cells repeat the 10% pool
/// under the 4-shard layout (all shards sharing one I/O worker pool).
pub fn run_cold(seed: u64, scale: Scale, read_latency_us: u64) -> ColdReport {
    // Wider, flatter corpus than the Table 2 experiments: 256 graphs at
    // one sixth the requested scale instead of 16 at full scale. Cold
    // read behavior needs an index that dwarfs the small pools and a
    // query workload wide enough to keep 4 threads busy, while each
    // individual graph stays small enough that matching compute does
    // not drown the I/O effect being measured (matching cost grows
    // superlinearly with graph size; index size only linearly).
    let corpus_scale = scale.0 / 6.0;
    let corpus = PinCorpus::generate(seed, 256, corpus_scale);
    let graphs = corpus.db.iter().count();
    let query_ids = corpus.queries(None);
    let queries: Vec<&Graph> = query_ids.iter().map(|&g| corpus.db.graph(g)).collect();
    let params = TaleParams::bind();
    let latency = Duration::from_micros(read_latency_us);

    // Build both layouts once; every measured pass reopens from disk.
    let build = |nshards: usize| {
        let dir = tempfile::tempdir().expect("tempdir");
        let built = TaleDatabase::build_sharded(
            corpus.db.clone(),
            dir.path(),
            &params,
            nshards,
            &HashPolicy,
        )
        .expect("index build");
        (dir, built.index_size_bytes())
    };
    let (single_dir, index_bytes) = build(1);
    let (shard_dir, _) = build(4);
    let index_pages = (index_bytes as usize).div_ceil(PAGE_SIZE).max(1);

    // Reference: unbounded pool, serial, no simulated latency.
    let reference = {
        let db = TaleDatabase::open(single_dir.path(), index_pages).expect("open reference");
        let opts = QueryOptions::bind().with_cache(false).with_threads(1);
        db.query_batch(&queries, &opts).expect("reference query")
    };

    // One cold pass: reopen, apply the read latency, run the batch.
    let cell = |dir: &std::path::Path, frac: f64, pool_pages: usize, threads: usize| {
        let db = TaleDatabase::open(dir, pool_pages).expect("cold open");
        for sh in db.index().shards() {
            sh.simulate_read_latency(latency);
        }
        let opts = QueryOptions::bind().with_cache(false).with_threads(threads);
        let (results, query_secs) = timed(|| db.query_batch(&queries, &opts).expect("cold query"));
        let pool = db.index().pool_stats();
        let pf = db.index().prefetch_stats();
        ColdCell {
            pool_frac: frac,
            pool_pages,
            threads,
            sharded: db.index().shard_count() > 1,
            query_secs,
            pool_hits: pool.hits,
            pool_coalesced: pool.coalesced,
            pool_misses: pool.misses,
            pool_prefetched: pool.prefetched,
            prefetch_issued: pf.issued,
            prefetch_used: pf.used,
            identical: super::speedup::identical(&reference, &results),
        }
    };
    let mut rows: Vec<ColdCell> = Vec::new();
    for &frac in DEFAULT_POOL_FRACTIONS {
        let pool_pages = ((index_pages as f64 * frac) as usize).max(8);
        for &threads in &[1usize, 4] {
            rows.push(cell(single_dir.path(), frac, pool_pages, threads));
        }
    }
    // Sharded cells: the 10% pool again, scatter/gather over 4 shards
    // that share one I/O worker pool.
    let pool_pages = ((index_pages as f64 * 0.10) as usize).max(8);
    for &threads in &[1usize, 4] {
        rows.push(cell(shard_dir.path(), 0.10, pool_pages, threads));
    }

    let secs_of = |threads: usize| {
        rows.iter()
            .find(|c| !c.sharded && (c.pool_frac - 0.10).abs() < 1e-9 && c.threads == threads)
            .map(|c| c.query_secs)
            .unwrap_or(f64::NAN)
    };
    let speedup_4t_at_10pct = secs_of(1) / secs_of(4);

    ColdReport {
        schema_version: COLD_REPORT_SCHEMA_VERSION,
        seed,
        scale: scale.0,
        corpus_scale,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        graphs,
        queries: queries.len(),
        index_bytes,
        index_pages,
        read_latency_us,
        rows,
        speedup_4t_at_10pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sweep must never change answers, every cold cell must do real
    /// disk traffic, and the batched read path must actually engage the
    /// prefetcher on small pools.
    #[test]
    fn cold_report_is_identical_and_accounts_io() {
        let r = run_cold(45, Scale(0.12), 50);
        assert_eq!(r.schema_version, COLD_REPORT_SCHEMA_VERSION);
        assert_eq!(r.rows.len(), DEFAULT_POOL_FRACTIONS.len() * 2 + 2);
        assert!(r.index_pages > 0);
        for c in &r.rows {
            assert!(
                c.identical,
                "pool {}x{} threads {} sharded {}: answers diverged",
                c.pool_frac, c.pool_pages, c.threads, c.sharded
            );
            // a cold pass must touch disk
            assert!(
                c.pool_misses + c.pool_prefetched > 0,
                "cold cell did no disk reads: {c:?}"
            );
        }
        // the batched probe path issues readahead on constrained pools
        assert!(
            r.rows
                .iter()
                .filter(|c| c.pool_frac < 1.0)
                .any(|c| c.prefetch_issued > 0),
            "no constrained cell issued prefetches"
        );
        assert!(r.speedup_4t_at_10pct.is_finite());
    }
}
