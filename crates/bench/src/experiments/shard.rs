//! E-SHARD — partitioned NH-Index build and scatter/gather querying.
//!
//! The paper builds one NH-Index over the whole database (§V); this
//! harness measures what partitioning that index into N independent
//! shards buys on the same Table 2-style PIN corpus: build-side, each
//! shard bulk-loads its own B+-tree concurrently (the parallelism here
//! goes *beyond* `parallel_build`'s per-graph split — whole shards build
//! independently); query-side, the scatter/gather executor must return
//! results bit-identical to the single-index path at every shard count.
//! Each row records both halves plus the placement skew, and the JSON
//! report pins `cores` so the wall-clock ratios stay interpretable —
//! on a 1-core machine the honest build speedup is ~1x no matter how
//! many shards are asked for.

use crate::{timed, Scale};
use tale::shard::HashPolicy;
use tale::{QueryOptions, TaleDatabase, TaleParams};
use tale_datasets::pin::PinCorpus;
use tale_graph::Graph;

/// Schema version stamped into `BENCH_shard.json`.
pub const SHARD_REPORT_SCHEMA_VERSION: u32 = 1;

/// One shard count's build + query measurements.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ShardRow {
    /// Shard count of this configuration.
    pub shards: usize,
    /// Wall clock of the full sharded build (all shards + manifest +
    /// graph store), best of the timing rounds, seconds.
    pub build_secs: f64,
    /// Wall clock of the slowest single shard's extract/sort/bulk-load
    /// in the measured round — the build's critical path.
    pub max_shard_build_secs: f64,
    /// Build skew: slowest shard / mean shard time (1.0 = perfectly
    /// even placement).
    pub build_skew: f64,
    /// Graphs placed on each shard, in shard order.
    pub graphs_per_shard: Vec<usize>,
    /// single-index build / sharded build wall-clock ratio.
    pub build_speedup: f64,
    /// Wall clock of one scatter/gather pass over the query workload,
    /// seconds.
    pub query_secs: f64,
    /// Query-time skew across shards (slowest / mean wall time).
    pub query_shard_skew: f64,
    /// Disk probes issued against each shard during the measured query
    /// pass, in shard order.
    pub shard_probes: Vec<u64>,
    /// Whether the sharded results matched the single-index reference
    /// bit for bit.
    pub identical: bool,
}

/// The full E-SHARD report (serialized to `BENCH_shard.json`).
#[derive(Debug, Clone, serde::Serialize)]
pub struct ShardReport {
    /// Report format version ([`SHARD_REPORT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Generator seed.
    pub seed: u64,
    /// Dataset scale factor.
    pub scale: f64,
    /// Cores the OS reports as available — the hard ceiling on any
    /// build speedup, whatever the shard count.
    pub cores: usize,
    /// Graphs in the corpus.
    pub graphs: usize,
    /// Queries in the workload.
    pub queries: usize,
    /// Thread count handed to the query passes.
    pub threads: usize,
    /// Wall clock of the single-index baseline build, best of the
    /// timing rounds, seconds.
    pub single_build_secs: f64,
    /// One row per shard count.
    pub rows: Vec<ShardRow>,
}

/// Runs the E-SHARD comparison: a single-index baseline build + query
/// pass, then one sharded build + scatter/gather pass per entry of
/// `shard_counts`, with hash placement throughout. Results are checked
/// bit-identical against the baseline.
pub fn run_shard(seed: u64, scale: Scale, threads: usize, shard_counts: &[usize]) -> ShardReport {
    const ROUNDS: usize = 2;
    let corpus = PinCorpus::generate(seed, 16, scale.0);
    let graphs = corpus.db.iter().count();
    let query_ids = corpus.queries(None);
    let queries: Vec<&Graph> = query_ids.iter().map(|&g| corpus.db.graph(g)).collect();
    let params = TaleParams::bind();
    let opts = QueryOptions::bind().with_cache(false).with_threads(threads);

    // Baseline: the unsharded build and its answers.
    let mut single_build_secs = f64::INFINITY;
    let mut single = None;
    for _ in 0..ROUNDS {
        let (db, secs) =
            timed(|| TaleDatabase::build_in_temp(corpus.db.clone(), &params).expect("index build"));
        if secs < single_build_secs {
            single_build_secs = secs;
            single = Some(db);
        }
    }
    let single = single.expect("at least one build round");
    let reference = single.query_batch(&queries, &opts).expect("baseline query");

    let rows = shard_counts
        .iter()
        .map(|&nshards| {
            let mut build_secs = f64::INFINITY;
            let mut built = None;
            for _ in 0..ROUNDS {
                let dir = tempfile::tempdir().expect("tempdir");
                let (out, secs) = timed(|| {
                    TaleDatabase::build_with_stats(
                        corpus.db.clone(),
                        dir.path(),
                        &params,
                        nshards,
                        &HashPolicy,
                    )
                    .expect("sharded build")
                });
                // keep the stats from the same round as the best time,
                // so the per-shard breakdown matches `build_secs`
                if secs < build_secs {
                    build_secs = secs;
                    built = Some((out, dir));
                }
            }
            let ((sharded, bstats), _dir) = built.expect("at least one build round");

            let ((results, qstats), query_secs) = timed(|| {
                sharded
                    .query_batch_with_stats(&queries, &opts)
                    .expect("sharded query")
            });
            ShardRow {
                shards: nshards,
                build_secs,
                max_shard_build_secs: bstats.per_shard_secs.iter().copied().fold(0.0, f64::max),
                build_skew: bstats.skew(),
                graphs_per_shard: bstats.graphs_per_shard.clone(),
                build_speedup: single_build_secs / build_secs,
                query_secs,
                query_shard_skew: qstats.shard_skew(),
                // readers come in (base, delta) pairs, one pair per shard
                shard_probes: qstats
                    .shards
                    .chunks(2)
                    .map(|pair| pair.iter().map(|s| s.probes).sum())
                    .collect(),
                identical: super::speedup::identical(&reference, &results),
            }
        })
        .collect();

    ShardReport {
        schema_version: SHARD_REPORT_SCHEMA_VERSION,
        seed,
        scale: scale.0,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        graphs,
        queries: queries.len(),
        threads,
        single_build_secs,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sharding must not change answers at any shard count, placement
    /// must cover every shard, and the ratio is only loosely bounded —
    /// on a 1-core runner the honest build speedup is ~1x, so the test
    /// asserts sanity (not pathological), never a floor above 1.
    #[test]
    fn shard_report_is_identical_and_sane() {
        let r = run_shard(44, Scale(0.02), 2, &[1, 2, 4]);
        assert_eq!(r.schema_version, SHARD_REPORT_SCHEMA_VERSION);
        assert_eq!(r.rows.len(), 3);
        assert!(r.graphs > 1 && r.queries > 0 && r.cores > 0);
        for row in &r.rows {
            assert!(row.identical, "{} shards: answers diverged", row.shards);
            assert_eq!(row.graphs_per_shard.len(), row.shards);
            assert_eq!(row.shard_probes.len(), row.shards);
            assert_eq!(
                row.graphs_per_shard.iter().sum::<usize>(),
                r.graphs,
                "{} shards: placement must cover every graph",
                row.shards
            );
            assert!(row.build_skew >= 1.0 || row.shards == 1);
            assert!(
                row.build_speedup > 0.2,
                "{} shards: build pathologically slow ({}x)",
                row.shards,
                row.build_speedup
            );
        }
    }
}
