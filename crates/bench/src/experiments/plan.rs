//! E-PLAN — cost-based planning vs the fixed pipeline on a skewed,
//! label-clustered corpus.
//!
//! The planner's whole contract is "same answers, less traffic": probe
//! reordering, readahead budgets, and shard pruning may only change *how*
//! the index is read, never *what* comes back. This harness builds the
//! corpus shape the planner was designed for — several label *domains*
//! with private label subspaces, placed with `LabelClusteredPolicy` so
//! each shard's vocabulary is narrow — then runs the same top-K workload
//! twice, `PlanMode::Fixed` vs `PlanMode::Cost`, with the result cache
//! off so every probe hits the index. The report records both passes'
//! probe/posting/row traffic and wall clock, the cost pass's pruned-shard
//! and reordered-probe counters, and whether the answers were
//! bit-identical (CI fails the smoke job if they are not, or if the cost
//! pass never proved a single shard prunable).
//!
//! Each query confines its labels to one domain and leads with that
//! domain's *hot* label on its highest-degree node: shards holding no
//! graph of the domain are provably infeasible (pruned), and the hot
//! probe's large row estimate pushes it behind the rare-label probes
//! (reordered).

use crate::{timed, Scale};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tale::shard::LabelClusteredPolicy;
use tale::{PlanMode, QueryOptions, TaleDatabase, TaleParams};
use tale_graph::{Graph, GraphDb};

/// Schema version stamped into `BENCH_plan.json`.
pub const PLAN_REPORT_SCHEMA_VERSION: u32 = 1;

/// One execution pass (fixed or cost) over the whole workload.
#[derive(Debug, Clone, serde::Serialize)]
pub struct PlanPassRow {
    /// Plan mode of this pass (`fixed` / `cost`).
    pub mode: String,
    /// Disk probes issued across all shards (after signature dedup).
    pub probes_issued: u64,
    /// B+-tree keys visited across all shards.
    pub keys_scanned: u64,
    /// Postings fetched across all shards.
    pub postings_fetched: u64,
    /// Bitmap rows examined across all shards.
    pub rows_examined: u64,
    /// `(unique query, shard)` executions the planner skipped with a
    /// conservative proof (always 0 in fixed mode).
    pub shards_pruned: u64,
    /// Executed unique queries whose probes ran in cost order rather
    /// than important-node order (always 0 in fixed mode).
    pub probes_reordered: u64,
    /// Wall clock of the pass, seconds.
    pub wall_secs: f64,
}

/// The full E-PLAN report (serialized to `BENCH_plan.json`).
#[derive(Debug, Clone, serde::Serialize)]
pub struct PlanExpReport {
    /// Report format version ([`PLAN_REPORT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Generator seed.
    pub seed: u64,
    /// Dataset scale factor.
    pub scale: f64,
    /// Cores the OS reports as available.
    pub cores: usize,
    /// Graphs in the corpus.
    pub graphs: usize,
    /// Label domains the corpus is split into.
    pub domains: usize,
    /// Queries in the workload.
    pub queries: usize,
    /// Shard count (label-clustered placement).
    pub shards: usize,
    /// Thread count handed to both passes.
    pub threads: usize,
    /// Top-K cutoff of the workload.
    pub top_k: usize,
    /// The baseline pass (`PlanMode::Fixed`).
    pub fixed: PlanPassRow,
    /// The planned pass (`PlanMode::Cost`).
    pub cost: PlanPassRow,
    /// Whether the two passes' answers matched bit for bit.
    pub identical: bool,
}

/// Labels per domain; label 0 of each domain is its *hot* label.
const LABELS_PER_DOMAIN: usize = 5;

/// Draws a domain-confined label id: the hot label half the time, a
/// uniform rare one otherwise.
fn domain_label(rng: &mut ChaCha8Rng, base: u32) -> u32 {
    if rng.gen_bool(0.5) {
        base
    } else {
        base + 1 + rng.gen_range(0..LABELS_PER_DOMAIN as u32 - 1)
    }
}

/// A connected simple graph of `n` nodes over one domain's labels: a ring
/// plus a few random chords.
fn domain_graph(rng: &mut ChaCha8Rng, base: u32, n: usize) -> Graph {
    let mut g = Graph::new_undirected();
    for _ in 0..n {
        g.add_node(tale_graph::labels::NodeLabel(domain_label(rng, base)));
    }
    let mut edges: std::collections::BTreeSet<(u32, u32)> = (1..n as u32)
        .map(|j| (j - 1, j))
        .chain(std::iter::once((0, n as u32 - 1)))
        .collect();
    while edges.len() < n + n / 3 {
        let a = rng.gen_range(0..n as u32);
        let b = rng.gen_range(0..n as u32);
        if a != b {
            edges.insert((a.min(b), a.max(b)));
        }
    }
    for (a, b) in edges {
        g.add_edge(tale_graph::NodeId(a), tale_graph::NodeId(b))
            .expect("deduplicated simple edges");
    }
    g
}

/// A query over one domain: a hot-labeled hub of degree 5 (probed first
/// by importance, estimated expensive) plus a rare-labeled hub of degree
/// 4 (estimated cheap — the cost order flips the two), over shared
/// leaves.
fn domain_query(rng: &mut ChaCha8Rng, base: u32) -> Graph {
    let mut g = Graph::new_undirected();
    let hot = g.add_node(tale_graph::labels::NodeLabel(base));
    let rare = g.add_node(tale_graph::labels::NodeLabel(
        base + 1 + rng.gen_range(0..LABELS_PER_DOMAIN as u32 - 1),
    ));
    let leaves: Vec<_> = (0..5)
        .map(|_| g.add_node(tale_graph::labels::NodeLabel(domain_label(rng, base))))
        .collect();
    for &l in &leaves[..4] {
        g.add_edge(hot, l).expect("fresh edge");
    }
    for &l in &leaves[1..4] {
        g.add_edge(rare, l).expect("fresh edge");
    }
    g.add_edge(hot, rare).expect("fresh edge");
    g.add_edge(rare, leaves[4]).expect("fresh edge");
    g
}

/// Runs the E-PLAN comparison: one skewed label-clustered corpus, one
/// top-K workload, two passes (fixed, then cost), answers checked
/// bit-identical.
pub fn run_plan(seed: u64, scale: Scale, threads: usize, nshards: usize) -> PlanExpReport {
    const DOMAINS: usize = 6;
    const TOP_K: usize = 8;
    let per_domain = ((60.0 * scale.0).round() as usize).max(4);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x504c_414e); // "PLAN"

    let mut db = GraphDb::new();
    // Intern every domain's private label subspace up front so label id =
    // domain * LABELS_PER_DOMAIN + offset.
    for d in 0..DOMAINS {
        for j in 0..LABELS_PER_DOMAIN {
            db.intern_node_label(&format!("d{d}-l{j}"));
        }
    }
    for d in 0..DOMAINS {
        let base = (d * LABELS_PER_DOMAIN) as u32;
        for i in 0..per_domain {
            let n = rng.gen_range(8..16);
            db.insert(format!("d{d}g{i}"), domain_graph(&mut rng, base, n));
        }
    }
    let graphs = db.len();

    let queries: Vec<Graph> = (0..DOMAINS * 2)
        .map(|q| domain_query(&mut rng, ((q % DOMAINS) * LABELS_PER_DOMAIN) as u32))
        .collect();
    let query_refs: Vec<&Graph> = queries.iter().collect();

    let dir = tempfile::tempdir().expect("tempdir");
    let (sharded, _build) = TaleDatabase::build_with_stats(
        db,
        dir.path(),
        &TaleParams::bind(),
        nshards,
        &LabelClusteredPolicy,
    )
    .expect("sharded build");

    let mut base_opts = QueryOptions::bind()
        .with_cache(false)
        .with_threads(threads)
        .with_top_k(TOP_K);
    // Both hubs must be probed for reordering to be observable: 7-node
    // queries at the BIND default Pimp=0.15 select a single important
    // node, so raise the fraction to two.
    base_opts.p_imp = 0.3;
    let pass = |mode: PlanMode| {
        let opts = base_opts.clone().with_plan(mode);
        let ((results, stats), wall_secs) = timed(|| {
            sharded
                .query_batch_with_stats(&query_refs, &opts)
                .expect("query pass")
        });
        let row = PlanPassRow {
            mode: mode.name().to_owned(),
            probes_issued: stats.probes_issued,
            keys_scanned: stats.shards.iter().map(|s| s.keys_scanned).sum(),
            postings_fetched: stats.shards.iter().map(|s| s.postings_fetched).sum(),
            rows_examined: stats.shards.iter().map(|s| s.rows_examined).sum(),
            shards_pruned: stats.shards_pruned,
            probes_reordered: stats.probes_reordered,
            wall_secs,
        };
        (results, row)
    };
    let (reference, fixed) = pass(PlanMode::Fixed);
    let (planned, cost) = pass(PlanMode::Cost);

    PlanExpReport {
        schema_version: PLAN_REPORT_SCHEMA_VERSION,
        seed,
        scale: scale.0,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        graphs,
        domains: DOMAINS,
        queries: queries.len(),
        shards: nshards,
        threads,
        top_k: TOP_K,
        fixed,
        cost,
        identical: super::speedup::identical(&reference, &planned),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The planner must change traffic, not answers: bit-identical
    /// results, at least one shard provably pruned, at least one query's
    /// probes reordered, and strictly fewer probes than the fixed pass.
    #[test]
    fn planned_pass_is_identical_and_prunes() {
        let r = run_plan(44, Scale(0.02), 2, 4);
        assert_eq!(r.schema_version, PLAN_REPORT_SCHEMA_VERSION);
        assert!(r.identical, "fixed and cost answers diverged");
        assert_eq!(r.fixed.shards_pruned, 0);
        assert_eq!(r.fixed.probes_reordered, 0);
        assert!(r.cost.shards_pruned > 0, "no shard was ever pruned");
        assert!(r.cost.probes_reordered > 0, "no probe was ever reordered");
        assert!(
            r.cost.probes_issued < r.fixed.probes_issued,
            "pruning must reduce issued probes ({} vs {})",
            r.cost.probes_issued,
            r.fixed.probes_issued
        );
        assert!(r.cost.postings_fetched <= r.fixed.postings_fetched);
    }
}
