//! The partitioned NH-Index behind every [`TaleDatabase`](crate::TaleDatabase).
//!
//! A database directory holds `N ≥ 1` fully independent generational
//! NH-Indexes ("shards"), each covering a disjoint subset of the graphs.
//! The paper's single NH-Index is the `N = 1` case; larger `N` spread the
//! same design over several parts:
//!
//! * **build** — each shard extracts, sorts, and bulk-loads its own
//!   B+-tree with no cross-shard synchronization
//!   ([`ShardedNhIndex::build_with_stats`]), so the serial sort + merge
//!   of a one-index build is itself partitioned;
//! * **query** — the staged engine scatters the probe/anchor/grow
//!   pipeline across every shard's base and delta readers and gathers
//!   with a deterministic merge, so answers are bit-identical at any
//!   shard count and any thread count (the argument lives in
//!   `crate::engine::exec`);
//! * **mutate** — inserts route to one owning shard's delta and commit
//!   by the `shards.json` assignment length; removals tombstone the
//!   owning shard; folds move every shard one generation on.
//!
//! Graph placement is pluggable via [`ShardPolicy`]: hash-by-id
//! ([`HashPolicy`], the default), size-balanced ([`SizeBalancedPolicy`]),
//! or label-clustered ([`LabelClusteredPolicy`] — the one that lets the
//! cost-based planner prove whole shards prunable for a query). The shard
//! map is persisted in the `shards.json` manifest ([`ShardManifest`])
//! next to the `shard-NNN/` index directories, along with per-shard
//! statistics summaries ([`ShardStatsSummary`]) for `tale-cli stats`.

mod index;
mod manifest;
mod policy;

pub use index::{ShardBuildStats, ShardedNhIndex};
pub use manifest::{
    vocab_fingerprint, ShardManifest, ShardStatsSummary, MANIFEST_FILE, MANIFEST_SCHEMA_VERSION,
};
pub use policy::{
    policy_by_name, HashPolicy, LabelClusteredPolicy, ShardPolicy, SizeBalancedPolicy,
};
