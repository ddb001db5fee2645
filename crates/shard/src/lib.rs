//! Compatibility façade over [`tale::shard`].
//!
//! Sharding lives in the `tale` crate: every [`TaleDatabase`] is a
//! partitioned database of `N ≥ 1` shards, and the paper's single index is
//! its one-shard case. This crate only keeps the older entry points
//! alive for the benchmark harness in `talebench/`, which builds against
//! them and is kept unchanged between benchmark revisions:
//! [`ShardedTaleDatabase::build`] with its five arguments, and the
//! re-exported placement policies and manifest. Everything else — the
//! server, the CLI, the experiments and the tests — uses
//! [`tale::TaleDatabase`] directly; new code should too.

pub use tale::shard::*;

use std::path::Path;
use tale::{TaleDatabase, TaleParams};
use tale_graph::GraphDb;

/// A [`TaleDatabase`] built through the older sharded entry point. It
/// dereferences to the database, which serves every query and mutation.
pub struct ShardedTaleDatabase(pub TaleDatabase);

impl ShardedTaleDatabase {
    /// [`TaleDatabase::build_sharded`] under its older name.
    pub fn build(
        db: GraphDb,
        dir: &Path,
        params: &TaleParams,
        nshards: usize,
        policy: &dyn ShardPolicy,
    ) -> tale::Result<Self> {
        TaleDatabase::build_sharded(db, dir, params, nshards, policy).map(ShardedTaleDatabase)
    }
}

impl std::ops::Deref for ShardedTaleDatabase {
    type Target = TaleDatabase;

    fn deref(&self) -> &TaleDatabase {
        &self.0
    }
}
