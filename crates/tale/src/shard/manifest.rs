//! The `shards.json` manifest: the persisted shard map.
//!
//! Every database directory, whatever its shard count, looks like
//!
//! ```text
//! index-dir/
//!   shards.json      <- this manifest
//!   graphs.json      <- the graph database
//!   shard-000/       <- a generational NH-Index: mvcc.json + gens/gN/
//!   shard-001/       <- (N > 1 only)
//!   ...
//! ```
//!
//! The manifest is the ground truth for placement: `assignment[gid]`
//! names the one shard whose index carries that graph's postings. It also
//! records a per-shard fingerprint of the vocabulary each shard was built
//! (or last extended) against; [`ShardedNhIndex::open_with_recovery`] refuses to serve
//! queries when a fingerprint disagrees with the reloaded database, which
//! catches a `graphs.json` swapped or edited behind the index's back.
//!
//! [`ShardedNhIndex::open_with_recovery`]: crate::shard::ShardedNhIndex::open_with_recovery

use super::policy::{policy_by_name, ShardPolicy};
use crate::{Result, TaleError};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use tale_graph::{GraphDb, GraphId};
use tale_nhindex::IndexStatistics;

/// Manifest file name inside a database directory.
pub const MANIFEST_FILE: &str = "shards.json";

/// Current manifest schema version (bumped on incompatible change).
/// Version 2: every `shard-NNN/` is a generational index (`mvcc.json` +
/// `gens/gN/`), and the assignment length is the insert commit point.
/// Version 1 shards were plain index directories mutated in place; their
/// manifests are refused rather than served.
pub const MANIFEST_SCHEMA_VERSION: u32 = 2;

/// The persisted shard map (see the module docs for the directory layout).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardManifest {
    /// Manifest format version ([`MANIFEST_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Number of shards (`shard-000` .. `shard-{N-1}`).
    pub shard_count: u32,
    /// Name of the placement policy that produced `assignment`
    /// ([`crate::shard::ShardPolicy::name`]); resolved again for routing late
    /// inserts.
    pub policy: String,
    /// `assignment[gid]` = owning shard, indexed by [`GraphId::idx`].
    pub assignment: Vec<u32>,
    /// Per-shard fingerprint of the vocabulary (node + edge + group map)
    /// the shard's index was built or last extended against.
    pub vocab_fingerprints: Vec<u64>,
    /// Per-shard statistics summaries of the base generations, refreshed
    /// whenever the manifest is rewritten. **Observability only**
    /// (`tale-cli stats`, dashboards): they describe the bases as of the
    /// last insert and miss later deltas and folds, so the planner reads
    /// each shard's live statistics instead — the manifest copy may
    /// *under*estimate, which would be the unsafe direction for pruning.
    /// Absent in pre-statistics manifests (`serde` default: empty).
    #[serde(default)]
    pub shard_stats: Vec<ShardStatsSummary>,
}

/// A compact, human-oriented digest of one shard's [`IndexStatistics`],
/// embedded in the manifest for `tale-cli stats` and the E-PLAN
/// experiment. Never used for planning decisions (see
/// [`ShardManifest::shard_stats`]).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ShardStatsSummary {
    /// Whether the shard exposed statistics at the last manifest write
    /// (false for indexes built before the statistics subsystem).
    pub present: bool,
    /// Graphs indexed (including later-tombstoned ones).
    pub graphs: u64,
    /// Nodes indexed.
    pub nodes: u64,
    /// Distinct B+-tree keys.
    pub keys: u64,
    /// Distinct effective labels with at least one node.
    pub labels: usize,
    /// Largest node degree in the shard.
    pub max_degree: u32,
    /// Median posting-list length (rows per key).
    pub posting_p50: u64,
    /// 90th-percentile posting-list length.
    pub posting_p90: u64,
    /// 99th-percentile posting-list length.
    pub posting_p99: u64,
    /// Inserts merged since the last exact rebuild of the statistics
    /// (build/fold) — the staleness generation: 0 means exact.
    pub stale_inserts: u64,
}

impl From<&IndexStatistics> for ShardStatsSummary {
    fn from(s: &IndexStatistics) -> Self {
        ShardStatsSummary {
            present: true,
            graphs: s.graph_count,
            nodes: s.node_count,
            keys: s.key_count,
            labels: s.labels.len(),
            max_degree: s.max_degree,
            posting_p50: s.posting_rows.p50,
            posting_p90: s.posting_rows.p90,
            posting_p99: s.posting_rows.p99,
            stale_inserts: s.stale_inserts,
        }
    }
}

impl ShardManifest {
    /// The shard owning `gid`, or `None` for an id the manifest has never
    /// seen.
    pub fn shard_of(&self, gid: GraphId) -> Option<u32> {
        self.assignment.get(gid.idx()).copied()
    }

    /// All graph ids assigned to `shard`, in ascending id order.
    pub fn graphs_of(&self, shard: u32) -> Vec<GraphId> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == shard)
            .map(|(i, _)| GraphId(i as u32))
            .collect()
    }

    /// The placement policy named by the manifest, which routes late
    /// inserts and places a compaction's rebuild.
    pub fn policy(&self) -> Result<Box<dyn ShardPolicy>> {
        policy_by_name(&self.policy)
            .ok_or_else(|| TaleError::Manifest(format!("unknown routing policy {:?}", self.policy)))
    }

    /// Directory of one shard's NH-Index under the sharded root.
    pub fn shard_dir(root: &Path, shard: u32) -> PathBuf {
        root.join(format!("shard-{shard:03}"))
    }

    /// Writes the manifest to `root/shards.json` atomically (temp file +
    /// fsync + rename), so a crash mid-save leaves either the old or the
    /// new manifest — never a torn one.
    pub fn save(&self, root: &Path) -> Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| TaleError::Manifest(format!("serialize: {e}")))?;
        tale_storage::atomic::write_atomic(&root.join(MANIFEST_FILE), json.as_bytes())?;
        Ok(())
    }

    /// Reads the manifest from `root/shards.json` and checks internal
    /// consistency (schema version, assignment range, fingerprint count).
    /// A directory holding a root-level `mvcc.json` but no manifest is the
    /// retired single-index layout, whose inserts committed by a counter
    /// this build no longer keeps: it is refused, never guessed at.
    pub fn load(root: &Path) -> Result<ShardManifest> {
        if !Self::exists(root) && root.join(tale_nhindex::mvcc::MVCC_FILE).is_file() {
            return Err(TaleError::Manifest(format!(
                "{} holds the single-index layout (mvcc.json, no {MANIFEST_FILE}); \
                 rebuild it from its graphs.json",
                root.display()
            )));
        }
        let raw = std::fs::read_to_string(root.join(MANIFEST_FILE))?;
        let m: ShardManifest =
            serde_json::from_str(&raw).map_err(|e| TaleError::Manifest(format!("parse: {e}")))?;
        if m.schema_version != MANIFEST_SCHEMA_VERSION {
            return Err(TaleError::Manifest(format!(
                "schema version {} (this build reads {})",
                m.schema_version, MANIFEST_SCHEMA_VERSION
            )));
        }
        if m.shard_count == 0 {
            return Err(TaleError::Manifest("shard_count is zero".into()));
        }
        if m.vocab_fingerprints.len() != m.shard_count as usize {
            return Err(TaleError::Manifest(format!(
                "{} fingerprints for {} shards",
                m.vocab_fingerprints.len(),
                m.shard_count
            )));
        }
        if let Some(&bad) = m.assignment.iter().find(|&&s| s >= m.shard_count) {
            return Err(TaleError::Manifest(format!(
                "assignment names shard {bad} but shard_count is {}",
                m.shard_count
            )));
        }
        Ok(m)
    }

    /// Whether a directory holds a database (manifest present).
    pub fn exists(root: &Path) -> bool {
        root.join(MANIFEST_FILE).is_file()
    }
}

/// Fingerprint of everything the index's key space depends on besides the
/// graphs themselves: node vocabulary, edge vocabulary, and the §IV-E
/// group map (which rewrites effective labels). FNV-1a over a
/// length-prefixed serialization, stable across platforms.
pub fn vocab_fingerprint(db: &GraphDb) -> u64 {
    fn eat(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (id, name) in db.node_vocab().iter() {
        eat(&mut h, &id.to_le_bytes());
        eat(&mut h, &(name.len() as u64).to_le_bytes());
        eat(&mut h, name.as_bytes());
    }
    eat(&mut h, &[0xff]); // domain separator: node vocab | edge vocab
    for (id, name) in db.edge_vocab().iter() {
        eat(&mut h, &id.to_le_bytes());
        eat(&mut h, &(name.len() as u64).to_le_bytes());
        eat(&mut h, name.as_bytes());
    }
    eat(&mut h, &[0xfe]); // edge vocab | group map
    if let Some(groups) = db.group_map() {
        for &g in groups {
            eat(&mut h, &g.to_le_bytes());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_lookup() {
        let dir = tempfile::tempdir().unwrap();
        let m = ShardManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            shard_count: 3,
            policy: "hash".into(),
            assignment: vec![2, 0, 1, 2, 0],
            vocab_fingerprints: vec![7, 7, 7],
            shard_stats: Vec::new(),
        };
        m.save(dir.path()).unwrap();
        assert!(ShardManifest::exists(dir.path()));
        let back = ShardManifest::load(dir.path()).unwrap();
        assert_eq!(back.shard_count, 3);
        assert_eq!(back.assignment, m.assignment);
        assert_eq!(back.shard_of(GraphId(0)), Some(2));
        assert_eq!(back.shard_of(GraphId(9)), None);
        assert_eq!(back.graphs_of(2), vec![GraphId(0), GraphId(3)]);
        assert_eq!(
            ShardManifest::shard_dir(dir.path(), 2),
            dir.path().join("shard-002")
        );
    }

    #[test]
    fn load_rejects_inconsistencies() {
        let dir = tempfile::tempdir().unwrap();
        assert!(ShardManifest::load(dir.path()).is_err()); // missing

        let mut m = ShardManifest {
            schema_version: MANIFEST_SCHEMA_VERSION + 1,
            shard_count: 2,
            policy: "hash".into(),
            assignment: vec![0, 1],
            vocab_fingerprints: vec![1, 2],
            shard_stats: Vec::new(),
        };
        m.save(dir.path()).unwrap();
        assert!(ShardManifest::load(dir.path()).is_err()); // bad version

        m.schema_version = MANIFEST_SCHEMA_VERSION;
        m.assignment = vec![0, 5];
        m.save(dir.path()).unwrap();
        assert!(ShardManifest::load(dir.path()).is_err()); // shard out of range

        m.assignment = vec![0, 1];
        m.vocab_fingerprints = vec![1];
        m.save(dir.path()).unwrap();
        assert!(ShardManifest::load(dir.path()).is_err()); // fingerprint count

        m.vocab_fingerprints = vec![1, 2];
        m.save(dir.path()).unwrap();
        assert!(ShardManifest::load(dir.path()).is_ok());
    }

    #[test]
    fn load_refuses_the_in_place_layout() {
        // a version-1 manifest describes shards mutated in place (no
        // mvcc.json): refused with both versions named, never served
        let dir = tempfile::tempdir().unwrap();
        let json = r#"{
            "schema_version": 1,
            "shard_count": 2,
            "policy": "hash",
            "assignment": [0, 1],
            "vocab_fingerprints": [3, 3]
        }"#;
        std::fs::write(dir.path().join(MANIFEST_FILE), json).unwrap();
        match ShardManifest::load(dir.path()) {
            Err(TaleError::Manifest(m)) => {
                assert!(m.contains("schema version 1"), "{m}");
                assert!(
                    m.contains(&format!("reads {MANIFEST_SCHEMA_VERSION}")),
                    "{m}"
                );
            }
            other => panic!("expected a manifest refusal, got {other:?}"),
        }
    }

    #[test]
    fn load_refuses_the_single_index_layout() {
        // a root-level mvcc.json without shards.json is the retired
        // single-index layout: a typed refusal naming the fix
        let dir = tempfile::tempdir().unwrap();
        std::fs::write(dir.path().join("mvcc.json"), "{}").unwrap();
        match ShardManifest::load(dir.path()) {
            Err(TaleError::Manifest(m)) => {
                assert!(m.contains("single-index layout"), "{m}");
                assert!(m.contains("rebuild"), "{m}");
            }
            other => panic!("expected a manifest refusal, got {other:?}"),
        }
    }

    #[test]
    fn pre_statistics_manifest_loads_with_empty_summaries() {
        // a manifest written before the statistics subsystem has no
        // `shard_stats` key; serde's default must accept it
        let dir = tempfile::tempdir().unwrap();
        let json = r#"{
            "schema_version": 2,
            "shard_count": 2,
            "policy": "hash",
            "assignment": [0, 1],
            "vocab_fingerprints": [3, 3]
        }"#;
        std::fs::write(dir.path().join(MANIFEST_FILE), json).unwrap();
        let m = ShardManifest::load(dir.path()).unwrap();
        assert!(m.shard_stats.is_empty());
    }

    #[test]
    fn fingerprint_tracks_vocab_and_groups() {
        let mut db = GraphDb::new();
        db.intern_node_label("A");
        let f1 = vocab_fingerprint(&db);
        db.intern_node_label("B");
        let f2 = vocab_fingerprint(&db);
        assert_ne!(f1, f2);
        let f2_again = vocab_fingerprint(&db);
        assert_eq!(f2, f2_again);
        db.set_group(vec![0, 0]).unwrap();
        assert_ne!(vocab_fingerprint(&db), f2);
    }
}
