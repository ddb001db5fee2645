//! The load-bearing contract of the sharded database: query output is
//! **bit-identical** to the unsharded reference ([`support::Reference`]:
//! one generational index, no shard layer) at every shard count and every
//! thread count — including after interleaved insert/remove/fold
//! mutations, and regardless of placement policy.

mod support;

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use support::{assert_bit_identical, Reference};
use tale::shard::{HashPolicy, ShardPolicy, SizeBalancedPolicy};
use tale::{QueryOptions, TaleDatabase, TaleParams};
use tale_graph::generate::{gnm, mutate, MutationRates};
use tale_graph::{Graph, GraphDb};

const LABELS: u32 = 6;
const SHARD_COUNTS: &[usize] = &[1, 2, 4, 7];
const THREAD_COUNTS: &[usize] = &[0, 1, 4];

fn corpus(seed: u64, n_graphs: usize) -> (GraphDb, Vec<Graph>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut db = GraphDb::new();
    for i in 0..LABELS {
        db.intern_node_label(&format!("L{i}"));
    }
    let mut originals = Vec::new();
    for i in 0..n_graphs {
        let g = gnm(&mut rng, 30, 60, LABELS);
        let (noisy, _) = mutate(&mut rng, &g, &MutationRates::mild(), LABELS);
        db.insert(format!("g{i}"), noisy);
        originals.push(g);
    }
    (db, originals)
}

/// The full grid: shard counts {1, 2, 4, 7} × thread counts {0, 1, 4} ×
/// placement policies, against the unsharded reference.
#[test]
fn sharded_equals_unsharded_across_shard_and_thread_grid() {
    let (db, originals) = corpus(41, 8);
    let params = TaleParams::default();
    let queries: Vec<&Graph> = originals.iter().collect();
    let base = QueryOptions {
        rho: 0.25,
        p_imp: 0.25,
        ..Default::default()
    }
    .with_cache(false);

    let reference =
        Reference::build(db.clone(), &params).query_batch(&queries, &base.clone().with_threads(1));

    let policies: [&dyn ShardPolicy; 2] = [&HashPolicy, &SizeBalancedPolicy];
    for policy in policies {
        for &nshards in SHARD_COUNTS {
            let dir = tempfile::tempdir().unwrap();
            let sharded =
                TaleDatabase::build_sharded(db.clone(), dir.path(), &params, nshards, policy)
                    .unwrap();
            for &threads in THREAD_COUNTS {
                let got = sharded
                    .query_batch(&queries, &base.clone().with_threads(threads))
                    .unwrap();
                assert_bit_identical(
                    &reference,
                    &got,
                    &format!(
                        "policy={} shards={nshards} threads={threads}",
                        policy.name()
                    ),
                );
            }
        }
    }
}

/// Identity must survive mutation: after the same interleaved
/// insert/remove/fold sequence on the database and the reference, every
/// (shard count, thread count) combination still returns the reference
/// answer bit for bit — the fold folds every shard against one graph
/// store, so all shards keep the reference's neighbor-array scheme.
#[test]
fn sharded_equals_unsharded_after_interleaved_insert_remove_fold() {
    let (db, originals) = corpus(42, 6);
    let params = TaleParams::default();
    let queries: Vec<&Graph> = originals.iter().collect();
    let opts = QueryOptions {
        rho: 0.25,
        p_imp: 0.25,
        ..Default::default()
    };
    // extra graphs to insert mid-stream
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    let extras: Vec<Graph> = (0..3).map(|_| gnm(&mut rng, 30, 60, LABELS)).collect();

    for &nshards in &[1, 2, 3, 4, 7] {
        let mut single = Reference::build(db.clone(), &params);
        let dir = tempfile::tempdir().unwrap();
        let sharded =
            TaleDatabase::build_sharded(db.clone(), dir.path(), &params, nshards, &HashPolicy)
                .unwrap();

        // warm the caches, then interleave: insert, remove, insert,
        // query, remove, insert — caches must stay exactly coherent
        let _ = sharded.query_batch(&queries, &opts).unwrap();

        let g0 = single.insert_graph("x0", extras[0].clone());
        let s0 = sharded.insert_graph("x0", extras[0].clone()).unwrap();
        assert_eq!(g0, s0, "insertion ids must agree");

        single.remove_graph(g0);
        sharded.remove_graph(s0).unwrap();

        let g1 = single.insert_graph("x1", extras[1].clone());
        let s1 = sharded.insert_graph("x1", extras[1].clone()).unwrap();
        assert_eq!(g1, s1);

        let mid_single = single.query_batch(&queries, &opts);
        let mid_sharded = sharded.query_batch(&queries, &opts).unwrap();
        assert_bit_identical(
            &mid_single,
            &mid_sharded,
            &format!("shards={nshards} mid-stream"),
        );

        single.fold();
        sharded.fold().unwrap();
        let folded_single = single.query_batch(&queries, &opts);
        let folded_sharded = sharded.query_batch(&queries, &opts).unwrap();
        assert_bit_identical(
            &folded_single,
            &folded_sharded,
            &format!("shards={nshards} after fold"),
        );
        assert_bit_identical(
            &mid_single,
            &folded_single,
            &format!("shards={nshards} fold changed answers"),
        );

        single.remove_graph(tale_graph::GraphId(1));
        sharded.remove_graph(tale_graph::GraphId(1)).unwrap();
        let g2 = single.insert_graph("x2", extras[2].clone());
        let s2 = sharded.insert_graph("x2", extras[2].clone()).unwrap();
        assert_eq!(g2, s2);
        single.fold();
        sharded.fold().unwrap();
        // a delta on top of a folded generation, then a reopen that
        // re-derives it from disk
        single.remove_graph(g1);
        sharded.remove_graph(s1).unwrap();
        drop(sharded);
        let sharded = TaleDatabase::open(dir.path(), params.buffer_frames).unwrap();

        for &threads in THREAD_COUNTS {
            let o = opts.clone().with_threads(threads);
            let want = single.query_batch(&queries, &o);
            let got = sharded.query_batch(&queries, &o).unwrap();
            assert_bit_identical(
                &want,
                &got,
                &format!("shards={nshards} threads={threads} after mutations"),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized spot checks over seeds and grid points (cheap cases
    /// only; the exhaustive grid above covers the fixed corners).
    #[test]
    fn sharded_identity_holds_for_random_corpora(
        seed in 100u64..200,
        nshards in 1usize..6,
        threads in 0usize..3,
    ) {
        let (db, originals) = corpus(seed, 4);
        let params = TaleParams::default();
        let queries: Vec<&Graph> = originals.iter().collect();
        let opts = QueryOptions {
            rho: 0.25,
            p_imp: 0.25,
            ..Default::default()
        }
        .with_cache(false)
        .with_threads(threads);

        let want = Reference::build(db.clone(), &params).query_batch(&queries, &opts);
        let dir = tempfile::tempdir().unwrap();
        let sharded =
            TaleDatabase::build_sharded(db, dir.path(), &params, nshards, &HashPolicy).unwrap();
        let got = sharded.query_batch(&queries, &opts).unwrap();
        assert_bit_identical(&want, &got, &format!("seed={seed} shards={nshards} threads={threads}"));
    }
}
