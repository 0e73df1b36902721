//! Differential property tests for the flat, batch-first model layer.
//!
//! The model stack runs on packed 16-byte-node [`FlatTree`]s and batch
//! inference (`predict_into`: groups of trees walked across blocks of rows).
//! These tests pin it
//! against the canonical nested-node reference: an enum walk over
//! [`TreeNode`]s — the representation trees serialize as — re-implemented
//! the obvious way. For random fitted trees, forests and GBDTs (including
//! degenerate stumps, single-leaf and zero-feature trees, tree counts that
//! are not multiples of the walk's group size, batches of one and of several
//! row blocks, non-finite features and empty batches) the scalar walk, the
//! batch kernel and the reference must agree **exactly** (bit identity,
//! not tolerance), and serde round-trips through the canonical form must
//! re-pack to the same trees and predictions.

use netsched::mlcore::{
    Dataset, DecisionTree, DecisionTreeConfig, FeatureMatrix, FlatTree, GradientBoosting,
    GradientBoostingConfig, ModelConfig, ModelKind, RandomForest, RandomForestConfig, Regressor,
    TrainedModel, TreeNode,
};
use netsched::simcore::rng::Rng;
use proptest::prelude::*;

/// The reference prediction: walk the canonical nested node list exactly the
/// way the historical enum representation did.
fn reference_walk(nodes: &[TreeNode], row: &[f64]) -> f64 {
    if nodes.is_empty() {
        return 0.0;
    }
    let mut idx = 0usize;
    loop {
        match &nodes[idx] {
            TreeNode::Leaf { prediction, .. } => return *prediction,
            TreeNode::Split {
                feature,
                threshold,
                left,
                right,
                ..
            } => {
                idx = if row[*feature] <= *threshold {
                    *left
                } else {
                    *right
                };
            }
        }
    }
}

/// Reference forest prediction with the exact float-operation order of
/// `RandomForest::predict_row`.
fn reference_forest(forest: &RandomForest, row: &[f64]) -> f64 {
    if forest.tree_count() == 0 {
        return 0.0;
    }
    forest
        .trees()
        .iter()
        .map(|t| reference_walk(&t.canonical_nodes(), row))
        .sum::<f64>()
        / forest.tree_count() as f64
}

/// Reference GBDT prediction with the exact float-operation order of
/// `GradientBoosting::predict_row`.
fn reference_gbdt(model: &GradientBoosting, row: &[f64]) -> f64 {
    let mut pred = model.base_prediction();
    for tree in model.trees() {
        pred += model.learning_rate() * reference_walk(&tree.canonical_nodes(), row);
    }
    pred
}

/// Build a dataset from a flat value stream: `width` feature columns, the
/// target derived from the same stream so it correlates with the features.
fn dataset_from(values: &[f64], width: usize) -> Dataset {
    let names = (0..width).map(|i| format!("f{i}")).collect();
    let mut data = Dataset::new(names);
    for chunk in values.chunks_exact(width + 1) {
        data.push_row(&chunk[..width], chunk[width]).unwrap();
    }
    data
}

/// Probe rows: every training row plus out-of-distribution and non-finite
/// ones.
fn probe_matrix(data: &Dataset) -> FeatureMatrix {
    let width = data.n_features();
    let mut probes = FeatureMatrix::new(width);
    for i in 0..data.len() {
        probes.push_row(data.row(i));
    }
    for v in [
        -1e9,
        0.0,
        0.5,
        1e9,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        let row = probes.add_row();
        row.fill(v);
    }
    probes
}

/// Bit patterns of a prediction vector, so NaN outputs compare equal to
/// themselves.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The first `n` rows of `pool` as their own matrix.
fn first_rows(pool: &FeatureMatrix, n: usize) -> FeatureMatrix {
    let mut m = FeatureMatrix::new(pool.n_features());
    for i in 0..n {
        m.push_row(pool.row(i));
    }
    m
}

/// Row counts on both sides of one row block (`FlatTree::BLOCK` = 16): a
/// single block's row slices are fetched once for every tree group, a
/// larger batch walks each group block by block. Includes empty and
/// single-row batches.
const BATCH_SIZES: [usize; 5] = [0, 1, 6, 16, 17];

/// A 17-row probe pool of width 3 that interleaves in-range rows with NaN,
/// ±∞ and mixed non-finite features, so every batch size sees them.
fn nonfinite_pool(data: &Dataset) -> FeatureMatrix {
    let special = [
        [f64::NAN, f64::NAN, f64::NAN],
        [f64::INFINITY, f64::NEG_INFINITY, f64::NAN],
        [f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY],
        [f64::INFINITY, f64::INFINITY, f64::INFINITY],
        [f64::NAN, 50.0, f64::NEG_INFINITY],
        [25.0, f64::NAN, f64::INFINITY],
    ];
    let mut pool = FeatureMatrix::new(3);
    let mut next_special = special.iter();
    for i in 0..17 {
        match next_special.next().filter(|_| i % 3 == 0) {
            Some(row) => pool.push_row(row),
            None => pool.push_row(data.row(i)),
        }
    }
    pool
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flat scalar walk, batch kernel and the canonical enum-walk reference
    /// agree exactly for random fitted trees, including depth-0/1 stumps.
    #[test]
    fn flat_tree_matches_enum_walk_reference(
        values in prop::collection::vec(0.0f64..100.0, 30..260),
        width in 1usize..5,
        max_depth in 0usize..9,
        min_samples_leaf in 1usize..5,
        subsample_features in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let data = dataset_from(&values, width);
        let mut tree = DecisionTree::new(DecisionTreeConfig {
            max_depth,
            min_samples_split: 2,
            min_samples_leaf,
            max_features: if subsample_features == 1 { Some(1) } else { None },
        });
        let mut rng = Rng::seed_from_u64(seed);
        tree.fit(&data, &mut rng);
        prop_assert!(tree.depth() <= max_depth);

        let nodes = tree.canonical_nodes();
        prop_assert_eq!(nodes.len(), tree.node_count());
        let probes = probe_matrix(&data);
        let mut batch = Vec::new();
        tree.predict_into(&probes, &mut batch);
        prop_assert_eq!(batch.len(), probes.n_rows());
        for (i, &batched) in batch.iter().enumerate() {
            let row = probes.row(i);
            let reference = reference_walk(&nodes, row);
            prop_assert_eq!(tree.predict_row(row), reference);
            prop_assert_eq!(batched, reference);
        }

        // The canonical form re-flattens to the identical flat tree, and an
        // empty batch stays empty.
        prop_assert_eq!(&FlatTree::from_nodes(&nodes).unwrap(), tree.flat());
        tree.predict_into(&FeatureMatrix::new(width), &mut batch);
        prop_assert!(batch.is_empty());
    }

    /// Forest and GBDT batch predictions equal their per-row paths and the
    /// enum-walk reference exactly, for random ensembles.
    #[test]
    fn ensembles_match_enum_walk_reference(
        values in prop::collection::vec(0.0f64..100.0, 60..240),
        width in 1usize..4,
        n_trees in 1usize..6,
        n_rounds in 1usize..10,
        seed in 0u64..1_000_000,
    ) {
        let data = dataset_from(&values, width);
        let probes = probe_matrix(&data);
        let mut batch = Vec::new();

        let mut forest = RandomForest::new(RandomForestConfig {
            n_trees,
            workers: 2,
            tree: DecisionTreeConfig {
                max_depth: 6,
                ..Default::default()
            },
            ..Default::default()
        });
        let mut rng = Rng::seed_from_u64(seed);
        forest.fit(&data, &mut rng);
        forest.predict_into(&probes, &mut batch);
        for (i, &batched) in batch.iter().enumerate() {
            let row = probes.row(i);
            let reference = reference_forest(&forest, row);
            prop_assert_eq!(forest.predict_row(row), reference);
            prop_assert_eq!(batched, reference);
        }

        let mut gbdt = GradientBoosting::new(GradientBoostingConfig {
            n_rounds,
            validation_fraction: if seed % 2 == 0 { 0.0 } else { 0.2 },
            ..Default::default()
        });
        gbdt.fit(&data, &mut rng);
        gbdt.predict_into(&probes, &mut batch);
        for (i, &batched) in batch.iter().enumerate() {
            let row = probes.row(i);
            let reference = reference_gbdt(&gbdt, row);
            prop_assert_eq!(gbdt.predict_row(row), reference);
            prop_assert_eq!(batched, reference);
        }

        // Empty batches stay empty for both ensembles.
        forest.predict_into(&FeatureMatrix::new(width), &mut batch);
        prop_assert!(batch.is_empty());
        gbdt.predict_into(&FeatureMatrix::new(width), &mut batch);
        prop_assert!(batch.is_empty());
    }

    /// Serde round-trips go through the canonical nested node form;
    /// re-flattening must preserve every prediction exactly, per family.
    #[test]
    fn serde_roundtrip_reflattens_to_identical_predictions(
        values in prop::collection::vec(0.0f64..100.0, 60..200),
        width in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let data = dataset_from(&values, width);
        let probes = probe_matrix(&data);
        let config = ModelConfig {
            forest: RandomForestConfig {
                n_trees: 4,
                workers: 2,
                tree: DecisionTreeConfig { max_depth: 5, ..Default::default() },
                ..Default::default()
            },
            gbdt: GradientBoostingConfig { n_rounds: 6, ..Default::default() },
            ..Default::default()
        };
        let mut rng = Rng::seed_from_u64(seed);
        for kind in ModelKind::ALL {
            let model = TrainedModel::train(kind, &config, &data, &mut rng);
            let restored = TrainedModel::from_json(&model.to_json()).unwrap();
            prop_assert_eq!(restored.kind(), kind);
            let mut original = Vec::new();
            let mut reloaded = Vec::new();
            model.predict_into(&probes, &mut original);
            restored.predict_into(&probes, &mut reloaded);
            // Bitwise: a linear model maps the NaN probe row to NaN.
            prop_assert_eq!(bits(&original), bits(&reloaded));
            for (i, &expected) in original.iter().enumerate() {
                prop_assert_eq!(restored.predict_row(probes.row(i)).to_bits(), expected.to_bits());
            }
        }
    }
}

/// A degenerate stump (depth 0) is a single leaf: constant prediction, and
/// the canonical form is one `Leaf` node.
#[test]
fn degenerate_stump_is_a_single_leaf() {
    let mut data = Dataset::new(vec!["x".into()]);
    for i in 0..10 {
        data.push_row(&[i as f64], i as f64 * 2.0).unwrap();
    }
    let mut tree = DecisionTree::new(DecisionTreeConfig {
        max_depth: 0,
        ..Default::default()
    });
    let mut rng = Rng::seed_from_u64(3);
    tree.fit(&data, &mut rng);
    assert_eq!(tree.depth(), 0);
    assert_eq!(tree.node_count(), 1);
    let nodes = tree.canonical_nodes();
    assert!(matches!(nodes[0], TreeNode::Leaf { .. }));
    // Mean of 0,2,..,18 = 9.
    assert_eq!(tree.predict_row(&[123.0]), 9.0);
    let mut batch = Vec::new();
    tree.predict_into(data.matrix(), &mut batch);
    assert!(batch.iter().all(|&p| p == 9.0));
}

/// NaN feature values take the `>` branch in the flat walk — exactly what
/// the historical enum walk's `<=` comparison did.
#[test]
fn nan_features_follow_the_enum_walk_direction() {
    let mut data = Dataset::new(vec!["x".into()]);
    for i in 0..10 {
        let x = i as f64;
        data.push_row(&[x], if x < 5.0 { 10.0 } else { 20.0 })
            .unwrap();
    }
    let mut tree = DecisionTree::default();
    let mut rng = Rng::seed_from_u64(1);
    tree.fit(&data, &mut rng);
    let nodes = tree.canonical_nodes();
    let nan_row = [f64::NAN];
    assert_eq!(tree.predict_row(&nan_row), reference_walk(&nodes, &nan_row));
    let mut probes = FeatureMatrix::new(1);
    probes.push_row(&nan_row);
    let mut batch = Vec::new();
    tree.predict_into(&probes, &mut batch);
    assert_eq!(batch[0], reference_walk(&nodes, &nan_row));
}

/// Random forests and GBDTs of every tree count from 1 to 17 — full groups
/// of the decision-sized walk plus every remainder — predict every batch
/// size bit-identically to the enum-walk reference and to their own
/// per-row path, on rows with NaN and ±∞ features. Each tree re-packs from
/// its canonical form to an equal tree.
#[test]
fn grouped_walk_matches_reference_for_every_tree_count_and_batch_size() {
    let mut rng = Rng::seed_from_u64(41);
    let values: Vec<f64> = (0..4 * 150).map(|_| rng.uniform(0.0, 100.0)).collect();
    let data = dataset_from(&values, 3);
    let pool = nonfinite_pool(&data);
    let mut out = Vec::new();
    for n_trees in 1..=17 {
        let mut forest = RandomForest::new(RandomForestConfig {
            n_trees,
            workers: 1,
            tree: DecisionTreeConfig {
                max_depth: 7,
                ..Default::default()
            },
            ..Default::default()
        });
        forest.fit(&data, &mut rng);
        assert_eq!(forest.tree_count(), n_trees);
        let mut gbdt = GradientBoosting::new(GradientBoostingConfig {
            n_rounds: n_trees,
            validation_fraction: 0.0,
            ..Default::default()
        });
        gbdt.fit(&data, &mut rng);
        assert_eq!(gbdt.trees().len(), n_trees);

        for tree in forest.trees().iter().chain(gbdt.trees()) {
            let repacked = FlatTree::from_nodes(&tree.flat().to_nodes()).unwrap();
            assert_eq!(&repacked, tree.flat());
        }
        for rows in BATCH_SIZES {
            let batch = first_rows(&pool, rows);
            forest.predict_into(&batch, &mut out);
            assert_eq!(out.len(), rows);
            for (i, &got) in out.iter().enumerate() {
                let row = batch.row(i);
                let reference = reference_forest(&forest, row);
                assert_eq!(got, reference, "forest of {n_trees}, {rows} rows, row {i}");
                assert_eq!(forest.predict_row(row), reference);
            }
            gbdt.predict_into(&batch, &mut out);
            assert_eq!(out.len(), rows);
            for (i, &got) in out.iter().enumerate() {
                let row = batch.row(i);
                let reference = reference_gbdt(&gbdt, row);
                assert_eq!(got, reference, "gbdt of {n_trees}, {rows} rows, row {i}");
                assert_eq!(gbdt.predict_row(row), reference);
            }
        }
    }
}

/// `FlatTree::accumulate_ensemble` over a hand-built mix of single-leaf,
/// empty, shallow and deep trees with per-tree scales — the groups of the
/// decision-sized walk mix depths — equals the reference sum in tree order;
/// an empty (never fitted) tree contributes nothing.
#[test]
fn mixed_depth_ensembles_accumulate_in_tree_order() {
    let leaf = |prediction: f64| TreeNode::Leaf {
        prediction,
        samples: 1,
    };
    let split = |feature: usize, threshold: f64, left: usize, right: usize| TreeNode::Split {
        feature,
        threshold,
        left,
        right,
        samples: 2,
    };
    // A chain of `depth` splits on feature `f`, in canonical preorder:
    // split i's left child is split i + 1 (the last one's is leaf -1), its
    // right child a leaf emitted after the whole left subtree.
    let chain = |depth: usize, f: usize| -> Vec<TreeNode> {
        let mut nodes: Vec<TreeNode> = (0..depth)
            .map(|i| split(f, 10.0 * i as f64, i + 1, 2 * depth - i))
            .collect();
        nodes.push(leaf(-1.0));
        nodes.extend((0..depth).rev().map(|i| leaf(i as f64 + 0.25)));
        nodes
    };
    let canonical: Vec<Vec<TreeNode>> = vec![
        vec![leaf(3.5)],
        Vec::new(),
        chain(1, 0),
        vec![
            split(1, 5.0, 1, 4),
            split(0, 2.0, 2, 3),
            leaf(1.0),
            leaf(2.0),
            leaf(4.0),
        ],
        chain(9, 2),
        vec![leaf(-7.0)],
        chain(3, 1),
        chain(30, 0),
        vec![leaf(0.125)],
        // Deeper than the fixed-pass walk handles: its group walks until
        // no cursor moves.
        chain(70, 1),
    ];
    let trees: Vec<FlatTree> = canonical
        .iter()
        .map(|nodes| FlatTree::from_nodes(nodes).unwrap())
        .collect();
    for (tree, nodes) in trees.iter().zip(&canonical) {
        assert_eq!(&tree.to_nodes(), nodes, "canonical form round-trips");
    }
    let mut pool = FeatureMatrix::new(3);
    for i in 0..17 {
        let v = 17.0 * i as f64 - 20.0;
        pool.push_row(&[v, 0.5 * v, 300.0 - v]);
    }
    pool.row_mut(3).fill(f64::NAN);
    pool.row_mut(8)
        .copy_from_slice(&[f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
    for count in 1..=trees.len() {
        let scales: Vec<f64> = (0..count).map(|t| 0.5 + t as f64 / 3.0).collect();
        for rows in BATCH_SIZES {
            let batch = first_rows(&pool, rows);
            let mut out = vec![0.0; rows];
            FlatTree::accumulate_ensemble(
                trees[..count].iter().zip(scales.iter().copied()),
                &batch,
                &mut out,
            );
            for (i, &got) in out.iter().enumerate() {
                let mut reference = 0.0;
                for (nodes, scale) in canonical[..count].iter().zip(&scales) {
                    if !nodes.is_empty() {
                        reference += scale * reference_walk(nodes, batch.row(i));
                    }
                }
                assert_eq!(got, reference, "{count} trees, {rows} rows, row {i}");
            }
        }
    }
}

/// Trees fitted on zero feature columns are single leaves predicting the
/// target mean; forests and GBDTs of them predict zero-width batches of
/// every size without reading a feature.
#[test]
fn zero_feature_models_predict_every_batch_size() {
    let mut data = Dataset::new(Vec::new());
    for i in 0..40 {
        data.push_row(&[], (i % 7) as f64).unwrap();
    }
    let mut rng = Rng::seed_from_u64(5);
    let mut tree = DecisionTree::default();
    tree.fit(&data, &mut rng);
    assert_eq!((tree.node_count(), tree.depth()), (1, 0));
    let mut forest = RandomForest::new(RandomForestConfig {
        n_trees: 5,
        workers: 1,
        ..Default::default()
    });
    forest.fit(&data, &mut rng);
    let mut gbdt = GradientBoosting::new(GradientBoostingConfig {
        n_rounds: 6,
        validation_fraction: 0.0,
        ..Default::default()
    });
    gbdt.fit(&data, &mut rng);
    let mut out = Vec::new();
    for rows in BATCH_SIZES {
        let mut batch = FeatureMatrix::new(0);
        for _ in 0..rows {
            batch.push_row(&[]);
        }
        tree.predict_into(&batch, &mut out);
        assert_eq!(
            out,
            vec![reference_walk(&tree.canonical_nodes(), &[]); rows]
        );
        forest.predict_into(&batch, &mut out);
        assert_eq!(out, vec![reference_forest(&forest, &[]); rows]);
        gbdt.predict_into(&batch, &mut out);
        assert_eq!(out, vec![reference_gbdt(&gbdt, &[]); rows]);
    }
}
