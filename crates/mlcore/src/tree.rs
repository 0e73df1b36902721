//! CART regression trees packed into one cache-friendly node array.
//!
//! Splits minimize the weighted variance of the two children (equivalently,
//! maximize variance reduction). Candidate thresholds are midpoints between
//! consecutive distinct feature values of the sorted node samples. Trees
//! support depth / leaf-size limits and per-split feature subsampling (used by
//! the random forest).
//!
//! A fitted tree is stored as a [`FlatTree`]: one exact-capacity array of
//! 16-byte nodes (`threshold_or_leaf_value: f64, feature: u32, next: u32`)
//! laid out breadth-first with siblings adjacent, so the `>` child of a split
//! is `next + 1` and a leaf is tagged by `next == LEAF` instead of an enum
//! discriminant. A walk step reads one node from one cache line. The fit
//! recursion grows the canonical preorder [`TreeNode`] list, and
//! [`FlatTree::from_nodes`] packs it once — the same conversion
//! deserialization runs.
//!
//! Prediction runs a branchless fixed-depth walk. The batch kernel,
//! [`FlatTree::accumulate_ensemble`], interleaves many independent walks so
//! their node loads overlap: it walks groups of [`FlatTree::GROUP`] trees
//! across blocks of [`FlatTree::BLOCK`] rows (a decision's whole candidate
//! set is one block), group by group, so each group's nodes stay hot in
//! cache while the matrix streams through them. Leaf values are added per
//! row in tree order, so every batch result is bit-identical to the scalar
//! walk. Serialization
//! keeps the canonical nested node form ([`TreeNode`], validated on load) and
//! re-packs on deserialize.

use crate::data::{Dataset, FeatureMatrix};
use serde::{Deserialize, Serialize};
use simcore::rng::Rng;

/// Tree growth limits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecisionTreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples required in each child.
    pub min_samples_leaf: usize,
    /// Number of features examined per split (`None` = all features).
    pub max_features: Option<usize>,
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        DecisionTreeConfig {
            max_depth: 12,
            min_samples_split: 4,
            min_samples_leaf: 2,
            max_features: None,
        }
    }
}

/// The canonical nested node form trees serialize as (and the reference
/// representation differential tests walk): either an internal split or a
/// leaf prediction, children addressed by index into the node list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TreeNode {
    /// A terminal prediction.
    Leaf {
        /// Mean target of the samples that reached this leaf.
        prediction: f64,
        /// Number of training samples that reached this leaf.
        samples: usize,
    },
    /// An internal split on `feature <= threshold`.
    Split {
        /// Feature column index.
        feature: usize,
        /// Split threshold (midpoint between distinct values).
        threshold: f64,
        /// Index of the `<=` child in the node list.
        left: usize,
        /// Index of the `>` child in the node list.
        right: usize,
        /// Number of training samples that reached this split.
        samples: usize,
    },
}

/// `next` tag of a leaf node.
const LEAF: u32 = u32::MAX;

/// One packed 16-byte tree node. A split tests `row[feature] <= value` and
/// continues at `next` (`<=`) or `next + 1` (`>`); a leaf has
/// `next == LEAF`, keeps its prediction in `value` and tests feature 0, so
/// the branchless step's comparison stays in bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Node {
    /// Split threshold, or the leaf prediction.
    value: f64,
    feature: u32,
    /// Index of the `<=` child (the `>` child is `next + 1`), or [`LEAF`].
    next: u32,
}

/// A fitted regression tree packed into one array of 16-byte nodes.
///
/// Nodes are laid out breadth-first with siblings adjacent: the root is node
/// 0 and a split's children sit side by side at `next` and `next + 1`, so a
/// walk step reads one node (a quarter of a cache line) and picks the child
/// by adding the comparison outcome to `next`. Leaves are tagged by
/// `next == LEAF` instead of an enum discriminant, and the batch step is
/// branchless (`if leaf { cur } else { next + dir }` is a select): a cursor
/// that reaches a leaf stays put while the other cursors finish, and the
/// walk runs a fixed `depth` passes. Training sample counts live in a cold
/// side array that only [`FlatTree::to_nodes`] reads.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlatTree {
    /// Breadth-first packed nodes, exact capacity.
    nodes: Vec<Node>,
    /// Training samples that reached each node (canonical-form round-trip).
    samples: Vec<u32>,
    /// Maximum node depth: the pass count of the branchless batch walk.
    depth: u32,
}

/// Filler for the unused slots of a tree group; never walked.
static NO_TREE: FlatTree = FlatTree {
    nodes: Vec::new(),
    samples: Vec::new(),
    depth: 0,
};

impl FlatTree {
    /// Deepest tree the fixed-pass (branchless) batch walk handles; a
    /// pathologically deeper chain falls back to the early-exit walk so the
    /// pass count cannot degenerate to the sample count.
    const MAX_FIXED_PASSES: u32 = 64;

    /// True when the tree holds no nodes at all (never fitted).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of nodes (splits + leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.next == LEAF).count()
    }

    /// One walk step from node `cur` of `nodes`: a split moves to its `<=`
    /// child (`next`) or its `>` child (`next + 1`); a leaf stays put. The
    /// leaf case is a bit mask rather than a branch, so the compiler emits a
    /// select, not a jump that mispredicts whenever walks finish at
    /// different depths. The negated `<=` (rather than `>`) is load-bearing:
    /// a NaN feature value fails `<=` and must go right, exactly as the
    /// canonical enum walk's `if v <= t { left } else { right }` does.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline(always)]
    fn step(nodes: &[Node], cur: u32, row: &[f64]) -> u32 {
        let node = nodes[cur as usize];
        let right = u32::from(!(row[node.feature as usize] <= node.value));
        let split = u32::from(node.next != LEAF).wrapping_neg();
        (cur & !split) | (node.next.wrapping_add(right) & split)
    }

    /// Predict the target for one full-width row.
    ///
    /// Rows must carry every feature the tree was trained on; a short row is
    /// a malformed input and panics (index out of bounds) instead of silently
    /// predicting from padded zeros.
    #[inline]
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let mut cur = 0;
        while self.nodes[cur as usize].next != LEAF {
            cur = Self::step(&self.nodes, cur, row);
        }
        self.nodes[cur as usize].value
    }

    /// Rows walked simultaneously by the batch kernels. A scalar tree walk
    /// is one serial dependent-load chain (every step waits on the previous
    /// node fetch); interleaving a block of rows keeps that many independent
    /// chains — and, for ensembles larger than cache, that many outstanding
    /// memory requests — in flight at once.
    pub const BLOCK: usize = 16;

    /// Trees walked side by side by [`FlatTree::accumulate_ensemble`] on a
    /// decision-sized batch: a candidate set of 6 rows then keeps 24
    /// independent load chains in flight instead of 6. (Groups of 8 and 16
    /// measured no faster on 6- and 16-row batches on a 2-core x86-64 VM.)
    pub const GROUP: usize = 4;

    /// Walk up to [`Self::GROUP`] non-empty trees across up to
    /// [`Self::BLOCK`] rows, every (tree, row) cursor advancing once per
    /// pass, then add `scale * leaf value` to each row's slot in tree order
    /// — the float-operation order of a per-row, per-tree accumulation.
    fn walk_group(group: &[(&FlatTree, f64)], rows: &[&[f64]], out: &mut [f64]) {
        let mut lanes = [[0u32; Self::BLOCK]; Self::GROUP];
        let lanes = &mut lanes[..group.len()];
        let passes = group.iter().map(|(tree, _)| tree.depth).max().unwrap_or(0);
        if passes <= Self::MAX_FIXED_PASSES {
            // Branchless fixed-pass walk: leaves stay put, so the inner loop
            // has no data-dependent branch — just interleaved loads and
            // selects.
            for pass in 0..passes {
                Self::advance(group, rows, lanes, pass);
            }
        } else {
            // Pathologically deep chain: walk until no cursor moves.
            let mut pass = 0;
            while Self::advance(group, rows, lanes, pass) {
                pass += 1;
            }
        }
        // Trees outer, rows inner: each row still receives its leaves in
        // tree order, and the rows' additions are independent of each other.
        for ((tree, scale), lane) in group.iter().zip(lanes.iter()) {
            for (slot, &cur) in out.iter_mut().zip(lane.iter()) {
                *slot += scale * tree.nodes[cur as usize].value;
            }
        }
    }

    /// Pass `pass` of the grouped walk: step every cursor of every tree
    /// deeper than `pass` once (a shallower tree's walks have all reached
    /// their leaves). Returns whether any cursor moved, i.e. some walk was
    /// still at a split (a split's children sit after it, so its step never
    /// stays put).
    #[inline(always)]
    fn advance(
        group: &[(&FlatTree, f64)],
        rows: &[&[f64]],
        lanes: &mut [[u32; Self::BLOCK]],
        pass: u32,
    ) -> bool {
        let mut moved = false;
        for ((tree, _), lane) in group.iter().zip(lanes.iter_mut()) {
            if pass >= tree.depth {
                continue;
            }
            let nodes = tree.nodes.as_slice();
            for (cur, row) in lane.iter_mut().zip(rows) {
                let next = Self::step(nodes, *cur, row);
                moved |= next != *cur;
                *cur = next;
            }
        }
        moved
    }

    /// Accumulate a whole ensemble of `(tree, scale)` pairs over `x` into
    /// `out` (one slot per row), allocation-free. The trees are walked in
    /// groups of [`Self::GROUP`], each group over the matrix block by block
    /// ([`Self::BLOCK`] rows), so a group's nodes stay hot in cache while
    /// the rows stream through them and every block keeps rows × group
    /// independent walks in flight. A decision-sized batch is a single
    /// block whose row slices are fetched once for every group. Per-row
    /// results are bit-identical to accumulating `scale *
    /// tree.predict_row(row)` in the same tree order.
    ///
    /// # Panics
    /// Panics when `out.len() != x.n_rows()`.
    pub fn accumulate_ensemble<'t>(
        trees: impl Iterator<Item = (&'t FlatTree, f64)>,
        x: &FeatureMatrix,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), x.n_rows(), "one accumulator slot per row");
        let empty: &[f64] = &[];
        let mut rows: [&[f64]; Self::BLOCK] = [empty; Self::BLOCK];
        // First row of the block whose slices `rows` holds.
        let mut held = None;
        let mut group: [(&FlatTree, f64); Self::GROUP] = [(&NO_TREE, 0.0); Self::GROUP];
        let mut len = 0;
        let mut trees = trees.filter(|(tree, _)| !tree.is_empty()).peekable();
        while let Some(entry) = trees.next() {
            group[len] = entry;
            len += 1;
            if len < Self::GROUP && trees.peek().is_some() {
                continue;
            }
            let blocks = (0..x.n_rows()).step_by(Self::BLOCK);
            for (start, block_out) in blocks.zip(out.chunks_mut(Self::BLOCK)) {
                let block = &mut rows[..block_out.len()];
                if held != Some(start) {
                    for (k, slot) in block.iter_mut().enumerate() {
                        *slot = x.row(start + k);
                    }
                    held = Some(start);
                }
                Self::walk_group(&group[..len], block, block_out);
            }
            len = 0;
        }
    }

    /// Render the canonical nested node list (preorder: parent, left subtree,
    /// right subtree — the order the recursive builder grows). Iterative
    /// (explicit stack), so an arbitrarily deep chain serializes without
    /// recursing once per level.
    pub fn to_nodes(&self) -> Vec<TreeNode> {
        // Subtree sizes: children sit after their parent, so one reverse
        // sweep sizes every child before its parent.
        let n = self.node_count();
        let mut size = vec![1usize; n];
        for i in (0..n).rev() {
            let next = self.nodes[i].next;
            if next != LEAF {
                size[i] = 1 + size[next as usize] + size[next as usize + 1];
            }
        }
        // Preorder emit; a split's left child is the next emitted node, its
        // right child follows the whole left subtree.
        let mut out = Vec::with_capacity(n);
        let mut walk: Vec<usize> = Vec::new();
        if n > 0 {
            walk.push(0);
        }
        while let Some(i) = walk.pop() {
            let node = self.nodes[i];
            let samples = self.samples[i] as usize;
            if node.next == LEAF {
                out.push(TreeNode::Leaf {
                    prediction: node.value,
                    samples,
                });
                continue;
            }
            let left = node.next as usize;
            let idx = out.len();
            out.push(TreeNode::Split {
                feature: node.feature as usize,
                threshold: node.value,
                left: idx + 1,
                right: idx + 1 + size[left],
                samples,
            });
            walk.push(left + 1);
            walk.push(left);
        }
        out
    }

    /// Pack the canonical nested node list (root first) breadth-first.
    /// Iterative, so a hostile or pathologically deep archive returns an
    /// error or a tree — never a stack overflow. Out-of-bounds child
    /// indices, nodes reached twice (cycles, shared children) and feature
    /// indices beyond `u32` are rejected; nodes the root cannot reach are
    /// dropped.
    pub fn from_nodes(nodes: &[TreeNode]) -> Result<FlatTree, String> {
        if nodes.len() >= LEAF as usize {
            return Err(format!(
                "{} nodes exceed the packed index range",
                nodes.len()
            ));
        }
        let mut packed = Vec::with_capacity(nodes.len());
        let mut samples = Vec::with_capacity(nodes.len());
        let mut visited = vec![false; nodes.len()];
        // order[i]: the canonical index packed at position i.
        let mut order: Vec<usize> = Vec::with_capacity(nodes.len());
        if !nodes.is_empty() {
            order.push(0);
            visited[0] = true;
        }
        let (mut depth, mut level_end) = (0u32, 1usize);
        let mut i = 0;
        while i < order.len() {
            if i == level_end {
                depth += 1;
                level_end = order.len();
            }
            let (value, feature, next, count) = match nodes[order[i]] {
                TreeNode::Leaf {
                    prediction,
                    samples,
                } => (prediction, 0, LEAF, samples),
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    samples,
                } => {
                    let feature = u32::try_from(feature)
                        .map_err(|_| format!("split feature index {feature} out of range"))?;
                    let next = order.len() as u32;
                    for child in [left, right] {
                        let seen = visited
                            .get_mut(child)
                            .ok_or_else(|| format!("node index {child} out of bounds"))?;
                        if std::mem::replace(seen, true) {
                            return Err(format!("node index {child} visited twice (cycle)"));
                        }
                        order.push(child);
                    }
                    (threshold, feature, next, samples)
                }
            };
            packed.push(Node {
                value,
                feature,
                next,
            });
            samples.push(count as u32);
            i += 1;
        }
        packed.shrink_to_fit();
        samples.shrink_to_fit();
        Ok(FlatTree {
            nodes: packed,
            samples,
            depth,
        })
    }

    /// The largest feature index any split tests, or `None` for a tree with
    /// no splits. Deserialization checks this against the declared feature
    /// count so a loaded archive cannot panic the prediction walk.
    pub fn max_split_feature(&self) -> Option<u32> {
        self.splits().map(|(feature, _)| feature as u32).max()
    }

    /// Depth of the tree (0 for a single leaf or an empty tree).
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// Iterate `(feature, threshold)` over the split (non-leaf) nodes, in
    /// breadth-first order. Two rows on the same side of every split's
    /// threshold walk identical paths and receive identical predictions.
    pub fn splits(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.nodes
            .iter()
            .filter(|n| n.next != LEAF)
            .map(|n| (n.feature as usize, n.value))
    }
}

/// A fitted regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    config: DecisionTreeConfig,
    tree: FlatTree,
    n_features: usize,
    /// Sum of variance reduction attributed to each feature (impurity importance).
    feature_importance: Vec<f64>,
    fitted: bool,
}

/// Trees serialize in the canonical nested form (a [`TreeNode`] list) and
/// re-pack on deserialize, so the on-disk shape is independent of the packed
/// in-memory layout and archives cannot smuggle in inconsistent links.
impl Serialize for DecisionTree {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            (
                serde::Value::Str("config".to_string()),
                self.config.serialize_value(),
            ),
            (
                serde::Value::Str("nodes".to_string()),
                self.tree.to_nodes().serialize_value(),
            ),
            (
                serde::Value::Str("n_features".to_string()),
                self.n_features.serialize_value(),
            ),
            (
                serde::Value::Str("feature_importance".to_string()),
                self.feature_importance.serialize_value(),
            ),
            (
                serde::Value::Str("fitted".to_string()),
                self.fitted.serialize_value(),
            ),
        ])
    }
}

impl Deserialize for DecisionTree {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for DecisionTree"))?;
        let config = DecisionTreeConfig::deserialize_value(serde::get_field(map, "config")?)?;
        let nodes: Vec<TreeNode> = Deserialize::deserialize_value(serde::get_field(map, "nodes")?)?;
        let tree = FlatTree::from_nodes(&nodes).map_err(serde::Error::custom)?;
        let n_features: usize =
            Deserialize::deserialize_value(serde::get_field(map, "n_features")?)?;
        // The walk indexes rows by split feature directly (the zero-padding
        // tolerance is gone), so an archive whose splits test columns beyond
        // the declared width must be rejected here, not crash a decision.
        if let Some(max_feature) = tree.max_split_feature() {
            if max_feature as usize >= n_features {
                return Err(serde::Error::custom(format!(
                    "split feature index {max_feature} out of range for {n_features} features"
                )));
            }
        }
        Ok(DecisionTree {
            config,
            tree,
            n_features,
            feature_importance: Deserialize::deserialize_value(serde::get_field(
                map,
                "feature_importance",
            )?)?,
            fitted: Deserialize::deserialize_value(serde::get_field(map, "fitted")?)?,
        })
    }
}

impl Default for DecisionTree {
    fn default() -> Self {
        Self::new(DecisionTreeConfig::default())
    }
}

/// Append a leaf to a canonical node list, returning its index.
fn push_leaf(nodes: &mut Vec<TreeNode>, prediction: f64, samples: usize) -> usize {
    nodes.push(TreeNode::Leaf {
        prediction,
        samples,
    });
    nodes.len() - 1
}

struct BuildCtx<'a> {
    x: &'a FeatureMatrix,
    targets: &'a [f64],
    config: DecisionTreeConfig,
}

impl DecisionTree {
    /// Create an unfitted tree.
    pub fn new(config: DecisionTreeConfig) -> Self {
        DecisionTree {
            config,
            tree: FlatTree::default(),
            n_features: 0,
            feature_importance: Vec::new(),
            fitted: false,
        }
    }

    /// Whether `fit` has been called.
    pub fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// Number of nodes in the fitted tree.
    pub fn node_count(&self) -> usize {
        self.tree.node_count()
    }

    /// Depth of the fitted tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        self.tree.depth()
    }

    /// Number of feature columns the tree was fitted on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The packed node-array representation.
    pub fn flat(&self) -> &FlatTree {
        &self.tree
    }

    /// The canonical nested node list (the serialized form, and the reference
    /// representation for differential tests).
    pub fn canonical_nodes(&self) -> Vec<TreeNode> {
        self.tree.to_nodes()
    }

    /// Impurity-based feature importance (normalized to sum to 1 when any
    /// split exists).
    pub fn feature_importance(&self) -> Vec<f64> {
        let total: f64 = self.feature_importance.iter().sum();
        if total <= 0.0 {
            return self.feature_importance.clone();
        }
        self.feature_importance.iter().map(|v| v / total).collect()
    }

    /// Fit on all rows of `data`.
    pub fn fit(&mut self, data: &Dataset, rng: &mut Rng) {
        let indices: Vec<usize> = (0..data.len()).collect();
        self.fit_on_matrix(data.matrix(), data.targets(), &indices, rng);
    }

    /// Fit on a subset of row indices of a dataset (bootstrap aggregation).
    pub fn fit_on_indices(&mut self, data: &Dataset, indices: &[usize], rng: &mut Rng) {
        self.fit_on_matrix(data.matrix(), data.targets(), indices, rng);
    }

    /// Fit on a subset of row indices of a raw `(matrix, targets)` pair —
    /// the allocation-free entry point boosting uses to refit residual
    /// targets each round without rebuilding a feature container.
    pub fn fit_on_matrix(
        &mut self,
        x: &FeatureMatrix,
        targets: &[f64],
        indices: &[usize],
        rng: &mut Rng,
    ) {
        self.n_features = x.n_features();
        self.feature_importance = vec![0.0; self.n_features];
        let mut nodes = Vec::new();
        if indices.is_empty() || x.is_empty() {
            let mean = if targets.is_empty() {
                0.0
            } else {
                targets.iter().sum::<f64>() / targets.len() as f64
            };
            push_leaf(&mut nodes, mean, 0);
        } else {
            let ctx = BuildCtx {
                x,
                targets,
                config: self.config,
            };
            let mut idx = indices.to_vec();
            self.build_node(&ctx, &mut nodes, &mut idx, 0, rng);
        }
        // `from_nodes` only rejects malformed archives; the builder links
        // every split to two freshly grown subtrees.
        let packed = FlatTree::from_nodes(&nodes);
        debug_assert!(packed.is_ok(), "the builder grows a well-formed tree");
        self.tree = packed.unwrap_or_default();
        self.fitted = true;
    }

    /// Recursively grow a node over `indices` onto the canonical preorder
    /// list, returning its index there.
    fn build_node(
        &mut self,
        ctx: &BuildCtx<'_>,
        nodes: &mut Vec<TreeNode>,
        indices: &mut [usize],
        depth: usize,
        rng: &mut Rng,
    ) -> usize {
        let n = indices.len();
        let (sum, sum_sq) = indices.iter().fold((0.0, 0.0), |(s, ss), &i| {
            let y = ctx.targets[i];
            (s + y, ss + y * y)
        });
        let mean = sum / n as f64;
        let variance = (sum_sq / n as f64 - mean * mean).max(0.0);

        if depth >= ctx.config.max_depth || n < ctx.config.min_samples_split || variance < 1e-12 {
            return push_leaf(nodes, mean, n);
        }

        // Candidate features for this split.
        let feature_candidates: Vec<usize> = match ctx.config.max_features {
            Some(k) if k < self.n_features => rng.sample_indices(self.n_features, k.max(1)),
            _ => (0..self.n_features).collect(),
        };

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        let parent_score = variance * n as f64;
        for &feature in &feature_candidates {
            // Sort indices by this feature.
            indices.sort_by(|&a, &b| {
                ctx.x
                    .get(a, feature)
                    .partial_cmp(&ctx.x.get(b, feature))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            // Prefix sums for O(n) split scan.
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for split_at in 1..n {
                let i = indices[split_at - 1];
                let y = ctx.targets[i];
                left_sum += y;
                left_sq += y * y;
                // Only split between distinct feature values.
                let prev = ctx.x.get(indices[split_at - 1], feature);
                let next = ctx.x.get(indices[split_at], feature);
                if next <= prev {
                    continue;
                }
                let left_n = split_at;
                let right_n = n - split_at;
                if left_n < ctx.config.min_samples_leaf || right_n < ctx.config.min_samples_leaf {
                    continue;
                }
                let right_sum = sum - left_sum;
                let right_sq = sum_sq - left_sq;
                let left_var =
                    (left_sq / left_n as f64 - (left_sum / left_n as f64).powi(2)).max(0.0);
                let right_var =
                    (right_sq / right_n as f64 - (right_sum / right_n as f64).powi(2)).max(0.0);
                let weighted = left_var * left_n as f64 + right_var * right_n as f64;
                let reduction = parent_score - weighted;
                if reduction > 1e-12 && best.map(|(_, _, b)| reduction > b).unwrap_or(true) {
                    best = Some((feature, (prev + next) / 2.0, reduction));
                }
            }
        }

        let Some((feature, threshold, reduction)) = best else {
            return push_leaf(nodes, mean, n);
        };
        self.feature_importance[feature] += reduction;

        // Partition indices in place around the chosen split.
        indices.sort_by(|&a, &b| {
            ctx.x
                .get(a, feature)
                .partial_cmp(&ctx.x.get(b, feature))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let split_at = indices
            .iter()
            .position(|&i| ctx.x.get(i, feature) > threshold)
            .unwrap_or(indices.len());
        // Append this node before building children so the preorder form
        // reads parent, left subtree, right subtree.
        let slot = nodes.len();
        nodes.push(TreeNode::Split {
            feature,
            threshold,
            left: 0,
            right: 0,
            samples: n,
        });
        let (left_idx_slice, right_idx_slice) = indices.split_at_mut(split_at);
        let left_child = self.build_node(ctx, nodes, left_idx_slice, depth + 1, rng);
        let right_child = self.build_node(ctx, nodes, right_idx_slice, depth + 1, rng);
        if let TreeNode::Split { left, right, .. } = &mut nodes[slot] {
            (*left, *right) = (left_child, right_child);
        }
        slot
    }

    /// Predict the target for one full-width row.
    ///
    /// # Panics
    /// Panics when the row is shorter than the features the tree splits on —
    /// malformed feature vectors fail loudly instead of predicting from
    /// zero-padding.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.tree.predict_row(row)
    }

    /// Predict every row of a feature matrix into a reused output buffer
    /// (cleared and refilled) via the interleaved batch kernel.
    pub fn predict_into(&self, x: &FeatureMatrix, out: &mut Vec<f64>) {
        out.clear();
        out.resize(x.n_rows(), 0.0);
        // 0.0 + 1.0 · v == v exactly, so this matches a per-row fill.
        FlatTree::accumulate_ensemble(std::iter::once((&self.tree, 1.0)), x, out);
    }

    /// Predict every row of a dataset.
    pub fn predict(&self, data: &Dataset) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_into(data.matrix(), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RegressionMetrics;

    fn step_dataset() -> Dataset {
        // y = 10 when x < 5, else 20 — a single split should fit perfectly.
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..10 {
            let x = i as f64;
            d.push(vec![x], if x < 5.0 { 10.0 } else { 20.0 }).unwrap();
        }
        d
    }

    fn nonlinear_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng::seed_from_u64(seed);
        let mut d = Dataset::new(vec!["x1".into(), "x2".into()]);
        for _ in 0..n {
            let x1 = rng.uniform(0.0, 10.0);
            let x2 = rng.uniform(0.0, 10.0);
            // Interaction + threshold effects: trees should beat linear models here.
            let y = if x1 > 5.0 { 50.0 } else { 0.0 } + x1 * x2 + rng.normal(0.0, 0.5);
            d.push(vec![x1, x2], y).unwrap();
        }
        d
    }

    #[test]
    fn fits_step_function_exactly() {
        let data = step_dataset();
        let mut tree = DecisionTree::default();
        assert!(!tree.is_fitted());
        let mut rng = Rng::seed_from_u64(1);
        tree.fit(&data, &mut rng);
        assert!(tree.is_fitted());
        assert_eq!(tree.predict_row(&[2.0]), 10.0);
        assert_eq!(tree.predict_row(&[7.0]), 20.0);
        assert!(tree.node_count() >= 3);
        assert!(tree.depth() >= 1);
        // Only one feature: it gets all importance.
        assert_eq!(tree.feature_importance(), vec![1.0]);
    }

    #[test]
    fn captures_nonlinear_interactions() {
        let data = nonlinear_dataset(600, 2);
        let mut rng = Rng::seed_from_u64(3);
        let (train, test) = data.train_test_split(0.25, &mut rng);
        let mut tree = DecisionTree::default();
        tree.fit(&train, &mut rng);
        let m = RegressionMetrics::compute(&tree.predict(&test), test.targets());
        assert!(m.r2 > 0.85, "r2 {}", m.r2);
    }

    #[test]
    fn depth_limit_is_respected() {
        let data = nonlinear_dataset(300, 4);
        let mut rng = Rng::seed_from_u64(5);
        let mut stump = DecisionTree::new(DecisionTreeConfig {
            max_depth: 1,
            ..Default::default()
        });
        stump.fit(&data, &mut rng);
        assert!(stump.depth() <= 1);
        assert!(stump.node_count() <= 3);
        let mut deep = DecisionTree::new(DecisionTreeConfig {
            max_depth: 8,
            ..Default::default()
        });
        deep.fit(&data, &mut rng);
        assert!(deep.depth() <= 8);
        assert!(deep.depth() > 1);
    }

    #[test]
    fn min_samples_leaf_prevents_tiny_leaves() {
        let data = nonlinear_dataset(100, 6);
        let mut rng = Rng::seed_from_u64(7);
        let mut tree = DecisionTree::new(DecisionTreeConfig {
            min_samples_leaf: 20,
            ..Default::default()
        });
        tree.fit(&data, &mut rng);
        // With >= 20 samples per leaf on 100 samples the tree must be small.
        assert!(tree.node_count() <= 9, "node_count {}", tree.node_count());
    }

    #[test]
    fn constant_targets_become_single_leaf() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..20 {
            d.push(vec![i as f64], 5.0).unwrap();
        }
        let mut rng = Rng::seed_from_u64(8);
        let mut tree = DecisionTree::default();
        tree.fit(&d, &mut rng);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.flat().leaf_count(), 1);
        assert_eq!(tree.predict_row(&[100.0]), 5.0);
        assert_eq!(tree.depth(), 0);
    }

    #[test]
    fn empty_fit_yields_safe_leaf() {
        let d = Dataset::new(vec!["x".into()]);
        let mut rng = Rng::seed_from_u64(9);
        let mut tree = DecisionTree::default();
        tree.fit(&d, &mut rng);
        assert!(tree.is_fitted());
        assert_eq!(tree.predict_row(&[1.0]), 0.0);
        // Unfitted tree also predicts 0.
        let unfitted = DecisionTree::default();
        assert_eq!(unfitted.predict_row(&[1.0]), 0.0);
        assert!(unfitted.flat().is_empty());
    }

    #[test]
    fn feature_subsampling_still_learns() {
        let data = nonlinear_dataset(400, 10);
        let mut rng = Rng::seed_from_u64(11);
        let mut tree = DecisionTree::new(DecisionTreeConfig {
            max_features: Some(1),
            ..Default::default()
        });
        tree.fit(&data, &mut rng);
        let m = RegressionMetrics::compute(&tree.predict(&data), data.targets());
        assert!(
            m.r2 > 0.5,
            "even with per-split subsampling the tree learns, r2 {}",
            m.r2
        );
    }

    #[test]
    fn importance_identifies_the_informative_feature() {
        // y depends only on x1; x2 is noise.
        let mut rng = Rng::seed_from_u64(12);
        let mut d = Dataset::new(vec!["signal".into(), "noise".into()]);
        for _ in 0..300 {
            let x1 = rng.uniform(0.0, 10.0);
            let x2 = rng.uniform(0.0, 10.0);
            d.push(vec![x1, x2], x1 * 3.0).unwrap();
        }
        let mut tree = DecisionTree::default();
        tree.fit(&d, &mut rng);
        let imp = tree.feature_importance();
        assert!(imp[0] > 0.95, "signal importance {imp:?}");
        assert!(imp[1] < 0.05);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let data = nonlinear_dataset(200, 13);
        let mut t1 = DecisionTree::new(DecisionTreeConfig {
            max_features: Some(1),
            ..Default::default()
        });
        let mut t2 = t1.clone();
        let mut r1 = Rng::seed_from_u64(99);
        let mut r2 = Rng::seed_from_u64(99);
        t1.fit(&data, &mut r1);
        t2.fit(&data, &mut r2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn predict_into_matches_predict_row_and_handles_empty_batches() {
        let data = nonlinear_dataset(150, 15);
        let mut rng = Rng::seed_from_u64(16);
        let mut tree = DecisionTree::default();
        tree.fit(&data, &mut rng);
        let mut batch = Vec::new();
        tree.predict_into(data.matrix(), &mut batch);
        assert_eq!(batch.len(), data.len());
        for (i, &b) in batch.iter().enumerate() {
            assert_eq!(b, tree.predict_row(data.row(i)), "row {i}");
        }
        // Empty batch: output is cleared to empty, nothing panics.
        let empty = FeatureMatrix::new(2);
        tree.predict_into(&empty, &mut batch);
        assert!(batch.is_empty());
    }

    #[test]
    fn canonical_nodes_roundtrip_through_flat_form() {
        let data = nonlinear_dataset(200, 17);
        let mut rng = Rng::seed_from_u64(18);
        let mut tree = DecisionTree::default();
        tree.fit(&data, &mut rng);
        let nodes = tree.canonical_nodes();
        assert_eq!(nodes.len(), tree.node_count());
        // Root first, and it references in-bounds children.
        let rebuilt = FlatTree::from_nodes(&nodes).unwrap();
        assert_eq!(&rebuilt, tree.flat());
        // A corrupt node list (cycle) is rejected, not trusted.
        let cycle = vec![TreeNode::Split {
            feature: 0,
            threshold: 1.0,
            left: 0,
            right: 0,
            samples: 2,
        }];
        assert!(FlatTree::from_nodes(&cycle).is_err());
        let oob = vec![TreeNode::Split {
            feature: 0,
            threshold: 1.0,
            left: 1,
            right: 7,
            samples: 2,
        }];
        assert!(FlatTree::from_nodes(&oob).is_err());
    }

    #[test]
    fn deserialization_rejects_out_of_range_split_features() {
        let data = step_dataset();
        let mut rng = Rng::seed_from_u64(20);
        let mut tree = DecisionTree::default();
        tree.fit(&data, &mut rng);
        // Round-trips cleanly as serialized.
        let value = tree.serialize_value();
        assert_eq!(DecisionTree::deserialize_value(&value).unwrap(), tree);
        // Tamper: a split testing column 7 of a 1-feature model must be
        // rejected at load time, not panic the first prediction.
        let bad_nodes = vec![
            TreeNode::Split {
                feature: 7,
                threshold: 0.5,
                left: 1,
                right: 2,
                samples: 2,
            },
            TreeNode::Leaf {
                prediction: 1.0,
                samples: 1,
            },
            TreeNode::Leaf {
                prediction: 2.0,
                samples: 1,
            },
        ];
        let serde::Value::Map(mut entries) = value else {
            panic!("trees serialize as maps");
        };
        for (key, field) in &mut entries {
            if key.as_str() == Some("nodes") {
                *field = bad_nodes.serialize_value();
            }
        }
        let err = DecisionTree::deserialize_value(&serde::Value::Map(entries))
            .expect_err("out-of-range split feature must not load");
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn deep_chain_archives_do_not_overflow_the_stack() {
        // A 50 000-level left-leaning chain is flat JSON (indices, not
        // nesting): (de)serialization and depth bookkeeping must all be
        // iterative, and the batch walk must take the early-exit path
        // rather than 50 000 fixed passes.
        let depth = 50_000usize;
        let mut nodes = Vec::with_capacity(2 * depth + 1);
        for i in 0..depth {
            nodes.push(TreeNode::Split {
                feature: 0,
                threshold: -((i as f64) + 1.0),
                left: i + 1,
                right: depth + 1 + i,
                samples: depth - i,
            });
        }
        // Chain end, then one right leaf per split.
        nodes.push(TreeNode::Leaf {
            prediction: -1.0,
            samples: 1,
        });
        for i in 0..depth {
            nodes.push(TreeNode::Leaf {
                prediction: i as f64,
                samples: 1,
            });
        }
        let tree = FlatTree::from_nodes(&nodes).unwrap();
        assert_eq!(tree.depth(), depth);
        assert_eq!(tree.node_count(), nodes.len());
        // 0.0 > every threshold: the walk exits right at the first split.
        assert_eq!(tree.predict_row(&[0.0]), 0.0);
        // -∞ is <= every threshold: the walk runs the whole chain.
        assert_eq!(tree.predict_row(&[f64::NEG_INFINITY]), -1.0);
        let mut probes = FeatureMatrix::new(1);
        probes.push_row(&[0.0]);
        probes.push_row(&[f64::NEG_INFINITY]);
        let mut out = vec![0.0; 2];
        FlatTree::accumulate_ensemble(std::iter::once((&tree, 1.0)), &probes, &mut out);
        assert_eq!(out, vec![0.0, -1.0]);
        // Re-serialization of the deep tree is iterative too.
        let reserialized = tree.to_nodes();
        assert_eq!(reserialized.len(), nodes.len());
        assert_eq!(&FlatTree::from_nodes(&reserialized).unwrap(), &tree);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn short_rows_fail_loudly() {
        let data = step_dataset();
        let mut rng = Rng::seed_from_u64(14);
        let mut tree = DecisionTree::default();
        tree.fit(&data, &mut rng);
        // A row missing the split feature is malformed input: no silent
        // zero-padding, the walk panics.
        let _ = tree.predict_row(&[]);
    }
}
