"""Regression trees grown on mean-squared-error reduction, plus bagged forests.

Splitting is exhaustive over midpoints of adjacent observed feature values,
gain-ties break to the lowest feature index then lowest threshold, and forests
subsample two thirds of the rows without replacement per tree with seeds
derived from (master seed, tree index).

Growth is level-synchronous: each tree's rows are sorted once per feature
(the presort scheme of CART), and every splittable node of every tree in a
batch is scanned at once in padded (nodes, features, rows) arrays. A float
prefix-sum scan ranks the candidate splits, and the near-best ones are
re-checked in one array pass over exact int64 limbs of the batch's responses
and their squares, tabled once per batch. The limbs are cut from each value's
mantissa, so one exact accumulator covers every finite double; a response is
bounded only so that its sums of squares stay finite. Split nodes' segments are
partitioned by one stable radix sort. Each node's mean and mse are computed
once a batch is grown, one mean per distinct node size. Trees and forests
alike go through this one kernel; a forest's trees are grown in fixed-size
batches, each batch one task on worker processes that `fit_forest` forks,
one per batch and at most one per usable CPU
(see `passthru.pools`: a fork starts in 13-14 ms, a forkserver with its numpy
import in 289-380 ms, more than a whole fig5 forest; the kernel calls no BLAS,
and threads gain nothing, as the kernel holds the interpreter lock).
Identical data, settings and seed give identical models, whatever the batch
a tree is grown in or the worker count. A fitted tree or forest is one
set of flat node arrays, each tree's nodes in preorder and the trees one after
another (see `RegressionTree`); routing, `importance`, `tree_shape` and the
leaf boxes of partial dependence all walk these arrays from the trees' roots.

Routing moves every (tree, row) pair down one level per step and gives each
pair's leaf. A prediction is the correctly rounded sum of the trees' leaf
values, divided by the tree count, for a lone tree as for a forest: the sum
runs over exact integer limbs (`passthru.accumulator`), one batch of
(tree, row) pairs at a time, and equals math.fsum, so it does not depend on
tree order. `partial_dependence` routes no point: each leaf is a box, and a
summed-area table of the leaves' limbs over the grid's cells gives every grid
and slice point the same sum that routing would.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass, replace
from functools import partial
from numbers import Integral, Real
from typing import Iterator, Sequence

import numpy as np

from passthru.accumulator import _limbs, _round_sums
from passthru.errors import PassthruError
from passthru.pools import map_tasks, usable_cpus


FOREST_TREES, FOREST_SUBSAMPLE = 1000, 2.0 / 3.0  # fit_forest's defaults: trees, and each one's share of rows
# Trees that fit_forest grows together. A batch's per-level arrays grow with
# its size, so this bounds peak memory near that of growing one tree at a time.
_BATCH_TREES = 128
# (tree, row) pairs that _route moves together. Each step holds a few int64
# arrays of this many pairs, so routing memory stays bounded for any row count.
_ROUTE_PAIRS = 1 << 16

# The square root of the largest double. A response whose rows * max|y| stays
# within it keeps y^2, the sums of y^2 and the squares of sums of y finite.
_RESPONSE_LIMIT = math.sqrt(sys.float_info.max)


class TreeError(PassthruError):
    pass


class EmptyInputError(TreeError):
    pass


class DimensionMismatchError(TreeError):
    pass


class NoSplitsError(TreeError):
    pass


def _check_int(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise TreeError(f"{name} must be an int of at least {least}, got {value!r}")


def _check_real(name: str, value, what: str, admits=lambda v: True) -> None:
    if isinstance(value, bool) or not isinstance(value, Real) or not admits(value):
        raise TreeError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class SplitParams:
    min_leaf: int = 5
    max_depth: int | None = None

    def __post_init__(self):
        _check_int("min_leaf", self.min_leaf, 1)
        if self.max_depth is not None:
            _check_int("max_depth", self.max_depth, 0)


@dataclass(frozen=True, eq=False)
class RegressionTree:
    """A fitted tree or forest: seven equal-length, read-only node arrays.

    Tree t's nodes run in preorder from its root, roots[t], up to the next
    tree's root; a lone tree has roots [0], and a forest holds its trees one
    after another. A split node i sends the rows with
    x[feature[i]] <= threshold[i] to its left child, i + 1, and the others to
    its right child, right[i], an index into the whole arrays. A leaf has
    feature and right -1, threshold and gain 0. Every node holds its training
    row count n, the mse of its rows and their mean, prediction. The model
    also keeps its features' names and training bounds, and the rows each
    bagged tree t drew, row_indices[t]; a tree grown on every row has none.
    """

    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    gain: np.ndarray
    n: np.ndarray
    mse: np.ndarray
    prediction: np.ndarray
    roots: np.ndarray
    feature_names: tuple[str, ...]
    feature_min: np.ndarray
    feature_max: np.ndarray
    row_indices: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        for field in (self.feature, self.threshold, self.right, self.gain, self.n, self.mse, self.prediction, self.roots):
            field.flags.writeable = False

    @property
    def n_trees(self) -> int:
        return self.roots.size

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def _sse(s: np.ndarray, q: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Sum of squared deviations of count values from the exactly rounded sums s of them and q of their squares."""
    return np.maximum(q - s * s / count, 0.0)


def _split_sse(
    limbs: list[tuple[np.ndarray, int, int]], along: np.ndarray, b: np.ndarray, n: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact sse of each candidate's first b rows of `along` and of its next n - b.

    `limbs` holds the (table, w, shift) of the responses and of their
    squares (see `_limbs`). The candidates' rows are laid end to end, one
    int64 reduceat sums each candidate's left and right rows, and every sum
    is rounded once.
    """
    rows = along[np.arange(along.shape[-1]) < n[:, None]]
    begin = np.cumsum(n) - n
    cuts = np.column_stack([begin, begin + b]).ravel()
    sums = []
    for table, w, shift in limbs:
        parts = np.add.reduceat(table[:, rows], cuts, axis=1)  # left, right, left, right, ...
        sums += np.split(_round_sums(np.concatenate([parts[:, ::2], parts[:, 1::2]], axis=1), w, shift), 2)
    s_left, s_right, q_left, q_right = sums
    return _sse(s_left, q_left, b), _sse(s_right, q_right, n - b)


def _scan(
    xs: np.ndarray,
    rows: np.ndarray,
    y: np.ndarray,
    limbs: list[tuple[np.ndarray, int, int]],
    n: np.ndarray,
    node_sse: np.ndarray,
    params: SplitParams,
) -> tuple[np.ndarray, ...]:
    """Best admissible split of each node, from its rows presorted per feature.

    rows is a (nodes, features, rows) array holding node i's rows in
    ascending order of each feature, and xs those rows' values, both padded
    past row n[i] with its last row. The float prefix sums run along the row
    axis, so they equal the sums of a lone node; they rank every candidate,
    and those within 1e-9 of their node's best are re-checked with exactly
    rounded sums, in one array pass over the batch's `limbs` (see
    `_split_sse`). One lexsort picks each node's highest exact gain, then
    lowest feature, then lowest threshold. Returns arrays over the nodes
    whose best gain is positive: (node, exact gain, feature, left size,
    threshold, left sse, right sse).
    """
    ys = y[rows]
    boundary = np.arange(1, xs.shape[-1])  # left child = the first `boundary` rows
    valid = (
        (xs[..., 1:] > xs[..., :-1])
        & (boundary >= params.min_leaf)
        & (n[:, None, None] - boundary >= params.min_leaf)
    )
    csum = np.cumsum(ys, axis=-1)
    csumsq = np.cumsum(ys * ys, axis=-1)
    node, feat, pos = np.nonzero(valid)
    iv = pos + 1
    nv = n[node]
    tot, totsq = csum[node, feat, nv - 1], csumsq[node, feat, nv - 1]
    left, leftsq = csum[node, feat, pos], csumsq[node, feat, pos]
    sse_l = np.maximum(leftsq - left ** 2 / iv, 0.0)
    sse_r = np.maximum((totsq - leftsq) - (tot - left) ** 2 / (nv - iv), 0.0)
    gains = (node_sse[node] - sse_l - sse_r) / nv
    best_float = np.full(n.shape, -np.inf)
    np.maximum.at(best_float, node, gains)
    band = best_float - 1e-9 * np.maximum(np.abs(best_float), node_sse / n)

    # near-best candidates are re-evaluated with exactly rounded sums, so ties
    # (identical partitions reachable through different features) resolve to
    # the lowest feature index, then the lowest threshold
    near = np.flatnonzero(gains >= band[node])
    node, feat, iv, nv = node[near], feat[near], iv[near], nv[near]
    below, above = xs[node, feat, iv - 1], xs[node, feat, iv]
    thresholds = (below + above) / 2.0
    # adjacent doubles can round the midpoint up to the right value, which
    # would route the boundary row the wrong way; fall back to the left value
    thresholds = np.where(thresholds >= above, below, thresholds)
    sse_left, sse_right = _split_sse(limbs, rows[node, feat], iv, nv)
    exact = (node_sse[node] - sse_left - sse_right) / nv
    ranked = np.lexsort((thresholds, feat, -exact, node))
    won = ranked[np.diff(node[ranked], prepend=-1) != 0]
    won = won[exact[won] > 0.0]
    return node[won], exact[won], feat[won], iv[won], thresholds[won], sse_left[won], sse_right[won]


def best_split(x: np.ndarray, y: np.ndarray, params: SplitParams) -> tuple[int, float, float] | None:
    """Max-gain (feature, threshold, gain) over all candidate midpoints, or None.

    gain = mse(node) - (n_L mse_L + n_R mse_R) / n; candidates leaving a child
    below min_leaf are skipped; the best gain must be positive.
    A fast prefix-sum scan ranks candidates; near-best ones are re-evaluated
    with exactly rounded sums, so ties (identical partitions reachable through
    different features) resolve deterministically to the lowest feature index,
    then the lowest threshold. This is the root split of a tree of depth 1.
    """
    x, y = _validate_xy(x, y)
    (feature, threshold, _, gain, *_), _ = _grow(x, y, y.shape[0], replace(params, max_depth=1))
    return None if feature[0] < 0 else (int(feature[0]), float(threshold[0]), float(gain[0]))


def _validate_xy(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] == 0:
        raise EmptyInputError("feature matrix must be a non-empty 2-d array")
    if y.shape != (x.shape[0],):
        raise DimensionMismatchError(f"y has shape {y.shape}, expected ({x.shape[0]},)")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise TreeError("features and response must be finite")
    scale = y.shape[0] * float(np.abs(y).max())
    if scale > _RESPONSE_LIMIT:
        raise TreeError(
            f"response must have rows * max|y| of at most {_RESPONSE_LIMIT:.6g}, the square root of the "
            f"largest double, so that its sums of squares stay finite, got {scale:.6g}"
        )
    return x, y


def _name_columns(x: np.ndarray, feature_names: Sequence[str] | None) -> tuple[str, ...]:
    """The given names, one per column of x, or x0, x1, ... when none are given."""
    if feature_names is None:
        return tuple(f"x{j}" for j in range(x.shape[1]))
    if len(feature_names) != x.shape[1]:
        raise DimensionMismatchError("one name per feature column")
    return tuple(feature_names)


def _node_stats(y: np.ndarray, rows: np.ndarray, begin: np.ndarray, size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mse, prediction) of each node, whose rows are rows[begin:begin + size].

    Each node's rows are sorted, so its responses are in row order, and the
    nodes of one size are summed as one (nodes, size) block: a mean over
    equal-length rows sums each row as np.mean does a lone array.
    """
    mse, prediction = np.empty(size.shape), np.empty(size.shape)
    by_size = np.argsort(size, kind="stable")
    bounds = [0, *(np.flatnonzero(np.diff(size[by_size])) + 1).tolist(), size.size]
    for a, b in zip(bounds, bounds[1:]):
        same = by_size[a:b]
        block = y[np.sort(rows[begin[same, None] + np.arange(size[same[0]])], axis=1)]
        prediction[same] = mean = block.mean(axis=1)
        mse[same] = ((block - mean[:, None]) ** 2).mean(axis=1)
    return mse, prediction


def _grow(x: np.ndarray, y: np.ndarray, m: int, params: SplitParams) -> tuple[list[np.ndarray], np.ndarray]:
    """Grow one tree on each m-row block of (x, y); return their node arrays and roots, numbered from 0.

    Every splittable node of every tree is scanned at once, one depth level
    per pass. Each tree's rows are sorted once per feature, stable by
    (value, row), and each node owns one segment of every sorted order. The
    split nodes' segments are partitioned by one stable argsort of
    2 * (split node's ordinal) + goes_right, whose keys take the smallest
    unsigned type that holds them, so numpy radix-sorts them, and the
    children's segments stay sorted. A node's descendants share out its
    segment, so once the batch is grown the segment still holds its rows,
    for its prediction and mse (see `_node_stats`); a level computes only
    each node's least and greatest response. The exact int64 limbs of the
    responses and of their squares (see `_limbs`) are tabled once per batch,
    for the roots' and `_scan`'s exact sums.

    Nodes are numbered as they are created, a level after their parents, and
    renumbered in preorder at the end: subtree sizes bottom-up, then
    positions top-down, the trees one after another. The arrays come back in
    `RegressionTree` field order.
    """
    f = x.shape[1]
    starts = np.arange(0, y.shape[0], m)
    order = np.argsort(x.T.reshape(f, starts.size, m), axis=-1, kind="stable") + starts[:, None]
    order = order.reshape(f, y.shape[0])
    size = np.full(starts.shape, m)
    limbs = [_limbs(v, m) for v in (y, y * y)]
    s, q = (_round_sums(t.reshape(t.shape[0], -1, m).sum(axis=-1), w, shift) for t, w, shift in limbs)
    sse = _sse(s, q, m)
    trees = starts.size
    created = []  # every level's nodes' (start, size), by creation number
    # per level, the split nodes' (node, left child, feature, threshold,
    # gain); the right child follows the left one
    levels: list[tuple[np.ndarray, ...]] = []
    total = 0  # nodes created so far
    while True:
        first, total = total, total + size.size
        created.append((starts, size))
        if params.max_depth is not None and len(levels) >= params.max_depth:
            break
        # [start, end) of each node, and the gaps between: reduceat's odd
        # slots; one value past the last row serves an end there
        cuts = np.column_stack([starts, starts + size]).ravel()
        responses = np.append(y[order[0]], 0.0)
        lowest = np.minimum.reduceat(responses, cuts)[::2]
        highest = np.maximum.reduceat(responses, cuts)[::2]
        nodes = np.flatnonzero((size >= 2 * params.min_leaf) & (lowest != highest))
        if not nodes.size:
            break
        begin, n = starts[nodes], size[nodes]
        at = np.minimum(begin[:, None] + np.arange(n.max()), (begin + n - 1)[:, None])
        rows = order[:, at].swapaxes(0, 1)
        node, gain, feature, n_left, threshold, sse_left, sse_right = _scan(
            x[rows, np.arange(f)[:, None]], rows, y, limbs, n, sse[nodes], params
        )
        if not node.size:
            break
        node = nodes[node]
        levels.append((first + node, total + 2 * np.arange(node.size), feature, threshold, gain))

        # stable partition of each split node's segments: left rows first
        begin, n = starts[node], size[node]
        pos = np.repeat(begin - np.cumsum(n) + n, n) + np.arange(n.sum())
        part = order[:, pos]
        goes_right = x[part, np.repeat(feature, n)] > np.repeat(threshold, n)
        key = np.repeat(2 * np.arange(node.size), n).astype(np.min_scalar_type(2 * node.size - 1)) + goes_right
        order[:, pos] = np.take_along_axis(part, np.argsort(key, axis=-1, kind="stable"), axis=-1)

        starts = np.column_stack([begin, begin + n_left]).ravel()
        size = np.column_stack([n_left, n - n_left]).ravel()
        sse = np.column_stack([sse_left, sse_right]).ravel()
    begin, size = (np.concatenate(c) for c in zip(*created))
    mse, prediction = _node_stats(y, order[0], begin, size)

    subtree = np.ones(total, dtype=np.intp)
    for parent, left, *_ in reversed(levels):
        subtree[parent] += subtree[left] + subtree[left + 1]
    root = np.cumsum(subtree[:trees]) - subtree[:trees]  # each tree's first slot
    slot = np.empty(total, dtype=np.intp)  # each node's preorder position in the batch
    slot[:trees] = root
    feature, threshold, right, gain = np.full(total, -1), np.zeros(total), np.full(total, -1), np.zeros(total)
    for parent, left, *split in levels:
        at = slot[parent]
        slot[left] = at + 1
        slot[left + 1] = at + 1 + subtree[left]
        feature[at], threshold[at], gain[at] = split
        right[at] = slot[left + 1]
    preorder = np.argsort(slot)  # the creation number of each slot
    return [feature, threshold, right, gain, size[preorder], mse[preorder], prediction[preorder]], root


def fit_tree(
    x, y, params: SplitParams = SplitParams(), feature_names: Sequence[str] | None = None
) -> RegressionTree:
    """Grow a tree by best splits, level by level, until none is admissible."""
    x, y = _validate_xy(x, y)
    names = _name_columns(x, feature_names)
    nodes, roots = _grow(x, y, x.shape[0], params)
    return RegressionTree(*nodes, roots, names, x.min(axis=0), x.max(axis=0))


def _route(model: RegressionTree, x: np.ndarray) -> Iterator[np.ndarray]:
    """The (trees, rows) leaves that the rows reach in each tree, a batch of trees at a time.

    A batch holds as many trees as keep its (tree, row) pairs within
    _ROUTE_PAIRS, and at least one. Every (tree, row) pair moves down one
    level per step until all are at leaves. A leaf steps to itself: it acts
    as a split on feature 0 at +inf whose children are both the leaf.
    """
    leaf = model.feature < 0
    node = np.arange(leaf.size)
    feature = np.where(leaf, 0, model.feature)
    threshold = np.where(leaf, np.inf, model.threshold)
    # child[2i + 1] is node i's left child, taken where x <= threshold, and child[2i] its right one
    child = np.column_stack([np.where(leaf, node, model.right), np.where(leaf, node, node + 1)]).ravel()
    values = x.ravel()
    trees = max(1, _ROUTE_PAIRS // max(1, x.shape[0]))  # no rows: every tree in one empty batch
    for first in range(0, model.n_trees, trees):
        roots = model.roots[first : first + trees]
        at = np.tile(np.arange(0, x.size, x.shape[1]), roots.size)  # each pair's row, as an offset into values
        node = np.repeat(roots, x.shape[0])
        while not leaf[node].all():
            node = child[2 * node + (values[at + feature[node]] <= threshold[node])]
        yield node.reshape(roots.size, x.shape[0])


def predict_many(model: RegressionTree, x) -> np.ndarray:
    """Each row's prediction: the exactly summed mean of its leaves over the model's trees, routed a batch at a time."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise DimensionMismatchError(f"expected (n, {model.n_features}) features")
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        r, j = bad[0].tolist()
        raise TreeError(f"row {r}: feature {model.feature_names[j]!r} is {x[r, j]}, not finite")
    table, w, shift = _limbs(model.prediction, model.n_trees)
    return _round_sums(sum(table[:, leaves].sum(axis=1) for leaves in _route(model, x)), w, shift) / model.n_trees


def _grow_batch(
    x: np.ndarray, y: np.ndarray, m: int, params: SplitParams, seed: int, trees: range
) -> tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]:
    """Trees `trees` of a forest: their node arrays and roots, numbered from 0, and each one's rows.

    Tree t draws m distinct rows of (x, y) from a generator seeded by
    (seed, t). A batch is one task of `fit_forest`'s worker pool, so it reads
    nothing but its arguments.
    """
    rows = [  # sorted, so the draw need not be shuffled
        np.sort(np.random.default_rng((seed, t)).choice(y.shape[0], size=m, replace=False, shuffle=False))
        for t in trees
    ]
    idx = np.concatenate(rows)
    return (*_grow(x[idx], y[idx], m, params), rows)


def forest_workers(n_trees: int) -> int:
    """The worker processes a forest of `n_trees` grows on: one per batch, at most one per usable CPU."""
    return min(usable_cpus(), -(-n_trees // _BATCH_TREES))


def fit_forest(
    x,
    y,
    n_trees: int = FOREST_TREES,
    subsample: float = FOREST_SUBSAMPLE,
    seed: int = 0,
    params: SplitParams = SplitParams(),
    feature_names: Sequence[str] | None = None,
) -> RegressionTree:
    """Bag `n_trees` trees, each on ceil(subsample * n) distinct rows.

    Tree t draws its rows from a generator seeded by (seed, t), and trees are
    grown together in batches of _BATCH_TREES, each tree from its own rows
    only, so the model does not depend on which trees share a batch. Each
    batch is one task (see `_grow_batch`) on `forest_workers(n_trees)`
    worker processes, forked by `passthru.pools.map_tasks` and kept for the
    next call, or in the calling process when that is 1. The batches are
    joined in tree order, so the model does not depend on the worker count
    either.
    """
    x, y = _validate_xy(x, y)
    names = _name_columns(x, feature_names)
    n = x.shape[0]
    if n < 3:
        raise EmptyInputError("bagging needs at least 3 rows")
    _check_real("subsample", subsample, "a number in (0, 1]", lambda f: 0.0 < f <= 1.0)
    _check_int("n_trees", n_trees, 1)
    _check_int("seed", seed, 0)
    m = math.ceil(subsample * n)
    batches = [range(t, min(t + _BATCH_TREES, n_trees)) for t in range(0, n_trees, _BATCH_TREES)]
    grown = map_tasks(partial(_grow_batch, x, y, m, params, seed), batches, forest_workers(n_trees), "fork")
    nodes, roots, total = [], [], 0  # total: the nodes of the batches before
    for arrays, batch_roots, _ in grown:  # a batch numbers its right children and roots from 0
        arrays[2] = np.where(arrays[2] < 0, -1, arrays[2] + total)
        nodes.append(arrays)
        roots.append(batch_roots + total)
        total += arrays[0].size
    row_indices = tuple(rows for *_, drawn in grown for rows in drawn)
    return RegressionTree(
        *map(np.concatenate, zip(*nodes)), np.concatenate(roots), names, x.min(axis=0), x.max(axis=0), row_indices
    )


@dataclass(frozen=True, eq=False)
class ImportanceReport:
    feature_names: tuple[str, ...]
    raw: np.ndarray     # average per-node MSE gain for nodes splitting the feature
    shares: np.ndarray  # raw normalized to sum to one

    def share(self, name: str) -> float:
        return float(self.shares[self.feature_names.index(name)])


def importance(model: RegressionTree) -> ImportanceReport:
    """Per-feature average of node MSE gains, over every split in the model."""
    k = model.n_features
    split = model.feature >= 0
    feature = model.feature[split]
    # bincount adds in input order, so the gains sum in preorder, tree by tree
    gain_sum = np.bincount(feature, model.gain[split], minlength=k)
    counts = np.bincount(feature, minlength=k)
    if counts.sum() == 0:
        raise NoSplitsError("model has no split nodes")
    raw = np.where(counts > 0, gain_sum / np.maximum(counts, 1), 0.0)
    return ImportanceReport(feature_names=model.feature_names, raw=raw, shares=raw / raw.sum())


def tree_shape(model: RegressionTree) -> tuple[int, int]:
    """Node count and greatest depth over the model's trees; a lone leaf has depth 0.

    One walk, a depth level at a time, covers all trees' nodes.
    """
    node, depth = model.roots, -1
    while node.size:
        depth += 1
        node = node[model.feature[node] >= 0]
        node = np.concatenate([node + 1, model.right[node]])
    return model.feature.size, depth


@dataclass(frozen=True)
class AxisSpec:
    """One grid axis: `steps` evenly spaced values from minimum to maximum."""

    minimum: float
    maximum: float
    steps: int

    def __post_init__(self):
        _check_real("minimum", self.minimum, "a real number")
        _check_real("maximum", self.maximum, "a real number")
        _check_int("steps", self.steps, 2)
        if not (math.isfinite(self.minimum) and math.isfinite(self.maximum)):
            raise TreeError(f"axis bounds must be finite, got [{self.minimum}, {self.maximum}]")
        if not (self.maximum > self.minimum):
            raise TreeError("axis maximum must exceed its minimum")
        if not math.isfinite(self.maximum - self.minimum):
            raise TreeError(f"axis span [{self.minimum}, {self.maximum}] overflows a double")

    def values(self) -> np.ndarray:
        return np.linspace(self.minimum, self.maximum, self.steps)


@dataclass(frozen=True, eq=False)
class SliceCurve:
    fixed_feature: str
    fixed_value: float
    along_feature: str
    along_values: np.ndarray
    predictions: np.ndarray


@dataclass(frozen=True, eq=False)
class PdGrid:
    axis_names: tuple[str, str]
    axis_values: tuple[np.ndarray, np.ndarray]
    surface: np.ndarray  # shape (axis_values[0].size, axis_values[1].size)
    slices: tuple[SliceCurve, ...] = ()

    def to_csv(self) -> str:
        lines = [f"{self.axis_names[0]},{self.axis_names[1]},prediction"]
        for i, a in enumerate(self.axis_values[0]):
            for j, b in enumerate(self.axis_values[1]):
                lines.append(f"{a:.6g},{b:.6g},{self.surface[i, j]:.6g}")
        return "\n".join(lines) + "\n"

    def slices_to_csv(self) -> str:
        lines = ["fixed_feature,fixed_value,along_feature,along_value,prediction"]
        for s in self.slices:
            for v, pred in zip(s.along_values, s.predictions):
                lines.append(f"{s.fixed_feature},{s.fixed_value:.6g},{s.along_feature},{v:.6g},{pred:.6g}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        def f(v: float) -> float:
            return float(f"{v:.6g}")

        payload = {
            "axes": [
                {"feature": name, "values": [f(v) for v in vals]}
                for name, vals in zip(self.axis_names, self.axis_values)
            ],
            "surface": [[f(v) for v in row] for row in self.surface],
            "slices": [
                {
                    "fixed_feature": s.fixed_feature,
                    "fixed_value": f(s.fixed_value),
                    "along_feature": s.along_feature,
                    "along_values": [f(v) for v in s.along_values],
                    "predictions": [f(v) for v in s.predictions],
                }
                for s in self.slices
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _leaf_boxes(model: RegressionTree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every leaf of the model: its value, and its box's (leaves, features) lo and hi.

    A leaf holds the points x with lo < x <= hi in every feature. One walk,
    a depth level at a time, covers all trees' nodes: a left child
    (x <= threshold) takes hi = threshold, and a right child takes
    lo = threshold.
    """
    feature, threshold, right, node = model.feature, model.threshold, model.right, model.roots
    lo = np.full((node.size, model.n_features), -np.inf)
    hi = np.full_like(lo, np.inf)
    leaves = []
    while node.size:
        f = feature[node]
        leaf, split = np.flatnonzero(f < 0), np.flatnonzero(f >= 0)  # index arrays take rows faster than masks
        leaves.append((node[leaf], lo[leaf], hi[leaf]))
        node, f, lo, hi = node[split], f[split], lo[split], hi[split]
        left_hi, right_lo = hi.copy(), lo.copy()
        left_hi[np.arange(node.size), f] = right_lo[np.arange(node.size), f] = threshold[node]
        node = np.concatenate([node + 1, right[node]])
        lo, hi = np.concatenate([lo, right_lo]), np.concatenate([left_hi, hi])
    node, lo, hi = (np.concatenate(c) for c in zip(*leaves))
    return model.prediction[node], lo, hi


def _cell_sums(model: RegressionTree, cuts: Sequence[np.ndarray], cells: Sequence[np.ndarray]) -> np.ndarray:
    """Each point's exact sum over the trees, from a summed-area table of leaf boxes.

    cuts[j] holds the sorted distinct values of feature j, and cells[j] each
    point's rank among them. A leaf's box covers a rectangle of ranks,
    so its limbs (see `_limbs`) go to the rectangle's 4 corners of a
    difference table, and two cumulative sums give every cell its trees'
    total (Crow 1984).
    """
    values, lo, hi = _leaf_boxes(model)
    table, w, shift = _limbs(values, model.n_trees)
    # a box (lo, hi] holds the ranks start <= r < end of its axis
    (s0, e0), (s1, e1) = (
        (np.searchsorted(c, lo[:, j], "right"), np.searchsorted(c, hi[:, j], "right")) for j, c in enumerate(cuts)
    )
    width = cuts[1].size + 1
    corners = np.concatenate([s0 * width + s1, e0 * width + e1, s0 * width + e1, e0 * width + s1])
    diff = np.zeros((table.shape[0], (cuts[0].size + 1) * width), dtype=np.int64)
    for limb, value in zip(diff, table):  # a 1-d np.add.at is many times faster than a 2-d one
        np.add.at(limb, corners, np.concatenate([value, value, -value, -value]))
    # int64 sums may wrap on the way, harmlessly: every cell's final sum adds
    # one leaf per tree, which fits (see _limbs), and wrapping is modular
    sat = diff.reshape(-1, cuts[0].size + 1, width).cumsum(axis=1).cumsum(axis=2)
    return _round_sums(sat[:, cells[0], cells[1]], w, shift)


def partial_dependence(
    model: RegressionTree,
    axes: tuple[AxisSpec, AxisSpec],
    slices: Sequence[tuple[str, float]] = (),
) -> PdGrid:
    """Predictions over a Cartesian grid of the model's two features; axes[j] spans feature j.

    With exactly two predictors the surface is the direct prediction, no
    marginalization needed. A slice curve fixes the feature it names and
    sweeps the other along its grid axis. A non-finite slice value fails;
    axes and slices outside the training range warn but run. No point is
    routed: each axis's grid and slice values cut it into cells, and one
    summed-area table of the trees' leaf boxes gives every cell's prediction,
    equal to predict_many's at its points.
    """
    if model.n_features != 2:
        raise DimensionMismatchError("partial dependence grids need a 2-feature model")
    names = model.feature_names
    fixed = []  # each slice's (feature index, value)
    for feature, value in slices:
        if feature not in names:
            raise DimensionMismatchError(f"unknown feature {feature!r}")
        fixed.append((names.index(feature), value))
    for j, value in fixed:
        _check_real(f"slice at {names[j]!r}", value, "a real number")
        if not math.isfinite(value):
            raise TreeError(f"slice at {names[j]!r} is {value}, not finite")
    for j, ax in enumerate(axes):
        if ax.minimum < model.feature_min[j] or ax.maximum > model.feature_max[j]:
            warnings.warn(
                f"axis for {names[j]!r} extends beyond the training range "
                f"[{model.feature_min[j]:g}, {model.feature_max[j]:g}]",
                stacklevel=2,
            )
    for j, value in fixed:
        if not model.feature_min[j] <= value <= model.feature_max[j]:
            warnings.warn(
                f"slice at {names[j]!r} = {value:g} lies beyond the training range "
                f"[{model.feature_min[j]:g}, {model.feature_max[j]:g}]",
                stacklevel=2,
            )

    vals = (axes[0].values(), axes[1].values())
    # each axis's distinct grid and slice values, and every point's ranks among
    # them: the grid's points first, then each slice's, along the other axis
    cuts = [np.sort(np.concatenate([v, [value for f, value in fixed if f == j]])) for j, v in enumerate(vals)]
    cuts = [c[np.append(True, np.diff(c) > 0)] for c in cuts]  # np.unique's first call imports numpy.ma, 1.6 MiB
    ranks = [np.searchsorted(c, v) for c, v in zip(cuts, vals)]
    cells = [[np.repeat(ranks[0], vals[1].size)], [np.tile(ranks[1], vals[0].size)]]
    shown = []
    for j, value in fixed:
        cells[j].append(np.full(vals[1 - j].size, np.searchsorted(cuts[j], value)))
        cells[1 - j].append(ranks[1 - j])
        shown.append((names[j], float(value), names[1 - j], vals[1 - j]))
    cells = [np.concatenate(c) for c in cells]
    predictions = _cell_sums(model, cuts, cells) / model.n_trees
    ends = np.cumsum([vals[0].size * vals[1].size] + [s[3].size for s in shown])
    predictions = np.split(predictions, ends[:-1])
    curves = [SliceCurve(*s, predictions=p) for s, p in zip(shown, predictions[1:])]
    return PdGrid(
        axis_names=names,
        axis_values=vals,
        surface=predictions[0].reshape(vals[0].size, vals[1].size),
        slices=tuple(curves),
    )
