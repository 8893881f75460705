"""Regression trees grown on mean-squared-error reduction, plus bagged forests.

Splitting is exhaustive over midpoints of adjacent observed feature values,
gain-ties break to the lowest feature index then lowest threshold, and forests
subsample two thirds of the rows without replacement per tree with seeds
derived from (master seed, tree index).

Growth is level-synchronous: each tree's rows are sorted once per feature
(the presort scheme of CART), and every open node of every tree in a batch
is scanned at once in zero-padded (nodes, features, rows) arrays. Trees and
forests alike go through this one kernel; a forest's trees are grown in
fixed-size batches in one thread. Identical data, settings and seed give
identical models, whatever the batch a tree is grown in. A fitted tree is
a set of flat node arrays in preorder (see `RegressionTree`), which one
routing function, `importance` and `tree_shape` read.

Routing gives each row's leaf id. A forest's prediction is the correctly
rounded sum of its trees' leaf values, divided by the tree count: the sum
runs over exact integer limbs, one tree at a time, and equals math.fsum, so
it does not depend on tree order. `partial_dependence` routes the grid and
every slice through the trees in one pass.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from passthru.errors import PassthruError


# Trees that fit_forest grows together. A batch's per-level arrays grow with
# its size, so this bounds peak memory near that of growing one tree at a time.
_BATCH_TREES = 128


class TreeError(PassthruError):
    pass


class EmptyInputError(TreeError):
    pass


class DimensionMismatchError(TreeError):
    pass


class NoSplitsError(TreeError):
    pass


@dataclass(frozen=True)
class SplitParams:
    min_leaf: int = 5
    max_depth: int | None = None
    min_gain: float = 0.0

    def __post_init__(self):
        if self.min_leaf < 1:
            raise TreeError("min_leaf must be >= 1")
        if self.min_gain < 0.0:
            raise TreeError("min_gain must be >= 0")
        if self.max_depth is not None and self.max_depth < 0:
            raise TreeError("max_depth must be >= 0")


@dataclass(frozen=True, eq=False)
class RegressionTree:
    """A fitted tree as seven equal-length, read-only node arrays, in preorder.

    Node 0 is the root. A split node i sends the rows with
    x[feature[i]] <= threshold[i] to its left child, i + 1, and the others to
    its right child, right[i]. A leaf has feature and right -1, threshold and
    gain 0. Every node holds its training row count n, the mse of its rows
    and their mean, prediction.
    """

    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    gain: np.ndarray
    n: np.ndarray
    mse: np.ndarray
    prediction: np.ndarray
    n_features: int
    params: SplitParams
    feature_names: tuple[str, ...] | None = None


@dataclass(frozen=True, eq=False)
class ForestModel:
    trees: tuple[RegressionTree, ...]
    row_indices: tuple[np.ndarray, ...]
    n_features: int
    subsample: float
    seed: int
    params: SplitParams
    feature_names: tuple[str, ...] | None
    feature_min: np.ndarray
    feature_max: np.ndarray

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def _exact_sse(values: np.ndarray) -> float:
    """Sum of squared deviations via exactly rounded sums (order-independent)."""
    m = values.shape[0]
    s = math.fsum(values.tolist())  # a list sums faster than numpy scalars, to the same value
    return max(math.fsum((values * values).tolist()) - s * s / m, 0.0)


def _scan(
    xs: np.ndarray,
    ys: np.ndarray,
    n: np.ndarray,
    node_sse: np.ndarray,
    params: SplitParams,
    features: np.ndarray,
) -> list[tuple[float, int, float, int, float, float] | None]:
    """Best admissible split of each node, from its rows presorted per feature.

    xs and ys are (nodes, features, rows) arrays holding node i's values of
    each feature in ascending order and its responses in that order, zero
    past row n[i]. The prefix sums run along the row axis, so they equal the
    sums of a lone node. Returns, per node, None or (exact gain, feature,
    threshold, left size, left sse, right sse).
    """
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
    near = np.nonzero(gains >= band[node])[0]
    node, feat, iv = node[near], feat[near], iv[near]
    below, above = xs[node, feat, iv - 1], xs[node, feat, iv]
    thresholds = (below + above) / 2.0
    # adjacent doubles can round the midpoint up to the right value, which
    # would route the boundary row the wrong way; fall back to the left value
    thresholds = np.where(thresholds >= above, below, thresholds)
    sizes, sses = n.tolist(), node_sse.tolist()
    best: list[tuple | None] = [None] * n.shape[0]
    for i, p, b, threshold in zip(node.tolist(), feat.tolist(), iv.tolist(), thresholds.tolist()):
        row = ys[i, p, : sizes[i]]
        sse_left, sse_right = _exact_sse(row[:b]), _exact_sse(row[b:])
        exact = (sses[i] - sse_left - sse_right) / sizes[i]
        j = int(features[p])
        held = best[i]
        if held is None or exact > held[0] or (exact == held[0] and (j, threshold) < (held[1], held[2])):
            best[i] = (exact, j, threshold, b, sse_left, sse_right)
    return [None if found is None or found[0] <= params.min_gain else found for found in best]


def _feature_columns(x: np.ndarray, features: Sequence[int] | None) -> np.ndarray:
    if features is None:
        return np.arange(x.shape[1])
    return np.asarray(features, dtype=np.intp).reshape(-1)


def best_split(
    x: np.ndarray,
    y: np.ndarray,
    params: SplitParams,
    features: Sequence[int] | None = None,
) -> tuple[int, float, float] | None:
    """Max-gain (feature, threshold, gain) over all candidate midpoints, or None.

    gain = mse(node) - (n_L mse_L + n_R mse_R) / n; candidates leaving a child
    below min_leaf are skipped; the best gain must strictly exceed min_gain.
    A fast prefix-sum scan ranks candidates; near-best ones are re-evaluated
    with exactly rounded sums, so ties (identical partitions reachable through
    different features) resolve deterministically to the lowest feature index,
    then the lowest threshold.
    """
    n = y.shape[0]
    if n < 2 * params.min_leaf or float(y.min()) == float(y.max()):
        return None
    cols = _feature_columns(x, features)
    order = np.argsort(x[:, cols], axis=0, kind="stable").T
    found = _scan(
        x[order, cols[:, None]][None], y[order][None],
        np.array([n]), np.array([_exact_sse(y)]), params, cols,
    )[0]
    return None if found is None else (found[1], found[2], found[0])


def _validate_xy(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] == 0:
        raise EmptyInputError("feature matrix must be a non-empty 2-d array")
    if y.shape != (x.shape[0],):
        raise DimensionMismatchError(f"y has shape {y.shape}, expected ({x.shape[0]},)")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise TreeError("features and response must be finite")
    return x, y


def _names(model: RegressionTree | ForestModel) -> tuple[str, ...]:
    return model.feature_names or tuple(f"x{j}" for j in range(model.n_features))


def _feature_names(x: np.ndarray, feature_names: Sequence[str] | None) -> tuple[str, ...] | None:
    if feature_names is not None and len(feature_names) != x.shape[1]:
        raise DimensionMismatchError("one name per feature column")
    return tuple(feature_names) if feature_names is not None else None


def _grow(
    x: np.ndarray, y: np.ndarray, m: int, params: SplitParams, features: np.ndarray
) -> list[tuple[np.ndarray, ...]]:
    """Grow one tree on each m-row block of (x, y); return each tree's node arrays.

    Every open node of every tree is split at once, one depth level per pass.
    Each tree's rows are sorted once per feature, stable by (value, row), and
    each node owns one segment of every sorted order; a split partitions its
    segments stably, so the children's segments stay sorted. The last order
    is by row, and gives each node's responses in row order for its
    prediction and mse.

    Nodes are numbered as they are created, a level after their parents, and
    renumbered in preorder at the end: subtree sizes bottom-up, then
    positions top-down. The arrays come back in `RegressionTree` field order.
    """
    f = features.shape[0]
    starts = np.arange(0, y.shape[0], m)
    order = np.argsort(x[:, features].T.reshape(f, starts.size, m), axis=-1, kind="stable") + starts[:, None]
    order = np.concatenate([order.reshape(f, y.shape[0]), np.arange(y.shape[0])[None]])
    size = np.full(starts.shape, m)
    sse = np.array([_exact_sse(y[s : s + m]) for s in starts])
    trees = starts.size
    # per level, by creation number: every node's (size, mse, prediction), and
    # the split nodes' (node, left child, feature, threshold, gain); the right
    # child follows the left one
    created: list[tuple[np.ndarray, ...]] = []
    levels: list[tuple[np.ndarray, ...]] = []
    total = 0  # nodes created so far
    while True:
        first, total = total, total + size.size
        width = int(size.max())
        inside = np.arange(width) < size[:, None]
        rows = order[:, np.where(inside, starts[:, None] + np.arange(width), 0)].swapaxes(0, 1)
        ys = np.where(inside[:, None], y[rows], 0.0)
        in_row_order = ys[:, f]
        prediction = np.empty(size.shape)
        mse = np.empty(size.shape)
        # a mean over equal-length rows sums each row as np.mean does a lone array
        for s in set(size.tolist()):
            same = size == s
            block = np.ascontiguousarray(in_row_order[same, :s])
            prediction[same] = mean = block.mean(axis=1)
            mse[same] = ((block - mean[:, None]) ** 2).mean(axis=1)
        created.append((size, mse, prediction))

        lowest = np.where(inside, in_row_order, np.inf).min(axis=1)
        highest = np.where(inside, in_row_order, -np.inf).max(axis=1)
        splittable = (size >= 2 * params.min_leaf) & (lowest != highest)
        if params.max_depth is not None and len(levels) >= params.max_depth:
            splittable[:] = False
        nodes = np.nonzero(splittable)[0]
        found = _scan(
            x[rows[nodes, :f], features[:, None]], ys[nodes, :f], size[nodes], sse[nodes], params, features
        ) if nodes.size else []
        chosen = [(i, *r) for i, r in zip(nodes.tolist(), found) if r is not None]
        if not chosen:
            break
        node, gain, feature, threshold, n_left, sse_left, sse_right = (np.array(c) for c in zip(*chosen))
        levels.append((first + node, total + 2 * np.arange(node.size), feature, threshold, gain))

        # stable partition of each split node's segments: left rows first
        part = rows[node]
        held = np.broadcast_to(inside[node, None], part.shape)
        goes_left = x[part, feature[:, None, None]] <= threshold[:, None, None]
        begin = starts[node, None, None]
        dest = np.where(
            goes_left,
            begin + np.cumsum(goes_left & held, axis=-1) - 1,
            begin + n_left[:, None, None] + np.cumsum(~goes_left & held, axis=-1) - 1,
        )
        which = np.broadcast_to(np.arange(f + 1)[:, None], part.shape)
        order[which[held], dest[held]] = part[held]

        starts = np.column_stack([starts[node], starts[node] + n_left]).ravel()
        size = np.column_stack([n_left, size[node] - n_left]).ravel()
        sse = np.column_stack([sse_left, sse_right]).ravel()

    subtree = np.ones(total, dtype=np.intp)
    for parent, left, *_ in reversed(levels):
        subtree[parent] += subtree[left] + subtree[left + 1]
    root = np.cumsum(subtree[:trees]) - subtree[:trees]  # each tree's first slot
    home = np.repeat(root, subtree[:trees])  # each slot's tree's first slot
    slot = np.empty(total, dtype=np.intp)  # each node's preorder position in the batch
    slot[:trees] = root
    feature, threshold, right, gain = np.full(total, -1), np.zeros(total), np.full(total, -1), np.zeros(total)
    for parent, left, *split in levels:
        at = slot[parent]
        slot[left] = at + 1
        slot[left + 1] = at + 1 + subtree[left]
        feature[at], threshold[at], gain[at] = split
        right[at] = slot[left + 1] - home[at]
    preorder = np.argsort(slot)  # the creation number of each slot
    columns = [feature, threshold, right, gain, *(np.concatenate(c)[preorder] for c in zip(*created))]
    for c in columns:
        c.flags.writeable = False
    return list(zip(*(np.split(c, root[1:]) for c in columns)))


def fit_tree(
    x,
    y,
    params: SplitParams = SplitParams(),
    feature_names: Sequence[str] | None = None,
    features: Sequence[int] | None = None,
) -> RegressionTree:
    """Grow a tree by best splits, level by level, until none is admissible."""
    x, y = _validate_xy(x, y)
    names = _feature_names(x, feature_names)
    (nodes,) = _grow(x, y, x.shape[0], params, _feature_columns(x, features))
    return RegressionTree(*nodes, n_features=x.shape[1], params=params, feature_names=names)


def _tree_leaves(tree: RegressionTree, x: np.ndarray) -> np.ndarray:
    """Each row's leaf node index: node by node, the node's rows split by one mask."""
    feature, threshold, right = tree.feature.tolist(), tree.threshold.tolist(), tree.right.tolist()
    out = np.empty(x.shape[0], dtype=np.intp)
    stack = [(0, np.arange(x.shape[0]))]
    while stack:
        i, idx = stack.pop()
        if idx.size == 0:
            continue
        if feature[i] < 0:
            out[idx] = i
            continue
        mask = x[idx, feature[i]] <= threshold[i]
        stack += [(right[i], idx[~mask]), (i + 1, idx[mask])]
    return out


def _exact_sums(values: Sequence[np.ndarray], picks: Iterable[np.ndarray]) -> np.ndarray:
    """Per point, the correctly rounded sum over t of values[t][picks[t]].

    Equal to math.fsum over each point's terms, and so invariant to their
    order, without a (terms, points) matrix: every value is scaled by a common
    power of two to an exact integer, split into signed int64 limbs of w bits
    (Demmel & Hida 2003), and the limbs are summed term by term. Each point's
    limbs are then joined as a Python int and rounded once by int division.
    When the scaled values overflow a double, the terms are stacked and
    summed by math.fsum instead. `picks` is consumed once, in order.
    """
    flat = np.concatenate(values)
    offsets = np.cumsum([0] + [v.size for v in values[:-1]])
    nonzero = flat[flat != 0.0]
    lowest = int(np.frexp(nonzero)[1].min()) if nonzero.size else 53
    shift = min(lowest, 53) - 53  # 2^-shift * each value is an integer
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.ldexp(flat, -shift)
    if not np.all(np.isfinite(scaled)):
        stacked = np.vstack([v[p] for v, p in zip(values, picks)])
        return np.array([math.fsum(col) for col in stacked.T])
    # w <= 53 keeps each low limb exact in a double; w + log2(terms) <= 62
    # keeps every limb's sum inside an int64
    w = min(53, 62 - len(values).bit_length())
    bits = int(np.frexp(np.abs(scaled).max())[1])
    limbs = []
    for _ in range(max(1, -(-bits // w)) - 1):
        high = np.floor(np.ldexp(scaled, -w))
        limbs.append(scaled - np.ldexp(high, w))
        scaled = high
    table = np.array(limbs + [scaled]).astype(np.int64)
    acc = 0  # a (limbs, points) array from the first term on
    for offset, pick in zip(offsets.tolist(), picks):
        acc += table[:, offset + pick]
    scale = 1 << -shift
    totals = (sum(limb << (j * w) for j, limb in enumerate(point)) for point in acc.T.tolist())
    return np.array([total / scale for total in totals])


def predict(model: RegressionTree | ForestModel, row: Sequence[float]) -> float:
    """Single-point prediction: predict_many on one row, so forests average exactly too."""
    return float(predict_many(model, np.asarray(row, dtype=float)[None])[0])


def predict_many(model: RegressionTree | ForestModel, x) -> np.ndarray:
    """Each row's prediction; a forest's is the exactly summed mean over its trees."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise DimensionMismatchError(f"expected (n, {model.n_features}) features")
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        r, j = bad[0].tolist()
        raise TreeError(f"row {r}: feature {_names(model)[j]!r} is {x[r, j]}, not finite")
    if isinstance(model, RegressionTree):
        return model.prediction[_tree_leaves(model, x)]
    trees = model.trees
    return _exact_sums([t.prediction for t in trees], (_tree_leaves(t, x) for t in trees)) / model.n_trees


def fit_forest(
    x,
    y,
    n_trees: int = 1000,
    subsample: float = 2.0 / 3.0,
    seed: int = 0,
    params: SplitParams = SplitParams(),
    feature_names: Sequence[str] | None = None,
    features: Sequence[int] | None = None,
) -> ForestModel:
    """Bag `n_trees` trees, each on ceil(subsample * n) distinct rows.

    Tree t draws its rows from a generator seeded by (seed, t), and trees are
    grown together in fixed-size batches, each tree from its own rows only, so
    the model does not depend on which trees share a batch. Growth runs in
    one thread.
    """
    x, y = _validate_xy(x, y)
    names = _feature_names(x, feature_names)
    n = x.shape[0]
    if n < 3:
        raise EmptyInputError("bagging needs at least 3 rows")
    if not 0.0 < subsample <= 1.0:
        raise TreeError("subsample fraction must be in (0, 1]")
    if n_trees < 1:
        raise TreeError("need at least one tree")
    m = math.ceil(subsample * n)
    cols = _feature_columns(x, features)
    row_indices = tuple(
        np.sort(np.random.default_rng((seed, t)).choice(n, size=m, replace=False))
        for t in range(n_trees)
    )
    grown: list[tuple[np.ndarray, ...]] = []
    for first in range(0, n_trees, _BATCH_TREES):
        idx = np.concatenate(row_indices[first : first + _BATCH_TREES])
        grown += _grow(x[idx], y[idx], m, params, cols)
    return ForestModel(
        trees=tuple(RegressionTree(*nodes, x.shape[1], params, names) for nodes in grown),
        row_indices=row_indices,
        n_features=x.shape[1],
        subsample=subsample,
        seed=seed,
        params=params,
        feature_names=names,
        feature_min=x.min(axis=0),
        feature_max=x.max(axis=0),
    )


@dataclass(frozen=True, eq=False)
class ImportanceReport:
    feature_names: tuple[str, ...]
    raw: np.ndarray     # average per-node MSE gain for nodes splitting the feature
    shares: np.ndarray  # raw normalized to sum to one
    n_splits: tuple[int, ...]

    def share(self, name: str) -> float:
        return float(self.shares[self.feature_names.index(name)])


def importance(model: RegressionTree | ForestModel, weighted: bool = False) -> ImportanceReport:
    """Per-feature average of node MSE gains, over every split in the model.

    `weighted` switches to node-size weighting for sensitivity checks.
    """
    trees = model.trees if isinstance(model, ForestModel) else (model,)
    k = model.n_features
    feature = np.concatenate([t.feature for t in trees])
    split = feature >= 0
    feature = feature[split]
    # bincount adds in input order, so the gains sum in preorder, tree by tree
    w = np.concatenate([t.n for t in trees])[split].astype(float) if weighted else np.ones(feature.size)
    gain_sum = np.bincount(feature, w * np.concatenate([t.gain for t in trees])[split], minlength=k)
    weight_sum = np.bincount(feature, w, minlength=k)
    counts = np.bincount(feature, minlength=k)
    if counts.sum() == 0:
        raise NoSplitsError("model has no split nodes")
    raw = np.where(weight_sum > 0, gain_sum / np.where(weight_sum > 0, weight_sum, 1.0), 0.0)
    return ImportanceReport(
        feature_names=_names(model),
        raw=raw,
        shares=raw / raw.sum(),
        n_splits=tuple(int(c) for c in counts),
    )


def tree_shape(model: RegressionTree | ForestModel) -> tuple[int, int]:
    """Node count and greatest depth over the model's trees; a lone leaf has depth 0."""
    trees = model.trees if isinstance(model, ForestModel) else (model,)
    nodes = depth = 0
    for tree in trees:
        level = [0] * tree.feature.size  # a child's index exceeds its parent's
        for i, (j, r) in enumerate(zip(tree.feature.tolist(), tree.right.tolist())):
            if j >= 0:
                level[i + 1] = level[r] = level[i] + 1
        nodes += len(level)
        depth = max(depth, max(level))
    return nodes, depth


@dataclass(frozen=True)
class AxisSpec:
    feature: int | str
    minimum: float
    maximum: float
    steps: int

    def __post_init__(self):
        if self.steps < 2:
            raise TreeError("axis needs at least 2 steps")
        if not (math.isfinite(self.minimum) and math.isfinite(self.maximum)):
            raise TreeError(f"axis bounds must be finite, got [{self.minimum}, {self.maximum}]")
        if not (self.maximum > self.minimum):
            raise TreeError("axis maximum must exceed its minimum")

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
    axes: tuple[AxisSpec, AxisSpec]
    axis_names: tuple[str, str]
    axis_values: tuple[np.ndarray, np.ndarray]
    surface: np.ndarray  # shape (axes[0].steps, axes[1].steps)
    slices: tuple[SliceCurve, ...] = ()

    def to_csv(self, float_fmt: str = "{:.6g}") -> str:
        lines = [f"{self.axis_names[0]},{self.axis_names[1]},prediction"]
        for i, a in enumerate(self.axis_values[0]):
            for j, b in enumerate(self.axis_values[1]):
                lines.append(
                    ",".join(float_fmt.format(v) for v in (a, b, self.surface[i, j]))
                )
        return "\n".join(lines) + "\n"

    def slices_to_csv(self, float_fmt: str = "{:.6g}") -> str:
        lines = ["fixed_feature,fixed_value,along_feature,along_value,prediction"]
        for s in self.slices:
            for v, pred in zip(s.along_values, s.predictions):
                lines.append(
                    f"{s.fixed_feature},{float_fmt.format(s.fixed_value)},{s.along_feature},"
                    f"{float_fmt.format(v)},{float_fmt.format(pred)}"
                )
        return "\n".join(lines) + "\n"

    def to_json(self, float_fmt: str = "{:.6g}") -> str:
        def f(v: float) -> float:
            return float(float_fmt.format(v))

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


def _feature_index(model: ForestModel, feature: int | str) -> int:
    if isinstance(feature, str):
        names = _names(model)
        if feature not in names:
            raise DimensionMismatchError(f"unknown feature {feature!r}")
        return names.index(feature)
    if not 0 <= feature < model.n_features:
        raise DimensionMismatchError(f"feature index {feature} out of range")
    return int(feature)


def partial_dependence(
    model: ForestModel,
    axes: tuple[AxisSpec, AxisSpec],
    slices: Sequence[tuple[int | str, float]] = (),
) -> PdGrid:
    """Forest predictions over a Cartesian grid of the model's two features.

    With exactly two predictors the surface is the direct prediction, no
    marginalization needed. Slice curves fix one feature and sweep the other
    along its grid axis. Axes and slices outside the training range warn but
    run. The grid and all slice points go through the trees in one
    predict_many call.
    """
    if model.n_features != 2:
        raise DimensionMismatchError("partial dependence grids need a 2-feature model")
    idx = (_feature_index(model, axes[0].feature), _feature_index(model, axes[1].feature))
    if set(idx) != {0, 1}:
        raise DimensionMismatchError("grid axes must cover both model features")

    names = _names(model)
    for ax, j in zip(axes, idx):
        if ax.minimum < model.feature_min[j] or ax.maximum > model.feature_max[j]:
            warnings.warn(
                f"axis for {names[j]!r} extends beyond the training range "
                f"[{model.feature_min[j]:g}, {model.feature_max[j]:g}]",
                stacklevel=2,
            )

    vals0 = axes[0].values()
    vals1 = axes[1].values()
    grid = np.empty((vals0.size * vals1.size, 2))
    a, b = np.meshgrid(vals0, vals1, indexing="ij")
    grid[:, idx[0]] = a.ravel()
    grid[:, idx[1]] = b.ravel()

    # every slice's points follow the grid's, so the trees route them all at once
    points, shown = [grid], []
    for feature, value in slices:
        j = _feature_index(model, feature)
        if not model.feature_min[j] <= value <= model.feature_max[j]:
            warnings.warn(
                f"slice at {names[j]!r} = {value:g} lies beyond the training range "
                f"[{model.feature_min[j]:g}, {model.feature_max[j]:g}]",
                stacklevel=2,
            )
        other = 1 - j
        sweep = axes[idx.index(other)].values()
        pts = np.empty((sweep.size, 2))
        pts[:, j] = value
        pts[:, other] = sweep
        points.append(pts)
        shown.append((names[j], float(value), names[other], sweep))
    ends = np.cumsum([p.shape[0] for p in points])
    predictions = np.split(predict_many(model, np.vstack(points)), ends[:-1])
    surface = predictions[0].reshape(vals0.size, vals1.size)
    curves = [SliceCurve(*s, predictions=p) for s, p in zip(shown, predictions[1:])]
    return PdGrid(
        axes=axes,
        axis_names=(names[idx[0]], names[idx[1]]),
        axis_values=(vals0, vals1),
        surface=surface,
        slices=tuple(curves),
    )
