from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import assert_same_tree, bf_best_split, bf_fit_tree, bf_predict
from passthru import tree_forest
from passthru.tree_forest import (
    AxisSpec,
    DimensionMismatchError,
    EmptyInputError,
    ForestModel,
    NoSplitsError,
    RegressionTree,
    SplitParams,
    TreeError,
    best_split,
    fit_forest,
    fit_tree,
    importance,
    partial_dependence,
    predict,
    predict_many,
    tree_shape,
)

STEP_X = np.array([[1.0], [2.0], [3.0], [4.0]])
STEP_Y = np.array([0.0, 0.0, 10.0, 10.0])


# ---------------------------------------------------------------- best_split

def test_best_split_hand_example():
    found = best_split(STEP_X, STEP_Y, SplitParams(min_leaf=1))
    assert found is not None
    feature, threshold, gain = found
    assert (feature, threshold) == (0, 2.5)
    assert gain == 25.0  # node mse 25, both children pure


def test_best_split_constant_response():
    assert best_split(STEP_X, np.full(4, 3.3), SplitParams(min_leaf=1)) is None


def test_best_split_respects_min_leaf():
    found = best_split(STEP_X, STEP_Y, SplitParams(min_leaf=2))
    assert found is not None and found[1] == 2.5
    assert best_split(STEP_X, STEP_Y, SplitParams(min_leaf=3)) is None


def test_best_split_tie_breaks_to_lowest_feature_then_threshold():
    # identical split quality on both features and at both boundaries
    x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    found = best_split(x, y, SplitParams(min_leaf=1))
    assert found[0] == 0 and found[1] == 0.5


# ---------------------------------------------------------------- fit_tree

def test_single_row_tree():
    tree = fit_tree(np.array([[3.0]]), np.array([7.5]), SplitParams(min_leaf=1))
    assert tree.feature.tolist() == [-1]
    assert predict(tree, [99.0]) == 7.5


def test_min_leaf_one_purifies_training_data():
    rng = np.random.default_rng(2)
    x = rng.permutation(20).astype(float).reshape(-1, 1)
    y = rng.normal(size=20)
    tree = fit_tree(x, y, SplitParams(min_leaf=1))
    assert np.array_equal(predict_many(tree, x), y)


def test_fit_tree_empty_input():
    with pytest.raises(EmptyInputError):
        fit_tree(np.empty((0, 2)), np.empty(0))
    with pytest.raises(EmptyInputError):
        fit_tree(np.empty((3, 0)), np.zeros(3))


def test_fit_tree_max_depth_zero_is_single_leaf():
    tree = fit_tree(STEP_X, STEP_Y, SplitParams(min_leaf=1, max_depth=0))
    assert tree.feature.tolist() == [-1]
    assert tree.prediction[0] == 5.0


def test_tree_matches_brute_force_oracle():
    rng = np.random.default_rng(33)
    for trial in range(30):
        n = int(rng.integers(5, 40))
        k = int(rng.integers(1, 4))
        x = rng.normal(size=(n, k))
        y = rng.normal(size=n)
        min_leaf = int(rng.integers(1, 5))
        tree = fit_tree(x, y, SplitParams(min_leaf=min_leaf))
        ref = bf_fit_tree(x, y, min_leaf)
        assert_same_tree(tree, ref, path=f"trial{trial}")


def test_split_admissibility_postorder():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(200, 3))
    y = x[:, 0] + 0.3 * rng.normal(size=200)
    params = SplitParams(min_leaf=7)
    tree = fit_tree(x, y, params)

    def walk(i):
        if tree.feature[i] < 0:
            assert tree.n[i] >= params.min_leaf
            return
        assert tree.gain[i] > params.min_gain
        left, right = i + 1, tree.right[i]
        combined = (tree.n[left] * tree.mse[left] + tree.n[right] * tree.mse[right]) / tree.n[i]
        assert tree.mse[i] - combined == pytest.approx(tree.gain[i], rel=1e-9, abs=1e-12)
        walk(left)
        walk(right)

    walk(0)


def test_monotone_feature_transform_preserves_structure():
    rng = np.random.default_rng(23)
    x = rng.uniform(0.1, 3.0, size=(60, 2))
    y = np.where(x[:, 0] > 1.5, 2.0, -1.0) + 0.2 * rng.normal(size=60)
    params = SplitParams(min_leaf=5)
    base = fit_tree(x, y, params)
    transformed = x.copy()
    transformed[:, 0] = transformed[:, 0] ** 3  # strictly increasing

    def check(i, ti, axis_vals, t_axis_vals):
        assert (base.feature[i] < 0) == (other.feature[ti] < 0)
        if base.feature[i] < 0:
            assert other.prediction[ti] == base.prediction[i]
            assert other.n[ti] == base.n[i]
            return
        assert other.feature[ti] == base.feature[i]
        if base.feature[i] == 0:
            # threshold lands in the same gap between observed values
            below = axis_vals[axis_vals <= base.threshold[i]]
            t_below = t_axis_vals[t_axis_vals <= other.threshold[ti]]
            assert len(below) == len(t_below)
        else:
            assert other.threshold[ti] == base.threshold[i]
        check(i + 1, ti + 1, axis_vals, t_axis_vals)
        check(base.right[i], other.right[ti], axis_vals, t_axis_vals)

    other = fit_tree(transformed, y, params)
    check(0, 0, np.sort(x[:, 0]), np.sort(transformed[:, 0]))
    # routing of every training row is unchanged
    assert np.array_equal(predict_many(base, x), predict_many(other, transformed))


# ---------------------------------------------------------------- properties

# Coarse grids force ties between rows, features and candidate splits. Responses
# stay on a decimal grid near zero: with a mean far larger than the spread,
# fsum(y^2) - fsum(y)^2 / m loses precision in the package and the oracle alike.
FEATURE_VALUES = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
RESPONSE_VALUES = st.one_of(st.integers(-8, 8).map(lambda v: v / 4), st.integers(-50, 50).map(lambda v: v / 10))


@st.composite
def tree_inputs(draw, min_rows: int = 1, max_rows: int = 24):
    n = draw(st.integers(min_rows, max_rows))
    k = draw(st.integers(1, 3))
    x = np.array(draw(st.lists(st.lists(FEATURE_VALUES, min_size=k, max_size=k), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(RESPONSE_VALUES, min_size=n, max_size=n)))
    params = SplitParams(
        min_leaf=draw(st.integers(1, 5)),
        max_depth=draw(st.one_of(st.none(), st.integers(0, 4))),
        min_gain=draw(st.sampled_from([0.0, 0.01, 0.25])),
    )
    features = draw(st.one_of(st.none(), st.sets(st.integers(0, k - 1), min_size=1).map(sorted)))
    return x, y, params, features


def _on_columns(ref: dict, cols: list[int]) -> dict:
    """A brute-force tree grown on x[:, cols], with features renumbered to x's columns."""
    if "feature" not in ref:
        return ref
    return dict(ref, feature=cols[ref["feature"]],
                left=_on_columns(ref["left"], cols), right=_on_columns(ref["right"], cols))


def _nodes(tree) -> list[tuple]:
    """Every field of every node, array by array, in preorder; repr keeps -0.0 apart from 0.0."""
    floats = [list(map(repr, a.tolist())) for a in (tree.threshold, tree.gain, tree.mse, tree.prediction)]
    return list(zip(tree.feature.tolist(), tree.right.tolist(), tree.n.tolist(), *floats))


@settings(max_examples=150, deadline=None)
@given(tree_inputs(max_rows=30))
def test_best_split_agrees_with_brute_force(case):
    x, y, params, features = case
    cols = list(range(x.shape[1])) if features is None else features
    ref = bf_best_split(x[:, cols], y, params.min_leaf, params.min_gain)
    expected = None if ref is None else (cols[ref[0]], ref[1], ref[2])
    assert best_split(x, y, params, features) == expected


@settings(max_examples=80, deadline=None)
@given(tree_inputs())
def test_fit_tree_agrees_with_brute_force(case):
    x, y, params, features = case
    cols = list(range(x.shape[1])) if features is None else features
    ref = bf_fit_tree(x[:, cols], y, params.min_leaf, params.min_gain, params.max_depth)
    assert_same_tree(fit_tree(x, y, params, features=features), _on_columns(ref, cols))


@settings(max_examples=25, deadline=None)
@given(tree_inputs(min_rows=3, max_rows=40), st.sampled_from([1, 6, tree_forest._BATCH_TREES + 3]), st.integers(0, 99))
def test_forest_tree_is_the_tree_of_its_rows(case, n_trees, seed):
    # a tree must not depend on which trees share its batch
    x, y, params, features = case
    forest = fit_forest(x, y, n_trees=n_trees, seed=seed, params=params, features=features)
    for tree, rows in zip(forest.trees, forest.row_indices):
        alone = fit_tree(x[rows], y[rows], params, features=features)
        assert _nodes(tree) == _nodes(alone)


# ---------------------------------------------------------------- predict

def test_two_leaf_routing():
    tree = fit_tree(STEP_X, STEP_Y, SplitParams(min_leaf=1))
    assert predict(tree, [2.4]) == 0.0
    assert predict(tree, [2.6]) == 10.0
    assert np.array_equal(predict_many(tree, [[2.4], [2.6]]), [0.0, 10.0])


def _probes(x: np.ndarray, refs: list[dict], extra: list) -> np.ndarray:
    """The training rows, each again with one split's feature set to exactly its
    threshold (a row that reaches a split still does, so `<=` is tested there),
    and the extra rows."""
    splits, stack = set(), list(refs)
    while stack:
        ref = stack.pop()
        if "feature" in ref:
            splits.add((ref["feature"], ref["threshold"]))
            stack += [ref["left"], ref["right"]]
    rows = [x]
    for j, threshold in sorted(splits):
        at = x.copy()
        at[:, j] = threshold
        rows.append(at)
    return np.vstack(rows + [np.array(extra).reshape(-1, x.shape[1])])


@settings(max_examples=80, deadline=None)
@given(tree_inputs(), st.data())
def test_tree_routes_like_the_brute_force_tree(case, data):
    x, y, params, features = case
    cols = list(range(x.shape[1])) if features is None else features
    ref = _on_columns(bf_fit_tree(x[:, cols], y, params.min_leaf, params.min_gain, params.max_depth), cols)
    extra = data.draw(st.lists(FEATURE_VALUES, max_size=6 * x.shape[1]).map(
        lambda v: v[: len(v) - len(v) % x.shape[1]]))
    probe = _probes(x, [ref], extra)
    tree = fit_tree(x, y, params, features=features)
    expected = [bf_predict(ref, row) for row in probe]
    assert predict_many(tree, probe).tolist() == expected
    assert [predict(tree, row) for row in probe] == expected


@settings(max_examples=40, deadline=None)
@given(tree_inputs(min_rows=3), st.integers(1, 5), st.integers(0, 99))
def test_forest_routes_like_the_brute_force_trees(case, n_trees, seed):
    x, y, params, features = case
    cols = list(range(x.shape[1])) if features is None else features
    forest = fit_forest(x, y, n_trees=n_trees, seed=seed, params=params, features=features)
    refs = [
        _on_columns(bf_fit_tree(x[rows][:, cols], y[rows], params.min_leaf, params.min_gain, params.max_depth), cols)
        for rows in forest.row_indices
    ]
    probe = _probes(x, refs, [])
    expected = [math.fsum(bf_predict(ref, row) for ref in refs) / n_trees for row in probe]
    assert predict_many(forest, probe).tolist() == expected
    assert [predict(forest, row) for row in probe] == expected


def test_predict_dimension_mismatch():
    tree = fit_tree(STEP_X, STEP_Y, SplitParams(min_leaf=1))
    with pytest.raises(DimensionMismatchError):
        predict(tree, [1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        predict_many(tree, np.ones((3, 2)))


# Atoms for the exact forest sum: signs, ties at half an ulp, subnormals, a
# span past what the integer limbs cover (1e300 with 5e-324), and unrestricted
# floats kept small enough that 1,100 of them cannot overflow.
SUM_ATOMS = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0 ** -53, 3 * 2.0 ** -54, 0.1, 0.3, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300]),
    st.floats(-1e3, 1e3),
    st.floats(-1e300, 1e300),
)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.integers(1, 12), st.just(1100)),
    st.integers(1, 6),
    st.lists(SUM_ATOMS, min_size=1, max_size=6),
    st.integers(0, 2 ** 32 - 1),
)
def test_exact_sums_equal_fsum_per_point(n_terms, n_points, atoms, seed):
    pool = np.array(atoms + [-a for a in atoms])  # cancellation down to exact zeros
    terms = pool[np.random.default_rng(seed).integers(pool.size, size=(n_terms, n_points))]
    # each term's values are a one-node-per-point "tree", every point picking its own node
    got = tree_forest._exact_sums(list(terms), [np.arange(n_points)] * n_terms)
    assert got.tobytes() == np.array([math.fsum(col) for col in terms.T]).tobytes()


def test_exact_sums_of_shared_nodes():
    values = [np.array([0.1, -0.2, 1e-300]), np.array([0.7]), np.array([5e-324, -0.3])]
    picks = [np.array([0, 1, 2, 0]), np.array([0, 0, 0, 0]), np.array([1, 0, 0, 1])]
    expected = [math.fsum(v[p[i]] for v, p in zip(values, picks)) for i in range(4)]
    assert tree_forest._exact_sums(values, picks).tolist() == expected


def test_predict_rejects_non_finite_rows():
    tree = fit_tree(STEP_X, STEP_Y, SplitParams(min_leaf=1))
    with pytest.raises(TreeError, match=r"row 1: feature 'x0' is inf"):
        predict_many(tree, [[1.0], [math.inf]])
    rng = np.random.default_rng(9)
    x = rng.uniform(size=(20, 2))
    forest = fit_forest(x, rng.normal(size=20), n_trees=3, seed=1, feature_names=("em10", "avg_inflation"))
    with pytest.raises(TreeError, match=r"row 0: feature 'em10' is nan"):
        predict_many(forest, [[math.nan, 0.0], [math.inf, 0.0]])
    with pytest.raises(TreeError, match=r"row 0: feature 'avg_inflation' is -inf"):
        predict(forest, [0.5, -math.inf])


def test_forest_of_identical_trees_equals_tree():
    forest = fit_forest(STEP_X, STEP_Y, n_trees=25, subsample=1.0,
                        seed=1, params=SplitParams(min_leaf=1))
    tree = fit_tree(STEP_X, STEP_Y, SplitParams(min_leaf=1))
    for probe in ([1.1], [2.5], [3.9]):
        assert predict(forest, probe) == predict(tree, probe)


# ---------------------------------------------------------------- fit_forest

def test_forest_determinism_and_subsample_contract():
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(58, 2))
    y = 10.0 * (x[:, 0] > 0.5) + rng.normal(0, 0.5, 58)
    probe = rng.uniform(size=(40, 2))
    a = fit_forest(x, y, n_trees=60, seed=12)
    b = fit_forest(x, y, n_trees=60, seed=12)
    assert np.array_equal(predict_many(a, probe), predict_many(b, probe))
    m = math.ceil(58 * 2 / 3)
    for idx in a.row_indices:
        assert len(np.unique(idx)) == m == len(idx)
    c = fit_forest(x, y, n_trees=60, seed=13)
    assert not np.array_equal(predict_many(a, probe), predict_many(c, probe))


def test_forest_tree_order_permutation_invariance():
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(30, 2))
    y = rng.normal(size=30)
    forest = fit_forest(x, y, n_trees=33, seed=5)
    shuffled = ForestModel(
        trees=tuple(reversed(forest.trees)),
        row_indices=tuple(reversed(forest.row_indices)),
        n_features=forest.n_features,
        subsample=forest.subsample,
        seed=forest.seed,
        params=forest.params,
        feature_names=forest.feature_names,
        feature_min=forest.feature_min,
        feature_max=forest.feature_max,
    )
    probe = rng.uniform(size=(25, 2))
    assert np.array_equal(predict_many(forest, probe), predict_many(shuffled, probe))


def test_forest_global_mean_degenerate_case():
    rng = np.random.default_rng(6)
    x = rng.uniform(size=(12, 1))
    y = rng.normal(size=12)
    forest = fit_forest(x, y, n_trees=10, subsample=1.0, seed=2,
                        params=SplitParams(min_leaf=12))
    assert predict(forest, [0.5]) == pytest.approx(float(y.mean()), abs=1e-15)


def test_forest_recovers_step_function():
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(500, 2))
    y = 10.0 * (x[:, 0] > 0.5) + rng.normal(0, 0.5, 500)
    forest = fit_forest(x, y, n_trees=300, seed=8)
    assert predict(forest, [0.9, 0.5]) == pytest.approx(10.0, abs=1.5)
    assert predict(forest, [0.1, 0.5]) == pytest.approx(0.0, abs=1.5)


def test_forest_needs_rows():
    with pytest.raises(EmptyInputError):
        fit_forest(np.ones((2, 1)), np.ones(2))
    with pytest.raises(TreeError):
        fit_forest(np.arange(9.0).reshape(-1, 1), np.arange(9.0), subsample=0.0)


# ---------------------------------------------------------------- importance

def test_importance_single_informative_feature():
    rng = np.random.default_rng(9)
    x = rng.uniform(size=(80, 2))
    y = np.where(x[:, 0] > 0.5, 3.0, -3.0)
    tree = fit_tree(x, y, SplitParams(min_leaf=5), feature_names=("a", "b"))
    report = importance(tree)
    assert report.share("a") == 1.0
    assert report.share("b") == 0.0


def test_importance_symmetric_dgp():
    shares = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(300, 2))
        y = np.sin(3 * x[:, 0]) + np.sin(3 * x[:, 1]) + 0.1 * rng.normal(size=300)
        forest = fit_forest(x, y, n_trees=100, seed=seed)
        shares.append(importance(forest).shares[0])
    mean_share = float(np.mean(shares))
    assert 0.4 <= mean_share <= 0.6


def test_importance_removed_feature_has_zero_share():
    rng = np.random.default_rng(10)
    x = rng.uniform(size=(100, 2))
    y = x[:, 0] + x[:, 1] + 0.05 * rng.normal(size=100)
    tree = fit_tree(x, y, SplitParams(min_leaf=5), features=[0])
    report = importance(tree)
    assert report.shares[1] == 0.0
    assert report.shares[0] == 1.0


def test_tree_shape_counts_nodes_and_depth():
    assert tree_shape(fit_tree(STEP_X, STEP_Y, SplitParams(min_leaf=1, max_depth=0))) == (1, 0)
    assert tree_shape(fit_tree(STEP_X, STEP_Y, SplitParams(min_leaf=1))) == (3, 1)
    forest = fit_forest(STEP_X, STEP_Y, n_trees=4, subsample=1.0, seed=1, params=SplitParams(min_leaf=1))
    assert tree_shape(forest) == (12, 1)
    x = np.arange(8.0).reshape(-1, 1)
    assert tree_shape(fit_tree(x, x[:, 0], SplitParams(min_leaf=1))) == (15, 3)  # balanced halves


def test_importance_no_splits():
    tree = fit_tree(np.array([[1.0]]), np.array([2.0]), SplitParams(min_leaf=1))
    with pytest.raises(NoSplitsError):
        importance(tree)


def test_importance_raw_non_negative_and_weighted_variant():
    rng = np.random.default_rng(11)
    x = rng.uniform(size=(120, 2))
    y = np.where(x[:, 0] > 0.4, 1.0, 0.0) + 0.3 * rng.normal(size=120)
    forest = fit_forest(x, y, n_trees=50, seed=3)
    unweighted = importance(forest)
    weighted = importance(forest, weighted=True)
    assert np.all(unweighted.raw >= 0.0) and np.all(weighted.raw >= 0.0)
    assert unweighted.shares.sum() == pytest.approx(1.0)
    assert weighted.shares.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------- partial dependence

def grid_axes(x: np.ndarray, steps: int = 10) -> tuple[AxisSpec, AxisSpec]:
    return (
        AxisSpec("x0", float(x[:, 0].min()), float(x[:, 0].max()), steps),
        AxisSpec("x1", float(x[:, 1].min()), float(x[:, 1].max()), steps),
    )


def test_pd_constant_forest_is_flat():
    rng = np.random.default_rng(12)
    x = rng.uniform(size=(30, 2))
    y = np.full(30, 1.25)
    forest = fit_forest(x, y, n_trees=20, seed=4)
    grid = partial_dependence(forest, grid_axes(x))
    assert np.all(grid.surface == 1.25)


def test_pd_monotone_step_slice():
    rng = np.random.default_rng(13)
    x = rng.uniform(size=(400, 2))
    y = np.where(x[:, 1] > 0.5, 0.3, 0.0) + 0.01 * rng.normal(size=400)
    forest = fit_forest(x, y, n_trees=200, seed=5)
    grid = partial_dependence(forest, grid_axes(x, steps=20), slices=[("x0", 0.5)])
    curve = grid.slices[0].predictions
    drops = np.diff(curve).min()
    assert drops >= -0.02  # non-decreasing up to noise tolerance


def test_pd_shape_and_serialization():
    rng = np.random.default_rng(14)
    x = rng.uniform(size=(40, 2))
    y = rng.normal(size=40)
    forest = fit_forest(x, y, n_trees=10, seed=6)
    axes = grid_axes(x, steps=50)
    grid = partial_dependence(forest, axes, slices=[("x0", 0.5), ("x1", 0.5)])
    assert grid.surface.shape == (50, 50)
    assert grid.surface.size == 2500
    assert np.array_equal(grid.axis_values[0], axes[0].values())
    csv_text = grid.to_csv()
    assert csv_text.splitlines()[0] == "x0,x1,prediction"
    assert len(csv_text.splitlines()) == 1 + 2500
    import json

    payload = json.loads(grid.to_json())
    assert len(payload["surface"]) == 50
    assert len(payload["slices"]) == 2
    slice_lines = grid.slices_to_csv().splitlines()
    assert slice_lines[0] == "fixed_feature,fixed_value,along_feature,along_value,prediction"
    assert len(slice_lines) == 1 + 2 * 50


def test_pd_warns_outside_training_hull():
    rng = np.random.default_rng(15)
    x = rng.uniform(size=(30, 2))
    forest = fit_forest(x, rng.normal(size=30), n_trees=5, seed=7)
    axes = (AxisSpec("x0", -5.0, 5.0, 4), AxisSpec("x1", 0.0, 1.0, 4))
    with pytest.warns(UserWarning):
        partial_dependence(forest, axes)


@pytest.mark.parametrize("fixed, message", [
    ((0, 50.0), r"slice at 'x0' = 50 lies beyond the training range \[-"),
    (("x1", -9.5), r"slice at 'x1' = -9.5 lies beyond the training range \[-"),
])
def test_pd_warns_for_slices_outside_training_range(fixed, message):
    rng = np.random.default_rng(15)
    x = rng.normal(size=(30, 2))
    forest = fit_forest(x, rng.normal(size=30), n_trees=5, seed=7)
    with pytest.warns(UserWarning, match=message) as fired:
        partial_dependence(forest, grid_axes(x, steps=4), [fixed, (0, 0.0)])
    assert len(fired) == 1


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 999),
    st.booleans(),
    st.lists(st.tuples(st.sampled_from([0, 1, "x0", "x1"]), st.floats(-0.5, 1.5)), max_size=4),
    st.integers(2, 9),
    st.integers(2, 9),
)
def test_pd_routes_grid_and_slices_like_their_points_alone(seed, swap, slices, steps0, steps1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(30, 2))
    forest = fit_forest(x, rng.normal(size=30), n_trees=7, seed=seed, params=SplitParams(min_leaf=2))
    axes = (AxisSpec("x0", 0.0, 1.0, steps0), AxisSpec("x1", 0.0, 1.0, steps1))
    if swap:
        axes = axes[::-1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grid = partial_dependence(forest, axes, slices)
    a, b = np.meshgrid(*grid.axis_values, indexing="ij")
    points = np.column_stack([a.ravel(), b.ravel()])[:, ::-1 if swap else 1]
    assert grid.surface.ravel().tobytes() == predict_many(forest, points).tobytes()
    assert len(grid.slices) == len(slices)
    for (feature, value), curve in zip(slices, grid.slices):
        j = feature if isinstance(feature, int) else int(feature[1])
        along = {ax.feature: ax for ax in axes}[f"x{1 - j}"].values()
        pts = np.empty((along.size, 2))
        pts[:, j] = value
        pts[:, 1 - j] = along
        assert np.array_equal(curve.along_values, along)
        assert curve.predictions.tobytes() == predict_many(forest, pts).tobytes()


def test_pd_requires_two_feature_model():
    rng = np.random.default_rng(16)
    x = rng.uniform(size=(30, 3))
    forest = fit_forest(x, rng.normal(size=30), n_trees=5, seed=8)
    with pytest.raises(DimensionMismatchError):
        partial_dependence(forest, (AxisSpec(0, 0, 1, 4), AxisSpec(1, 0, 1, 4)))


def test_axis_spec_validation():
    with pytest.raises(TreeError):
        AxisSpec("x0", 0.0, 1.0, 1)
    with pytest.raises(TreeError):
        AxisSpec("x0", 1.0, 0.0, 5)


@pytest.mark.parametrize("low, high", [(-1.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf)])
def test_axis_spec_rejects_non_finite_bounds(low, high):
    with pytest.raises(TreeError, match="axis bounds must be finite"):
        AxisSpec(0, low, high, 3)
