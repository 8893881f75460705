from __future__ import annotations

import hashlib
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import assert_same_tree, bf_best_split, bf_fit_tree, bf_predict, route, tree_at
from passthru import accumulator, cli_report, pools, tree_forest
from passthru.mg_panel import build_passthrough_spec
from passthru.panel_data import write_panel_csv
from passthru.synth_lab import BLOCK_REPS, DgpParams, generate_panel, monte_carlo
from passthru.tree_forest import (
    AxisSpec,
    DimensionMismatchError,
    EmptyInputError,
    NoSplitsError,
    RegressionTree,
    SplitParams,
    TreeError,
    best_split,
    fit_forest,
    fit_tree,
    importance,
    partial_dependence,
    predict_many,
    tree_shape,
)

STEP_X = np.array([[1.0], [2.0], [3.0], [4.0]])
STEP_Y = np.array([0.0, 0.0, 10.0, 10.0])


def predict_one(model, row) -> float:
    return float(predict_many(model, [row])[0])


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


# Responses for each way the exact sums are taken, with the limbs their
# squares' table needs: one limb, two, and more than two (rounded through
# `_join`), down to responses some 1,500 binades apart, whose squares span
# the doubles from 0 to 1e300.
EXACT_SUM_PATHS = {
    "one-limb": (lambda rng, n: 1.0 + rng.uniform(0.0, 0.4, n), 1),  # y and y * y each in one binade
    "two-limbs": (lambda rng, n: rng.normal(size=n), 2),
    "many-limbs": (lambda rng, n: rng.normal(size=n) * 10.0 ** rng.integers(-30, 31, n), 9),
    "wide-span": (lambda rng, n: np.where(rng.random(n) < 0.5, 1e150, 1e-300) * rng.uniform(1.0, 2.0, n), 19),
}


@pytest.mark.parametrize("kind", list(EXACT_SUM_PATHS))
def test_exact_sum_paths_agree_with_brute_force(kind, monkeypatch):
    rng = np.random.default_rng(31)
    x = rng.normal(size=(40, 2))
    response, limbs = EXACT_SUM_PATHS[kind]
    y = response(rng, 40)
    assert accumulator._limbs(y * y, y.size)[0].shape[0] == limbs
    calls = {"_join": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(accumulator, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(accumulator, name, counted)
    params = SplitParams(min_leaf=2)
    found = best_split(x, y, params)
    ref = bf_best_split(x, y, params.min_leaf, 0.0)
    assert found is not None and repr(found) == repr(ref)
    tree = fit_tree(x, y, params)
    assert_same_tree(tree, bf_fit_tree(x, y, params.min_leaf))
    assert tree.feature.size > 3
    assert (calls["_join"] > 0) == (kind in ("many-limbs", "wide-span"))


BOUNDED_FITS = {
    "fit_tree": lambda x, y: fit_tree(x, y, SplitParams(min_leaf=2)),
    "fit_forest": lambda x, y: fit_forest(x, y, n_trees=5, seed=1, params=SplitParams(min_leaf=2)),
    "best_split": lambda x, y: best_split(x, y, SplitParams(min_leaf=2)),
}


@pytest.mark.parametrize("fit", list(BOUNDED_FITS))
def test_fits_reject_a_response_whose_sums_of_squares_overflow(fit):
    # rows * max|y| may reach the square root of the largest double, and no further
    rng = np.random.default_rng(43)
    x = rng.normal(size=(40, 2))
    y = rng.normal(size=40)
    top = math.sqrt(sys.float_info.max) / 40 / np.abs(y).max()
    found = BOUNDED_FITS[fit](x, y * (top * (1 - 2.0 ** -40)))
    if fit == "best_split":
        assert found is not None and 0.0 < found[2] < math.inf
    else:
        assert np.all(found.feature[found.roots] >= 0)
        assert np.all(np.isfinite(found.mse)) and np.all(np.isfinite(found.gain))
    with pytest.raises(TreeError, match=r"^response must have rows \* max\|y\| of at most 1\.34078e\+154, .* got 1\.34078e\+154$"):
        BOUNDED_FITS[fit](x, y * (top * (1 + 2.0 ** -40)))


# ---------------------------------------------------------------- fit_tree

def test_single_row_tree():
    tree = fit_tree(np.array([[3.0]]), np.array([7.5]), SplitParams(min_leaf=1))
    assert tree.feature.tolist() == [-1]
    assert predict_one(tree, [99.0]) == 7.5


def test_a_tree_and_a_forest_are_one_model_type():
    x = np.array([[1.0, -2.0], [4.0, 0.5], [2.0, 3.0], [3.0, -1.0]])
    tree = fit_tree(x, STEP_Y, SplitParams(min_leaf=1))
    assert type(tree) is RegressionTree and tree.n_trees == 1 and tree.row_indices == ()
    assert tree.feature_names == ("x0", "x1") and tree.n_features == 2
    assert tree.feature_min.tolist() == [1.0, -2.0] and tree.feature_max.tolist() == [4.0, 3.0]
    assert fit_tree(x, STEP_Y, feature_names=["a", "b"]).feature_names == ("a", "b")
    forest = fit_forest(x, STEP_Y, n_trees=3, seed=2, feature_names=("a", "b"))
    assert type(forest) is RegressionTree and forest.n_trees == 3 and len(forest.row_indices) == 3
    assert forest.feature_names == ("a", "b")
    assert forest.feature_min.tolist() == [1.0, -2.0] and forest.feature_max.tolist() == [4.0, 3.0]


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
        assert tree.gain[i] > 0.0
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
    params = SplitParams(min_leaf=draw(st.integers(1, 5)), max_depth=draw(st.one_of(st.none(), st.integers(0, 4))))
    return x, y, params


def _node_fields(tree) -> list[tuple]:
    """Every field of every node, array by array, in preorder; repr keeps -0.0 apart from 0.0."""
    floats = [list(map(repr, a.tolist())) for a in (tree.threshold, tree.gain, tree.mse, tree.prediction)]
    return list(zip(tree.feature.tolist(), tree.right.tolist(), tree.n.tolist(), *floats))


@settings(max_examples=150, deadline=None)
@given(tree_inputs(max_rows=30))
def test_best_split_agrees_with_brute_force(case):
    x, y, params = case
    assert best_split(x, y, params) == bf_best_split(x, y, params.min_leaf, 0.0)


@settings(max_examples=80, deadline=None)
@given(tree_inputs())
def test_fit_tree_agrees_with_brute_force(case):
    x, y, params = case
    assert_same_tree(fit_tree(x, y, params), bf_fit_tree(x, y, params.min_leaf, 0.0, params.max_depth))


@settings(max_examples=25, deadline=None)
@given(tree_inputs(min_rows=3, max_rows=40), st.sampled_from([1, 6, tree_forest._BATCH_TREES + 3]), st.integers(0, 99))
def test_forest_tree_is_the_tree_of_its_rows(case, n_trees, seed):
    # a tree must not depend on which trees share its batch
    x, y, params = case
    forest = fit_forest(x, y, n_trees=n_trees, seed=seed, params=params)
    for t, rows in enumerate(forest.row_indices):
        alone = fit_tree(x[rows], y[rows], params)
        assert _node_fields(tree_at(forest, t)) == _node_fields(alone)


def _subtree_end(nodes, i: int) -> int:
    """One past the last node of node i's subtree, checking that each right child follows its left subtree."""
    if nodes.feature[i] < 0:
        return i + 1
    assert nodes.right[i] == _subtree_end(nodes, i + 1)
    return _subtree_end(nodes, int(nodes.right[i]))


@settings(max_examples=25, deadline=None)
@given(tree_inputs(min_rows=3, max_rows=40), st.sampled_from([1, 6, tree_forest._BATCH_TREES + 3]), st.integers(0, 99))
def test_forest_nodes_hold_the_trees_one_after_another(case, n_trees, seed):
    x, y, params = case
    nodes = fit_forest(x, y, n_trees=n_trees, seed=seed, params=params)
    roots = nodes.roots.tolist()
    assert len(roots) == n_trees and roots[0] == 0 and all(a < b for a, b in zip(roots, roots[1:]))
    bounds = [*roots, nodes.feature.size]
    for a, b in zip(bounds, bounds[1:]):
        assert _subtree_end(nodes, a) == b  # the tree is its root's preorder subtree, and nothing more
        split = np.flatnonzero(nodes.feature[a:b] >= 0) + a
        assert np.all((nodes.right[split] > split + 1) & (nodes.right[split] < b))
        assert np.all(nodes.right[a:b][nodes.feature[a:b] < 0] == -1)
    assert fit_tree(x, y, params).roots.tolist() == [0]


# ---------------------------------------------------------------- predict

def test_two_leaf_routing():
    tree = fit_tree(STEP_X, STEP_Y, SplitParams(min_leaf=1))
    assert predict_one(tree, [2.4]) == 0.0
    assert predict_one(tree, [2.6]) == 10.0
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
    x, y, params = case
    ref = bf_fit_tree(x, y, params.min_leaf, 0.0, params.max_depth)
    extra = data.draw(st.lists(FEATURE_VALUES, max_size=6 * x.shape[1]).map(
        lambda v: v[: len(v) - len(v) % x.shape[1]]))
    probe = _probes(x, [ref], extra)
    tree = fit_tree(x, y, params)
    expected = [bf_predict(ref, row) for row in probe]
    assert predict_many(tree, probe).tolist() == expected
    assert [predict_one(tree, row) for row in probe] == expected


@settings(max_examples=40, deadline=None)
@given(tree_inputs(min_rows=3), st.integers(1, 5), st.integers(0, 99))
def test_forest_routes_like_the_brute_force_trees(case, n_trees, seed):
    x, y, params = case
    forest = fit_forest(x, y, n_trees=n_trees, seed=seed, params=params)
    refs = [bf_fit_tree(x[rows], y[rows], params.min_leaf, 0.0, params.max_depth) for rows in forest.row_indices]
    probe = _probes(x, refs, [])
    expected = [math.fsum(bf_predict(ref, row) for ref in refs) / n_trees for row in probe]
    assert predict_many(forest, probe).tolist() == expected
    assert [predict_one(forest, row) for row in probe] == expected


@settings(max_examples=20, deadline=None)
@given(tree_inputs(min_rows=3, max_rows=30), st.data(), st.integers(0, 99))
def test_forest_of_several_batches_predicts_the_fsum_of_routed_leaves(case, data, seed):
    # responses of mixed magnitudes, so the leaf values need several limbs
    x, y, params = case
    y = y * 10.0 ** np.array(data.draw(st.lists(st.integers(-30, 30), min_size=y.size, max_size=y.size)))
    n_trees = tree_forest._BATCH_TREES + 3
    forest = fit_forest(x, y, n_trees=n_trees, seed=seed, params=params)
    probe = np.vstack([x, np.random.default_rng(seed).uniform(-3.0, 3.0, size=(10, x.shape[1]))])
    expected = [math.fsum(forest.prediction[route(forest, row, root)] for root in forest.roots.tolist()) / n_trees
                for row in probe]
    assert predict_many(forest, probe).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("budget, per_batch", [(1, 1), (16, 1), (17, 1), (35, 2), (17 * 11 - 1, 10), (10**6, 11)])
def test_routing_batches_hold_the_pair_budget_and_predict_the_same_bits(monkeypatch, budget, per_batch):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 2))
    y = rng.normal(size=40) * 10.0 ** rng.integers(-20, 21, 40)  # leaf values need several limbs
    forest = fit_forest(x, y, n_trees=11, seed=4, params=SplitParams(min_leaf=2))
    probe = rng.normal(size=(17, 2))
    expected = [math.fsum(forest.prediction[route(forest, row, root)] for root in forest.roots.tolist()) / 11
                for row in probe]
    monkeypatch.setattr(tree_forest, "_ROUTE_PAIRS", budget)
    sizes = [leaves.shape for leaves in tree_forest._route(forest, probe)]
    assert sizes == [(min(per_batch, 11 - first), 17) for first in range(0, 11, per_batch)]
    assert predict_many(forest, probe).tobytes() == np.array(expected).tobytes()


def test_predict_dimension_mismatch():
    tree = fit_tree(STEP_X, STEP_Y, SplitParams(min_leaf=1))
    with pytest.raises(DimensionMismatchError):
        predict_one(tree, [1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        predict_many(tree, np.ones((3, 2)))


def test_predict_many_of_no_rows_is_empty():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 2))
    y = x[:, 0] + 0.1 * rng.normal(size=30)
    for model in (fit_tree(x, y), fit_forest(x, y, n_trees=7, seed=2)):
        got = predict_many(model, np.empty((0, 2)))
        assert got.shape == (0,) and got.dtype == np.float64


# Any finite double: both extremes, subnormals, and both zeros among them.
LIMB_ATOMS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(LIMB_ATOMS, min_size=1, max_size=12), st.integers(1, 1100))
def test_limbs_split_each_value_exactly_into_the_fewest_limbs(values, terms):
    table, w, shift = accumulator._limbs(np.array(values), terms)
    assert table.dtype == np.int64 and table.shape[1] == len(values)
    assert w == min(53, 62 - terms.bit_length())
    assert shift == min([math.frexp(v)[1] for v in values if v] + [53]) - 53
    joined = [sum(limb << (j * w) for j, limb in enumerate(column)) for column in table.T.tolist()]
    assert [Fraction(total) * Fraction(2) ** shift for total in joined] == [Fraction(v) for v in values]
    assert np.all((table[:-1] >= 0) & (table[:-1] < 1 << w))
    assert table.shape[0] == max(1, -(-max(abs(total) for total in joined).bit_length() // w))


# Atoms for the exact forest sum: signs, ties at half an ulp, subnormals, the
# widest span of magnitudes (1e300 with 5e-324), and unrestricted floats kept
# small enough that 1,100 of them cannot overflow.
SUM_ATOMS = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0 ** -53, 3 * 2.0 ** -54, 0.1, 0.3, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300]),
    st.floats(-1e3, 1e3),
    st.floats(-1e300, 1e300),
)


def _limb_sums(values: list[np.ndarray], picks: list[np.ndarray]) -> np.ndarray:
    """Per point, the sum over t of values[t][picks[t]], as limbs of all the values, rounded once."""
    table, w, shift = accumulator._limbs(np.concatenate(values), len(values))
    offsets = np.cumsum([0] + [v.size for v in values[:-1]])
    return accumulator._round_sums(sum(table[:, o + p] for o, p in zip(offsets, picks)), w, shift)


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
    got = _limb_sums(list(terms), [np.arange(n_points)] * n_terms)
    assert got.tobytes() == np.array([math.fsum(col) for col in terms.T]).tobytes()


def test_exact_sums_of_shared_nodes():
    values = [np.array([0.1, -0.2, 1e-300]), np.array([0.7]), np.array([5e-324, -0.3])]
    picks = [np.array([0, 1, 2, 0]), np.array([0, 0, 0, 0]), np.array([1, 0, 0, 1])]
    expected = [math.fsum(v[p[i]] for v, p in zip(values, picks)) for i in range(4)]
    assert _limb_sums(values, picks).tolist() == expected


def test_exact_sums_of_non_finite_columns_are_numpy_sums():
    # columns: one with NaN, one with inf, and a finite one whose plain sum rounds 1.0 away
    values = np.array([[1.0, math.inf, 1e16], [math.nan, 1.0, 1.0], [2.0, math.inf, -1e16]])
    got = accumulator.exact_sums(values)
    assert got[:2].tobytes() == values.sum(axis=0)[:2].tobytes()
    assert got[2:].tobytes() == np.array([math.fsum(values[:, 2])]).tobytes() != values.sum(axis=0)[2:].tobytes()


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
        predict_one(forest, [0.5, -math.inf])


def test_forest_of_identical_trees_equals_tree():
    forest = fit_forest(STEP_X, STEP_Y, n_trees=25, subsample=1.0,
                        seed=1, params=SplitParams(min_leaf=1))
    tree = fit_tree(STEP_X, STEP_Y, SplitParams(min_leaf=1))
    for probe in ([1.1], [2.5], [3.9]):
        assert predict_one(forest, probe) == predict_one(tree, probe)


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
    trees = [tree_at(forest, t) for t in reversed(range(forest.n_trees))]
    roots = np.cumsum([0] + [t.feature.size for t in trees[:-1]])
    right = np.concatenate([np.where(t.right < 0, t.right, t.right + r) for t, r in zip(trees, roots)])
    columns = {f: np.concatenate([getattr(t, f) for t in trees]) for f in ("feature", "threshold", "gain", "n", "mse", "prediction")}
    shuffled = replace(forest, **columns, right=right, roots=roots, row_indices=tuple(reversed(forest.row_indices)))
    assert _node_fields(tree_at(shuffled, 0)) == _node_fields(tree_at(forest, 32))
    probe = rng.uniform(size=(25, 2))
    assert np.array_equal(predict_many(forest, probe), predict_many(shuffled, probe))


def test_forest_global_mean_degenerate_case():
    rng = np.random.default_rng(6)
    x = rng.uniform(size=(12, 1))
    y = rng.normal(size=12)
    forest = fit_forest(x, y, n_trees=10, subsample=1.0, seed=2,
                        params=SplitParams(min_leaf=12))
    assert predict_one(forest, [0.5]) == pytest.approx(float(y.mean()), abs=1e-15)


def test_forest_recovers_step_function():
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(500, 2))
    y = 10.0 * (x[:, 0] > 0.5) + rng.normal(0, 0.5, 500)
    forest = fit_forest(x, y, n_trees=300, seed=8)
    assert predict_one(forest, [0.9, 0.5]) == pytest.approx(10.0, abs=1.5)
    assert predict_one(forest, [0.1, 0.5]) == pytest.approx(0.0, abs=1.5)


def test_forest_needs_rows():
    with pytest.raises(EmptyInputError):
        fit_forest(np.ones((2, 1)), np.ones(2))
    with pytest.raises(TreeError):
        fit_forest(np.arange(9.0).reshape(-1, 1), np.arange(9.0), subsample=0.0)


@pytest.mark.parametrize("field, value", [
    ("min_leaf", 1.5), ("min_leaf", 0), ("min_leaf", True),
    ("max_depth", 1.5), ("max_depth", -1), ("max_depth", False),
])
def test_split_params_reject_bad_values_by_name(field, value):
    with pytest.raises(TreeError, match=rf"^{field} must be "):
        SplitParams(**{field: value})


@pytest.mark.parametrize("n_trees", [2.5, True, 0, "3"])
def test_forest_rejects_bad_tree_counts_by_name(n_trees):
    x = np.arange(9.0).reshape(-1, 1)
    with pytest.raises(TreeError, match=r"^n_trees must be an int of at least 1, got "):
        fit_forest(x, x[:, 0], n_trees=n_trees)


@pytest.mark.parametrize("field, value", [
    ("subsample", True), ("subsample", "0.5"), ("subsample", math.nan), ("subsample", 0.0), ("subsample", 1.5),
    ("seed", -1), ("seed", True), ("seed", 1.0), ("seed", "3"),
])
def test_forest_rejects_bad_subsample_and_seed_by_name(field, value):
    x = np.arange(9.0).reshape(-1, 1)
    with pytest.raises(TreeError, match=rf"^{field} must be "):
        fit_forest(x, x[:, 0], n_trees=2, **{field: value})


def test_numpy_scalars_pass_the_argument_checks():
    x = np.arange(9.0).reshape(-1, 1)
    forest = fit_forest(x, x[:, 0], n_trees=np.int64(2), subsample=np.float64(0.5), seed=np.int64(3))
    assert np.array_equal(forest.row_indices[1], fit_forest(x, x[:, 0], n_trees=2, subsample=0.5, seed=3).row_indices[1])
    assert AxisSpec(0.0, 1.0, np.int64(3)).values().tolist() == [0.0, 0.5, 1.0]
    axes = (AxisSpec(np.float64(0.0), np.int64(6), 3), AxisSpec(1.0, 7.0, 3))
    x = np.arange(8.0).reshape(-1, 2)
    grid = partial_dependence(fit_forest(x, x[:, 0], n_trees=2), axes, [(np.str_("x1"), np.float64(3.0))])
    assert grid.slices[0].fixed_feature == "x1" and grid.axis_values[0].tolist() == [0.0, 3.0, 6.0]


def _model_digest(model) -> str:
    """SHA-256 of the dtype and bytes of every node array, the roots and, for a forest, each tree's rows."""
    arrays = [getattr(model, f) for f in ("feature", "threshold", "right", "gain", "n", "mse", "prediction", "roots")]
    h = hashlib.sha256()
    for a in arrays + list(model.row_indices):
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


# Every bit of two models. A kernel change meant to keep each tree the same must keep these.
PINNED_MODELS = {
    "fig5 forest": "faaec9e78750f6666a1ab1c5c4ba0c14d94e3357d3eca026fd8653c3ecd7c797",
    "tie-heavy tree": "ae7c8af8a05f45616a5dfa888b805c628c4d72da2a8e44428e09c71c051fbc2b",
}


def test_fig5_forest_and_a_tie_heavy_tree_keep_their_bits(tmp_path, monkeypatch):
    # the forest `preset fig5 --seed 1` fits on a 21 x 40 synthetic panel
    data = tmp_path / "data"
    data.mkdir()
    write_panel_csv(generate_panel(DgpParams(n_countries=21, n_years=40, seed=1)), data / "panel.csv")
    forests, seeds = [], []

    def kept(*args, **kwargs):
        forests.append(fit_forest(*args, **kwargs))
        seeds.append(kwargs.get("seed"))
        return forests[-1]

    monkeypatch.setattr(cli_report, "fit_forest", kept)
    assert cli_report.main(["preset", "fig5", "--data", str(data), "--out", str(tmp_path / "fig5"), "--seed", "1"]) == 0
    assert len(forests) == 1 and forests[0].n_trees == 1000 and seeds == [1]
    # a depth-3 tree on coarse features, one column repeated, so many candidates tie
    rng = np.random.default_rng(17)
    x = rng.integers(0, 4, size=(60, 3)).astype(float)
    x[:, 2] = x[:, 0]
    y = rng.integers(-2, 3, size=60) / 4
    tree = fit_tree(x, y, SplitParams(min_leaf=2, max_depth=3))
    assert {"fig5 forest": _model_digest(forests[0]), "tie-heavy tree": _model_digest(tree)} == PINNED_MODELS


# ---------------------------------------------------------------- worker processes

def _fig5_sized(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """84 rows of 2 features, the size of the forest fig5 fits on a 21-country panel."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(84, 2))
    return x, np.where(x[:, 0] < 0.4, 0.4, 0.05) + x[:, 1] / 10 + rng.normal(0.0, 0.03, 84)


def _cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(tree_forest, "usable_cpus", lambda: n)


@pytest.mark.parametrize("n_trees", [1000, 300])
def test_forest_is_the_same_for_every_worker_count(monkeypatch, n_trees):
    x, y = _fig5_sized(5)
    digests = {}
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        assert tree_forest.forest_workers(n_trees) == cpus
        digests[cpus] = _model_digest(fit_forest(x, y, n_trees=n_trees, seed=4))
    assert digests[2] == digests[3] == digests[1]


def test_a_forest_of_one_batch_starts_no_pool(monkeypatch):
    pools.discard()
    _cpus(monkeypatch, 4)
    x, y = _fig5_sized(6)
    forest = fit_forest(x, y, n_trees=tree_forest._BATCH_TREES, seed=2)
    assert pools._pool is None
    assert tree_forest.forest_workers(tree_forest._BATCH_TREES) == 1 and tree_forest.forest_workers(300) == 3
    _cpus(monkeypatch, 1)
    assert _model_digest(forest) == _model_digest(fit_forest(x, y, n_trees=tree_forest._BATCH_TREES, seed=2))


def test_kept_workers_take_the_batches_from_their_tasks(monkeypatch):
    # workers forked before the batch size changes keep the old module state
    _cpus(monkeypatch, 2)
    x, y = _fig5_sized(7)
    fit_forest(x, y, n_trees=300, seed=5)
    kept = pools._pool
    monkeypatch.setattr(tree_forest, "_BATCH_TREES", 7)
    parallel = fit_forest(x, y, n_trees=300, seed=5)
    assert pools._pool is kept
    _cpus(monkeypatch, 1)
    assert _model_digest(parallel) == _model_digest(fit_forest(x, y, n_trees=300, seed=5))


def test_a_forest_and_a_monte_carlo_take_turns_on_the_pool(monkeypatch):
    x, y = _fig5_sized(9)
    p, spec = DgpParams(n_countries=3, n_years=12, seed=5), build_passthrough_spec("cpi", "ulc")
    _cpus(monkeypatch, 1)
    serial = (_model_digest(fit_forest(x, y, n_trees=300, seed=7)), monte_carlo(p, spec, reps=2 * BLOCK_REPS))
    _cpus(monkeypatch, 2)
    with ThreadPoolExecutor(2) as threads:
        forest = threads.submit(lambda: _model_digest(fit_forest(x, y, n_trees=300, seed=7)))
        report = threads.submit(monte_carlo, p, spec, reps=2 * BLOCK_REPS, n_jobs=2)
        assert (forest.result(timeout=120), report.result(timeout=120)) == serial


def test_a_fork_pool_runs_in_the_caller_where_it_may_not_start(monkeypatch):
    pools.discard()
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(pools, "_FORK_POOLS", False)
    x, y = _fig5_sized(10)
    forest = fit_forest(x, y, n_trees=300, seed=8)
    assert pools._pool is None
    _cpus(monkeypatch, 1)
    assert _model_digest(forest) == _model_digest(fit_forest(x, y, n_trees=300, seed=8))


def test_a_fork_gets_an_unheld_pool_lock():
    with pools._lock:  # as while a pool forks its workers
        pid = os.fork()
        if pid == 0:
            os._exit(1 if pools._lock.locked() else 0)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0


def test_a_fork_of_the_pool_owner_fits_the_same_forest(monkeypatch, passes_in_a_fork):
    x, y = _fig5_sized(8)
    _cpus(monkeypatch, 1)
    serial = _model_digest(fit_forest(x, y, n_trees=300, seed=6))
    _cpus(monkeypatch, 2)
    fit_forest(x, y, n_trees=300, seed=6)  # this process now holds a kept fork pool
    passes_in_a_fork(lambda: _model_digest(fit_forest(x, y, n_trees=300, seed=6)) == serial)


FOREST_SCRIPT = """
import numpy as np
from passthru import pools, tree_forest

tree_forest.usable_cpus = lambda: 2
rng = np.random.default_rng(0)
x = rng.uniform(size=(84, 2))
tree_forest.fit_forest(x, x[:, 0] + rng.normal(0.0, 0.1, 84), n_trees=1000)
print(*pools._pool[2]._processes)
"""


def test_a_script_with_a_forest_pool_exits_cleanly(script_exits_cleanly):
    script_exits_cleanly(FOREST_SCRIPT)


def test_forest_batches_of_many_rows_partition_like_lone_trees():
    # a 128-tree batch of 534-row trees holds 68,352 positions, past what 16 bits index
    rng = np.random.default_rng(41)
    x = rng.normal(size=(800, 2))
    y = np.sin(2 * x[:, 0]) + x[:, 1] + 0.3 * rng.normal(size=800)
    forest = fit_forest(x, y, n_trees=tree_forest._BATCH_TREES + 2, seed=3)
    assert tree_forest._BATCH_TREES * forest.row_indices[0].size > 1 << 16
    for t in (0, tree_forest._BATCH_TREES - 1, tree_forest._BATCH_TREES, tree_forest._BATCH_TREES + 1):
        rows = forest.row_indices[t]
        assert _node_fields(tree_at(forest, t)) == _node_fields(fit_tree(x[rows], y[rows]))


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
    # a column with one value offers no split, as if it were removed
    rng = np.random.default_rng(10)
    x = np.column_stack([rng.uniform(size=100), np.full(100, 0.5)])
    y = x[:, 0] + 0.05 * rng.normal(size=100)
    tree = fit_tree(x, y, SplitParams(min_leaf=5))
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


def test_importance_raw_non_negative():
    rng = np.random.default_rng(11)
    x = rng.uniform(size=(120, 2))
    y = np.where(x[:, 0] > 0.4, 1.0, 0.0) + 0.3 * rng.normal(size=120)
    forest = fit_forest(x, y, n_trees=50, seed=3)
    report = importance(forest)
    assert np.all(report.raw >= 0.0)
    assert report.shares.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------- partial dependence

def grid_axes(x: np.ndarray, steps: int = 10) -> tuple[AxisSpec, AxisSpec]:
    return (
        AxisSpec(float(x[:, 0].min()), float(x[:, 0].max()), steps),
        AxisSpec(float(x[:, 1].min()), float(x[:, 1].max()), steps),
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
    axes = (AxisSpec(-5.0, 5.0, 4), AxisSpec(0.0, 1.0, 4))
    with pytest.warns(UserWarning):
        partial_dependence(forest, axes)


@pytest.mark.parametrize("fixed, message", [
    (("x0", 50.0), r"slice at 'x0' = 50 lies beyond the training range \[-"),
    (("x1", -9.5), r"slice at 'x1' = -9.5 lies beyond the training range \[-"),
])
def test_pd_warns_for_slices_outside_training_range(fixed, message):
    rng = np.random.default_rng(15)
    x = rng.normal(size=(30, 2))
    forest = fit_forest(x, rng.normal(size=30), n_trees=5, seed=7)
    with pytest.warns(UserWarning, match=message) as fired:
        partial_dependence(forest, grid_axes(x, steps=4), [fixed, ("x0", 0.0)])
    assert len(fired) == 1


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 999),
    st.lists(st.tuples(st.sampled_from(["x0", "x1"]), st.floats(-0.5, 1.5)), max_size=4),
    st.integers(2, 9),
    st.integers(2, 9),
)
def test_pd_routes_grid_and_slices_like_their_points_alone(seed, slices, steps0, steps1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(30, 2))
    forest = fit_forest(x, rng.normal(size=30), n_trees=7, seed=seed, params=SplitParams(min_leaf=2))
    axes = (AxisSpec(0.0, 1.0, steps0), AxisSpec(0.0, 1.0, steps1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grid = partial_dependence(forest, axes, slices)
    a, b = np.meshgrid(*grid.axis_values, indexing="ij")
    points = np.column_stack([a.ravel(), b.ravel()])
    assert grid.surface.ravel().tobytes() == predict_many(forest, points).tobytes()
    assert len(grid.slices) == len(slices)
    for (feature, value), curve in zip(slices, grid.slices):
        j = int(feature[1])
        along = axes[1 - j].values()
        pts = np.empty((along.size, 2))
        pts[:, j] = value
        pts[:, 1 - j] = along
        assert np.array_equal(curve.along_values, along)
        assert curve.predictions.tobytes() == predict_many(forest, pts).tobytes()


def assert_pd_is_routed_sum(forest, axes, slices=()):
    """The surface and every slice, bit for bit, against predict_many on their points."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grid = partial_dependence(forest, axes, slices)
    a, b = np.meshgrid(*grid.axis_values, indexing="ij")
    assert grid.surface.ravel().tobytes() == predict_many(forest, np.column_stack([a.ravel(), b.ravel()])).tobytes()
    for (feature, value), curve in zip(slices, grid.slices):
        j = forest.feature_names.index(feature)
        pts = np.empty((curve.along_values.size, 2))
        pts[:, j] = value
        pts[:, 1 - j] = grid.axis_values[1 - j]
        assert curve.predictions.tobytes() == predict_many(forest, pts).tobytes()


def test_pd_points_on_split_thresholds_go_left():
    # integer features split at half-integers, and the grid steps by halves
    rng = np.random.default_rng(21)
    x = rng.integers(0, 10, size=(60, 2)).astype(float)
    forest = fit_forest(x, rng.normal(size=60), n_trees=9, seed=3, params=SplitParams(min_leaf=2))
    axes = (AxisSpec(-0.5, 9.5, 21), AxisSpec(-0.5, 9.5, 21))
    thresholds = set(forest.threshold[forest.feature >= 0].tolist())
    assert len(thresholds & set(axes[0].values().tolist())) > 5
    # slices on thresholds, on a grid value, and repeated
    assert_pd_is_routed_sum(
        forest, axes, [("x0", 4.5), ("x1", 2.5), ("x0", 3.0), ("x0", 4.5), ("x1", 2.5), ("x1", 7.25)]
    )


@pytest.mark.parametrize("n_trees, response, several_limbs", [
    (7, lambda y, rng: y + 1e8, False),
    (7, lambda y, rng: y * 10.0 ** rng.integers(-6, 9, y.size), True),
    (1000, lambda y, rng: y, True),  # a 1000-tree sum leaves w = 52 bits a limb
    # leaves some 1,500 binades apart; 1e150 squares, as split gains need, without overflow
    (7, lambda y, rng: np.where(y > 0, 1e150, 1e-300) * rng.uniform(1.0, 2.0, y.size), True),
], ids=["offset", "mixed-magnitudes", "1000-trees", "wide-span"])
def test_pd_sums_leaves_exactly(n_trees, response, several_limbs):
    rng = np.random.default_rng(22)
    x = rng.uniform(size=(40, 2))
    forest = fit_forest(x, response(rng.normal(size=40), rng), n_trees=n_trees, seed=4, params=SplitParams(min_leaf=2))
    assert (accumulator._limbs(forest.prediction, n_trees)[0].shape[0] > 1) == several_limbs
    assert_pd_is_routed_sum(forest, grid_axes(x, steps=12), [("x0", 0.5), ("x1", float(x[3, 1]))])


def test_pd_of_a_lone_tree_is_its_routed_prediction():
    # past x0 = 0.5, a third of the rows hold -5e-324 and the rest 0.0, so a leaf
    # there has mean -0.0; like predict_many, the grid gives +0.0 at its points
    rng = np.random.default_rng(25)
    x = rng.uniform(size=(40, 2))
    y = np.where(x[:, 0] > 0.5, np.where(np.arange(40) % 3 == 0, -5e-324, 0.0), rng.normal(size=40))
    tree = fit_tree(x, y, SplitParams(min_leaf=2))
    assert tree.n_trees == 1 and np.signbit(tree.prediction[route(tree, [0.75, 0.5])])
    assert predict_many(tree, [[0.75, 0.5]]).tobytes() == np.array([0.0]).tobytes()
    assert_pd_is_routed_sum(tree, grid_axes(x, steps=12), [("x0", 0.75), ("x1", float(x[3, 1]))])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_pd_rejects_a_non_finite_slice_by_name_before_any_warning(value):
    rng = np.random.default_rng(24)
    x = rng.uniform(size=(30, 2))
    forest = fit_forest(x, rng.normal(size=30), n_trees=5, seed=6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TreeError, match=rf"^slice at 'x1' is {value}, not finite$"):
            partial_dependence(forest, grid_axes(x), [("x0", 9.0), ("x1", value)])


def test_pd_requires_two_feature_model():
    rng = np.random.default_rng(16)
    x = rng.uniform(size=(30, 3))
    forest = fit_forest(x, rng.normal(size=30), n_trees=5, seed=8)
    with pytest.raises(DimensionMismatchError):
        partial_dependence(forest, (AxisSpec(0, 1, 4), AxisSpec(0, 1, 4)))


@pytest.mark.parametrize("steps", [2.5, 3.0, True, 1, "3"])
def test_axis_spec_rejects_bad_steps_by_name(steps):
    with pytest.raises(TreeError, match=r"^steps must be an int of at least 2, got "):
        AxisSpec(0.0, 1.0, steps)


@pytest.mark.parametrize("args, message", [
    (("0", 1.0, 3), r"^minimum must be a real number, got '0'$"),
    ((True, 2.0, 3), r"^minimum must be a real number, got True$"),
    ((0.0, "1", 3), r"^maximum must be a real number, got '1'$"),
])
def test_axis_spec_rejects_bad_fields_by_name(args, message):
    with pytest.raises(TreeError, match=message):
        AxisSpec(*args)


@pytest.mark.parametrize("fixed, message", [
    (("x0", "0.5"), r"^slice at 'x0' must be a real number, got '0\.5'$"),
])
def test_pd_rejects_bad_slices_by_name(fixed, message):
    rng = np.random.default_rng(24)
    x = rng.uniform(size=(30, 2))
    forest = fit_forest(x, rng.normal(size=30), n_trees=5, seed=6)
    with pytest.raises(TreeError, match=message):
        partial_dependence(forest, grid_axes(x), [fixed])


@pytest.mark.parametrize(
    "feature, shown", [(0, "0"), (True, "True"), (1.0, r"1\.0"), ("x2", "'x2'")], ids=["0", "True", "1.0", "x2"]
)
def test_pd_names_a_slice_feature_the_model_lacks(feature, shown):
    # a slice names its feature; an index, even one in range, is not a name
    rng = np.random.default_rng(24)
    x = rng.uniform(size=(30, 2))
    forest = fit_forest(x, rng.normal(size=30), n_trees=5, seed=6)
    with pytest.raises(DimensionMismatchError, match=rf"^unknown feature {shown}$"):
        partial_dependence(forest, grid_axes(x), [("x1", 0.5), (feature, 0.5)])


def test_axis_spec_validation():
    with pytest.raises(TreeError):
        AxisSpec(0.0, 1.0, 1)
    with pytest.raises(TreeError):
        AxisSpec(1.0, 0.0, 5)


@pytest.mark.parametrize("low, high", [(-1.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf)])
def test_axis_spec_rejects_non_finite_bounds(low, high):
    with pytest.raises(TreeError, match="axis bounds must be finite"):
        AxisSpec(low, high, 3)


def test_axis_spec_rejects_a_span_that_overflows():
    # linspace over a span past the largest double would make nan grid values
    with pytest.raises(TreeError, match="overflows a double"):
        AxisSpec(-1e308, 1e308, 3)
