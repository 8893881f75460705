"""Independent reference implementations the main code is checked against.

Deliberately written the slow, obvious way: explicit normal equations, dummy
variables, and exhaustive enumeration. Nothing here shares code with the
package internals.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np


def ols_normal_equations(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Textbook (X'X)^-1 X'y."""
    return np.linalg.solve(x.T @ x, x.T @ y)


def fe_dummy_ols(x: np.ndarray, y: np.ndarray, groups) -> np.ndarray:
    """Slopes from OLS with one explicit dummy per entity (no common constant)."""
    uniq = list(dict.fromkeys(groups))
    dummies = np.column_stack([[1.0 if g == e else 0.0 for g in groups] for e in uniq])
    full = np.column_stack([x, dummies])
    beta, *_ = np.linalg.lstsq(full, y, rcond=None)
    return beta[: x.shape[1]]


def mg_fsum(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean-group coefficients and covariance of (n, k) country rows, one math.fsum per entry.

    theta_j = fsum(column j) / n and cov_ab = fsum(dev_a * dev_b) / (n (n - 1)).
    """
    import math

    n, k = matrix.shape
    theta = np.array([math.fsum(matrix[:, j]) for j in range(k)]) / n
    dev = matrix - theta
    cov = np.array([[math.fsum(dev[:, a] * dev[:, b]) for b in range(k)] for a in range(k)]) / (n * (n - 1))
    return theta, cov


def _sse(values: np.ndarray) -> float:
    """Sum of squared deviations from the mean, by exactly rounded sums."""
    import math

    s = math.fsum(values)
    return max(math.fsum(values * values) - s * s / len(values), 0.0)


def bf_best_split(x: np.ndarray, y: np.ndarray, min_leaf: int, min_gain: float):
    """Exhaustive search over every (feature, midpoint) candidate.

    Gains use exactly rounded sums, the documented tie-resolution arithmetic,
    so equal partitions produce bit-identical gains here and in the package.
    """
    n = y.shape[0]
    if n < 2 * min_leaf or float(y.min()) == float(y.max()):
        return None
    node_sse = _sse(y)
    best = None
    for j in range(x.shape[1]):
        values = sorted(set(x[:, j].tolist()))
        for a, b in zip(values, values[1:]):
            threshold = (a + b) / 2.0
            if threshold >= b:  # adjacent doubles: keep the boundary row left
                threshold = a
            left = x[:, j] <= threshold
            nl = int(left.sum())
            nr = n - nl
            if nl < min_leaf or nr < min_leaf:
                continue
            gain = (node_sse - _sse(y[left]) - _sse(y[~left])) / n
            if best is None or gain > best[2]:
                best = (j, threshold, gain)
    if best is None or best[2] <= min_gain:
        return None
    return best


def bf_fit_tree(x: np.ndarray, y: np.ndarray, min_leaf: int, min_gain: float = 0.0, max_depth=None):
    """Recursive brute-force CART; nodes are plain dicts."""
    n = y.shape[0]
    mean = y.mean()
    node = {"n": n, "prediction": float(mean), "mse": float(((y - mean) ** 2).mean())}
    if max_depth is not None and max_depth <= 0:
        return node
    found = bf_best_split(x, y, min_leaf, min_gain)
    if found is None:
        return node
    j, threshold, gain = found
    left = x[:, j] <= threshold
    node.update(
        feature=j,
        threshold=threshold,
        gain=gain,
        left=bf_fit_tree(x[left], y[left], min_leaf, min_gain,
                         None if max_depth is None else max_depth - 1),
        right=bf_fit_tree(x[~left], y[~left], min_leaf, min_gain,
                          None if max_depth is None else max_depth - 1),
    )
    return node


def bf_predict(ref: dict, row) -> float:
    """Route one row down a brute-force dict tree: feature <= threshold goes left."""
    while "feature" in ref:
        ref = ref["left"] if row[ref["feature"]] <= ref["threshold"] else ref["right"]
    return ref["prediction"]


def assert_same_tree(tree, ref, path="root", i=0):
    """Node-for-node comparison of a package tree against a brute-force dict tree.

    Walks the package's preorder node arrays from node i (the left child of a
    split is the next node) and returns the index just past that subtree; at
    the root, every node must have been visited. Floats compare by repr, so
    their bits must match.
    """
    assert tree.n[i] == ref["n"], f"{path}: node sizes differ"
    assert repr(float(tree.prediction[i])) == repr(ref["prediction"]), f"{path}: predictions differ"
    assert repr(float(tree.mse[i])) == repr(ref["mse"]), f"{path}: mse differ"
    if "feature" not in ref:
        assert tree.feature[i] < 0, f"{path}: expected a leaf"
        end = i + 1
    else:
        assert tree.feature[i] >= 0, f"{path}: expected a split"
        assert tree.feature[i] == ref["feature"], f"{path}: split features differ"
        assert repr(float(tree.threshold[i])) == repr(ref["threshold"]), f"{path}: thresholds differ"
        assert repr(float(tree.gain[i])) == repr(ref["gain"]), f"{path}: gains differ"
        right = assert_same_tree(tree, ref["left"], path + ".L", i + 1)
        assert tree.right[i] == right, f"{path}: right child is not next after the left subtree"
        end = assert_same_tree(tree, ref["right"], path + ".R", right)
    if i == 0:
        assert end == tree.feature.size, f"{path}: nodes outside the tree"
    return end


def tree_at(nodes, t: int) -> SimpleNamespace:
    """Tree t of flat node arrays (trees one after another from their `roots`), numbered from 0 on its own."""
    bounds = [*nodes.roots.tolist(), nodes.feature.size]
    a, b = bounds[t], bounds[t + 1]
    right = nodes.right[a:b]
    return SimpleNamespace(
        feature=nodes.feature[a:b],
        threshold=nodes.threshold[a:b],
        right=np.where(right < 0, right, right - a),
        gain=nodes.gain[a:b],
        n=nodes.n[a:b],
        mse=nodes.mse[a:b],
        prediction=nodes.prediction[a:b],
    )


def route(nodes, row, node: int = 0) -> int:
    """The leaf one row reaches from `node`, one comparison at a time: feature <= threshold goes left."""
    while nodes.feature[node] >= 0:
        node = node + 1 if row[nodes.feature[node]] <= nodes.threshold[node] else int(nodes.right[node])
    return node


def simulate_panel(p, seed):
    """The generating process country by country, with one `rng.normal` call per draw.

    Returns the (variable, country, year) values of cpi, ulc, kof, em6 and em10,
    and each country's (rho_i, lam_i, alpha_i). A rho_i outside the stationary
    bound is redrawn; the recursions run from rest over the burn-in years,
    which are then dropped.
    """
    rng = np.random.default_rng(seed)
    total = p.burn_in + p.n_years
    ramp = np.linspace(0.0, 1.0, p.n_years)
    layers, truths = [], []
    for _ in range(p.n_countries):
        while True:
            rho = p.rho + rng.normal(0.0, p.sigma_mu1) if p.sigma_mu1 > 0 else p.rho
            if abs(rho) < 0.95:
                break
        mu2 = rng.normal(0.0, p.sigma_mu2) if p.sigma_mu2 > 0 else 0.0
        alpha = p.alpha_mean + (rng.normal(0.0, p.alpha_sd) if p.alpha_sd > 0 else 0.0)
        truths.append((rho, p.lam + mu2, alpha))
        cost_innov = rng.normal(0.0, p.cost_sd, total)
        eps = rng.normal(0.0, p.sigma_eps, total)
        noise = [rng.normal(0.0, sd, p.n_years) for sd in (0.01, 0.01, 0.005, 0.05)]
        dc, dp = np.zeros(total), np.zeros(total)
        for t in range(total):
            if p.lambda_schedule is None:
                lam = p.lam + mu2
            else:
                lam = p.lambda_schedule[min(max(t - p.burn_in, 0) // 10, len(p.lambda_schedule) - 1)] + mu2
            dc[t] = cost_innov[t] + p.cost_ar * (dc[t - 1] if t else 0.0)
            dp[t] = lam * dc[t] + alpha + eps[t] + rho * (dp[t - 1] if t else 0.0)
        em6 = 0.004 * np.exp(2.0 * ramp) * np.exp(noise[3])
        layers.append([
            100.0 * np.exp(np.cumsum(dp[p.burn_in:])),
            100.0 * np.exp(np.cumsum(dc[p.burn_in:])),
            0.65 + 0.2 * ramp + noise[2],
            em6,
            1.4 * em6,
        ])
    return np.array(layers).transpose(1, 0, 2), truths
