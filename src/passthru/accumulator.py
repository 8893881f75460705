"""One exact accumulator for sums of doubles.

Each value is cut into int64 limbs that sums of a known number of terms keep
exact; the limbs are summed as integers and each sum is rounded once. The
result equals math.fsum's correctly rounded sum, so it does not depend on the
order of the terms. Tree growth, forest predictions, partial dependence,
mean-group moments and Monte Carlo reports all sum through it.
"""

from __future__ import annotations

import numpy as np


def _limbs(flat: np.ndarray, terms: int) -> tuple[np.ndarray, int, int]:
    """Split finite values into exact int64 limbs that sums of `terms` of them keep exact.

    Every value is an integer times a common power of two, 2^shift, and that
    integer is split into signed limbs of w bits (Demmel & Hida 2003), low
    limb first: every limb but the top one lies in [0, 2^w). The limbs are
    cut out of each value's 53-bit mantissa by integer shifts, so no scaled
    double is formed and any span of magnitudes fits (a long accumulator,
    Kulisch & Miranker 1981). Returns the (limbs, values) table, w and shift.
    """
    mantissa, exponent = np.frexp(flat)
    digits = np.ldexp(mantissa, 53).astype(np.int64)  # each value is digits * 2^(exponent - 53)
    nonzero = exponent[flat != 0.0]
    lowest, highest = (int(nonzero.min()), int(nonzero.max())) if nonzero.size else (53, 0)
    shift = min(lowest, 53) - 53  # 2^-shift * each value is an integer
    # w <= 53 keeps each low limb exact in a double; w + log2(terms) <= 62
    # keeps every limb's sum over the terms inside an int64
    w = min(53, 62 - terms.bit_length())
    count = max(1, -(-(highest - shift) // w))  # limbs that hold the largest value's bits
    # limb j is floor(digits * 2^up) mod 2^w (the top limb unreduced), with
    # up = exponent - 53 - shift - j * w. A left shift that wraps past bit 63
    # loses only bits above the limb. Counts are clamped to [0, 63], as numpy
    # leaves others undefined, and the limbs keep their bits: a left shift by
    # w or more leaves none below 2^w, and as |digits| < 2^53, a right shift
    # by 53 or more leaves only the sign.
    up = exponent - 53 - shift - w * np.arange(count)[:, None]
    table = (digits << up.clip(0, 63)) >> (-up).clip(0, 63)
    table[:-1] &= (1 << w) - 1
    return table, w, shift


def _join(acc: np.ndarray, w: int, shift: int) -> np.ndarray:
    """Each point's summed (limbs, points) limbs, joined as a Python int and rounded once."""
    scale = 1 << -shift
    totals = (sum(limb << (j * w) for j, limb in enumerate(point)) for point in acc.T.tolist())
    return np.array([total / scale for total in totals])


def _round_sums(acc: np.ndarray, w: int, shift: int) -> np.ndarray:
    """Each point's summed (limbs, points) limbs, rounded once: math.fsum's value.

    Carries bring every limb but the top one into [0, 2^w), and the upper
    limbs fold into one, hi, so the sum is (hi * 2^w + lo) * 2^shift. While
    |hi| <= 2^53, hi * 2^w and lo are exact doubles, and adding them rounds
    the sum once. Scaling by 2^shift is exact: every double is a multiple of
    2^-1074, so a sum in the subnormal range has at most 52 bits and was not
    rounded. Points whose hi needs more bits, or whose sum overflows, go
    through `_join`.
    """
    limbs = [*acc, np.zeros_like(acc[0])]  # a top limb for the carries
    for j in range(len(limbs) - 1):
        carry = limbs[j] >> w
        limbs[j] = limbs[j] - (carry << w)
        limbs[j + 1] = limbs[j + 1] + carry
    hi, reach = limbs[-1], 1 << (53 - w)
    wide = np.zeros(hi.shape, dtype=bool)
    for limb in limbs[-2:0:-1]:
        wide |= (hi < -reach) | (hi >= reach)  # beyond these, hi * 2^w + limb needs more than 53 bits
        hi = (hi << w) + limb
    with np.errstate(over="ignore"):
        out = np.ldexp(np.ldexp(hi.astype(float), w) + limbs[0].astype(float), shift)
    wide |= np.isinf(out)
    if wide.any():
        out[wide] = _join(np.array(limbs)[:, wide], w, shift)
    return out


def exact_sums(values: np.ndarray) -> np.ndarray:
    """The correctly rounded sums of `values` over their first axis: math.fsum of each finite column.

    A column that holds NaN or inf has no exact sum; it sums as
    values.sum(axis=0) does, to NaN or an infinity.
    """
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        return np.where(finite, exact_sums(np.where(finite, values, 0.0)), values.sum(axis=0))
    table, w, shift = _limbs(values.ravel(), values.shape[0])
    sums = table.reshape(table.shape[0], values.shape[0], -1).sum(axis=1)
    return _round_sums(sums, w, shift).reshape(values.shape[1:])
