"""Numerically stable log-space primitives.

All probability accumulation in the package goes through these helpers:
max-shifted log-sum-exp that tolerates -inf entries, and a deterministic
pairwise-tree reduction so partitioned sums are bit-stable regardless of
how many chunks the caller split the work into. The error accumulator
of every numerical check lives here too, so that a NaN error fails, and
so does `support_dot`, the expectation that leaves zero weights out, so
that an unreachable infinite cost does not become NaN; `axis_sum` is np.sum
over one axis without numpy's loop per short row.
"""

import numpy as np

NEG_INF = float("-inf")


def safe_log(x):
    """log with log(0) = -inf and no warning noise."""
    with np.errstate(divide="ignore"):
        return np.log(x)


def logsumexp(a, axis=None):
    """Max-shifted log(sum(exp(a))); returns -inf for an all--inf input."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return NEG_INF if axis is None else np.full(np.delete(a.shape, axis), NEG_INF)
    amax = np.max(a, axis=axis, keepdims=True)
    with np.errstate(invalid="ignore"):
        shifted = np.where(np.isfinite(amax), a - amax, NEG_INF)
    with np.errstate(over="ignore", divide="ignore"):
        s = np.sum(np.exp(shifted), axis=axis, keepdims=True)
        out = np.where(np.isfinite(amax), amax + np.log(s), amax)
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def axis_sum(x, axis):
    """np.sum(x, axis) of a C-ordered x, bit for bit, as column adds from +0
    in index order, which is numpy's order on every axis but an innermost
    one of 8 or more entries (summed pairwise, so left to np.sum)."""
    if x.shape[axis] >= 8 and np.prod(x.shape[axis:]) == x.shape[axis]:
        return np.sum(x, axis=axis)
    cols = np.moveaxis(x, axis, 0)
    out = cols[0] + 0.0                      # as numpy: a column of -0 sums to +0
    for col in cols[1:]:
        out += col
    return out


def pairwise_logsumexp(parts):
    """Reduce a sequence of log-values with a fixed pairwise tree.

    The reduction order depends only on len(parts), so partitioned
    enumerations reduce to bit-identical results across runs.
    """
    vals = [float(p) for p in parts]
    if not vals:
        return NEG_INF
    while len(vals) > 1:
        nxt = []
        for i in range(0, len(vals) - 1, 2):
            nxt.append(_lse2(vals[i], vals[i + 1]))
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def _lse2(x, y):
    if x == NEG_INF:
        return y
    if y == NEG_INF:
        return x
    hi, lo = (x, y) if x >= y else (y, x)
    return hi + np.log1p(np.exp(lo - hi))


def kl_divergence(q, p):
    """KL(q || p) for probability vectors, with 0 * log(0/x) = 0.

    Returns +inf where q places mass outside p's support.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    mask = q > 0.0
    if np.any(p[mask] == 0.0):
        return float("inf")
    qm = q[mask]
    return float(np.sum(qm * (np.log(qm) - np.log(p[mask]))))


def support_dot(w, v):
    """w @ v over positive weights only: a term of zero weight contributes
    nothing even where v is +inf, where the plain product would give
    0 * inf = NaN. The weights are nonnegative and v is finite or +inf."""
    inf = np.isposinf(v)
    if not inf.any():
        return w @ v
    return np.where((w > 0.0) @ inf, np.inf, w @ np.where(inf, 0.0, v))


def worst_error(worst, err):
    """The larger of two check errors, NaN if either is NaN, so a NaN error
    fails its check (Python's max(worst, nan) keeps worst)."""
    return float(np.maximum(worst, err))


def gap(a, b):
    """a - b, but 0 where a and b are the same infinity: such a pair agrees,
    and a path value of +inf under a bound of +inf meets the bound. A finite
    value against an infinite one keeps its infinite gap, and NaN stays."""
    return 0.0 if a == b else a - b
