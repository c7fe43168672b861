"""The path-reduction kernel must agree with a direct itertools
enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ascontrol._kernels import _py, backend_name
from ascontrol.logspace import logsumexp


def direct_reduce(first_row, mats):
    n = first_row.shape[0]
    T = len(mats) + 1
    vals = []
    for path in itertools.product(range(n), repeat=T):
        lp = first_row[path[0]]
        for t, mat in enumerate(mats):
            lp += mat[path[t], path[t + 1]]
        vals.append(lp)
    return logsumexp(np.array(vals))


def random_mats(rng, n, T, with_zeros=False):
    first = rng.standard_normal(n)
    mats = [rng.standard_normal((n, n)) for _ in range(T - 1)]
    if with_zeros:
        first[rng.random(n) < 0.3] = -np.inf
        for m in mats:
            m[rng.random((n, n)) < 0.3] = -np.inf
    return first, mats


@pytest.mark.parametrize("with_zeros", [False, True])
@pytest.mark.parametrize("n,T", [(2, 1), (3, 3), (4, 4)])
def test_fallback_matches_direct(n, T, with_zeros):
    rng = np.random.default_rng(n * 10 + T)
    first, mats = random_mats(rng, n, T, with_zeros)
    expect = direct_reduce(first, mats)
    got = _py.path_logsumexp(first, mats)
    if expect == -math.inf:
        assert got == -math.inf
    else:
        assert got == pytest.approx(expect, abs=1e-10)


def test_fallback_chunked_matches_unchunked(monkeypatch):
    rng = np.random.default_rng(5)
    first, mats = random_mats(rng, 5, 5)
    full = _py.path_logsumexp(first, mats)
    monkeypatch.setattr(_py, "DENSE_CHUNK", 16)
    chunked = _py.path_logsumexp(first, mats)
    assert chunked == pytest.approx(full, abs=1e-10)
    # deterministic: identical reruns bit-identical
    assert _py.path_logsumexp(first, mats) == chunked


# log-weights up to 1000 nats apart: a shift by the sum of per-step maxima
# underflows every path of such an input
LOG_WEIGHTS = st.one_of(st.just(-math.inf), st.sampled_from([-1000.0, 0.0, 1000.0]),
                        st.floats(-1000.0, 1000.0))


@st.composite
def reductions(draw):
    """(first_row, mats) with n <= 4 states and T <= 4 steps; -inf entries
    and whole blocked rows included."""
    n = draw(st.integers(1, 4))
    T = draw(st.integers(1, 4))
    first = np.array(draw(st.lists(LOG_WEIGHTS, min_size=n, max_size=n)))
    mats = []
    for _ in range(T - 1):
        m = np.array(draw(st.lists(LOG_WEIGHTS, min_size=n * n, max_size=n * n)))
        m = m.reshape(n, n)
        m[draw(st.lists(st.booleans(), min_size=n, max_size=n))] = -math.inf
        mats.append(m)
    return first, mats


@settings(max_examples=300, deadline=None)
@given(reduction=reductions(), chunk=st.integers(1, 64))
@example(reduction=(np.array([0.0, -math.inf]),
                    [np.array([[-1000.0, -math.inf], [-math.inf, 0.0]])]),
         chunk=_py.DENSE_CHUNK)
def test_kernel_matches_direct_sum(reduction, chunk):
    first, mats = reduction
    expect = direct_reduce(first, mats)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_py, "DENSE_CHUNK", chunk)
        got = _py.path_logsumexp(first, mats)
    if expect == -math.inf:
        assert got == -math.inf
    else:
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-10)


def test_all_blocked_paths():
    first = np.array([-np.inf, -np.inf])
    assert _py.path_logsumexp(first, []) == -math.inf


def test_probability_mass_identity():
    # log-probability matrices reduce to log(1)
    rng = np.random.default_rng(3)
    n = 6
    first = np.log(rng.dirichlet(np.ones(n)))
    mats = [np.log(rng.dirichlet(np.ones(n), size=n)) for _ in range(3)]
    assert _py.path_logsumexp(first, mats) == pytest.approx(0.0, abs=1e-12)


def test_backend_name():
    assert backend_name() == "python"
