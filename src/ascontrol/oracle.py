"""Brute-force ground truth on desk-scale instances.

Every routine here either enumerates explicitly (trajectory streams,
posterior tables, path-integral reductions over each state path) or
propagates exact distributions forward/backward. Nothing is sampled and
nothing is approximated beyond float arithmetic; the ceilings (complete
states in chains.Lattice.of, trajectories in _check_paths) abort loudly
rather than truncate.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import chains
from ._kernels import path_logsumexp
from .errors import (ConvergenceError, DimensionMismatchError,
                     EnumerationBudgetError, ImpossibleObservationError)
from .logspace import NEG_INF, logsumexp, safe_log, support_dot
from .model import CompleteState, Trajectory, tick_at


# the trajectory ceiling of exhaustive enumerations; ASC_ENUM_BUDGET (an
# integer) overrides it
MAX_TRAJECTORIES = 10_000_000

_STATIONARY_TOL = 1e-14  # L1 step at which stationary_rate stops


def _check_paths(bound):
    raw = os.environ.get("ASC_ENUM_BUDGET")
    try:
        allowed = int(raw) if raw else MAX_TRAJECTORIES
    except ValueError:
        raise ValueError(f"ASC_ENUM_BUDGET must be an integer, got {raw!r}") from None
    if bound > allowed:
        raise EnumerationBudgetError(
            f"enumeration needs up to {bound} trajectories, budget is {allowed}",
            required=bound, allowed=allowed)


def check_horizon(T):
    """A horizon of at least one step, checked before any work."""
    if T < 1:
        raise ValueError(f"the horizon T must be at least 1 step, got {T!r}")


def _support_bound(first_row, mats):
    bound = int(np.count_nonzero(first_row > NEG_INF))
    for m in mats:
        bound *= int(np.max(np.count_nonzero(m > NEG_INF, axis=1), initial=0))
    return bound


def _log_transition_mats(gen, T):
    return chains.step_matrices(
        lambda tick: safe_log(chains.transition_matrix(gen, tick)), gen.spec, T)


# ---------------------------------------------------------------------------
# trajectory enumeration


def enumerate_trajectories(gen, x0, T):
    """Yield every nonzero-probability trajectory of length T from x0 with its
    log-probability, depth-first in state order."""
    spec = gen.spec
    x0.validate(spec)
    check_horizon(T)
    logmats = _log_transition_mats(gen, T)
    first = logmats[0][x0.flat(spec)]
    _check_paths(_support_bound(first, logmats[1:]))

    states = [CompleteState.from_flat(i, spec) for i in range(spec.n_states)]
    path = []

    def walk(row, logp, depth):
        for j in np.nonzero(row > NEG_INF)[0]:
            path.append(states[j])
            lp = logp + row[j]
            if depth == T:
                yield Trajectory(x0, tuple(path)), lp
            else:
                yield from walk(logmats[depth][j], lp, depth + 1)
            path.pop()

    yield from walk(first, 0.0, 1)


# ---------------------------------------------------------------------------
# observation-clamped quantities (Bayes rule at episode scale)


def _completion_mats(gen, x0, obs):
    """Log-weight matrices over the completion space (all non-observation
    components) for a clamped observation sequence."""
    spec = gen.spec
    x0.validate(spec)
    obs = [int(o) for o in obs]
    for o in obs:
        if not 0 <= o < spec.card_o:
            raise DimensionMismatchError(f"observation {o} out of range")
    if not obs:
        raise ValueError("need at least one observation")
    m = spec.n_states // spec.card_o  # o is the leading state axis
    logmats = _log_transition_mats(gen, len(obs))
    first = logmats[0][x0.flat(spec), obs[0] * m:(obs[0] + 1) * m]
    rest = [logmats[t][obs[t - 1] * m:(obs[t - 1] + 1) * m,
                       obs[t] * m:(obs[t] + 1) * m]
            for t in range(1, len(obs))]
    return first, rest, m


def exact_marginal_likelihood(gen, x0, obs):
    """log p(o_1..o_t | x0): exhaustive sum over every completion of the
    non-observed components."""
    first, rest, _ = _completion_mats(gen, x0, obs)
    _check_paths(_support_bound(first, rest))
    return float(path_logsumexp(first, rest))


@dataclass(frozen=True)
class PosteriorTable:
    """Exact posterior over completion trajectories.

    `paths[k, t]` is the completion index (raveled (s1, s2, a, a1, a2)) of
    path k at step t+1; `probs[k]` its posterior probability.
    """

    spec: object
    paths: np.ndarray
    probs: np.ndarray
    log_marginal: float

    def state_at(self, k, t, obs):
        """Reconstruct the complete state of path k at step t (1-based)."""
        comp_dims = self.spec.dims[1:]
        s1, s2, a, a1, a2 = np.unravel_index(self.paths[k, t - 1], comp_dims)
        return CompleteState(int(obs[t - 1]), int(s1), int(s2), int(a),
                             int(a1), int(a2))


def exact_posterior(gen, x0, obs):
    """Normalized posterior over all latent/action completions of an
    observation sequence (Bayes rule by enumeration)."""
    first, rest, m = _completion_mats(gen, x0, obs)
    T = len(rest) + 1
    _check_paths(m ** T)
    logw = first
    for mat in rest:
        k = logw.shape[0]
        logw = (logw[:, None] + mat[np.arange(k) % m]).reshape(-1)
    log_z = logsumexp(logw)
    if log_z == NEG_INF:
        raise ImpossibleObservationError(
            f"observations {list(obs)} have zero marginal probability")
    probs = np.exp(logw - log_z)
    keep = np.nonzero(probs > 0.0)[0]
    paths = np.empty((keep.size, T), dtype=np.intp)
    for t in range(T):
        paths[:, t] = (keep // (m ** (T - 1 - t))) % m
    return PosteriorTable(spec=gen.spec, paths=paths, probs=probs[keep],
                          log_marginal=float(log_z))


def exact_step_posterior(gen, x_prev, o, tick=True):
    """One-step posterior over latent tuples given the next observation, and
    the log-evidence log p(o | x_prev). The low-level action integrates out."""
    prior = chains.latent_prior_row(gen, x_prev, tick)
    lik = chains.lik_over_latents(gen)[:, int(o)]
    joint = prior * lik
    z = joint.sum()
    if z <= 0.0:
        raise ImpossibleObservationError(f"observation {o} impossible from {x_prev}")
    return joint / z, float(np.log(z))


# ---------------------------------------------------------------------------
# exact rates


def exact_average_rate(gen, rec, ref, x0, T_burn, T_eval, chain="generative"):
    """Expected global surprise rate from x0: push the exact state
    distribution forward T_burn + T_eval steps and average the expected
    step objective over the last T_eval steps. The expectation runs over
    occupied states only, so an unreachable state's infinite cost leaves
    the rate finite."""
    spec = gen.spec
    x0.validate(spec)
    if T_eval < 1:
        raise ValueError("T_eval must be >= 1")
    if chain not in ("generative", "recognition"):
        raise ValueError(f"unknown chain {chain!r}")
    per_tick = {}
    for tick in (True, False):
        pc = chains.tick_pieces(gen, rec, ref, tick)
        if chain == "generative":
            mat = chains.transition_matrix(gen, tick)
        else:
            mat = chains.recognition_chain(spec, pc)
        per_tick[tick] = (mat, pc["ev"])
    mu = np.zeros(spec.n_states)
    mu[x0.flat(spec)] = 1.0
    vals = []
    for t in range(1, T_burn + T_eval + 1):
        mat, ev = per_tick[tick_at(t, spec)]
        if t > T_burn:
            vals.append(float(support_dot(mu, ev)))
        mu = mat.T @ mu
    return float(np.mean(vals))


def stationary_rate(step_mats, step_costs, max_iter=200_000):
    """Average expected edge cost under the stationary cycle of a periodic
    chain. `step_mats[p]` maps phase p to p+1; `step_costs[p]` is the
    expected one-step cost from each state at phase p."""
    period = len(step_mats)
    n = step_mats[0].shape[0]
    composed = step_mats[0]
    for p in range(1, period):
        composed = composed @ step_mats[p]
    mu = np.full(n, 1.0 / n)
    residual = float("inf")
    for _ in range(max_iter):
        nxt = composed.T @ mu
        nxt /= nxt.sum()
        residual = float(np.abs(nxt - mu).sum())
        mu = nxt
        if residual <= _STATIONARY_TOL:
            break
    else:
        raise ConvergenceError(
            f"stationary distribution did not converge in {max_iter} iterations "
            f"(L1 residual {residual:.3e})", residual=residual)
    total = 0.0
    for p in range(period):
        total += float(mu @ step_costs[p])
        mu = step_mats[p].T @ mu
    return total / period


# ---------------------------------------------------------------------------
# soft values and path integrals


@dataclass(frozen=True)
class SoftValue:
    """Backward-recursion differential surprise-to-go: one table per step
    (t = 1..T) plus the value rooted at x0."""

    tables: tuple
    rooted: float


def _value_mats(gen, rec, ref, T, mode):
    """Per-step log transitions and (N, N) edge costs for steps 1..T of a
    rollout density (chains.rollout_density). Callers subtract the rate, so
    the feedforward state costs stay a broadcast view."""
    check_horizon(T)

    def build(tick):
        mat, cost = chains.rollout_density(gen, rec, ref, tick, mode)
        return safe_log(mat), cost

    steps = chains.step_matrices(build, gen.spec, T)
    return [lm for lm, _ in steps], [c for _, c in steps]


def exact_soft_value(gen, rec, ref, x0, T, rate, mode="feedforward"):
    """Differential surprise-to-go by the backward soft recursion
    (terminal value 0), under the adopted sign convention:
    value(t) = h(t) - log E[exp(-value(t+1))]."""
    spec = gen.spec
    x0.validate(spec)
    logmats, costs = _value_mats(gen, rec, ref, T, mode)
    if mode == "feedforward":
        sc = costs[0][0] - rate  # state cost row, identical across predecessors
        v = sc.copy()
        tables = [None] * T
        tables[T - 1] = v
        for t in range(T - 1, 0, -1):
            soft = -logsumexp(logmats[t] - v[None, :], axis=1)
            v = sc + soft
            tables[t - 1] = v
        rooted = float(-logsumexp(logmats[0][x0.flat(spec)] - tables[0]))
        return SoftValue(tuple(tables), rooted)
    # feedback: value on the predecessor (edge costs)
    w = np.zeros(spec.n_states)
    tables = [None] * T
    for t in range(T, 0, -1):
        h = costs[t - 1] - rate
        w = -logsumexp(logmats[t - 1] - h - w[None, :], axis=1)
        tables[t - 1] = w
    return SoftValue(tuple(tables), float(w[x0.flat(spec)]))


def exact_path_integral_value(gen, rec, ref, x0, T, rate, mode="feedforward"):
    """-log E[exp(-sum_t h_t)] by exhaustive enumeration over every state
    path from x0, reduced in log-space."""
    spec = gen.spec
    x0.validate(spec)
    logmats, costs = _value_mats(gen, rec, ref, T, mode)
    weighted = [lm - (c - rate) for lm, c in zip(logmats, costs)]
    first = weighted[0][x0.flat(spec)]
    _check_paths(_support_bound(first, weighted[1:]))
    return float(-path_logsumexp(first, weighted[1:]))
