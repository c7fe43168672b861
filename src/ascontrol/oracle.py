"""Brute-force ground truth on desk-scale instances.

Every routine here either enumerates explicitly (trajectory streams,
posterior tables, path-integral reductions over each state path) or
propagates exact distributions forward/backward. Nothing is sampled and
nothing is approximated beyond float arithmetic; the ceilings (complete
states in chains.Lattice.of, trajectories in _check_paths) abort loudly
rather than truncate.

Every forward propagation of the package is `walk`: the windowed rate
(the mean over the steps after burn-in), the stationary rate (the mean
over one cycle from the stationary law) and the differential free energy
(control, the sum less the rate) are each one walk, from different
starting laws over different windows.

The soft value -log E[exp(-sum_t (c_t - rate))] has one set of path
log-weights, `_weighted_paths`, and two reductions of them: the backward
soft recursion (`exact_soft_value`) and the enumeration of every path
(`exact_path_integral_value`), each the other's cross-check.
"""

from dataclasses import dataclass

import numpy as np

from . import chains
from ._kernels import path_logsumexp
from .errors import (DimensionMismatchError, EnumerationBudgetError,
                     ImpossibleObservationError, NonUniqueStationaryError)
from .logspace import NEG_INF, logsumexp, safe_log, support_dot
from .model import CompleteState, Trajectory


# the trajectory ceiling of exhaustive enumerations
MAX_TRAJECTORIES = 10_000_000


def _check_paths(bound):
    if bound > MAX_TRAJECTORIES:
        raise EnumerationBudgetError(
            f"enumeration needs up to {bound} trajectories, budget is {MAX_TRAJECTORIES}",
            required=bound, allowed=MAX_TRAJECTORIES)


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
        logw = logw[..., :, None] + mat
    logw = logw.reshape(-1)
    log_z = logsumexp(logw)
    if log_z == NEG_INF:
        raise ImpossibleObservationError(
            f"observations {list(obs)} have zero marginal probability")
    probs = np.exp(logw - log_z)
    keep = np.flatnonzero(probs > 0.0)
    paths = np.stack(np.unravel_index(keep, (m,) * T), axis=1)
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


def point_mass(spec, x):
    """The occupation of the one state x, shape (N,)."""
    x.validate(spec)
    mu = np.zeros(spec.n_states)
    mu[x.flat(spec)] = 1.0
    return mu


def walk(steps, mu):
    """The one forward propagation. Over `steps`, one (rows, row_of, ev)
    triple per step (a chain's distinct rows, each state's row, None for a
    row per state, and the expected cost per state), from the occupation
    mu: each step's expected cost E_{mu_t}[ev_t] over occupied states only
    (support_dot), so an unoccupied state's infinite cost adds nothing, and
    the occupations mu_t it walked, with mu_{t+1} = rows_t^T applied to
    mu_t summed per row."""
    vals, mus = [], []
    for rows, row_of, ev in steps:
        mus.append(mu)
        vals.append(float(support_dot(mu, ev)))
        mu = rows.T @ (mu if row_of is None else np.bincount(row_of, mu, minlength=len(rows)))
    return vals, mus


def exact_average_rate(gen, rec, ref, x0, T_burn, T_eval, chain="generative"):
    """Expected global surprise rate from x0: walk the exact state
    distribution T_burn + T_eval steps and average the expected step
    objective over the last T_eval steps."""
    spec = gen.spec
    mu = point_mass(spec, x0)
    if T_burn < 0:
        raise ValueError("T_burn must be >= 0")
    if T_eval < 1:
        raise ValueError("T_eval must be >= 1")
    if chain not in ("generative", "recognition"):
        raise ValueError(f"unknown chain {chain!r}")

    def build(tick):
        if chain == "recognition":
            pc = chains.recognition_pieces(gen, rec, ref, tick)
            return pc["qc"], None, pc["ev"]
        return (chains.transition_rows(gen, tick), chains.Lattice.of(spec).sa_class,
                chains.tick_pieces(gen, rec, ref, tick)["ev"])

    vals, _ = walk(chains.step_matrices(build, spec, T_burn + T_eval), mu)
    return float(np.mean(vals[T_burn:]))


def stationary_rate(step_mats, step_costs):
    """Average expected edge cost under the stationary cycle of a periodic
    chain. `step_mats[p]` maps phase p to p+1; `step_costs[p]` is the
    expected one-step cost from each state at phase p. The stationary law
    mu of the composed chain C solves mu (C - I) = 0 with sum(mu) = 1, in one
    dense least-squares solve, so periodic chains need no mixing; a
    rank-deficient system (more than one recurrent class) has no unique mu
    and raises NonUniqueStationaryError. The law is then zeroed off the
    recurrent class, found by structure alone: the states reachable on
    C > 0 from its heaviest state. The cycle is walked from that law over
    occupied states only, so a transient state's infinite cost counts
    nowhere."""
    period = len(step_mats)
    n = step_mats[0].shape[0]
    composed = step_mats[0]
    for p in range(1, period):
        composed = composed @ step_mats[p]
    system = np.vstack([composed.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    mu, _, rank, _ = np.linalg.lstsq(system, rhs, rcond=None)
    if rank < n:
        raise NonUniqueStationaryError(
            f"the chain has more than one recurrent class: its stationary "
            f"system has rank {rank} < {n} states")
    recurrent = np.zeros(n, dtype=bool)
    frontier = [int(np.argmax(mu))]
    recurrent[frontier] = True
    while len(frontier):
        new = np.any(composed[frontier] > 0.0, axis=0) & ~recurrent
        recurrent |= new
        frontier = np.flatnonzero(new)
    vals, _ = walk([(mat, None, cost) for mat, cost in zip(step_mats, step_costs)],
                   np.where(recurrent, mu, 0.0))
    return sum(vals) / period


# ---------------------------------------------------------------------------
# soft values and path integrals


def _weighted_paths(gen, rec, ref, x0, T, rate, mode):
    """The path log-weights of a rollout density (chains.rollout_density):
    log P(x, x') - (cost(x, x') - rate) per step, as the first step's row out
    of x0 and each later step's (N, N) matrix, log P indexed from the
    chain's log rows by each state's row. A path's weight is the sum of its
    steps', so exp(-value) is the sum of exp(weight) over every path."""
    x0.validate(gen.spec)
    check_horizon(T)

    def build(tick):
        rows, row_of, cost = chains.rollout_density(gen, rec, ref, tick, mode)
        logp = safe_log(rows)
        return (logp if row_of is None else logp[row_of]) - (cost - rate)

    first, *rest = chains.step_matrices(build, gen.spec, T)
    return first[x0.flat(gen.spec)], rest


def exact_soft_value(gen, rec, ref, x0, T, rate, mode="feedforward"):
    """Differential surprise-to-go -log E[exp(-sum_t (c_t - rate))] by the
    backward soft recursion over the path log-weights (terminal value 0):
    the dynamic-programming reduction of the sum the path integral
    enumerates."""
    first, rest = _weighted_paths(gen, rec, ref, x0, T, rate, mode)
    togo = np.zeros(len(first))
    for mat in reversed(rest):
        togo = logsumexp(mat + togo, axis=1)
    return float(-logsumexp(first + togo))


def exact_path_integral_value(gen, rec, ref, x0, T, rate, mode="feedforward"):
    """-log E[exp(-sum_t (c_t - rate))] by exhaustive enumeration over every
    state path from x0, reduced in log-space."""
    first, rest = _weighted_paths(gen, rec, ref, x0, T, rate, mode)
    _check_paths(_support_bound(first, rest))
    return float(-path_logsumexp(first, rest))
