"""Solvers and estimators on the complete-state lattice.

Hard relative value iteration over the joint action tuple (a, a1, a2),
the closed-form reweighted transition density q*, its KL identity,
Monte Carlo path-integral estimation, the differential free energy, and
gradient training of the filtering recognition logits and policy logits.

The tick schedule makes the chain periodic in time, so all average-cost
machinery runs on the phase-product chain: a state at time t carries
phase t mod period, the transition out of phase 0 ticks, and value
tables hold one bias vector per phase. Steps and phases meet their tick
values in one schedule, chains.step_matrices: the Bellman pieces per
phase, the rollout densities and the free energy's chains per step. Every
exact differential free energy, each finite-difference candidate's and the
adjoint's occupations included, is one forward walk (oracle.walk).
"""

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import chains, oracle
from .errors import (ConvergenceError, DegenerateSupportError,
                     DegenerateWeightsError, NonFiniteObjectiveError)
from .logspace import NEG_INF, axis_sum, logsumexp, safe_log, support_dot, worst_error
from .model import (CompleteState, ConditionalTable, ModelSpec, REC_FACTORS, table_layout,
                    tick_at)

VALUE_FILE_VERSION = 1

# lazy-mixing weight of relative value iteration's aperiodicity transform
_TAU = 0.5

# burn-in and evaluation steps of train's rate estimate, and the iterations
# between its refreshes
_RATE_HORIZON = (32, 16)
_RATE_REFRESH = 10

# rollouts per gradient of train's score-function estimator
_SCORE_ROLLOUTS = 256

# steps per batch of greedy_rollout_rate's batch-means standard error
_ROLLOUT_BLOCK = 1000

# central-difference step of fd_gradients, and the magnitude below which
# gradient_relative_error compares absolute differences
_FD_STEP = 1e-5
_GRAD_ERR_FLOOR = 1e-4

# values per block of fd_gradients' stacked recognition candidates, counted
# in their beliefs (each candidate's belief, like its chain matrix, has N^2)
_FD_BLOCK_VALUES = 8192

# the generative tables train may move
POLICY_TABLES = ("pol0", "pol1", "pol2")


def check_path_integral_settings(T, n_rollouts, rate):
    """The settings of a Monte Carlo rollout estimate: a horizon of at least
    one step, at least two rollouts, and a finite rate (None stands for a
    rate still to be computed)."""
    oracle.check_horizon(T)
    if n_rollouts < 2:
        raise ValueError(f"n_rollouts must be >= 2, got {n_rollouts!r}")
    if rate is not None and not math.isfinite(rate):
        raise ValueError(f"the rate must be a finite number of nats per step, "
                         f"got {rate!r}")


def check_solve_settings(tol, max_iter):
    """The settings of relative value iteration: a finite sup-norm tolerance
    > 0 and at least one sweep."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"relative value iteration: tol must be a finite "
                         f"number > 0, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"relative value iteration: max_iter must be >= 1, "
                         f"got {max_iter!r}")


def check_train_settings(T, iters, lr, estimator, trainable_policies):
    """The settings of a training run: a horizon of at least one step, at
    least one iteration, a finite learning rate > 0, a known estimator, and
    trainable tables among the POLICY_TABLES."""
    oracle.check_horizon(T)
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters!r}")
    if estimator not in ("exact", "score"):
        raise ValueError(f"unknown estimator {estimator!r}")
    if not (math.isfinite(lr) and lr > 0.0):
        raise ValueError(f"lr must be a finite number > 0, got {lr!r}")
    for name in trainable_policies:
        if name not in POLICY_TABLES:
            raise ValueError(f"{name!r} is not a trainable policy table "
                             f"(choose from {', '.join(POLICY_TABLES)})")


# ---------------------------------------------------------------------------
# differential value


@dataclass(frozen=True)
class DifferentialValue:
    """Gain (average step objective) plus one bias table per phase, with the
    flat-index-0 state at phase 0 pinned to bias zero."""

    spec: object
    gain: float
    bias: np.ndarray              # (period, n_states)
    greedy: np.ndarray = None     # (period, n_states) flat action tuples

    @property
    def period(self):
        return self.bias.shape[0]

    def bias_at_time(self, t):
        """Bias table for states occupied at time t."""
        return self.bias[t % self.period]

    def save(self, path):
        doc = {
            "version": VALUE_FILE_VERSION,
            "spec": self.spec.to_dict(),
            "gain": self.gain,
            "bias": self.bias.tolist(),
            "anchor": CompleteState.from_flat(0, self.spec).astuple(),
        }
        if self.greedy is not None:
            doc["greedy"] = self.greedy.tolist()
        with open(path, "w") as fh:
            fh.write(json.dumps(doc))

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("version") != VALUE_FILE_VERSION:
            raise ValueError(f"unsupported value file version {doc.get('version')!r}")
        spec = ModelSpec.from_dict(doc["spec"])
        bias = np.array(doc["bias"], dtype=float)
        bias.setflags(write=False)
        greedy = None
        if "greedy" in doc:
            greedy = np.array(doc["greedy"], dtype=np.intp)
            greedy.setflags(write=False)
        return cls(spec=spec, gain=float(doc["gain"]), bias=bias, greedy=greedy)


# ---------------------------------------------------------------------------
# hard Bellman machinery


def action_tuples(spec):
    """Flat row-major enumeration of the joint action tuple (a, a1, a2)."""
    dims = (spec.card_a, spec.card_a1, spec.card_a2)
    return np.unravel_index(np.arange(math.prod(dims)), dims)


class _BellmanOps:
    """Per-phase pieces of the hard-min backup, `phases[p] = (base, cost,
    ecost)` out of phase p: nature's factors, edge costs, and per action
    tuple the expected edge cost; and per action tuple the successor
    indices."""

    def __init__(self, gen, rec, ref):
        spec = self.spec = gen.spec
        self.period = spec.tick_period_level2
        self.ua, self.ua1, self.ua2 = action_tuples(spec)
        self.n_u = self.ua.size
        self.lik_u = gen.lik.reshaped()[self.ua1]            # (u, s1', o)
        n = spec.n_states

        def build(tick):
            d2, d1 = chains.world_factors(gen, tick)
            base = np.einsum("xX,xXs->xXs", d2, d1)          # (N, s2', s1')
            cost = chains.tick_pieces(gen, rec, ref, tick)["cost"]
            # expected edge cost per action tuple, (u, N): it does not depend
            # on the value table, so backup and greedy_operators read it here
            ecost = np.empty((self.n_u, n))
            for u in range(self.n_u):
                # sum_world base * lik * cost[x, o', a_u]
                m1 = np.einsum("xXs,so->xo", base, self.lik_u[u])
                c_u = cost[:, :, self.ua[u]]
                with np.errstate(invalid="ignore"):
                    ecost[u] = np.where(m1 > 0.0, m1 * c_u, 0.0).sum(axis=1)
            return base, cost, ecost

        self.phases = chains.step_matrices(build, spec, self.period)
        # successor state per (u, o', s1', s2')
        oal = chains.Lattice.of(spec).state_of_oal.reshape(
            (spec.card_o, spec.card_a) + spec.latent_dims)
        self.succ = oal[:, self.ua, :, :, self.ua1, self.ua2]

    def backup(self, p, h_next):
        """The action values of one hard-min backup out of phase p, shape
        (u, N): E[cost + h_next(x')] per action tuple u and state x. The
        backup's values are their min over u, its greedy tuples the argmin."""
        base, _, ecost = self.phases[p]
        # expected successor value: sum_{o'} lik * h_next(x'), then one matmul
        # over the world factors (s2', s1') for all action tuples at once
        inner = np.einsum("uso,uosX->uXs", self.lik_u, h_next[self.succ])
        return ecost + inner.reshape(self.n_u, -1) @ base.reshape(len(base), -1).T

    def greedy_operators(self, greedy):
        """Transition matrices and expected edge costs of the greedy policy,
        one per phase."""
        n = self.spec.n_states
        mats, costs = [], []
        for p, (base, _, ecost) in enumerate(self.phases):
            mat = np.zeros((n, n))
            for u in np.unique(greedy[p]):
                rows = np.nonzero(greedy[p] == u)[0]
                w = np.einsum("xXs,so->xosX", base[rows], self.lik_u[u])  # (r, o, s1, s2)
                mat[rows[:, None], self.succ[u].reshape(1, -1)] = w.reshape(rows.size, -1)
            mats.append(mat)
            costs.append(ecost[greedy[p], np.arange(n)])
        return mats, costs


def relative_value_iteration(gen, rec, ref, tol=1e-9, max_iter=200_000):
    """Solve the hard-min differential Bellman equation on the phase-product
    chain. Runs relative value iteration from zero biases on the
    aperiodicity-transformed problem (lazy mixing _TAU), then verifies the
    original residual at the requested sup-norm tolerance. A state whose
    every action tuple has infinite expected cost at some phase has no
    finite bias, so it raises DegenerateSupportError before the first sweep."""
    check_solve_settings(tol, max_iter)
    ops = _BellmanOps(gen, rec, ref)
    spec = gen.spec
    n, period = spec.n_states, ops.period
    for p, (_, _, ecost) in enumerate(ops.phases):
        stuck = np.isposinf(ecost).all(axis=0)
        if stuck.any():
            raise DegenerateSupportError(
                f"relative value iteration: {int(stuck.sum())} states have "
                f"infinite expected cost under every action tuple at phase {p} "
                f"(first: {CompleteState.from_flat(int(np.argmax(stuck)), spec)})")
    h = np.zeros((period, n))
    inner_tol = max(tol * (1.0 - _TAU) * 0.1, 1e-15)
    last_resid = np.inf
    check_every = 10
    for it in range(1, max_iter + 1):
        new = np.array([ops.backup(p, (1.0 - _TAU) * h[(p + 1) % period]).min(axis=0)
                        for p in range(period)]) + _TAU * h
        new -= new[0, 0]
        delta = float(np.max(np.abs(new - h)))
        h = new
        if delta <= inner_tol or it % check_every == 0 or it == max_iter:
            bias = (1.0 - _TAU) * h
            bias = bias - bias[0, 0]
            values = np.array([ops.backup(p, bias[(p + 1) % period]) for p in range(period)])
            greedy = values.argmin(axis=1)
            orig = np.take_along_axis(values, greedy[:, None], axis=1)[:, 0]
            gain = float(orig[0, 0] - bias[0, 0])
            last_resid = float(np.max(np.abs(orig - gain - bias)))
            if last_resid <= tol:
                bias.setflags(write=False)
                greedy.setflags(write=False)
                return DifferentialValue(spec=spec, gain=gain, bias=bias, greedy=greedy)
            if delta <= inner_tol:
                inner_tol = max(inner_tol / 10.0, 1e-16)
    raise ConvergenceError(
        f"relative value iteration: residual {last_resid:.3e} > tol {tol:.3e} "
        f"after {max_iter} sweeps", residual=last_resid)


def _greedy_operators(gen, rec, ref, value):
    """The Bellman operators, and the greedy policy's transition matrices and
    expected edge costs per phase, of a converged DifferentialValue, whose
    greedy table is checked before any build."""
    if value.greedy is None:
        raise ValueError("DifferentialValue carries no greedy policy")
    ops = _BellmanOps(gen, rec, ref)
    return (ops, *ops.greedy_operators(np.asarray(value.greedy)))


def greedy_stationary_rate(gen, rec, ref, value):
    """Exact long-run average edge cost of the greedy policy extracted from a
    converged DifferentialValue."""
    _, mats, costs = _greedy_operators(gen, rec, ref, value)
    return oracle.stationary_rate(mats, costs)


def greedy_rollout_rate(gen, rec, ref, value, x0, steps, seed):
    """Seeded rollout of `steps` >= 1 steps under the greedy policy: mean
    edge cost and its standard error over batches of _ROLLOUT_BLOCK steps,
    NaN below two batches, which give no batch-means spread."""
    oracle.check_horizon(steps)
    ops, mats, _ = _greedy_operators(gen, rec, ref, value)
    period = ops.period
    path = _sample_paths([(mats[t % period], None) for t in range(steps)],
                         x0.flat(gen.spec), 1, np.random.default_rng(seed))[:, 0]
    vals = np.empty(steps)
    for p, (_, cost, _) in enumerate(ops.phases):
        cost_edge = chains.expand_edges(cost, gen.spec)
        vals[p::period] = cost_edge[path[p:-1:period], path[p + 1::period]]
    block = _ROLLOUT_BLOCK
    n_blocks = steps // block
    means = vals[:n_blocks * block].reshape(n_blocks, block).mean(axis=1)
    stderr = float(means.std(ddof=1) / np.sqrt(n_blocks)) if n_blocks > 1 else math.nan
    return float(vals.mean()), stderr


# ---------------------------------------------------------------------------
# optimal transition density and its KL identity


def _reweighted_row(gen, value, x, t):
    """log p(x_{t+1} | x_t = x), the next bias, the reweighted log row
    log p - bias and its log normalizer."""
    x.validate(gen.spec)
    logp = safe_log(chains.transition_row(gen, x, tick_at(t + 1, gen.spec)))
    bias_next = value.bias_at_time(t + 1)
    logw = logp - bias_next
    log_z = logsumexp(logw)
    if log_z == NEG_INF:
        raise DegenerateSupportError(
            f"transition row from {x} has no support after reweighting")
    return logp, bias_next, logw, log_z


def optimal_transition(gen, value, x, t=0):
    """q*(x_{t+1} | x_t): the model's transition row reweighted by
    exp(-bias(x_{t+1})), normalized. `t` is the time index of the
    conditioning state, so the row describes the transition into step
    t + 1 (t=0 is the episode context; its outgoing transition ticks)."""
    _, _, logw, log_z = _reweighted_row(gen, value, x, t)
    return np.exp(logw - log_z)


def kl_qstar_identity(gen, value, x, t=0):
    """Both sides of the feedback-vs-feedforward KL identity:
    lhs = KL(q* || p); rhs = -E_{q*}[bias'] - log E_p[exp(-bias')].
    `t` follows the optimal_transition convention."""
    logp, bias_next, logw, log_z = _reweighted_row(gen, value, x, t)
    q = np.exp(logw - log_z)
    mask = q > 0.0
    lhs = float(np.sum(q[mask] * (np.log(q[mask]) - logp[mask])))
    rhs = float(-(q @ bias_next) - log_z)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Monte Carlo path-integral value and the differential free energy


def _sample_paths(steps, x0, n_rollouts, rng):
    """Seeded state paths of n_rollouts rollouts from the flat state x0, one
    step per chain in `steps`, each a (rows, row_of) pair (its distinct
    transition rows and each state's row index, None for one row per
    state): a (len(steps) + 1, n_rollouts) array. Each step takes, per
    rollout, the first state whose CDF exceeds its uniform u, by
    sample_categorical's rule: one np.searchsorted(side="right") per
    occupied row, over the uniforms of the rollouts at a state of that row,
    on the row's CDF without its last entry, so a row that sums below 1
    clamps to the last state. A step whose rollouts all sit on one row
    skips the grouping. A row's CDF (np.cumsum, as sample_categorical takes
    it) is formed once, when a rollout first leaves one of its states. One
    rng.random call draws every step's uniforms, row t for step t: the
    stream of one call per step."""
    paths = np.empty((len(steps) + 1, n_rollouts), dtype=np.intp)
    paths[0] = x0
    cdfs = {}  # (id of a rows array, row) -> the row's CDF but its last entry
    for t, ((rows, row_of), u) in enumerate(zip(steps, rng.random((len(steps), n_rollouts)))):
        at = paths[t] if row_of is None else row_of[paths[t]]
        if n_rollouts == 1 or (at == at[0]).all():
            groups = [(int(at[0]), slice(None))]
        else:
            order = np.argsort(at)
            groups = [(int(at[idx[0]]), idx) for idx in
                      np.split(order, np.flatnonzero(np.diff(at[order])) + 1)]
        for r, idx in groups:
            if (cdf := cdfs.get((id(rows), r))) is None:
                cdf = cdfs[id(rows), r] = np.cumsum(rows[r])[:-1]
            paths[t + 1, idx] = cdf.searchsorted(u[idx], side="right")
    return paths


def _rollout_path_costs(gen, rec, ref, x0, T, rate, mode, n_rollouts, seed):
    """Seeded rollouts of the `mode` density (chains.rollout_density) from
    x0: their (T + 1, n_rollouts) state paths and (T, n_rollouts) step
    costs less the rate."""
    spec = gen.spec
    steps = chains.step_matrices(
        lambda tick: chains.rollout_density(gen, rec, ref, tick, mode), spec, T)
    paths = _sample_paths([(rows, row_of) for rows, row_of, _ in steps], x0.flat(spec),
                          n_rollouts, np.random.default_rng(seed))
    step_costs = np.empty((T, n_rollouts))
    for t, (_, _, cost) in enumerate(steps):
        step_costs[t] = cost[paths[t], paths[t + 1]] - rate
    return paths, step_costs


def mc_path_integral_value(gen, rec, ref, x0, T, rate, mode="feedforward",
                           n_rollouts=1000, seed=0):
    """-log mean(exp(-path cost)) over seeded rollouts, with a delta-method
    standard error on the log scale."""
    check_path_integral_settings(T, n_rollouts, rate)
    x0.validate(gen.spec)
    _, step_costs = _rollout_path_costs(gen, rec, ref, x0, T, rate, mode,
                                        n_rollouts, seed)
    neg = -step_costs.sum(axis=0)
    m = float(np.max(neg))
    if m == NEG_INF:
        raise DegenerateWeightsError("every rollout carries zero weight")
    w = np.exp(neg - m)
    mean_w = float(w.mean())
    estimate = -(m + np.log(mean_w))
    stderr = float(w.std(ddof=1) / (mean_w * np.sqrt(n_rollouts)))
    return float(estimate), stderr


def differential_free_energy(gen, rec, ref, x0, T, rate):
    """Jensen bound on the feedback path-integral value:
    E_{chain}[sum_t (step objective - rate)], exact by the forward walk
    (oracle.walk). The expectation runs over occupied states only: an
    unreachable state's infinite expected cost contributes nothing, a
    reachable one makes the value +inf."""
    spec = gen.spec
    mu = oracle.point_mass(spec, x0)
    pieces = _dfe_pieces(gen, rec, ref)
    vals, _ = oracle.walk(chains.step_matrices(
        lambda tick: (pieces[tick]["qc"], None, pieces[tick]["ev"]), spec, T), mu)
    return sum(v - rate for v in vals)


# ---------------------------------------------------------------------------
# trainable parameters and exact gradients


@dataclass
class TrainableParams:
    """Free logits: each recognition factor's filtering array, plus the
    selected policy tables."""

    q_logits: dict
    pol_logits: dict

    def step(self, grads, lr):
        return TrainableParams(
            {k: self.q_logits[k] - lr * grads.q_logits[k] for k in self.q_logits},
            {k: self.pol_logits[k] - lr * grads.pol_logits[k] for k in self.pol_logits})

    def norm(self):
        sq = sum(float(np.sum(np.square(v))) for v in self.q_logits.values())
        sq += sum(float(np.sum(np.square(v))) for v in self.pol_logits.values())
        return float(np.sqrt(sq))


def extract_params(gen, rec, trainable_policies=POLICY_TABLES):
    """Pull free logits out of existing models: the log tables, which the
    softmax reproduces exactly, of the recognition factors and of the
    policy tables in `trainable_policies` (check_train_settings checks them)."""
    q = {k: safe_log(rec.tables[k]) for k in REC_FACTORS}
    pol = {name: safe_log(getattr(gen, name).probs)
           for name in trainable_policies}
    return TrainableParams(q, pol)


def apply_params(gen, rec, params):
    """Rebuild (generative-with-policies, recognition) from logits: the
    recognition factors in params.q_logits become the softmax of their
    logits (RecognitionModel.with_logits); the others are `rec`'s own
    arrays, shared, not copied."""
    return _policy_model(gen, params.pol_logits), rec.with_logits(params.q_logits)


def _policy_model(gen, pol_logits):
    """The policy half of apply_params: `gen` with each table in
    `pol_logits` replaced by the softmax of its logits."""
    layout = table_layout(gen.spec)
    return replace(gen, **{
        name: ConditionalTable.from_logits(*layout[name], logits)
        for name, logits in pol_logits.items()})


def _safe_div(num, den):
    """num / den where den > 0, else 0, in one pass."""
    out = np.zeros(np.broadcast_shapes(np.shape(num), np.shape(den)))
    return np.divide(num, den, out=out, where=den > 0.0)


def _softmax_grad_rows(probs, g):
    # probs * (g - E_probs[g]), with g centred on its row mean first: the
    # upstream gradients carry a large offset common to a row (cost-to-go),
    # and subtracting the mean once would leave an error of eps * |g| in an
    # entry that may be far smaller than |g|; the second mean removes what
    # the rounding of the first left behind
    live = probs > 0.0
    g = np.where(live, g, 0.0)
    gp = g * probs
    g -= axis_sum(gp, -1)[..., None]
    g[~live] = 0.0
    g -= axis_sum(np.multiply(g, probs, out=gp), -1)[..., None]
    g *= probs
    return g


def _weighted_upstream(q, prior, a_lat, b):
    """rq = g_q * q over (N, O, A, L), built in place, for the upstream
    gradient g_q = G_q + dC (a_lat + log q - log prior) of the belief q. Its
    second term comes from the cost C = sum_l q (a_lat + log q - log prior),
    less a term dC, constant over each factor's row, that the softmax
    gradient removes; it runs unmasked and is zeroed once where q = 0 (the
    softmax boundary, where the one-sided derivative is taken as 0) and
    where dC = 0 (an unoccupied context contributes nothing)."""
    log_prior = np.where(prior > 0.0, safe_log(prior), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rq = np.log(q)
        rq += a_lat.T[None, :, None, :]
        rq -= log_prior[:, None, None, :]
        rq *= b["dC"][..., None]
    rq[~(q > 0.0)] = 0.0
    rq[~(b["dC"] > 0.0)] = 0.0
    rq += b["G_q"]
    rq *= q
    return rq


class _GradAccumulator:
    """Per-tick buckets of upstream gradients (G_m, G_q, dC), turned into
    logit gradients once at the end."""

    def __init__(self, gen, rec, ref, trained_pols):
        self.gen, self.rec, self.ref = gen, rec, ref
        self.trained_pols = tuple(trained_pols)
        spec = gen.spec
        shape_noa = (spec.n_states, spec.card_o, spec.card_a)
        self.buckets = {
            tick: {"G_m": np.zeros(shape_noa),
                   "G_q": np.zeros(shape_noa + (spec.n_latents,)),
                   "dC": np.zeros(shape_noa)}
            for tick in (True, False)
        }

    def add_occupation(self, tick, pc, occ, k, rate):
        """Add the exact adjoint's terms of one tick value, from its two
        occupation sums: occ = M = sum_t mu_t, shape (N,), and k = K =
        sum_t mu_t (x) lam_{t+1} gathered at the successor of each (o, a, L),
        shape (N, O, A, L), which this overwrites with dqc4, the upstream
        gradient of the chain entries, and then with its G_q term."""
        b = self.buckets[tick]
        marg, belief = pc["marg"], pc["belief"]
        # zero-probability edges may carry infinite cost; they contribute
        # nothing and their logits sit at the softmax boundary, so zero
        # them, and unoccupied predecessors too
        with np.errstate(invalid="ignore"):
            k += occ[:, None, None, None] * (pc["cost"] - rate)[..., None]
        k[~(marg[..., None] * belief > 0.0)] = 0.0
        k[~(occ > 0.0)] = 0.0
        b["G_m"] += np.einsum("xoal,xoal->xoa", k, belief, optimize=True)
        k *= marg[..., None]
        b["G_q"] += k
        b["dC"] += occ[:, None, None] * marg

    def finalize(self, pieces):
        gen, rec, ref = self.gen, self.rec, self.ref
        spec = gen.spec
        s1c, s2c, a1c, a2c = spec.latent_dims
        n, c_o, c_a = spec.n_states, spec.card_o, spec.card_a
        lik_lat = chains.lik_over_latents(gen)
        pol0_lat = chains.pol0_over_latents(gen)
        a_lat = chains.reference_over_latents(ref) + chains.neg_log_lik_over_latents(gen)
        tables = rec.tables
        # per factor, the sum over its row's latent completions of g_q * q,
        # in the factor's layout; each factor's gradient is this over its table
        r_tables = {k: np.zeros(v.shape) for k, v in tables.items()}
        g_pol_tables = {k: np.zeros_like(getattr(gen, k).probs)
                        for k in self.trained_pols}

        for tick in (True, False):
            b = self.buckets[tick]
            if not (b["G_m"].any() or b["G_q"].any() or b["dC"].any()):
                continue
            prior, q = pieces[tick]["prior"], pieces[tick]["belief"]
            rq = _weighted_upstream(q, prior, a_lat, b)
            g_prior = (np.einsum("xoa,lo,loa->xl", b["G_m"], lik_lat, pol0_lat,
                                 optimize=True)
                       - _safe_div(np.einsum("xoa,xoal->xl", b["dC"], q, optimize=True),
                                   prior))
            # recognition factors via the product-ratio trick, each factor's
            # sum taken from the one before it where it can be
            rq = rq.reshape(n, c_o, c_a, s1c, s2c, a1c, a2c)
            r_tables["a1"] += axis_sum(rq, 4).transpose(0, 1, 2, 3, 5, 4)
            r_s1 = axis_sum(rq, 5)                           # (.., s1, s2, a2)
            del rq  # not kept alive beside the next tick's
            r_tables["s1"] += r_s1.transpose(0, 1, 2, 4, 5, 3)
            r_a2 = axis_sum(r_s1, 3)                         # (.., s2, a2)
            r_tables["a2"] += r_a2
            if tick:
                r_tables["s2"] += axis_sum(r_a2, 4)
            # policy factors
            if "pol0" in g_pol_tables:
                g0 = np.einsum("xoa,xl,lo->loa", b["G_m"], prior, lik_lat,
                               optimize=True)
                g0 = g0.reshape(s1c, s2c, a1c, a2c, c_o, c_a).sum(axis=(0, 1, 3))
                g_pol_tables["pol0"] += g0.transpose(1, 0, 2).reshape(-1, c_a)
            r5 = (g_prior * prior).reshape(n, s1c, s2c, a1c, a2c)
            if "pol2" in g_pol_tables:
                g2 = _safe_div(r5.sum(axis=(0, 1, 3)), gen.pol2.reshaped())
                g_pol_tables["pol2"] += g2.reshape(-1, a2c)
            if "pol1" in g_pol_tables:
                g1 = _safe_div(r5.sum(axis=(0, 2)).transpose(0, 2, 1),
                               gen.pol1.reshaped())
                g_pol_tables["pol1"] += g1.reshape(-1, a1c)

        q_grads = {k: _softmax_grad_rows(tables[k], _safe_div(r_tables[k], tables[k]))
                   for k in REC_FACTORS}
        pol_grads = {k: _softmax_grad_rows(getattr(gen, k).probs, g_pol_tables[k])
                     for k in self.trained_pols}
        return TrainableParams(q_grads, pol_grads)


def _dfe_pieces(gen, rec, ref):
    """chains.recognition_pieces per tick value."""
    return {tick: chains.recognition_pieces(gen, rec, ref, tick) for tick in (True, False)}


def dfe_value_and_grad(gen, rec, ref, x0, T, rate, trainable_policies=POLICY_TABLES):
    """Exact differential free energy and its gradient w.r.t. all trained
    logits, by the forward walk (oracle.walk) plus the adjoint recursion.

    The backward pass is in occupation form: step t adds to its tick's
    buckets terms linear in the occupation mu_t and in mu_t (x) lam_{t+1}
    (lam_{t+1} the cost-to-go of the states at t + 1), so per tick value
    two sums carry every step, M = sum_t mu_t and K = sum_t mu_t (x)
    lam_{t+1}, and the (N, O, A, L) terms are built once per tick
    value. Sums run over positive occupation only (support_dot)."""
    oracle.check_horizon(T)
    spec = gen.spec
    n = spec.n_states
    lat = chains.Lattice.of(spec)
    pieces = _dfe_pieces(gen, rec, ref)
    ticks = chains.step_matrices(lambda tick: tick, spec, T)
    vals, mus = oracle.walk([(pieces[tick]["qc"], None, pieces[tick]["ev"])
                             for tick in ticks], oracle.point_mass(spec, x0))
    value = sum(v - rate for v in vals)
    mus = np.array(mus)                                      # mu_t, t = 0..T-1
    lams = np.zeros((T, n))                                  # lam_{t+1}, t = 0..T-1
    for t in range(T - 1, 0, -1):
        pc = pieces[ticks[t]]
        lams[t - 1] = pc["ev"] - rate + support_dot(pc["qc"], lams[t])
    acc = _GradAccumulator(gen, rec, ref, trainable_policies)
    for tick in (True, False):
        steps = [t for t in range(T) if ticks[t] == tick]
        if steps:
            # K at the successor of each (o, a, L): one (N, T_tick) @ (T_tick, N)
            acc.add_occupation(
                tick, pieces[tick], mus[steps].sum(axis=0),
                support_dot(mus[steps].T, lams[steps][:, lat.state_of_oal.ravel()]).reshape(
                    (n,) + lat.state_of_oal.shape), rate)
    grads = acc.finalize(pieces)
    return value, grads


def score_function_grad(gen, rec, ref, x0, T, rate, n_rollouts, seed,
                        trainable_policies=POLICY_TABLES):
    """Monte Carlo gradient of the differential free energy: score-function
    term with cost-to-go (advantage) weights plus the direct cost term."""
    spec = gen.spec
    lat = chains.Lattice.of(spec)
    pieces = _dfe_pieces(gen, rec, ref)
    path, step_costs = _rollout_path_costs(gen, rec, ref, x0, T, rate, "feedback",
                                           n_rollouts, seed)
    togo = np.cumsum(step_costs[::-1], axis=0)[::-1]
    value = float(step_costs.sum(axis=0).mean())
    acc = _GradAccumulator(gen, rec, ref, trainable_policies)
    for t, tick in enumerate(chains.step_matrices(lambda tick: tick, spec, T)):
        pc, bucket = pieces[tick], acc.buckets[tick]
        xs, nxt = path[t], path[t + 1]
        oo, aa, ll = lat.o[nxt], lat.a[nxt], lat.lat_of_state[nxt]
        w = togo[t] / n_rollouts
        np.add.at(bucket["G_m"], (xs, oo, aa),
                  w / pc["marg"][xs, oo, aa])
        np.add.at(bucket["G_q"], (xs, oo, aa, ll),
                  w / pc["belief"][xs, oo, aa, ll])
        np.add.at(bucket["dC"], (xs, oo, aa), 1.0 / n_rollouts)
    grads = acc.finalize(pieces)
    return value, grads


def fd_gradients(gen, rec, ref, params, x0, T, rate):
    """Central finite differences (step _FD_STEP) of the exact differential
    free energy over every logit in `params` (the independent check on the
    adjoint gradients), each bit for bit what rebuilding both models with
    apply_params for every evaluation gives.

    Recognition logits: the two candidates of each logit of a factor (+ and
    - _FD_STEP) are stacked along a leading axis (RecognitionModel.with_logits)
    on the unperturbed models, whose generative half is built once. The
    stack is built block by block, _FD_BLOCK_VALUES belief values at a
    time, so memory does not grow with the logit count: per block the
    factor's softmax and each tick's chains.recognition_pieces (belief,
    edge cost, ev, Qc) are built once over the stack; a piece the factor
    does not enter (a non-tick belief reads no s2 factor) has no candidate
    axis, is the unperturbed model's bit for bit and is broadcast. Each
    candidate still gets its own forward walk (oracle.walk). Policy logits:
    each evaluation rebuilds one policy table and runs
    differential_free_energy on the unperturbed recognition model."""
    spec = gen.spec
    n = chains.Lattice.of(spec).n_states  # the ceiling, before any stack
    mu = oracle.point_mass(spec, x0)
    base_gen, base_rec = apply_params(gen, rec, params)
    ticks = chains.step_matrices(lambda tick: tick, spec, T)
    block = max(1, _FD_BLOCK_VALUES // n ** 2)
    q_grads = {}
    for key, logits in params.q_logits.items():
        flat = logits.reshape(-1)
        values = np.empty(2 * flat.size)        # candidate 2i is +, 2i + 1 is -
        for first in range(0, values.size, block):
            cands = np.arange(first, min(first + block, values.size))
            stack = np.repeat(flat[None], cands.size, axis=0)
            stack[np.arange(cands.size), cands // 2] += np.where(cands % 2, -_FD_STEP,
                                                                 _FD_STEP)
            stacked = base_rec.with_logits({key: stack.reshape((cands.size,) + logits.shape)})
            pieces = {tick: chains.recognition_pieces(base_gen, stacked, ref, tick)
                      for tick in set(ticks)}
            evs = [np.broadcast_to(pieces[tick]["ev"], (cands.size, n)) for tick in ticks]
            qcs = [np.broadcast_to(pieces[tick]["qc"], (cands.size, n, n)) for tick in ticks]
            for j in range(cands.size):
                vals, _ = oracle.walk([(qc[j], None, ev[j]) for ev, qc in zip(evs, qcs)], mu)
                values[first + j] = sum(v - rate for v in vals)
            del stacked, pieces, evs, qcs  # not kept alive beside the next block's
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, as for floats
            q_grads[key] = ((values[0::2] - values[1::2])
                            / (2.0 * _FD_STEP)).reshape(logits.shape)

    pol_grads = {k: np.zeros_like(v) for k, v in params.pol_logits.items()}
    for key, logits in params.pol_logits.items():
        flat, grad = logits.reshape(-1), pol_grads[key].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + _FD_STEP
            hi = differential_free_energy(_policy_model(base_gen, {key: logits}),
                                          base_rec, ref, x0, T, rate)
            flat[i] = orig - _FD_STEP
            lo = differential_free_energy(_policy_model(base_gen, {key: logits}),
                                          base_rec, ref, x0, T, rate)
            flat[i] = orig
            grad[i] = (hi - lo) / (2.0 * _FD_STEP)
    return TrainableParams(q_grads, pol_grads)


def gradient_relative_error(grads, fd):
    """Max over logits of |g - fd| / max(|g|, |fd|, _GRAD_ERR_FLOOR); NaN if
    any of them is NaN."""
    worst = 0.0
    for group, ref_group in ((grads.q_logits, fd.q_logits),
                             (grads.pol_logits, fd.pol_logits)):
        for key in group:
            g, f = group[key], ref_group[key]
            rel = np.abs(g - f) / np.maximum(np.maximum(np.abs(g), np.abs(f)), _GRAD_ERR_FLOOR)
            worst = worst_error(worst, rel.max(initial=0.0))
    return worst


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainReport:
    """Per iteration: the objective and gradient norm at the iterate, the
    rate that gradient used, and the step size accepted after halving."""

    iterations: int
    objective_trace: list
    grad_norm_trace: list
    step_size_trace: list
    rate_trace: list
    final_rate: float

    def to_dict(self):
        return asdict(self)


def train(gen, rec, ref, x0, T, iters, lr=0.05, seed=0, estimator="exact",
          trainable_policies=POLICY_TABLES):
    """Gradient descent on the differential free energy over the free logits.

    The rate input, the recognition chain's average rate, is re-estimated
    every _RATE_REFRESH iterations (block-coordinate; the rate shifts the
    objective but not its gradient). Under the exact estimator a step that
    increases the objective is retried at half the learning rate. The score
    estimator draws _SCORE_ROLLOUTS rollouts per gradient and takes every
    step at the full learning rate.

    Each parameter set's per-tick pieces, with the whole belief and the
    chain matrix (chains.recognition_pieces), are built once and kept on
    its models, so its rate, halving check and gradient share one build.
    The outgoing iterate, or a rejected candidate, is released before the
    next candidate is built, so at most one parameter set's pieces are alive.
    """
    check_train_settings(T, iters, lr, estimator, trainable_policies)
    params = extract_params(gen, rec, trainable_policies)
    cur_gen, cur_rec = apply_params(gen, rec, params)
    rate = oracle.exact_average_rate(cur_gen, cur_rec, ref, x0, *_RATE_HORIZON,
                                     chain="recognition")
    obj_trace, gnorm_trace, step_trace, rate_trace = [], [], [], []
    step_lr = lr
    mc_seed = np.random.default_rng(seed)
    for it in range(iters):
        # an infinite cost or rate gives NaN terms; the checks below raise on them
        with np.errstate(invalid="ignore"):
            if estimator == "exact":
                value, grads = dfe_value_and_grad(cur_gen, cur_rec, ref, x0, T, rate,
                                                  trainable_policies)
            else:
                value, grads = score_function_grad(
                    cur_gen, cur_rec, ref, x0, T, rate,
                    _SCORE_ROLLOUTS, mc_seed.integers(2 ** 63), trainable_policies)
        del cur_gen, cur_rec
        rate_trace.append(rate)
        if not np.isfinite(value):
            raise NonFiniteObjectiveError(
                f"objective became non-finite at iteration {it}", iteration=it)
        gnorm = grads.norm()
        if not np.isfinite(gnorm):
            raise NonFiniteObjectiveError(
                f"gradient became non-finite at iteration {it}", iteration=it)
        obj_trace.append(value)
        gnorm_trace.append(gnorm)
        while True:
            cand = params.step(grads, step_lr)
            cur_gen, cur_rec = apply_params(gen, rec, cand)
            if estimator != "exact":
                break
            cand_value = differential_free_energy(cur_gen, cur_rec, ref, x0,
                                                  T, rate)
            if cand_value <= value or step_lr < 1e-12:
                break
            del cur_gen, cur_rec
            step_lr *= 0.5
        step_trace.append(step_lr)
        params = cand
        if (it + 1) % _RATE_REFRESH == 0:
            rate = oracle.exact_average_rate(cur_gen, cur_rec, ref, x0, *_RATE_HORIZON,
                                             chain="recognition")
    report = TrainReport(iterations=len(obj_trace), objective_trace=obj_trace,
                         grad_norm_trace=gnorm_trace, step_size_trace=step_trace,
                         rate_trace=rate_trace, final_rate=rate)
    return report, cur_gen, cur_rec
