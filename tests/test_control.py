import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascontrol import chains, control, oracle, sim
from ascontrol.errors import (ConvergenceError, DegenerateSupportError,
                              DimensionMismatchError)
from ascontrol.instances import (hard_zero_instance, random_instance, random_state,
                                 random_value)
from ascontrol.logspace import gap, worst_error
from ascontrol.model import (REC_FACTORS, CompleteState, ConditionalTable,
                             RecognitionContext, RecognitionModel, ReferenceModel,
                             sample_categorical, softmax_rows)
from ascontrol.validate import gradient_error, jensen_violation, run_validation
from conftest import bits, two_cycle_instance, uniform_instance

X0 = CompleteState(0, 0, 0, 0, 0, 0)
LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# relative value iteration


def test_rvi_constant_cost():
    gen, rec, ref = uniform_instance()
    v = control.relative_value_iteration(gen, rec, ref, tol=1e-10)
    assert v.gain == pytest.approx(3 * LOG2, abs=1e-9)
    assert np.abs(v.bias).max() < 1e-8
    assert v.bias[0, 0] == 0.0


def test_rvi_two_cycle_forced_alternation():
    gen, rec, ref = two_cycle_instance(cost_hi=1.0)
    v = control.relative_value_iteration(gen, rec, ref, tol=1e-10)
    e = math.exp(-1.0)
    expect = 0.5 * (1.0 - math.log(1 - e)) + LOG2
    assert v.gain == pytest.approx(expect, abs=1e-9)


def test_rvi_gain_matches_greedy_stationary_rate():
    gen, rec, ref = random_instance(60)
    v = control.relative_value_iteration(gen, rec, ref, tol=1e-9)
    stat = control.greedy_stationary_rate(gen, rec, ref, v)
    assert v.gain == pytest.approx(stat, abs=1e-6)


def test_greedy_stationary_rate_of_a_periodic_greedy_chain():
    # the greedy chain is a 2-cycle between states 2 and 9: power iteration
    # from the uniform law never settled on it
    gen, rec, ref = random_instance(57, cards=(1, 1, 1, 2, 2, 3), tick_period=1)
    v = control.relative_value_iteration(gen, rec, ref, tol=1e-10)
    assert control.greedy_stationary_rate(gen, rec, ref, v) == pytest.approx(v.gain, abs=1e-9)


def test_rvi_residual_bound():
    gen, rec, ref = random_instance(62)
    tol = 1e-9
    v = control.relative_value_iteration(gen, rec, ref, tol=tol)
    ops = control._BellmanOps(gen, rec, ref)
    worst = 0.0
    for p in range(v.period):
        vals = ops.backup(p, v.bias[(p + 1) % v.period]).min(axis=0)
        worst = max(worst, float(np.abs(vals - v.gain - v.bias[p]).max()))
    assert worst <= tol


def test_rvi_nonconvergence_error_carries_residual():
    # the residual is verified on the last sweep too, so a budget below the
    # periodic check still reports a finite residual
    gen, rec, ref = random_instance(63)
    for max_iter in (3, 9, 11):
        with pytest.raises(ConvergenceError) as exc:
            control.relative_value_iteration(gen, rec, ref, tol=1e-14,
                                             max_iter=max_iter)
        assert math.isfinite(exc.value.residual)
        assert "inf" not in str(exc.value)
        assert f"after {max_iter} sweeps" in str(exc.value)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_rvi_refuses_states_of_infinite_cost_under_every_action(monkeypatch):
    # on this hard-zero instance 4 of 8 states have infinite expected cost
    # under every action tuple at the tick phase: no finite bias exists, and
    # relative value iteration must say so before its first sweep
    gen, rec, ref = hard_zero_instance(2, (2, 1, 2, 2, 1, 1), 2)

    def unreachable(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(control._BellmanOps, "backup", unreachable)
    with pytest.raises(DegenerateSupportError, match="4 states .* phase 0"):
        control.relative_value_iteration(gen, rec, ref)


@pytest.mark.parametrize("kw", [{"tol": 0.0}, {"tol": -1e-9}, {"tol": math.nan},
                                {"tol": math.inf}, {"max_iter": 0}],
                         ids=["tol-0", "tol-negative", "tol-nan", "tol-inf",
                              "max_iter-0"])
def test_rvi_rejects_bad_settings_before_building_operators(monkeypatch, kw):
    gen, rec, ref = uniform_instance()

    def no_ops(*args, **kwargs):
        raise AssertionError("Bellman operators built for a bad setting")

    monkeypatch.setattr(control, "_BellmanOps", no_ops)
    with pytest.raises(ValueError, match=next(iter(kw))):
        control.relative_value_iteration(gen, rec, ref, **kw)


@pytest.mark.parametrize("lr", [0.0, -1.0, math.inf, math.nan],
                         ids=["lr-0", "lr-negative", "lr-inf", "lr-nan"])
def test_train_rejects_a_bad_learning_rate_before_any_work(monkeypatch, lr):
    # lr 0 or below used to train with step size 0 (or halve below 1e-12),
    # and inf or nan to fail later with "softmax row with no finite logit"
    gen, rec, ref = uniform_instance()

    def no_work(*args, **kwargs):
        raise AssertionError("parameters extracted for a bad learning rate")

    monkeypatch.setattr(control, "extract_params", no_work)
    with pytest.raises(ValueError, match="lr must be a finite number > 0"):
        control.train(gen, rec, ref, X0, 2, 1, lr=lr)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), phase=st.integers(0, 5),
       h_seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1e-3, 1.0, 50.0]),
       cards=st.tuples(*[st.integers(1, 2)] * 5 + [st.integers(1, 3)]),
       tick_period=st.integers(1, 3), floor=st.booleans())
def test_backup_matches_constant_policy_operators(seed, phase, h_seed, scale,
                                                  cards, tick_period, floor):
    # two routes to one backup: the vectorized hard min over action tuples,
    # and min over u of each constant policy's (cost + matrix @ h)
    gen, rec, ref = random_instance(seed, cards=cards, tick_period=tick_period,
                                    floor=floor)
    ops = control._BellmanOps(gen, rec, ref)
    n, p = gen.spec.n_states, phase % ops.period
    h = np.random.default_rng(h_seed).standard_normal(n) * scale
    values = ops.backup(p, h)
    vals, argmin = values.min(axis=0), values.argmin(axis=0)
    per_u = np.empty((ops.n_u, n))
    for u in range(ops.n_u):
        mats, costs = ops.greedy_operators(np.full((ops.period, n), u))
        per_u[u] = costs[p] + mats[p] @ h
    want = per_u.min(axis=0)
    tol = 1e-12 * np.maximum(1.0, np.abs(want))
    assert np.all(np.abs(vals - want) <= tol)
    assert np.all(np.abs(per_u[argmin, np.arange(n)] - want) <= tol)


def loop_successors(spec):
    """The Bellman backup's successor table as it was built before the
    lattice's successor map: one raveling per action tuple, (u, o', s1', s2')."""
    ua, ua1, ua2 = control.action_tuples(spec)
    og, s1g, s2g = np.meshgrid(np.arange(spec.card_o), np.arange(spec.card_s1),
                               np.arange(spec.card_s2), indexing="ij")
    succ = np.empty((ua.size,) + og.shape, dtype=np.intp)
    for u in range(ua.size):
        succ[u] = np.ravel_multi_index(
            (og, s1g, s2g, np.full_like(og, ua[u]), np.full_like(og, ua1[u]),
             np.full_like(og, ua2[u])), spec.dims)
    return succ


def thermostat_instance():
    env, ref = sim.thermostat_env(3, [0, 2])                   # 864 states
    return (*sim.thermostat_agent(env, [0, 2], 0), ref)


@pytest.mark.parametrize("build", [
    lambda: random_instance(5, cards=(2, 3, 2, 2, 3, 2), tick_period=3),
    lambda: random_instance(6, cards=(3, 1, 2, 2, 1, 3)),
    thermostat_instance], ids=["random", "unit-cards", "thermostat"])
def test_backup_successors_are_the_lattice_map(build):
    gen, rec, ref = build()
    succ = control._BellmanOps(gen, rec, ref).succ
    want = loop_successors(gen.spec)
    assert succ.dtype == want.dtype and np.array_equal(succ, want)


def test_rvi_rollout_within_three_stderr():
    gen, rec, ref = random_instance(64)
    v = control.relative_value_iteration(gen, rec, ref, tol=1e-9)
    mean, se = control.greedy_rollout_rate(gen, rec, ref, v, X0, 100_000, seed=2)
    assert abs(mean - v.gain) <= 3 * se


def test_greedy_rates_check_their_inputs_before_any_build(monkeypatch):
    gen, rec, ref = random_instance(64)
    v = control.relative_value_iteration(gen, rec, ref, tol=1e-9)
    no_greedy = random_value(np.random.default_rng(0), gen.spec)
    monkeypatch.setattr(control, "_BellmanOps", None)  # building it would raise TypeError
    with pytest.raises(ValueError, match="horizon"):
        control.greedy_rollout_rate(gen, rec, ref, v, X0, 0, seed=2)
    for rate in (lambda: control.greedy_rollout_rate(gen, rec, ref, no_greedy, X0, 10, seed=2),
                 lambda: control.greedy_stationary_rate(gen, rec, ref, no_greedy)):
        with pytest.raises(ValueError, match="carries no greedy policy"):
            rate()


# ---------------------------------------------------------------------------
# optimal transition density


def test_qstar_constant_bias_recovers_model_row():
    gen, rec, ref = random_instance(70)
    spec = gen.spec
    bias = np.full((2, spec.n_states), 1.7)  # constant: reweighting cancels
    value = control.DifferentialValue(spec=spec, gain=0.0, bias=bias)
    x = CompleteState(1, 0, 1, 1, 0, 1)
    for t, tick in ((0, True), (1, False)):
        q = control.optimal_transition(gen, value, x, t=t)
        row = chains.transition_row(gen, x, tick=tick)
        assert np.allclose(q, row, atol=1e-12)


def test_qstar_one_hot_when_bias_spikes():
    gen, rec, ref = random_instance(71)
    spec = gen.spec
    bias = np.full((2, spec.n_states), 1e9)
    bias[:, 5] = 0.0
    value = control.DifferentialValue(spec=spec, gain=0.0, bias=bias)
    x = CompleteState(0, 0, 0, 0, 0, 0)
    q = control.optimal_transition(gen, value, x, t=0)
    assert q[5] == pytest.approx(1.0, abs=1e-9)
    # with q* one-hot on successor 5, the KL collapses to -log p(5 | x)
    lhs, rhs = control.kl_qstar_identity(gen, value, x, t=0)
    row = chains.transition_row(gen, x, tick=True)
    assert lhs == pytest.approx(-math.log(row[5]), abs=1e-6)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_qstar_normalization_and_kl_sign_sweep():
    rng = np.random.default_rng(1)
    for i in range(30):
        gen, rec, ref = random_instance(700 + i)
        value = random_value(rng, gen.spec, scale=2.0)
        x = random_state(rng, gen.spec)
        for t in (1, 2):
            q = control.optimal_transition(gen, value, x, t=t)
            assert q.sum() == pytest.approx(1.0, abs=1e-12)
            lhs, _ = control.kl_qstar_identity(gen, value, x, t=t)
            assert lhs >= -1e-12


def test_kl_identity_constant_bias_both_sides_zero():
    gen, rec, ref = random_instance(72)
    spec = gen.spec
    bias = np.zeros((2, spec.n_states))
    value = control.DifferentialValue(spec=spec, gain=0.0, bias=bias)
    lhs, rhs = control.kl_qstar_identity(gen, value, CompleteState(0, 1, 0, 1, 0, 1))
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)


def test_kl_identity_sweep_including_rvi_values():
    rng = np.random.default_rng(2)
    worst = 0.0
    for i in range(20):
        gen, rec, ref = random_instance(800 + i)
        if i % 2 == 0:
            value = random_value(rng, gen.spec, scale=1.5)
        else:
            value = control.relative_value_iteration(gen, rec, ref, tol=1e-8)
        for _ in range(5):
            x = random_state(rng, gen.spec)
            t = int(rng.integers(1, 3))
            lhs, rhs = control.kl_qstar_identity(gen, value, x, t=t)
            worst = worst_error(worst, abs(lhs - rhs))
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# Monte Carlo path-integral value


def test_mc_pi_zero_advantage_exact():
    gen, rec, ref = uniform_instance()
    rate = 3 * LOG2
    est, se = control.mc_path_integral_value(gen, rec, ref, X0, 4, rate,
                                             mode="feedback", n_rollouts=64,
                                             seed=0)
    assert est == pytest.approx(0.0, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_mc_pi_requires_two_rollouts():
    gen, rec, ref = uniform_instance()
    with pytest.raises(ValueError):
        control.mc_path_integral_value(gen, rec, ref, X0, 2, 0.0, n_rollouts=1)


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
def test_mc_pi_requires_a_finite_rate(rate):
    gen, rec, ref = uniform_instance()
    with pytest.raises(ValueError, match="rate must be a finite number"):
        control.mc_path_integral_value(gen, rec, ref, X0, 2, rate, n_rollouts=4)


def test_mc_pi_deterministic_chain_exact():
    from test_oracle import deterministic_gen

    gen = deterministic_gen()
    _, rec, ref = random_instance(89)
    rate = 0.2
    exact = oracle.exact_path_integral_value(gen, rec, ref, X0, 4, rate,
                                             mode="feedforward")
    est, se = control.mc_path_integral_value(gen, rec, ref, X0, 4, rate,
                                             mode="feedforward", n_rollouts=16,
                                             seed=0)
    assert est == pytest.approx(exact, abs=1e-10)
    assert se == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("mode", ["feedforward", "feedback"])
def test_mc_pi_within_three_stderr_of_exact(mode):
    gen, rec, ref = random_instance(90, cards=(2, 2, 2, 2, 1, 1))
    rng = np.random.default_rng(90)
    x0 = random_state(rng, gen.spec)
    rate = 0.6
    exact = oracle.exact_path_integral_value(gen, rec, ref, x0, 4, rate, mode=mode)
    est, se = control.mc_path_integral_value(gen, rec, ref, x0, 4, rate,
                                             mode=mode, n_rollouts=100_000, seed=4)
    assert abs(est - exact) <= 3 * se


def test_rollout_sampler_blocks_match_the_one_shot_draw():
    # 529 rollouts spread over the 7 states, each state's searched as one
    # block, against the count of CDF entries <= u over all rollouts at once
    n, x0 = 7, 2
    rng = np.random.default_rng(5)
    mats = rng.random((2, n, n))
    mats /= mats.sum(axis=2, keepdims=True)
    mats[:, x0] *= 0.5                             # a row that sums below 1
    cums = list(np.cumsum(mats, axis=2)) * 2
    n_rollouts = 529
    got = control._sample_paths([(m, None) for m in mats] * 2, x0, n_rollouts,
                                np.random.default_rng(9))
    r = np.random.default_rng(9).random((len(cums), n_rollouts))
    want = [np.full(n_rollouts, x0)]
    for cum, u in zip(cums, r):
        want.append(np.minimum((cum[want[-1]] <= u[:, None]).sum(axis=1), n - 1))
    assert np.array_equal(got, want)
    assert (r[0] > cums[0][x0, -1]).any()          # the clamp is exercised
    assert all(len(np.unique(w)) == n for w in want[2:])   # every state occupied


class StubUniforms:
    """A generator whose random() hands out the given uniforms in turn, in C
    order for a shaped draw."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def random(self, size=None):
        if size is None:
            return self.uniforms.pop(0)
        return np.array([self.uniforms.pop(0)
                         for _ in range(int(np.prod(size)))]).reshape(size)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), T=st.integers(1, 4),
       n_rollouts=st.integers(1, 64),
       seed=st.integers(0, 2 ** 32 - 1), stub=st.booleans())
def test_rollout_sampler_draws_as_sample_categorical(data, n, T, n_rollouts, seed, stub):
    # rows with hard zeros (leading ones too), some scaled to sum below 1;
    # the stub's uniforms are 0.0 and exact CDF values, where a draw that
    # compared cum < u instead of cum <= u would pick another state. Each
    # rollout is a sample_categorical walk on its own column of uniforms;
    # one rollout walks on the generator itself, a call per step
    weight = st.sampled_from([0.0, 0.0, 0.1, 0.3, 0.5, 1.0])
    row = st.lists(weight, min_size=n, max_size=n).filter(any)
    mats = []
    for _ in range(T):
        rows = np.array(data.draw(st.lists(row, min_size=n, max_size=n)))
        rows /= rows.sum(axis=1, keepdims=True)
        rows *= np.array(data.draw(st.lists(st.sampled_from([1.0, 1.0, 0.75]),
                                            min_size=n, max_size=n)))[:, None]
        mats.append(rows)
    cums = [np.cumsum(m, axis=1) for m in mats]
    x0 = data.draw(st.integers(0, n - 1))
    if stub:
        values = sorted({0.0} | {float(c) for cum in cums for c in cum.ravel() if c < 1.0})
        uniforms = data.draw(st.lists(st.sampled_from(values), min_size=T * n_rollouts,
                                      max_size=T * n_rollouts))

    def generator():
        return StubUniforms(uniforms) if stub else np.random.default_rng(seed)

    columns = generator().random((T, n_rollouts)).T
    got = control._sample_paths([(m, None) for m in mats], x0, n_rollouts, generator())
    assert got.shape == (T + 1, n_rollouts)
    for k, column in enumerate(columns):
        rng = generator() if n_rollouts == 1 else StubUniforms(column)
        want = [x0]
        for m in mats:
            want.append(sample_categorical(m[want[-1]], rng))
        assert got[:, k].tolist() == want


def per_state_sample_paths(mats, x0, n_rollouts, rng):
    """The sampler on dense (N, N) matrices, with one CDF per state a rollout
    leaves and each state's rollouts searched as one block: the per-state
    rule that _sample_paths keeps with its CDFs formed once per row."""
    paths = np.empty((len(mats) + 1, n_rollouts), dtype=np.intp)
    paths[0] = x0
    cdfs = {}
    for t, (mat, u) in enumerate(zip(mats, rng.random((len(mats), n_rollouts)))):
        at = paths[t]
        if n_rollouts == 1 or (at == at[0]).all():
            groups = [(int(at[0]), slice(None))]
        else:
            order = np.argsort(at)
            groups = [(int(at[idx[0]]), idx) for idx in
                      np.split(order, np.flatnonzero(np.diff(at[order])) + 1)]
        for x, idx in groups:
            if (cdf := cdfs.get((id(mat), x))) is None:
                cdf = cdfs[id(mat), x] = np.cumsum(mat[x])[:-1]
            paths[t + 1, idx] = cdf.searchsorted(u[idx], side="right")
    return paths


def assert_rollouts_are_the_per_state_draws(gen, rec, ref, x0, T, n_rollouts, seed):
    for mode in ("feedforward", "feedback"):
        steps = chains.step_matrices(
            lambda tick: chains.rollout_density(gen, rec, ref, tick, mode), gen.spec, T)
        got = control._sample_paths([(rows, row_of) for rows, row_of, _ in steps],
                                    x0.flat(gen.spec), n_rollouts, np.random.default_rng(seed))
        want = per_state_sample_paths(
            [rows if row_of is None else rows[row_of] for rows, row_of, _ in steps],
            x0.flat(gen.spec), n_rollouts, np.random.default_rng(seed))
        assert np.array_equal(got, want), mode


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), cards=st.tuples(*[st.integers(1, 3)] * 6),
       tick_period=st.integers(1, 3), hard_zero=st.booleans(), T=st.integers(1, 4),
       n_rollouts=st.integers(1, 300))
def test_rollouts_are_the_per_state_draws(seed, cards, tick_period, hard_zero, T,
                                         n_rollouts):
    # the feedforward density's class rows, searched once per occupied row,
    # draw the paths that its dense matrix, searched per state, draws
    make = hard_zero_instance if hard_zero else random_instance
    gen, rec, ref = make(seed, cards, tick_period)
    x0 = random_state(np.random.default_rng(seed), gen.spec)
    assert_rollouts_are_the_per_state_draws(gen, rec, ref, x0, T, n_rollouts, seed)


def test_rollouts_are_the_per_state_draws_on_the_thermostat():
    env, ref = sim.thermostat_env(3, [0, 2])                   # 864 states
    gen, rec = sim.thermostat_agent(env, [0, 2], 0)
    assert_rollouts_are_the_per_state_draws(gen, rec, ref, X0, 5, 2000, 300)


# ---------------------------------------------------------------------------
# differential free energy


def test_dfe_zero_advantage_equality():
    gen, rec, ref = uniform_instance()
    rate = 3 * LOG2
    bound = control.differential_free_energy(gen, rec, ref, X0, 4, rate)
    pi = oracle.exact_path_integral_value(gen, rec, ref, X0, 4, rate,
                                          mode="feedback")
    assert bound == pytest.approx(0.0, abs=1e-10)
    assert bound == pytest.approx(pi, abs=1e-10)


def test_dfe_jensen_bound_sweep():
    instances = (random_instance(900 + i, cards=(2, 2, 2, 2, 1, 1)) for i in range(25))
    violation, _, _ = jensen_violation(instances, np.random.default_rng(3), 3, 0.4)
    assert violation <= 1e-8


def test_dfe_mc_agrees_with_exact():
    gen, rec, ref = random_instance(91, cards=(2, 2, 2, 2, 1, 1))
    exact = control.differential_free_energy(gen, rec, ref, X0, 3, 0.1)
    _, step_costs = control._rollout_path_costs(gen, rec, ref, X0, 3, 0.1, "feedback",
                                                200_000, 8)
    mc = float(step_costs.sum(axis=0).mean())
    assert mc == pytest.approx(exact, abs=0.05)


# extreme but valid inputs: long horizons, and costs of hundreds of nats


@pytest.mark.parametrize("T", [3, 50, 400])
def test_dfe_bounds_the_soft_value_at_long_horizons(T):
    # both grow to ~1,300-1,400 nats at T = 400
    gen, rec, ref = random_instance(5, cards=(2, 2, 2, 2, 1, 1))
    sv = oracle.exact_soft_value(gen, rec, ref, X0, T, 0.1, mode="feedback")
    assert sv <= control.differential_free_energy(gen, rec, ref, X0, T, 0.1)


@pytest.mark.parametrize("tiny", [1e-100, 1e-300, 5e-324])
def test_costs_of_hundreds_of_nats(tiny):
    # every reference row puts `tiny` on its first entry: gains of 233-751 nats
    gen, rec, ref = random_instance(5, cards=(2, 2, 2, 2, 1, 1))
    rows = [tiny, 1.0 - tiny]
    ref = ReferenceModel(ref.spec, *(
        ConditionalTable(t.parent_dims, 2, np.tile(rows, (len(t.probs), 1)),
                         strictly_positive=False) for t in (ref.ref_o, ref.ref_s1)))
    for mode in ("feedforward", "feedback"):
        sv = oracle.exact_soft_value(gen, rec, ref, X0, 3, 0.1, mode=mode)
        pi = oracle.exact_path_integral_value(gen, rec, ref, X0, 3, 0.1, mode=mode)
        assert abs(sv - pi) <= 1e-12 * abs(pi)
    value = control.relative_value_iteration(gen, rec, ref, tol=1e-10)
    stat = control.greedy_stationary_rate(gen, rec, ref, value)
    assert value.gain > 200.0
    assert abs(value.gain - stat) <= 1e-10 * stat


# ---------------------------------------------------------------------------
# gradients and training


def test_gradients_match_finite_differences():
    instances = (random_instance(950 + i, cards=cards)
                 for i, cards in enumerate([(2, 2, 1, 2, 2, 1), (2, 2, 2, 2, 1, 1)]))
    assert gradient_error(instances, np.random.default_rng(4), 3, 0.15) <= 1e-4


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_nan_gradients_fail_the_gradient_check():
    # from flat state 0 a reachable state has infinite expected cost, so the
    # objective is +inf and both the adjoint and the finite differences are
    # NaN; the error must be NaN, which fails any tolerance, not 0.0
    gen, rec, ref = hard_zero_instance(2, (2, 1, 2, 2, 1, 1), 2)
    x0 = CompleteState.from_flat(0, gen.spec)
    params = control.extract_params(gen, rec)
    gen2, rec2 = control.apply_params(gen, rec, params)
    _, grads = control.dfe_value_and_grad(gen2, rec2, ref, x0, 2, 0.3)
    fd = control.fd_gradients(gen, rec, ref, params, x0, 2, 0.3)
    assert math.isnan(control.gradient_relative_error(grads, fd))


def test_worst_error_keeps_nan():
    for errors in ([0.0, math.nan, 1.0], [math.nan, 0.0], [1.0, 2.0, math.nan]):
        worst = 0.0
        for err in errors:
            worst = worst_error(worst, err)
        assert math.isnan(worst)
    assert worst_error(worst_error(0.0, 2.0), 1.0) == 2.0


def test_gap_fails_a_finite_value_against_an_infinite_one():
    inf = math.inf
    assert gap(inf, inf) == 0.0 and gap(-inf, -inf) == 0.0
    # recursion vs enumeration: a finite value against an infinite one disagrees
    assert worst_error(0.0, abs(gap(1.0, inf))) == inf
    assert worst_error(0.0, abs(gap(-inf, 1.0))) == inf
    # Jensen bound: a +inf path value over a finite bound violates it; a
    # finite path value under a +inf bound meets it
    assert worst_error(0.0, gap(inf, 3.0)) == inf
    assert worst_error(0.0, gap(3.0, inf)) == 0.0
    assert math.isnan(worst_error(0.0, abs(gap(math.nan, math.nan))))


def test_validation_fails_on_nan_errors(monkeypatch):
    # a NaN path-integral value makes the soft-value and Jensen checks NaN,
    # on the plain and on the hard-zero instances
    monkeypatch.setattr(oracle, "exact_path_integral_value",
                        lambda *args, **kwargs: math.nan)
    report = run_validation(seed=3, instances=1)
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failed == {"soft_value_vs_path_integral", "jensen_bound_violation",
                      "soft_value_vs_path_integral_hard_zero",
                      "jensen_bound_violation_hard_zero"}
    assert not report["all_passed"]


@pytest.mark.parametrize("seed,max_errs", [
    (3, "4.440892098500626e-16, 4.440892098500626e-16, 4.440892098500626e-16, "
        "4.440892098500626e-16, 2.220446049250313e-16, 1.6653345369377348e-16, "
        "1.7763568394002505e-15, 0.0, 1.160998967523661e-06"),
    (5, "2.220446049250313e-16, 4.440892098500626e-16, 4.440892098500626e-16, "
        "4.440892098500626e-16, 1.1102230246251565e-16, 1.6653345369377348e-16, "
        "1.7763568394002505e-15, 0.0, 6.94591554412094e-07")], ids=["seed3", "seed5"])
def test_validation_keeps_pinned_errors_and_sweeps_hard_zeros(seed, max_errs):
    # the checks before the hard-zero sweeps keep their draws and their bits
    report = run_validation(seed=seed, instances=4)
    *checks, hard_pi, hard_jensen = report["checks"]
    assert ", ".join(repr(c["max_err"]) for c in checks) == max_errs
    assert hard_pi["name"] == "soft_value_vs_path_integral_hard_zero"
    assert hard_jensen["name"] == "jensen_bound_violation_hard_zero"
    assert report["all_passed"]


def fd_rebuilding_both_models(gen, rec, ref, params, x0, T, rate):
    """Central differences that rebuild both models from scratch for every
    evaluation: the route fd_gradients must reproduce bit for bit."""

    def objective():
        g2, r2 = control.apply_params(gen, rec, params)
        return control.differential_free_energy(g2, r2, ref, x0, T, rate)

    out = {}
    for group in ("q_logits", "pol_logits"):
        for key, arr in getattr(params, group).items():
            grad = np.zeros_like(arr)
            flat, g = arr.reshape(-1), grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + control._FD_STEP
                hi = objective()
                flat[i] = orig - control._FD_STEP
                lo = objective()
                flat[i] = orig
                g[i] = (hi - lo) / (2.0 * control._FD_STEP)
            out[group, key] = grad
    return out


@pytest.mark.parametrize("cards", [(2, 2, 1, 2, 2, 1), (2, 2, 2, 2, 1, 1)])
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2 ** 16), T=st.integers(1, 3))
def test_fd_gradients_match_rebuilding_both_models(cards, seed, T):
    gen, rec, ref = random_instance(seed, cards=cards)
    rng = np.random.default_rng(seed)
    x0 = random_state(rng, gen.spec)
    rate = float(rng.standard_normal() * 0.2)
    # logits away from the loaded tables, so the unperturbed models that
    # fd_gradients shares differ from `gen` and `rec`
    base = control.extract_params(gen, rec)
    params = control.TrainableParams(
        {k: v + 0.3 * rng.standard_normal(v.shape) for k, v in base.q_logits.items()},
        {k: v + 0.3 * rng.standard_normal(v.shape) for k, v in base.pol_logits.items()})
    fd = control.fd_gradients(gen, rec, ref, params, x0, T, rate)
    want = fd_rebuilding_both_models(gen, rec, ref, params, x0, T, rate)
    assert set(want) == ({("q_logits", k) for k in fd.q_logits}
                         | {("pol_logits", k) for k in fd.pol_logits})
    for (group, key), w in want.items():
        assert np.array_equal(bits(getattr(fd, group)[key]), bits(w)), (group, key)


def test_fd_gradients_build_one_generative_half_per_generative_model(monkeypatch):
    # the recognition stacks share the unperturbed generative model, so the
    # latent prior is built once per tick for it and for each of the two
    # models of every policy-logit perturbation, and never for a stack
    gen, rec, ref = random_instance(960, cards=(2, 2, 1, 2, 2, 1))
    params = control.extract_params(gen, rec)
    calls = []
    latent_prior = chains.latent_prior

    def counted(g, tick):
        calls.append(tick)
        return latent_prior(g, tick)

    monkeypatch.setattr(chains, "latent_prior", counted)
    control.fd_gradients(gen, rec, ref, params, X0, 2, 0.1)
    n_pol = sum(v.size for v in params.pol_logits.values())
    assert len(calls) == 2 * (2 * n_pol + 1)


def test_fd_gradients_build_the_unperturbed_belief_once_per_tick(monkeypatch):
    # validate's first gradient instance: each policy-logit evaluation puts
    # another generative model beside the unperturbed recognition model,
    # whose belief reads no generative table and so is kept across the
    # switch (rebuilding it for each evaluation would make 116 calls); the
    # stacks take 64 calls, two per block of each factor's candidates
    gen, rec, ref = random_instance(3 * 6000, cards=(2, 2, 1, 2, 2, 1))
    params = control.extract_params(gen, rec)
    calls = []
    belief_table = chains.belief_table
    monkeypatch.setattr(chains, "belief_table",
                        lambda r, tick, rows: calls.append(r) or belief_table(r, tick, rows))
    control.fd_gradients(gen, rec, ref, params, X0, 2, 0.1)
    base = calls[-1]  # the policy-logit evaluations come last
    assert sum(r is base for r in calls) == 2
    assert len(calls) == 66


def test_fd_gradients_rebuild_only_the_perturbed_factor(monkeypatch):
    # a recognition logit's candidates are stacked in its own factor, every
    # candidate once; the other three factors are the unperturbed model's
    # arrays, which the policy-logit evaluations read whole
    gen, rec, ref = random_instance(961, cards=(2, 2, 1, 2, 2, 1))
    params = control.extract_params(gen, rec)
    recs, pol_recs = {}, []
    tick_pieces = chains.tick_pieces

    def recorded(g, r, f, tick):
        recs.setdefault(id(r), r)           # kept alive, so ids stay distinct
        return tick_pieces(g, r, f, tick)

    monkeypatch.setattr(chains, "tick_pieces", recorded)
    monkeypatch.setattr(control, "differential_free_energy",
                        lambda g, r, *args: pol_recs.append(r) or 0.0)
    control.fd_gradients(gen, rec, ref, params, X0, 2, 0.1)
    base = pol_recs[0]
    assert len(pol_recs) == 2 * sum(v.size for v in params.pol_logits.values())
    assert all(r is base for r in pol_recs)
    candidates = dict.fromkeys(REC_FACTORS, 0)
    for r in recs.values():
        (key,) = [k for k in REC_FACTORS if r.tables[k] is not base.tables[k]]
        assert r.tables[key].shape[1:] == base.tables[key].shape
        candidates[key] += len(r.tables[key])
    assert candidates == {k: 2 * v.size for k, v in params.q_logits.items()}


def test_fd_gradients_hold_one_block_of_candidates_at_a_time(monkeypatch):
    # validate's first gradient instance: the stacks are built block by
    # block, so the check's peak is a few blocks, not every candidate of a
    # factor (two per logit) at once, which the unbounded control run shows
    # would break the limit
    gen, rec, ref = random_instance(3 * 6000, cards=(2, 2, 1, 2, 2, 1))
    params = control.extract_params(gen, rec)
    limit = 16 * 8 * control._FD_BLOCK_VALUES

    def peak():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            control.fd_gradients(gen, rec, ref, params, X0, 2, 0.1)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    assert peak() < limit
    monkeypatch.setattr(control, "_FD_BLOCK_VALUES", 2 ** 62)
    assert peak() > limit


def test_apply_params_trains_only_sentinel_slices():
    # a factor's filtering array is all that is trained: its logits have the
    # factor's shape, a candidate's array is their softmax, read-only, and a
    # factor without logits is the parent's array, shared
    gen, rec, ref = random_instance(940, cards=(2, 2, 1, 2, 2, 1))
    params = control.extract_params(gen, rec)
    shapes = RecognitionModel.factor_shapes(gen.spec)
    for k, logits in params.q_logits.items():
        assert logits.shape == shapes[k]
    _, grads = control.dfe_value_and_grad(gen, rec, ref, X0, 3, 0.1)
    cand = params.step(grads, 0.5)
    _, rec2 = control.apply_params(gen, rec, cand)
    for k in REC_FACTORS:
        assert np.array_equal(bits(rec2.tables[k]), bits(softmax_rows(cand.q_logits[k])))
        assert not rec2.tables[k].flags.writeable
    assert not all(np.array_equal(rec2.tables[k], rec.tables[k]) for k in REC_FACTORS)
    _, rec3 = control.apply_params(gen, rec, control.TrainableParams(
        {"s1": cand.q_logits["s1"]}, {}))
    assert rec3.tables["s1"] is not rec.tables["s1"]
    assert all(rec3.tables[k] is rec.tables[k] for k in ("s2", "a2", "a1"))


def test_apply_params_allocates_only_the_sentinel_slices():
    # on the seed-3 thermostat a candidate's four filtering arrays are
    # 5.2 MiB: it allocates them (and, while they are built, their
    # softmax's row maxima and sums) and nothing of its parent's
    env, ref = sim.thermostat_env(3, [0, 2], heat_success=0.85, phase_advance=0.1)
    gen, rec = sim.thermostat_agent(env, [0, 2], 3)
    params = control.extract_params(gen, rec, ("pol0",))
    sent_bytes = sum(v.nbytes for v in params.q_logits.values())
    assert sent_bytes == sum(v.nbytes for v in rec.tables.values()) == 5_474_304
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, cand = control.apply_params(gen, rec, params)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < sent_bytes + 2 ** 16
    assert peak - before < 1.5 * sent_bytes
    for k in REC_FACTORS:
        assert not np.may_share_memory(cand.tables[k], rec.tables[k])
        assert cand.tables[k].flags.c_contiguous and not cand.tables[k].flags.writeable


def test_apply_params_rejects_logits_shaped_like_the_whole_table():
    # a factor's logits have the factor's shape; shaped like its bundle
    # table, with the future-summary axis, they are refused, and the error
    # names the factor
    gen, rec, _ = random_instance(942)
    params = control.extract_params(gen, rec)
    params.q_logits["s1"] = np.repeat(params.q_logits["s1"][:, :, :, None],
                                      gen.spec.card_o + 1, axis=3)
    with pytest.raises(DimensionMismatchError, match="recognition factor s1"):
        control.apply_params(gen, rec, params)


def copy_and_write_layout(rec, q_logits):
    """The tables of apply_params(..., rec, ...) written out afresh: copies
    of rec's tables with the softmax of q_logits in the factors it names."""
    tables = {k: np.array(v) for k, v in rec.tables.items()}
    for k, logits in q_logits.items():
        tables[k][...] = softmax_rows(logits)
    return tables


def test_candidate_joint_matches_the_copy_and_write_layout():
    # on both tick values, a candidate, and a candidate of it that rebuilds
    # one factor as fd_gradients does, read their beliefs bit for bit as a
    # model of fresh copies of their tables
    gen, rec, ref = random_instance(941)
    spec = gen.spec
    params = control.extract_params(gen, rec)
    rng = np.random.default_rng(0)
    q = {k: v + rng.standard_normal(v.shape) for k, v in params.q_logits.items()}
    _, cand = control.apply_params(gen, rec, control.TrainableParams(q, {}))
    s1 = {"s1": rng.standard_normal(q["s1"].shape)}
    cases = [(cand, RecognitionModel(spec, copy_and_write_layout(rec, q))),
             (cand.with_logits(s1),
              RecognitionModel(spec, copy_and_write_layout(rec, {**q, **s1})))]
    for got, want in cases:
        for x in range(spec.n_states):
            x_prev = CompleteState.from_flat(x, spec)
            for o in range(spec.card_o):
                for a in range(spec.card_a):
                    ctx = RecognitionContext(o, a, x_prev)
                    for tick in (True, False):
                        assert np.array_equal(bits(got.joint(ctx, tick)),
                                              bits(want.joint(ctx, tick)))


def test_zero_gradient_at_deterministic_optimum():
    # cost_hi = log 2 makes the observation reference uniform, so the
    # deterministic reference-matching chain has state-independent edge
    # costs: the recognition beliefs are already exact (one-hot) and every
    # free-logit gradient vanishes at iteration 0.
    gen, rec, ref = two_cycle_instance(cost_hi=LOG2)
    params = control.extract_params(gen, rec, trainable_policies=())
    gen2, rec2 = control.apply_params(gen, rec, params)
    value, grads = control.dfe_value_and_grad(gen2, rec2, ref, X0, 3, 0.0,
                                              trainable_policies=())
    assert np.isfinite(value)
    assert grads.norm() == pytest.approx(0.0, abs=1e-9)


def test_training_monotone_under_exact_gradients():
    gen, rec, ref = random_instance(96, cards=(2, 2, 1, 2, 2, 1), floor=True)
    report, _, _ = control.train(gen, rec, ref, X0, T=3, iters=30, lr=5e-3)
    # no step is halved, and the objective falls between rate refreshes
    assert report.step_size_trace == [5e-3] * 30
    tr = report.objective_trace
    assert len(tr) == 30
    assert all(tr[k + 1] <= tr[k] + 1e-10 for k in range(len(tr) - 1)
               if (k + 1) % control._RATE_REFRESH)


def test_training_report_shape_and_rate_refresh(monkeypatch):
    gen, rec, ref = random_instance(97, cards=(2, 2, 1, 2, 2, 1), floor=True)
    monkeypatch.setattr(control, "_RATE_REFRESH", 5)
    report, gen2, rec2 = control.train(gen, rec, ref, X0, T=3, iters=12, lr=0.05)
    assert report.iterations == 12
    assert len(report.grad_norm_trace) == 12
    assert np.isfinite(report.final_rate)
    assert isinstance(rec2, RecognitionModel)


def test_training_report_records_step_sizes_and_rates(monkeypatch):
    # lr 40 forces halvings; a refresh every 2 iterations re-estimates the
    # rate after every second step, so the gradients of iterations 2 and 4
    # use new rates
    gen, rec, ref = random_instance(97, cards=(2, 2, 1, 2, 2, 1), floor=True)
    monkeypatch.setattr(control, "_RATE_REFRESH", 2)
    report, _, _ = control.train(gen, rec, ref, X0, T=3, iters=6, lr=40.0)
    doc = json.loads(json.dumps(report.to_dict()))
    steps, rates = doc["step_size_trace"], doc["rate_trace"]
    assert len(steps) == len(rates) == doc["iterations"] == 6
    assert steps[0] < 40.0
    assert all(math.log2(40.0 / s).is_integer() for s in steps)
    assert steps == sorted(steps, reverse=True)
    cur_gen, cur_rec = control.apply_params(gen, rec, control.extract_params(gen, rec))
    assert rates[0] == oracle.exact_average_rate(cur_gen, cur_rec, ref, X0,
                                                 *control._RATE_HORIZON,
                                                 chain="recognition")
    assert rates[0] == rates[1] and rates[2] == rates[3] and rates[4] == rates[5]
    assert len({rates[0], rates[2], rates[4], doc["final_rate"]}) == 4


def test_score_training_takes_every_step_at_the_learning_rate(monkeypatch):
    # only the exact estimator halves: the score estimator runs no halving
    # check, so even lr 40 is taken whole
    gen, rec, ref = random_instance(97, cards=(2, 2, 1, 2, 2, 1), floor=True)

    def no_check(*args):
        raise AssertionError("the score estimator ran a halving check")

    monkeypatch.setattr(control, "differential_free_energy", no_check)
    report, _, _ = control.train(gen, rec, ref, X0, T=3, iters=3, lr=40.0,
                                 estimator="score")
    assert report.step_size_trace == [40.0] * 3


def test_score_training_is_seeded_and_finite():
    gen, rec, ref = random_instance(97, cards=(2, 2, 1, 2, 2, 1), floor=True)

    def run(seed):
        return control.train(gen, rec, ref, X0, T=3, iters=4, lr=0.05, seed=seed,
                             estimator="score")

    (rep_a, gen_a, rec_a), (rep_b, gen_b, rec_b) = run(5), run(5)
    assert rep_a.to_dict() == rep_b.to_dict()
    for name in control.POLICY_TABLES:
        assert np.array_equal(bits(getattr(gen_a, name).probs),
                              bits(getattr(gen_b, name).probs))
    for k in REC_FACTORS:
        assert np.array_equal(bits(rec_a.tables[k]), bits(rec_b.tables[k]))
    assert run(6)[0].objective_trace != rep_a.objective_trace
    assert rep_a.iterations == 4
    values = rep_a.objective_trace + rep_a.grad_norm_trace + [rep_a.final_rate]
    assert np.all(np.isfinite(values))
    for k in REC_FACTORS:
        assert np.all(np.isfinite(rec_a.tables[k]))
    for name in control.POLICY_TABLES:
        assert np.all(np.isfinite(getattr(gen_a, name).probs))


def test_score_gradient_tracks_exact_direction():
    gen, rec, ref = random_instance(98, cards=(2, 2, 1, 2, 1, 1), floor=True)
    params = control.extract_params(gen, rec)
    gen2, rec2 = control.apply_params(gen, rec, params)
    _, exact = control.dfe_value_and_grad(gen2, rec2, ref, X0, 3, 0.1)
    _, score = control.score_function_grad(gen2, rec2, ref, X0, 3, 0.1,
                                           n_rollouts=60_000, seed=12)
    num = den_a = den_b = 0.0
    for group in ("q_logits", "pol_logits"):
        for k, g in getattr(exact, group).items():
            s = getattr(score, group)[k]
            num += float(np.sum(g * s))
            den_a += float(np.sum(g * g))
            den_b += float(np.sum(s * s))
    cosine = num / math.sqrt(den_a * den_b)
    assert cosine > 0.9


def test_value_file_round_trip(tmp_path):
    gen, rec, ref = random_instance(99)
    v = control.relative_value_iteration(gen, rec, ref, tol=1e-8)
    path = tmp_path / "value.json"
    v.save(path)
    v2 = control.DifferentialValue.load(path)
    assert v2.gain == v.gain
    assert np.array_equal(v2.bias, v.bias)
    assert np.array_equal(v2.greedy, v.greedy)
    anchor = json.loads(path.read_text())["anchor"]
    assert CompleteState(*anchor) == CompleteState.from_flat(0, v.spec)
