import math

import numpy as np
import pytest

from ascontrol import chains, oracle
from ascontrol.errors import (ConvergenceError, EnumerationBudgetError,
                              ImpossibleObservationError)
from ascontrol.instances import random_instance, random_state
from ascontrol.logspace import logsumexp
from ascontrol.model import (CompleteState, ConditionalTable, GenerativeModel,
                             ModelSpec, Trajectory, trajectory_logprob)
from conftest import two_cycle_instance, uniform_instance

X0 = CompleteState(0, 0, 0, 0, 0, 0)


def deterministic_gen():
    spec = ModelSpec(2, 2, 2, 2, 2, 2)
    return GenerativeModel(
        spec,
        lik=ConditionalTable.one_hot((2, 2), 2, lambda a1, s1: s1),
        dyn1=ConditionalTable.one_hot((2, 2, 2), 2, lambda s1, s2, a: 1 - s1),
        dyn2=ConditionalTable.one_hot((2, 2), 2, lambda s2, a: s2),
        pol0=ConditionalTable.one_hot((2, 2), 2, lambda o, a1: o),
        pol1=ConditionalTable.one_hot((2, 2), 2, lambda s1, a2: s1),
        pol2=ConditionalTable.one_hot((2,), 2, lambda s2: s2),
    )


# ---------------------------------------------------------------------------
# trajectory enumeration


def test_enumerate_deterministic_single_trajectory():
    gen = deterministic_gen()
    out = list(oracle.enumerate_trajectories(gen, X0, 3))
    assert len(out) == 1
    traj, lp = out[0]
    assert lp == 0.0
    assert traj.hold_respected(gen.spec)


def test_enumerate_uniform_counts_and_mass():
    gen, _, _ = uniform_instance()
    out = list(oracle.enumerate_trajectories(gen, X0, 1))
    assert len(out) == 64
    assert all(lp == pytest.approx(math.log(1 / 64), abs=1e-12) for _, lp in out)
    out2 = list(oracle.enumerate_trajectories(gen, X0, 2))
    assert len(out2) == 64 * 32
    mass = np.exp(logsumexp(np.array([lp for _, lp in out2])))
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_enumerate_random_mass_and_logprobs():
    gen, _, _ = random_instance(12)
    total = []
    for traj, lp in oracle.enumerate_trajectories(gen, X0, 3):
        total.append(lp)
        if len(total) <= 10:
            assert trajectory_logprob(gen, traj) == pytest.approx(lp, abs=1e-12)
    assert np.exp(logsumexp(np.array(total))) == pytest.approx(1.0, abs=1e-9)


def test_enumerate_budget_error(monkeypatch):
    gen, _, _ = random_instance(12)
    monkeypatch.setenv("ASC_ENUM_BUDGET", "100")
    with pytest.raises(EnumerationBudgetError):
        list(oracle.enumerate_trajectories(gen, X0, 3))


def test_enum_budget_env_override(monkeypatch):
    # the bound itself passes, one trajectory less raises
    gen, _, _ = random_instance(12)
    monkeypatch.setenv("ASC_ENUM_BUDGET", "1")
    with pytest.raises(EnumerationBudgetError) as info:
        list(oracle.enumerate_trajectories(gen, X0, 3))
    need = info.value.required
    assert need > 1 and info.value.allowed == 1
    monkeypatch.setenv("ASC_ENUM_BUDGET", str(need))
    assert len(list(oracle.enumerate_trajectories(gen, X0, 3))) > 0
    monkeypatch.setenv("ASC_ENUM_BUDGET", str(need - 1))
    with pytest.raises(EnumerationBudgetError) as info:
        list(oracle.enumerate_trajectories(gen, X0, 3))
    assert (info.value.required, info.value.allowed) == (need, need - 1)
    # unset (or empty), the default ceiling applies
    monkeypatch.setenv("ASC_ENUM_BUDGET", "")
    assert len(list(oracle.enumerate_trajectories(gen, X0, 3))) > 0
    assert need <= oracle.MAX_TRAJECTORIES


def test_enum_budget_env_must_be_an_integer(monkeypatch):
    gen, _, _ = random_instance(12)
    monkeypatch.setenv("ASC_ENUM_BUDGET", "1e6")
    with pytest.raises(ValueError, match="ASC_ENUM_BUDGET"):
        list(oracle.enumerate_trajectories(gen, X0, 3))


# ---------------------------------------------------------------------------
# marginal likelihood and posterior


def test_uniform_marginal_single_obs():
    gen, _, _ = uniform_instance()
    assert oracle.exact_marginal_likelihood(gen, X0, [1]) == pytest.approx(
        -math.log(2), abs=1e-12)


def test_marginal_probability_bound_and_monotonicity():
    gen, _, _ = random_instance(8)
    obs = [1, 0, 1, 1]
    prev = 0.0
    for k in range(1, len(obs) + 1):
        ml = oracle.exact_marginal_likelihood(gen, X0, obs[:k])
        assert math.exp(ml) <= 1.0 + 1e-12
        assert ml <= prev + 1e-12
        prev = ml


def test_deterministic_emissions_full_mass():
    gen = deterministic_gen()
    # the deterministic chain from X0 emits o=1 at t=1 (s1 flips first)
    assert oracle.exact_marginal_likelihood(gen, X0, [1]) == pytest.approx(
        0.0, abs=1e-12)
    with pytest.raises(ImpossibleObservationError):
        oracle.exact_posterior(gen, X0, [0])


def test_posterior_normalization_and_consistency():
    gen, _, _ = random_instance(14)
    obs = [0, 1]
    post = oracle.exact_posterior(gen, X0, obs)
    assert post.probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert post.log_marginal == pytest.approx(
        oracle.exact_marginal_likelihood(gen, X0, obs), abs=1e-12)
    # posterior * marginal = joint, entrywise in logs
    for k in range(0, post.paths.shape[0], 37):
        traj = Trajectory(X0, tuple(post.state_at(k, t, obs)
                                    for t in range(1, len(obs) + 1)))
        joint = trajectory_logprob(gen, traj)
        assert math.log(post.probs[k]) + post.log_marginal == pytest.approx(
            joint, abs=1e-12)


def test_posterior_uniform_model_is_uniform():
    gen, _, _ = uniform_instance()
    post = oracle.exact_posterior(gen, X0, [1])
    assert np.allclose(post.probs, post.probs[0])


def test_posterior_deterministic_one_hot():
    gen = deterministic_gen()
    post = oracle.exact_posterior(gen, X0, [1, 0])
    assert post.paths.shape[0] == 1
    assert post.probs[0] == pytest.approx(1.0, abs=1e-12)


def test_out_of_range_observation():
    gen, _, _ = random_instance(14)
    with pytest.raises(Exception):
        oracle.exact_marginal_likelihood(gen, X0, [5])


# ---------------------------------------------------------------------------
# exact average rate


def test_average_rate_constant_cost():
    gen, rec, ref = uniform_instance()
    rate = oracle.exact_average_rate(gen, rec, ref, X0, 3, 5)
    assert rate == pytest.approx(3 * math.log(2), abs=1e-12)


def test_average_rate_two_cycle():
    gen, rec, ref = two_cycle_instance(cost_hi=1.0)
    rate = oracle.exact_average_rate(gen, rec, ref, CompleteState(0, 0, 0, 0, 0, 0),
                                     10, 2)
    # alternating costs -log(e^-1) and -log(1-e^-1), plus the constant
    # log 2 from the uniform latent-reference row
    e = math.exp(-1.0)
    expect = 0.5 * (1.0 - math.log(1 - e)) + math.log(2)
    assert rate == pytest.approx(expect, abs=1e-12)


def test_stationary_rate_reports_residual_when_out_of_iterations():
    mats = [np.array([[0.9, 0.1], [0.5, 0.5]])]
    costs = [np.array([0.0, 1.0])]
    with pytest.raises(ConvergenceError) as err:
        oracle.stationary_rate(mats, costs, max_iter=1)
    # one step from uniform: mu = (0.7, 0.3), L1 distance 0.4
    assert err.value.residual == pytest.approx(0.4)
    assert abs(oracle.stationary_rate(mats, costs) - 1.0 / 6.0) < 1e-12


def test_average_rate_matches_rollout():
    gen, rec, ref = random_instance(20, cards=(2, 2, 2, 2, 1, 1))
    spec = gen.spec
    exact = oracle.exact_average_rate(gen, rec, ref, X0, 300, 100)
    # seeded rollout under the same chain with the same edge costs
    rng = np.random.default_rng(77)
    mats = {t: chains.transition_matrix(gen, t) for t in (True, False)}
    cums = {t: np.cumsum(m, axis=1) for t, m in mats.items()}
    costs = {t: chains.tick_pieces(gen, rec, ref, t)["cost"] for t in (True, False)}
    lat = chains.Lattice.of(spec)
    from ascontrol.model import tick_at

    x = X0.flat(spec)
    n = 100_000
    vals = np.empty(n)
    for t in range(1, n + 1):
        tick = tick_at(t, spec)
        nxt = int(np.searchsorted(cums[tick][x], rng.random(), side="right"))
        nxt = min(nxt, spec.n_states - 1)
        vals[t - 1] = costs[tick][x, lat.o[nxt], lat.a[nxt]]
        x = nxt
    blocks = vals.reshape(100, 1000).mean(axis=1)
    se = blocks.std(ddof=1) / 10
    assert abs(vals.mean() - exact) <= 3 * se


def test_average_rate_recognition_chain_runs():
    gen, rec, ref = random_instance(21)
    r = oracle.exact_average_rate(gen, rec, ref, X0, 50, 50, chain="recognition")
    assert np.isfinite(r)


def test_average_rate_rejects_an_unknown_chain_before_building(monkeypatch):
    gen, rec, ref = random_instance(0)
    calls = []
    tick_pieces = chains.tick_pieces
    monkeypatch.setattr(chains, "tick_pieces",
                        lambda *args: calls.append(args) or tick_pieces(*args))
    with pytest.raises(ValueError, match="unknown chain 'bogus'"):
        oracle.exact_average_rate(gen, rec, ref, X0, 2, 2, chain="bogus")
    assert calls == []


# ---------------------------------------------------------------------------
# soft values and path integrals


def test_soft_value_zero_advantages():
    gen, rec, ref = uniform_instance()
    rate = 3 * math.log(2)  # equals the constant step objective
    sv = oracle.exact_soft_value(gen, rec, ref, X0, 4, rate, mode="feedback")
    for table in sv.tables:
        assert np.allclose(table, 0.0, atol=1e-12)
    assert sv.rooted == pytest.approx(0.0, abs=1e-12)


def test_soft_value_t1_is_advantage_table():
    gen, rec, ref = random_instance(30)
    rate = 0.4
    sv = oracle.exact_soft_value(gen, rec, ref, X0, 1, rate, mode="feedforward")
    expect = chains.state_cost(gen, ref) - rate
    assert np.allclose(sv.tables[0], expect, atol=1e-12)


@pytest.mark.parametrize("mode", ["feedforward", "feedback"])
@pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
def test_soft_value_equals_path_integral(mode, T):
    gen, rec, ref = random_instance(40 + T, cards=(2, 2, 2, 2, 1, 1))
    rng = np.random.default_rng(T)
    x0 = random_state(rng, gen.spec)
    rate = float(rng.standard_normal() * 0.3)
    sv = oracle.exact_soft_value(gen, rec, ref, x0, T, rate, mode=mode)
    pi = oracle.exact_path_integral_value(gen, rec, ref, x0, T, rate, mode=mode)
    assert sv.rooted == pytest.approx(pi, abs=1e-8)


def test_path_integral_zero_advantages():
    gen, rec, ref = uniform_instance()
    rate = 3 * math.log(2)
    pi = oracle.exact_path_integral_value(gen, rec, ref, X0, 3, rate,
                                          mode="feedback")
    assert pi == pytest.approx(0.0, abs=1e-10)


def test_path_integral_deterministic_chain_sums_costs():
    gen = deterministic_gen()
    spec = gen.spec
    _, rec, ref = random_instance(44)
    rate = 0.2
    T = 4
    pi = oracle.exact_path_integral_value(gen, rec, ref, X0, T, rate,
                                          mode="feedforward")
    sc = chains.state_cost(gen, ref)
    x = X0
    total = 0.0
    from ascontrol.model import sample_transition

    for t in range(1, T + 1):
        x = sample_transition(gen, x, t, np.random.default_rng(0))
        total += sc[x.flat(spec)] - rate
    assert pi == pytest.approx(total, abs=1e-10)


@pytest.mark.parametrize("fn", [oracle.exact_soft_value,
                                oracle.exact_path_integral_value])
@pytest.mark.parametrize("mode", ["feedforward", "feedback"])
@pytest.mark.parametrize("T", [0, -1])
def test_soft_and_path_integral_values_refuse_horizons_below_one(monkeypatch, fn,
                                                                 mode, T):
    gen, rec, ref = random_instance(0)

    def no_build(*args):
        raise AssertionError("a step was built before the horizon check")

    monkeypatch.setattr(chains, "rollout_density", no_build)
    with pytest.raises(ValueError, match="horizon T must be at least 1 step"):
        fn(gen, rec, ref, X0, T, 0.0, mode=mode)


def test_budget_guard_on_path_integral(monkeypatch):
    gen, rec, ref = random_instance(50)
    monkeypatch.setenv("ASC_ENUM_BUDGET", "10")
    with pytest.raises(EnumerationBudgetError):
        oracle.exact_path_integral_value(gen, rec, ref, X0, 3, 0.0)


def test_state_budget_guard(monkeypatch):
    gen, rec, ref = random_instance(51)
    monkeypatch.setattr(chains, "MAX_STATES", 8)
    with pytest.raises(EnumerationBudgetError):
        oracle.exact_average_rate(gen, rec, ref, X0, 2, 2)
