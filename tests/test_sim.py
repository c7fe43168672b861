import math
import tracemalloc

import numpy as np
import pytest

from ascontrol import chains, sim
from ascontrol.errors import DimensionMismatchError, EnumerationBudgetError
from ascontrol.model import (CompleteState, ConditionalTable, GenerativeModel,
                             ModelSpec, RecognitionModel, ReferenceModel,
                             tick_at)

X0 = CompleteState(0, 0, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# thermostat construction


def test_thermostat_schedule_validation():
    with pytest.raises(ValueError):
        sim.thermostat_env(1, [0])
    with pytest.raises(ValueError):
        sim.thermostat_env(3, [0, 5])
    with pytest.raises(ValueError):
        sim.thermostat_env(3, [])


@pytest.mark.parametrize("name,value", [("heat_success", 2.0), ("heat_success", -0.1),
                                        ("phase_advance", 1.5), ("phase_advance", math.nan)])
def test_thermostat_probabilities_are_range_checked(name, value):
    # out of [0, 1] they used to fail only at the table check, which named
    # no parameter ("negative probability entry")
    with pytest.raises(ValueError, match=f"{name} must be a probability in \\[0, 1\\]"):
        sim.thermostat_env(3, [0, 2], **{name: value})
    for edge in (0.0, 1.0):
        sim.thermostat_env(3, [0, 2], **{name: edge})


def test_thermostat_checks_the_state_ceiling_before_its_tables():
    # 100 temperatures give 32M complete states; the likelihood table alone
    # would hold 4 * 100^3 floats
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationBudgetError, match="complete states exceed"):
            sim.thermostat_env(100, [0, 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_thermostat_constant_schedule_fixed_setpoint():
    env, ref = sim.thermostat_env(3, [1, 1])
    rows = ref.ref_s1.probs
    assert np.allclose(rows[0], rows[1])
    temp_marg = rows[0].reshape(3, 2).sum(axis=1)
    assert np.argmax(temp_marg) == 1


def test_thermostat_heat_success_probability():
    env, _ = sim.thermostat_env(2, [0], heat_success=0.7)
    # from temperature level 0 (s1 = 0), phase 0, heat action: level 1
    row = env.dyn1.row((0, 0, 1)).reshape(2, 1)
    assert row[1, 0] == pytest.approx(0.7, abs=1e-9)
    assert row[0, 0] == pytest.approx(0.3, abs=1e-9)


def test_thermostat_null_action_stationary_matches_power_iteration():
    env, _ = sim.thermostat_env(4, [0], heat_success=0.6)
    # hold the cool action fixed; temperature marginal follows a birth-death
    # walk whose stationary law we get from the one-step matrix directly
    n = env.spec.card_s1
    mat = np.zeros((n, n))
    for s1 in range(n):
        mat[s1] = env.dyn1.row((s1, 0, 0))
    mu = np.full(n, 1.0 / n)
    for _ in range(10_000):
        nxt = mat.T @ mu
        if np.abs(nxt - mu).sum() < 1e-14:
            break
        mu = nxt
    # empirical long-run occupancy of the sampled chain
    rng = np.random.default_rng(0)
    counts = np.zeros(n)
    s1 = 0
    steps = 200_000
    for _ in range(steps):
        s1 = env.dyn1.sample((s1, 0, 0), rng)
        counts[s1] += 1
    emp = counts / steps
    se = np.sqrt(mu * (1 - mu) / steps)
    assert np.all(np.abs(emp - mu) <= 5 * se + 5e-3)


# ---------------------------------------------------------------------------
# episode loop


def _matched_deterministic_setup():
    """Environment identical to the agent's model, deterministic everywhere,
    with a one-hot reference matched to the chain: J = 0 at every step."""
    spec = ModelSpec(2, 2, 1, 1, 1, 1)
    lik = ConditionalTable.one_hot((1, 2), 2, lambda a1, s1: s1)
    dyn1 = ConditionalTable.one_hot((2, 1, 1), 2, lambda s1, s2, a: s1)
    dyn2 = ConditionalTable.one_hot((1, 1), 1, lambda s2, a: 0)
    gen = GenerativeModel(
        spec, lik=lik, dyn1=dyn1, dyn2=dyn2,
        pol0=ConditionalTable.uniform((2, 1), 1, False),
        pol1=ConditionalTable.uniform((2, 1), 1, False),
        pol2=ConditionalTable.uniform((1,), 1, False))
    env = sim.Environment(spec=spec, lik=lik, dyn1=dyn1, dyn2=dyn2)
    ref = ReferenceModel(
        spec,
        ref_o=ConditionalTable.one_hot((1,), 2, lambda a1: 0),
        ref_s1=ConditionalTable.one_hot((1,), 2, lambda a2: 0))
    rec = RecognitionModel(spec, chains.posterior_recognition_tables(gen))
    return gen, rec, ref, env


def test_episode_zero_reference_surprisal_when_matched():
    gen, rec, ref, env = _matched_deterministic_setup()
    trace = sim.run_episode(gen, rec, ref, env, 10, seed=3, x0=X0)
    assert all(r.j == pytest.approx(0.0, abs=1e-12) for r in trace.rows)
    assert all(r.l == pytest.approx(0.0, abs=1e-12) for r in trace.rows)


def test_episode_determinism_and_digest(tmp_path):
    env, ref = sim.thermostat_env(3, [0, 2])
    gen, rec = sim.thermostat_agent(env, [0, 2], seed=1)

    def csv_bytes(seed, name):
        path = tmp_path / name
        sim.run_episode(gen, rec, ref, env, 20, seed=seed).to_csv(path)
        return path.read_bytes()

    a = csv_bytes(9, "a.csv")
    assert csv_bytes(9, "b.csv") == a
    assert csv_bytes(10, "c.csv") != a


def test_episode_running_rate_and_advantage_columns():
    env, ref = sim.thermostat_env(3, [0, 2])
    gen, rec = sim.thermostat_agent(env, [0, 2], seed=2)
    trace = sim.run_episode(gen, rec, ref, env, 15, seed=4)
    totals = [r.total for r in trace.rows]
    for i, row in enumerate(trace.rows):
        assert row.running_rate == pytest.approx(np.mean(totals[:i + 1]), abs=1e-12)
        assert row.advantage == pytest.approx(row.total - row.running_rate,
                                              abs=1e-12)
        assert row.total == pytest.approx(row.j + row.l + row.kl, abs=1e-12)


def test_episode_level2_hold_visible():
    env, ref = sim.thermostat_env(3, [0, 2])
    gen, rec = sim.thermostat_agent(env, [0, 2], seed=5)
    trace = sim.run_episode(gen, rec, ref, env, 24, seed=6)
    for i in range(1, len(trace.rows)):
        t = trace.rows[i].t
        if not tick_at(t, env.spec):
            assert trace.rows[i].state.s2 == trace.rows[i - 1].state.s2


def test_episode_spec_mismatch():
    env, ref = sim.thermostat_env(3, [0, 2])
    # 2 levels x 3 phases: 1,296 complete states, below the dense ceiling
    env2, _ = sim.thermostat_env(2, [0, 1, 1])
    gen, rec = sim.thermostat_agent(env2, [0, 1, 1], seed=0)
    with pytest.raises(DimensionMismatchError):
        sim.run_episode(gen, rec, ref, env, 5, seed=0)


def test_uniform_policy_mean_matches_stationary_expectation():
    # with pol0 uniform the believed-state chain is exactly the
    # recognition-controlled chain; compare the empirical mean realized
    # observation-reference surprisal over a long episode to the exact
    # stationary expectation of the same chain
    env, ref = sim.thermostat_env(3, [1], phase_advance=0.0)
    gen, rec = sim.thermostat_agent(env, [1], seed=7)
    gen = sim.with_uniform_pol0(gen)
    spec = env.spec
    T = 10_000
    trace = sim.run_episode(gen, rec, ref, env, T, seed=8)
    vals = np.array([-math.log(ref.ref_o.prob((r.state.a1,), r.state.o))
                     for r in trace.rows])
    # exact: environment temperature chain under uniform actions, scored
    # against the pinned setpoint (a1 = 1 always here)
    n1 = spec.card_s1
    mat = np.zeros((n1, n1))
    for s1 in range(n1):
        mat[s1] = 0.5 * (env.dyn1.row((s1, 0, 0)) + env.dyn1.row((s1, 0, 1)))
    mu = np.full(n1, 1.0 / n1)
    for _ in range(100_000):
        nxt = mat.T @ mu
        if np.abs(nxt - mu).sum() < 1e-14:
            mu = nxt
            break
        mu = nxt
    j_o = np.array([-math.log(ref.ref_o.prob((1,), o)) for o in range(spec.card_o)])
    exact = float(mu @ j_o)  # o = s1 deterministically
    blocks = vals.reshape(100, -1).mean(axis=1)
    se = blocks.std(ddof=1) / 10
    assert abs(vals.mean() - exact) <= 3 * se + 1e-6


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_identical_seeds_give_identical_surprisals():
    env, ref = sim.thermostat_env(3, [0, 2])
    gen, rec = sim.thermostat_agent(env, [0, 2], seed=1)
    obs_ref = sim.evaluate(gen, rec, ref, env, [5, 5], 10)
    assert obs_ref.shape == (2,)
    assert obs_ref[0] == obs_ref[1]


def test_evaluate_deterministic_given_seed():
    # one episode per seed, each the episode run_episode gives that seed
    env, ref = sim.thermostat_env(3, [0, 2])
    gen, rec = sim.thermostat_agent(env, [0, 2], seed=1)
    a = sim.evaluate(gen, rec, ref, env, [123, 7, 9], 10)
    b = sim.evaluate(gen, rec, ref, env, (s for s in (123, 7, 9)), 10)
    assert np.array_equal(a, b)
    trace = sim.run_episode(gen, rec, ref, env, 10, 7)
    assert a[1] == sim.observed_reference_surprisal(trace, ref)


def test_evaluate_refuses_no_seeds():
    env, ref = sim.thermostat_env(3, [0, 2])
    gen, rec = sim.thermostat_agent(env, [0, 2], seed=1)
    with pytest.raises(ValueError, match="at least one seed"):
        sim.evaluate(gen, rec, ref, env, [], 10)
