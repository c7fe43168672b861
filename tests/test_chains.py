"""Dense builders against their per-row counterparts.

Each dense (N, ...) builder in `chains` has a second route that builds one
row or one context at a time: `latent_prior_row`, `transition_row`,
`RecognitionModel.joint` and `objectives.step_objective`. The properties
below check that the two routes agree on random, floored and hard-zero
instances, on both ticks and tick periods 1-3.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascontrol import chains, control, objectives, oracle, sim
from ascontrol.errors import EnumerationBudgetError
from ascontrol.instances import hard_zero_instance, random_instance
from ascontrol.model import CompleteState, ModelSpec, RecognitionContext
from ascontrol.objectives import step_objective
from conftest import bits

TOL = 1e-12


@st.composite
def instances(draw):
    seed = draw(st.integers(0, 2 ** 16))
    cards = draw(st.tuples(*[st.integers(1, 2)] * 5 + [st.integers(1, 3)]))
    tick_period = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["plain", "floored", "hard-zero"]))
    if kind == "hard-zero":
        return hard_zero_instance(seed, cards, tick_period)
    return random_instance(seed, cards=cards, tick_period=tick_period,
                           floor=kind == "floored")


def assert_close(got, want):
    """Equal to TOL relative (absolute below 1); equal infinities pass."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    same_inf = np.isinf(got) & (got == want)
    with np.errstate(invalid="ignore"):
        close = np.abs(got - want) <= TOL * np.maximum(1.0, np.abs(want))
    assert np.all(same_inf | close), (got, want)


def states(spec):
    return [CompleteState.from_flat(i, spec) for i in range(spec.n_states)]


def contexts(spec):
    """Every (x_prev, o, a) with the filtering (sentinel) future."""
    for x in states(spec):
        for o in range(spec.card_o):
            for a in range(spec.card_a):
                yield x, o, a, RecognitionContext(o=o, a=a, x_prev=x, future=None)


@settings(max_examples=30, deadline=None)
@given(inst=instances(), tick=st.booleans())
def test_latent_prior_rows_match_dense(inst, tick):
    gen, _, _ = inst
    dense = chains.latent_prior(gen, tick)
    for x in states(gen.spec):
        assert_close(chains.latent_prior_row(gen, x, tick), dense[x.flat(gen.spec)])


@settings(max_examples=30, deadline=None)
@given(inst=instances(), tick=st.booleans())
def test_transition_rows_match_dense(inst, tick):
    gen, _, _ = inst
    dense = chains.transition_matrix(gen, tick)
    for x in states(gen.spec):
        assert_close(chains.transition_row(gen, x, tick), dense[x.flat(gen.spec)])


@settings(max_examples=30, deadline=None)
@given(inst=instances(), tick=st.booleans())
def test_recognition_joint_matches_belief_table(inst, tick):
    _, rec, _ = inst
    spec = rec.spec
    dense = chains.belief_table(rec, tick)
    for x, o, a, ctx in contexts(spec):
        assert_close(rec.joint(ctx, tick=tick).reshape(-1), dense[x.flat(spec), o, a])


@settings(max_examples=30, deadline=None)
@given(inst=instances(), tick=st.booleans())
def test_step_objective_matches_edge_cost(inst, tick):
    gen, rec, ref = inst
    spec = gen.spec
    cost = chains.tick_pieces(gen, rec, ref, tick)["cost"]
    for x, o, a, ctx in contexts(spec):
        assert_close(step_objective(gen, rec, ref, ctx, tick=tick).total,
                     cost[x.flat(spec), o, a])


# ---------------------------------------------------------------------------
# the cached generative half


def test_generative_half_is_rebuilt_for_a_rebuilt_model():
    gen, rec, ref = random_instance(7)
    for tick in (True, False):
        chains.tick_pieces(gen, rec, ref, tick)
    params = control.extract_params(gen, rec)
    rng = np.random.default_rng(0)
    params.pol_logits = {k: v + rng.standard_normal(v.shape)
                         for k, v in params.pol_logits.items()}
    by_apply, _ = control.apply_params(gen, rec, params)
    by_replace = replace(gen, pol1=by_apply.pol1)
    for g in (by_apply, by_replace):
        for tick in (True, False):
            half = chains.tick_pieces(g, rec, ref, tick)
            prior = chains.latent_prior(g, tick)
            assert np.array_equal(bits(half["prior"]), bits(prior))
            assert np.array_equal(bits(half["marg"]),
                                  bits(chains.obs_action_marginal(g, prior)))
            assert not np.array_equal(half["prior"], gen.pieces[tick]["prior"])


def test_generative_half_is_read_only():
    gen, rec, ref = random_instance(8)
    pc = chains.tick_pieces(gen, rec, ref, True)
    for key in ("prior", "marg"):
        assert pc[key] is chains.generative_pieces(gen, True)[key]
        with pytest.raises(ValueError, match="read-only"):
            pc[key][0] = 0.0
    assert pc["prior"] is gen.pieces[True]["prior"]


# ---------------------------------------------------------------------------
# the handed-on recognition half


def test_a_kept_recognition_half_is_built_once_per_tick(monkeypatch):
    gen, rec, ref = random_instance(9)
    fresh = {t: chains.tick_pieces(gen, rec, ref, t) for t in (True, False)}
    calls = []
    belief_table = chains.belief_table
    monkeypatch.setattr(chains, "belief_table",
                        lambda r, tick: calls.append(tick) or belief_table(r, tick))
    chains.keep_recognition_half(gen, rec, ref)
    kept = {t: chains.tick_pieces(gen, rec, ref, t) for t in (True, False)}
    qc = chains.recognition_chain(gen.spec, kept[True])
    for t in (True, False):
        assert chains.tick_pieces(gen, rec, ref, t) is kept[t]
        for key, arr in fresh[t].items():
            assert np.array_equal(bits(kept[t][key]), bits(arr))
    assert chains.recognition_chain(gen.spec, chains.tick_pieces(gen, rec, ref, True)) is qc
    for key in ("belief", "cost", "ev", "qc"):
        assert not kept[True][key].flags.writeable
    assert calls == [True, False]
    # another generative or reference model builds afresh, and so does any
    # call after the hand-off ends
    assert chains.tick_pieces(replace(gen), rec, ref, True) is not kept[True]
    assert chains.tick_pieces(gen, rec, replace(ref), True) is not kept[True]
    chains.drop_recognition_half(rec)
    assert rec.kept is None
    assert chains.tick_pieces(gen, rec, ref, True) is not kept[True]
    assert calls == [True, False, True, True, True]


def test_a_kept_recognition_half_still_meets_the_ceiling(monkeypatch):
    gen, rec, ref = random_instance(5, floor=True)             # 64 states
    chains.keep_recognition_half(gen, rec, ref)
    control._dfe_pieces(gen, rec, ref)
    monkeypatch.setattr(chains, "MAX_STATES", 63)
    with pytest.raises(EnumerationBudgetError):
        chains.tick_pieces(gen, rec, ref, True)
    with pytest.raises(EnumerationBudgetError):
        control.differential_free_energy(gen, rec, ref, X0, 2, 0.0)


# ---------------------------------------------------------------------------
# the complete-state ceiling


X0 = CompleteState(0, 0, 0, 0, 0, 0)
CTX = RecognitionContext(o=1, a=0, x_prev=X0)


@pytest.fixture(scope="module")
def built():
    """A 64-state instance with its per-tick pieces and solved value, built
    under the default ceiling (so every lattice lookup below is a cache hit)."""
    gen, rec, ref = random_instance(5, floor=True)
    pc = chains.tick_pieces(gen, rec, ref, True)
    value = control.relative_value_iteration(gen, rec, ref, tol=1e-8)
    params = control.extract_params(gen, rec)
    return gen, rec, ref, pc, value, params


DENSE_ENTRY_POINTS = {
    "chains.latent_prior": lambda g, r, f, pc, v, p: chains.latent_prior(g, True),
    "chains.transition_matrix": lambda g, r, f, pc, v, p: chains.transition_matrix(g, False),
    # tick_pieces in `built` already cached this tick's prior
    "chains.transition_matrix(prior)": lambda g, r, f, pc, v, p:
        chains.transition_matrix(g, True),
    "chains.transition_row": lambda g, r, f, pc, v, p: chains.transition_row(g, X0, True),
    "chains.belief_table": lambda g, r, f, pc, v, p: chains.belief_table(r, True),
    "chains.obs_action_marginal": lambda g, r, f, pc, v, p:
        chains.obs_action_marginal(g, pc["prior"]),
    "chains.edge_cost": lambda g, r, f, pc, v, p:
        chains.edge_cost(g, f, pc["prior"], pc["belief"]),
    "chains.qchain_matrix": lambda g, r, f, pc, v, p:
        chains.qchain_matrix(g.spec, pc["marg"], pc["belief"]),
    "chains.expand_edges": lambda g, r, f, pc, v, p: chains.expand_edges(pc["cost"], g.spec),
    "chains.state_cost": lambda g, r, f, pc, v, p: chains.state_cost(g, f),
    "chains.posterior_recognition_tables": lambda g, r, f, pc, v, p:
        chains.posterior_recognition_tables(g),
    "chains.rollout_density": lambda g, r, f, pc, v, p:
        chains.rollout_density(g, r, f, True, "feedback"),
    "control.relative_value_iteration": lambda g, r, f, pc, v, p:
        control.relative_value_iteration(g, r, f),
    "control.greedy_stationary_rate": lambda g, r, f, pc, v, p:
        control.greedy_stationary_rate(g, r, f, v),
    "control.greedy_rollout_rate": lambda g, r, f, pc, v, p:
        control.greedy_rollout_rate(g, r, f, v, X0, 10, 0),
    "control.optimal_transition": lambda g, r, f, pc, v, p: control.optimal_transition(g, v, X0),
    "control.kl_qstar_identity": lambda g, r, f, pc, v, p: control.kl_qstar_identity(g, v, X0),
    "control.mc_path_integral_value": lambda g, r, f, pc, v, p:
        control.mc_path_integral_value(g, r, f, X0, 2, 0.0, n_rollouts=4),
    "control.differential_free_energy": lambda g, r, f, pc, v, p:
        control.differential_free_energy(g, r, f, X0, 2, 0.0),
    "control.differential_free_energy(n_rollouts)": lambda g, r, f, pc, v, p:
        control.differential_free_energy(g, r, f, X0, 2, 0.0, n_rollouts=4, seed=0),
    "control.dfe_value_and_grad": lambda g, r, f, pc, v, p:
        control.dfe_value_and_grad(g, r, f, X0, 2, 0.0),
    "control.score_function_grad": lambda g, r, f, pc, v, p:
        control.score_function_grad(g, r, f, X0, 2, 0.0, 4, 0),
    "control.fd_gradients": lambda g, r, f, pc, v, p:
        control.fd_gradients(g, r, f, p, X0, 2, 0.0),
    "control.train": lambda g, r, f, pc, v, p: control.train(g, r, f, X0, 2, 1),
    "control.train(score)": lambda g, r, f, pc, v, p:
        control.train(g, r, f, X0, 2, 1, estimator="score"),
    "oracle.enumerate_trajectories": lambda g, r, f, pc, v, p:
        next(oracle.enumerate_trajectories(g, X0, 2)),
    "oracle.exact_marginal_likelihood": lambda g, r, f, pc, v, p:
        oracle.exact_marginal_likelihood(g, X0, [0, 1]),
    "oracle.exact_posterior": lambda g, r, f, pc, v, p: oracle.exact_posterior(g, X0, [0, 1]),
    "oracle.exact_step_posterior": lambda g, r, f, pc, v, p:
        oracle.exact_step_posterior(g, X0, 0),
    "oracle.exact_average_rate": lambda g, r, f, pc, v, p:
        oracle.exact_average_rate(g, r, f, X0, 2, 2, chain="recognition"),
    "oracle.exact_soft_value": lambda g, r, f, pc, v, p:
        oracle.exact_soft_value(g, r, f, X0, 2, 0.0, mode="feedback"),
    "oracle.exact_path_integral_value": lambda g, r, f, pc, v, p:
        oracle.exact_path_integral_value(g, r, f, X0, 2, 0.0),
    "objectives.variational_free_energy": lambda g, r, f, pc, v, p:
        objectives.variational_free_energy(g, r, CTX),
    "objectives.step_objective": lambda g, r, f, pc, v, p:
        objectives.step_objective(g, r, f, CTX),
}


@pytest.mark.parametrize("name", DENSE_ENTRY_POINTS)
def test_dense_entry_points_refuse_states_above_the_ceiling(built, monkeypatch, name):
    monkeypatch.setattr(chains, "MAX_STATES", 63)
    with pytest.raises(EnumerationBudgetError) as info:
        DENSE_ENTRY_POINTS[name](*built)
    assert (info.value.required, info.value.allowed) == (64, 63)


def test_the_ceiling_itself_is_allowed(built, monkeypatch):
    gen, rec, ref = built[:3]
    monkeypatch.setattr(chains, "MAX_STATES", 64)
    assert chains.Lattice.of(gen.spec).n_states == 64
    assert np.isfinite(control.differential_free_energy(gen, rec, ref, X0, 2, 0.0))


def test_thermostat_agent_refuses_states_above_the_ceiling(monkeypatch):
    env, _ = sim.thermostat_env(3, [0, 2])                     # 864 states
    monkeypatch.setattr(chains, "MAX_STATES", 863)
    with pytest.raises(EnumerationBudgetError) as info:
        sim.thermostat_agent(env, [0, 2], 0)
    assert (info.value.required, info.value.allowed) == (864, 863)


def test_lattice_is_not_built_above_the_ceiling():
    spec = ModelSpec(5, 4, 4, 4, 4, 4)
    assert chains.MAX_STATES < spec.n_states
    with pytest.raises(EnumerationBudgetError, match="5120 complete states"):
        chains.Lattice.of(spec)
    assert spec not in chains.Lattice._cache
