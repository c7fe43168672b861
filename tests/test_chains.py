"""Dense builders against their per-row counterparts.

Each dense (N, ...) builder in `chains` has a second route that builds one
row or one context at a time: `latent_prior_row`, `transition_row`,
`RecognitionModel.joint` and `objectives.step_objective`. The properties
below check that the two routes agree on random, floored and hard-zero
instances, on both ticks and tick periods 1-3. The product builders'
fixed contraction plans, and belief_table's broadcast product, are checked
against np.einsum(..., optimize=True) bit for bit, and the unmasked edge
cost against its masked build (`masked_edge_cost`).
"""

import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascontrol import chains, control, objectives, oracle, sim
from ascontrol.errors import EnumerationBudgetError
from ascontrol.instances import hard_zero_instance, random_instance
from ascontrol.logspace import safe_log
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


def per_state_transition_matrix(gen, tick):
    """P built one state at a time: each state's own prior row through
    transition_matrix's product and successor gather, with no class map."""
    prior = chains.latent_prior(gen, tick)
    lik, pol0 = chains.lik_over_latents(gen), chains.pol0_over_latents(gen)
    return np.concatenate([chains._over_successors(
        gen.spec, chains._product("xl,lo,loa->xoal", prior[x:x + 1], lik, pol0))
        for x in range(gen.spec.n_states)])


def thermostat_model():
    env, _ = sim.thermostat_env(3, [0, 2])                     # 864 states
    return sim.thermostat_agent(env, [0, 2], 0)[0]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), cards=st.tuples(*[st.integers(1, 3)] * 6),
       tick_period=st.integers(1, 3), hard_zero=st.booleans(), tick=st.booleans())
def test_transition_matrix_is_the_per_state_build(seed, cards, tick_period, hard_zero,
                                                  tick):
    make = hard_zero_instance if hard_zero else random_instance
    gen = make(seed, cards, tick_period)[0]
    got = chains.transition_matrix(gen, tick)
    assert np.array_equal(bits(got), bits(per_state_transition_matrix(gen, tick)))


@pytest.mark.parametrize("tick", [True, False])
def test_transition_matrix_is_the_per_state_build_on_the_thermostat(tick):
    gen = thermostat_model()
    got = chains.transition_matrix(gen, tick)
    assert np.array_equal(bits(got), bits(per_state_transition_matrix(gen, tick)))


def test_transition_matrix_build_holds_little_beside_its_output():
    # the product runs on one prior row per (s1, s2, a) class (24 of 864
    # on the thermostat), so no (N, O, A, L) array is made on the way
    gen = thermostat_model()
    chains.generative_pieces(gen, True)                        # kept: not P's
    tracemalloc.start()
    try:
        out = chains.transition_matrix(gen, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 864 * 864 * 8
    assert peak < 1.5 * out.nbytes, peak


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


def test_model_only_log_tables_are_kept_per_model():
    gen, rec, ref = random_instance(10)
    pc = chains.tick_pieces(gen, rec, ref, True)
    j_lat = chains.reference_over_latents(ref)
    l_lat = gen.pieces["neg_log_lik"]
    assert chains.reference_over_latents(ref) is j_lat
    assert ref.pieces["neg_log_ref"] is j_lat
    for table in (j_lat, l_lat):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0
    assert np.array_equal(bits(l_lat), bits(-np.log(chains.lik_over_latents(gen))))
    assert np.array_equal(bits(chains.edge_cost(gen, ref, pc["prior"], pc["belief"])),
                          bits(pc["cost"]))
    # a rebuilt model starts empty
    assert replace(ref).pieces == {} and replace(gen).pieces == {}
    assert chains.reference_over_latents(replace(ref)) is not j_lat


def masked_edge_cost(gen, ref, prior, belief):
    """edge_cost as built before its passes ran unmasked: each integrand is
    written into one zeroed buffer where belief > 0 only."""
    j_lat = chains.reference_over_latents(ref)
    l_lat = -safe_log(chains.lik_over_latents(gen))
    live = belief > 0.0
    buf = np.zeros(belief.shape)
    j = np.multiply(belief, j_lat.T[None, :, None, :], out=buf, where=live).sum(axis=-1)
    l = np.multiply(belief, l_lat.T[None, :, None, :], out=buf, where=live).sum(axis=-1)
    np.log(belief, out=buf, where=live)
    np.subtract(buf, safe_log(prior)[:, None, None, :], out=buf, where=live)
    kl = np.multiply(belief, buf, out=buf, where=live).sum(axis=-1)
    return j + l + kl


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), cards=st.tuples(*[st.integers(1, 3)] * 6),
       tick_period=st.integers(1, 3), hard_zero=st.booleans(), tick=st.booleans(),
       stacked=st.sampled_from([None, "s2", "a2", "s1", "a1"]))
def test_edge_cost_is_its_masked_build(seed, cards, tick_period, hard_zero, tick,
                                       stacked):
    """Bit for bit, ±0 included, where hard zeros put 0 * inf and log 0 off
    the belief's support and infinite costs on it."""
    gen, rec, ref = (hard_zero_instance(seed, cards, tick_period) if hard_zero
                     else random_instance(seed, cards=cards, tick_period=tick_period))
    if stacked is not None:
        logits = control.extract_params(gen, rec).q_logits[stacked]
        rng = np.random.default_rng(seed)
        rec = rec.stacked(stacked, logits + rng.standard_normal((2,) + logits.shape))
    prior, belief = chains.latent_prior(gen, tick), chains.belief_table(rec, tick)
    assert np.array_equal(bits(chains.edge_cost(gen, ref, prior, belief)),
                          bits(masked_edge_cost(gen, ref, prior, belief)))


def test_edge_cost_is_its_masked_build_on_the_thermostat():
    env, ref = sim.thermostat_env(3, [0, 2])
    gen, rec = sim.thermostat_agent(env, [0, 2], 0)
    for tick in (True, False):
        prior, belief = chains.latent_prior(gen, tick), chains.belief_table(rec, tick)
        assert np.array_equal(bits(chains.edge_cost(gen, ref, prior, belief)),
                              bits(masked_edge_cost(gen, ref, prior, belief)))


# ---------------------------------------------------------------------------
# the kept recognition half


def test_a_kept_recognition_half_is_built_once_per_tick(monkeypatch):
    gen, rec, ref = random_instance(9)
    fresh = {}
    for t in (True, False):
        prior, belief = chains.latent_prior(gen, t), chains.belief_table(rec, t)
        marg = chains.obs_action_marginal(gen, prior)
        cost = chains.edge_cost(gen, ref, prior, belief)
        fresh[t] = {"prior": prior, "belief": belief, "marg": marg, "cost": cost,
                    "ev": chains.expected_edge_cost(marg, cost)}
    calls = []
    belief_table = chains.belief_table
    monkeypatch.setattr(chains, "belief_table",
                        lambda r, tick: calls.append(tick) or belief_table(r, tick))
    kept = {t: chains.tick_pieces(gen, rec, ref, t) for t in (True, False)}
    qc = chains.recognition_chain(gen.spec, kept[True])
    for t in (True, False):
        assert chains.tick_pieces(gen, rec, ref, t) is kept[t]
        for key, arr in fresh[t].items():
            assert np.array_equal(bits(kept[t][key]), bits(arr))
    # the chain is carried by the kept pieces
    assert chains.recognition_chain(gen.spec, chains.tick_pieces(gen, rec, ref, True)) is qc
    for key in ("belief", "cost", "ev", "qc"):
        with pytest.raises(ValueError, match="read-only"):
            kept[True][key][0] = 0.0
    assert calls == [True, False]
    # another generative or reference model builds afresh, and is then kept
    # in place of the last pair; the belief reads the recognition model
    # alone, so each switch reuses it
    other = chains.tick_pieces(replace(gen), rec, ref, True)
    assert other is not kept[True] and "qc" not in other
    assert chains.tick_pieces(gen, rec, replace(ref), True) is not kept[True]
    again = chains.tick_pieces(gen, rec, ref, True)
    assert again is not kept[True]
    assert other["belief"] is again["belief"] is kept[True]["belief"]
    assert calls == [True, False]


def test_a_kept_recognition_half_still_meets_the_ceiling(monkeypatch):
    gen, rec, ref = random_instance(5, floor=True)             # 64 states
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


# ---------------------------------------------------------------------------
# the successor map


@settings(max_examples=40, deadline=None)
@given(cards=st.tuples(*[st.integers(1, 3)] * 6))
def test_successor_map_is_the_inverse_of_each_states_oal_index(cards):
    spec = ModelSpec(*cards)
    lat = chains.Lattice.of(spec)
    o_n, a_n, l_n = spec.card_o, spec.card_a, spec.n_latents
    assert lat.state_of_oal.shape == (o_n, a_n, l_n)
    flat = lat.state_of_oal.reshape(-1)
    assert np.array_equal(np.sort(flat), np.arange(spec.n_states))
    assert np.array_equal(flat[lat.oal_of_state], np.arange(spec.n_states))
    assert np.array_equal(lat.oal_of_state[flat], np.arange(spec.n_states))
    for o, a, l in np.ndindex(o_n, a_n, l_n):
        x = CompleteState.from_flat(int(lat.state_of_oal[o, a, l]), spec)
        assert (x.o, x.a) == (o, a)
        assert (x.s1, x.s2, x.a1, x.a2) == np.unravel_index(l, spec.latent_dims)


# ---------------------------------------------------------------------------
# fixed contraction plans of the product builders

try:
    from numpy._core import einsumfunc
except ImportError:  # numpy 1.x
    from numpy.core import einsumfunc

# the subscripts of each product builder's contraction
PRODUCTS = ("xX,XA,xXs,sAb->xsXbA",                                 # latent_prior
            "xl,lo,loa->xoal",                                      # transition_matrix
            "...xoa,...xoal->...xoal")                              # qchain_matrix

# the contraction of belief_table's broadcast product, sentinel factors in
# (s2, a2, s1, a1) order
BELIEF = "...xowX,...xowXA,...xowXAs,...xowsAb->...xowsXbA"


def build_products(gen, rec, tick):
    """Run the four product builders on one instance and tick."""
    chains.latent_prior(gen, tick)
    chains.transition_matrix(gen, tick)
    chains.qchain_matrix(gen.spec, chains.generative_pieces(gen, tick)["marg"],
                         chains.belief_table(rec, tick))


@contextmanager
def checked_products():
    """Compare each contraction the product builders run, bit for bit, with
    np.einsum(..., optimize=True); yields the (subscripts, shapes) run."""
    product, seen = chains._product, []

    def checked(subscripts, *ops):
        out = product(subscripts, *ops)
        want = np.einsum(subscripts, *ops, optimize=True)
        assert np.array_equal(bits(out), bits(want)), subscripts
        seen.append((subscripts, tuple(op.shape for op in ops)))
        return out

    with patch.object(chains, "_product", checked):
        yield seen


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 16), cards=st.tuples(*[st.integers(1, 3)] * 6),
       tick_period=st.integers(1, 3), tick=st.booleans())
def test_product_builders_give_the_bits_of_einsum_optimize(seed, cards, tick_period,
                                                           tick):
    gen, rec, _ = random_instance(seed, cards=cards, tick_period=tick_period)
    with checked_products() as seen:
        build_products(gen, rec, tick)
    assert {subscripts for subscripts, _ in seen} == set(PRODUCTS)


def test_product_builders_give_the_bits_of_einsum_optimize_on_the_thermostat():
    env, _ = sim.thermostat_env(3, [0, 2])                     # 864 states
    gen, rec = sim.thermostat_agent(env, [0, 2], 0)
    with checked_products() as seen:
        for tick in (True, False):
            build_products(gen, rec, tick)
    assert {subscripts for subscripts, _ in seen} == set(PRODUCTS)


def test_plans_are_kept_per_subscripts_and_shapes(monkeypatch):
    monkeypatch.setattr(chains, "_PLANS", {})
    small = random_instance(11, cards=(2, 2, 2, 2, 2, 2))
    other = random_instance(12, cards=(3, 1, 2, 2, 3, 1), tick_period=3)
    with checked_products() as seen:
        for gen, rec, _ in (small, other, small):
            for tick in (True, False):
                build_products(gen, rec, tick)
    shapes = {}
    for subscripts, shape in seen:
        shapes.setdefault(subscripts, set()).add(shape)
    assert all(len(s) == 2 for s in shapes.values())           # same subscripts
    assert set(chains._PLANS) == set(seen)


def test_fd_gradients_plan_each_product_once(monkeypatch):
    """Validate's first gradient instance: every contraction plan of the
    product builders is computed at most once per (subscripts, shapes)
    over the whole finite-difference check, each factor's stacked belief
    included."""
    gen, rec, ref = random_instance(3 * 6000, cards=(2, 2, 1, 2, 2, 1))
    params = control.extract_params(gen, rec)
    monkeypatch.setattr(chains, "_PLANS", {}, raising=False)
    einsum_path, calls = np.einsum_path, Counter()

    def counted(subscripts, *ops, **kwargs):
        if subscripts in PRODUCTS:
            calls[subscripts, tuple(np.shape(op) for op in ops)] += 1
        return einsum_path(subscripts, *ops, **kwargs)

    monkeypatch.setattr(einsumfunc, "einsum_path", counted)    # np.einsum's
    monkeypatch.setattr(np, "einsum_path", counted)
    control.fd_gradients(gen, rec, ref, params, X0, 2, 0.1)
    assert calls and max(calls.values()) == 1, calls
    # stacked beliefs reach the chain product, which plans them once
    assert any(len(shapes[1]) == 5 for (subscripts, shapes) in calls
               if subscripts == PRODUCTS[2])


def belief_by_einsum(rec, tick):
    """The belief as np.einsum(BELIEF, ..., optimize=True) gives it."""
    spec = rec.spec
    sent = rec.sentinel
    q_s2 = sent["s2"] if tick else np.broadcast_to(
        chains.Lattice.of(spec).hold_s2[:, None, None, :],
        (spec.n_states, spec.card_o, spec.card_a, spec.card_s2))
    joint = np.einsum(BELIEF, q_s2, sent["a2"], sent["s1"], sent["a1"], optimize=True)
    return joint.reshape(joint.shape[:-4] + (spec.n_latents,))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), cards=st.tuples(*[st.integers(1, 3)] * 6),
       tick_period=st.integers(1, 3), hard_zero=st.booleans(), tick=st.booleans(),
       stacked=st.sampled_from([None, "s2", "a2", "s1", "a1"]))
def test_belief_table_gives_the_bits_of_einsum_optimize(seed, cards, tick_period,
                                                         hard_zero, tick, stacked):
    gen, rec, _ = (hard_zero_instance(seed, cards, tick_period) if hard_zero
                   else random_instance(seed, cards=cards, tick_period=tick_period))
    if stacked is not None:
        # three candidates of one factor on a leading axis
        logits = control.extract_params(gen, rec).q_logits[stacked]
        rng = np.random.default_rng(seed)
        rec = rec.stacked(stacked, logits + rng.standard_normal((3,) + logits.shape))
    got = chains.belief_table(rec, tick)
    assert got.flags.c_contiguous
    assert np.array_equal(bits(got), bits(belief_by_einsum(rec, tick)))


def test_belief_table_gives_the_bits_of_einsum_optimize_on_the_thermostat():
    env, _ = sim.thermostat_env(3, [0, 2])
    rec = sim.thermostat_agent(env, [0, 2], 0)[1]
    for tick in (True, False):
        assert np.array_equal(bits(chains.belief_table(rec, tick)),
                              bits(belief_by_einsum(rec, tick)))


# ---------------------------------------------------------------------------
# stacked recognition candidates


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 16), cards=st.tuples(*[st.integers(1, 3)] * 6),
       tick_period=st.integers(1, 3), hard_zero=st.booleans(), tick=st.booleans())
def test_stacked_candidates_give_the_single_builds_bit_for_bit(seed, cards, tick_period,
                                                               hard_zero, tick):
    """Each row of a stacked build of the recognition pieces is the single
    build of its candidate, for every factor, hard zeros (and the NaN and
    infinite costs they bring) included."""
    gen, rec, ref = (hard_zero_instance(seed, cards, tick_period) if hard_zero
                     else random_instance(seed, cards=cards, tick_period=tick_period))
    rng = np.random.default_rng(seed)
    for key, logits in control.extract_params(gen, rec).q_logits.items():
        # two candidates off the model's logits; hard zeros stay at -inf
        cands = logits + rng.standard_normal((2,) + logits.shape)
        stacked = chains.tick_pieces(gen, rec.stacked(key, cands), ref, tick)
        chains.recognition_chain(gen.spec, stacked)
        # the non-tick belief reads no s2 sentinel, so it is not stacked
        assert stacked["belief"].ndim == (4 if key == "s2" and not tick else 5)
        for j, cand in enumerate(cands):
            single = chains.tick_pieces(gen, rec.with_logits({key: cand}), ref, tick)
            chains.recognition_chain(gen.spec, single)
            for name in ("belief", "cost", "ev", "qc"):
                row = np.broadcast_to(stacked[name], (2,) + single[name].shape)[j]
                assert np.array_equal(bits(row), bits(single[name])), (key, name, j)
