"""Dense builders against their per-row counterparts.

Each dense (N, ...) builder in `chains` has a second route that builds one
row or one context at a time: `latent_prior_row`, `transition_row`,
`RecognitionModel.joint` and `objectives.step_objective`; the per-state
surprisals `objectives.reference_surprisal` and `likelihood_surprisal`
are the second route to `state_cost` and the per-latent log tables. The
properties below check that the two routes agree on random, floored and
hard-zero instances, on both ticks and tick periods 1-3. The broadcast
products of the product builders are checked against np.einsum(...,
optimize=True) bit for bit, the unmasked edge cost against its masked
build (`masked_edge_cost`), and belief_table's x_prev rows and the edge
cost that tick_pieces builds from them, one block at a time, against the
whole belief's."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascontrol import chains, control, objectives, oracle, sim
from ascontrol.errors import EnumerationBudgetError
from ascontrol.instances import hard_zero_instance, random_instance
from ascontrol.logspace import safe_log
from ascontrol.model import CompleteState, ModelSpec, RecognitionContext, RecognitionModel
from ascontrol.objectives import step_objective
from conftest import bits, instances, seed3_thermostat

TOL = 1e-12


def instance_with_stack(seed, cards, tick_period, hard_zero, stacked, count=2):
    """An instance whose recognition model is, if `stacked` names a factor,
    `count` candidates of that factor off the model's logits."""
    gen, rec, ref = (hard_zero_instance(seed, cards, tick_period) if hard_zero
                     else random_instance(seed, cards=cards, tick_period=tick_period))
    if stacked is not None:
        logits = control.extract_params(gen, rec).q_logits[stacked]
        rng = np.random.default_rng(seed)
        rec = rec.with_logits({stacked: logits + rng.standard_normal((count,) + logits.shape)})
    return gen, rec, ref


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
    """Every (x_prev, o, a) with its recognition context."""
    for x in states(spec):
        for o in range(spec.card_o):
            for a in range(spec.card_a):
                yield x, o, a, RecognitionContext(o=o, a=a, x_prev=x)


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
    np.einsum's product and the successor gather, with no class map."""
    prior = chains.latent_prior(gen, tick)
    lik, pol0 = chains.lik_over_latents(gen), chains.pol0_over_latents(gen)
    return np.concatenate([chains._over_successors(
        gen.spec, np.einsum("xl,lo,loa->xoal", prior[x:x + 1], lik, pol0, optimize=True))
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


@settings(max_examples=40, deadline=None)
@given(inst=instances())
def test_per_state_surprisals_are_the_builders_entries(inst):
    """state_cost, reference_over_latents and -log lik_over_latents at each
    complete state are its reference_surprisal and likelihood_surprisal,
    bit for bit, infinite ones included."""
    gen, _, ref = inst
    spec, lat = gen.spec, chains.Lattice.of(gen.spec)
    cost = chains.state_cost(gen, ref)
    j_lat, l_lat = chains.reference_over_latents(ref), -safe_log(chains.lik_over_latents(gen))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)        # zero-mass states
        for x in states(spec):
            i, o = x.flat(spec), x.o
            j = objectives.reference_surprisal(ref, x)
            l = objectives.likelihood_surprisal(gen, x)
            l_of_x = lat.lat_of_state[i]
            assert np.array_equal(bits([cost[i], j_lat[l_of_x, o], l_lat[l_of_x, o]]),
                                  bits([j + l, j, l]))


def test_transition_rows_build_holds_little_beside_its_output():
    # the product runs on one prior row per (s1, s2, a) class (24 of 864
    # on the thermostat), so no (N, O, A, L) array, 36 times the output, is
    # made on the way: the (K, O, A, L) product and its gather are the output's
    # size
    gen = thermostat_model()
    chains.generative_pieces(gen, True)                        # kept: not P's
    tracemalloc.start()
    try:
        out = chains.transition_rows(gen, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (24, 864)
    assert peak < 4 * out.nbytes, peak


def traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def kept_arrays(pieces):
    """Every array kept in a model's `pieces`, those of a kept dict included."""
    return [arr for value in pieces.values()
            for arr in (value.values() if isinstance(value, dict) else (value,))
            if isinstance(arr, np.ndarray)]


def test_read_path_builds_hold_no_whole_belief():
    # the generative rate keeps P's class rows of its two ticks, and neither
    # it nor the Bellman operators hold an (N, N) array; the edge cost both
    # read is built from belief rows one x_prev block at a time, so neither
    # holds an (N, O, A, L) array, which is N^2 (N * O * A * L). A whole
    # belief or a dense P is past both bounds
    gen, rec, ref = seed3_thermostat()
    n = gen.spec.n_states
    rate = traced_peak(lambda: oracle.exact_average_rate(gen, rec, ref, X0, 32, 16))
    assert rate < n * n * 8, rate
    assert {("P", True), ("P", False)} <= set(gen.pieces)
    assert all(arr.shape != (n, n) for arr in kept_arrays(gen.pieces))
    assert rec.pieces["belief"] == {}
    gen, rec, ref = seed3_thermostat()
    ops = traced_peak(lambda: control._BellmanOps(gen, rec, ref))
    assert ops < n * n * 8, ops
    assert rec.pieces["belief"] == {}


@settings(max_examples=30, deadline=None)
@given(inst=instances(), tick=st.booleans())
def test_recognition_joint_matches_belief_table(inst, tick):
    _, rec, _ = inst
    spec = rec.spec
    dense = chains.belief_table(rec, tick, slice(None))
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


def tick_prior_tables(gen):
    """posterior_recognition_tables with every factor taken from the tick
    prior alone: a row the tick prior leaves no mass is uniform."""
    spec = gen.spec
    prior = chains.latent_prior(gen, True)
    joint = (prior[:, None, None, :] * chains.lik_over_latents(gen).T[None, :, None, :]
             * chains.pol0_over_latents(gen).transpose(1, 2, 0)[None])
    z = joint.sum(axis=3, keepdims=True)
    with np.errstate(invalid="ignore"):
        joint = np.where(z > 0.0, joint / z, 1.0 / joint.shape[3])
    joint = joint.reshape((spec.n_states, spec.card_o, spec.card_a) + spec.latent_dims)

    def norm(arr):
        s = arr.sum(axis=-1, keepdims=True)
        out = np.full(arr.shape, 1.0 / arr.shape[-1])
        return np.divide(arr, s, out=out, where=s > 0.0)

    return {"s2": norm(joint.sum(axis=(3, 5, 6))),
            "a2": norm(joint.sum(axis=(3, 5))),
            "s1": norm(joint.sum(axis=5).transpose(0, 1, 2, 4, 5, 3)),
            "a1": norm(joint.sum(axis=4).transpose(0, 1, 2, 3, 5, 4))}


def test_floored_posterior_is_the_tick_priors():
    # a floored model's tick prior leaves no row without mass, so the exact
    # filtering posterior of the seed-3 thermostat (the init bundle's
    # recognition tables) is the tick prior's arithmetic, bit for bit
    gen, _, _ = seed3_thermostat()
    got, want = chains.posterior_recognition_tables(gen), tick_prior_tables(gen)
    for name in ("s2", "a2", "s1", "a1"):
        assert np.array_equal(bits(got[name]), bits(want[name])), name


@settings(max_examples=60, deadline=None)
@given(inst=instances())
def test_exact_filtering_posterior_drives_the_generative_chain(inst):
    # at the exact filtering posterior the recognition chain is the
    # policy-embedded chain, on tick and non-tick steps alike: a non-tick
    # step holds s2, so with hard zeros it reads rows given an s2 that the
    # tick prior leaves no mass
    gen, _, _ = inst
    rec = RecognitionModel(gen.spec, chains.posterior_recognition_tables(gen))
    for tick in (True, False):
        marg = chains.generative_pieces(gen, tick)["marg"]
        qc = chains.qchain_matrix(gen.spec, marg, chains.belief_table(rec, tick, slice(None)))
        assert np.max(np.abs(qc - chains.transition_matrix(gen, tick))) <= 1e-12, tick


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
    belief = chains.recognition_belief(rec, True)
    assert np.array_equal(bits(chains.edge_cost(gen, ref, pc["prior"], belief)),
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
    gen, rec, ref = instance_with_stack(seed, cards, tick_period, hard_zero, stacked)
    prior, belief = chains.latent_prior(gen, tick), chains.belief_table(rec, tick, slice(None))
    assert np.array_equal(bits(chains.edge_cost(gen, ref, prior, belief)),
                          bits(masked_edge_cost(gen, ref, prior, belief)))


def test_edge_cost_is_its_masked_build_on_the_thermostat():
    env, ref = sim.thermostat_env(3, [0, 2])
    gen, rec = sim.thermostat_agent(env, [0, 2], 0)
    for tick in (True, False):
        prior = chains.latent_prior(gen, tick)
        belief = chains.belief_table(rec, tick, slice(None))
        assert np.array_equal(bits(chains.edge_cost(gen, ref, prior, belief)),
                              bits(masked_edge_cost(gen, ref, prior, belief)))


# ---------------------------------------------------------------------------
# the kept recognition half


def test_a_kept_recognition_half_is_built_once_per_tick(monkeypatch):
    gen, rec, ref = random_instance(9, cards=(3, 2, 2, 2, 2, 2))
    fresh = {}
    for t in (True, False):
        prior, belief = chains.latent_prior(gen, t), chains.belief_table(rec, t, slice(None))
        marg = chains.obs_action_marginal(gen, prior)
        cost = chains.edge_cost(gen, ref, prior, belief)
        fresh[t] = {"prior": prior, "marg": marg, "cost": cost,
                    "ev": chains.expected_edge_cost(marg, cost)}
    calls = []
    belief_table = chains.belief_table
    monkeypatch.setattr(chains, "belief_table", lambda r, tick, rows:
                        calls.append((tick, rows)) or belief_table(r, tick, rows))
    kept = {t: chains.tick_pieces(gen, rec, ref, t) for t in (True, False)}
    # no whole belief is kept, so the edge cost reads belief rows, one block
    # per observation of x_prev (3 blocks of 96 / 3 rows)
    blocks = [slice(0, 32), slice(32, 64), slice(64, 96)]
    assert calls == [(True, rows) for rows in blocks] + [(False, rows) for rows in blocks]
    pc = chains.recognition_pieces(gen, rec, ref, True)
    qc, belief = pc["qc"], pc["belief"]
    for t in (True, False):
        assert chains.tick_pieces(gen, rec, ref, t) is kept[t]
        assert set(kept[t]) - {"qc", "belief"} == set(fresh[t])
        for key, arr in fresh[t].items():
            assert np.array_equal(bits(kept[t][key]), bits(arr))
    # the chain and the belief are carried by the kept pieces; the belief is
    # the one whole build of the tick
    assert chains.recognition_pieces(gen, rec, ref, True) is pc is kept[True]
    assert calls[6:] == [(True, slice(None))]
    assert chains.recognition_belief(rec, True) is belief
    for arr in (kept[True]["cost"], kept[True]["ev"], qc, belief):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    # another generative or reference model builds afresh, and is then kept
    # in place of the last pair; the belief reads the recognition model
    # alone, so each switch reads the kept one and builds no rows
    other = chains.tick_pieces(replace(gen), rec, ref, True)
    assert other is not kept[True] and "qc" not in other
    assert chains.tick_pieces(gen, rec, replace(ref), True) is not kept[True]
    again = chains.tick_pieces(gen, rec, ref, True)
    assert again is not kept[True]
    assert np.array_equal(bits(again["cost"]), bits(kept[True]["cost"]))
    assert chains.recognition_belief(rec, True) is belief
    assert calls[6:] == [(True, slice(None))]


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
    pc = dict(chains.tick_pieces(gen, rec, ref, True),
              belief=chains.recognition_belief(rec, True))
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
    "chains.belief_table": lambda g, r, f, pc, v, p: chains.belief_table(r, True, slice(None)),
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
    "control.mc_path_integral_value(feedback)": lambda g, r, f, pc, v, p:
        control.mc_path_integral_value(g, r, f, X0, 2, 0.0, mode="feedback", n_rollouts=4),
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


# broadcast products against np.einsum(..., optimize=True)

# the contraction of belief_table's broadcast product, recognition factors in
# (s2, a2, s1, a1) order
BELIEF = "...xowX,...xowXA,...xowXAs,...xowsAb->...xowsXbA"


def products_by_einsum(gen, rec, tick):
    """latent_prior, transition_matrix and qchain_matrix (of the whole
    belief) as np.einsum(..., optimize=True) gives their products."""
    spec, lat = gen.spec, chains.Lattice.of(gen.spec)
    d2, d1 = chains.world_factors(gen, tick)
    prior = np.einsum("xX,XA,xXs,sAb->xsXbA", d2, gen.pol2.reshaped(), d1,
                      gen.pol1.reshaped(), optimize=True).reshape(spec.n_states, -1)
    t4 = np.einsum("xl,lo,loa->xoal", prior[lat.sa_reps], chains.lik_over_latents(gen),
                   chains.pol0_over_latents(gen), optimize=True)
    q4 = np.einsum("...xoa,...xoal->...xoal", chains.generative_pieces(gen, tick)["marg"],
                   chains.belief_table(rec, tick, slice(None)), optimize=True)
    return (prior, chains._over_successors(spec, t4)[lat.sa_class],
            chains._over_successors(spec, q4))


def assert_products_give_the_bits_of_einsum(gen, rec, tick):
    marg = chains.generative_pieces(gen, tick)["marg"]
    got = (chains.latent_prior(gen, tick), chains.transition_matrix(gen, tick),
           chains.qchain_matrix(gen.spec, marg, chains.belief_table(rec, tick, slice(None))))
    for name, out, want in zip(("latent_prior", "transition_matrix", "qchain_matrix"),
                               got, products_by_einsum(gen, rec, tick)):
        assert np.array_equal(bits(out), bits(want)), name


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 16), cards=st.tuples(*[st.integers(1, 3)] * 6),
       tick_period=st.integers(1, 3), hard_zero=st.booleans(), tick=st.booleans(),
       stacked=st.sampled_from([None, "s2", "a2", "s1", "a1"]))
def test_product_builders_give_the_bits_of_einsum_optimize(seed, cards, tick_period,
                                                           hard_zero, tick, stacked):
    # a stack of candidates reaches qchain_matrix with a leading axis
    gen, rec, _ = instance_with_stack(seed, cards, tick_period, hard_zero, stacked)
    assert_products_give_the_bits_of_einsum(gen, rec, tick)


def test_product_builders_give_the_bits_of_einsum_optimize_on_the_thermostat():
    env, _ = sim.thermostat_env(3, [0, 2])                     # 864 states
    gen, rec = sim.thermostat_agent(env, [0, 2], 0)
    for tick in (True, False):
        assert_products_give_the_bits_of_einsum(gen, rec, tick)


def belief_by_einsum(rec, tick):
    """The belief as np.einsum(BELIEF, ..., optimize=True) gives it."""
    spec = rec.spec
    sent = rec.tables
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
    # three candidates of one factor on a leading axis
    _, rec, _ = instance_with_stack(seed, cards, tick_period, hard_zero, stacked, count=3)
    got = chains.belief_table(rec, tick, slice(None))
    assert got.flags.c_contiguous
    assert np.array_equal(bits(got), bits(belief_by_einsum(rec, tick)))


def test_belief_table_gives_the_bits_of_einsum_optimize_on_the_thermostat():
    env, _ = sim.thermostat_env(3, [0, 2])
    rec = sim.thermostat_agent(env, [0, 2], 0)[1]
    for tick in (True, False):
        assert np.array_equal(bits(chains.belief_table(rec, tick, slice(None))),
                              bits(belief_by_einsum(rec, tick)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), cards=st.tuples(*[st.integers(1, 3)] * 6),
       tick_period=st.integers(1, 3), hard_zero=st.booleans(), tick=st.booleans(),
       stacked=st.sampled_from([None, "s2", "a2", "s1", "a1"]), data=st.data())
def test_belief_rows_are_the_rows_of_the_whole_build(seed, cards, tick_period, hard_zero,
                                                     tick, stacked, data):
    _, rec, _ = instance_with_stack(seed, cards, tick_period, hard_zero, stacked)
    n = rec.spec.n_states
    start = data.draw(st.integers(0, n - 1))
    rows = slice(start, data.draw(st.integers(start + 1, n)))
    got = chains.belief_table(rec, tick, rows)
    assert got.flags.c_contiguous
    whole = chains.belief_table(rec, tick, slice(None))
    assert np.array_equal(bits(got), bits(whole[..., rows, :, :, :]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), cards=st.tuples(*[st.integers(1, 3)] * 6),
       tick_period=st.integers(1, 3), hard_zero=st.booleans(), tick=st.booleans(),
       stacked=st.sampled_from([None, "s2", "a2", "s1", "a1"]), kept=st.booleans())
def test_blocked_edge_cost_is_the_whole_build(seed, cards, tick_period, hard_zero, tick,
                                              stacked, kept):
    """tick_pieces' cost and ev, built one x_prev block at a time from belief
    rows (or, with `kept`, from the kept whole belief), are edge_cost of the
    whole belief and its expectation, bit for bit."""
    gen, rec, ref = instance_with_stack(seed, cards, tick_period, hard_zero, stacked)
    prior = chains.latent_prior(gen, tick)
    marg = chains.obs_action_marginal(gen, prior)
    want = chains.edge_cost(gen, ref, prior, chains.belief_table(rec, tick, slice(None)))
    if kept:
        chains.recognition_belief(rec, tick)
    pc = chains.tick_pieces(gen, rec, ref, tick)
    assert (tick in rec.pieces["belief"]) == kept          # no whole belief built
    assert np.array_equal(bits(pc["cost"]), bits(want))
    assert np.array_equal(bits(pc["ev"]), bits(chains.expected_edge_cost(marg, want)))


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
        stacked = chains.recognition_pieces(gen, rec.with_logits({key: cands}), ref, tick)
        # the non-tick belief reads no s2 factor, so it is not stacked
        assert stacked["belief"].ndim == (4 if key == "s2" and not tick else 5)
        for j, cand in enumerate(cands):
            single = chains.recognition_pieces(gen, rec.with_logits({key: cand}), ref, tick)
            for name in ("belief", "cost", "ev", "qc"):
                row = np.broadcast_to(stacked[name], (2,) + single[name].shape)[j]
                assert np.array_equal(bits(row), bits(single[name])), (key, name, j)
