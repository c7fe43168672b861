"""The exact gradient of the differential free energy.

`control.dfe_value_and_grad` carries its backward pass in occupation form
(two sums per tick value). The per-step adjoint it replaced is kept below as
a reference, together with the accumulator's finalisation as it was before
its temporaries were trimmed, and the two routes are compared on random
and floored instances. The belief's weighted upstream gradient and the
softmax gradient of a table's rows are checked bit for bit against their
masked builds (`masked_weighted_upstream`, `reference_softmax_grad_rows`). Hard zeros check the positive-occupation rule of the
objective and its adjoint, and training checks that each parameter set's
recognition half is built once.
"""

import itertools
import math
import weakref
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ascontrol import chains, control, oracle
from ascontrol.instances import hard_zero_instance, random_instance, random_state
from ascontrol.logspace import safe_log, support_dot, worst_error
from ascontrol.model import REC_FACTORS, CompleteState, softmax_rows, tick_at
from conftest import bits, seed3_thermostat

X0 = CompleteState(0, 0, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# the per-step reference


def per_step_finalize(acc, pieces):
    """_GradAccumulator.finalize before its in-place trim: every
    (N, O, A, L) term as its own array, each factor's sum over the full
    product. Returns the logit gradients and, per table, its rows and their
    upstream gradient, (probs, g), each by table name."""
    gen, rec, ref = acc.gen, acc.rec, acc.ref
    spec = gen.spec
    s1c, s2c, a1c, a2c = spec.latent_dims
    n, c_o, c_a = spec.n_states, spec.card_o, spec.card_a
    lik_lat = chains.lik_over_latents(gen)
    pol0_lat = chains.pol0_over_latents(gen)
    a_lat = chains.reference_over_latents(ref) - safe_log(lik_lat)
    sent = rec.tables
    g_sent = {k: np.zeros(v.shape) for k, v in sent.items()}
    g_pol = {k: np.zeros_like(getattr(gen, k).probs) for k in control.POLICY_TABLES}
    for tick in (True, False):
        b = acc.buckets[tick]
        if not (b["G_m"].any() or b["G_q"].any() or b["dC"].any()):
            continue
        prior, q = pieces[tick]["prior"], chains.recognition_belief(rec, tick)
        log_q = np.where(q > 0.0, safe_log(q), 0.0)
        log_prior = np.where(prior > 0.0, safe_log(prior), 0.0)
        with np.errstate(invalid="ignore"):  # 0 * inf where dC = 0, masked
            g_q = b["G_q"] + np.where(
                (q > 0.0) & (b["dC"] > 0.0)[..., None],
                b["dC"][..., None] * (a_lat.T[None, :, None, :] + log_q
                                      + 1.0 - log_prior[:, None, None, :]), 0.0)
        ratio = control._safe_div(q, prior[:, None, None, :])
        g_prior = (np.einsum("xoa,lo,loa->xl", b["G_m"], lik_lat, pol0_lat)
                   - np.einsum("xoa,xoal->xl", b["dC"], ratio))
        rq = (g_q * q).reshape(n, c_o, c_a, s1c, s2c, a1c, a2c)
        if tick:
            g_sent["s2"] += control._safe_div(rq.sum(axis=(3, 5, 6)), sent["s2"])
        g_sent["a2"] += control._safe_div(rq.sum(axis=(3, 5)), sent["a2"])
        g_sent["s1"] += control._safe_div(
            rq.sum(axis=5).transpose(0, 1, 2, 4, 5, 3), sent["s1"])
        g_sent["a1"] += control._safe_div(
            rq.sum(axis=4).transpose(0, 1, 2, 3, 5, 4), sent["a1"])
        g0 = np.einsum("xoa,xl,lo->loa", b["G_m"], prior, lik_lat)
        g0 = g0.reshape(s1c, s2c, a1c, a2c, c_o, c_a).sum(axis=(0, 1, 3))
        g_pol["pol0"] += g0.transpose(1, 0, 2).reshape(-1, c_a)
        r5 = (g_prior * prior).reshape(n, s1c, s2c, a1c, a2c)
        g_pol["pol2"] += control._safe_div(
            r5.sum(axis=(0, 1, 3)), gen.pol2.reshaped()).reshape(-1, a2c)
        g_pol["pol1"] += control._safe_div(
            r5.sum(axis=(0, 2)).transpose(0, 2, 1), gen.pol1.reshaped()).reshape(-1, a1c)
    upstream = {k: (sent[k], g_sent[k]) for k in REC_FACTORS}
    upstream.update({k: (getattr(gen, k).probs, g_pol[k]) for k in control.POLICY_TABLES})
    grads = {k: control._softmax_grad_rows(*u) for k, u in upstream.items()}
    return grads, upstream


def per_step_value_and_grad(gen, rec, ref, x0, T, rate):
    """The adjoint step by step: each step adds its own (N, O, A, L) terms,
    built from mu_t and lam_{t+1}, to its tick's buckets, over the states
    occupied at that step only. Returns the value, the logit gradients and
    their upstream gradients (per_step_finalize)."""
    spec = gen.spec
    lat = chains.Lattice.of(spec)
    pieces = control._dfe_pieces(gen, rec, ref)
    ticks = [tick_at(t, spec) for t in range(1, T + 1)]
    mus = [np.zeros(spec.n_states)]
    mus[0][x0.flat(spec)] = 1.0
    value = 0.0
    for t in range(T):
        pc = pieces[ticks[t]]
        value += float(support_dot(mus[t], pc["ev"])) - rate
        mus.append(pc["qc"].T @ mus[t])
    lam = np.zeros(spec.n_states)
    acc = control._GradAccumulator(gen, rec, ref)
    for t in range(T - 1, -1, -1):
        pc = pieces[ticks[t]]
        bucket = acc.buckets[ticks[t]]
        lam_g = lam[lat.state_of_oal]
        c_tilde = pc["cost"] - rate
        belief = chains.recognition_belief(rec, ticks[t])
        edge_p = pc["marg"][..., None] * belief
        live = (edge_p > 0.0) & (mus[t] > 0.0)[:, None, None, None]
        with np.errstate(invalid="ignore"):  # 0 * inf off the live edges, masked
            dqc4 = np.where(live, mus[t][:, None, None, None]
                            * (c_tilde[..., None] + lam_g[None]), 0.0)
        bucket["G_m"] += np.einsum("xoal,xoal->xoa", dqc4, belief)
        bucket["G_q"] += dqc4 * pc["marg"][..., None]
        bucket["dC"] += mus[t][:, None, None] * pc["marg"]
        lam = pc["ev"] - rate + support_dot(pc["qc"], lam)
    return (value, *per_step_finalize(acc, pieces))


def upstream_scaled_error(grads, want, upstream):
    """Max over the logits of want's tables of |g - w| / max(|g|, |w|, p
    max_j |u_j|), with p the
    entry's probability and u the upstream gradient of its row (live entries
    only); NaN if any entry is NaN.

    A logit gradient is p (u - E_p[u]), and the two routes sum u's terms in
    different orders, so an entry whose gradient is far below p |u| (u
    nearly constant over the row) keeps a rounding error of about
    eps p |u|, not eps |g|: a fixed floor in place of p |u| fails such
    entries, or hides errors in entries of small p."""
    worst = 0.0
    for key, w in want.items():
        g = grads[key]
        probs, u = upstream[key]
        scale = probs * np.max(np.abs(np.where(probs > 0.0, u, 0.0)), axis=-1,
                               keepdims=True)
        diff = np.abs(g - w)
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.where(diff == 0.0, 0.0,
                           diff / np.maximum(np.maximum(np.abs(g), np.abs(w)), scale))
        worst = worst_error(worst, rel.max(initial=0.0))
    return worst


def test_upstream_scaled_error_flags_nan_and_scaled_gaps():
    probs = np.array([[0.5, 0.5, 0.0]])
    upstream = {"pol0": (probs, np.array([[20.0, 20.0, np.inf]]))}
    grads = {"pol0": np.array([[1e-15, -1e-15, 0.0]])}
    want = {"pol0": np.zeros((1, 3))}
    # measured against p |u| = 10, not against the entries' own size
    assert upstream_scaled_error(grads, want, upstream) == pytest.approx(1e-16)
    want["pol0"][0, 2] = 1e-3  # a dead entry has no scale but its own
    assert upstream_scaled_error(grads, want, upstream) == 1.0
    grads["pol0"][0, 0] = np.nan
    assert math.isnan(upstream_scaled_error(grads, want, upstream))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       cards=st.tuples(*[st.integers(1, 2)] * 5 + [st.integers(1, 3)]),
       tick_period=st.integers(1, 3), floor=st.booleans(), T=st.integers(1, 6))
# random instances with entries far below p |u|, which a 1e-4 floor measured
# at 1.7e-12 and 1.2e-12
@example(seed=1, cards=(2, 2, 2, 2, 1, 2), tick_period=3, floor=False, T=3)
@example(seed=18462, cards=(1, 2, 1, 2, 1, 2), tick_period=1, floor=False, T=4)
# hard-zero instances with a finite objective whose unoccupied states have
# edges of infinite cost
@example(seed=1299, cards=(1, 1, 1, 1, 1, 2), tick_period=1, floor=False, T=3)
@example(seed=14350, cards=(1, 1, 2, 2, 2, 2), tick_period=3, floor=False, T=3)
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_occupation_form_matches_the_per_step_adjoint(seed, cards, tick_period,
                                                      floor, T):
    # each draw on a random instance and on one with hard zeros in every
    # table; the objective of the latter may be infinite, and where it is
    # finite both routes must sum over positive occupation only
    for gen, rec, ref in (random_instance(seed, cards=cards, tick_period=tick_period,
                                          floor=floor),
                          hard_zero_instance(seed, cards, tick_period)):
        rng = np.random.default_rng(seed)
        x0 = random_state(rng, gen.spec)
        rate = float(rng.standard_normal())
        value, grads = control.dfe_value_and_grad(gen, rec, ref, x0, T, rate)
        want_value, want, upstream = per_step_value_and_grad(gen, rec, ref, x0, T, rate)
        assert value == want_value
        assert list(grads) == list(want) == [*REC_FACTORS, *control.POLICY_TABLES]
        if math.isfinite(value):
            assert upstream_scaled_error(grads, want, upstream) <= 1e-12


def reference_softmax_grad_rows(probs, g):
    """control._softmax_grad_rows as written with np.where and np.sum."""
    live = probs > 0.0
    g = np.where(live, g, 0.0)
    g = np.where(live, g - np.sum(g * probs, axis=-1, keepdims=True), 0.0)
    return probs * (g - np.sum(g * probs, axis=-1, keepdims=True))


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 3), st.integers(1, 12)),
       seed=st.integers(0, 2 ** 16), offset=st.sampled_from([0.0, 30.0, 1e6]))
def test_softmax_grad_rows_is_its_reference(shape, seed, offset):
    """Bit for bit at row lengths on both sides of axis_sum's np.sum
    threshold, with hard zeros and upstream gradients that carry a large
    offset common to a row (cost-to-go); the upstream is left unchanged."""
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal(shape)
    logits[rng.random(shape) < 0.3] = -np.inf
    logits[..., 0] = 0.0                                      # a finite logit per row
    probs = softmax_rows(logits)
    g = offset + rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3, shape)
    kept = g.copy()
    got = control._softmax_grad_rows(probs, g)
    assert np.array_equal(bits(got), bits(reference_softmax_grad_rows(probs, g)))
    assert np.array_equal(bits(g), bits(kept))


def masked_weighted_upstream(q, prior, a_lat, b):
    """control._weighted_upstream as built before it ran unmasked: its
    second term written into a zeroed array where q > 0 and dC > 0 only."""
    log_prior = np.where(prior > 0.0, safe_log(prior), 0.0)
    live = (q > 0.0) & (b["dC"] > 0.0)[..., None]
    rq = np.zeros(q.shape)
    np.log(q, out=rq, where=live)
    np.add(rq, a_lat.T[None, :, None, :], out=rq, where=live)
    np.subtract(rq, log_prior[:, None, None, :], out=rq, where=live)
    np.multiply(rq, b["dC"][..., None], out=rq, where=live)
    rq += b["G_q"]
    rq *= q
    return rq


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), cards=st.tuples(*[st.integers(1, 3)] * 6),
       tick_period=st.integers(1, 3), hard_zero=st.booleans(), T=st.integers(1, 6),
       score=st.booleans())
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_weighted_upstream_is_its_masked_build(seed, cards, tick_period, hard_zero, T,
                                               score):
    """On the buckets of the exact or the score-function gradient, bit for
    bit, ±0 included: unoccupied contexts and, on hard zeros, beliefs and
    priors of 0 and infinite surprisals."""
    gen, rec, ref = (hard_zero_instance(seed, cards, tick_period) if hard_zero
                     else random_instance(seed, cards=cards, tick_period=tick_period))
    rng = np.random.default_rng(seed)
    x0 = random_state(rng, gen.spec)
    rate = float(rng.standard_normal())
    built, seen = control._weighted_upstream, []

    def checked(q, prior, a_lat, b):
        rq = built(q, prior, a_lat, b)
        assert np.array_equal(bits(rq), bits(masked_weighted_upstream(q, prior, a_lat, b)))
        seen.append(q.shape)
        return rq

    with patch.object(control, "_weighted_upstream", checked):
        if score:
            control.score_function_grad(gen, rec, ref, x0, T, rate, 16, seed)
        else:
            control.dfe_value_and_grad(gen, rec, ref, x0, T, rate)
    assert seen


# ---------------------------------------------------------------------------
# hard zeros: sums over positive occupation only


HARD = (2, (2, 1, 2, 2, 1, 1), 2)      # 8 states, hard zeros in every table
DEEP = (34, (2, 1, 2, 2, 1, 1), 1)     # finite objectives at T = 3, 4
# from flat state 2, a state occupied at some steps of a tick value is
# unoccupied at another, where its successor's cost-to-go is infinite
GAPS = (1, (1, 2, 2, 2, 1, 1), 2)


def path_expectation(gen, rec, ref, x0, T, rate):
    """E[sum_t (cost - rate)] by enumerating the recognition chain's state
    paths of positive probability (the independent route)."""
    pieces = control._dfe_pieces(gen, rec, ref)
    lat = chains.Lattice.of(gen.spec)
    total = 0.0
    for path in itertools.product(range(gen.spec.n_states), repeat=T):
        prob, cost, prev = 1.0, 0.0, x0.flat(gen.spec)
        for t, nxt in enumerate(path, start=1):
            pc = pieces[tick_at(t, gen.spec)]
            prob *= pc["qc"][prev, nxt]
            cost += pc["cost"][prev, lat.o[nxt], lat.a[nxt]] - rate
            prev = nxt
        if prob > 0.0:
            total += prob * cost
    return total


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("instance,T", [(HARD, 1), (HARD, 2), (HARD, 3),
                                        (DEEP, 3), (DEEP, 4)])
def test_free_energy_sums_over_positive_occupation(instance, T):
    # a state the chain cannot reach may have infinite expected cost; it
    # must not turn the objective into 0 * inf = NaN
    gen, rec, ref = hard_zero_instance(*instance)
    values = []
    for s in range(gen.spec.n_states):
        x0 = CompleteState.from_flat(s, gen.spec)
        v = control.differential_free_energy(gen, rec, ref, x0, T, 0.3)
        want = path_expectation(gen, rec, ref, x0, T, 0.3)
        assert v == want or math.isclose(v, want, rel_tol=1e-12), (s, v, want)
        assert v == control.dfe_value_and_grad(gen, rec, ref, x0, T, 0.3)[0]
        values.append(v)
    finite = [s for s, v in enumerate(values) if math.isfinite(v)]
    if instance == HARD:
        assert finite == ([3, 7] if T < 3 else [])
    else:
        assert len(finite) == 6
    if instance == HARD and T == 2:
        assert values[3] == pytest.approx(0.0865976305197, abs=1e-12)
        assert values[7] == pytest.approx(0.3077754452082, abs=1e-12)


@pytest.mark.parametrize("instance,T", [(HARD, 2), (DEEP, 3), (DEEP, 4)])
def test_rate_sums_over_positive_occupation(instance, T):
    # with no burn-in, T steps of the recognition chain's rate are the
    # differential free energy at rate 0; both are +inf, not NaN, where a
    # reachable state's cost is infinite
    gen, rec, ref = hard_zero_instance(*instance)
    for s in range(gen.spec.n_states):
        x0 = CompleteState.from_flat(s, gen.spec)
        rate = oracle.exact_average_rate(gen, rec, ref, x0, 0, T, chain="recognition")
        dfe = control.differential_free_energy(gen, rec, ref, x0, T, 0.0)
        assert not math.isnan(rate)
        assert rate * T == dfe or math.isclose(rate * T, dfe, rel_tol=1e-12), (s, rate, dfe)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("instance,T,starts", [(HARD, 2, (3, 7)), (DEEP, 3, (0, 4)),
                                               (DEEP, 4, (0,)), (GAPS, 3, (2,))])
def test_adjoint_sums_over_positive_occupation(instance, T, starts):
    # at T >= 3 the adjoint's recursion meets unreachable successors of
    # infinite cost-to-go, and K = sum_t mu_t (x) lam_{t+1} meets them at the
    # steps where a state is unoccupied; neither may become NaN
    gen, rec, ref = hard_zero_instance(*instance)
    params = control.extract_params(gen, rec)
    gen2, rec2 = control.apply_params(gen, rec, params)
    for s in starts:
        x0 = CompleteState.from_flat(s, gen.spec)
        value, grads = control.dfe_value_and_grad(gen2, rec2, ref, x0, T, 0.3)
        assert math.isfinite(value)
        fd = control.fd_gradients(gen, rec, ref, params, x0, T, 0.3)
        assert control.gradient_relative_error(grads, fd) <= 1e-8


# ---------------------------------------------------------------------------
# one recognition half per parameter set


def counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("iters,builds", [(2, 6), (12, 26)])
def test_training_builds_one_recognition_half_per_parameter_set(monkeypatch, iters,
                                                                builds):
    # the rate, the halving check, the gradient and the rate refresh of one
    # parameter set share its belief: each reads the chain matrix, which
    # builds the whole belief of each tick once, before the edge cost, so the
    # edge cost reads it and no belief rows are built; training pol0 makes
    # a new generative model, and so a new latent prior, for each parameter set
    gen, rec, ref = seed3_thermostat()
    calls = {"belief_table": 0, "latent_prior": 0}
    counting(monkeypatch, chains, "latent_prior", calls)
    whole, rows = weakref.WeakKeyDictionary(), []
    belief_table = chains.belief_table

    def recorded(r, tick, block):
        if block == slice(None):
            calls["belief_table"] += 1
            whole.setdefault(r, Counter())[tick] += 1
            assert whole[r][tick] == 1
        else:
            rows.append(block)
        return belief_table(r, tick, block)

    monkeypatch.setattr(chains, "belief_table", recorded)
    control.train(gen, rec, ref, X0, 8, iters=iters, lr=0.5, seed=3,
                  estimator="exact", trainable_policies=("pol0",))
    assert calls == {"belief_table": builds, "latent_prior": builds}
    assert rows == []


def test_training_keeps_at_most_one_recognition_half(monkeypatch):
    # each parameter set's pieces live on its models, so at every build and
    # every evaluation at most one recognition model that apply_params made
    # is alive: the outgoing iterate and a rejected candidate are released
    # before the next candidate is built
    gen, rec, ref = random_instance(97, cards=(2, 2, 1, 2, 2, 1), floor=True)
    made = []
    apply_params = control.apply_params

    def alive():
        return sum(r() is not None for r in made)

    def recorded(*args):
        assert alive() <= 1
        g, r = apply_params(*args)
        made.append(weakref.ref(r))
        return g, r

    def checked(module, name):
        original = getattr(module, name)

        def run(*args, **kwargs):
            assert alive() <= 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, run)

    monkeypatch.setattr(control, "apply_params", recorded)
    checked(control, "differential_free_energy")
    checked(control, "dfe_value_and_grad")
    checked(oracle, "exact_average_rate")
    monkeypatch.setattr(control, "_RATE_REFRESH", 2)
    report, _, rec2 = control.train(gen, rec, ref, X0, T=3, iters=6, lr=40.0)
    assert report.step_size_trace[-1] < 40.0               # some steps halved
    assert len(made) > 7 and alive() == 1 and made[-1]() is rec2
