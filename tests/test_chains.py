"""Dense builders against their per-row counterparts.

Each dense (N, ...) builder in `chains` has a second route that builds one
row or one context at a time: `latent_prior_row`, `transition_row`,
`RecognitionModel.joint` and `objectives.step_objective`. The properties
below check that the two routes agree on random, floored and hard-zero
instances, on both ticks and tick periods 1-3.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ascontrol import chains
from ascontrol.instances import random_instance
from ascontrol.model import (CompleteState, ConditionalTable, GenerativeModel,
                             RecognitionContext, RecognitionModel, ReferenceModel)
from ascontrol.objectives import step_objective

TOL = 1e-12


def zero_some(probs, rng):
    """Rows of `probs` (last axis) with about a third of their entries set to
    exact zeros; each row keeps its largest entry and is renormalized."""
    rows = np.array(probs).reshape(-1, probs.shape[-1])
    cut = rng.random(rows.shape) < 1.0 / 3.0
    cut[np.arange(len(rows)), rows.argmax(axis=1)] = False
    rows = np.where(cut, 0.0, rows)
    return (rows / rows.sum(axis=1, keepdims=True)).reshape(probs.shape)


def hard_zero_instance(seed, cards, tick_period):
    """random_instance with hard zeros in every generative, reference and
    recognition table."""
    gen, rec, ref = random_instance(seed, cards=cards, tick_period=tick_period)
    rng = np.random.default_rng(seed)

    def table(t):
        return ConditionalTable(t.parent_dims, t.child_dim, zero_some(t.probs, rng),
                                strictly_positive=False)

    gen = GenerativeModel(gen.spec, *(table(getattr(gen, k))
                                      for k in GenerativeModel.table_names))
    ref = ReferenceModel(ref.spec, *(table(getattr(ref, k))
                                     for k in ReferenceModel.table_names))
    rec = RecognitionModel.from_tables(
        rec.spec, {k: zero_some(v, rng) for k, v in rec.tables.items()})
    return gen, rec, ref


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
