"""Seeded random instances for property sweeps and the validation suite."""

import numpy as np

from .control import DifferentialValue
from .model import (CompleteState, ConditionalTable, GenerativeModel, ModelSpec,
                    RecognitionContext, RecognitionModel, ReferenceModel)


def random_instance(seed, cards=(2, 2, 2, 2, 2, 2), tick_period=2, floor=False):
    """A seeded (generative, recognition, reference) triple with Dirichlet
    tables and standard-normal recognition logits."""
    spec = ModelSpec(*cards, tick_period_level2=tick_period)
    rng = np.random.default_rng(seed)
    gen = GenerativeModel.random(spec, rng, strictly_positive=floor)
    ref = ReferenceModel.random(spec, rng, strictly_positive=floor)
    rec = RecognitionModel.from_seed(spec, int(rng.integers(2 ** 63)))
    return gen, rec, ref


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


def random_state(rng, spec):
    return CompleteState(*(int(rng.integers(d)) for d in spec.dims))


def random_context(rng, spec):
    """A random recognition context; the future is an observation or None."""
    f = int(rng.integers(spec.card_o + 1))
    future = None if f == spec.card_o else f
    return RecognitionContext(o=int(rng.integers(spec.card_o)),
                              a=int(rng.integers(spec.card_a)),
                              x_prev=random_state(rng, spec), future=future)


def random_value(rng, spec, scale=1.0):
    """A DifferentialValue with random bias tables (for identity sweeps that
    must hold for arbitrary surprise-to-go tables)."""
    period = spec.tick_period_level2
    bias = scale * rng.standard_normal((period, spec.n_states))
    bias[0, 0] = 0.0
    bias.setflags(write=False)
    return DifferentialValue(spec=spec, gain=float(rng.standard_normal()),
                             bias=bias, anchor_state=CompleteState.from_flat(0, spec))
