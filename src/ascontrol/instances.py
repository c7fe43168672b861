"""Seeded random instances for property sweeps and the validation suite."""

import numpy as np

from .control import DifferentialValue
from .model import (CompleteState, GenerativeModel, ModelSpec,
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
