import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from ascontrol import sim
from ascontrol.instances import hard_zero_instance, random_instance
from ascontrol.model import (REC_FACTORS, ConditionalTable, GenerativeModel,
                             ModelSpec, RecognitionModel, ReferenceModel,
                             load_models)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def uniform_instance(cards=(2, 2, 2, 2, 2, 2), floor=False):
    """Uniform tables everywhere, including the recognition factors."""
    spec = ModelSpec(*cards)
    gen = GenerativeModel.uniform(spec, strictly_positive=floor)
    ref = ReferenceModel.uniform(spec, strictly_positive=floor)
    shapes = RecognitionModel.factor_shapes(spec)
    rec = RecognitionModel(spec, {k: np.full(s, 1.0 / s[-1]) for k, s in shapes.items()})
    return gen, rec, ref


def two_cycle_instance(cost_hi=1.0):
    """Deterministic two-state cycle with edge costs {0, cost_hi} (up to a
    constant) and no action choice: entering o=1 costs `cost_hi` nats more
    than entering o=0 via the observation-reference table."""
    spec = ModelSpec(2, 2, 1, 1, 1, 1)
    e = np.exp(-cost_hi)
    gen = GenerativeModel(
        spec,
        lik=ConditionalTable.one_hot((1, 2), 2, lambda a1, s1: s1),
        dyn1=ConditionalTable.one_hot((2, 1, 1), 2, lambda s1, s2, a: 1 - s1),
        dyn2=ConditionalTable.uniform((1, 1), 1, False),
        pol0=ConditionalTable.uniform((2, 1), 1, False),
        pol1=ConditionalTable.uniform((2, 1), 1, False),
        pol2=ConditionalTable.uniform((1,), 1, False),
    )
    ref = ReferenceModel(
        spec,
        ref_o=ConditionalTable((1,), 2, np.array([[1 - e, e]]),
                               strictly_positive=False),
        ref_s1=ConditionalTable.uniform((1,), 2, False),
    )
    shapes = RecognitionModel.factor_shapes(spec)
    tables = {k: np.full(s, 1.0 / s[-1]) for k, s in shapes.items()}
    exact_s1 = np.zeros(shapes["s1"])
    for o in range(2):
        exact_s1[:, o, :, :, :, o] = 1.0
    tables["s1"] = exact_s1
    rec = RecognitionModel(spec, tables)
    return gen, rec, ref


def seed3_thermostat():
    """The models of the seed-3 `init` bundle, built in memory with `init`'s
    defaults (the bundle round trip is bit-exact)."""
    env, ref = sim.thermostat_env(3, [0, 2], heat_success=0.85, phase_advance=0.1)
    gen, rec = sim.thermostat_agent(env, [0, 2], 3)
    return gen, rec, ref


@st.composite
def instances(draw):
    """A plain, floored or hard-zero random instance with cards 1-3."""
    seed = draw(st.integers(0, 2 ** 16))
    cards = draw(st.tuples(*[st.integers(1, 2)] * 5 + [st.integers(1, 3)]))
    tick_period = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["plain", "floored", "hard-zero"]))
    if kind == "hard-zero":
        return hard_zero_instance(seed, cards, tick_period)
    return random_instance(seed, cards=cards, tick_period=tick_period,
                           floor=kind == "floored")


def bits(a):
    """Bit patterns of a float array, so -0.0 != 0.0 and NaN == NaN."""
    return np.asarray(a, dtype=float).view(np.uint64)


def assert_load_matches_json(path):
    """load_models(path) gives bit for bit the tables that json.load and
    np.array give, of a recognition factor its filtering (last future)
    slice, and keeps each table's strictly_positive flag."""
    gen, rec, ref = load_models(path)
    tables = json.loads(Path(path).read_text())["tables"]
    for model in (gen, ref):
        for name in model.table_names:
            table = getattr(model, name)
            assert np.array_equal(bits(table.probs), bits(tables[name]["rows"]))
            assert table.strictly_positive is tables[name]["strictly_positive"]
    for name in REC_FACTORS:
        entry = tables["rec_" + name]
        want = np.array(entry["rows"], dtype=float).reshape(entry["dims"])[:, :, :, -1]
        assert np.array_equal(bits(rec.tables[name]), bits(want))


def ragged_rows(text):
    """Bundle text with the first value of the first table's second row moved
    to the end of its first row: the rows are ragged, but the number of rows
    and of values is unchanged."""
    head, tail = text.split("], [", 1)
    first, rest = tail.split(", ", 1)
    return f"{head}, {first}], [{rest}"


__all__ = ["uniform_instance", "two_cycle_instance", "seed3_thermostat", "bits",
           "assert_load_matches_json", "ragged_rows"]
