import hashlib
import io
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascontrol import chains, model, sim
from ascontrol.errors import DimensionMismatchError
from ascontrol.instances import random_instance, random_state
from ascontrol.logspace import logsumexp
from ascontrol.model import (REC_FACTORS, CompleteState, ConditionalTable,
                             GenerativeModel, ModelSpec, RecognitionContext,
                             RecognitionModel, ReferenceModel, _BLOCK_VALUES,
                             _json_rows, _parse_rows, load_models,
                             recognition_logprob, sample_trajectory,
                             sample_transition, save_models, tick_levels,
                             trajectory_logprob, transition_logprob)
from conftest import assert_load_matches_json, bits, ragged_rows, uniform_instance

SPEC2 = ModelSpec(2, 2, 2, 2, 2, 2)


# ---------------------------------------------------------------------------
# tick schedule


def test_tick_levels_examples():
    assert tick_levels(1, SPEC2) == {1, 2}
    assert tick_levels(2, SPEC2) == {1}
    assert tick_levels(3, SPEC2) == {1, 2}


def test_tick_levels_rejects_zero():
    with pytest.raises(ValueError):
        tick_levels(0, SPEC2)


@given(t=st.integers(min_value=1, max_value=1000),
       period=st.integers(min_value=1, max_value=7))
def test_tick_levels_period(t, period):
    spec = ModelSpec(2, 2, 2, 2, 2, 2, tick_period_level2=period)
    levels = tick_levels(t, spec)
    assert 1 in levels
    assert (2 in levels) == ((t - 1) % period == 0)


# ---------------------------------------------------------------------------
# conditional tables


def test_table_rejects_bad_rows():
    with pytest.raises(ValueError):
        ConditionalTable((2,), 2, np.array([[0.7, 0.2], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        ConditionalTable((2,), 2, np.array([[math.nan, math.nan], [0.5, 0.5]]))


def test_table_floor_keeps_rows_normalized():
    t = ConditionalTable((1,), 3, np.array([[1.0, 0.0, 0.0]]), strictly_positive=True)
    assert abs(t.probs.sum() - 1.0) < 1e-12
    assert t.probs.min() >= 1e-12


def test_table_row_indexing_row_major():
    probs = np.arange(8, dtype=float).reshape(4, 2)
    probs /= probs.sum(axis=1, keepdims=True)
    t = ConditionalTable((2, 2), 2, probs, strictly_positive=False)
    assert t.row_index((1, 0)) == 2
    assert np.array_equal(t.row((0, 1)), probs[1])


# ---------------------------------------------------------------------------
# transition log-probabilities


def test_transition_uniform_tick():
    gen, _, _ = uniform_instance()
    x = CompleteState(0, 0, 0, 0, 0, 0)
    for flat in range(SPEC2.n_states):
        lp = transition_logprob(gen, x, CompleteState.from_flat(flat, SPEC2), t=1)
        assert lp == pytest.approx(math.log(1 / 64), abs=1e-12)


def test_transition_hold_blocks_s2_change():
    gen, _, _ = uniform_instance()
    x = CompleteState(0, 0, 0, 0, 0, 0)
    flipped = CompleteState(0, 0, 1, 0, 0, 0)
    assert transition_logprob(gen, x, flipped, t=2) == -math.inf
    held = CompleteState(1, 1, 0, 1, 1, 1)
    assert transition_logprob(gen, x, held, t=2) == pytest.approx(
        math.log(1 / 32), abs=1e-12)


def test_transition_dimension_error():
    gen, _, _ = uniform_instance()
    small = CompleteState(0, 0, 0, 0, 0, 0)
    with pytest.raises(DimensionMismatchError):
        transition_logprob(gen, small, CompleteState(5, 0, 0, 0, 0, 0), t=1)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("t", [1, 2])
def test_transition_normalizes(seed, t):
    gen, _, _ = random_instance(seed)
    rng = np.random.default_rng(seed)
    x = random_state(rng, gen.spec)
    lps = [transition_logprob(gen, x, CompleteState.from_flat(i, gen.spec), t)
           for i in range(gen.spec.n_states)]
    assert np.exp(logsumexp(np.array(lps))) == pytest.approx(1.0, abs=1e-10)


def test_transition_matches_matrix_builder():
    gen, _, _ = random_instance(5)
    rng = np.random.default_rng(5)
    x = random_state(rng, gen.spec)
    for t, tick in ((1, True), (2, False)):
        mat = chains.transition_matrix(gen, tick)
        for flat in (0, 17, 63):
            lp = transition_logprob(gen, x, CompleteState.from_flat(flat, gen.spec), t)
            assert np.exp(lp) == pytest.approx(mat[x.flat(gen.spec), flat], abs=1e-12)


# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_logprob_uniform():
    gen, _, _ = uniform_instance()
    x0 = CompleteState(0, 0, 0, 0, 0, 0)
    rng = np.random.default_rng(1)
    traj = sample_trajectory(gen, x0, 2, rng)
    assert trajectory_logprob(gen, traj) == pytest.approx(
        math.log(1 / 64) + math.log(1 / 32), abs=1e-12)


def test_trajectory_logprob_is_sum_of_steps():
    gen, _, _ = random_instance(7)
    x0 = CompleteState(0, 0, 0, 0, 0, 0)
    rng = np.random.default_rng(7)
    traj = sample_trajectory(gen, x0, 3, rng)
    total = sum(transition_logprob(gen, prev, cur, t)
                for t, (prev, cur) in enumerate(
                    zip((x0,) + traj.steps[:-1], traj.steps), start=1))
    assert trajectory_logprob(gen, traj) == pytest.approx(total, abs=1e-12)


def test_trajectory_hold_violation_is_minus_inf():
    gen, _, _ = random_instance(7)
    x0 = CompleteState(0, 0, 0, 0, 0, 0)
    rng = np.random.default_rng(7)
    traj = sample_trajectory(gen, x0, 2, rng)
    bad_second = CompleteState(traj.steps[1].o, traj.steps[1].s1,
                               1 - traj.steps[0].s2, traj.steps[1].a,
                               traj.steps[1].a1, traj.steps[1].a2)
    from ascontrol.model import Trajectory
    bad = Trajectory(x0, (traj.steps[0], bad_second))
    assert trajectory_logprob(gen, bad) == -math.inf
    assert not bad.hold_respected(gen.spec)


def test_sampled_trajectories_respect_hold():
    gen, _, _ = random_instance(3)
    x0 = CompleteState(0, 0, 0, 0, 0, 0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        assert sample_trajectory(gen, x0, 6, rng).hold_respected(gen.spec)


# ---------------------------------------------------------------------------
# sampling


def test_sample_transition_deterministic_model():
    spec = ModelSpec(2, 2, 2, 2, 2, 2)
    gen = GenerativeModel(
        spec,
        lik=ConditionalTable.one_hot((2, 2), 2, lambda a1, s1: s1),
        dyn1=ConditionalTable.one_hot((2, 2, 2), 2, lambda s1, s2, a: 1 - s1),
        dyn2=ConditionalTable.one_hot((2, 2), 2, lambda s2, a: s2),
        pol0=ConditionalTable.one_hot((2, 2), 2, lambda o, a1: o),
        pol1=ConditionalTable.one_hot((2, 2), 2, lambda s1, a2: s1),
        pol2=ConditionalTable.one_hot((2,), 2, lambda s2: s2),
    )
    x = CompleteState(0, 0, 1, 0, 0, 0)
    got = sample_transition(gen, x, 1, np.random.default_rng(0))
    assert got == CompleteState(o=1, s1=1, s2=1, a=1, a1=1, a2=1)


def test_sample_transition_same_seed_same_result():
    gen, _, _ = random_instance(11)
    x = CompleteState(1, 0, 1, 0, 1, 0)
    a = sample_transition(gen, x, 2, np.random.default_rng(123))
    b = sample_transition(gen, x, 2, np.random.default_rng(123))
    assert a == b


def test_sample_transition_frequencies():
    gen, _, _ = uniform_instance()
    spec = gen.spec
    x = CompleteState(0, 0, 0, 0, 0, 0)
    n = 100_000
    rng = np.random.default_rng(99)
    counts = np.zeros(spec.n_states)
    for _ in range(n):
        counts[sample_transition(gen, x, 1, rng).flat(spec)] += 1
    p = 1 / 64
    se = math.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(counts / n - p) <= 3 * se + 1e-9)


# ---------------------------------------------------------------------------
# recognition model


def test_recognition_uniform_logprob():
    _, rec, _ = uniform_instance()
    ctx = RecognitionContext(o=0, a=1, x_prev=CompleteState(0, 0, 0, 0, 0, 0),
                             future=None)
    lp = recognition_logprob(rec, (0, 1, 0, 1), ctx)
    assert lp == pytest.approx(math.log(1 / 16), abs=1e-12)


def test_recognition_one_hot_logprob():
    spec = ModelSpec(2, 2, 2, 2, 2, 2)
    shapes = RecognitionModel.factor_shapes(spec)
    tables = {}
    for name, shape in shapes.items():
        t = np.zeros(shape)
        t[..., 0] = 1.0
        tables[name] = t
    rec = RecognitionModel.from_tables(spec, tables)
    ctx = RecognitionContext(o=1, a=0, x_prev=CompleteState(0, 0, 0, 0, 0, 0),
                             future=2)
    assert recognition_logprob(rec, (0, 0, 0, 0), ctx) == 0.0
    assert recognition_logprob(rec, (1, 0, 0, 0), ctx) == -math.inf


@pytest.mark.parametrize("seed", [0, 4])
@pytest.mark.parametrize("tick", [True, False])
def test_recognition_normalizes(seed, tick):
    _, rec, _ = random_instance(seed)
    rng = np.random.default_rng(seed)
    spec = rec.spec
    ctx = RecognitionContext(o=int(rng.integers(2)), a=int(rng.integers(2)),
                             x_prev=random_state(rng, spec), future=None)
    total = 0.0
    for s1 in range(2):
        for s2 in range(2):
            for a1 in range(2):
                for a2 in range(2):
                    total += math.exp(
                        recognition_logprob(rec, (s1, s2, a1, a2), ctx, tick=tick))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_recognition_hold_pins_s2():
    _, rec, _ = random_instance(2)
    ctx = RecognitionContext(o=0, a=0, x_prev=CompleteState(0, 0, 1, 0, 0, 0),
                             future=None)
    joint = rec.joint(ctx, tick=False)
    assert joint.sum(axis=(0, 2, 3))[0] == 0.0
    assert joint.sum(axis=(0, 2, 3))[1] == pytest.approx(1.0, abs=1e-12)


def test_recognition_logits_deterministic():
    spec = ModelSpec(2, 2, 2, 2, 2, 2)
    a = RecognitionModel.from_seed(spec, 42)
    b = RecognitionModel.from_seed(spec, 42)
    assert all(np.array_equal(a.tables[k], b.tables[k]) for k in a.tables)


def test_recognition_keeps_callers_arrays_apart():
    # the model is immutable, but the arrays a caller passed in stay the
    # caller's: writable, and changing them later changes nothing
    spec = ModelSpec(2, 2, 2, 2, 2, 2)
    shapes = RecognitionModel.factor_shapes(spec)
    tables = {k: np.full(s, 1.0 / s[-1]) for k, s in shapes.items()}
    logits = {k: np.zeros(s) for k, s in shapes.items()}
    from_tables = RecognitionModel.from_tables(spec, tables)
    from_logits = RecognitionModel.from_logits(spec, logits)
    for k in REC_FACTORS:
        assert tables[k].flags.writeable and logits[k].flags.writeable
        tables[k][...] = 0.0
        logits[k][..., 0] = 5.0
        assert np.all(from_tables.tables[k] == 1.0 / shapes[k][-1])
        assert np.all(from_logits.tables[k] == 1.0 / shapes[k][-1])
        assert not from_tables.tables[k].flags.writeable
        assert not from_logits.tables[k].flags.writeable


def test_recognition_latent_range_check():
    _, rec, _ = random_instance(2)
    ctx = RecognitionContext(o=0, a=0, x_prev=CompleteState(0, 0, 0, 0, 0, 0))
    with pytest.raises(DimensionMismatchError):
        recognition_logprob(rec, (2, 0, 0, 0), ctx)


# ---------------------------------------------------------------------------
# table layout


def layout_models():
    """One model of each kind whose tables table_layout lays out, on specs
    with distinct cardinalities so a transposed layout shows."""
    rng = np.random.default_rng(0)
    spec = ModelSpec(2, 3, 4, 5, 6, 7)
    env, _ = sim.thermostat_env(3, [0, 2])
    return {"generative": GenerativeModel.random(spec, rng),
            "reference": ReferenceModel.random(spec, rng),
            "environment": env}


def wrong_layouts(parents, child):
    yield parents, child + 1
    yield parents + (1,), child  # the same rows under another layout
    if parents[::-1] != parents:
        yield parents[::-1], child


@pytest.mark.parametrize("kind,name", [
    *(("generative", name) for name in GenerativeModel.table_names),
    *(("reference", name) for name in ReferenceModel.table_names),
    *(("environment", name) for name in sim.Environment.table_names)])
def test_wrong_table_layout_names_the_table(kind, name):
    model = layout_models()[kind]
    table = getattr(model, name)
    for parents, child in wrong_layouts(table.parent_dims, table.child_dim):
        with pytest.raises(DimensionMismatchError,
                           match=f"^table {name}: expected parents"):
            replace(model, **{name: ConditionalTable.uniform(parents, child)})


@pytest.mark.parametrize("kwargs,digest", [
    ({"seed": 0}, "545602e4795114dae614e849144fe864b60da3cdb083395b777bdbbbbe1a98f1"),
    ({"seed": 7, "floor": True},
     "a0cadb1eee9d010d88258a944e7d3987aa46365357c6086d14694692ec9dcebc"),
], ids=["seed0", "seed7-floor"])
def test_random_instance_tables_are_pinned(kwargs, digest):
    # the validate report's numbers depend on the order in which the random
    # constructors draw their tables from the one generator
    gen, rec, ref = random_instance(**kwargs)
    h = hashlib.sha256()
    for model in (gen, ref):
        for name in model.table_names:
            h.update(getattr(model, name).probs.tobytes())
    for name in sorted(rec.tables):
        h.update(rec.tables[name].tobytes())
    assert h.hexdigest() == digest


# ---------------------------------------------------------------------------
# serialization


def test_round_trip_bit_exact(tmp_path):
    gen, rec, ref = random_instance(9, floor=True)
    path = tmp_path / "model.json"
    save_models(path, gen, rec, ref)
    gen2, rec2, ref2 = load_models(path)
    for name in gen.table_names:
        assert np.array_equal(getattr(gen, name).probs, getattr(gen2, name).probs)
    for name in ref.table_names:
        assert np.array_equal(getattr(ref, name).probs, getattr(ref2, name).probs)
    for name in rec.tables:
        assert np.array_equal(rec.tables[name], rec2.tables[name])


def test_loader_rejects_denormalized_rows(tmp_path):
    gen, rec, ref = random_instance(9)
    path = tmp_path / "model.json"
    save_models(path, gen, rec, ref)
    doc = json.loads(path.read_text())
    doc["tables"]["lik"]["rows"][0][0] += 1e-3
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_models(path)


def test_loader_renormalizes_small_deviations(tmp_path):
    gen, rec, ref = random_instance(9)
    path = tmp_path / "model.json"
    save_models(path, gen, rec, ref)
    doc = json.loads(path.read_text())
    doc["tables"]["lik"]["rows"][0][0] += 1e-9
    path.write_text(json.dumps(doc))
    gen2, _, _ = load_models(path)
    assert abs(gen2.lik.probs[0].sum() - 1.0) < 1e-12


@pytest.mark.parametrize("table", ["lik", "rec_a1"])
def test_loader_rejects_nan_rows(tmp_path, table):
    gen, rec, ref = random_instance(9)
    path = tmp_path / "model.json"
    save_models(path, gen, rec, ref)
    doc = json.loads(path.read_text())
    doc["tables"][table]["rows"][0] = [math.nan] * len(doc["tables"][table]["rows"][0])
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_models(path)


@pytest.mark.parametrize("table", ["lik", "rec_s2"])
def test_loader_rejects_negative_rows(tmp_path, table):
    # the row still sums to one; generative and recognition tables share the check
    path = tmp_path / "model.json"
    save_models(path, *uniform_instance())
    doc = json.loads(path.read_text())
    doc["tables"][table]["rows"][0] = [1.5, -0.5]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="negative probability entry"):
        load_models(path)


def test_loader_checks_recognition_factor_shapes(tmp_path):
    # the right number of rec_s2 rows, but dims that are not the spec's shape
    path = tmp_path / "model.json"
    save_models(path, *uniform_instance())
    text = path.read_text()
    bad = text.replace('"dims": [64, 2, 2, 3, 2]', '"dims": [32, 4, 2, 3, 2]', 1)
    assert bad != text
    path.write_text(bad)
    with pytest.raises(DimensionMismatchError, match="recognition factor s2"):
        load_models(path)


# Values json encodes in its less common forms: signed zero, subnormals, the
# exponent switch-over points of repr, exact integers, and non-finite values.
AWKWARD_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 0.0001,
                  1e16, 9999999999999998.0, 1.0, 0.1, 1 / 3, math.inf, -math.inf,
                  math.nan]


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       n_rows=st.integers(min_value=0, max_value=12),
       child_dim=st.integers(min_value=1, max_value=4),
       block_values=st.integers(min_value=1, max_value=16),
       repeated=st.booleans())
def test_json_rows_matches_json_dumps(data, n_rows, child_dim, block_values, repeated):
    if repeated:
        pool = data.draw(st.lists(st.floats(), min_size=1, max_size=3))
        values = st.sampled_from(pool + AWKWARD_FLOATS)
    else:
        values = st.floats() | st.sampled_from(AWKWARD_FLOATS)
    flat = data.draw(st.lists(values, min_size=n_rows * child_dim,
                              max_size=n_rows * child_dim))
    a = np.array(flat, dtype=float).reshape(n_rows, child_dim)
    assert "".join(_json_rows(a, block_values)) == json.dumps(a.tolist())


def _reference_bundle_text(gen, rec, ref):
    """The bundle as json.dump wrote it from nested lists, field by field."""
    tables = {}
    for model, names in ((gen, GenerativeModel.table_names),
                         (ref, ReferenceModel.table_names)):
        for name in names:
            t = getattr(model, name)
            tables[name] = {"parents": list(t.parent_dims), "child": t.child_dim,
                            "rows": t.probs.tolist(),
                            "strictly_positive": t.strictly_positive}
    for name in REC_FACTORS:
        shape = rec.tables[name].shape
        tables["rec_" + name] = {
            "dims": list(shape),
            "rows": rec.tables[name].reshape(-1, shape[-1]).tolist()}
    doc = {"version": 1, "spec": gen.spec.to_dict(), "tables": tables}
    buf = io.StringIO()
    json.dump(doc, buf)
    return buf.getvalue()


def _distinct_instance():
    # recognition tables span more than one encoder block, every value distinct
    spec = ModelSpec(3, 3, 2, 3, 2, 2)
    rng = np.random.default_rng(4)
    assert np.prod(RecognitionModel.factor_shapes(spec)["s1"]) > _BLOCK_VALUES
    return (GenerativeModel.random(spec, rng), RecognitionModel.from_seed(spec, 4),
            ReferenceModel.random(spec, rng))


@pytest.mark.parametrize("build", [lambda: random_instance(9, floor=True),
                                   lambda: uniform_instance(floor=True),
                                   _distinct_instance],
                         ids=["random", "uniform", "distinct"])
def test_save_matches_json_dump(tmp_path, build):
    gen, rec, ref = build()
    path = tmp_path / "model.json"
    save_models(path, gen, rec, ref)
    assert path.read_bytes() == _reference_bundle_text(gen, rec, ref).encode()


@pytest.mark.parametrize("floor", [False, True], ids=["unfloored", "floored"])
def test_save_load_save_byte_identical(tmp_path, floor):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_models(first, *random_instance(9, floor=floor))
    save_models(second, *load_models(first))
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("build", [lambda: random_instance(9),
                                   lambda: random_instance(9, floor=True),
                                   lambda: uniform_instance(floor=True),
                                   _distinct_instance],
                         ids=["random", "random-floored", "uniform", "distinct"])
def test_load_matches_json_load(tmp_path, build):
    path = tmp_path / "model.json"
    save_models(path, *build())
    assert_load_matches_json(path)


# Value texts json reads as integers; "-0" is the integer 0, so 0.0, not -0.0.
INTEGER_TEXTS = ["-0", "0", "7", "-3", "100"]


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       child_dim=st.integers(min_value=1, max_value=4),
       block_chars=st.integers(min_value=1, max_value=256),
       runs=st.lists(st.tuples(st.sampled_from(["rows", "values", "fresh"]),
                               st.integers(min_value=0, max_value=24)),
                     max_size=4))
def test_parse_rows_matches_json_loads(data, child_dim, block_chars, runs):
    # runs of rows drawn from a few row texts (converted once per distinct
    # row, and repeated across blocks), of rows drawn from a few value texts
    # (converted once per distinct value) and of fresh rows, in any order;
    # some value texts are json integers, "-0" among them
    value = st.floats().map(json.dumps) | st.sampled_from(
        [json.dumps(v) for v in AWKWARD_FLOATS] + INTEGER_TEXTS)
    rows = []
    for kind, n_rows in runs:
        if kind == "values":
            values = st.sampled_from(data.draw(st.lists(value, min_size=1, max_size=3)))
        else:
            values = value
        row = st.lists(values, min_size=child_dim, max_size=child_dim).map(", ".join)
        if kind == "rows":
            row = st.sampled_from(data.draw(st.lists(row, min_size=1, max_size=3)))
        rows += data.draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    text = ("[" + ", ".join(f"[{r}]" for r in rows) + "]").encode()
    got = _parse_rows(text, child_dim, block_chars=block_chars)
    want = np.array(json.loads(text), dtype=float).reshape(len(rows), child_dim)
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


def row_blocks(rows, block_chars):
    """The rows of each block _parse_rows reads from b"[" + b", ".join(rows)
    + b"]": a block ends with its first row whose closing bracket lies
    block_chars or more bytes past the block's start."""
    blocks, size = [[]], 0
    for row in rows:
        blocks[-1].append(row)
        size += len(row) + 2
        if size - 3 >= block_chars:
            blocks.append([])
            size = 0
    return [block for block in blocks if block]


def test_parse_rows_converts_each_distinct_row_of_a_block_once(monkeypatch):
    # repeated rows span several blocks, beside a run of fresh rows; each
    # block hands its distinct rows, once each, to one _rows_block call
    repeated = [b"[-0, 0.25]", b"[0.5, -0.0]", b"[1, 0.0]"] * 40
    fresh = [b"[%d.5, -0]" % i for i in range(40)]
    rows = repeated + fresh + repeated
    text = b"[" + b", ".join(rows) + b"]"
    calls = []
    rows_block = model._rows_block
    monkeypatch.setattr(model, "_rows_block",
                        lambda block, k: calls.append(block) or rows_block(block, k))
    got = _parse_rows(text, 2, block_chars=100)
    want = np.array(json.loads(text), dtype=float)
    assert np.array_equal(bits(got), bits(want))
    blocks = row_blocks(rows, 100)
    assert len(blocks) > 3 and len(calls) == len(blocks)
    for block, call in zip(blocks, calls):
        assert call[:1] == b"[" and call[-1:] == b"]"
        assert sorted(call[1:-1].split(b"], [")) == sorted({row[1:-1] for row in block})


def test_parse_rows_reads_integers_as_json_does():
    text = b"[[-0, 1], [0, -0.0], [7, 1e2], [-0, -0]]"
    want = np.array(json.loads(text), dtype=float)
    assert np.array_equal(bits(_parse_rows(text, 2, block_chars=1)), bits(want))


@pytest.mark.parametrize("text", [
    b"[[0.5, 0.5, 0.5], [0.5]]",      # ragged, right number of values
    b"[[0.5, 0.5], [0.5]]",           # short last row
    b"[[0.5_0, 0.5]]",                # float() reads 0.5_0, json does not
    b"[[0.5,0.5]]",                   # not json.dump's separators
    b"[[0.5,  0.5]]",
    b"[[0.5, 0.5],[0.5, 0.5]]",
    b"[[0.5, 0.5], 0.5, [0.5]]",
    b"[[0.5], 0.5, [0.5, 0.5]]",
    b"[[0.5, ], [0.5, 0.5]]",         # empty value
    b"[[0.5, 0.5], [0.5, 0.5]",       # truncated
    b"[[0.5, 0.5]]]",
    b"[[0.5, 1e]]",
    b"[[0.5, \"0.5\"]]",
    b"[\n [0.5, 0.5]\n]",
    b"[[0.5, 0.25, 0.25], [0.25, 0.5, 0.25]]",  # rows of another width
    b'["0.5, 0.5], [0.5, 0.5"]',      # a string, not rows
])
def test_parse_rows_rejects_other_layouts(text):
    body = text[1:-1]
    good = b"[0.5, 0.5]"
    # as given, the bad rows repeated, and the bad rows first met in a later
    # block, after blocks of one repeated good row
    for variant in (text, b"[" + b", ".join([body] * 50) + b"]",
                    b"[" + b", ".join([good] * 50 + [body] * 3) + b"]"):
        for block_chars in (1, 64, 1 << 20):
            with pytest.raises(ValueError):
                _parse_rows(variant, 2, block_chars=block_chars)


@pytest.mark.parametrize("edit", [
    ragged_rows,
    lambda text: json.dumps(json.loads(text), indent=1),
    lambda text: text.replace("0.5", "0.5_0", 1),  # float() reads 0.5_0 as 0.5
    lambda text: text[:len(text) // 2],
    lambda text: text[:-1],
    lambda text: re.sub(r'"spec": \{[^}]*\}, ', "", text, count=1),
    lambda text: text.replace('"card_o": 2, ', "", 1),
    lambda text: re.sub(r'"child": \d+, ', "", text, count=1),
    lambda text: re.sub(r', "strictly_positive": (true|false)', "", text, count=1),
    lambda text: re.sub(r'"dims": \[[\d, ]*\], ', "", text, count=1),
    lambda text: re.sub(r'"dims": \[[\d, ]*\]', '"dims": 7', text, count=1),
    lambda text: re.sub(r'"child": (\d+)', r'"child": "\1"', text, count=1),
    lambda text: re.sub(r'"child": \d+', '"child": 0', text, count=1),
    lambda text: re.sub(r'"parents": \[[\d, ]*\]', '"parents": 2', text, count=1),
    lambda text: re.sub(r'"tables": \{.*\}\}$', '"tables": []}', text, flags=re.S),
    lambda text: "[" + text + "]",
], ids=["ragged", "indented", "underscore", "truncated-rows", "truncated-envelope",
        "no-spec", "spec-without-card_o", "no-child", "no-strictly_positive",
        "rec-without-dims", "int-dims", "str-child", "zero-child", "int-parents",
        "list-tables", "list-bundle"])
def test_loader_rejects_other_text(tmp_path, edit):
    path = tmp_path / "model.json"
    save_models(path, *uniform_instance())
    text = path.read_text()
    assert edit(text) != text
    path.write_text(edit(text))
    with pytest.raises(ValueError):
        load_models(path)
