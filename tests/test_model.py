import hashlib
import io
import json
import math
import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascontrol import chains, control, model, sim
from ascontrol.errors import DimensionMismatchError
from ascontrol.instances import random_instance, random_state
from ascontrol.logspace import axis_sum, logsumexp
from ascontrol.model import (REC_FACTORS, CompleteState, ConditionalTable,
                             GenerativeModel, ModelSpec, RecognitionContext,
                             RecognitionModel, ReferenceModel, _BLOCK_VALUES,
                             _distinct_rows, _row_texts, load_models,
                             sample_trajectory, sample_transition, save_models,
                             softmax_rows, tick_at, trajectory_logprob,
                             transition_logprob)
from conftest import assert_load_matches_json, bits, ragged_rows, uniform_instance

SPEC2 = ModelSpec(2, 2, 2, 2, 2, 2)


# ---------------------------------------------------------------------------
# tick schedule


def test_tick_at_examples():
    assert [tick_at(t, SPEC2) for t in (1, 2, 3)] == [True, False, True]
    spec = ModelSpec(2, 2, 2, 2, 2, 2, tick_period_level2=3)
    assert [tick_at(t, spec) for t in range(1, 8)] == [
        True, False, False, True, False, False, True]


@given(t=st.integers(min_value=1, max_value=1000),
       period=st.integers(min_value=1, max_value=7))
def test_tick_at_period(t, period):
    # the ticks are steps 1, 1 + period, 1 + 2 period, ...
    spec = ModelSpec(2, 2, 2, 2, 2, 2, tick_period_level2=period)
    assert tick_at(t, spec) == (t in range(1, 1001, period))
    assert tick_at(t + period, spec) == tick_at(t, spec)


# ---------------------------------------------------------------------------
# conditional tables


def test_table_rejects_bad_rows():
    with pytest.raises(ValueError):
        ConditionalTable((2,), 2, np.array([[0.7, 0.2], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        ConditionalTable((2,), 2, np.array([[math.nan, math.nan], [0.5, 0.5]]))


def three_temporary_normalized_rows(probs):
    """model._normalized_rows as it was with a temporary per step (sums,
    sums - 1, their absolute value): the reference for its errors, messages
    and bits."""
    if np.any(probs < 0):
        raise ValueError("negative probability entry")
    sums = probs.sum(axis=-1)
    off = np.abs(sums - 1.0)
    if not np.all(off <= model.LOAD_REJECT_TOL):
        raise ValueError(f"row normalization off by {float(np.max(off)):.3e}")
    bad = off > model.TABLE_ROW_TOL
    if np.any(bad):
        probs = probs.copy()
        probs[bad] /= sums[bad][..., None]
    return probs


@settings(max_examples=300, deadline=None)
@given(data=st.data(), shape=st.lists(st.integers(1, 4), min_size=2, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_normalized_rows_matches_the_three_temporary_check(data, shape, seed):
    # rows scaled a little above or below one (kept, or divided by their
    # sum), too far off, non-finite or negative (rejected)
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    scales = [1.0, 1.0 + 1e-13, 1.0 - 1e-13, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-3,
              1.0 - 1e-3, math.nan, math.inf, -1.0]
    rows = probs.reshape(-1, shape[-1])
    rows *= np.array(data.draw(st.lists(st.sampled_from(scales), min_size=len(rows),
                                        max_size=len(rows))))[:, None]
    try:
        want = three_temporary_normalized_rows(probs)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            model._normalized_rows(probs)
    else:
        assert np.array_equal(bits(model._normalized_rows(probs)), bits(want))


@settings(max_examples=300, deadline=None)
@given(shape=st.lists(st.sampled_from([1, 2, 3, 7, 8, 9, 13]), min_size=1, max_size=4),
       data=st.data(), seed=st.integers(0, 2 ** 16))
def test_axis_sum_gives_the_bits_of_np_sum(shape, data, seed):
    # numpy's rule: an innermost axis of 8 or more entries is summed
    # pairwise, shorter inner rows and outer axes of any length in index
    # order from +0; entries span 16 decades, and rows of -0, +-inf and NaN
    # are drawn, so order, the sign of zero and NaN all show in the bits
    axis = data.draw(st.integers(-len(shape), len(shape) - 1))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    special = rng.random(shape)
    x[special < 0.2] = -0.0
    x[special > 0.97] = np.inf
    x[special > 0.985] = -np.inf
    with np.errstate(invalid="ignore"):
        want = np.sum(x, axis=axis)
        assert np.array_equal(bits(axis_sum(x, axis)), bits(want))
        all_neg_zero = np.full(shape, -0.0)
        assert np.array_equal(bits(axis_sum(all_neg_zero, axis)),
                              bits(np.sum(all_neg_zero, axis=axis)))


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 12)),
       seed=st.integers(0, 2 ** 16), scale=st.sampled_from([1.0, 30.0, 1e3]))
def test_softmax_rows_matches_the_reduction_max(shape, seed, scale):
    # the column-by-column row max gives numpy's reduction max at every row
    # length, -inf entries (hard zeros) included, so every bit of the
    # softmax; a row with no finite logit still raises
    rng = np.random.default_rng(seed)
    logits = scale * rng.standard_normal(shape)
    logits[rng.random(shape) < 0.3] = -np.inf
    m = np.max(logits, axis=-1, keepdims=True)
    if not np.all(np.isfinite(m)):
        with pytest.raises(ValueError, match="no finite logit"):
            softmax_rows(logits)
        return
    want = np.exp(logits - m)
    want /= want.sum(axis=-1, keepdims=True)
    assert np.array_equal(bits(softmax_rows(logits)), bits(want))


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


@pytest.mark.parametrize("seed", [0, 4])
@pytest.mark.parametrize("tick", [True, False])
def test_recognition_normalizes(seed, tick):
    _, rec, _ = random_instance(seed)
    rng = np.random.default_rng(seed)
    spec = rec.spec
    ctx = RecognitionContext(o=int(rng.integers(2)), a=int(rng.integers(2)),
                             x_prev=random_state(rng, spec))
    belief = chains.context_belief(rec, ctx, tick)
    assert belief.shape == (2, 2, 2, 2)
    assert belief.sum() == pytest.approx(1.0, abs=1e-10)


def test_recognition_hold_pins_s2():
    _, rec, _ = random_instance(2)
    ctx = RecognitionContext(o=0, a=0, x_prev=CompleteState(0, 0, 1, 0, 0, 0))
    joint = chains.context_belief(rec, ctx, False)
    assert joint.sum(axis=(0, 2, 3))[0] == 0.0
    assert joint.sum(axis=(0, 2, 3))[1] == pytest.approx(1.0, abs=1e-12)


def test_recognition_logits_deterministic():
    spec = ModelSpec(2, 2, 2, 2, 2, 2)
    a = RecognitionModel.from_seed(spec, 42)
    b = RecognitionModel.from_seed(spec, 42)
    assert all(np.array_equal(a.tables[k], b.tables[k]) for k in a.tables)


def test_recognition_keeps_callers_arrays_apart():
    # the model is immutable, but the logits a caller passed in stay the
    # caller's: writable, and changing them later changes nothing
    spec = ModelSpec(2, 2, 2, 2, 2, 2)
    shapes = RecognitionModel.factor_shapes(spec)
    logits = {k: np.zeros(s) for k, s in shapes.items()}
    rec = RecognitionModel.from_logits(spec, logits)
    for k in REC_FACTORS:
        assert logits[k].flags.writeable
        logits[k][..., 0] = 5.0
        assert np.all(rec.tables[k] == 1.0 / shapes[k][-1])
        assert not rec.tables[k].flags.writeable


def dense_joint(tables, xp, o, a):
    """The belief of one context read straight off the tables (tick step),
    multiplied in factor order, ((s2 a2) s1) a1, into its (s1, s2, a1, a2)
    layout."""
    q_s2, q_a2, q_s1, q_a1 = (tables[k][xp, o, a] for k in REC_FACTORS)
    partial = q_s2[:, None, None] * q_a2[:, :, None] * q_s1                # (s2, a2, s1)
    return partial.transpose(2, 0, 1)[:, :, None, :] * q_a1.transpose(0, 2, 1)[:, None]


@settings(max_examples=25, deadline=None)
@given(cards=st.tuples(*[st.integers(min_value=1, max_value=3)] * 6),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_recognition_factors_read_back_their_tables(cards, seed):
    # a model gives back the tables it was built from bit for bit, hard
    # zeros and -0.0 entries included, whether C-ordered (taken over) or not
    # (copied), and a context's belief reads its rows off them; a -0.0 keeps
    # its sign in the product (a plain einsum adds +0.0 and drops it)
    spec = ModelSpec(*cards)
    rng = np.random.default_rng(seed)
    tables = {}
    for name, shape in RecognitionModel.factor_shapes(spec).items():
        t = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
        zero = rng.random(shape) < 0.3
        t[zero] = np.where(rng.random(shape) < 0.5, -0.0, 0.0)[zero]
        tables[name] = t
    x_prev = random_state(rng, spec)
    xp, o, a = x_prev.flat(spec), int(rng.integers(spec.card_o)), int(rng.integers(spec.card_a))
    strided = {k: np.repeat(v, 2, axis=0)[::2] for k, v in tables.items()}
    want = {k: v.copy() for k, v in tables.items()}
    for r in (RecognitionModel(spec, tables), RecognitionModel(spec, strided)):
        for k in REC_FACTORS:
            assert np.array_equal(bits(r.tables[k]), bits(want[k])), k
        ctx = RecognitionContext(o, a, x_prev)
        assert np.array_equal(bits(chains.context_belief(r, ctx, True)),
                              bits(dense_joint(want, xp, o, a)))


def test_recognition_arrays_are_read_only(tmp_path):
    # the per-tick pieces a model keeps (chains.tick_pieces) are built from
    # its arrays once, so no writer may reach them: not those of a built or
    # loaded model or one started at the filtering posterior, and not a
    # candidate's own arrays or the ones it shares
    gen, rec, ref = random_instance(3)
    save_models(tmp_path / "model.json", gen, rec, ref)
    loaded = load_models(tmp_path / "model.json")[1]
    filtering = RecognitionModel(gen.spec, chains.posterior_recognition_tables(gen))
    params = control.extract_params(gen, rec, ())
    params.q_logits = {"s1": params.q_logits["s1"]}
    cand = control.apply_params(gen, rec, params)[1]
    for r in (rec, loaded, filtering, cand):
        for k in REC_FACTORS:
            arr = r.tables[k]
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 0.5


def test_recognition_shares_the_filtering_posterior():
    # the posterior's factors are C-ordered, so the model takes them over as
    # its tables without a copy
    env, _ = sim.thermostat_env(3, [0, 2])
    gen, _ = sim.thermostat_agent(env, [0, 2], 0)
    post = chains.posterior_recognition_tables(gen)
    rec = RecognitionModel(gen.spec, post)
    for k in REC_FACTORS:
        assert post[k].flags.c_contiguous, k
        assert rec.tables[k] is post[k], k


@pytest.mark.parametrize("ctx", [RecognitionContext(2, 0, CompleteState(0, 0, 0, 0, 0, 0)),
                                 RecognitionContext(0, -1, CompleteState(0, 0, 0, 0, 0, 0)),
                                 RecognitionContext(0, 0, CompleteState(0, 0, 2, 0, 0, 0))])
def test_context_belief_range_check(ctx):
    _, rec, _ = random_instance(2)
    for tick in (True, False):
        with pytest.raises(DimensionMismatchError, match="out of range"):
            chains.context_belief(rec, ctx, tick)


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
    ({"seed": 0}, "157898b39203f92de83b051ebeacad354a359fd308e09f1e9d31b61456ef08d2"),
    ({"seed": 7, "floor": True},
     "0fb910592918d718246056efab9e7ca09b47521e375fc0ff895ba25bedb738a2"),
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
    # the message names the table: "table lik", "recognition table s2"
    with pytest.raises(ValueError, match=f"table {table.removeprefix('rec_')}: "
                                         "negative probability entry"):
        load_models(path)


def bundle_with_smoothing_slices(path, seed):
    """A v1 bundle at `path` written through json, with the raw "rows" list
    of every recognition factor drawn afresh for each future slice, and
    each factor's whole table, future axis included."""
    gen, rec, ref = random_instance(seed)
    save_models(path, gen, rec, ref)
    doc = json.loads(path.read_text())
    rng = np.random.default_rng(seed)
    whole = {}
    for name in REC_FACTORS:
        entry = doc["tables"]["rec_" + name]
        whole[name] = rng.dirichlet(np.ones(entry["dims"][-1]), size=entry["dims"][:-1])
        entry["rows"] = whole[name].reshape(-1, entry["dims"][-1]).tolist()
    path.write_text(json.dumps(doc))
    return doc, whole


def test_loader_keeps_only_the_filtering_slice(tmp_path):
    # smoothing slices unlike the filtering slice load to the filtering
    # slice, bit for bit
    path = tmp_path / "model.json"
    _, whole = bundle_with_smoothing_slices(path, 11)
    rec = load_models(path)[1]
    for name in REC_FACTORS:
        sent = whole[name][:, :, :, -1]
        assert not np.array_equal(whole[name][:, :, :, 0], sent)
        assert np.array_equal(bits(rec.tables[name]), bits(sent))
        assert not rec.tables[name].flags.writeable


@pytest.mark.parametrize("bad", ["nan", "denormalized"])
@pytest.mark.parametrize("name", REC_FACTORS)
def test_loader_checks_the_smoothing_slices(tmp_path, name, bad):
    # the rows the load drops are still checked: a NaN or denormalized row
    # in a smoothing slice only fails it, with one line naming its table
    path = tmp_path / "model.json"
    doc, _ = bundle_with_smoothing_slices(path, 12)
    rows = doc["tables"]["rec_" + name]["rows"]   # row 0: x_prev 0, o 0, a 0, future 0
    rows[0] = [math.nan] * len(rows[0]) if bad == "nan" else [2.0] + rows[0][1:]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_models(path)
    assert re.fullmatch(rf"recognition table {name}: row normalization off by \S+",
                        str(err.value))


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
       repeated=st.booleans())
def test_row_texts_match_json_dumps(data, n_rows, child_dim, repeated):
    if repeated:
        pool = data.draw(st.lists(st.floats(), min_size=1, max_size=3))
        values = st.sampled_from(pool + AWKWARD_FLOATS)
    else:
        values = st.floats() | st.sampled_from(AWKWARD_FLOATS)
    flat = data.draw(st.lists(values, min_size=n_rows * child_dim,
                              max_size=n_rows * child_dim))
    a = np.array(flat, dtype=float).reshape(n_rows, child_dim)
    assert _row_texts(a).tolist() == [json.dumps(row)[1:-1] for row in a.tolist()]
    # the writer's per-block pass over a block's rows tells them apart by bits
    distinct, index = _distinct_rows(a)
    assert np.array_equal(bits(distinct[index]), bits(a))
    assert len(np.unique(bits(distinct), axis=0)) == len(distinct)


def _reference_bundle_text(gen, rec, ref):
    """The bundle as json.dump writes it from nested lists, field by field,
    a recognition factor's filtering rows repeated over the future axis."""
    tables = {}
    for model, names in ((gen, GenerativeModel.table_names),
                         (ref, ReferenceModel.table_names)):
        for name in names:
            t = getattr(model, name)
            tables[name] = {"parents": list(t.parent_dims), "child": t.child_dim,
                            "rows": t.probs.tolist(),
                            "strictly_positive": t.strictly_positive}
    for name in REC_FACTORS:
        # each (x_prev, o, a) context's rows once per future slice
        table = rec.tables[name]
        whole = np.repeat(table[:, :, :, None], gen.spec.card_o + 1, axis=3)
        tables["rec_" + name] = {
            "dims": list(whole.shape),
            "rows": whole.reshape(-1, whole.shape[-1]).tolist()}
    doc = {"version": 1, "spec": gen.spec.to_dict(), "tables": tables}
    buf = io.StringIO()
    json.dump(doc, buf)
    return buf.getvalue()


def _distinct_instance():
    # recognition tables span more than one encoder block, every value distinct
    spec = ModelSpec(3, 3, 2, 3, 2, 2)
    rng = np.random.default_rng(4)
    shape = RecognitionModel.factor_shapes(spec)["s1"]
    assert np.prod(model._bundle_dims(spec, shape)) > _BLOCK_VALUES
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


@pytest.mark.parametrize("block_values", [_BLOCK_VALUES, 40], ids=["one-block", "blocks"])
def test_save_of_a_candidate_matches_the_copy_and_write_layout(tmp_path, monkeypatch,
                                                               block_values):
    # a candidate owns the arrays it retrains and shares the others, and is
    # written block by block; its bundle is that of fresh copies of its
    # tables (its parent's, with the softmax of its logits written in), as a
    # model and as json.dump writes them
    monkeypatch.setattr(model, "_BLOCK_VALUES", block_values)
    gen, _, ref = _distinct_instance()
    spec = gen.spec
    rng = np.random.default_rng(5)
    source = {k: softmax_rows(rng.standard_normal(shape))
              for k, shape in RecognitionModel.factor_shapes(spec).items()}
    rec = RecognitionModel(spec, {k: v.copy() for k, v in source.items()})
    params = control.extract_params(gen, rec, ())
    q = {k: v + rng.standard_normal(v.shape) for k, v in params.q_logits.items()
         if k != "a2"}
    _, cand = control.apply_params(gen, rec, control.TrainableParams(q, {}))
    for k, logits in q.items():
        source[k][...] = softmax_rows(logits)
    got, want = tmp_path / "cand.json", tmp_path / "whole.json"
    save_models(got, gen, cand, ref)
    save_models(want, gen, RecognitionModel(spec, source), ref)
    assert got.read_bytes() == want.read_bytes()
    assert got.read_bytes() == _reference_bundle_text(
        gen, SimpleNamespace(tables=source), ref).encode()


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


def test_load_of_distinct_rows_restarts_the_row_dictionary(tmp_path, monkeypatch):
    # every recognition row is distinct, so in 4 KiB chunks each array's row
    # dictionary fills and starts over many times, its indices counting on;
    # the tables still load bit for bit
    path = tmp_path / "model.json"
    gen, rec, ref = _distinct_instance()
    save_models(path, gen, rec, ref)
    restarts = []
    rows_of = model._rows_of

    def counting_rows_of(text, stop, index_of, piece_of, cuts):
        got = rows_of(text, stop, index_of, piece_of, cuts)
        restarts.append(not index_of)
        return got

    monkeypatch.setattr(model, "_BLOCK_CHARS", 1 << 12)
    monkeypatch.setattr(model, "_rows_of", counting_rows_of)
    _, got, _ = load_models(path)
    assert sum(restarts) > 2 * len(REC_FACTORS)
    for name in REC_FACTORS:
        assert np.array_equal(bits(got.tables[name]), bits(rec.tables[name]))


def gathered_bytes(calls):
    """A context manager around model._gather that adds up, in calls[0],
    the bytes of the rows and row indices it gives the reader."""
    gather = model._gather
    calls.append(0)

    def counting_gather(*args):
        values, index = gather(*args)
        calls[0] += values.nbytes + index.nbytes
        return values, index

    return mock.patch.object(model, "_gather", counting_gather)


def test_load_of_distinct_rows_holds_one_factors_blocks_at_a_time(tmp_path, monkeypatch):
    # every recognition row is distinct, so a factor's blocks are as large
    # as its rows; each array's blocks are released as it is gathered, so
    # the load's peak is the loaded model (a factor's filtering array), the
    # reader's rows and row indices and a few chunks, not every factor's
    # blocks beside them
    path = tmp_path / "model.json"
    save_models(path, *_distinct_instance())
    monkeypatch.setattr(model, "_BLOCK_CHARS", 1 << 16)
    gathered = []
    with gathered_bytes(gathered):
        tracemalloc.start()
        try:
            gen, rec, ref = load_models(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    held = (sum(rec.tables[k].nbytes for k in REC_FACTORS)
            + sum(getattr(m, name).probs.nbytes
                  for m in (gen, ref) for name in m.table_names))
    largest = max(rec.tables[k].nbytes for k in REC_FACTORS)
    assert largest < sum(rec.tables[k].nbytes for k in REC_FACTORS) / 2
    assert peak < held + gathered[0] + 8 * model._BLOCK_CHARS


# Value texts json reads as integers; "-0" is the integer 0, so 0.0, not -0.0.
INTEGER_TEXTS = ["-0", "0", "7", "-3", "100"]

# What the one-array bundles of read_rows hold before their rows array.
ROWS_PREFIX = b'{"rows": '


# A pattern no text matches: in its place, the reader finds no dims and cuts
# pieces of one row.
NO_DIMS = re.compile(rb"(?!)")


def read_rows(text, child_dim, chunk_chars, dims=None):
    """The rows array `text` as load_models reads it: from the bundle
    {"rows": text}, or {"dims": dims, "rows": text} as a recognition
    factor's array is written (its dims give the reader its piece size), in
    chunks of chunk_chars bytes, gathered child_dim wide; ValueError if
    load_models would reject it."""
    prefix = (ROWS_PREFIX if dims is None
              else b'{"dims": %b, "rows": ' % json.dumps(dims).encode())
    with mock.patch.object(model, "_BLOCK_CHARS", chunk_chars):
        doc, arrays = model._read_bundle(io.BytesIO(prefix + text + b"}"))
    values, index = model._gather(arrays, doc["rows"], child_dim, "rows")
    return values[index]


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       child_dim=st.integers(min_value=1, max_value=4),
       chunk_chars=st.integers(min_value=1, max_value=256),
       runs=st.lists(st.tuples(st.sampled_from(["rows", "values", "fresh"]),
                               st.integers(min_value=0, max_value=24)),
                     max_size=4))
def test_parse_rows_matches_json_loads(data, child_dim, chunk_chars, runs):
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
    if not rows:  # no table has no rows, and json.dump writes no empty array
        with pytest.raises(ValueError):
            read_rows(text, child_dim, chunk_chars)
        return
    got = read_rows(text, child_dim, chunk_chars)
    want = np.array(json.loads(text), dtype=float).reshape(len(rows), child_dim)
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       child_dim=st.integers(min_value=1, max_value=3),
       piece_rows=st.integers(min_value=1, max_value=4),
       n_pieces=st.integers(min_value=1, max_value=12),
       chunk_chars=st.integers(min_value=1, max_value=96))
def test_parse_rows_by_pieces_matches_json_loads(data, child_dim, piece_rows, n_pieces,
                                                 chunk_chars):
    # a recognition factor's array: n_pieces contexts of piece_rows rows
    # each, drawn from a few piece texts (read whole once seen) and fresh
    # ones, read in chunks that cut inside pieces, separators and "]]"; its
    # dims are the array's or give another piece size; whatever the piece
    # size, the reader gives the rows of json.loads, and the rows and row
    # index of the row-by-row read (pieces of one row), bit for bit
    value = st.floats().map(json.dumps) | st.sampled_from(
        [json.dumps(v) for v in AWKWARD_FLOATS[:4]] + INTEGER_TEXTS[:2])
    row = st.lists(value, min_size=child_dim, max_size=child_dim).map(", ".join)
    piece = st.lists(row, min_size=piece_rows, max_size=piece_rows)
    pool = data.draw(st.lists(piece, min_size=1, max_size=3))
    rows = sum(data.draw(st.lists(st.sampled_from(pool) | piece, min_size=n_pieces,
                                  max_size=n_pieces)), [])
    text = ("[" + ", ".join(f"[{r}]" for r in rows) + "]").encode()
    dims = data.draw(st.sampled_from([
        [n_pieces, 1, 1, piece_rows, child_dim],
        [1, 1, 1, n_pieces * piece_rows, child_dim],
        [n_pieces * piece_rows, 1, 1, child_dim],
        [n_pieces, 1, 1, piece_rows + 1, 2, child_dim]]))
    gathered, gather = [], model._gather

    def keeping_gather(*args):
        gathered.append(gather(*args))
        return gathered[-1]

    with mock.patch.object(model, "_gather", keeping_gather):
        got = read_rows(text, child_dim, chunk_chars, dims)
        with mock.patch.object(model, "_DIMS_BEFORE_ROWS", NO_DIMS):
            read_rows(text, child_dim, chunk_chars, dims)
    want = np.array(json.loads(text), dtype=float).reshape(len(rows), child_dim)
    assert np.array_equal(bits(got), bits(want))
    (values, index), (row_values, row_index) = gathered
    assert np.array_equal(bits(values), bits(row_values))
    assert np.array_equal(index, row_index)


def test_parse_rows_splits_pieces_that_do_not_repeat_within_a_bound():
    # the rows repeat (four texts) but the pieces, 16 rows each, do not: the
    # piece dictionary starts over on its own once its pieces fill about two
    # chunks, so beside the bundle's text the load holds the row index, the
    # gathered rows and a few chunks, not every piece's text (0.8 MB here)
    rng = np.random.default_rng(0)
    pool = [b"0.5, 0.5", b"0.25, 0.75", b"1.0, 0.0", b"0.0, 1.0"]
    n_pieces, piece_rows, chunk = 4000, 16, 1 << 14
    rows = [pool[k] for k in rng.integers(0, 4, size=n_pieces * piece_rows)]
    text = b"[[" + b"], [".join(rows) + b"]]"
    assert len(set(zip(*[iter(rows)] * piece_rows))) == n_pieces
    tracemalloc.start()
    try:
        got = read_rows(text, 2, chunk, [n_pieces, 1, 1, piece_rows, 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = np.array(json.loads(text), dtype=float)
    assert np.array_equal(bits(got), bits(want))
    assert len(text) > 32 * chunk
    assert peak < len(text) + 2 * 4 * len(rows) + got.nbytes + 8 * chunk


def test_parse_rows_converts_each_distinct_row_of_an_array_once(monkeypatch):
    # repeated rows span several blocks, beside a run of fresh rows; while
    # the array's distinct rows fit its row dictionary (about half a chunk),
    # each is converted once, in the _rows_block call of the block it first
    # shows in; in smaller chunks the dictionary starts over, and a call
    # converts only rows new to it
    repeated = [b"[-0, 0.25]", b"[0.5, -0.0]", b"[1, 0.0]"] * 100
    fresh = [b"[%d.5, -0]" % i for i in range(40)]
    rows = [r[1:-1] for r in repeated + fresh + repeated]
    text = b"[[" + b"], [".join(rows) + b"]]"
    want = np.array(json.loads(text), dtype=float)
    rows_block = model._rows_block
    for chunk_chars in (1, 7, 100, 2048, 1 << 20):
        calls = []
        monkeypatch.setattr(model, "_rows_block",
                            lambda block, k: calls.append(block[1:-1].split(b"], ["))
                            or rows_block(block, k))
        assert np.array_equal(bits(read_rows(text, 2, chunk_chars)), bits(want))
        assert all(len(set(call)) == len(call) for call in calls)
        if chunk_chars >= 2048:
            assert sum(calls, []) == list(dict.fromkeys(rows))
            assert (len(calls) > 1) is (chunk_chars < len(text))
        else:
            assert sum(map(len, calls)) > len(set(rows))


def test_parse_rows_reads_integers_as_json_does():
    text = b"[[-0, 1], [0, -0.0], [7, 1e2], [-0, -0]]"
    want = np.array(json.loads(text), dtype=float)
    assert np.array_equal(bits(read_rows(text, 2, 1)), bits(want))


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
    # as given, the bad rows repeated, the bad rows first met in a later
    # block, after blocks of one repeated good row, and, in pieces of two
    # rows, first met in a later piece after 25 of one repeated piece
    for variant, dims in ((text, None), (b"[" + b", ".join([body] * 50) + b"]", None),
                          (b"[" + b", ".join([good] * 50 + [body] * 3) + b"]", None),
                          (b"[" + b", ".join([good] * 51 + [body]) + b"]", [26, 1, 1, 2, 2])):
        for chunk_chars in range(1, 257):
            with pytest.raises(ValueError):
                read_rows(variant, 2, chunk_chars, dims)


def chunk_sizes_cutting(text, tokens):
    """Chunk sizes whose first chunk ends inside the first of each token in
    text, at every place inside it."""
    return [text.find(token) + k for token in tokens for k in range(1, len(token))]


BUNDLE_TOKENS = (b'"rows": [[', b"], [", b"]]")


def test_load_reads_across_chunk_boundaries(tmp_path):
    path = tmp_path / "model.json"
    save_models(path, *random_instance(9, floor=True))
    text = path.read_bytes()
    assert_load_matches_json(path)
    for chunk_chars in chunk_sizes_cutting(text, BUNDLE_TOKENS):
        with mock.patch.object(model, "_BLOCK_CHARS", chunk_chars):
            assert_load_matches_json(path)


@pytest.mark.parametrize("edit", [ragged_rows, lambda text: text[:len(text) // 2],
                                  lambda text: text[:-3]],
                         ids=["ragged", "truncated-rows", "truncated-end"])
def test_broken_bundles_raise_across_chunk_boundaries(tmp_path, monkeypatch, edit):
    path = tmp_path / "model.json"
    save_models(path, *random_instance(9))
    text = edit(path.read_text())
    path.write_text(text)
    for chunk_chars in chunk_sizes_cutting(text.encode(), BUNDLE_TOKENS) + [1 << 20]:
        monkeypatch.setattr(model, "_BLOCK_CHARS", chunk_chars)
        with pytest.raises(ValueError):
            load_models(path)


def test_load_holds_the_tables_and_a_few_chunks(tmp_path, monkeypatch):
    # a bundle of many chunks whose recognition tables repeat a few rows, as
    # the thermostat's do; the reader never holds the file's text, and a
    # recognition factor is read as its distinct rows and an int32 row
    # index, of which a load keeps only the filtering array, so the load's
    # peak is those, the other tables, the row checks' temporaries and a few
    # chunks (the whole tables, 4.1 MB here, would not fit)
    monkeypatch.setattr(model, "_BLOCK_CHARS", 1 << 18)
    spec = ModelSpec(4, 3, 2, 3, 2, 2)
    rng = np.random.default_rng(0)
    tables = {}
    for name, shape in RecognitionModel.factor_shapes(spec).items():
        pool = rng.dirichlet(np.ones(shape[-1]), size=7)
        tables[name] = pool[rng.integers(0, 7, size=shape[:-1])]
    whole = (spec.card_o + 1) * sum(t.nbytes for t in tables.values())
    path = tmp_path / "model.json"
    save_models(path, GenerativeModel.random(spec, rng),
                RecognitionModel(spec, tables), ReferenceModel.random(spec, rng))
    assert path.stat().st_size > 8 * model._BLOCK_CHARS
    gathered = []
    with gathered_bytes(gathered):
        tracemalloc.start()
        try:
            gen, rec, ref = load_models(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    held = (sum(rec.tables[k].nbytes for k in REC_FACTORS)
            + sum(getattr(m, name).probs.nbytes
                  for m in (gen, ref) for name in m.table_names))
    assert held < whole / 2
    assert peak < held + gathered[0] + 4 * model._BLOCK_CHARS < whole


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


def edit_dims(name, change):
    """An edit of a bundle's text that replaces the dims list of table
    `name` by change(dims)."""
    def edit(text):
        return re.sub(rf'"{name}": {{"dims": (\[[\d, ]*\])',
                      lambda m: f'"{name}": {{"dims": {json.dumps(change(json.loads(m[1])))}',
                      text, count=1)
    return edit


def load_outcome(path):
    """The tables load_models(path) gives, or the type and message of its
    error."""
    try:
        gen, rec, ref = load_models(path)
    except (ValueError, DimensionMismatchError) as exc:
        return type(exc), str(exc)
    return ([getattr(m, name).probs for m in (gen, ref) for name in m.table_names]
            + [rec.tables[name] for name in REC_FACTORS])


@pytest.mark.parametrize("chunk_chars", [1 << 20, 97])
@pytest.mark.parametrize("edit,loads", [
    (lambda text: re.sub(r'"child": (\d+), "rows"', r'"child": \1, "dims": [1, 1, 1, 3, \1], '
                         '"rows"', text, count=1), True),
    (lambda text: re.sub(r'"rec_a1": \{("dims": \[[\d, ]*\]), ("rows": \[\[.*?\]\])\}',
                         r'"rec_a1": {\2, \1}', text, count=1, flags=re.S), True),
    (edit_dims("rec_s1", lambda d: [d[0] // 2, d[1], d[2], 2, *d[3:]]), False),
    (edit_dims("rec_s2", lambda d: d[:3] + [0] + d[4:]), False),
    (edit_dims("rec_a2", lambda d: d[:3] + [10 ** 30] + d[4:]), False),
    (lambda text: re.sub(r'"rec_s1": \{"dims": \[[\d, ]*\], ', '"rec_s1": {', text), False),
], ids=["conditional-dims", "dims-after-rows", "reshaped-dims", "zero-dims", "huge-dims",
        "no-dims"])
def test_load_reads_dims_as_a_hint_only(tmp_path, monkeypatch, edit, loads, chunk_chars):
    # the "dims" list just before a rows key gives the reader its piece
    # size; where it is on a table that has none, comes after the rows, lies
    # or is missing, the load gives what the row-by-row read (pieces of one
    # row) gives: the same tables, bit for bit, or the same error
    path = tmp_path / "model.json"
    save_models(path, *random_instance(9))
    text = path.read_text()
    assert edit(text) != text
    path.write_text(edit(text))
    monkeypatch.setattr(model, "_BLOCK_CHARS", chunk_chars)
    got = load_outcome(path)
    monkeypatch.setattr(model, "_DIMS_BEFORE_ROWS", NO_DIMS)
    want = load_outcome(path)
    assert isinstance(got, list) is loads
    if loads:
        assert all(np.array_equal(bits(a), bits(b)) for a, b in zip(got, want, strict=True))
        assert_load_matches_json(path)
    else:
        assert got == want
