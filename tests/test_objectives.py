import math

import numpy as np
import pytest

from ascontrol import chains, oracle
from ascontrol.errors import EnumerationBudgetError
from ascontrol.instances import random_context, random_instance, random_state
from ascontrol.model import (CompleteState, ConditionalTable, ModelSpec,
                             RecognitionContext, ReferenceModel)
from ascontrol.objectives import (likelihood_surprisal, reference_surprisal,
                                  step_objective, variational_free_energy)
from ascontrol.validate import free_energy_errors
from conftest import uniform_instance

LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# surprisals


def test_reference_surprisal_uniform():
    gen, _, ref = uniform_instance()
    x = CompleteState(0, 1, 0, 1, 0, 1)
    assert reference_surprisal(ref, x) == pytest.approx(2 * LOG2, abs=1e-12)


def test_reference_surprisal_one_hot_match():
    spec = ModelSpec(2, 2, 2, 2, 2, 2)
    ref = ReferenceModel(
        spec,
        ref_o=ConditionalTable.one_hot((2,), 2, lambda a1: a1),
        ref_s1=ConditionalTable.one_hot((2,), 2, lambda a2: a2),
    )
    assert reference_surprisal(ref, CompleteState(1, 0, 0, 0, 1, 0)) == 0.0
    with pytest.warns(RuntimeWarning):
        assert reference_surprisal(ref, CompleteState(0, 0, 0, 0, 1, 0)) == math.inf


def test_reference_surprisal_random_lookup():
    gen, _, ref = random_instance(3)
    rng = np.random.default_rng(3)
    x = random_state(rng, gen.spec)
    expect = -(math.log(ref.ref_o.prob((x.a1,), x.o))
               + math.log(ref.ref_s1.prob((x.a2,), x.s1)))
    assert reference_surprisal(ref, x) == pytest.approx(expect, abs=1e-12)


def test_likelihood_surprisal_cases():
    gen, _, _ = uniform_instance()
    assert likelihood_surprisal(gen, CompleteState(1, 0, 0, 0, 0, 0)) == pytest.approx(
        LOG2, abs=1e-12)
    spec = gen.spec
    det = ConditionalTable.one_hot((2, 2), 2, lambda a1, s1: s1)
    gen_det = type(gen)(spec, det, gen.dyn1, gen.dyn2, gen.pol0, gen.pol1, gen.pol2)
    assert likelihood_surprisal(gen_det, CompleteState(1, 1, 0, 0, 0, 0)) == 0.0
    det_floor = ConditionalTable.one_hot((2, 2), 2, lambda a1, s1: s1,
                                         strictly_positive=True)
    gen_floor = type(gen)(spec, det_floor, gen.dyn1, gen.dyn2, gen.pol0,
                          gen.pol1, gen.pol2)
    val = likelihood_surprisal(gen_floor, CompleteState(0, 1, 0, 0, 0, 0))
    assert val == pytest.approx(-math.log(1e-12), rel=1e-6)


# ---------------------------------------------------------------------------
# variational free energy


def test_vfe_uniform():
    gen, rec, _ = uniform_instance()
    ctx = RecognitionContext(o=0, a=0, x_prev=CompleteState(0, 0, 0, 0, 0, 0))
    fe = variational_free_energy(gen, rec, ctx, tick=True)
    assert fe.total == pytest.approx(LOG2, abs=1e-12)
    assert fe.kl_prior == pytest.approx(0.0, abs=1e-12)


def test_vfe_two_forms_and_gap():
    rng = np.random.default_rng(0)
    for i in range(30):
        gen, rec, _ = random_instance(100 + i)
        ctx = random_context(rng, gen.spec)
        forms, gap, gap_err = free_energy_errors(gen, rec, ctx, bool(rng.integers(2)))
        assert forms <= 1e-10 and gap >= -1e-10 and gap_err <= 1e-10


def test_vfe_equals_evidence_at_posterior():
    from ascontrol.model import RecognitionModel
    from ascontrol.sim import with_uniform_pol0

    # under a uniform pol0 the action carries no evidence, so the
    # action-conditioned posterior tables are the posterior given o alone
    gen = with_uniform_pol0(random_instance(17)[0])
    rec_post = RecognitionModel(gen.spec, chains.posterior_recognition_tables(gen))
    rng = np.random.default_rng(17)
    for _ in range(5):
        xp = random_state(rng, gen.spec)
        o = int(rng.integers(gen.spec.card_o))
        ctx = RecognitionContext(o=o, a=0, x_prev=xp)
        fe = variational_free_energy(gen, rec_post, ctx, tick=True)
        _, log_ev = oracle.exact_step_posterior(gen, xp, o, True)
        ml = oracle.exact_marginal_likelihood(gen, xp, [o])
        assert log_ev == pytest.approx(ml, abs=1e-10)
        assert fe.total == pytest.approx(-log_ev, abs=1e-10)


def test_vfe_and_step_objective_enforce_state_budget(monkeypatch):
    gen, rec, ref = uniform_instance()  # 64 complete states
    ctx = RecognitionContext(o=1, a=1, x_prev=CompleteState(0, 0, 0, 0, 0, 0))
    monkeypatch.setattr(chains, "MAX_STATES", 63)
    with pytest.raises(EnumerationBudgetError):
        variational_free_energy(gen, rec, ctx)
    with pytest.raises(EnumerationBudgetError):
        step_objective(gen, rec, ref, ctx)
    monkeypatch.setattr(chains, "MAX_STATES", 64)
    step_objective(gen, rec, ref, ctx)


# ---------------------------------------------------------------------------
# step objective


def test_step_objective_uniform_three_terms():
    gen, rec, ref = uniform_instance()
    ctx = RecognitionContext(o=1, a=1, x_prev=CompleteState(0, 0, 0, 0, 0, 0))
    step = step_objective(gen, rec, ref, ctx, tick=True)
    assert step.j == pytest.approx(2 * LOG2, abs=1e-12)
    assert step.l == pytest.approx(LOG2, abs=1e-12)
    assert step.kl == pytest.approx(0.0, abs=1e-12)
    assert step.total == pytest.approx(3 * LOG2, abs=1e-12)


def test_surprisal_bound():
    # expected reference surprisal plus the exact one-step surprisal never
    # exceeds the step objective total
    rng = np.random.default_rng(6)
    for i in range(20):
        gen, rec, ref = random_instance(400 + i)
        ctx = random_context(rng, gen.spec)
        tick = bool(rng.integers(2))
        step = step_objective(gen, rec, ref, ctx, tick=tick)
        _, log_ev = oracle.exact_step_posterior(gen, ctx.x_prev, ctx.o, tick)
        assert step.j + (-log_ev) <= step.total + 1e-10


def test_step_objective_orderings_agree():
    rng = np.random.default_rng(1)
    for i in range(30):
        gen, rec, ref = random_instance(200 + i)
        ctx = random_context(rng, gen.spec)
        tick = bool(rng.integers(2))
        step = step_objective(gen, rec, ref, ctx, tick=tick)
        fe = variational_free_energy(gen, rec, ctx, tick=tick)
        assert step.total == pytest.approx(step.j + fe.total, abs=1e-10)
        assert step.kl >= -1e-12
