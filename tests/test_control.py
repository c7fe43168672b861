import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascontrol import chains, control, oracle
from ascontrol.errors import ConvergenceError, DegenerateSupportError
from ascontrol.instances import (hard_zero_instance, random_instance, random_state,
                                 random_value)
from ascontrol.logspace import worst_error
from ascontrol.model import (REC_FACTORS, CompleteState, RecognitionModel,
                             softmax_rows)
from ascontrol.validate import run_validation
from conftest import bits, two_cycle_instance, uniform_instance

X0 = CompleteState(0, 0, 0, 0, 0, 0)
LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# relative value iteration


def test_rvi_constant_cost():
    gen, rec, ref = uniform_instance()
    v = control.relative_value_iteration(gen, rec, ref, tol=1e-10)
    assert v.gain == pytest.approx(3 * LOG2, abs=1e-9)
    assert np.abs(v.bias).max() < 1e-8
    assert v.bias[0, 0] == 0.0


def test_rvi_two_cycle_forced_alternation():
    gen, rec, ref = two_cycle_instance(cost_hi=1.0)
    v = control.relative_value_iteration(gen, rec, ref, tol=1e-10)
    e = math.exp(-1.0)
    expect = 0.5 * (1.0 - math.log(1 - e)) + LOG2
    assert v.gain == pytest.approx(expect, abs=1e-9)


def test_rvi_gain_matches_greedy_stationary_rate():
    gen, rec, ref = random_instance(60)
    v = control.relative_value_iteration(gen, rec, ref, tol=1e-9)
    stat = control.greedy_stationary_rate(gen, rec, ref, v)
    assert v.gain == pytest.approx(stat, abs=1e-6)


def test_rvi_reinitialization_invariance():
    gen, rec, ref = random_instance(61)
    v1 = control.relative_value_iteration(gen, rec, ref, tol=1e-10)
    h0 = np.random.default_rng(5).standard_normal(v1.bias.shape) * 3.0
    v2 = control.relative_value_iteration(gen, rec, ref, tol=1e-10, h0=h0)
    assert v1.gain == pytest.approx(v2.gain, abs=1e-8)
    assert np.array_equal(v1.greedy, v2.greedy)


def test_rvi_residual_bound():
    gen, rec, ref = random_instance(62)
    tol = 1e-9
    v = control.relative_value_iteration(gen, rec, ref, tol=tol)
    ops = control._BellmanOps(gen, rec, ref)
    worst = 0.0
    for p in range(v.period):
        vals, _ = ops.backup(p, v.bias[(p + 1) % v.period])
        worst = max(worst, float(np.abs(vals - v.gain - v.bias[p]).max()))
    assert worst <= tol


def test_rvi_nonconvergence_error_carries_residual():
    # the residual is verified on the last sweep too, so a budget below the
    # periodic check still reports a finite residual
    gen, rec, ref = random_instance(63)
    for max_iter in (3, 9, 11):
        with pytest.raises(ConvergenceError) as exc:
            control.relative_value_iteration(gen, rec, ref, tol=1e-14,
                                             max_iter=max_iter)
        assert math.isfinite(exc.value.residual)
        assert "inf" not in str(exc.value)
        assert f"after {max_iter} sweeps" in str(exc.value)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_rvi_refuses_states_of_infinite_cost_under_every_action(monkeypatch):
    # on this hard-zero instance 6 of 8 states have infinite expected cost
    # under every action tuple at the tick phase: no finite bias exists, and
    # relative value iteration must say so before its first sweep
    gen, rec, ref = hard_zero_instance(2, (2, 1, 2, 2, 1, 1), 2)

    def unreachable(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(control._BellmanOps, "backup", unreachable)
    with pytest.raises(DegenerateSupportError, match="6 states .* phase 0"):
        control.relative_value_iteration(gen, rec, ref)


@pytest.mark.parametrize("kw", [{"tol": 0.0}, {"tol": -1e-9}, {"tol": math.nan},
                                {"tol": math.inf}, {"max_iter": 0}],
                         ids=["tol-0", "tol-negative", "tol-nan", "tol-inf",
                              "max_iter-0"])
def test_rvi_rejects_bad_settings_before_building_operators(monkeypatch, kw):
    gen, rec, ref = uniform_instance()

    def no_ops(*args, **kwargs):
        raise AssertionError("Bellman operators built for a bad setting")

    monkeypatch.setattr(control, "_BellmanOps", no_ops)
    with pytest.raises(ValueError, match=next(iter(kw))):
        control.relative_value_iteration(gen, rec, ref, **kw)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), phase=st.integers(0, 5),
       h_seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1e-3, 1.0, 50.0]),
       cards=st.tuples(*[st.integers(1, 2)] * 5 + [st.integers(1, 3)]),
       tick_period=st.integers(1, 3), floor=st.booleans())
def test_backup_matches_constant_policy_operators(seed, phase, h_seed, scale,
                                                  cards, tick_period, floor):
    # two routes to one backup: the vectorized hard min over action tuples,
    # and min over u of each constant policy's (cost + matrix @ h)
    gen, rec, ref = random_instance(seed, cards=cards, tick_period=tick_period,
                                    floor=floor)
    ops = control._BellmanOps(gen, rec, ref)
    n, p = gen.spec.n_states, phase % ops.period
    h = np.random.default_rng(h_seed).standard_normal(n) * scale
    vals, argmin = ops.backup(p, h)
    per_u = np.empty((ops.n_u, n))
    for u in range(ops.n_u):
        mats, costs = ops.greedy_operators(np.full((ops.period, n), u))
        per_u[u] = costs[p] + mats[p] @ h
    want = per_u.min(axis=0)
    tol = 1e-12 * np.maximum(1.0, np.abs(want))
    assert np.all(np.abs(vals - want) <= tol)
    assert np.all(np.abs(per_u[argmin, np.arange(n)] - want) <= tol)


def test_rvi_rollout_within_three_stderr():
    gen, rec, ref = random_instance(64)
    v = control.relative_value_iteration(gen, rec, ref, tol=1e-9)
    mean, se = control.greedy_rollout_rate(gen, rec, ref, v, X0, 100_000, seed=2)
    assert abs(mean - v.gain) <= 3 * se


# ---------------------------------------------------------------------------
# optimal transition density


def test_qstar_constant_bias_recovers_model_row():
    gen, rec, ref = random_instance(70)
    spec = gen.spec
    bias = np.full((2, spec.n_states), 1.7)  # constant: reweighting cancels
    value = control.DifferentialValue(spec=spec, gain=0.0, bias=bias,
                                      anchor_state=X0)
    x = CompleteState(1, 0, 1, 1, 0, 1)
    for t, tick in ((0, True), (1, False)):
        q = control.optimal_transition(gen, value, x, t=t)
        row = chains.transition_row(gen, x, tick=tick)
        assert np.allclose(q, row, atol=1e-12)


def test_qstar_one_hot_when_bias_spikes():
    gen, rec, ref = random_instance(71)
    spec = gen.spec
    bias = np.full((2, spec.n_states), 1e9)
    bias[:, 5] = 0.0
    value = control.DifferentialValue(spec=spec, gain=0.0, bias=bias,
                                      anchor_state=X0)
    x = CompleteState(0, 0, 0, 0, 0, 0)
    q = control.optimal_transition(gen, value, x, t=0)
    assert q[5] == pytest.approx(1.0, abs=1e-9)
    # with q* one-hot on successor 5, the KL collapses to -log p(5 | x)
    lhs, rhs = control.kl_qstar_identity(gen, value, x, t=0)
    row = chains.transition_row(gen, x, tick=True)
    assert lhs == pytest.approx(-math.log(row[5]), abs=1e-6)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_qstar_normalization_and_kl_sign_sweep():
    rng = np.random.default_rng(1)
    for i in range(30):
        gen, rec, ref = random_instance(700 + i)
        value = random_value(rng, gen.spec, scale=2.0)
        x = random_state(rng, gen.spec)
        for t in (1, 2):
            q = control.optimal_transition(gen, value, x, t=t)
            assert q.sum() == pytest.approx(1.0, abs=1e-12)
            lhs, _ = control.kl_qstar_identity(gen, value, x, t=t)
            assert lhs >= -1e-12


def test_kl_identity_constant_bias_both_sides_zero():
    gen, rec, ref = random_instance(72)
    spec = gen.spec
    bias = np.zeros((2, spec.n_states))
    value = control.DifferentialValue(spec=spec, gain=0.0, bias=bias,
                                      anchor_state=X0)
    lhs, rhs = control.kl_qstar_identity(gen, value, CompleteState(0, 1, 0, 1, 0, 1))
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)


def test_kl_identity_sweep_including_rvi_values():
    rng = np.random.default_rng(2)
    worst = 0.0
    for i in range(20):
        gen, rec, ref = random_instance(800 + i)
        if i % 2 == 0:
            value = random_value(rng, gen.spec, scale=1.5)
        else:
            value = control.relative_value_iteration(gen, rec, ref, tol=1e-8)
        for _ in range(5):
            x = random_state(rng, gen.spec)
            t = int(rng.integers(1, 3))
            lhs, rhs = control.kl_qstar_identity(gen, value, x, t=t)
            worst = worst_error(worst, abs(lhs - rhs))
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# Monte Carlo path-integral value


def test_mc_pi_zero_advantage_exact():
    gen, rec, ref = uniform_instance()
    rate = 3 * LOG2
    est, se = control.mc_path_integral_value(gen, rec, ref, X0, 4, rate,
                                             mode="feedback", n_rollouts=64,
                                             seed=0)
    assert est == pytest.approx(0.0, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_mc_pi_requires_two_rollouts():
    gen, rec, ref = uniform_instance()
    with pytest.raises(ValueError):
        control.mc_path_integral_value(gen, rec, ref, X0, 2, 0.0, n_rollouts=1)


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
def test_mc_pi_requires_a_finite_rate(rate):
    gen, rec, ref = uniform_instance()
    with pytest.raises(ValueError, match="rate must be a finite number"):
        control.mc_path_integral_value(gen, rec, ref, X0, 2, rate, n_rollouts=4)


def test_mc_pi_deterministic_chain_exact():
    from test_oracle import deterministic_gen

    gen = deterministic_gen()
    _, rec, ref = random_instance(89)
    rate = 0.2
    exact = oracle.exact_path_integral_value(gen, rec, ref, X0, 4, rate,
                                             mode="feedforward")
    est, se = control.mc_path_integral_value(gen, rec, ref, X0, 4, rate,
                                             mode="feedforward", n_rollouts=16,
                                             seed=0)
    assert est == pytest.approx(exact, abs=1e-10)
    assert se == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("mode", ["feedforward", "feedback"])
def test_mc_pi_within_three_stderr_of_exact(mode):
    gen, rec, ref = random_instance(90, cards=(2, 2, 2, 2, 1, 1))
    rng = np.random.default_rng(90)
    x0 = random_state(rng, gen.spec)
    rate = 0.6
    exact = oracle.exact_path_integral_value(gen, rec, ref, x0, 4, rate, mode=mode)
    est, se = control.mc_path_integral_value(gen, rec, ref, x0, 4, rate,
                                             mode=mode, n_rollouts=100_000, seed=4)
    assert abs(est - exact) <= 3 * se


# ---------------------------------------------------------------------------
# differential free energy


def test_dfe_zero_advantage_equality():
    gen, rec, ref = uniform_instance()
    rate = 3 * LOG2
    bound = control.differential_free_energy(gen, rec, ref, X0, 4, rate)
    pi = oracle.exact_path_integral_value(gen, rec, ref, X0, 4, rate,
                                          mode="feedback")
    assert bound == pytest.approx(0.0, abs=1e-10)
    assert bound == pytest.approx(pi, abs=1e-10)


def test_dfe_jensen_bound_sweep():
    rng = np.random.default_rng(3)
    for i in range(25):
        gen, rec, ref = random_instance(900 + i, cards=(2, 2, 2, 2, 1, 1))
        x0 = random_state(rng, gen.spec)
        rate = float(rng.standard_normal() * 0.4)
        bound = control.differential_free_energy(gen, rec, ref, x0, 3, rate)
        pi = oracle.exact_path_integral_value(gen, rec, ref, x0, 3, rate,
                                              mode="feedback")
        assert bound >= pi - 1e-8


def test_dfe_mc_agrees_with_exact():
    gen, rec, ref = random_instance(91, cards=(2, 2, 2, 2, 1, 1))
    exact = control.differential_free_energy(gen, rec, ref, X0, 3, 0.1)
    mc = control.differential_free_energy(gen, rec, ref, X0, 3, 0.1,
                                          n_rollouts=200_000, seed=8)
    assert mc == pytest.approx(exact, abs=0.05)


# ---------------------------------------------------------------------------
# gradients and training


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    for i, cards in enumerate([(2, 2, 1, 2, 2, 1), (2, 2, 2, 2, 1, 1)]):
        gen, rec, ref = random_instance(950 + i, cards=cards)
        x0 = random_state(rng, gen.spec)
        params = control.extract_params(gen, rec)
        gen2, rec2 = control.apply_params(gen, rec, params)
        _, grads = control.dfe_value_and_grad(gen2, rec2, ref, x0, 3, 0.15)
        fd = control.fd_gradients(gen, rec, ref, params, x0, 3, 0.15)
        assert control.gradient_relative_error(grads, fd) <= 1e-4


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_nan_gradients_fail_the_gradient_check():
    # from flat state 0 a reachable state has infinite expected cost, so the
    # objective is +inf and both the adjoint and the finite differences are
    # NaN; the error must be NaN, which fails any tolerance, not 0.0
    gen, rec, ref = hard_zero_instance(2, (2, 1, 2, 2, 1, 1), 2)
    x0 = CompleteState.from_flat(0, gen.spec)
    params = control.extract_params(gen, rec)
    gen2, rec2 = control.apply_params(gen, rec, params)
    _, grads = control.dfe_value_and_grad(gen2, rec2, ref, x0, 2, 0.3)
    fd = control.fd_gradients(gen, rec, ref, params, x0, 2, 0.3)
    assert math.isnan(control.gradient_relative_error(grads, fd))


def test_worst_error_keeps_nan():
    for errors in ([0.0, math.nan, 1.0], [math.nan, 0.0], [1.0, 2.0, math.nan]):
        worst = 0.0
        for err in errors:
            worst = worst_error(worst, err)
        assert math.isnan(worst)
    assert worst_error(worst_error(0.0, 2.0), 1.0) == 2.0


def test_validation_fails_on_nan_errors(monkeypatch):
    # a NaN path-integral value makes the soft-value and Jensen checks NaN
    monkeypatch.setattr(oracle, "exact_path_integral_value",
                        lambda *args, **kwargs: math.nan)
    report = run_validation(seed=3, instances=1)
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failed == {"soft_value_vs_path_integral", "jensen_bound_violation"}
    assert not report["all_passed"]


def fd_rebuilding_both_models(gen, rec, ref, params, x0, T, rate):
    """Central differences that rebuild both models from scratch for every
    evaluation: the route fd_gradients must reproduce bit for bit."""

    def objective():
        g2, r2 = control.apply_params(gen, rec, params)
        return control.differential_free_energy(g2, r2, ref, x0, T, rate)

    out = {}
    for group in ("q_logits", "pol_logits"):
        for key, arr in getattr(params, group).items():
            grad = np.zeros_like(arr)
            flat, g = arr.reshape(-1), grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + control._FD_STEP
                hi = objective()
                flat[i] = orig - control._FD_STEP
                lo = objective()
                flat[i] = orig
                g[i] = (hi - lo) / (2.0 * control._FD_STEP)
            out[group, key] = grad
    return out


@pytest.mark.parametrize("cards", [(2, 2, 1, 2, 2, 1), (2, 2, 2, 2, 1, 1)])
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2 ** 16), T=st.integers(1, 3))
def test_fd_gradients_match_rebuilding_both_models(cards, seed, T):
    gen, rec, ref = random_instance(seed, cards=cards)
    rng = np.random.default_rng(seed)
    x0 = random_state(rng, gen.spec)
    rate = float(rng.standard_normal() * 0.2)
    # logits away from the loaded tables, so the unperturbed models that
    # fd_gradients shares differ from `gen` and `rec`
    base = control.extract_params(gen, rec)
    params = control.TrainableParams(
        {k: v + 0.3 * rng.standard_normal(v.shape) for k, v in base.q_logits.items()},
        {k: v + 0.3 * rng.standard_normal(v.shape) for k, v in base.pol_logits.items()})
    fd = control.fd_gradients(gen, rec, ref, params, x0, T, rate)
    want = fd_rebuilding_both_models(gen, rec, ref, params, x0, T, rate)
    assert set(want) == ({("q_logits", k) for k in fd.q_logits}
                         | {("pol_logits", k) for k in fd.pol_logits})
    for (group, key), w in want.items():
        assert np.array_equal(bits(getattr(fd, group)[key]), bits(w)), (group, key)


def test_fd_gradients_build_one_generative_half_per_generative_model(monkeypatch):
    # recognition perturbations share the unperturbed generative model, so
    # the latent prior is built once per tick for it and for each of the two
    # models of every policy-logit perturbation
    gen, rec, ref = random_instance(960, cards=(2, 2, 1, 2, 2, 1))
    params = control.extract_params(gen, rec)
    calls = []
    latent_prior = chains.latent_prior

    def counted(g, tick):
        calls.append(tick)
        return latent_prior(g, tick)

    monkeypatch.setattr(chains, "latent_prior", counted)
    control.fd_gradients(gen, rec, ref, params, X0, 2, 0.1)
    n_pol = sum(v.size for v in params.pol_logits.values())
    assert len(calls) <= 2 * (2 * n_pol + 1)


def test_fd_gradients_rebuild_only_the_perturbed_factor(monkeypatch):
    # a perturbed recognition logit rebuilds its own factor's table; the
    # other three are the unperturbed model's arrays, which the policy-logit
    # evaluations read whole
    gen, rec, ref = random_instance(961, cards=(2, 2, 1, 2, 2, 1))
    params = control.extract_params(gen, rec)
    recs = []
    monkeypatch.setattr(control, "differential_free_energy",
                        lambda g, r, *args: recs.append(r) or 0.0)
    control.fd_gradients(gen, rec, ref, params, X0, 2, 0.1)
    sizes = {k: 2 * v.size for k, v in params.q_logits.items()}
    n_q = sum(sizes.values())
    base = recs[n_q]
    assert all(r is base for r in recs[n_q:])
    start = 0
    for key, size in sizes.items():
        for r in recs[start:start + size]:
            for k in REC_FACTORS:
                assert (r.tables[k] is base.tables[k]) == (k != key), (key, k)
        start += size


def with_other_smoothing_slices(rec, seed):
    """`rec` with every non-sentinel slice replaced by other normalized rows."""
    other = RecognitionModel.from_seed(rec.spec, seed)
    sent = rec.future_sentinel
    tables = {}
    for k in REC_FACTORS:
        tables[k] = np.array(other.tables[k])
        tables[k][:, :, :, sent] = rec.tables[k][:, :, :, sent]
    return RecognitionModel(rec.spec, tables)


@pytest.mark.parametrize("seed", [0, 1])
def test_objective_reads_only_sentinel_slices(seed):
    # the average-surprise objective is scored under filtering beliefs, so
    # its value, every gradient entry and the rate ignore the smoothing slices
    gen, rec, ref = random_instance(930 + seed, cards=(2, 2, 2, 2, 2, 1))
    other = with_other_smoothing_slices(rec, 77 + seed)
    assert not all(np.array_equal(rec.tables[k], other.tables[k]) for k in REC_FACTORS)
    x0 = random_state(np.random.default_rng(seed), gen.spec)
    assert (control.differential_free_energy(gen, rec, ref, x0, 3, 0.1)
            == control.differential_free_energy(gen, other, ref, x0, 3, 0.1))
    value, grads = control.dfe_value_and_grad(gen, rec, ref, x0, 3, 0.1)
    value_o, grads_o = control.dfe_value_and_grad(gen, other, ref, x0, 3, 0.1)
    assert value == value_o
    for group in ("q_logits", "pol_logits"):
        for k, g in getattr(grads, group).items():
            assert np.array_equal(bits(g), bits(getattr(grads_o, group)[k])), (group, k)
    assert (oracle.exact_average_rate(gen, rec, ref, x0, 8, 4, chain="recognition")
            == oracle.exact_average_rate(gen, other, ref, x0, 8, 4, chain="recognition"))


def test_apply_params_trains_only_sentinel_slices():
    gen, rec, ref = random_instance(940, cards=(2, 2, 1, 2, 2, 1))
    params = control.extract_params(gen, rec)
    shapes = RecognitionModel.factor_shapes(gen.spec)
    for k, logits in params.q_logits.items():
        assert logits.shape == shapes[k][:3] + shapes[k][4:]  # no future axis
    _, grads = control.dfe_value_and_grad(gen, rec, ref, X0, 3, 0.1)
    cand = params.step(grads, 0.5)
    _, rec2 = control.apply_params(gen, rec, cand)
    sent = rec.future_sentinel
    for k in REC_FACTORS:
        assert np.array_equal(bits(rec2.tables[k][:, :, :, :sent]),
                              bits(rec.tables[k][:, :, :, :sent]))
        assert np.array_equal(bits(rec2.tables[k][:, :, :, sent]),
                              bits(softmax_rows(cand.q_logits[k])))
        assert not rec2.tables[k].flags.writeable
    assert not all(np.array_equal(rec2.tables[k], rec.tables[k]) for k in REC_FACTORS)


def test_zero_gradient_at_deterministic_optimum():
    # cost_hi = log 2 makes the observation reference uniform, so the
    # deterministic reference-matching chain has state-independent edge
    # costs: the recognition beliefs are already exact (one-hot) and every
    # free-logit gradient vanishes at iteration 0.
    gen, rec, ref = two_cycle_instance(cost_hi=LOG2)
    params = control.extract_params(gen, rec, trainable_policies=())
    gen2, rec2 = control.apply_params(gen, rec, params)
    value, grads = control.dfe_value_and_grad(gen2, rec2, ref, X0, 3, 0.0,
                                              trainable_policies=())
    assert np.isfinite(value)
    assert grads.norm() == pytest.approx(0.0, abs=1e-9)


def test_training_monotone_under_exact_gradients():
    gen, rec, ref = random_instance(96, cards=(2, 2, 1, 2, 2, 1), floor=True)
    report, _, _ = control.train(gen, rec, ref, X0, T=3, iters=30, lr=5e-3,
                                 halving=False, rate_refresh=0)
    tr = report.objective_trace
    assert len(tr) == 30
    assert all(tr[k + 1] <= tr[k] + 1e-10 for k in range(len(tr) - 1))


def test_training_report_shape_and_rate_refresh():
    gen, rec, ref = random_instance(97, cards=(2, 2, 1, 2, 2, 1), floor=True)
    report, gen2, rec2 = control.train(gen, rec, ref, X0, T=3, iters=12, lr=0.05,
                                       rate_refresh=5)
    assert report.iterations == 12
    assert len(report.grad_norm_trace) == 12
    assert np.isfinite(report.final_rate)
    assert isinstance(rec2, RecognitionModel)


def test_training_report_records_step_sizes_and_rates():
    # lr 40 forces halvings; rate_refresh 2 re-estimates the rate after every
    # second step, so the gradients of iterations 2 and 4 use new rates
    gen, rec, ref = random_instance(97, cards=(2, 2, 1, 2, 2, 1), floor=True)
    report, _, _ = control.train(gen, rec, ref, X0, T=3, iters=6, lr=40.0,
                                 rate_refresh=2)
    doc = json.loads(json.dumps(report.to_dict()))
    steps, rates = doc["step_size_trace"], doc["rate_trace"]
    assert len(steps) == len(rates) == doc["iterations"] == 6
    assert steps[0] < 40.0
    assert all(math.log2(40.0 / s).is_integer() for s in steps)
    assert steps == sorted(steps, reverse=True)
    cur_gen, cur_rec = control.apply_params(gen, rec, control.extract_params(gen, rec))
    assert rates[0] == oracle.exact_average_rate(cur_gen, cur_rec, ref, X0,
                                                 *control._RATE_HORIZON,
                                                 chain="recognition")
    assert rates[0] == rates[1] and rates[2] == rates[3] and rates[4] == rates[5]
    assert len({rates[0], rates[2], rates[4], doc["final_rate"]}) == 4
    # without halving every step is the learning rate
    plain, _, _ = control.train(gen, rec, ref, X0, T=3, iters=2, lr=40.0,
                                halving=False, rate_refresh=0)
    assert plain.step_size_trace == [40.0, 40.0]
    assert plain.rate_trace == [rates[0]] * 2


def test_score_training_is_seeded_and_finite():
    gen, rec, ref = random_instance(97, cards=(2, 2, 1, 2, 2, 1), floor=True)

    def run(seed):
        return control.train(gen, rec, ref, X0, T=3, iters=4, lr=0.05, seed=seed,
                             estimator="score")

    (rep_a, gen_a, rec_a), (rep_b, gen_b, rec_b) = run(5), run(5)
    assert rep_a.to_dict() == rep_b.to_dict()
    for name in control.POLICY_TABLES:
        assert np.array_equal(bits(getattr(gen_a, name).probs),
                              bits(getattr(gen_b, name).probs))
    for k in REC_FACTORS:
        assert np.array_equal(bits(rec_a.tables[k]), bits(rec_b.tables[k]))
    assert run(6)[0].objective_trace != rep_a.objective_trace
    assert rep_a.iterations == 4
    values = rep_a.objective_trace + rep_a.grad_norm_trace + [rep_a.final_rate]
    assert np.all(np.isfinite(values))
    for k in REC_FACTORS:
        assert np.all(np.isfinite(rec_a.tables[k]))
    for name in control.POLICY_TABLES:
        assert np.all(np.isfinite(getattr(gen_a, name).probs))


def test_score_gradient_tracks_exact_direction():
    gen, rec, ref = random_instance(98, cards=(2, 2, 1, 2, 1, 1), floor=True)
    params = control.extract_params(gen, rec)
    gen2, rec2 = control.apply_params(gen, rec, params)
    _, exact = control.dfe_value_and_grad(gen2, rec2, ref, X0, 3, 0.1)
    _, score = control.score_function_grad(gen2, rec2, ref, X0, 3, 0.1,
                                           n_rollouts=60_000, seed=12)
    num = den_a = den_b = 0.0
    for group in ("q_logits", "pol_logits"):
        for k, g in getattr(exact, group).items():
            s = getattr(score, group)[k]
            num += float(np.sum(g * s))
            den_a += float(np.sum(g * g))
            den_b += float(np.sum(s * s))
    cosine = num / math.sqrt(den_a * den_b)
    assert cosine > 0.9


def test_value_file_round_trip(tmp_path):
    gen, rec, ref = random_instance(99)
    v = control.relative_value_iteration(gen, rec, ref, tol=1e-8)
    path = tmp_path / "value.json"
    v.save(path)
    v2 = control.DifferentialValue.load(path)
    assert v2.gain == v.gain
    assert np.array_equal(v2.bias, v.bias)
    assert np.array_equal(v2.greedy, v.greedy)
    assert v2.anchor_state == v.anchor_state
