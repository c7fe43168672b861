"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them as they complete)."""

import math
import subprocess
import sys
import time

import numpy as np

from ascontrol import control, oracle
from ascontrol.instances import (hard_zero_cases, random_context, random_instance,
                                 random_value)
from ascontrol.logspace import worst_error
from ascontrol.model import CompleteState
from ascontrol.validate import (free_energy_errors, gradient_error, jensen_violation,
                                recursion_vs_enumeration)
from conftest import uniform_instance

X0 = CompleteState(0, 0, 0, 0, 0, 0)
LOG2 = math.log(2.0)


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {num}: {name} ({detail})")
    assert passed, f"criterion {num}: {name}: {detail}"


def test_criterion_1_free_energy_decomposition():
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst_forms, worst_gap = 0.0, 0.0
    for i in range(100):
        gen, rec, _ = random_instance(10_000 + i)
        for tick in (True, False):
            ctx = random_context(rng, gen.spec)
            forms, gap, gap_err = free_energy_errors(gen, rec, ctx, tick)
            worst_forms = worst_error(worst_forms, forms)
            worst_gap = worst_error(worst_gap, gap_err)
            assert gap >= -1e-10
    elapsed = time.time() - t0
    report(1, "free-energy two-form agreement and posterior gap",
           worst_forms <= 1e-10 and worst_gap <= 1e-10 and elapsed < 10.0,
           f"forms {worst_forms:.2e}, gap {worst_gap:.2e}, {elapsed:.1f}s")


def test_criterion_2_reweighted_row_normalization():
    rng = np.random.default_rng(2)
    worst = 0.0
    for i in range(100):
        gen, _, _ = random_instance(20_000 + i)
        value = random_value(rng, gen.spec, scale=2.0)
        for t in (0, 1):
            for flat in range(gen.spec.n_states):
                x = CompleteState.from_flat(flat, gen.spec)
                q = control.optimal_transition(gen, value, x, t=t)
                worst = worst_error(worst, abs(float(q.sum()) - 1.0))
    report(2, "reweighted transition rows normalize", worst <= 1e-12,
           f"max |sum-1| = {worst:.2e}")


def test_criterion_3_kl_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for i in range(100):
        gen, rec, ref = random_instance(30_000 + i)
        if i < 80:
            value = random_value(rng, gen.spec, scale=1.5)
        else:
            value = control.relative_value_iteration(gen, rec, ref, tol=1e-8)
        for t in (0, 1):
            for flat in range(0, gen.spec.n_states, 7):
                x = CompleteState.from_flat(flat, gen.spec)
                lhs, rhs = control.kl_qstar_identity(gen, value, x, t=t)
                worst = worst_error(worst, abs(lhs - rhs))
    report(3, "KL identity for the reweighted controller", worst <= 1e-10,
           f"max |lhs-rhs| = {worst:.2e}, incl. solver-produced tables")


def test_criterion_4_recursion_vs_enumeration():
    t0 = time.time()
    instances = [random_instance(40_000 + i, cards=(2, 2, 2, 2, 1, 1) if i % 2 == 0
                                 else (2, 2, 2, 1, 1, 1)) for i in range(100)]
    instances += hard_zero_cases(41_000, 12)
    worst, infinite = recursion_vs_enumeration(instances, np.random.default_rng(4),
                                               range(1, 6), 0.3)
    elapsed = time.time() - t0
    report(4, "soft recursion equals exhaustive path enumeration (T=1..5)",
           worst <= 1e-8 and elapsed < 60.0,
           f"max diff = {worst:.2e}, {infinite} infinite path values on 12 "
           f"hard-zero instances, {elapsed:.1f}s")


def test_criterion_5_jensen_bound():
    instances = [random_instance(50_000 + i, cards=(2, 2, 2, 2, 1, 1) if i % 2 == 0
                                 else (2, 2, 2, 1, 1, 1)) for i in range(100)]
    instances += hard_zero_cases(51_000, 16)
    worst_violation, inf_bounds, inf_paths = jensen_violation(
        instances, np.random.default_rng(5), 4, 0.4)
    # constant-advantage instances: equality
    worst_eq = 0.0
    gen, rec, ref = uniform_instance()
    for rate in (3 * LOG2, 0.0):
        bound = control.differential_free_energy(gen, rec, ref, X0, 4, rate)
        pi = oracle.exact_path_integral_value(gen, rec, ref, X0, 4, rate,
                                              mode="feedback")
        worst_eq = worst_error(worst_eq, abs(bound - pi))
    report(5, "differential free energy dominates the path-integral value",
           worst_violation <= 1e-8 and worst_eq <= 1e-10,
           f"max violation = {worst_violation:.2e}, {inf_bounds} infinite bounds "
           f"and {inf_paths} infinite path values on 16 hard-zero instances, "
           f"equality gap = {worst_eq:.2e}")


def test_criterion_6_average_cost_consistency():
    worst_gain, worst_z = 0.0, 0.0
    for seed in (600, 601):
        gen, rec, ref = random_instance(seed)
        value = control.relative_value_iteration(gen, rec, ref, tol=1e-9)
        stat = control.greedy_stationary_rate(gen, rec, ref, value)
        worst_gain = worst_error(worst_gain, abs(value.gain - stat))
        mean, se = control.greedy_rollout_rate(gen, rec, ref, value, X0,
                                               100_000, seed=seed)
        worst_z = worst_error(worst_z, abs(mean - value.gain) / se)
    report(6, "solver gain matches greedy stationary and rollout rates",
           worst_gain <= 1e-6 and worst_z <= 3.0,
           f"|gain-stationary| = {worst_gain:.2e}, rollout z = {worst_z:.2f}")


def test_criterion_7_gradient_correctness():
    instances = (random_instance(70_000 + i, cards=(2, 2, 1, 2, 2, 1) if i % 2 == 0
                                 else (2, 2, 2, 2, 1, 1)) for i in range(20))
    worst = gradient_error(instances, np.random.default_rng(7), 3, 0.15)
    report(7, "exact gradients match central finite differences",
           worst <= 1e-4, f"max relative error = {worst:.2e} over 20 instances")


def test_criterion_8_behavioral_improvement():
    from ascontrol import sim

    t0 = time.time()
    env, ref = sim.thermostat_env(3, [0, 2])
    gen, rec = sim.thermostat_agent(env, [0, 2], seed=11)
    _, gen_tr, rec_tr = control.train(gen, rec, ref, X0, T=8, iters=40, lr=0.5,
                                      trainable_policies=("pol0",))
    seeds = list(range(800, 850))
    trained = sim.evaluate(gen_tr, rec_tr, ref, env, seeds, 60, x0=X0)
    untrained = sim.evaluate(gen, rec, ref, env, seeds, 60, x0=X0)
    uniform = sim.evaluate(sim.with_uniform_pol0(gen), rec, ref, env, seeds, 60, x0=X0)
    margins = {}
    for name, base in (("untrained", untrained), ("uniform", uniform)):
        diff = base.obs_ref - trained.obs_ref
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        margins[name] = (float(diff.mean()), float(diff.mean() / se))
    elapsed = time.time() - t0
    ok = all(m > 0 and z > 3.0 for m, z in margins.values()) and elapsed < 300.0
    report(8, "trained thermostat beats untrained and uniform policies", ok,
           f"margins {margins}, {elapsed:.0f}s")


def test_criterion_9_trace_determinism(tmp_path):
    model = tmp_path / "model.json"
    cli = [sys.executable, "-m", "ascontrol"]
    r = subprocess.run(cli + ["init", "--out", str(model), "--seed", "5"],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    traces = []
    for name in ("t1.csv", "t2.csv"):
        path = tmp_path / name
        r = subprocess.run(cli + ["simulate", "--model", str(model), "--steps",
                                  "30", "--seed", "17", "--trace", str(path)],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        traces.append(path.read_bytes())
    report(9, "identical config and seed give byte-identical traces",
           traces[0] == traces[1], f"{len(traces[0])} bytes compared")
