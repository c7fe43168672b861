"""The invariant suite behind `ascontrol validate`: every identity, bound,
and gradient check at desk scale, reported as machine-readable JSON. The
acceptance suite calls the same sweeps and free-energy check."""

import numpy as np

from . import chains, control, oracle
from .instances import (hard_zero_cases, random_context, random_instance,
                        random_state, random_value)
from .logspace import gap, kl_divergence, worst_error
from .objectives import variational_free_energy


def _check(name, max_err, tolerance):
    return {"name": name, "max_err": float(max_err), "tolerance": tolerance,
            "passed": bool(max_err <= tolerance)}


def free_energy_errors(gen, rec, ctx, tick):
    """At one context: the free energy's two-form disagreement, its posterior
    gap F + log p(o), and that gap's distance from KL(q || posterior)."""
    fe = variational_free_energy(gen, rec, ctx, tick=tick)
    post, log_ev = oracle.exact_step_posterior(gen, ctx.x_prev, ctx.o, tick)
    fe_gap = fe.total - (-log_ev)
    q = chains.context_belief(rec, ctx, tick).reshape(-1)
    return (abs(fe.total - fe.divergence_form), fe_gap,
            abs(fe_gap - kl_divergence(q, post)))


def recursion_vs_enumeration(instances, rng, horizons, scale):
    """Worst |soft recursion - path enumeration| over both modes and every
    horizon, from an x0 and a rate (N(0, scale^2)) drawn per instance; and
    the number of infinite path values."""
    worst, infinite = 0.0, 0
    for gen, rec, ref in instances:
        x0 = random_state(rng, gen.spec)
        rate = float(rng.standard_normal() * scale)
        for T in horizons:
            for mode in ("feedforward", "feedback"):
                sv = oracle.exact_soft_value(gen, rec, ref, x0, T, rate, mode=mode)
                pi = oracle.exact_path_integral_value(gen, rec, ref, x0, T, rate,
                                                      mode=mode)
                worst = worst_error(worst, abs(gap(sv, pi)))
                infinite += np.isinf(pi)
    return worst, infinite


def jensen_violation(instances, rng, T, scale):
    """Worst excess of the feedback path-integral value over its Jensen bound,
    drawn as in recursion_vs_enumeration; and the numbers of infinite bounds
    and infinite path values."""
    worst, infinite_bounds, infinite_paths = 0.0, 0, 0
    for gen, rec, ref in instances:
        x0 = random_state(rng, gen.spec)
        rate = float(rng.standard_normal() * scale)
        bound = control.differential_free_energy(gen, rec, ref, x0, T, rate)
        pi = oracle.exact_path_integral_value(gen, rec, ref, x0, T, rate,
                                              mode="feedback")
        worst = worst_error(worst, gap(pi, bound))
        infinite_bounds += np.isinf(bound)
        infinite_paths += np.isinf(pi)
    return worst, infinite_bounds, infinite_paths


def gradient_error(instances, rng, T, rate):
    """Worst relative error of the exact gradients against central finite
    differences, from an x0 drawn per instance."""
    worst = 0.0
    for gen, rec, ref in instances:
        x0 = random_state(rng, gen.spec)
        params = control.extract_params(gen, rec)
        gen2, rec2 = control.apply_params(gen, rec, params)
        _, grads = control.dfe_value_and_grad(gen2, rec2, ref, x0, T, rate)
        fd = control.fd_gradients(gen, rec, ref, params, x0, T, rate)
        worst = worst_error(worst, control.gradient_relative_error(grads, fd))
    return worst


def run_validation(seed=0, instances=20):
    """Run the full battery on `instances` seeded random instances."""
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances!r}")
    rng = np.random.default_rng(seed)
    checks = []

    # transition and recognition normalization
    err_p, err_q = 0.0, 0.0
    for i in range(instances):
        gen, rec, ref = random_instance(seed * 1000 + i)
        for tick in (True, False):
            rows = chains.transition_rows(gen, tick)
            err_p = worst_error(err_p, np.abs(rows.sum(axis=1) - 1.0).max())
            q = chains.recognition_belief(rec, tick)
            err_q = worst_error(err_q, np.abs(q.sum(axis=3) - 1.0).max())
    checks.append(_check("transition_normalization", err_p, 1e-10))
    checks.append(_check("recognition_normalization", err_q, 1e-10))

    # free-energy identities: two-form agreement and the posterior gap
    err_forms, err_gap = 0.0, 0.0
    for i in range(instances):
        gen, rec, ref = random_instance(seed * 2000 + i)
        ctx = random_context(rng, gen.spec)
        forms, _, gap_err = free_energy_errors(gen, rec, ctx, bool(rng.integers(2)))
        err_forms = worst_error(err_forms, forms)
        err_gap = worst_error(err_gap, gap_err)
    checks.append(_check("free_energy_two_forms", err_forms, 1e-10))
    checks.append(_check("free_energy_posterior_gap", err_gap, 1e-10))

    # reweighted transition density: normalization and the KL identity
    err_norm, err_kl = 0.0, 0.0
    for i in range(instances):
        gen, rec, ref = random_instance(seed * 3000 + i)
        value = random_value(rng, gen.spec)
        x = random_state(rng, gen.spec)
        for t in (1, 2):
            qstar = control.optimal_transition(gen, value, x, t=t)
            err_norm = worst_error(err_norm, abs(float(qstar.sum()) - 1.0))
            lhs, rhs = control.kl_qstar_identity(gen, value, x, t=t)
            err_kl = worst_error(err_kl, abs(lhs - rhs))
    checks.append(_check("qstar_normalization", err_norm, 1e-12))
    checks.append(_check("qstar_kl_identity", err_kl, 1e-10))

    # recursion vs path enumeration, the Jensen bound, gradients (two
    # instances); the first two again where path values and bounds can be +inf
    cards = (2, 2, 2, 2, 1, 1)
    cases = (random_instance(seed * 4000 + i, cards=cards) for i in range(instances))
    err_pi, _ = recursion_vs_enumeration(cases, rng, (3,), 0.2)
    checks.append(_check("soft_value_vs_path_integral", err_pi, 1e-8))
    cases = (random_instance(seed * 5000 + i, cards=cards) for i in range(instances))
    violation, _, _ = jensen_violation(cases, rng, 3, 0.2)
    checks.append(_check("jensen_bound_violation", violation, 1e-8))
    cases = (random_instance(seed * 6000 + i, cards=(2, 2, 1, 2, 2, 1))
             for i in range(min(2, instances)))
    err_grad = gradient_error(cases, rng, 2, 0.1)
    checks.append(_check("gradient_vs_finite_differences", err_grad, 1e-4))
    cases = hard_zero_cases(seed * 7000, instances)
    err_pi, _ = recursion_vs_enumeration(cases, rng, (3,), 0.2)
    checks.append(_check("soft_value_vs_path_integral_hard_zero", err_pi, 1e-8))
    cases = hard_zero_cases(seed * 8000, instances)
    violation, _, _ = jensen_violation(cases, rng, 3, 0.2)
    checks.append(_check("jensen_bound_violation_hard_zero", violation, 1e-8))

    return {"seed": seed, "instances": instances, "checks": checks,
            "all_passed": all(c["passed"] for c in checks)}
