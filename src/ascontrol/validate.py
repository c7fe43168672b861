"""The invariant suite behind `ascontrol validate`: every identity, bound,
and gradient check at desk scale, reported as machine-readable JSON."""

import numpy as np

from . import chains, control, oracle
from .instances import random_context, random_instance, random_state, random_value
from .logspace import kl_divergence, worst_error


def _check(name, max_err, tolerance):
    return {"name": name, "max_err": float(max_err), "tolerance": tolerance,
            "passed": bool(max_err <= tolerance)}


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
            mat = chains.transition_matrix(gen, tick)
            err_p = worst_error(err_p, np.abs(mat.sum(axis=1) - 1.0).max())
            q = chains.belief_table(rec, tick)
            err_q = worst_error(err_q, np.abs(q.sum(axis=3) - 1.0).max())
    checks.append(_check("transition_normalization", err_p, 1e-10))
    checks.append(_check("recognition_normalization", err_q, 1e-10))

    # free-energy identities: two-form agreement and the posterior gap
    from .objectives import variational_free_energy

    err_forms, err_gap = 0.0, 0.0
    for i in range(instances):
        gen, rec, ref = random_instance(seed * 2000 + i)
        ctx = random_context(rng, gen.spec)
        tick = bool(rng.integers(2))
        fe = variational_free_energy(gen, rec, ctx, tick=tick)
        err_forms = worst_error(err_forms, abs(fe.total - fe.divergence_form))
        post, log_ev = oracle.exact_step_posterior(gen, ctx.x_prev, ctx.o, tick)
        q = rec.joint(ctx, tick=tick).reshape(-1)
        gap = fe.total - (-log_ev)
        err_gap = worst_error(err_gap, abs(gap - kl_divergence(q, post)))
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

    # backward recursion vs exhaustive path enumeration
    err_pi = 0.0
    for i in range(instances):
        gen, rec, ref = random_instance(seed * 4000 + i, cards=(2, 2, 2, 2, 1, 1))
        x0 = random_state(rng, gen.spec)
        rate = float(rng.standard_normal() * 0.2)
        for mode in ("feedforward", "feedback"):
            sv = oracle.exact_soft_value(gen, rec, ref, x0, 3, rate, mode=mode)
            pi = oracle.exact_path_integral_value(gen, rec, ref, x0, 3, rate,
                                                  mode=mode)
            err_pi = worst_error(err_pi, abs(sv.rooted - pi))
    checks.append(_check("soft_value_vs_path_integral", err_pi, 1e-8))

    # Jensen bound of the differential free energy
    violation = 0.0
    for i in range(instances):
        gen, rec, ref = random_instance(seed * 5000 + i, cards=(2, 2, 2, 2, 1, 1))
        x0 = random_state(rng, gen.spec)
        rate = float(rng.standard_normal() * 0.2)
        bound = control.differential_free_energy(gen, rec, ref, x0, 3, rate)
        pi = oracle.exact_path_integral_value(gen, rec, ref, x0, 3, rate,
                                              mode="feedback")
        violation = worst_error(violation, pi - bound)
    checks.append(_check("jensen_bound_violation", violation, 1e-8))

    # exact gradients vs central finite differences (two instances)
    err_grad = 0.0
    for i in range(min(2, instances)):
        gen, rec, ref = random_instance(seed * 6000 + i, cards=(2, 2, 1, 2, 2, 1))
        x0 = random_state(rng, gen.spec)
        params = control.extract_params(gen, rec)
        gen2, rec2 = control.apply_params(gen, rec, params)
        _, grads = control.dfe_value_and_grad(gen2, rec2, ref, x0, 2, 0.1)
        fd = control.fd_gradients(gen, rec, ref, params, x0, 2, 0.1)
        err_grad = worst_error(err_grad, control.gradient_relative_error(grads, fd))
    checks.append(_check("gradient_vs_finite_differences", err_grad, 1e-4))

    return {"seed": seed, "instances": instances, "checks": checks,
            "all_passed": all(c["passed"] for c in checks)}
