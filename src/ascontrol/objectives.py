"""Scalar objectives of one step: the realized per-state surprisals, the
variational free energy and the per-step pathwise objective.

The average of the step objective over the infinite horizon is computed by
the chain solvers (`oracle.exact_average_rate`, relative value iteration
and the adjoint), not here. All expectations over latent tuples are
exhaustive sums in log-space. Units are nats throughout.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import chains
from .errors import DimensionMismatchError
from .logspace import kl_divergence, safe_log


@dataclass(frozen=True)
class StepObjective:
    """One step's objective terms: expected reference surprisal (j), expected
    observation surprisal (l), belief-to-prior divergence (kl)."""

    j: float
    l: float
    kl: float

    @property
    def total(self):
        return self.j + self.l + self.kl


def reference_surprisal(ref, x):
    """-log R(o | a1) - log R(s1 | a2) for a realized state."""
    x.validate(ref.spec)
    val = -(safe_log(ref.ref_o.prob((x.a1,), x.o))
            + safe_log(ref.ref_s1.prob((x.a2,), x.s1)))
    if np.isinf(val):
        warnings.warn("reference places zero mass on a realized state",
                      RuntimeWarning, stacklevel=2)
    return float(val)


def likelihood_surprisal(gen, x):
    """-log p(o | a1, s1) for a realized state."""
    x.validate(gen.spec)
    val = -safe_log(gen.lik.prob((x.a1, x.s1), x.o))
    if np.isinf(val):
        warnings.warn("likelihood places zero mass on a realized observation",
                      RuntimeWarning, stacklevel=2)
    return float(val)


def recognition_logprob(rec, latents, context, tick=True):
    """Log-probability of a latent tuple (s1, s2, a1, a2) under the factored
    belief for the given context."""
    s1, s2, a1, a2 = latents
    for v, dim, name in zip((s1, s2, a1, a2), rec.spec.latent_dims, ("s1", "s2", "a1", "a2")):
        if not 0 <= v < dim:
            raise DimensionMismatchError(f"latent {name}={v} out of range [0, {dim})")
    return float(safe_log(chains.context_belief(rec, context, tick)[s1, s2, a1, a2]))


def _context_rows(gen, rec, context, tick):
    """Belief, latent prior, and per-latent surprisal columns for one context."""
    q = chains.context_belief(rec, context, tick).reshape(-1)
    prior = chains.latent_prior_row(gen, context.x_prev, tick)
    l_lat = chains.neg_log_lik_over_latents(gen)[:, context.o]
    return q, prior, l_lat


@dataclass(frozen=True)
class FreeEnergy:
    """Variational free energy and its two computation routes."""

    expected_nll: float
    kl_prior: float
    divergence_form: float

    @property
    def total(self):
        return self.expected_nll + self.kl_prior


def variational_free_energy(gen, rec, context, tick=True):
    """E_q[-log p(o | a1, s1)] + KL(q || latent prior), plus the equivalent
    single-divergence form (belief against the unnormalized joint)."""
    q, prior, l_lat = _context_rows(gen, rec, context, tick)
    mask = q > 0.0
    nll = float(np.sum(q[mask] * l_lat[mask]))
    kl = kl_divergence(q, prior)
    log_joint = safe_log(prior) - l_lat  # log(prior * lik), unnormalized
    div = float(np.sum(q[mask] * (safe_log(q[mask]) - log_joint[mask])))
    return FreeEnergy(nll, kl, div)


def step_objective(gen, rec, ref, context, tick=True):
    """The per-step pathwise objective: expected reference surprisal plus the
    two free-energy terms."""
    q, prior, l_lat = _context_rows(gen, rec, context, tick)
    j_lat = chains.reference_over_latents(ref)[:, context.o]
    mask = q > 0.0
    return StepObjective(
        j=float(np.sum(q[mask] * j_lat[mask])),
        l=float(np.sum(q[mask] * l_lat[mask])),
        kl=kl_divergence(q, prior))
