"""Dense per-step operators over the complete-state lattice.

Everything downstream (objectives, oracles, solvers, training) works with
a handful of arrays built here:

    prior     (N, L)            latent prior p(s1, s2, a1, a2 | x_prev)
    marg      (N, O, A)         observable marginal p(o, a | x_prev)
    belief    (N, O, A, L)      recognition belief per context
    cost      (N, O, A)         per-edge step objective (j + l + kl)
    P, Qc     (N, N)            one-step transition matrices

N is the complete-state count, L the latent-tuple count, O/A the
observation/action cardinalities. Builders that read the models' tables
for one step take a `tick` flag (non-tick steps hold the slow latent
deterministically); builders that combine arrays take exactly the arrays
they combine. Complete states are raveled row-major in
(o, s1, s2, a, a1, a2) order and latent tuples in (s1, s2, a1, a2) order.

The per-tick pieces come in two halves. The generative half, prior and
marg, reads only the generative model: `generative_pieces` builds it once
per model and tick and keeps it, read-only, in the model's `pieces` cache,
so every objective evaluation on one generative model (the recognition
perturbations of a finite-difference check, training's accepted step and
the gradient after it) shares it. The recognition half, belief, cost and
ev (and the chain matrix Qc, built from marg and belief on first use by
`recognition_chain`), reads the recognition model too. It is built per
call, unless a caller hands it on with `keep_recognition_half`: then it is
built once per tick and kept on the recognition model until
`drop_recognition_half`, so training's halving check, the gradient after
it and the rate refresh share one build per parameter set, and no half
outlives the hand-off. `tick_pieces` is the one place that wires the
two: prior -> belief -> marginal -> edge cost.
"""

import numpy as np

from .errors import EnumerationBudgetError
from .logspace import safe_log
from .model import tick_at

# the complete-state ceiling of dense operators ((N, N) floats: 128 MiB)
MAX_STATES = 4096


class Lattice:
    """Cached index arrays for one ModelSpec."""

    _cache = {}

    def __init__(self, spec):
        self.spec = spec
        n = self.n_states = spec.n_states
        dims = spec.dims
        comps = np.unravel_index(np.arange(n), dims)
        self.o, self.s1, self.s2, self.a, self.a1, self.a2 = (
            c.astype(np.intp) for c in comps)
        lat = np.unravel_index(np.arange(spec.n_latents), spec.latent_dims)
        self.ls1, self.ls2, self.la1, self.la2 = (c.astype(np.intp) for c in lat)
        # latent index of each complete state, and state index of (o, latent, a)
        self.lat_of_state = np.ravel_multi_index(
            (self.s1, self.s2, self.a1, self.a2), spec.latent_dims)
        o_grid, l_grid, a_grid = np.meshgrid(
            np.arange(spec.card_o), np.arange(spec.n_latents),
            np.arange(spec.card_a), indexing="ij")
        self.state_of_ola = np.ravel_multi_index(
            (o_grid, self.ls1[l_grid], self.ls2[l_grid], a_grid,
             self.la1[l_grid], self.la2[l_grid]), dims)
        # the non-tick slow-latent step: s2' = s2, shape (N, s2')
        self.hold_s2 = np.zeros((n, spec.card_s2))
        self.hold_s2[np.arange(n), self.s2] = 1.0
        self.hold_s2.setflags(write=False)

    @classmethod
    def of(cls, spec):
        """The lattice of `spec`, which every dense builder reaches before it
        allocates: more than MAX_STATES complete states raise, cached or not."""
        lat = cls._cache.get(spec)
        n = spec.n_states if lat is None else lat.n_states
        if n > MAX_STATES:
            raise EnumerationBudgetError(
                f"{n} complete states exceed the dense-operator ceiling of "
                f"{MAX_STATES}", required=n, allowed=MAX_STATES)
        if lat is None:
            lat = cls._cache[spec] = cls(spec)
        return lat


def world_factors(gen, tick):
    """Nature's factors out of every x_prev: d2 = p(s2' | s2, a), shape
    (N, s2') (the hold on non-tick steps), and d1 = p(s1' | s1, s2', a),
    shape (N, s2', s1')."""
    lat = Lattice.of(gen.spec)
    d2 = gen.dyn2.reshaped()[lat.s2, lat.a, :] if tick else lat.hold_s2
    d1 = gen.dyn1.reshaped()[lat.s1, :, lat.a, :]
    return d2, d1


def latent_prior(gen, tick):
    """p(s1, s2, a1, a2 | x_prev) for every x_prev, shape (N, L)."""
    spec = gen.spec
    d2, d1 = world_factors(gen, tick)
    p2 = gen.pol2.reshaped()                                   # (s2', a2)
    p1 = gen.pol1.reshaped()                                   # (s1', a2, a1)
    prior = np.einsum("xX,XA,xXs,sAb->xsXbA", d2, p2, d1, p1, optimize=True)
    return prior.reshape(spec.n_states, spec.n_latents)


def latent_prior_row(gen, x_prev, tick):
    """Latent prior for a single conditioning state, shape (L,)."""
    spec = gen.spec
    x_prev.validate(spec)
    if tick:
        d2 = gen.dyn2.reshaped()[x_prev.s2, x_prev.a]          # (s2',)
    else:
        d2 = np.zeros(spec.card_s2)
        d2[x_prev.s2] = 1.0
    p2 = gen.pol2.reshaped()
    d1 = gen.dyn1.reshaped()[x_prev.s1, :, x_prev.a, :]        # (s2', s1')
    p1 = gen.pol1.reshaped()
    prior = np.einsum("X,XA,Xs,sAb->sXbA", d2, p2, d1, p1)
    return prior.reshape(spec.n_latents)


def lik_over_latents(gen):
    """lik(o | a1(l), s1(l)), shape (L, O)."""
    lat = Lattice.of(gen.spec)
    return gen.lik.reshaped()[lat.la1, lat.ls1, :]


def pol0_over_latents(gen):
    """pol0(a | o, a1(l)), shape (L, O, A)."""
    lat = Lattice.of(gen.spec)
    return gen.pol0.reshaped()[:, lat.la1, :].transpose(1, 0, 2)


def obs_action_marginal(gen, prior):
    """p(o, a | x_prev) = sum_l prior * lik * pol0, shape (N, O, A)."""
    return np.einsum("xl,lo,loa->xoa", prior, lik_over_latents(gen),
                     pol0_over_latents(gen), optimize=True)


def belief_table(rec, tick):
    """Filtering (sentinel) recognition belief q(latents | o, a, x_prev) for
    every (x_prev, o, a), shape (N, O, A, L)."""
    spec = rec.spec
    lat = Lattice.of(spec)
    n = spec.n_states
    f = rec.future_sentinel
    if tick:
        q_s2 = rec.tables["s2"][:, :, :, f]                    # (N, O, A, s2)
    else:
        q_s2 = np.broadcast_to(lat.hold_s2[:, None, None, :],
                               (n, spec.card_o, spec.card_a, spec.card_s2))
    q_a2 = rec.tables["a2"][:, :, :, f]                        # (N, O, A, s2, a2)
    q_s1 = rec.tables["s1"][:, :, :, f]                        # (N, O, A, s2, a2, s1)
    q_a1 = rec.tables["a1"][:, :, :, f]                        # (N, O, A, s1, a2, a1)
    joint = np.einsum("xowX,xowXA,xowXAs,xowsAb->xowsXbA",
                      q_s2, q_a2, q_s1, q_a1, optimize=True)
    return joint.reshape(n, spec.card_o, spec.card_a, spec.n_latents)


def reference_over_latents(ref):
    """-log R per latent tuple: shape (L, O); the o-dependent ref_o term plus
    the o-independent ref_s1 term."""
    lat = Lattice.of(ref.spec)
    j_o = -safe_log(ref.ref_o.reshaped()[lat.la1, :])          # (L, O)
    j_s1 = -safe_log(ref.ref_s1.reshaped()[lat.la2, lat.ls1])  # (L,)
    return j_o + j_s1[:, None]


def edge_cost(gen, ref, prior, belief):
    """Step objective for a transition x_prev -> x', as a function of
    (x_prev, o(x'), a(x')), shape (N, O, A): expected reference surprisal
    plus expected observation surprisal plus the KL from belief to latent
    prior, all under the filtering belief."""
    j_lat = reference_over_latents(ref)                        # (L, O)
    l_lat = -safe_log(lik_over_latents(gen))                   # (L, O)
    with np.errstate(invalid="ignore"):
        j = np.where(belief > 0.0, belief * j_lat.T[None, :, None, :], 0.0).sum(axis=3)
        l = np.where(belief > 0.0, belief * l_lat.T[None, :, None, :], 0.0).sum(axis=3)
    log_q = safe_log(belief)
    log_prior = safe_log(prior)[:, None, None, :]
    with np.errstate(invalid="ignore"):
        integrand = np.where(belief > 0.0, belief * (log_q - log_prior), 0.0)
    kl = integrand.sum(axis=3)
    return j + l + kl


def _over_successors(spec, ola):
    """Scatter an (..., O, L, A) array onto successor states, (..., N)."""
    lat = Lattice.of(spec)
    lead = ola.shape[:-3]
    out = np.empty(lead + (lat.n_states,))
    out[..., lat.state_of_ola.reshape(-1)] = ola.reshape(lead + (-1,))
    return out


def transition_matrix(gen, tick):
    """One-step matrix P[x, x'] of the policy-embedded model, shape (N, N)."""
    prior = generative_pieces(gen, tick)["prior"]
    t4 = np.einsum("xl,lo,loa->xola", prior, lik_over_latents(gen),
                   pol0_over_latents(gen), optimize=True)
    return _over_successors(gen.spec, t4)


def transition_row(gen, x, tick):
    """One transition row p(x' | x) of the policy-embedded model, shape (N,)."""
    row4 = np.einsum("l,lo,loa->ola", latent_prior_row(gen, x, tick),
                     lik_over_latents(gen), pol0_over_latents(gen))
    return _over_successors(gen.spec, row4)


def qchain_matrix(spec, marg, belief):
    """One-step matrix of the recognition-controlled chain: observables from
    the model's marginal, latents from the filtering belief."""
    Lattice.of(spec)  # the ceiling, before the einsum allocates
    q4 = np.einsum("xoa,xoal->xola", marg, belief, optimize=True)
    return _over_successors(spec, q4)


def state_cost(gen, ref):
    """Realized per-state surprisal J(x) + L(x), shape (N,)."""
    lat = Lattice.of(gen.spec)
    j = (-safe_log(ref.ref_o.reshaped()[lat.a1, lat.o])
         - safe_log(ref.ref_s1.reshaped()[lat.a2, lat.s1]))
    l = -safe_log(gen.lik.reshaped()[lat.a1, lat.s1, lat.o])
    return j + l


def posterior_recognition_tables(gen):
    """Recognition tables initialized at the exact one-step filtering
    posterior: q(latents | o, a, x_prev) propto prior * lik * pol0(a | o, a1).
    Every future-summary slice starts at the filtering posterior; training can
    move the smoothing slices away from it.

    Factored as (s2, a2 | s2, s1 | s2 a2, a1 | s1 a2); the last factor is
    exact because a1 is conditionally independent of s2 given (s1, a2).
    """
    spec = gen.spec
    n, c_o, c_a = spec.n_states, spec.card_o, spec.card_a
    s1c, s2c, a1c, a2c = spec.latent_dims
    prior = latent_prior(gen, True)
    joint = (prior[:, None, None, :] * lik_over_latents(gen).T[None, :, None, :]
             * pol0_over_latents(gen).transpose(1, 2, 0)[None])
    z = joint.sum(axis=3, keepdims=True)
    with np.errstate(invalid="ignore"):
        joint = np.where(z > 0.0, joint / z, 1.0 / joint.shape[3])
    joint = joint.reshape(n, c_o, c_a, s1c, s2c, a1c, a2c)

    def _norm(arr):
        s = arr.sum(axis=-1, keepdims=True)
        with np.errstate(invalid="ignore"):
            return np.where(s > 0.0, arr / s, 1.0 / arr.shape[-1])

    f_s2 = _norm(joint.sum(axis=(3, 5, 6)))                          # (.., s2)
    f_a2 = _norm(joint.sum(axis=(3, 5)))                             # (.., s2, a2)
    f_s1 = _norm(joint.sum(axis=5).transpose(0, 1, 2, 4, 5, 3))      # (.., s2, a2, s1)
    f_a1 = _norm(joint.sum(axis=4).transpose(0, 1, 2, 3, 5, 4))      # (.., s1, a2, a1)
    n_fut = c_o + 1
    expand = lambda a: np.broadcast_to(
        a[:, :, :, None], a.shape[:3] + (n_fut,) + a.shape[3:]).copy()
    return {"s2": expand(f_s2), "a2": expand(f_a2),
            "s1": expand(f_s1), "a1": expand(f_a1)}


def expected_edge_cost(marg, cost):
    """E over (o, a) of an edge cost, honoring that zero-probability edges
    contribute nothing even when their cost is infinite. Shapes (N, O, A)."""
    with np.errstate(invalid="ignore"):
        prod = np.where(marg > 0.0, marg * cost, 0.0)
    return prod.sum(axis=(1, 2))


def generative_pieces(gen, tick):
    """The generative half of the per-tick pieces, keyed prior and marg:
    built on the first call for (gen, tick) and then read, read-only, from
    `gen.pieces`."""
    pieces = gen.pieces.get(tick)
    if pieces is None:
        prior = latent_prior(gen, tick)
        marg = obs_action_marginal(gen, prior)
        prior.setflags(write=False)
        marg.setflags(write=False)
        pieces = gen.pieces[tick] = {"prior": prior, "marg": marg}
    return pieces


def keep_recognition_half(gen, rec, ref):
    """Hand on the recognition half of (gen, rec, ref): from now on
    tick_pieces(gen, rec, ref, tick) builds it once per tick and keeps it,
    read-only, on `rec` until drop_recognition_half(rec)."""
    rec.kept = (gen, ref, {})


def drop_recognition_half(rec):
    """End the hand-off of keep_recognition_half."""
    rec.kept = None


def tick_pieces(gen, rec, ref, tick):
    """The per-tick arrays that the rate and the differential free energy
    read, keyed prior, belief, marg, cost (the edge cost) and ev (its
    expectation per state, shape (N,)): the cached generative half plus the
    recognition half built on it, or kept on `rec` if it was handed on for
    this gen and ref. Callers that need the chain matrix read it with
    recognition_chain."""
    kept = None
    if rec.kept is not None and rec.kept[0] is gen and rec.kept[1] is ref:
        kept = rec.kept[2]
        if tick in kept:
            Lattice.of(rec.spec)  # the ceiling holds for a kept half too
            return kept[tick]
    half = generative_pieces(gen, tick)
    prior, marg = half["prior"], half["marg"]
    belief = belief_table(rec, tick)
    cost = edge_cost(gen, ref, prior, belief)
    ev = expected_edge_cost(marg, cost)
    for arr in (belief, cost, ev):
        arr.setflags(write=False)
    pieces = {"prior": prior, "belief": belief, "marg": marg, "cost": cost,
              "ev": ev}
    if kept is not None:
        kept[tick] = pieces
    return pieces


def recognition_chain(spec, pieces):
    """The recognition chain Qc of one tick's pieces (qchain_matrix), built
    on first use and kept, read-only, in `pieces` under "qc", so a kept
    recognition half carries its chain."""
    qc = pieces.get("qc")
    if qc is None:
        qc = pieces["qc"] = qchain_matrix(spec, pieces["marg"], pieces["belief"])
        qc.setflags(write=False)
    return qc


def rollout_density(gen, rec, ref, tick, mode):
    """One step of a rollout density: its transition matrix and edge cost,
    both (N, N). feedforward: the policy-embedded model with the realized
    state costs J + L (broadcast over predecessors). feedback: the
    recognition-controlled chain with the step objective's edge costs."""
    spec = gen.spec
    if mode == "feedforward":
        n = spec.n_states
        return (transition_matrix(gen, tick),
                np.broadcast_to(state_cost(gen, ref), (n, n)))
    if mode == "feedback":
        pc = tick_pieces(gen, rec, ref, tick)
        return recognition_chain(spec, pc), expand_edges(pc["cost"], spec)
    raise ValueError(f"unknown rollout density {mode!r}")


def expand_edges(values_noa, spec):
    """Broadcast an (N, O, A) edge array to a dense (N, N) matrix indexed by
    the successor's observation/action components."""
    lat = Lattice.of(spec)
    return values_noa[:, lat.o, lat.a]


def step_matrices(builder, spec, T):
    """List of per-step matrices for steps 1 .. T, built once per distinct
    tick value. `builder(tick)` returns the matrix for one step."""
    by_tick = {}
    out = []
    for t in range(1, T + 1):
        k = tick_at(t, spec)
        if k not in by_tick:
            by_tick[k] = builder(k)
        out.append(by_tick[k])
    return out
