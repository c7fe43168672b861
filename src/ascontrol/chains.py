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
Every array over a step's (observation, action, latents) has the belief's
one axis order, (..., N, O, A, L), and meets the successor states through
one map, `Lattice.state_of_oal` and its inverse `Lattice.oal_of_state`: the
chain matrices gather their (O, A, L) entries at each successor, and the
adjoint and the Bellman backup index the successors' values by it.

Every derived per-tick array has one cache rule (`_kept`): it is built on
first use and kept, read-only, in the `pieces` of the model it derives
from. The generative half of the per-tick pieces (prior, marg;
`generative_pieces`), the policy-embedded transition matrix P and the
model-only log tables of the edge cost (-log R and -log lik per latent
tuple) are kept on their generative or reference model. The recognition
half (belief, cost, ev, and the chain matrix Qc on first use by
`recognition_chain`) is kept on the recognition model for the last (gen,
ref) pair it was built with, so the rate, the halving check and the
gradient of one parameter set share one build; the belief, which reads
the recognition model alone, outlives a switch of that pair.
Models are read-only, so nothing kept goes stale; a caller bounds memory
by the lifetime of its models. `tick_pieces` is the one place that wires
the two halves: prior -> belief -> marginal -> edge cost.
P depends on x_prev only through its (s1, s2, a) class: its product runs on
one prior row per class, with no (N, O, A, L) array, and expands by class.

The recognition half takes a leading candidate axis: on a stack of
candidates (RecognitionModel.stacked) belief, cost, ev and Qc each gain
it, and every row is the single build of its candidate, bit for bit.

The product builders (latent_prior, transition_matrix, qchain_matrix) sum
no index: each runs numpy's greedy contraction plan, computed once per
(subscripts, operand shapes) and replayed, so a call costs its arithmetic
and gives the bits of np.einsum(..., optimize=True), as belief_table's
broadcast product does. Passes over (..., N, O, A, L) arrays run unmasked
and zero their dead entries once.
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
        self.ls1, _, self.la1, self.la2 = (c.astype(np.intp) for c in lat)
        # latent index of each complete state, its (o, a, latent) index, and
        # the one successor map: the state of each (o, a, latent)
        self.lat_of_state = np.ravel_multi_index(
            (self.s1, self.s2, self.a1, self.a2), spec.latent_dims)
        self.oal_of_state = np.ravel_multi_index(
            (self.o, self.a, self.lat_of_state),
            (spec.card_o, spec.card_a, spec.n_latents))
        self.state_of_oal = np.argsort(self.oal_of_state).reshape(
            spec.card_o, spec.card_a, spec.n_latents)
        # each state's (s1, s2, a) class, all of x_prev that nature's factors
        # read, and one state per class (o = a1 = a2 = 0), in class order
        self.sa_class = np.ravel_multi_index((self.s1, self.s2, self.a), dims[1:4])
        self.sa_reps = np.flatnonzero((self.o == 0) & (self.a1 == 0) & (self.a2 == 0))
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


# the one step of numpy's greedy plan for each product builder, per
# (subscripts, operand shapes): (operand positions, step subscripts)
_PLANS = {}


def _product(subscripts, *ops):
    """np.einsum(subscripts, *ops, optimize=True), bit for bit, for a
    contraction that sums no index, with numpy's greedy plan computed once
    per (subscripts, shapes) and replayed with plain np.einsum. For such a
    contraction the plan is one step over every operand, which np.einsum
    pops in descending position: one product per output element, so the
    same operands multiplied in the same order give the same bits (plain
    np.einsum(subscripts, *ops) multiplies them in another order)."""
    key = (subscripts, tuple(op.shape for op in ops))
    plan = _PLANS.get(key)
    if plan is None:
        (positions,) = np.einsum_path(subscripts, *ops, optimize="greedy")[0][1:]
        positions = sorted(positions, reverse=True)
        inputs, output = subscripts.split("->")
        terms = inputs.split(",")
        plan = _PLANS[key] = (
            positions, ",".join(terms[i] for i in positions) + "->" + output)
    positions, step = plan
    return np.einsum(step, *[ops[i] for i in positions])


def _kept(cache, key, spec, build):
    """cache[key]: built by `build()` on first use, made read-only (an array,
    or each array of a dict) and kept, then read. The state ceiling of
    `spec` holds on a hit too."""
    Lattice.of(spec)
    value = cache.get(key)
    if value is None:
        value = cache[key] = build()
        for arr in value.values() if isinstance(value, dict) else (value,):
            arr.setflags(write=False)
    return value


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
    prior = _product("xX,XA,xXs,sAb->xsXbA", d2, p2, d1, p1)
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
    every (x_prev, o, a), shape (..., N, O, A, L): a leading candidate axis
    of any sentinel slice (RecognitionModel.stacked) leads the belief. The
    product is written in its (s1, s2, a1, a2) order and multiplies the
    factors a1, s1, a2, s2 in turn, as the one step of numpy's plan does;
    a2 and s2 are spelled out on (s2, a1, a2) first, so that it meets them in
    runs of that length, not of a2 alone."""
    spec = rec.spec
    lat = Lattice.of(spec)
    a1c, a2c = spec.card_a1, spec.card_a2
    sent = rec.sentinel
    q_s2 = sent["s2"] if tick else lat.hold_s2[:, None, None, :]  # (N, O, A, s2)
    factors = (np.swapaxes(sent["a1"], -1, -2)[..., :, None, :, :],  # (s1, a2, a1)
               np.moveaxis(sent["s1"], -1, -3)[..., None, :],       # (s2, a2, s1)
               np.repeat(sent["a2"][..., None, :, None, :], a1c, axis=-2),
               np.repeat(q_s2[..., None, :, None], a1c * a2c, axis=-1).reshape(
                   q_s2.shape[:-1] + (1, -1, a1c, a2c)))
    joint = np.empty(np.broadcast_shapes(*(f.shape for f in factors)))
    np.multiply(*factors[:2], out=joint)
    joint *= factors[2]
    joint *= factors[3]
    return joint.reshape(joint.shape[:-4] + (spec.n_latents,))


def reference_over_latents(ref):
    """-log R per latent tuple: shape (L, O); the o-dependent ref_o term plus
    the o-independent ref_s1 term. Kept in `ref.pieces`."""
    def build():
        lat = Lattice.of(ref.spec)
        j_o = -safe_log(ref.ref_o.reshaped()[lat.la1, :])          # (L, O)
        j_s1 = -safe_log(ref.ref_s1.reshaped()[lat.la2, lat.ls1])  # (L,)
        return j_o + j_s1[:, None]

    return _kept(ref.pieces, "neg_log_ref", ref.spec, build)


def edge_cost(gen, ref, prior, belief):
    """Step objective for a transition x_prev -> x', as a function of
    (x_prev, o(x'), a(x')), shape (..., N, O, A) for a belief of shape
    (..., N, O, A, L): expected reference surprisal plus expected
    observation surprisal plus the KL from belief to latent prior, all under
    the filtering belief."""
    j_lat = reference_over_latents(ref)                        # (L, O)
    l_lat = _kept(gen.pieces, "neg_log_lik", gen.spec,         # (L, O)
                  lambda: -safe_log(lik_over_latents(gen)))
    # each term's integrand is written unmasked into one buffer, zeroed where
    # belief = 0 (0 * inf and log 0 give NaN there) and summed over latents
    dead, buf = ~(belief > 0.0), np.empty(belief.shape)

    def summed(integrand):
        integrand[dead] = 0.0
        return integrand.sum(axis=-1)

    with np.errstate(divide="ignore", invalid="ignore"):
        j = summed(np.multiply(belief, j_lat.T[None, :, None, :], out=buf))
        l = summed(np.multiply(belief, l_lat.T[None, :, None, :], out=buf))
        np.subtract(np.log(belief, out=buf), safe_log(prior)[:, None, None, :], out=buf)
        kl = summed(np.multiply(belief, buf, out=buf))
    return j + l + kl


def _over_successors(spec, oal):
    """Gather an (..., O, A, L) array onto successor states, (..., N)."""
    lat = Lattice.of(spec)
    return np.take(oal.reshape(oal.shape[:-3] + (-1,)), lat.oal_of_state, axis=-1)


def transition_matrix(gen, tick):
    """One-step matrix P[x, x'] of the policy-embedded model, shape (N, N),
    kept in `gen.pieces` under ("P", tick): one row per (s1, s2, a) class of
    x, expanded by each state's class."""
    def build():
        lat = Lattice.of(gen.spec)
        t4 = _product("xl,lo,loa->xoal", generative_pieces(gen, tick)["prior"][lat.sa_reps],
                      lik_over_latents(gen), pol0_over_latents(gen))
        return _over_successors(gen.spec, t4)[lat.sa_class]

    return _kept(gen.pieces, ("P", tick), gen.spec, build)


def transition_row(gen, x, tick):
    """One transition row p(x' | x) of the policy-embedded model, shape (N,)."""
    row4 = np.einsum("l,lo,loa->oal", latent_prior_row(gen, x, tick),
                     lik_over_latents(gen), pol0_over_latents(gen))
    return _over_successors(gen.spec, row4)


def qchain_matrix(spec, marg, belief):
    """One-step matrix of the recognition-controlled chain: observables from
    the model's marginal, latents from the filtering belief; shape (..., N, N)
    for a belief of shape (..., N, O, A, L)."""
    Lattice.of(spec)  # the ceiling, before the product allocates
    q4 = _product("...xoa,...xoal->...xoal", marg, belief)
    return _over_successors(spec, q4)


def state_cost(gen, ref):
    """Realized per-state surprisal J(x) + L(x), shape (N,)."""
    lat = Lattice.of(gen.spec)
    j = (-safe_log(ref.ref_o.reshaped()[lat.a1, lat.o])
         - safe_log(ref.ref_s1.reshaped()[lat.a2, lat.s1]))
    l = -safe_log(gen.lik.reshaped()[lat.a1, lat.s1, lat.o])
    return j + l


def posterior_recognition_tables(gen):
    """The exact one-step filtering posterior q(latents | o, a, x_prev)
    propto prior * lik * pol0(a | o, a1), as the filtering slice of each
    recognition factor: shaped like the factor without its future axis.
    RecognitionModel.from_filtering starts every future-summary slice at
    it; training moves only the sentinel (filtering) slice, and every model
    apply_params builds shares the smoothing slices' rows.

    Factored as (s2, a2 | s2, s1 | s2 a2, a1 | s1 a2); the last factor is
    exact because a1 is conditionally independent of s2 given (s1, a2). The
    slices are fresh C-ordered arrays, which from_filtering takes over.
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
        out = np.full(arr.shape, 1.0 / arr.shape[-1])
        return np.divide(arr, s, out=out, where=s > 0.0)

    return {"s2": _norm(joint.sum(axis=(3, 5, 6))),                        # (.., s2)
            "a2": _norm(joint.sum(axis=(3, 5))),                           # (.., s2, a2)
            "s1": _norm(joint.sum(axis=5).transpose(0, 1, 2, 4, 5, 3)),    # (.., s2, a2, s1)
            "a1": _norm(joint.sum(axis=4).transpose(0, 1, 2, 3, 5, 4))}    # (.., s1, a2, a1)


def expected_edge_cost(marg, cost):
    """E over (o, a) of an edge cost, honoring that zero-probability edges
    contribute nothing even when their cost is infinite. Shapes (N, O, A)
    and (..., N, O, A)."""
    with np.errstate(invalid="ignore"):
        prod = np.where(marg > 0.0, marg * cost, 0.0)
    return prod.sum(axis=(-2, -1))


def generative_pieces(gen, tick):
    """The generative half of the per-tick pieces, keyed prior and marg, kept
    in `gen.pieces` under `tick`."""
    def build():
        prior = latent_prior(gen, tick)
        return {"prior": prior, "marg": obs_action_marginal(gen, prior)}

    return _kept(gen.pieces, tick, gen.spec, build)


def tick_pieces(gen, rec, ref, tick):
    """The per-tick arrays that the rate and the differential free energy
    read, keyed prior, belief, marg, cost (the edge cost) and ev (its
    expectation per state, shape (N,)): the generative half plus the
    recognition half built on it, kept in `rec.pieces` under `tick` for the
    last (gen, ref) pair, by identity. The belief reads `rec` alone, so it
    is kept apart, under "belief", across a switch of (gen, ref). Callers
    that need the chain matrix read it with recognition_chain."""
    if rec.pieces.get("gen") is not gen or rec.pieces.get("ref") is not ref:
        rec.pieces = {"gen": gen, "ref": ref, "belief": rec.pieces.get("belief", {})}

    def build():
        half = generative_pieces(gen, tick)
        prior, marg = half["prior"], half["marg"]
        belief = _kept(rec.pieces["belief"], tick, rec.spec,
                       lambda: belief_table(rec, tick))
        cost = edge_cost(gen, ref, prior, belief)
        return {"prior": prior, "belief": belief, "marg": marg, "cost": cost,
                "ev": expected_edge_cost(marg, cost)}

    return _kept(rec.pieces, tick, rec.spec, build)


def recognition_chain(spec, pieces):
    """The recognition chain Qc of one tick's pieces (qchain_matrix), kept in
    `pieces` under "qc"."""
    return _kept(pieces, "qc", spec,
                 lambda: qchain_matrix(spec, pieces["marg"], pieces["belief"]))


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
