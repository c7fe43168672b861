"""Dense per-step operators over the complete-state lattice.

Everything downstream (objectives, oracles, solvers, training) works with
a handful of arrays built here:

    prior     (N, L)            latent prior p(s1, s2, a1, a2 | x_prev)
    marg      (N, O, A)         observable marginal p(o, a | x_prev)
    belief    (N, O, A, L)      recognition belief per context
    cost      (N, O, A)         per-edge step objective (j + l + kl)
    P         (K, N)            policy-embedded rows, one per (s1, s2, a) class
    Qc        (N, N)            recognition-chain transition matrix

N is the complete-state count, K the (s1, s2, a) class count, L the
latent-tuple count, O/A the observation/action cardinalities. Builders
that read the models' tables for one step take a `tick` flag (non-tick
steps hold the slow latent deterministically); builders that combine
arrays take exactly the arrays they combine. Complete states are raveled
row-major in (o, s1, s2, a, a1, a2) order and latent tuples in (s1, s2,
a1, a2) order.
Every array over a step's (observation, action, latents) has the belief's
one axis order, (..., N, O, A, L), and meets the successor states through
one map, `Lattice.state_of_oal` and its inverse `Lattice.oal_of_state`: the
chain matrices gather their (O, A, L) entries at each successor, and the
adjoint and the Bellman backup index the successors' values by it.

Every derived per-tick array has one cache rule (`_kept`): it is built on
first use and kept, read-only, in the `pieces` of the model it derives
from. The generative half of the per-tick pieces (prior, marg;
`generative_pieces`), the policy-embedded class rows P and the
model-only log tables of the edge cost (-log R and -log lik per latent
tuple) are kept on their generative or reference model. The recognition
half (cost, ev, and on first use the whole belief and Qc) is kept on the
recognition model for the last (gen, ref) pair it was built with, so the
rate, the halving check and the gradient of one parameter set share one
build; the whole belief reads the recognition model alone and is kept
across a switch of that pair.
Models are read-only, so nothing kept goes stale; a caller bounds memory
by the lifetime of its models. The per-tick pieces have two entry points,
which alone wire the two halves (prior -> belief -> marginal -> edge
cost): `tick_pieces`, the read path's, whose edge cost reads belief rows
one x_prev block at a time unless the whole belief is kept, and
`recognition_pieces`, the one call of every reader of Qc or of the whole
belief, which adds both to the same pieces, the belief built first so
that the edge cost reads it.
P depends on x_prev only through its (s1, s2, a) class, as do the filtering
posterior and nature's factors, so each is built on one row per class
(`Lattice.sa_reps`), with no (N, O, A, L) array. P is kept as those rows
(`transition_rows`), which a chain step hands over with each state's class
(`Lattice.sa_class`); only `transition_matrix` expands them, and keeps
nothing. `posterior_recognition_tables` gathers its factors by class at
the end, and the Bellman backup (control._BellmanOps) gathers its action
values.

The recognition half takes a leading candidate axis: on a stack of
candidates (RecognitionModel.with_logits) belief, cost, ev and Qc each gain
it, and every row is the single build of its candidate, bit for bit.

The product builders (latent_prior, transition_rows, qchain_matrix,
belief_table) sum no index: each is a broadcast product that plans no
path per call. The first three multiply their factors in the order of
numpy's one-step plan (the operands in descending position), so they give
the bits of np.einsum(..., optimize=True); belief_table, the one belief
product, multiplies its factors in their order, as a plain np.einsum
does, and a single context's belief (context_belief) is its row. Passes
over (..., N, O, A, L) arrays run unmasked and zero their dead entries
once.
"""

import numpy as np

from .errors import DimensionMismatchError, EnumerationBudgetError
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
    prior = _prior_given_s2(gen, d1)
    prior *= d2[:, None, :, None, None]
    return prior.reshape(spec.n_states, spec.n_latents)


def _prior_given_s2(gen, d1):
    """The latent prior without its d2 factor, p(s1, a1, a2 | x_prev, s2),
    shape (N, s1, s2, a1, a2): ((p1 d1) p2) in (x, s1, s2, a1, a2) order,
    as numpy's one-step plan multiplies them, before d2."""
    p2 = gen.pol2.reshaped()                                   # (s2', a2)
    p1 = gen.pol1.reshaped()                                   # (s1', a2, a1)
    prior = p1.transpose(0, 2, 1)[None, :, None] * d1.transpose(0, 2, 1)[..., None, None]
    prior *= p2[:, None, :]
    return prior


def latent_prior_row(gen, x_prev, tick):
    """Latent prior for a single conditioning state, shape (L,)."""
    spec = gen.spec
    x_prev.validate(spec)
    d2 = (gen.dyn2.reshaped()[x_prev.s2, x_prev.a] if tick    # (s2',)
          else Lattice.of(spec).hold_s2[x_prev.flat(spec)])
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


def belief_table(rec, tick, rows):
    """Filtering recognition belief q(latents | o, a, x_prev) for the x_prev
    rows `rows` (a slice; slice(None) for all) and every (o, a), shape
    (..., R, O, A, L): a leading candidate axis of any factor
    (RecognitionModel.with_logits) leads the belief. Each row is the whole
    build's row, bit for bit. The product multiplies the factors in their
    order, ((s2 a2) s1) a1, as a plain np.einsum does: the (s2, a2, s1)
    partial product is copied over a1 into the (s1, s2, a1, a2) layout, and
    the a1 factor multiplies it in place."""
    spec = rec.spec
    lat = Lattice.of(spec)
    q = rec.tables
    q_s2 = q["s2"] if tick else lat.hold_s2[:, None, None, :]  # (N, O, A, s2)
    # the rows of each factor, whose x_prev axis has 3 to 5 axes after it
    q_s2, q_a2, q_s1, q_a1 = (arr[(..., rows) + (slice(None),) * k] for arr, k in
                              ((q_s2, 3), (q["a2"], 4), (q["s1"], 5), (q["a1"], 5)))
    partial = (q_s2[..., None] * q_a2)[..., None] * q_s1      # (s2, a2, s1)
    partial = np.moveaxis(partial, -1, -3)[..., None, :]       # (s1, s2, 1, a2)
    q_a1 = np.swapaxes(q_a1, -1, -2)[..., :, None, :, :]      # (s1, 1, a1, a2)
    belief = np.empty(np.broadcast_shapes(partial.shape, q_a1.shape))
    belief[...] = partial
    belief *= q_a1
    return belief.reshape(belief.shape[:-4] + (spec.n_latents,))


def context_belief(rec, context, tick):
    """The belief of one recognition context (o, a, x_prev): belief_table's
    row for x_prev, taken at (o, a), shape spec.latent_dims."""
    spec = rec.spec
    x = context.x_prev.validate(spec).flat(spec)
    o, a = int(context.o), int(context.a)
    if not 0 <= o < spec.card_o or not 0 <= a < spec.card_a:
        raise DimensionMismatchError("recognition context index out of range")
    return belief_table(rec, tick, slice(x, x + 1))[0, o, a].reshape(spec.latent_dims)


def reference_over_latents(ref):
    """-log R per latent tuple: shape (L, O); the o-dependent ref_o term plus
    the o-independent ref_s1 term. Kept in `ref.pieces`."""
    def build():
        lat = Lattice.of(ref.spec)
        j_o = -safe_log(ref.ref_o.reshaped()[lat.la1, :])          # (L, O)
        j_s1 = -safe_log(ref.ref_s1.reshaped()[lat.la2, lat.ls1])  # (L,)
        return j_o + j_s1[:, None]

    return _kept(ref.pieces, "neg_log_ref", ref.spec, build)


def neg_log_lik_over_latents(gen):
    """-log lik per latent tuple, shape (L, O). Kept in `gen.pieces`."""
    return _kept(gen.pieces, "neg_log_lik", gen.spec,
                 lambda: -safe_log(lik_over_latents(gen)))


def edge_cost(gen, ref, prior, belief):
    """Step objective for a transition x_prev -> x', as a function of
    (x_prev, o(x'), a(x')), shape (..., N, O, A) for a belief of shape
    (..., N, O, A, L): expected reference surprisal plus expected
    observation surprisal plus the KL from belief to latent prior, all under
    the filtering belief."""
    j_lat = reference_over_latents(ref)                        # (L, O)
    l_lat = neg_log_lik_over_latents(gen)                      # (L, O)
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


def transition_rows(gen, tick):
    """The distinct rows of the policy-embedded model's one-step matrix P,
    one per (s1, s2, a) class of x in class order, shape (K, N), kept in
    `gen.pieces` under ("P", tick): P[x] is row Lattice.sa_class[x]."""
    def build():
        lat = Lattice.of(gen.spec)
        prior = generative_pieces(gen, tick)["prior"][lat.sa_reps]
        t4 = (pol0_over_latents(gen).transpose(1, 2, 0)[None]
              * lik_over_latents(gen).T[None, :, None, :]) * prior[:, None, None, :]
        return _over_successors(gen.spec, t4)

    return _kept(gen.pieces, ("P", tick), gen.spec, build)


def transition_matrix(gen, tick):
    """One-step matrix P[x, x'] of the policy-embedded model, shape (N, N):
    transition_rows expanded by each state's class, built on each call."""
    return transition_rows(gen, tick)[Lattice.of(gen.spec).sa_class]


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
    return _over_successors(spec, marg[..., None] * belief)


def state_cost(gen, ref):
    """Realized per-state surprisal J(x) + L(x), shape (N,)."""
    lat = Lattice.of(gen.spec)
    j = (-safe_log(ref.ref_o.reshaped()[lat.a1, lat.o])
         - safe_log(ref.ref_s1.reshaped()[lat.a2, lat.s1]))
    l = -safe_log(gen.lik.reshaped()[lat.a1, lat.s1, lat.o])
    return j + l


def posterior_recognition_tables(gen):
    """The exact one-step filtering posterior q(latents | o, a, x_prev)
    propto prior * lik * pol0(a | o, a1), as each recognition factor's
    array; training moves these arrays (control.apply_params).

    Factored as (s2, a2 | s2, s1 | s2 a2, a1 | s1 a2); the last factor is
    exact because a1 is conditionally independent of s2 given (s1, a2). The
    factors are taken from the tick prior, whose d2 factor does not change a
    conditional given s2. Where the tick prior leaves a conditional's row
    no mass, a non-tick step, which holds s2, may still read it: that row is
    the conditional of the prior without its d2 factor. Like P, the
    posterior reads x_prev only through its (s1, s2, a) class, so it is
    built on one row per class (Lattice.sa_reps) and each factor is gathered
    by Lattice.sa_class at the end, which gives the fresh, C-ordered arrays
    RecognitionModel takes over.
    """
    spec = gen.spec
    lat = Lattice.of(spec)
    k, c_o, c_a = lat.sa_reps.size, spec.card_o, spec.card_a
    s1c, s2c, a1c, a2c = spec.latent_dims
    evidence = lik_over_latents(gen).T[None, :, None, :]
    action = pol0_over_latents(gen).transpose(1, 2, 0)[None]
    d2, d1 = (f[lat.sa_reps] for f in world_factors(gen, True))
    given_s2 = _prior_given_s2(gen, d1)                        # the prior without d2
    joint = (given_s2 * d2[:, None, :, None, None]).reshape(k, 1, 1, -1) * evidence * action
    z = joint.sum(axis=3, keepdims=True)
    with np.errstate(invalid="ignore"):
        joint = np.where(z > 0.0, joint / z, 1.0 / joint.shape[3])
    joint = joint.reshape(k, c_o, c_a, s1c, s2c, a1c, a2c)
    dead = (z == 0.0).reshape(k, c_o, c_a)

    def _norm(arr):
        s = arr.sum(axis=-1, keepdims=True)
        out = np.full(arr.shape, 1.0 / arr.shape[-1])
        return np.divide(arr, s, out=out, where=s > 0.0)

    def _given_s2(reduce):
        """_norm(reduce(joint)), but in the rows the tick prior leaves no
        mass, where it is _norm of reduce of the d2-free joint."""
        arr = reduce(joint)
        out = _norm(arr)
        empty = ~(arr.sum(axis=-1) > 0.0) | dead.reshape(dead.shape + (1,) * (arr.ndim - 4))
        if empty.any():
            out[empty] = _norm(reduce((given_s2.reshape(k, 1, 1, -1) * evidence * action)
                                      .reshape(joint.shape)))[empty]
        return out

    tables = {"s2": _norm(joint.sum(axis=(3, 5, 6))),                                # (.., s2)
              "a2": _given_s2(lambda j: j.sum(axis=(3, 5))),                         # (.., s2, a2)
              "s1": _given_s2(lambda j: j.sum(axis=5).transpose(0, 1, 2, 4, 5, 3)),  # (.., s2, a2, s1)
              "a1": _given_s2(lambda j: j.sum(axis=4).transpose(0, 1, 2, 3, 5, 4))}  # (.., s1, a2, a1)
    return {name: arr[lat.sa_class] for name, arr in tables.items()}


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
    """The per-tick arrays that the rate and the backup read, keyed prior,
    marg, cost (the edge cost) and ev (its expectation per state, shape
    (N,)): the generative half plus the recognition half built on it, kept
    in `rec.pieces` under `tick` for the last (gen, ref) pair, by identity.
    The edge cost reads the whole belief if it is kept; else it reads
    belief_table's rows one block at a time (the N / card_o x_prev rows of
    one observation)."""
    if rec.pieces.get("gen") is not gen or rec.pieces.get("ref") is not ref:
        rec.pieces = {"gen": gen, "ref": ref, "belief": rec.pieces.get("belief", {})}

    def build():
        half = generative_pieces(gen, tick)
        prior, marg = half["prior"], half["marg"]
        whole, n = rec.pieces["belief"].get(tick), rec.spec.n_states
        step = n // rec.spec.card_o
        blocks = (slice(x, x + step) for x in range(0, n, step))
        cost = edge_cost(gen, ref, prior, whole) if whole is not None else np.concatenate(
            [edge_cost(gen, ref, prior[b], belief_table(rec, tick, b)) for b in blocks], axis=-3)
        return {"prior": prior, "marg": marg, "cost": cost,
                "ev": expected_edge_cost(marg, cost)}

    return _kept(rec.pieces, tick, rec.spec, build)


def recognition_belief(rec, tick):
    """The whole belief of `rec` (belief_table of every x_prev row), kept in
    `rec.pieces` under "belief" and `tick` across (gen, ref) pairs."""
    return _kept(rec.pieces.setdefault("belief", {}), tick, rec.spec,
                 lambda: belief_table(rec, tick, slice(None)))


def recognition_pieces(gen, rec, ref, tick):
    """tick_pieces of one tick with the whole belief under "belief" and the
    recognition chain Qc (qchain_matrix of the marginal and the belief)
    under "qc", kept with them: what the feedback rate and rollouts, the
    differential free energy and its gradients read. The belief is built
    before the other pieces, so their edge cost reads it."""
    belief = recognition_belief(rec, tick)
    pc = tick_pieces(gen, rec, ref, tick)
    pc["belief"] = belief
    _kept(pc, "qc", rec.spec, lambda: qchain_matrix(rec.spec, pc["marg"], belief))
    return pc


def rollout_density(gen, rec, ref, tick, mode):
    """One step of a rollout density: its chain, as distinct transition rows
    and each state's row index (None: one row per state), and its (N, N)
    edge cost. feedforward: the policy-embedded model's class rows with the
    realized state costs J + L (broadcast over predecessors). feedback: the
    recognition-controlled chain with the step objective's edge costs."""
    spec = gen.spec
    if mode == "feedforward":
        n = spec.n_states
        return (transition_rows(gen, tick), Lattice.of(spec).sa_class,
                np.broadcast_to(state_cost(gen, ref), (n, n)))
    if mode == "feedback":
        pc = recognition_pieces(gen, rec, ref, tick)
        return pc["qc"], None, expand_edges(pc["cost"], spec)
    raise ValueError(f"unknown rollout density {mode!r}")


def expand_edges(values_noa, spec):
    """Broadcast an (N, O, A) edge array to a dense (N, N) matrix indexed by
    the successor's observation/action components."""
    lat = Lattice.of(spec)
    return values_noa[:, lat.o, lat.a]


def step_matrices(builder, spec, T):
    """The one schedule from steps to tick values: `builder(tick)`'s value
    for each step 1 .. T (its matrix, or any per-tick value), built once per
    distinct tick value, so step t gets the value of tick_at(t)."""
    by_tick = {}
    out = []
    for t in range(1, T + 1):
        k = tick_at(t, spec)
        if k not in by_tick:
            by_tick[k] = builder(k)
        out.append(by_tick[k])
    return out
