"""Hierarchical categorical models on a two-timescale tick schedule.

The complete state of a time step is x = (o, s1, s2, a, a1, a2): an
observation, a fast and a slow latent, and three action/reference
variables. One-step dynamics factor as

    p(x_t | x_{t-1}) = dyn2(s2 | s2_prev, a_prev)   [level 2, only on ticks]
                     * pol2(a2 | s2)
                     * dyn1(s1 | s1_prev, s2, a_prev)
                     * pol1(a1 | s1, a2)
                     * lik(o | a1, s1)
                     * pol0(a | o, a1)

On non-tick steps the slow latent holds deterministically. Reference
tables score states (ref_o over observations, ref_s1 over fast latents),
and a recognition model carries per-step beliefs over the four latent
variables, conditioned on (o_t, a_t, x_{t-1}) and a summary of the next
step (the next observation, or a designated no-future sentinel).

Every table is immutable after construction (a generative or reference
model only fills its cache of arrays derived from them); sampling takes an
explicit numpy Generator so parallel callers use independent streams.
"""

import itertools
import json
import math
import re
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DimensionMismatchError
from .logspace import axis_sum, safe_log

TABLE_ROW_TOL = 1e-12
LOAD_REJECT_TOL = 1e-6
POSITIVITY_FLOOR = 1e-12

FILE_VERSION = 1


# ---------------------------------------------------------------------------
# specs and states


@dataclass(frozen=True)
class ModelSpec:
    """Domain cardinalities and the level-2 tick period."""

    card_o: int
    card_s1: int
    card_s2: int
    card_a: int
    card_a1: int
    card_a2: int
    tick_period_level2: int = 2

    def __post_init__(self):
        for name in ("card_o", "card_s1", "card_s2", "card_a", "card_a1", "card_a2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.tick_period_level2 < 1:
            raise ValueError("tick_period_level2 must be >= 1")

    @property
    def dims(self):
        """Component cardinalities in complete-state order (o, s1, s2, a, a1, a2)."""
        return (self.card_o, self.card_s1, self.card_s2,
                self.card_a, self.card_a1, self.card_a2)

    @property
    def n_states(self):
        return math.prod(self.dims)

    @property
    def n_latents(self):
        """Joint cardinality of (s1, s2, a1, a2)."""
        return self.card_s1 * self.card_s2 * self.card_a1 * self.card_a2

    @property
    def latent_dims(self):
        return (self.card_s1, self.card_s2, self.card_a1, self.card_a2)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


@dataclass(frozen=True)
class CompleteState:
    """One time slice x = (o, s1, s2, a, a1, a2), all index-valued."""

    o: int
    s1: int
    s2: int
    a: int
    a1: int
    a2: int

    def validate(self, spec):
        for v, dim, name in zip(self.astuple(), spec.dims, ("o", "s1", "s2", "a", "a1", "a2")):
            if not 0 <= v < dim:
                raise DimensionMismatchError(
                    f"state component {name}={v} out of range [0, {dim})")
        return self

    def flat(self, spec):
        return int(np.ravel_multi_index(self.astuple(), spec.dims))

    @classmethod
    def from_flat(cls, idx, spec):
        o, s1, s2, a, a1, a2 = np.unravel_index(idx, spec.dims)
        return cls(int(o), int(s1), int(s2), int(a), int(a1), int(a2))

    def astuple(self):
        return (self.o, self.s1, self.s2, self.a, self.a1, self.a2)


@dataclass(frozen=True)
class Trajectory:
    """An episode: context x0 plus the states for t = 1..T."""

    x0: CompleteState
    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    def __len__(self):
        return len(self.steps)

    def hold_respected(self, spec):
        """True iff s2 is unchanged on every non-tick step."""
        prevs = (self.x0,) + self.steps
        return all(tick_at(t, spec) or x.s2 == prev.s2
                   for t, (prev, x) in enumerate(zip(prevs, self.steps), start=1))


def tick_levels(t, spec):
    """Which hierarchy levels transition at step t (level 1 always does)."""
    if t < 1:
        raise ValueError("time index starts at 1")
    return {1, 2} if tick_at(t, spec) else {1}


def tick_at(t, spec):
    return (t - 1) % spec.tick_period_level2 == 0


# ---------------------------------------------------------------------------
# conditional tables


def _normalized_rows(probs):
    """probs, rows over the last axis, after the check every table passes: no
    negative entry and each row sum within 1e-6 of one (else ValueError); a
    row off by more than 1e-12 is divided by its sum, in a copy. Unless one
    is, the row sums are its one row-sized temporary."""
    if np.any(probs < 0):
        raise ValueError("negative probability entry")
    sums = probs.sum(axis=-1)
    off = float(np.max((sums.max() - 1.0, 1.0 - sums.min())))  # NaN if a sum is
    if not off <= LOAD_REJECT_TOL:
        raise ValueError(f"row normalization off by {off:.3e}")
    if off > TABLE_ROW_TOL:
        bad = np.abs(sums - 1.0) > TABLE_ROW_TOL
        probs = probs.copy()
        probs[bad] /= sums[bad][..., None]
    return probs


class ConditionalTable:
    """A normalized categorical distribution per parent configuration.

    Rows are indexed row-major over `parent_dims`. With the strictly
    positive flag (default) every entry is floored at 1e-12 by mixing
    with the uniform distribution, so logs stay finite. A table read back
    from a bundle keeps its flag but is not floored a second time
    (`_floor=False`).
    """

    __slots__ = ("parent_dims", "child_dim", "probs", "strictly_positive")

    def __init__(self, parent_dims, child_dim, probs, strictly_positive=True,
                 _floor=True):
        parent_dims = tuple(int(d) for d in parent_dims)
        n_rows = int(np.prod(parent_dims)) if parent_dims else 1
        probs = _normalized_rows(np.array(probs, dtype=float).reshape(n_rows, child_dim))
        if strictly_positive and _floor:
            # mixture with uniform: keeps rows normalized and every entry >= 1e-12
            probs = (1.0 - child_dim * POSITIVITY_FLOOR) * probs + POSITIVITY_FLOOR
        probs = np.ascontiguousarray(probs)
        probs.setflags(write=False)
        self.parent_dims = parent_dims
        self.child_dim = int(child_dim)
        self.probs = probs
        self.strictly_positive = bool(strictly_positive)

    def row_index(self, parents):
        if len(parents) != len(self.parent_dims):
            raise DimensionMismatchError(
                f"expected {len(self.parent_dims)} parents, got {len(parents)}")
        if not self.parent_dims:
            return 0
        return int(np.ravel_multi_index(tuple(parents), self.parent_dims))

    def row(self, parents):
        return self.probs[self.row_index(parents)]

    def prob(self, parents, child):
        return float(self.probs[self.row_index(parents), child])

    def logprob(self, parents, child):
        return float(safe_log(self.prob(parents, child)))

    def sample(self, parents, rng):
        return sample_categorical(self.probs[self.row_index(parents)], rng)

    def reshaped(self):
        """View shaped parent_dims + (child_dim,)."""
        return self.probs.reshape(self.parent_dims + (self.child_dim,))

    # constructors ----------------------------------------------------------

    @classmethod
    def uniform(cls, parent_dims, child_dim, strictly_positive=True):
        n_rows = int(np.prod(parent_dims)) if parent_dims else 1
        probs = np.full((n_rows, child_dim), 1.0 / child_dim)
        return cls(parent_dims, child_dim, probs, strictly_positive)

    @classmethod
    def one_hot(cls, parent_dims, child_dim, pick, strictly_positive=False):
        """`pick` maps a parent index tuple to the selected child index."""
        parent_dims = tuple(parent_dims)
        n_rows = int(np.prod(parent_dims)) if parent_dims else 1
        probs = np.zeros((n_rows, child_dim))
        for flat in range(n_rows):
            parents = np.unravel_index(flat, parent_dims) if parent_dims else ()
            probs[flat, pick(*(int(p) for p in parents))] = 1.0
        return cls(parent_dims, child_dim, probs, strictly_positive)

    @classmethod
    def random(cls, parent_dims, child_dim, rng, strictly_positive=True):
        """Rows drawn from the flat Dirichlet(1, ..., 1)."""
        n_rows = int(np.prod(parent_dims)) if parent_dims else 1
        probs = rng.dirichlet(np.ones(child_dim), size=n_rows)
        return cls(parent_dims, child_dim, probs, strictly_positive)

    @classmethod
    def from_logits(cls, parent_dims, child_dim, logits):
        """The softmax of `logits` over each row, not floored."""
        return cls(parent_dims, child_dim, softmax_rows(np.asarray(logits, dtype=float)),
                   strictly_positive=False)


def sample_categorical(probs, rng):
    """An index drawn from the probability vector `probs` by inverting its
    CDF at one rng.random()."""
    return int(np.searchsorted(np.cumsum(probs), rng.random(),
                               side="right").clip(0, probs.size - 1))


def softmax_rows(logits):
    """Softmax over the last axis tolerating -inf logits (zero probability),
    computed in the one array it returns. The row max and the row sum
    (axis_sum) are taken column by column, numpy's bits, cheaper than a
    reduction over the tables' short rows (rows of 8 or more sum by np.sum)."""
    logits = np.atleast_2d(logits)
    m = logits[..., 0].copy()
    for k in range(1, logits.shape[-1]):
        np.maximum(m, logits[..., k], out=m)
    m = m[..., None]
    if np.any(~np.isfinite(m)):
        raise ValueError("softmax row with no finite logit")
    e = np.subtract(logits, m, dtype=float)
    with np.errstate(over="ignore"):
        np.exp(e, out=e)
    e /= axis_sum(e, -1)[..., None]
    return e


# ---------------------------------------------------------------------------
# generative, reference, recognition models


def table_layout(spec):
    """Parents and child of every generative and reference table, in bundle
    order: name -> (parent_dims, child_dim)."""
    s = spec
    return {
        "lik": ((s.card_a1, s.card_s1), s.card_o),
        "dyn1": ((s.card_s1, s.card_s2, s.card_a), s.card_s1),
        "dyn2": ((s.card_s2, s.card_a), s.card_s2),
        "pol0": ((s.card_o, s.card_a1), s.card_a),
        "pol1": ((s.card_s1, s.card_a2), s.card_a1),
        "pol2": ((s.card_s2,), s.card_a2),
        "ref_o": ((s.card_a1,), s.card_o),
        "ref_s1": ((s.card_a2,), s.card_s1),
    }


def check_layout(model):
    """DimensionMismatchError naming the first of `model.table_names` whose
    table is not laid out as table_layout(model.spec) says."""
    layout = table_layout(model.spec)
    for name in model.table_names:
        table, (parents, child) = getattr(model, name), layout[name]
        if table.parent_dims != parents or table.child_dim != child:
            raise DimensionMismatchError(
                f"table {name}: expected parents {parents} -> {child}, "
                f"got {table.parent_dims} -> {table.child_dim}")


class _TableModel:
    """A spec plus the conditional tables named in `table_names`: checks
    their layout and builds uniform or random instances."""

    def __post_init__(self):
        check_layout(self)

    @classmethod
    def uniform(cls, spec, strictly_positive=True):
        layout = table_layout(spec)
        return cls(spec, **{name: ConditionalTable.uniform(*layout[name], strictly_positive)
                            for name in cls.table_names})

    @classmethod
    def random(cls, spec, rng, strictly_positive=True):
        """Dirichlet(1) rows, drawn table by table in `table_names` order."""
        layout = table_layout(spec)
        return cls(spec, **{name: ConditionalTable.random(*layout[name], rng,
                                                          strictly_positive)
                            for name in cls.table_names})


@dataclass(frozen=True)
class GenerativeModel(_TableModel):
    """The six conditional tables of the hierarchical model."""

    spec: ModelSpec
    lik: ConditionalTable    # (a1, s1) -> o
    dyn1: ConditionalTable   # (s1_prev, s2, a_prev) -> s1
    dyn2: ConditionalTable   # (s2_prev, a_prev) -> s2
    pol0: ConditionalTable   # (o, a1) -> a
    pol1: ConditionalTable   # (s1, a2) -> a1
    pol2: ConditionalTable   # (s2,) -> a2
    # derived arrays kept by chains on first use: the generative half of the
    # per-tick pieces (tick -> {"prior", "marg"}), the transition matrix
    # (("P", tick)) and -log lik over latents ("neg_log_lik"). The tables
    # are read-only, so it cannot go stale; dataclasses.replace starts empty.
    pieces: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    table_names = ("lik", "dyn1", "dyn2", "pol0", "pol1", "pol2")


@dataclass(frozen=True)
class ReferenceModel(_TableModel):
    """Preference densities: ref_o scores observations given a1, ref_s1 scores
    fast latents given a2."""

    spec: ModelSpec
    ref_o: ConditionalTable   # (a1,) -> o
    ref_s1: ConditionalTable  # (a2,) -> s1
    # -log R over latents ("neg_log_ref"), kept by chains on first use; like
    # GenerativeModel.pieces it cannot go stale
    pieces: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    table_names = ("ref_o", "ref_s1")


@dataclass(frozen=True)
class RecognitionContext:
    """Conditioning set for a per-step belief: (o_t, a_t, x_{t-1}, future).

    `future` is the next observation index, or None for the no-future
    (filtering) sentinel.
    """

    o: int
    a: int
    x_prev: CompleteState
    future: object = None  # int | None


# recognition factor order: s2, then a2 | s2, then s1 | (s2, a2), then a1 | (s1, a2)
REC_FACTORS = ("s2", "a2", "s1", "a1")


def _check_factor(name, want, shape):
    if shape != want:
        raise DimensionMismatchError(
            f"recognition factor {name}: expected table {want}, got {shape}")


class RecognitionModel:
    """Per-step belief over (s1, s2, a1, a2), factored in topological order.

    Each factor is a table of normalized rows over its last axis, indexed
    (x_prev, o, a, future, parents...). The future-summary axis has
    card_o + 1 entries: the last is the no-future (filtering) sentinel,
    the only slice the average-surprise objective reads; the others are
    smoothing slices. On non-tick steps the s2 factor is replaced by the
    deterministic level-2 hold.

    A factor is held row-indexed: `rows[k]`, shape (R, child), and
    `index[k]`, int32 shaped (x_prev, o, a, future, parents...), with
    table[i] == rows[k][index[k][i]]; both are read-only and may repeat
    or broadcast (a loaded factor keeps its bundle array's distinct rows,
    each once while they fit the reader's row dictionary, _rows_of).
    `sentinel[k]` is factor k's filtering slice, gathered into a dense
    array: the array every reader of the objective takes. A
    candidate (with_logits) shares its parent's rows and index and owns
    only its new sentinels; the whole layout is assembled only where it is
    read (tables).
    """

    __slots__ = ("spec", "rows", "index", "sentinel", "pieces", "__weakref__")

    def __init__(self, spec, tables):
        """Takes over the float arrays of `tables` without a copy and makes
        them read-only, so pass arrays no one else holds (from_tables copies
        its input). Each becomes its own rows, under an identity index."""
        shapes = self.factor_shapes(spec)
        rows, index = {}, {}
        for name in REC_FACTORS:
            arr = np.ascontiguousarray(tables[name], dtype=float)
            _check_factor(name, shapes[name], arr.shape)
            arr.setflags(write=False)
            rows[name] = arr.reshape(-1, arr.shape[-1])
            index[name] = np.arange(len(rows[name]), dtype=np.int32).reshape(arr.shape[:-1])
        self._indexed(spec, rows, index)

    def _indexed(self, spec, rows, index):
        """Fill every slot from read-only row-indexed factors, each checked
        against the spec's shape, with the sentinel slices gathered."""
        shapes, sentinel = self.factor_shapes(spec), {}
        for name in REC_FACTORS:
            _check_factor(name, shapes[name], index[name].shape + rows[name].shape[1:])
            index[name].setflags(write=False)
            sentinel[name] = np.take(rows[name], index[name][:, :, :, spec.card_o], axis=0)
            sentinel[name].setflags(write=False)
        return self._set(spec, rows, index, sentinel)

    def _set(self, spec, rows, index, sentinel):
        """Fill every slot: the one initializer of a model and a candidate."""
        self.spec, self.rows, self.index, self.sentinel = spec, rows, index, sentinel
        # the recognition half of the per-tick pieces, kept by
        # chains.tick_pieces for the last (gen, ref) pair it was built with
        # (the belief, which reads this model alone, for every pair)
        self.pieces = {}
        return self

    def with_logits(self, logits):
        """A candidate: this model with the sentinel slice of each factor in
        `logits` replaced by the softmax of its logits, a fresh array; every
        other slice, smoothing slices included, is this model's, shared."""
        return self._candidate(logits, ())

    def stacked(self, name, logits):
        """Candidates along a leading axis: this model with factor `name`'s
        sentinel slice replaced by the softmax of each entry of `logits`,
        shaped (candidates,) + that slice's shape, as one fresh array; every
        other slice is this model's, shared. Only the recognition half of
        the per-tick pieces reads a stack (chains.tick_pieces), and each of
        its pieces gains the leading axis."""
        return self._candidate({name: logits}, np.shape(logits)[:1])

    def _candidate(self, logits, lead):
        sentinel = dict(self.sentinel)
        for name, values in logits.items():
            arr = sentinel[name] = softmax_rows(values)
            want = lead + self.sentinel[name].shape
            if arr.shape != want:
                raise DimensionMismatchError(
                    f"recognition factor {name}: expected sentinel {want}, "
                    f"got {arr.shape}")
            arr.setflags(write=False)
        return object.__new__(RecognitionModel)._set(self.spec, self.rows, self.index,
                                                     sentinel)

    @property
    def tables(self):
        """Every factor whole, keyed by name: its rows gathered by its index,
        sentinel slice written in, a fresh read-only copy on every read."""
        tables = {}
        for name in REC_FACTORS:
            arr = tables[name] = np.take(self.rows[name], self.index[name], axis=0)
            arr[:, :, :, self.future_sentinel] = self.sentinel[name]
            arr.setflags(write=False)
        return tables

    @property
    def future_sentinel(self):
        return self.spec.card_o

    @staticmethod
    def factor_shapes(spec):
        n, o, a, f = spec.n_states, spec.card_o, spec.card_a, spec.card_o + 1
        return {
            "s2": (n, o, a, f, spec.card_s2),
            "a2": (n, o, a, f, spec.card_s2, spec.card_a2),
            "s1": (n, o, a, f, spec.card_s2, spec.card_a2, spec.card_s1),
            "a1": (n, o, a, f, spec.card_s1, spec.card_a2, spec.card_a1),
        }

    @classmethod
    def from_seed(cls, spec, seed):
        """Tables softmaxed from standard-normal logits."""
        rng = np.random.default_rng(seed)
        return cls.from_logits(spec, {name: rng.standard_normal(shape)
                                      for name, shape in cls.factor_shapes(spec).items()})

    @classmethod
    def from_logits(cls, spec, logits):
        """Tables that are the softmax of `logits` over each row."""
        return cls(spec, {name: softmax_rows(np.asarray(logits[name], dtype=float))
                          for name in REC_FACTORS})

    @classmethod
    def from_tables(cls, spec, tables):
        """Build from explicit probability tables, kept bit-exact as a copy."""
        return cls(spec, {name: np.array(tables[name], dtype=float, order="C")
                          for name in REC_FACTORS})

    @classmethod
    def from_filtering(cls, spec, filtering):
        """The model whose every future slice is the filtering slice in
        `filtering` (each factor's shape without its future axis): those
        arrays, taken over read-only (copied only if not C-contiguous), are
        its rows, and a read-only broadcast over the future axis its index."""
        rows, index = {}, {}
        for name, shape in cls.factor_shapes(spec).items():
            arr = np.ascontiguousarray(filtering[name], dtype=float)
            _check_factor(name, shape[:3] + shape[4:], arr.shape)
            arr.setflags(write=False)
            rows[name] = arr.reshape(-1, shape[-1])
            index[name] = np.broadcast_to(
                np.arange(len(rows[name]), dtype=np.int32).reshape(
                    shape[:3] + (1,) + shape[4:-1]), shape[:-1])
        return object.__new__(cls)._indexed(spec, rows, index)

    def joint(self, context, tick=True):
        """Belief over latent tuples, shaped (card_s1, card_s2, card_a1, card_a2):
        the sentinel slices for a None future, the shared rows otherwise."""
        sp = self.spec
        xp = context.x_prev.validate(sp).flat(sp)
        o, a = int(context.o), int(context.a)
        f = self.future_sentinel if context.future is None else int(context.future)
        if not 0 <= o < sp.card_o or not 0 <= a < sp.card_a or not 0 <= f <= self.future_sentinel:
            raise DimensionMismatchError("recognition context index out of range")
        q_s2, q_a2, q_s1, q_a1 = (
            self.sentinel[k][xp, o, a] if f == self.future_sentinel
            else self.rows[k][self.index[k][xp, o, a, f]] for k in REC_FACTORS)
        if not tick:
            q_s2 = np.zeros(sp.card_s2)
            q_s2[context.x_prev.s2] = 1.0
        joint = np.einsum("X,XA,XAs,sAb->sXbA", q_s2, q_a2, q_s1, q_a1)
        return joint  # axes (s1, s2, a1, a2)


def recognition_logprob(rec, latents, context, tick=True):
    """Log-probability of a latent tuple (s1, s2, a1, a2) under the factored
    belief for the given context."""
    s1, s2, a1, a2 = latents
    sp = rec.spec
    for v, dim, name in zip((s1, s2, a1, a2), sp.latent_dims, ("s1", "s2", "a1", "a2")):
        if not 0 <= v < dim:
            raise DimensionMismatchError(f"latent {name}={v} out of range [0, {dim})")
    joint = rec.joint(context, tick=tick)
    return float(safe_log(joint[s1, s2, a1, a2]))


# ---------------------------------------------------------------------------
# transition evaluation and sampling


def transition_logprob(gen, x_prev, x, t):
    """Log p(x_t = x | x_{t-1} = x_prev) under the tick schedule."""
    spec = gen.spec
    x_prev.validate(spec)
    x.validate(spec)
    tick = tick_at(t, spec)
    lp = 0.0
    if tick:
        lp += gen.dyn2.logprob((x_prev.s2, x_prev.a), x.s2)
    elif x.s2 != x_prev.s2:
        return float("-inf")
    lp += gen.pol2.logprob((x.s2,), x.a2)
    lp += gen.dyn1.logprob((x_prev.s1, x.s2, x_prev.a), x.s1)
    lp += gen.pol1.logprob((x.s1, x.a2), x.a1)
    lp += gen.lik.logprob((x.a1, x.s1), x.o)
    lp += gen.pol0.logprob((x.o, x.a1), x.a)
    return lp


def trajectory_logprob(gen, traj):
    """Sum of per-step transition log-probabilities; -inf propagates."""
    if not traj.steps:
        raise ValueError("trajectory has no steps")
    total = 0.0
    for t, (prev, x) in enumerate(zip((traj.x0,) + traj.steps, traj.steps), start=1):
        lp = transition_logprob(gen, prev, x, t)
        if lp == float("-inf"):
            return lp
        total += lp
    return total


def sample_transition(gen, x_prev, t, rng):
    """Ancestral sample of x_t in the factor order (s2, a2, s1, a1, o, a)."""
    spec = gen.spec
    x_prev.validate(spec)
    if tick_at(t, spec):
        s2 = gen.dyn2.sample((x_prev.s2, x_prev.a), rng)
    else:
        s2 = x_prev.s2
    a2 = gen.pol2.sample((s2,), rng)
    s1 = gen.dyn1.sample((x_prev.s1, s2, x_prev.a), rng)
    a1 = gen.pol1.sample((s1, a2), rng)
    o = gen.lik.sample((a1, s1), rng)
    a = gen.pol0.sample((o, a1), rng)
    return CompleteState(o, s1, s2, a, a1, a2)


def sample_trajectory(gen, x0, T, rng):
    steps = [x0]
    for t in range(1, T + 1):
        steps.append(sample_transition(gen, steps[-1], t, rng))
    return Trajectory(x0, steps[1:])


# ---------------------------------------------------------------------------
# serialization


# Rows are encoded in blocks of about this many values, which bounds the
# writer's working memory independently of the table size.
_BLOCK_VALUES = 1 << 16

# Stands in for each rows array in the envelope; json.dumps escapes the NULs,
# so its encoding cannot occur anywhere else in the document.
_ROWS_MARK = "\0rows\0"


def _row_texts(rows):
    """Each row of the 2-D float array `rows` as json.dumps writes it, less
    its brackets, in an object array: the text is gathered from the rows'
    distinct values (by bit pattern, so -0.0 and 0.0 stay apart), each
    encoded once."""
    rows = np.ascontiguousarray(rows, dtype=float)
    uniq, inverse = np.unique(rows.view(np.uint64).ravel(), return_inverse=True)
    values = np.array(json.dumps(uniq.view(np.float64).tolist())[1:-1].split(", "), object)
    cells = values[inverse].reshape(rows.shape).tolist()
    return np.array(list(map(", ".join, cells)), object)


def _distinct_rows(rows):
    """The distinct rows of the 2-D float array `rows` by bit pattern, in
    first-seen order, and each row's index into them."""
    rows = np.ascontiguousarray(rows, dtype=float)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
    index_of = defaultdict(itertools.count().__next__)
    index = np.fromiter(map(index_of.__getitem__, keys), np.intp, len(keys))
    return np.frombuffer(b"".join(index_of), float).reshape(-1, rows.shape[1]), index


def _factor_texts(rec, name):
    """The rows of recognition factor `name` of rec, whole and in table
    order, as lists of row texts over consecutive x_prev of about
    _BLOCK_VALUES values each. A block formats each distinct row (by bit
    pattern) of the rows its index points to and of its sentinel slice
    once, through their distinct values, and gathers the texts by index."""
    rows, index, sent = rec.rows[name], rec.index[name], rec.sentinel[name]
    width = rows.shape[1]
    step = max(1, _BLOCK_VALUES // (index[0].size * width))
    for x in range(0, len(index), step):
        idx, block = np.array(index[x:x + step]), sent[x:x + step].reshape(-1, width)
        # the sentinel slice's rows count on after the factor's rows
        idx[:, :, :, rec.future_sentinel].flat = np.arange(len(rows), len(rows) + len(block))
        used, inverse = np.unique(idx, return_inverse=True)
        distinct, at = _distinct_rows(np.concatenate([rows[used[used < len(rows)]], block]))
        yield _row_texts(distinct)[at[inverse.ravel()]].tolist()


def save_models(path, gen, rec, ref):
    """Write the generative, recognition, and reference tables as one JSON
    document (version 1, named row-major arrays).

    The bytes equal json.dump of the whole document; the rows are streamed
    as row texts, block by block (_row_texts, _factor_texts), instead of
    being converted to nested lists first.
    """
    tables, chunks = {}, []
    for model, names in ((gen, GenerativeModel.table_names),
                         (ref, ReferenceModel.table_names)):
        for name in names:
            table = getattr(model, name)
            tables[name] = {"parents": list(table.parent_dims), "child": table.child_dim,
                            "rows": _ROWS_MARK,
                            "strictly_positive": table.strictly_positive}
            chunks.append([_row_texts(table.probs).tolist()])
    for name, shape in RecognitionModel.factor_shapes(rec.spec).items():
        tables["rec_" + name] = {"dims": list(shape), "rows": _ROWS_MARK}
        chunks.append(_factor_texts(rec, name))
    doc = {"version": FILE_VERSION, "spec": gen.spec.to_dict(), "tables": tables}
    envelope = json.dumps(doc).split(json.dumps(_ROWS_MARK))
    with open(path, "w") as fh:
        fh.write(envelope[0])
        for blocks, text in zip(chunks, envelope[1:]):
            sep = "[["
            for texts in blocks:
                fh.writelines((sep, "], [".join(texts)))
                sep = "], ["
            fh.write("]]" + text)


# The file is read in chunks of this many bytes: a load holds the tables and
# a few chunks' worth of the file's text, whatever the file's size.
_BLOCK_CHARS = 1 << 20

# The bytes a rows array may hold in json.dump's default layout: json's float
# spellings (NaN and Infinity included), brackets, and ", " separators.
_ROW_CHARS = b"0123456789.eE+-NaInfity[], "

_ROWS_KEY = b'"rows": [['

# The "dims" list save_models writes just before a recognition factor's
# rows: dims[3:-1] span one (x_prev, o, a) context, a piece of the reader's.
# It is only a hint, and is not checked.
_DIMS_BEFORE_ROWS = re.compile(rb'"dims": \[(\d+(?:, \d+)*)\], \Z')


def _rows_block(block, child_dim):
    """Values of b"[v, v], [v, v]" (whole rows of child_dim values each) as a
    flat float array.

    The layout is checked on the bytes: only _ROW_CHARS, every comma followed
    by one space and no other space, child_dim values per row, "], [" between
    rows. Every token is converted by float(), the conversion json applies to
    its float tokens; _rows_of hands over a block's rows new to its array,
    and reads any ValueError as a block not laid out that way.
    """
    arr = np.frombuffer(block, np.uint8)
    commas = np.flatnonzero(arr == ord(","))
    n = len(commas) + 1
    n_rows, ragged = divmod(n, child_dim)
    breaks = commas[child_dim - 1::child_dim]  # the commas between rows
    if (block.translate(None, _ROW_CHARS) or ragged
            or block[:1] != b"[" or block[-1:] != b"]"
            or np.count_nonzero(arr == ord("[")) != n_rows
            or np.count_nonzero(arr == ord("]")) != n_rows
            or np.count_nonzero(arr == ord(" ")) != n - 1
            or not np.all(arr[commas + 1] == ord(" "))
            or not np.all(arr[breaks - 1] == ord("]"))
            or not np.all(arr[breaks + 2] == ord("["))):
        raise ValueError
    tokens = block.translate(None, b"[],").split()
    values = np.fromiter(map(float, tokens), float, n)
    # json reads "-0" as the integer 0, which becomes 0.0, not -0.0
    for i in np.flatnonzero((values == 0) & np.signbit(values)):
        if tokens[i].lstrip(b"-").isdigit():
            values[i] = 0.0
    return values


def _rows_of(text, stop, index_of, piece_of, cuts):
    """The rows of text[1:stop] (text starts at a row's "[") through their
    array's row dictionary index_of (row text -> index) and piece dictionary
    piece_of (piece text -> its rows' int32 indices): the rows new to
    index_of, converted once in first-seen order, and each row's index; None
    if not laid out as json.dump writes them, as when a row holds a "]".
    The text is cut into pieces after the "]"s the slice `cuts` picks that
    ", [" follows; only a piece new to piece_of is split into rows, so any
    cuts give the same result. Once its rows fill about half a chunk
    (_BLOCK_CHARS), index_of starts over, its indices counting on, and
    piece_of with it; piece_of also starts over once its pieces fill about
    two chunks. That bounds both when rows or pieces barely repeat."""
    ends = np.flatnonzero(np.frombuffer(text, np.uint8, stop) == ord("]"))[cuts].tolist()
    ends = [end for end in ends if text.startswith(b"], [", end)]
    starts = [1] + [end + 4 for end in ends]
    known, parts = len(index_of), []
    for piece in map(text.__getitem__, map(slice, starts, ends + [stop])):
        part = piece_of.get(piece)
        if part is None:
            rows = piece.split(b"], [")
            part = piece_of[piece] = np.fromiter(map(index_of.__getitem__, rows), np.int32,
                                                 len(rows))
        parts.append(part)
    index = np.concatenate(parts)
    first = text.find(b"], [", 1, stop)
    width = text.count(b",", 1, first if first >= 0 else stop) + 1
    new = b"], [".join(itertools.islice(index_of, known, None))
    try:
        values = _rows_block(b"[%b]" % new, width) if len(index_of) > known else np.empty(0)
    except ValueError:
        return None
    if 2 * len(index_of) * stop >= _BLOCK_CHARS * len(index):
        index_of.clear()
        piece_of.clear()
    elif len(piece_of) * stop >= 2 * _BLOCK_CHARS * len(parts):
        piece_of.clear()
    return values.reshape(-1, width), index


def _gather(arrays, mark, width, name):
    """The rows array `mark` stands for, row-indexed: its blocks' new rows
    joined into one (R, width) float array, and its blocks' int32 indices
    into them joined; a ValueError naming table `name` unless its rows are
    lists of `width` numbers laid out as json.dump writes them. The blocks
    leave `arrays` as they are gathered."""
    marked = isinstance(mark, str) and mark[:1] == "\0"
    blocks = arrays.pop(int(mark[1:])) if marked else [None]
    if any(block is None or block[0].shape[1] != width for block in blocks):
        raise ValueError(f"table {name}: bundle rows are not lists of {width} numbers "
                         "laid out as json.dump writes them")
    return tuple(np.concatenate(part) for part in zip(*blocks))


def _read_bundle(fh):
    """Read the bundle in the binary file fh, _BLOCK_CHARS bytes at a time:
    the envelope, parsed by json with the i-th rows array replaced by the
    string "\\0<i>", and each array's blocks, keyed by i: a chunk's whole
    rows, its partial last row carried over, read by _rows_of through one
    row dictionary and one piece dictionary per array. A piece is the rows
    of one (x_prev, o, a) context, counted from the array's first row, as
    many as the "dims" list before the array gives (else one). An array's
    end, "]]", is searched for only before the first "}" of the text: a
    rows array holds none, and its table's object closes after it.
    """
    parts, arrays, blocks, text = [], {}, None, b""
    for chunk in iter(lambda: fh.read(_BLOCK_CHARS), b""):
        text += chunk
        while blocks is not None or (key := text.find(_ROWS_KEY)) >= 0:
            if blocks is None:  # a rows array starts
                dims = _DIMS_BEFORE_ROWS.search(b"".join(parts) + text[:key])
                size = max(math.prod(map(int, dims[1].split(b", ")[3:-1])), 1) if dims else 1
                parts += [text[:key + len(_ROWS_KEY) - 2], b'"\\u0000%d"' % len(arrays)]
                blocks, text, seen = [], text[key + len(_ROWS_KEY) - 1:], 0
                arrays[len(arrays)] = blocks
                index_of = defaultdict(itertools.count().__next__)  # row text -> index
                piece_of = {}  # piece text -> its rows' indices
            brace = text.find(b"}")
            end = text.find(b"]]", 0, brace) if brace >= 0 else -1
            stop = end if end >= 0 else text.rfind(b"], [")
            if stop < 0:
                break
            # cut after each context's last row: every size-th from the array's first
            cuts = slice((-seen - 1) % size, None, size)
            block = _rows_of(text, stop, index_of, piece_of, cuts)
            blocks.append(block)
            seen += 0 if block is None else len(block[1])
            if end >= 0:  # the array ends with this block
                blocks, text = None, text[end + 2:]
            else:
                text = text[stop + 3:]
        else:  # the envelope, but for a rows key the chunk may have cut
            parts.append(text[:-len(_ROWS_KEY)])
            text = text[-len(_ROWS_KEY):]
    if blocks is not None:
        raise ValueError("model bundle ends inside a rows array")
    envelope = b"".join(parts) + text
    # with no escape but the markers', no other string can hold a NUL
    if envelope.count(b"\\") != len(arrays):
        raise ValueError("model bundle envelope holds an escaped string")
    return json.loads(envelope), arrays


def _bundle_key(mapping, key, where):
    """mapping[key]; a ValueError naming `where` and the key if it is absent
    or `where` is not a JSON object."""
    if type(mapping) is not dict:
        raise ValueError(f"model bundle: {where} is not a JSON object")
    try:
        return mapping[key]
    except KeyError:
        raise ValueError(f"model bundle: {where} has no {key!r}") from None


def _is_size(value):
    return type(value) is int and value >= 1  # json's ints; bool is not one


def _bundle_size(mapping, key, where):
    """mapping[key] as a positive int (a table's child width); a ValueError
    naming `where` and the key if it is anything else."""
    value = _bundle_key(mapping, key, where)
    if not _is_size(value):
        raise ValueError(f"model bundle: {where} has {key} {value!r}, "
                         "not a positive integer")
    return value


def _bundle_sizes(mapping, key, where):
    """mapping[key] as a non-empty list of positive ints (parents, dims); a
    ValueError naming `where` and the key if it is anything else."""
    value = _bundle_key(mapping, key, where)
    if not (type(value) is list and value and all(map(_is_size, value))):
        raise ValueError(f"model bundle: {where} has {key} {value!r}, "
                         "not a list of positive integers")
    return value


def load_models(path):
    """Load a model bundle. Rows further than 1e-6 from normalization are
    rejected; rows within float error are kept bit-exact.

    The file is streamed (_read_bundle); only the envelope goes through json,
    and the rows arrays are read in the layout json.dump writes and no other.
    """
    with open(path, "rb") as fh:
        doc, arrays = _read_bundle(fh)
    if type(doc) is not dict:
        raise ValueError("model bundle is not a JSON object")
    if doc.get("version") != FILE_VERSION:
        raise ValueError(f"unsupported model file version {doc.get('version')!r}")
    try:
        spec = ModelSpec.from_dict(_bundle_key(doc, "spec", "the bundle"))
    except TypeError as exc:
        raise ValueError(f"model bundle spec: {exc}") from None
    tables = _bundle_key(doc, "tables", "the bundle")
    conditional = GenerativeModel.table_names + ReferenceModel.table_names
    rows = {}
    for name in conditional + tuple("rec_" + name for name in REC_FACTORS):
        entry = _bundle_key(tables, name, "the bundle's tables")
        width = (_bundle_size(entry, "child", f"table {name}") if name in conditional
                 else _bundle_sizes(entry, "dims", f"table {name}")[-1])
        rows[name] = _gather(arrays, _bundle_key(entry, "rows", f"table {name}"), width, name)
    del arrays  # free the blocks before the models check the tables

    def table(name):
        entry = tables[name]
        parents = _bundle_sizes(entry, "parents", f"table {name}")
        positive = _bundle_key(entry, "strictly_positive", f"table {name}")
        values, index = rows[name]
        try:
            return ConditionalTable(parents, entry["child"], values[index],
                                    strictly_positive=positive, _floor=False)
        except ValueError as exc:
            raise ValueError(f"table {name}: {exc}") from None

    gen, ref = (cls(spec, **{name: table(name) for name in cls.table_names})
                for cls in (GenerativeModel, ReferenceModel))
    # a row's check and rescaling read that row alone, so checking the
    # distinct rows checks every row the index points to
    rec_rows, rec_index = {}, {}
    for name in REC_FACTORS:
        values, index = rows["rec_" + name]
        try:
            rec_index[name] = index.reshape(tables["rec_" + name]["dims"][:-1])
            values = _normalized_rows(values)
        except ValueError as exc:
            raise ValueError(f"recognition table {name}: {exc}") from None
        values.setflags(write=False)
        rec_rows[name] = values
    return gen, object.__new__(RecognitionModel)._indexed(spec, rec_rows, rec_index), ref
