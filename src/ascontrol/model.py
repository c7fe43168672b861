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

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError
from .logspace import safe_log

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
        return {
            "card_o": self.card_o, "card_s1": self.card_s1, "card_s2": self.card_s2,
            "card_a": self.card_a, "card_a1": self.card_a1, "card_a2": self.card_a2,
            "tick_period_level2": self.tick_period_level2,
        }

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
        vals = (self.o, self.s1, self.s2, self.a, self.a1, self.a2)
        for v, dim, name in zip(vals, spec.dims, ("o", "s1", "s2", "a", "a1", "a2")):
            if not 0 <= v < dim:
                raise DimensionMismatchError(
                    f"state component {name}={v} out of range [0, {dim})")
        return self

    def flat(self, spec):
        return int(np.ravel_multi_index(
            (self.o, self.s1, self.s2, self.a, self.a1, self.a2), spec.dims))

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
        prev = self.x0
        for t, x in enumerate(self.steps, start=1):
            if 2 not in tick_levels(t, spec) and x.s2 != prev.s2:
                return False
            prev = x
        return True


def tick_levels(t, spec):
    """Which hierarchy levels transition at step t (level 1 always does)."""
    if t < 1:
        raise ValueError("time index starts at 1")
    levels = {1}
    if (t - 1) % spec.tick_period_level2 == 0:
        levels.add(2)
    return levels


def tick_at(t, spec):
    return (t - 1) % spec.tick_period_level2 == 0


# ---------------------------------------------------------------------------
# conditional tables


def _normalized_rows(probs):
    """probs, rows over the last axis, after the check every table passes: no
    negative entry and each row sum within 1e-6 of one (else ValueError); a
    row off by more than 1e-12 is divided by its sum, in a copy."""
    if np.any(probs < 0):
        raise ValueError("negative probability entry")
    sums = probs.sum(axis=-1)
    off = np.abs(sums - 1.0)
    if not np.all(off <= LOAD_REJECT_TOL):
        raise ValueError(f"row normalization off by {float(np.max(off)):.3e}")
    bad = off > TABLE_ROW_TOL
    if np.any(bad):
        probs = probs.copy()
        probs[bad] /= sums[bad][..., None]
    return probs


def _floor_rows(rows, child_dim, eps=POSITIVITY_FLOOR):
    # mixture with uniform: keeps rows normalized and every entry >= eps
    return (1.0 - child_dim * eps) * rows + eps


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
            probs = _floor_rows(probs, child_dim)
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
    """Softmax over the last axis tolerating -inf logits (zero probability)."""
    logits = np.atleast_2d(logits)
    m = np.max(logits, axis=-1, keepdims=True)
    if np.any(~np.isfinite(m)):
        raise ValueError("softmax row with no finite logit")
    with np.errstate(over="ignore"):
        e = np.exp(logits - m)
    return e / e.sum(axis=-1, keepdims=True)


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
    # the generative half of the per-tick pieces, tick -> {"prior", "marg"},
    # filled by chains.generative_pieces on first use, and the model-only
    # -log lik over latents ("neg_log_lik", filled by chains.edge_cost). The
    # tables are read-only, so it cannot go stale; dataclasses.replace
    # starts empty.
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
    # the model-only log tables of the edge cost, filled by
    # chains.reference_over_latents on first use; like GenerativeModel.pieces
    # it cannot go stale, and dataclasses.replace starts empty
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


class RecognitionModel:
    """Per-step belief over (s1, s2, a1, a2), factored in topological order.

    Each factor is a table of normalized rows over its last axis, indexed
    (x_prev, o, a, future, parents...). The future-summary axis has
    card_o + 1 entries: the last is the no-future (filtering) sentinel,
    the only slice the average-surprise objective reads; the others are
    smoothing slices. On non-tick steps the s2 factor is replaced by the
    deterministic level-2 hold.
    """

    __slots__ = ("spec", "tables", "kept")

    def __init__(self, spec, tables):
        """Takes over the float arrays of `tables` without a copy and makes
        them read-only, so pass arrays no one else holds (from_tables copies
        its input)."""
        self.spec = spec
        # the recognition half of the per-tick pieces while a caller hands it
        # on (chains.keep_recognition_half); None keeps nothing
        self.kept = None
        shapes = self.factor_shapes(spec)
        self.tables = {}
        for name in REC_FACTORS:
            arr = np.ascontiguousarray(tables[name], dtype=float)
            if arr.shape != shapes[name]:
                raise DimensionMismatchError(
                    f"recognition factor {name}: expected table {shapes[name]}, got {arr.shape}")
            arr.setflags(write=False)
            self.tables[name] = arr

    @property
    def n_future(self):
        return self.spec.card_o + 1

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
        shapes = cls.factor_shapes(spec)
        return cls.from_logits(spec, {name: rng.standard_normal(shapes[name])
                                      for name in REC_FACTORS})

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

    def _fut_index(self, future):
        return self.future_sentinel if future is None else int(future)

    def joint(self, context, tick=True):
        """Belief over latent tuples, shaped (card_s1, card_s2, card_a1, card_a2)."""
        sp = self.spec
        xp = context.x_prev.validate(sp).flat(sp)
        o, a, f = int(context.o), int(context.a), self._fut_index(context.future)
        if not 0 <= o < sp.card_o or not 0 <= a < sp.card_a or not 0 <= f < self.n_future:
            raise DimensionMismatchError("recognition context index out of range")
        if tick:
            q_s2 = self.tables["s2"][xp, o, a, f]
        else:
            q_s2 = np.zeros(sp.card_s2)
            q_s2[context.x_prev.s2] = 1.0
        q_a2 = self.tables["a2"][xp, o, a, f]          # (s2, a2)
        q_s1 = self.tables["s1"][xp, o, a, f]          # (s2, a2, s1)
        q_a1 = self.tables["a1"][xp, o, a, f]          # (s1, a2, a1)
        joint = np.einsum("X,XA,XAs,sAb->sXbA", q_s2, q_a2, q_s1, q_a1)
        return joint  # axes (s1, s2, a1, a2)


def recognition_logprob(rec, latents, context, tick=True):
    """Log-probability of a latent tuple (s1, s2, a1, a2) under the factored
    belief for the given context."""
    s1, s2, a1, a2 = latents
    sp = rec.spec
    for v, dim, name in zip((s1, s2, a1, a2),
                            (sp.card_s1, sp.card_s2, sp.card_a1, sp.card_a2),
                            ("s1", "s2", "a1", "a2")):
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
    prev = traj.x0
    for t, x in enumerate(traj.steps, start=1):
        lp = transition_logprob(gen, prev, x, t)
        if lp == float("-inf"):
            return float("-inf")
        total += lp
        prev = x
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
    steps = []
    x = x0
    for t in range(1, T + 1):
        x = sample_transition(gen, x, t, rng)
        steps.append(x)
    return Trajectory(x0, steps)


# ---------------------------------------------------------------------------
# serialization


# Rows are encoded in blocks of about this many values, which bounds the
# writer's working memory independently of the table size.
_BLOCK_VALUES = 1 << 16

# Stands in for each rows array in the envelope; json.dumps escapes the NULs,
# so its encoding cannot occur anywhere else in the document.
_ROWS_MARK = "\0rows\0"


def _json_rows(rows, block_values=_BLOCK_VALUES):
    """Yield pieces of text that join to json.dumps(rows.tolist()) for a 2-D
    float array.

    Every block of whole rows, whether or not its values repeat, is
    formatted through its distinct values (by bit pattern, so -0.0 and 0.0
    stay apart): one json float encoding per distinct value, then the row
    text is gathered from those strings.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    n, k = rows.shape
    step = max(1, block_values // k)
    yield "["
    for start in range(0, n, step):
        block = rows[start:start + step]
        if start:
            yield ", "
        uniq, inverse = np.unique(block.view(np.uint64).ravel(), return_inverse=True)
        texts = json.dumps(uniq.view(np.float64).tolist())[1:-1].split(", ")
        in_row = np.array([t + ", " for t in texts], dtype=object)
        row_end = np.array([t + "], [" for t in texts], dtype=object)
        cells = in_row[inverse].reshape(block.shape)
        cells[:, -1] = row_end[inverse.reshape(block.shape)[:, -1]]
        yield "[" + "".join(cells.ravel().tolist())[:-3]
    yield "]"


def save_models(path, gen, rec, ref):
    """Write the generative, recognition, and reference tables as one JSON
    document (version 1, named row-major arrays).

    The bytes equal json.dump of the whole document; the rows are streamed
    block by block instead of being converted to nested lists first.
    """
    tables, arrays = {}, []
    for model, names in ((gen, GenerativeModel.table_names),
                         (ref, ReferenceModel.table_names)):
        for name in names:
            table = getattr(model, name)
            tables[name] = {"parents": list(table.parent_dims), "child": table.child_dim,
                            "rows": _ROWS_MARK,
                            "strictly_positive": table.strictly_positive}
            arrays.append(table.probs)
    for name in REC_FACTORS:
        shape = rec.tables[name].shape
        tables["rec_" + name] = {"dims": list(shape), "rows": _ROWS_MARK}
        arrays.append(rec.tables[name].reshape(-1, shape[-1]))
    doc = {"version": FILE_VERSION, "spec": gen.spec.to_dict(), "tables": tables}
    envelope = json.dumps(doc).split(json.dumps(_ROWS_MARK))
    with open(path, "w") as fh:
        fh.write(envelope[0])
        for rows, text in zip(arrays, envelope[1:]):
            fh.writelines(_json_rows(rows))
            fh.write(text)


# Rows are parsed in blocks of whole rows of about this many bytes, which
# bounds the reader's per-block row lists independently of the table size.
_BLOCK_CHARS = 1 << 20

# The bytes a rows array may hold in json.dump's default layout: json's float
# spellings (NaN and Infinity included), brackets, and ", " separators.
_ROW_CHARS = b"0123456789.eE+-NaInfity[], "

_ROWS_KEY = b'"rows": '


def _layout_error(child_dim):
    return ValueError(f"bundle rows are not lists of {child_dim} numbers "
                      "laid out as json.dump writes them")


def _rows_block(block, child_dim):
    """Values of b"[v, v], [v, v]" (whole rows of child_dim values each) as a
    flat float array.

    The layout is checked on the bytes: only _ROW_CHARS, every comma followed
    by one space and no other space, child_dim values per row, "], [" between
    rows. Every token is converted by float(), the conversion json applies to
    its float tokens; _parse_rows hands over only a block's distinct rows.
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
        raise _layout_error(child_dim)
    tokens = block.translate(None, b"[],").split()
    if len(tokens) != n:
        raise ValueError("bundle rows hold an empty value")
    values = np.fromiter(map(float, tokens), float, n)
    # json reads "-0" as the integer 0, which becomes 0.0, not -0.0
    for i in np.flatnonzero((values == 0) & np.signbit(values)):
        if tokens[i].lstrip(b"-").isdigit():
            values[i] = 0.0
    return values


def _parse_rows(text, child_dim, start=0, stop=None, block_chars=_BLOCK_CHARS):
    """Read the rows array text[start:stop] (bytes, a list of rows as
    json.dump writes it) into an (n, child_dim) float array, bit-equal to
    np.array(json.loads(text[start:stop])).

    The array is cut at row boundaries into blocks of about block_chars
    bytes; any other layout raises ValueError. Each block is split into row
    texts, its distinct rows are checked and converted in one _rows_block
    call over their joined text, and the block keeps those values and the
    index of each of its rows into them until the array is gathered.
    """
    stop = len(text) if stop is None else stop
    if text[start:start + 1] != b"[" or text[stop - 1:stop] != b"]":
        raise ValueError("bundle rows are not a JSON list")
    blocks, pos, end = [], start + 1, stop - 1  # (distinct values, row indices)
    while pos < end:
        cut = text.find(b"], [", pos + block_chars, end)
        cut = end if cut < 0 else cut + 1
        if text[pos:pos + 1] != b"[" or text[cut - 1:cut] != b"]":
            raise _layout_error(child_dim)
        rows = text[pos + 1:cut - 1].split(b"], [")
        distinct = dict.fromkeys(rows)
        index_of = dict(zip(distinct, range(len(distinct))))
        values = _rows_block(b"[%b]" % b"], [".join(distinct), child_dim)
        blocks.append((values.reshape(-1, child_dim),
                       np.fromiter(map(index_of.__getitem__, rows), np.int32, len(rows))))
        pos = cut + 2
    out = np.empty((sum(len(index) for _, index in blocks), child_dim))
    row = 0
    for values, index in blocks:
        np.take(values, index, axis=0, out=out[row:row + len(index)])
        row += len(index)
    return out


def _split_bundle(text):
    """Parse the envelope of a bundle with json, each rows array cut out.

    Returns the document, in which the i-th rows array is replaced by the
    string "\\0<i>", and the (start, stop) span of each array in text.
    """
    pieces, spans, pos = [], [], 0
    while (key := text.find(_ROWS_KEY + b"[[", pos)) >= 0:
        start = key + len(_ROWS_KEY)
        stop = text.find(b"]]", start) + 2
        if stop < 2:
            raise ValueError("model bundle ends inside a rows array")
        pieces += [text[pos:start], b'"\\u0000%d"' % len(spans)]
        spans.append((start, stop))
        pos = stop
    pieces.append(text[pos:])
    # with no escape elsewhere, no other string can hold a NUL
    if any(b"\\" in piece for piece in pieces[::2]):
        raise ValueError("model bundle envelope holds an escaped string")
    return json.loads(b"".join(pieces)), spans


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

    Only the envelope goes through json; each rows array is read by
    _parse_rows, which takes the layout json.dump writes and no other.
    """
    with open(path, "rb") as fh:
        text = fh.read()
    doc, spans = _split_bundle(text)
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
        mark = _bundle_key(entry, "rows", f"table {name}")
        if not (isinstance(mark, str) and mark.startswith("\0")):
            raise ValueError(f"table {name}: rows are not laid out as json.dump "
                             "writes them")
        width = (_bundle_size(entry, "child", f"table {name}") if name in conditional
                 else _bundle_sizes(entry, "dims", f"table {name}")[-1])
        rows[name] = _parse_rows(text, width, *spans[int(mark[1:])])
    del text  # free the file's bytes before the models copy the tables

    def table(name):
        entry = tables[name]
        return ConditionalTable(
            _bundle_sizes(entry, "parents", f"table {name}"), entry["child"], rows[name],
            strictly_positive=_bundle_key(entry, "strictly_positive", f"table {name}"),
            _floor=False)

    gen = GenerativeModel(spec, **{name: table(name)
                                   for name in GenerativeModel.table_names})
    ref = ReferenceModel(spec, **{name: table(name)
                                  for name in ReferenceModel.table_names})
    rec_tables = {}
    for name in REC_FACTORS:
        try:
            rec_tables[name] = _normalized_rows(
                rows["rec_" + name].reshape(tables["rec_" + name]["dims"]))
        except ValueError as exc:
            raise ValueError(f"recognition table {name}: {exc}") from None
    rec = RecognitionModel(spec, rec_tables)
    return gen, rec, ref
