"""Environments, the agent-environment episode loop, and trace logging.

The environment owns ground-truth emission and latent dynamics; the agent
never reads environment latents, only the emitted observation. Acting at
step t corrects the previous step's latents from its filtering belief, and
each step's objective is scored under its own filtering belief.
"""

import csv
from dataclasses import dataclass, replace

import numpy as np

from . import chains, objectives, oracle
from .errors import DimensionMismatchError, NonFiniteObjectiveError
from .logspace import safe_log
from .model import (CompleteState, ConditionalTable, GenerativeModel,
                    ModelSpec, RecognitionContext, RecognitionModel,
                    ReferenceModel, check_layout, sample_categorical,
                    table_layout, tick_at)

TRACE_COLUMNS = ("t", "o", "s1", "s2", "a", "a1", "a2",
                 "J", "L", "KL", "total", "running_rate", "advantage")


@dataclass(frozen=True)
class Environment:
    """Ground-truth world: emission and latent dynamics laid out like the
    agent's generative tables."""

    spec: ModelSpec
    lik: ConditionalTable
    dyn1: ConditionalTable
    dyn2: ConditionalTable

    table_names = ("lik", "dyn1", "dyn2")

    def __post_init__(self):
        check_layout(self)


@dataclass(frozen=True)
class TraceRow:
    t: int
    state: CompleteState
    j: float
    l: float
    kl: float
    total: float
    running_rate: float
    advantage: float


@dataclass(frozen=True)
class Trace:
    rows: tuple

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(TRACE_COLUMNS)
            for r in self.rows:
                s = r.state
                writer.writerow([r.t, s.o, s.s1, s.s2, s.a, s.a1, s.a2,
                                 repr(r.j), repr(r.l), repr(r.kl), repr(r.total),
                                 repr(r.running_rate), repr(r.advantage)])


# ---------------------------------------------------------------------------
# thermostat task


# decay rate (per temperature level) of the reference densities around their
# target level
_REF_SHARPNESS = 2.0


def _temp_ref_rows(n_levels, n_phase, targets):
    rows = np.empty((len(targets), n_levels * n_phase))
    for i, target in enumerate(targets):
        w = np.exp(-_REF_SHARPNESS * np.abs(np.arange(n_levels) - target))
        rows[i] = np.repeat(w / w.sum(), n_phase) / n_phase
    return rows


def thermostat_env(n_temp_levels, setpoint_schedule, heat_success=0.85,
                   phase_advance=0.1):
    """A temperature chain with a phase-indexed setpoint schedule.

    Observations and fast latents both encode (temperature, phase); the
    slow latent is the phase, advancing with probability `phase_advance`
    per tick (final phase absorbing). Action 1 heats one level with
    probability `heat_success`, action 0 cools likewise. The reference
    concentrates observations on the level indexed by a1 and fast latents
    on the scheduled level for a2, so the schedule encodes a reference
    trajectory.
    """
    schedule = [int(s) for s in setpoint_schedule]
    if n_temp_levels < 2:
        raise ValueError("need at least two temperature levels")
    if not schedule:
        raise ValueError("empty setpoint schedule")
    for name, prob in (("heat_success", heat_success), ("phase_advance", phase_advance)):
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"{name} must be a probability in [0, 1], got {prob!r}")
    for s in schedule:
        if not 0 <= s < n_temp_levels:
            raise ValueError(f"schedule entry {s} is not a valid a1 index")
    n_ph = len(schedule)
    spec = ModelSpec(card_o=n_temp_levels * n_ph, card_s1=n_temp_levels * n_ph,
                     card_s2=n_ph, card_a=2, card_a1=n_temp_levels, card_a2=n_ph)
    chains.Lattice.of(spec)  # the state ceiling, before the dense tables
    layout = table_layout(spec)
    dense = {name: parents + (child,) for name, (parents, child) in layout.items()}

    dyn2 = np.zeros(dense["dyn2"])
    for ph in range(n_ph):
        for a in range(2):
            if ph == n_ph - 1:
                dyn2[ph, a, ph] = 1.0
            else:
                dyn2[ph, a, ph] = 1.0 - phase_advance
                dyn2[ph, a, ph + 1] = phase_advance

    dyn1 = np.zeros(dense["dyn1"])
    for s1 in range(spec.card_s1):
        temp = s1 // n_ph
        for ph2 in range(n_ph):
            for a in range(2):
                moved = min(temp + 1, n_temp_levels - 1) if a == 1 else max(temp - 1, 0)
                dyn1[s1, ph2, a, moved * n_ph + ph2] += heat_success
                dyn1[s1, ph2, a, temp * n_ph + ph2] += 1.0 - heat_success

    lik = np.zeros(dense["lik"])
    for a1 in range(n_temp_levels):
        lik[a1, np.arange(spec.card_s1), np.arange(spec.card_s1)] = 1.0

    rows = {"lik": lik, "dyn1": dyn1, "dyn2": dyn2,
            "ref_o": _temp_ref_rows(n_temp_levels, n_ph, range(n_temp_levels)),
            "ref_s1": _temp_ref_rows(n_temp_levels, n_ph, schedule)}
    tables = {name: ConditionalTable(*layout[name], arr) for name, arr in rows.items()}
    env = Environment(spec, tables["lik"], tables["dyn1"], tables["dyn2"])
    ref = ReferenceModel(spec, tables["ref_o"], tables["ref_s1"])
    return env, ref


def thermostat_agent(env, setpoint_schedule, seed):
    """Agent for the thermostat task: the environment's own tables as the
    generative model, reference-setting policies pinned to the schedule
    (a2 = phase, a1 = schedule[a2]), a free seeded low-level policy, and
    recognition tables initialized at the exact one-step filtering
    posterior. Train with trainable_policies=("pol0",)."""
    spec = env.spec
    layout = table_layout(spec)
    schedule = [int(s) for s in setpoint_schedule]
    rng = np.random.default_rng(seed)
    parents, child = layout["pol0"]
    pol0 = ConditionalTable.from_logits(parents, child,
                                        rng.standard_normal(parents + (child,)))
    pol1 = ConditionalTable.one_hot(*layout["pol1"], lambda s1, a2: schedule[a2],
                                    strictly_positive=True)
    pol2 = ConditionalTable.one_hot(*layout["pol2"], lambda s2: s2,
                                    strictly_positive=True)
    gen = GenerativeModel(spec, lik=env.lik, dyn1=env.dyn1, dyn2=env.dyn2,
                          pol0=pol0, pol1=pol1, pol2=pol2)
    rec = RecognitionModel(spec, chains.posterior_recognition_tables(gen))
    return gen, rec


def with_uniform_pol0(gen):
    """Same agent with a uniform low-level policy (random-action baseline)."""
    return replace(
        gen, pol0=ConditionalTable.uniform(*table_layout(gen.spec)["pol0"]))


# ---------------------------------------------------------------------------
# episode loop


def run_episode(gen, rec, ref, env, T, seed, x0=None):
    """One logged episode. Deterministic given (models, env, T, seed, x0)."""
    oracle.check_horizon(T)
    spec = gen.spec
    if env.spec != spec:
        raise DimensionMismatchError("agent and environment specs differ")
    if x0 is None:
        x0 = CompleteState(0, 0, 0, 0, 0, 0)
    x0.validate(spec)
    rng = np.random.default_rng(seed)
    believed = [x0]
    env_s1, env_s2 = x0.s1, x0.s2
    contexts = []  # the RecognitionContext of each step
    for t in range(1, T + 1):
        tick = tick_at(t, spec)
        xprev = believed[t - 1]
        if t >= 2:
            # filtering correction of the previous step's latent state from
            # the belief's (s1, s2) marginal; the executed a1/a2 stay as
            # facts but are not treated as evidence (they came from the
            # agent's own earlier belief, so conditioning on them would
            # only echo it)
            ctx = RecognitionContext(o=xprev.o, a=xprev.a, x_prev=believed[t - 2])
            joint = rec.joint(ctx, tick=tick_at(t - 1, spec))
            marg = joint.sum(axis=(2, 3))
            z = marg.sum()
            if z > 0.0:
                flat = sample_categorical(marg.reshape(-1) / z, rng)
                s1b, s2b = np.unravel_index(flat, (spec.card_s1, spec.card_s2))
                xprev = CompleteState(xprev.o, int(s1b), int(s2b), xprev.a,
                                      xprev.a1, xprev.a2)
                believed[t - 1] = xprev
        # hierarchically propagate beliefs and pick reference actions
        s2_b = gen.dyn2.sample((xprev.s2, xprev.a), rng) if tick else xprev.s2
        a2_t = gen.pol2.sample((s2_b,), rng)
        s1_b = gen.dyn1.sample((xprev.s1, s2_b, xprev.a), rng)
        a1_t = gen.pol1.sample((s1_b, a2_t), rng)
        # environment transitions on the executed action and emits
        env_s2 = env.dyn2.sample((env_s2, xprev.a), rng) if tick else env_s2
        env_s1 = env.dyn1.sample((env_s1, env_s2, xprev.a), rng)
        o_t = env.lik.sample((a1_t, env_s1), rng)
        a_t = gen.pol0.sample((o_t, a1_t), rng)
        believed.append(CompleteState(o_t, s1_b, s2_b, a_t, a1_t, a2_t))
        contexts.append(RecognitionContext(o=o_t, a=a_t, x_prev=believed[t - 1]))
    # each step is scored under its filtering belief; a row logs the step's
    # believed state after the next step's correction
    rows = []
    running_sum = 0.0
    for t, ctx in enumerate(contexts, start=1):
        step = objectives.step_objective(gen, rec, ref, ctx, tick=tick_at(t, spec))
        if not np.isfinite(step.total):
            raise NonFiniteObjectiveError(
                f"non-finite step objective at t={t}; enable the positivity "
                f"floor on the model tables", iteration=t)
        running_sum += step.total
        running_rate = running_sum / t
        rows.append(TraceRow(t=t, state=believed[t], j=step.j, l=step.l,
                             kl=step.kl, total=step.total,
                             running_rate=running_rate,
                             advantage=step.total - running_rate))
    return Trace(rows=tuple(rows))


def observed_reference_surprisal(trace, ref):
    """Mean realized -log R(o_t | a1_t) along a trace: how well the emitted
    observations track the agent's own reference settings."""
    vals = [-float(safe_log(ref.ref_o.prob((r.state.a1,), r.state.o)))
            for r in trace.rows]
    return float(np.mean(vals))


@dataclass(frozen=True)
class EvalSummary:
    obs_ref: np.ndarray


def evaluate(gen, rec, ref, env, seeds, T, x0=None):
    """One episode per seed: per-episode realized observation-reference
    surprisals."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("evaluate needs at least one seed")
    obs_ref = [observed_reference_surprisal(run_episode(gen, rec, ref, env, T, s, x0=x0), ref)
               for s in seeds]
    return EvalSummary(obs_ref=np.array(obs_ref))
