#!/usr/bin/env python3
"""Closed-loop benchmark of the `ascontrol` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one CLI command at a time, each in a fresh process, and
starts the next only after the previous one has exited. Every command is
timed from spawn to exit and its output is checked. The program receives
only inputs derived from --seed (`init --seed`, `simulate --seed`,
`pi-value --seed`, `validate --seed`).

Workloads (default thermostat spec: 3 temperatures, schedule 0,2, 864
complete states, 72 latent tuples):

  read      the read path and the solver on one bundle: `simulate --steps
            60`, `pi-value` (fresh seeds each round) and `solve --tol 1e-8`
            (relative value iteration, ~1,600 hard-min backups). Bundle JSON
            load dominates the first two, the backups the third.
  train     exact-gradient training of pol0 for 2 iterations, with one
            bundle read and one bundle write; a round runs it twice from
            the same bundle, and the two outputs must agree.
  validate  the invariant suite on small random instances: no bundle I/O,
            per-call overhead of tiny chain builds under finite differences.

Set-up is `ascontrol init` writing the bundle (read, train) or a
fresh-process `import ascontrol`, five times (validate). After set-up,
rounds of the workload's commands run until the next round would end after
--seconds; the first round always runs.

With --trace 0 the last stdout line carries the end-to-end metrics:
setup_s (median set-up), command_s (median over rounds of the round's mean
command wall time), peak_rss_mb (largest child peak RSS). With --trace 1
the set-up runs traced once and the round's distinct commands run once
untraced and twice traced (perfbench/tracer.py); the last line carries
per-layer self times and counts. Every count must repeat exactly across
the two traced passes, and every output must equal the untraced one (so a
repeated `simulate` seed must give the same trace digest).

The line before the result is a JSON run record (versions, commands, per
command times, checks). The bundle is always read from a warm page cache:
the benchmark has just written it, and dropping caches is not available.
Scratch files go to .perfbench/ at the checkout root.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import ENTRY_POINTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 3
TRAIN_ITERS = 2
SETUP_IMPORTS = 5
BLAS_THREADS = 1  # one per command: a closed loop with a single client
COMMAND_TIMEOUT_S = 170.0
REFERENCE = json.loads((HERE / "reference.json").read_text())


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# commands and their output checks


class Command:
    """One CLI invocation: `key` names it for the repeat and reference
    checks (same key, same output), `check(stdout)` returns the output
    fingerprint or raises CheckFailed."""

    def __init__(self, kind, args, key, check):
        self.kind, self.args, self.key, self.check = kind, args, key, check

    def argv(self):
        if self.kind == "import":
            return [sys.executable, "-c", "import ascontrol"]
        return [sys.executable, "-m", "ascontrol", self.kind] + self.args

    def line(self):
        if self.kind == "import":
            return "python3 -c 'import ascontrol'"
        args = [os.path.relpath(a, ROOT) if a.startswith(str(ROOT)) else a for a in self.args]
        return " ".join(["ascontrol", self.kind] + args)

    def traced_argv(self, spans_path):
        return [sys.executable, str(HERE / "tracer.py"), "cli", str(spans_path),
                "--", self.kind] + self.args


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _finite(*values):
    for v in values:
        if not (isinstance(v, float) and math.isfinite(v)):
            raise CheckFailed(f"non-finite or missing value {v!r}")


def init_cmd(seed, work):
    bundle = work / "model.json"

    def check(out):
        if not bundle.is_file() or bundle.stat().st_size == 0:
            raise CheckFailed("init wrote no bundle")
        return {"sha256": _sha256(bundle)}

    return Command("init", ["--seed", str(seed), "--out", str(bundle)], "init", check)


def import_cmd():
    return Command("import", [], "import", lambda out: {})


def simulate_cmd(sim_seed, work):
    trace = work / f"trace-{sim_seed}.csv"

    def check(out):
        rows = trace.read_text().splitlines()
        if len(rows) != 61:
            raise CheckFailed(f"trace has {len(rows)} lines, expected 61")
        return {"sha256": _sha256(trace)}

    return Command("simulate", ["--model", str(work / "model.json"), "--steps", "60",
                                "--seed", str(sim_seed), "--trace", str(trace)],
                   f"simulate:{sim_seed}", check)


def pi_value_cmd(pi_seed, work):
    def check(out):
        doc = json.loads(out.strip().splitlines()[-1])
        _finite(doc["estimate"], doc["stderr"], doc["rate"])
        if doc["rollouts"] != 10000 or not doc["stderr"] > 0.0:
            raise CheckFailed(f"bad pi-value output {doc}")
        return {"estimate": doc["estimate"], "rate": doc["rate"]}

    return Command("pi-value", ["--model", str(work / "model.json"), "--mode", "feedforward",
                                "--rollouts", "10000", "--horizon", "5",
                                "--seed", str(pi_seed)],
                   f"pi-value:{pi_seed}", check)


def solve_cmd(work):
    value_path = work / "value.json"

    def check(out):
        gain = float(out.split("gain ", 1)[1].split()[0])
        _finite(gain)
        sys.path.insert(0, str(SRC))
        from ascontrol.control import DifferentialValue

        value = DifferentialValue.load(value_path)
        if value.gain != gain or value.bias.shape != (value.period, 864):
            raise CheckFailed("value file does not match the printed gain")
        return {"gain": gain}

    return Command("solve", ["--model", str(work / "model.json"), "--tol", "1e-8",
                             "--out", str(value_path)], "solve", check)


def train_cmd(seed, work):
    report_path, out_path = work / "train-report.json", work / "trained.json"

    def check(out):
        rep = json.loads(report_path.read_text())
        objective = rep["objective_trace"]
        if rep["iterations"] != TRAIN_ITERS or len(objective) != TRAIN_ITERS:
            raise CheckFailed(f"trained {rep['iterations']} iterations")
        _finite(*objective, rep["final_rate"])
        # step halving keeps the exact objective from rising
        if any(b > a for a, b in zip(objective, objective[1:])):
            raise CheckFailed(f"objective rose: {objective}")
        if not out_path.is_file() or out_path.stat().st_size == 0:
            raise CheckFailed("train wrote no bundle")
        return {"first": objective[0], "last": objective[-1],
                "final_rate": rep["final_rate"]}

    return Command("train", ["--model", str(work / "model.json"), "--steps", "8",
                             "--iters", str(TRAIN_ITERS), "--lr", "0.5",
                             "--policies", "pol0", "--estimator", "exact",
                             "--seed", str(seed), "--out", str(out_path),
                             "--report", str(report_path)], "train", check)


def validate_cmd(seed, work):
    report_path = work / "validation.json"

    def check(out):
        rep = json.loads(report_path.read_text())
        if not rep["all_passed"] or len(rep["checks"]) < 9:
            raise CheckFailed(f"validation failed: {rep['checks']}")
        return {"all_passed": True}

    return Command("validate", ["--seed", str(seed), "--instances", "4",
                                "--report", str(report_path)], "validate", check)


def _setup(workload, seed, work):
    if workload == "validate":
        return [import_cmd() for _ in range(SETUP_IMPORTS)]
    return [init_cmd(seed, work)]


def _round(workload, seed, k, work):
    if workload == "read":
        s = 100 * seed + k
        return [simulate_cmd(s, work), pi_value_cmd(s, work), solve_cmd(work)]
    if workload == "train":
        return [train_cmd(seed, work), train_cmd(seed, work)]
    return [validate_cmd(seed, work)]


def _distinct(commands):
    """The round's commands without repeats of a key (what a traced pass
    runs)."""
    seen = set()
    return [c for c in commands if not (c.key in seen or seen.add(c.key))]


# ---------------------------------------------------------------------------
# process spawning


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("ASC_ENUM_BUDGET", None)
    return env


def spawn(argv, work, env):
    """Run argv to completion; returns (rc, wall_s, peak_rss_mb, stdout,
    stderr tail, cpu_s). The wall time runs from spawn to exit."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        reaped = threading.Event()

        def kill():
            if not reaped.is_set():
                os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped.set()
        except BaseException:
            # interrupted (SIGTERM, Ctrl-C): the child must not outlive us
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    rc = os.waitstatus_to_exitcode(status)
    proc.returncode = rc
    stderr_tail = err_path.read_text(errors="replace")[-2000:]
    return (rc, wall, usage.ru_maxrss / 1024.0, out_path.read_text(), stderr_tail,
            usage.ru_utime + usage.ru_stime)


class Session:
    """Runs commands, applies their checks and keeps the accounting."""

    def __init__(self, seed, work):
        self.seed, self.work, self.env = seed, work, child_env()
        self.log = []            # one entry per command run
        self.fingerprints = {}   # key -> first fingerprint seen
        self.reference = REFERENCE["fingerprints"] if seed == REFERENCE["seed"] else {}

    def run(self, cmd, traced_spans=None):
        argv = cmd.argv() if traced_spans is None else cmd.traced_argv(traced_spans)
        rc, wall, rss, out, err, cpu = spawn(argv, self.work, self.env)
        self._flush()
        entry = {"kind": cmd.kind, "key": cmd.key, "traced": traced_spans is not None,
                 "command": cmd.line(), "rc": rc, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
                 "error": None}
        try:
            if rc != 0:
                raise CheckFailed(f"exit code {rc}: {err.strip()[-500:]}")
            fp = cmd.check(out)
            self._compare(cmd.key, fp)
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
            print(f"FAILED {cmd.kind} {cmd.key}: {entry['error']}", file=sys.stderr)
        self.log.append(entry)
        return entry

    def _flush(self):
        """Write back what the command wrote (the 107 MB bundles) before the
        next command starts, so that write-back does not run inside its
        timing. The pages stay cached."""
        for path in self.work.iterdir():
            if path.is_file():
                fd = os.open(path, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)

    def _compare(self, key, fp):
        first = self.fingerprints.setdefault(key, fp)
        if fp != first:
            raise CheckFailed(f"{key}: output {fp} differs from earlier run {first}")
        ref = self.reference.get(key)
        if ref is None:
            return
        for name, want in ref.items():
            got = fp.get(name)
            if isinstance(want, float):
                ok = isinstance(got, float) and abs(got - want) <= 1e-9 * max(1.0, abs(want))
            else:
                ok = got == want
            if not ok:
                raise CheckFailed(f"{key}.{name} = {got!r}, reference {want!r}")

    @property
    def failed(self):
        return sum(1 for e in self.log if e["error"])


# ---------------------------------------------------------------------------
# the two modes


def run_untraced(session, workload, seconds):
    setup = [session.run(c) for c in _setup(workload, session.seed, session.work)]
    rounds, k = [], 0
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        rounds.append([session.run(c) for c in _round(workload, session.seed, k, session.work)])
        k += 1
        now = time.perf_counter()
        if now - t_start + (now - t_round) > seconds:
            break
    return {
        "setup_s": {"value": statistics.median(e["wall_s"] for e in setup), "unit": "s"},
        "command_s": {"value": statistics.median(statistics.fmean(e["wall_s"] for e in r)
                                                 for r in rounds), "unit": "s"},
        "peak_rss_mb": {"value": max(e["peak_rss_mb"] for e in session.log), "unit": "MB"},
    }


# (metric, span names whose self time it sums)
SELF_TIME_METRICS = {
    "cli.self_s": ("cli.main",),
    "model.load_s": ("model.load_models",),
    "model.save_s": ("model.save_models",),
    "chains.build_s": tuple("chains." + name for name in ENTRY_POINTS["chains"]),
    "control.backup_s": ("control.backup",),
    "control.adjoint_s": ("control.dfe_value_and_grad",),
    "control.dfe_s": ("control.differential_free_energy",),
    "control.apply_params_s": ("control.apply_params",),
    "control.fd_s": ("control.fd_gradients",),
    "control.rollout_s": ("control.mc_path_integral_value", "control._rollout_path_costs"),
    "oracle.rate_s": ("oracle.exact_average_rate", "oracle.stationary_rate"),
    "oracle.enum_s": ("oracle.enumerate_trajectories", "oracle.exact_marginal_likelihood",
                      "oracle.exact_posterior", "oracle.exact_step_posterior",
                      "oracle.exact_soft_value", "oracle.exact_path_integral_value"),
    "kernels.path_logsumexp_s": ("kernels.path_logsumexp",),
    "sim.episode_s": ("sim.run_episode",),
}
COUNT_METRICS = ("model.load_calls", "model.bundle_bytes", "chains.build_calls",
                 "chains.bytes_out", "control.backups", "control.adjoint_calls",
                 "control.halving_evals", "control.fd_evals", "oracle.rate_calls",
                 "kernels.paths", "sim.steps")
COUNT_UNITS = {"model.bundle_bytes": "B", "chains.bytes_out": "B", "kernels.paths": "paths",
               "sim.steps": "steps"}
LAYERS = ("cli",) + tuple(ENTRY_POINTS)


def analyse_spans(doc):
    """Self times per span name and per layer, counts, and the call's wall
    time split as import + layer self times (which sum to cli.main)."""
    spans = doc["spans"]
    self_t = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            self_t[s[1]] -= s[3] - s[2]
    by_name, by_layer = {}, dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, self_t):
        by_name[s[0]] = by_name.get(s[0], 0.0) + t
        by_layer[s[0].split(".")[0]] += t

    def nearest(i, names):
        p = spans[i][1]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][1]
        return spans[p][0] if p >= 0 else None

    count = dict.fromkeys(COUNT_METRICS, 0)
    train_s, train_iters = 0.0, 0
    for i, (name, parent, t0, t1, extra) in enumerate(spans):
        if name == "model.load_models":
            count["model.load_calls"] += 1
        elif name == "model.save_models":
            count["model.bundle_bytes"] += extra["bytes"]
        elif name.startswith("chains.") and (parent < 0 or not spans[parent][0].startswith("chains.")):
            count["chains.build_calls"] += 1
            count["chains.bytes_out"] += extra["nbytes"]
        elif name == "control.backup":
            count["control.backups"] += 1
        elif name == "control.dfe_value_and_grad":
            count["control.adjoint_calls"] += 1
        elif name == "control.differential_free_energy":
            caller = nearest(i, ("control.train", "control.fd_gradients"))
            if caller == "control.train":
                count["control.halving_evals"] += 1
            elif caller == "control.fd_gradients":
                count["control.fd_evals"] += 1
        elif name == "oracle.exact_average_rate":
            count["oracle.rate_calls"] += 1
        elif name == "kernels.path_logsumexp":
            count["kernels.paths"] += extra["paths"]
        elif name == "sim.run_episode":
            count["sim.steps"] += extra["steps"]
        elif name == "control.train":
            train_s += t1 - t0
            train_iters += extra["iterations"]
    times = {metric: sum(by_name.get(n, 0.0) for n in names)
             for metric, names in SELF_TIME_METRICS.items()}
    return {"times": times, "counts": count, "layers": by_layer,
            "train_s": train_s, "train_iters": train_iters,
            "import_s": doc["import_s"], "main_s": sum(self_t)}


def run_traced(session, workload):
    work = session.work
    setup = [_traced(session, cmd, "setup") for cmd in _setup(workload, session.seed, work)
             if cmd.kind != "import"]
    untraced = [session.run(c) for c in _distinct(_round(workload, session.seed, 0, work))]
    passes = [[_traced(session, cmd, f"round{i}-{j}")
               for j, cmd in enumerate(_distinct(_round(workload, session.seed, 0, work)))]
              for i in range(2)]
    kernel_path = work / "kernel.json"
    rc, _, _, _, err, _ = spawn([sys.executable, str(HERE / "tracer.py"), "kernel",
                              str(kernel_path)], work, session.env)
    kernel = json.loads(kernel_path.read_text()) if kernel_path.is_file() else None
    kernel_entry = {"kind": "kernel", "key": "kernel", "traced": True, "rc": rc,
                    "command": "perfbench/tracer.py kernel",
                    "wall_s": None, "peak_rss_mb": 0.0, "error": None}
    if rc != 0 or kernel is None:
        kernel_entry["error"] = f"kernel mass identity or run failed (rc {rc}): {err[-300:]}"
    session.log.append(kernel_entry)

    setup_sum = _sum_traced(setup)
    round_sums = [_sum_traced(p) for p in passes]
    counts_repeat = round_sums[0]["counts"] == round_sums[1]["counts"]
    if not counts_repeat:
        print(f"FAILED count self-check: {round_sums[0]['counts']} != "
              f"{round_sums[1]['counts']}", file=sys.stderr)
    overhead = sum(statistics.fmean(passes[i][j][0]["wall_s"] for i in range(2))
                   - untraced[j]["wall_s"] for j in range(len(untraced)))

    def total(get):
        """Set-up plus the mean of the round's two traced passes."""
        return get(setup_sum) + statistics.fmean(get(r) for r in round_sums)

    metrics = {m: {"value": total(lambda t: t["times"][m]), "unit": "s"}
               for m in SELF_TIME_METRICS}
    imports = [a["import_s"] for _, a in setup + passes[0] + passes[1] if a]
    metrics["cli.import_s"] = {"value": statistics.fmean(imports), "unit": "s"}
    iters = sum(r["train_iters"] for r in round_sums)
    metrics["control.train_iter_s"] = {
        "value": sum(r["train_s"] for r in round_sums) / iters if iters else 0.0, "unit": "s"}
    for m in COUNT_METRICS:
        metrics[m] = {"value": setup_sum["counts"][m] + round_sums[0]["counts"][m],
                      "unit": COUNT_UNITS.get(m, "count")}
    metrics["kernels.paths_per_s"] = {
        "value": kernel["paths"] / kernel["median_s"] if kernel else 0.0, "unit": "paths/s"}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.remainder_s"] = {"value": total(lambda t: t["remainder_s"]), "unit": "s"}
    breakdown = [dict(b, stage=stage) for stage, entries in
                 (("setup", setup), ("pass0", passes[0]), ("pass1", passes[1]))
                 for b in _breakdown(entries)]
    extra = {"breakdown": breakdown, "kernel": kernel, "counts_repeat": counts_repeat,
             "round_counts_by_pass": [r["counts"] for r in round_sums]}
    return metrics, counts_repeat, extra


def _breakdown(entries):
    """Each traced command's wall time split as import + layer self times +
    span write + remainder (interpreter start and exit)."""
    return [{"key": entry["key"], "wall_s": entry["wall_s"], "import_s": a["import_s"],
             "layers_self_s": a["layers"], "span_write_s": a["write_s"],
             "remainder_s": entry["wall_s"] - a["import_s"] - a["main_s"] - a["write_s"]}
            for entry, a in entries if a]


def _sum_traced(entries):
    t = {"times": dict.fromkeys(SELF_TIME_METRICS, 0.0),
         "counts": dict.fromkeys(COUNT_METRICS, 0),
         "train_s": 0.0, "train_iters": 0,
         "remainder_s": sum(b["remainder_s"] for b in _breakdown(entries))}
    for _, a in entries:
        if a is None:
            continue
        for m in SELF_TIME_METRICS:
            t["times"][m] += a["times"][m]
        for m in COUNT_METRICS:
            t["counts"][m] += a["counts"][m]
        t["train_s"] += a["train_s"]
        t["train_iters"] += a["train_iters"]
    return t


def _traced(session, cmd, tag):
    spans_path = session.work / f"spans-{tag}.json"
    entry = session.run(cmd, traced_spans=spans_path)
    analysis = None
    if spans_path.is_file():
        doc = json.loads(spans_path.read_text())
        analysis = analyse_spans(doc)
        analysis["write_s"] = float(Path(str(spans_path) + ".write_s").read_text())
        shutil.copyfile(spans_path, session.work.parent / f"spans-{entry['key']}-{tag}.json")
    else:
        entry["error"] = entry["error"] or "tracer wrote no spans"
    return entry, analysis


# ---------------------------------------------------------------------------
# run record


def run_record(session, workload, seconds, trace, nproc):
    sys.path.insert(0, str(SRC))
    import numpy as np

    import ascontrol

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    by_kind = {}
    for e in session.log:
        if not e["traced"] and e["kind"] not in ("init", "import"):
            by_kind.setdefault(e["kind"], []).append(e["wall_s"])
    attempted = len(session.log)
    return {
        "workload": workload, "seed": session.seed, "seconds": seconds, "trace": trace,
        "commit": commit, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": BLAS_THREADS, "nproc": nproc,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "backend": ascontrol.backend_name(),
        "page_cache": "warm: the bundle is read right after the benchmark wrote it",
        "per_command_median_s": {k.replace("-", "_") + "_s": statistics.median(v)
                                 for k, v in by_kind.items()},
        "failed_frac": session.failed / attempted if attempted else 0.0,
        "fingerprints": session.fingerprints,
        "commands": session.log,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("read", "train", "validate"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    # every command runs on the same CPU (children inherit the affinity):
    # the CPUs of a shared host can differ in speed by ~10% at a time
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "ascontrol" / "cli.py").is_file():
        print(f"perfbench: no ascontrol sources under {SRC}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        session = Session(args.seed, work)
        if args.trace:
            metrics, counts_ok, extra = run_traced(session, args.workload)
        else:
            metrics, counts_ok, extra = run_untraced(session, args.workload, args.seconds), True, {}
        record = run_record(session, args.workload, args.seconds, args.trace, nproc)
        record.update(extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record_path = out_dir / f"record-{args.workload}-{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))
    summary = {k: record[k] for k in ("workload", "seed", "commit", "python", "numpy",
                                      "blas", "blas_threads", "nproc", "pinned_cpu", "backend",
                                      "page_cache", "per_command_median_s", "failed_frac")}
    summary["commands"] = [("traced: " if e["traced"] else "") + e["command"]
                           for e in session.log]
    if args.trace:
        # wall = import + layer self times + span write + remainder
        summary["breakdown"] = [b for b in record["breakdown"] if b["stage"] != "pass1"]
    summary["record"] = str(record_path.relative_to(ROOT))
    print(json.dumps({"run_record": summary}))
    failed = session.failed
    result = {"correct": failed == 0 and counts_ok, "attempted": len(session.log),
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
