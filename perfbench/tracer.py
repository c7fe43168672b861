"""Traced child process of the benchmark.

    python3 perfbench/tracer.py cli SPANS.json -- <ascontrol arguments>
    python3 perfbench/tracer.py kernel OUT.json

`cli` imports `ascontrol.cli` (timing the import), wraps the public entry
points of each layer with span recorders, calls `ascontrol.cli.main(argv)`
in this process, restores the originals, writes every span to SPANS.json
and the seconds that write took to SPANS.json.write_s. Nothing under
`src/` is edited: the wrappers are installed by attribute assignment,
including the bindings that `cli` and `oracle` took by name
(`load_models`, `save_models`, `path_logsumexp`).

`kernel` times the numpy path-reduction kernel on a fixed T=4 reduction
and checks it against the total-mass identity.

Spans are kept in memory as [name, parent index, start, end, extra] with
`time.perf_counter` stamps; parent -1 means the span has no traced parent.
"""

import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# (layer, module attribute path) of every traced entry point. A dotted
# attribute (Class.method) is wrapped on the class.
ENTRY_POINTS = {
    "model": ("load_models", "save_models"),
    "chains": ("latent_prior", "latent_prior_row", "lik_over_latents",
               "pol0_over_latents", "obs_action_marginal", "belief_table",
               "reference_over_latents", "edge_cost", "transition_matrix",
               "transition_row", "qchain_matrix", "state_cost",
               "posterior_recognition_tables", "expected_edge_cost",
               "expand_edges", "step_matrices"),
    "control": ("relative_value_iteration", "_BellmanOps.backup",
                "greedy_stationary_rate", "greedy_rollout_rate",
                "optimal_transition", "kl_qstar_identity",
                "mc_path_integral_value", "_rollout_path_costs",
                "differential_free_energy", "extract_params", "apply_params",
                "dfe_value_and_grad", "score_function_grad", "fd_gradients",
                "train", "DifferentialValue.save"),
    "oracle": ("enumerate_trajectories", "exact_marginal_likelihood",
               "exact_posterior", "exact_step_posterior", "exact_average_rate",
               "stationary_rate", "exact_soft_value",
               "exact_path_integral_value"),
    "sim": ("thermostat_env", "thermostat_agent", "run_episode", "evaluate",
            "Trace.to_csv"),
    "kernels": ("path_logsumexp",),
}


def _nbytes(obj):
    """Bytes of the arrays a builder returned (arrays inside tuples, dicts
    and dataclasses included)."""
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    if isinstance(obj, dict):
        return sum(_nbytes(o) for o in obj.values())
    if hasattr(obj, "__dataclass_fields__"):
        return sum(_nbytes(getattr(obj, f)) for f in obj.__dataclass_fields__)
    return 0


def _finite_paths(first_row, mats):
    """Exact number of state paths with finite log-weight."""
    import numpy as np

    count = np.isfinite(np.asarray(first_row, dtype=float)).astype(np.int64)
    for m in mats:
        count = count @ np.isfinite(np.asarray(m, dtype=float)).astype(np.int64)
    return int(count.sum())


class Tracer:
    """Span recorder plus the patch table needed to undo the wrapping."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.patched = []

    def wrap(self, name, fn, before=None, after=None):
        """`before(args, kwargs)` and `after(result, args, kwargs)` return the
        span's extra data; they run outside the span's own interval."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            extra = before(args, kwargs) if before else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = [name, parent, t0, t1, extra]
            if after:
                spans[sid][4] = after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def patch(self, owner, attr, wrapper):
        self.patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        import ascontrol._kernels as kernels
        from ascontrol import chains, cli, control, model, oracle, sim

        modules = {"model": model, "chains": chains, "control": control,
                   "oracle": oracle, "sim": sim, "kernels": kernels}
        hooks = {
            "model.save_models": (None, lambda r, a, k: {"bytes": os.path.getsize(a[0])}),
            "control.train": (None, lambda r, a, k: {"iterations": r[0].iterations}),
            "sim.run_episode": (None, lambda r, a, k: {"steps": len(r.rows)}),
            "kernels.path_logsumexp": (lambda a, k: {"paths": _finite_paths(a[0], a[1])}, None),
        }
        chains_after = (None, lambda r, a, k: {"nbytes": _nbytes(r)})
        wrappers = {}
        for layer, attrs in ENTRY_POINTS.items():
            for attr in attrs:
                owner = modules[layer]
                *cls, fname = attr.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                name = f"{layer}.{fname}"
                before, after = hooks.get(name, chains_after if layer == "chains" else (None, None))
                wrapper = self.wrap(name, getattr(owner, fname), before, after)
                self.patch(owner, fname, wrapper)
                wrappers[name] = wrapper
        # bindings taken by name at import time
        self.patch(cli, "load_models", wrappers["model.load_models"])
        self.patch(cli, "save_models", wrappers["model.save_models"])
        self.patch(oracle, "path_logsumexp", wrappers["kernels.path_logsumexp"])
        self.patch(cli, "main", self.wrap("cli.main", cli.main))
        return cli

    def restore(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()


def run_cli(out_path, argv):
    t0 = time.perf_counter()
    import ascontrol.cli  # noqa: F401  (the import is what is timed)
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    cli = tracer.install()
    rc = 1
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
        rc = exc.code if isinstance(exc.code, int) or exc.code is None else 1
    finally:
        tracer.restore()
        t0 = time.perf_counter()
        with open(out_path, "w") as fh:
            fh.write(json.dumps({"import_s": import_s, "spans": tracer.spans},
                                separators=(",", ":")))
        with open(out_path + ".write_s", "w") as fh:
            fh.write(repr(time.perf_counter() - t0))
    return rc or 0


def run_kernel(out_path, reps=5):
    """Fallback kernel throughput at T=4 (4.2e6 paths) on the 64-state
    random instance of benchmarks/bench_kernels.py. Every repetition must
    satisfy |exp(v) - 1| <= 1e-9, since the transition rows sum to one."""
    import numpy as np

    from ascontrol import chains
    from ascontrol._kernels import _py
    from ascontrol.instances import random_instance
    from ascontrol.logspace import safe_log
    from ascontrol.model import CompleteState

    gen, _, _ = random_instance(0)
    x0 = CompleteState(0, 0, 0, 0, 0, 0)
    logmats = chains.step_matrices(
        lambda tick: safe_log(chains.transition_matrix(gen, tick)), gen.spec, 4)
    first, rest = logmats[0][x0.flat(gen.spec)], logmats[1:]
    paths = _finite_paths(first, rest)
    times, worst = [], 0.0
    for _ in range(reps):
        t0 = time.perf_counter()
        v = _py.path_logsumexp(first, rest)
        times.append(time.perf_counter() - t0)
        worst = max(worst, abs(float(np.expm1(v))))
    times.sort()
    with open(out_path, "w") as fh:
        json.dump({"paths": paths, "seconds": times, "median_s": times[reps // 2],
                   "mass_err": worst}, fh)
    return 0 if worst <= 1e-9 else 1


def main(argv):
    sys.path.insert(0, SRC)
    mode, out_path, *rest = argv
    if mode == "cli":
        if rest[:1] != ["--"]:
            raise SystemExit("usage: tracer.py cli SPANS.json -- ARGS...")
        return run_cli(out_path, rest[1:])
    if mode == "kernel":
        return run_kernel(out_path)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
