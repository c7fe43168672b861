"""Command-line interface.

Subcommands: init (write a thermostat model bundle), validate (invariant
suite with a JSON report), solve (relative value iteration), simulate
(episode trace CSV), train, and pi-value (Monte Carlo path-integral
estimate). Every command checks its settings, and that each output path
names a file in a directory that exists, before it reads a model bundle,
so a bad setting is a one-line error however large the bundle.
"""

import argparse
import json
import os
import sys

from . import control, oracle, sim
from .errors import AscontrolError
from .model import CompleteState, load_models, save_models


def _parse_x0(raw):
    parts = [int(p) for p in raw.split(",")]
    if len(parts) != 6:
        raise argparse.ArgumentTypeError("x0 needs six comma-separated indices")
    return CompleteState(*parts)


def _parse_schedule(raw):
    return [int(p) for p in raw.split(",")]


def _apply_config(args, argv):
    """Arguments with run parameters filled from a JSON config object.
    A value goes through its flag's type and choices, as the same text on
    the command line would (a JSON number as its JSON text); the command
    line is then parsed over the config values, so explicit flags win."""
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config {args.config} is not a JSON object")
    options = {a.dest: a for a in args.config_parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    values = {"command": args.command}
    for key, val in cfg.items():
        action = options.get(key)
        if action is None:
            raise ValueError(f"config {args.config}: unknown key {key!r}")
        text = val if isinstance(val, str) else json.dumps(val)
        try:
            value = action.type(text) if action.type else text
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(
                f"config {args.config}: invalid {key} {text!r} ({exc})") from exc
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config {args.config}: invalid {key} {text!r} "
                             f"(choose from {', '.join(action.choices)})")
        values[key] = value
    # argv[0] is the command: the top-level parser has no options of its own
    return args.config_parser.parse_args(argv[1:], argparse.Namespace(**values))


def _check_outputs(args):
    """Each output path names a file (a name, not a directory) in a
    directory that exists, checked before any work."""
    for dest in ("out", "report", "trace"):
        path = getattr(args, dest, None)
        if path is not None and (not os.path.basename(path) or os.path.isdir(path)
                                 or not os.path.isdir(os.path.dirname(os.path.abspath(path)))):
            raise ValueError(f"--{dest}: {path!r} is not a file in a directory that exists")


# ---------------------------------------------------------------------------
# subcommands


def _build_env(args):
    """The thermostat environment and reference model the env options name."""
    return sim.thermostat_env(args.temps, args.schedule,
                              heat_success=args.heat_success,
                              phase_advance=args.phase_advance)


def cmd_init(args):
    env, ref = _build_env(args)
    gen, rec = sim.thermostat_agent(env, args.schedule, args.seed)
    save_models(args.out, gen, rec, ref)
    print(f"wrote thermostat model bundle to {args.out}")
    return 0


def cmd_validate(args):
    from .validate import run_validation

    report = run_validation(seed=args.seed, instances=args.instances)
    text = json.dumps(report, indent=2)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for check in report["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        print(f"{status}  {check['name']}  max_err={check['max_err']:.3e} "
              f"tol={check['tolerance']:.1e}", file=sys.stderr)
    return 0 if report["all_passed"] else 1


def cmd_solve(args):
    control.check_solve_settings(args.tol, args.max_iter)
    gen, rec, ref = load_models(args.model)
    value = control.relative_value_iteration(gen, rec, ref, tol=args.tol,
                                             max_iter=args.max_iter)
    value.save(args.out)
    print(f"gain {value.gain!r} nats/step; value written to {args.out}")
    return 0


def cmd_simulate(args):
    oracle.check_horizon(args.steps)
    env, _ = _build_env(args)
    gen, rec, ref = load_models(args.model)
    if env.spec != gen.spec:
        raise ValueError("model spec does not match the requested environment "
                         f"(model {gen.spec.dims}, env {env.spec.dims})")
    trace = sim.run_episode(gen, rec, ref, env, args.steps, args.seed,
                            x0=args.x0)
    trace.to_csv(args.trace)
    rate = trace.rows[-1].running_rate
    print(f"episode of {args.steps} steps, final running rate {rate!r}; "
          f"trace written to {args.trace}")
    return 0


def cmd_train(args):
    policies = tuple(args.policies.split(",")) if args.policies else ("pol0",)
    control.check_train_settings(args.steps, args.iters, args.lr, args.estimator, policies)
    gen, rec, ref = load_models(args.model)
    x0 = args.x0 or CompleteState(0, 0, 0, 0, 0, 0)
    report, gen2, rec2 = control.train(
        gen, rec, ref, x0, args.steps, iters=args.iters, lr=args.lr,
        seed=args.seed, estimator=args.estimator, trainable_policies=policies)
    save_models(args.out, gen2, rec2, ref)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
    print(f"trained {report.iterations} iterations: objective "
          f"{report.objective_trace[0]!r} -> {report.objective_trace[-1]!r}, "
          f"final rate {report.final_rate!r}")
    return 0


def cmd_pi_value(args):
    control.check_path_integral_settings(args.horizon, args.rollouts, args.rate)
    gen, rec, ref = load_models(args.model)
    x0 = args.x0 or CompleteState(0, 0, 0, 0, 0, 0)
    rate = args.rate
    if rate is None:
        rate = oracle.exact_average_rate(gen, rec, ref, x0, 64, 32,
                                         chain="generative")
    est, stderr = control.mc_path_integral_value(
        gen, rec, ref, x0, args.horizon, rate, mode=args.mode,
        n_rollouts=args.rollouts, seed=args.seed)
    print(json.dumps({"mode": args.mode, "rate": rate, "estimate": est,
                      "stderr": stderr, "rollouts": args.rollouts}))
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(prog="ascontrol")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_env_opts(p):
        p.add_argument("--temps", type=int, default=3)
        p.add_argument("--schedule", type=_parse_schedule, default=[0, 2])
        p.add_argument("--heat-success", type=float, default=0.85)
        p.add_argument("--phase-advance", type=float, default=0.1)

    p = sub.add_parser("init", help="write a thermostat model bundle")
    add_env_opts(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("validate", help="run the invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="relative value iteration")
    p.add_argument("--model", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=200_000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="run one episode and write a CSV trace")
    p.add_argument("--model", required=True)
    add_env_opts(p)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", required=True)
    p.add_argument("--x0", type=_parse_x0, default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_simulate, config_parser=p)

    p = sub.add_parser("train", help="gradient training of the free logits")
    p.add_argument("--model", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--estimator", choices=("exact", "score"), default="exact")
    p.add_argument("--policies", default="pol0",
                   help="comma-separated trainable policy tables")
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--x0", type=_parse_x0, default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_train, config_parser=p)

    p = sub.add_parser("pi-value", help="Monte Carlo path-integral value")
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=("feedforward", "feedback"),
                   default="feedforward")
    p.add_argument("--rollouts", type=int, default=1000)
    p.add_argument("--horizon", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--x0", type=_parse_x0, default=None)
    p.set_defaults(func=cmd_pi_value)

    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args = _apply_config(args, argv)
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        _check_outputs(args)
        return args.func(args)
    except (AscontrolError, ValueError, OSError) as exc:
        # user mistakes (bad files, out-of-range settings): one line, no traceback
        print(f"ascontrol {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
