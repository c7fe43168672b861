"""The names the benchmark's tracer (perfbench/tracer.py) wraps or reads must
exist where it looks for them, or a traced benchmark run stops with a
KeyError before it measures anything."""

import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ascontrol
from ascontrol import control
from ascontrol.model import CompleteState, load_models, save_models
from conftest import seed3_thermostat

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def layer_module(layer):
    return importlib.import_module(
        "ascontrol._kernels" if layer == "kernels" else f"ascontrol.{layer}")


ENTRY_POINTS = [(layer, attr) for layer, attrs in load_tracer().ENTRY_POINTS.items()
                for attr in attrs]


@pytest.mark.parametrize("layer,attr", ENTRY_POINTS,
                         ids=[f"{layer}.{attr}" for layer, attr in ENTRY_POINTS])
def test_entry_point_resolves_like_tracer_patch(layer, attr):
    # Tracer.patch reads owner.__dict__[attr], so an inherited or
    # re-exported-by-getattr name does not count
    owner = layer_module(layer)
    *cls, fname = attr.split(".")
    if cls:
        owner = owner.__dict__[cls[0]]
    assert callable(owner.__dict__[fname])


@pytest.mark.parametrize("module,attr", [("cli", "load_models"),
                                         ("cli", "save_models"),
                                         ("oracle", "path_logsumexp")])
def test_by_name_bindings_resolve(module, attr):
    assert callable(layer_module(module).__dict__[attr])


def test_backend_and_kernel_names():
    assert ascontrol.backend_name() == "python"
    assert callable(importlib.import_module("ascontrol._kernels._py").path_logsumexp)


def test_tracer_install_wraps_and_restore_undoes():
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        patched = list(tracer.patched)
        for owner, attr, original in patched:
            assert owner.__dict__[attr].__wrapped__ is original
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original


def pinned(command):
    """reference.json's seed-3 fingerprint of one benchmark command."""
    want = json.loads((PERFBENCH / "reference.json").read_text())
    assert want["seed"] == 3
    return want["fingerprints"][command]


def close_to_pinned(got, want):
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_seed3_solve_gain_matches_pinned_reference():
    # the benchmark checks `solve --tol 1e-8` on the seed-3 `init` bundle
    # against reference.json; a solver change that moves the gain past the
    # benchmark's rule fails here first
    want = pinned("solve")["gain"]
    gen, rec, ref = seed3_thermostat()
    got = control.relative_value_iteration(gen, rec, ref, tol=1e-8).gain
    assert close_to_pinned(got, want)


def test_seed3_train_matches_pinned_reference():
    # the benchmark runs `train --steps 8 --iters 2 --lr 0.5 --policies pol0
    # --estimator exact` on the seed-3 bundle and checks the objective trace's
    # ends and the final rate against reference.json
    want = pinned("train")
    gen, rec, ref = seed3_thermostat()
    report, _, _ = control.train(gen, rec, ref, CompleteState(0, 0, 0, 0, 0, 0), 8,
                                 iters=2, lr=0.5, seed=3, estimator="exact",
                                 trainable_policies=("pol0",))
    got = {"first": report.objective_trace[0], "last": report.objective_trace[-1],
           "final_rate": report.final_rate}
    assert set(got) == set(want)
    for key in want:
        assert close_to_pinned(got[key], want[key]), (key, got[key], want[key])


# The benchmark runs each command in a fresh process with one BLAS thread, so
# the sums inside a matrix product happen in the same order on every host.
BENCH_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")


def bench_cli(*args):
    r = subprocess.run([sys.executable, "-m", "ascontrol", *args], env=BENCH_ENV,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return r.stdout


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def seed3_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "model.json"
    bench_cli("init", "--seed", "3", "--out", str(path))
    return path


def test_seed3_init_bundle_matches_pinned_digest(seed3_bundle):
    # a change to the thermostat builders or the bundle writer that moves
    # one byte of `init --seed 3` fails the benchmark's reference check
    assert sha256(seed3_bundle) == pinned("init")["sha256"]


def test_seed3_bundle_save_load_save_byte_identical(seed3_bundle, tmp_path):
    # the writer on the loaded, row-indexed 1.4M-row layout (a few hundred
    # distinct rows per factor) gives back the `init` bytes
    path = tmp_path / "model.json"
    save_models(path, *load_models(seed3_bundle))
    assert path.read_bytes() == seed3_bundle.read_bytes()


def test_seed3_simulate_trace_matches_pinned_digest(seed3_bundle, tmp_path):
    trace = tmp_path / "trace.csv"
    bench_cli("simulate", "--model", str(seed3_bundle), "--steps", "60",
              "--seed", "300", "--trace", str(trace))
    assert sha256(trace) == pinned("simulate:300")["sha256"]


def test_seed3_pi_value_matches_pinned_reference(seed3_bundle):
    want = pinned("pi-value:300")
    out = bench_cli("pi-value", "--model", str(seed3_bundle), "--mode", "feedforward",
                    "--rollouts", "10000", "--horizon", "5", "--seed", "300")
    got = json.loads(out.strip().splitlines()[-1])
    for key in want:
        assert close_to_pinned(got[key], want[key]), (key, got[key], want[key])
