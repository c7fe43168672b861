import json
import os
import re
import resource
import subprocess
import sys

import numpy as np
import pytest

from ascontrol import model
from ascontrol.model import load_models, save_models
from conftest import assert_load_matches_json, bits, ragged_rows, uniform_instance

CLI = [sys.executable, "-m", "ascontrol"]


def run(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kw)


def assert_one_line_exit_2(r, command):
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1
    assert r.stderr.startswith(f"ascontrol {command}: error: ")


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model.json"
    r = run("init", "--out", str(path), "--seed", "3")
    assert r.returncode == 0, r.stderr
    return path


def test_init_writes_bundle(model_file):
    doc = json.loads(model_file.read_text())
    assert doc["version"] == 1
    assert "spec" in doc and "tables" in doc
    assert "lik" in doc["tables"] and "rec_s1" in doc["tables"]


def test_init_bundle_loads_as_json_reads_it(model_file):
    assert_load_matches_json(model_file)


def test_loading_converts_a_blocks_distinct_rows_once(model_file, monkeypatch):
    # the recognition tables repeat a few hundred rows over a million times;
    # each block of an array converts its distinct rows, once each
    converted, arrays = [], []
    rows_block, parse_rows = model._rows_block, model._parse_rows

    def counting_rows_block(block, child_dim):
        rows = block[1:-1].split(b"], [")
        assert len(rows) == len(set(rows))
        converted.append(len(rows))
        return rows_block(block, child_dim)

    def counting_parse_rows(*args, **kwargs):
        converted.clear()
        rows = parse_rows(*args, **kwargs)
        arrays.append((rows, list(converted)))
        return rows

    monkeypatch.setattr(model, "_rows_block", counting_rows_block)
    monkeypatch.setattr(model, "_parse_rows", counting_parse_rows)
    load_models(model_file)
    large = [(rows, counts) for rows, counts in arrays if len(rows) > 10_000]
    assert len(large) == 4
    for rows, counts in large:
        distinct = len(np.unique(bits(rows), axis=0))
        assert distinct < len(rows) // 100
        assert max(counts) <= distinct
        assert sum(counts) <= len(counts) * distinct


def test_simulate_byte_identical(model_file, tmp_path):
    t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for t in (t1, t2):
        r = run("simulate", "--model", str(model_file), "--steps", "15",
                "--seed", "7", "--trace", str(t))
        assert r.returncode == 0, r.stderr
    assert t1.read_bytes() == t2.read_bytes()
    header = t1.read_text().splitlines()[0]
    assert header == "t,o,s1,s2,a,a1,a2,J,L,KL,total,running_rate,advantage"


def test_simulate_different_seed_differs(model_file, tmp_path):
    t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run("simulate", "--model", str(model_file), "--steps", "15", "--seed", "7",
        "--trace", str(t1))
    run("simulate", "--model", str(model_file), "--steps", "15", "--seed", "8",
        "--trace", str(t2))
    assert t1.read_bytes() != t2.read_bytes()


def test_solve_writes_value(model_file, tmp_path):
    out = tmp_path / "value.json"
    r = run("solve", "--model", str(model_file), "--tol", "1e-6",
            "--out", str(out))
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert doc["version"] == 1
    assert "gain" in doc and "bias" in doc and "anchor" in doc


def test_pi_value_reports_estimate(model_file):
    r = run("pi-value", "--model", str(model_file), "--mode", "feedforward",
            "--rollouts", "100", "--horizon", "3", "--seed", "1",
            "--rate", "5.0")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert set(doc) >= {"estimate", "stderr", "mode", "rate"}


def test_train_subcommand(model_file, tmp_path):
    out = tmp_path / "trained.json"
    rep = tmp_path / "report.json"
    r = run("train", "--model", str(model_file), "--steps", "4", "--iters", "3",
            "--lr", "0.2", "--seed", "0", "--out", str(out), "--report", str(rep))
    assert r.returncode == 0, r.stderr
    report = json.loads(rep.read_text())
    assert report["iterations"] == 3
    for key in ("objective_trace", "grad_norm_trace", "step_size_trace", "rate_trace"):
        assert len(report[key]) == 3, key
    assert all(0.0 < s <= 0.2 for s in report["step_size_trace"])
    assert out.exists()


def test_validate_report(tmp_path):
    rep = tmp_path / "validation.json"
    r = run("validate", "--seed", "1", "--instances", "3", "--report", str(rep))
    assert r.returncode == 0, r.stderr
    doc = json.loads(rep.read_text())
    assert doc["all_passed"] is True
    assert all("max_err" in c for c in doc["checks"])


def test_config_file_merges_defaults(model_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 9, "seed": 4}))
    trace = tmp_path / "t.csv"
    r = run("simulate", "--model", str(model_file), "--trace", str(trace),
            "--config", str(cfg))
    assert r.returncode == 0, r.stderr
    assert len(trace.read_text().splitlines()) == 10  # header + 9 steps


def test_config_values_parse_like_flags(model_file, tmp_path):
    # a config value is the flag's text ("5" is --steps 5), and explicit
    # flags win, abbreviated ones too
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": "5", "seed": 9}))
    t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r = run("simulate", "--model", str(model_file), "--trace", str(t1),
            "--config", str(cfg), "--se", "4")
    assert r.returncode == 0, r.stderr
    r = run("simulate", "--model", str(model_file), "--trace", str(t2),
            "--steps", "5", "--seed", "4")
    assert r.returncode == 0, r.stderr
    assert len(t1.read_text().splitlines()) == 6  # header + 5 steps
    assert t1.read_bytes() == t2.read_bytes()


@pytest.mark.parametrize("command,config,message", [
    ("simulate", [1], "is not a JSON object"),
    ("simulate", {"stepz": 5}, "unknown key 'stepz'"),
    ("simulate", {"steps": 2.5}, "invalid steps '2.5'"),
    ("simulate", {"x0": [0, 0, 0, 0, 0, 0]}, "invalid x0"),
    ("train", {"estimator": "adam"}, "invalid estimator 'adam'"),
], ids=["list", "unknown-key", "float-steps", "list-x0", "bad-choice"])
def test_config_mistakes_get_one_line_and_exit_2(small_model, tmp_path, command,
                                                 config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    extra = (("--trace", str(out)) if command == "simulate"
             else ("--steps", "2", "--iters", "1", "--out", str(out)))
    r = run(command, "--model", str(small_model), *extra, "--config", str(cfg))
    assert_one_line_exit_2(r, command)
    assert message in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ("solve", "--model", "{dir}/missing.json", "--out", "{dir}/value.json"),
    ("simulate", "--model", "{dir}/missing.json", "--trace", "{dir}/t.csv"),
    ("init", "--schedule", "0,9", "--out", "{dir}/model.json"),
    ("init", "--env", "foo", "--out", "{dir}/model.json"),
    # run lengths below 1 and tables train cannot move are rejected before
    # any output
    ("train", "--model", "{model}", "--steps", "2", "--iters", "1",
     "--policies", "pol3", "--out", "{dir}/trained.json"),
    ("train", "--model", "{model}", "--steps", "2", "--iters", "1",
     "--policies", "lik", "--out", "{dir}/trained.json"),
    ("train", "--model", "{model}", "--steps", "2", "--iters", "0",
     "--out", "{dir}/trained.json"),
    ("train", "--model", "{model}", "--steps", "0", "--iters", "1",
     "--out", "{dir}/trained.json"),
    ("simulate", "--model", "{model}", "--steps", "0", "--trace", "{dir}/t.csv"),
    ("validate", "--instances", "0", "--report", "{dir}/report.json"),
    ("pi-value", "--model", "{model}", "--horizon", "0"),
    ("pi-value", "--model", "{model}", "--horizon", "-1"),
    ("pi-value", "--model", "{model}", "--horizon", "2", "--rollouts", "5",
     "--rate", "nan"),
    ("pi-value", "--model", "{model}", "--horizon", "2", "--rollouts", "5",
     "--rate", "inf"),
])
def test_user_errors_get_one_line_and_exit_2(model_file, tmp_path, args):
    r = run(*(a.format(dir=tmp_path, model=model_file) for a in args))
    assert_one_line_exit_2(r, args[0])
    assert r.stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags,setting", [
    (("--horizon", "0"), "horizon"),
    (("--rollouts", "1"), "n_rollouts"),
    (("--rate", "nan"), "rate"),
], ids=["horizon-0", "rollouts-1", "rate-nan"])
def test_pi_value_settings_are_checked_before_the_bundle(tmp_path, flags, setting):
    # the bundle does not exist: the error names the setting, not the file
    r = run("pi-value", "--model", str(tmp_path / "missing.json"), *flags)
    assert_one_line_exit_2(r, "pi-value")
    assert setting in r.stderr
    assert "missing.json" not in r.stderr
    assert r.stdout == ""


def _cap_address_space():
    cap = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def test_init_above_the_state_ceiling_gets_one_line_and_exit_2(tmp_path):
    # 6 temperatures give 6,912 complete states; the 1 GiB address-space cap
    # keeps a dense build that skips the ceiling from taking the machine's
    # memory
    out = tmp_path / "model.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    r = run("init", "--temps", "6", "--out", str(out), env=env,
            preexec_fn=_cap_address_space)
    assert_one_line_exit_2(r, "init")
    assert "6912 complete states exceed" in r.stderr
    assert r.stdout == ""
    assert not out.exists()


def test_train_score_estimator_writes_a_bundle_that_loads(small_model, tmp_path):
    out, rep = tmp_path / "trained.json", tmp_path / "report.json"
    r = run("train", "--model", str(small_model), "--steps", "3", "--iters", "2",
            "--estimator", "score", "--seed", "1", "--out", str(out),
            "--report", str(rep))
    assert r.returncode == 0, r.stderr
    report = json.loads(rep.read_text())
    assert report["iterations"] == 2
    assert np.all(np.isfinite(report["objective_trace"] + report["grad_norm_trace"]
                              + [report["final_rate"]]))
    gen, rec, ref = load_models(out)
    assert gen.spec == load_models(small_model)[0].spec
    assert all(np.all(np.isfinite(t)) for t in rec.tables.values())


def test_ragged_bundle_gets_one_line_and_exit_2(model_file, tmp_path):
    bad = tmp_path / "ragged.json"
    bad.write_text(ragged_rows(model_file.read_text()))
    r = run("simulate", "--model", str(bad), "--trace", str(tmp_path / "t.csv"))
    assert_one_line_exit_2(r, "simulate")
    assert not (tmp_path / "t.csv").exists()


def test_missing_bundle_key_gets_one_line_and_exit_2(model_file, tmp_path):
    bad = tmp_path / "no-flag.json"
    bad.write_text(model_file.read_text().replace(', "strictly_positive": true', "", 1))
    r = run("solve", "--model", str(bad), "--out", str(tmp_path / "value.json"))
    assert_one_line_exit_2(r, "solve")
    assert "table lik has no 'strictly_positive'" in r.stderr
    assert not (tmp_path / "value.json").exists()


@pytest.fixture
def small_model(tmp_path):
    path = tmp_path / "small.json"
    save_models(path, *uniform_instance())
    return path


@pytest.mark.parametrize("pattern,repl,message", [
    (r'"dims": \[[\d, ]*\]', '"dims": 7', "table rec_s2 has dims 7"),
    (r'"child": (\d+)', r'"child": "\1"', "table lik has child '2'"),
    (r'"child": \d+', '"child": 0', "table lik has child 0"),
    (r'"dims": \[64, 2, 2, 3, 2\]', '"dims": [32, 4, 2, 3, 2]',
     "recognition factor s2: expected table (64, 2, 2, 3, 2), got (32, 4, 2, 3, 2)"),
    (r'("rec_s2": \{"dims": \[[\d, ]*\], "rows": \[)\[0\.5, 0\.5\]', r"\1[1.5, -0.5]",
     "recognition table s2: negative probability entry"),
], ids=["int-dims", "str-child", "zero-child", "rec-s2-shape", "rec-s2-negative"])
def test_wrong_typed_bundle_value_gets_one_line_and_exit_2(small_model, tmp_path,
                                                          pattern, repl, message):
    small_model.write_text(re.sub(pattern, repl, small_model.read_text(), count=1))
    out = tmp_path / "value.json"
    r = run("solve", "--model", str(small_model), "--out", str(out))
    assert_one_line_exit_2(r, "solve")
    assert message in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("flags", [("--tol", "0"), ("--tol", "nan"),
                                   ("--max-iter", "0")],
                         ids=["tol-0", "tol-nan", "max-iter-0"])
def test_bad_solver_settings_get_one_line_and_exit_2(small_model, tmp_path, flags):
    out = tmp_path / "value.json"
    r = run("solve", "--model", str(small_model), *flags, "--out", str(out))
    assert_one_line_exit_2(r, "solve")
    # rejected up front, not reported after the sweeps ran out
    assert flags[0].lstrip("-").replace("-", "_") in r.stderr
    assert "sweeps" not in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (("--env", "foo"), "unknown environment 'foo'"),
    ((), "model spec does not match the requested environment"),
], ids=["unknown-env", "spec-mismatch"])
def test_simulate_environment_mistakes_get_one_line_and_exit_2(small_model, tmp_path,
                                                               flags, message):
    # small_model's spec is not the default thermostat's
    out = tmp_path / "t.csv"
    r = run("simulate", "--model", str(small_model), *flags, "--trace", str(out))
    assert_one_line_exit_2(r, "simulate")
    assert message in r.stderr
    assert not out.exists()
