import json
import math
import os
import re
import resource
import subprocess
import sys

import numpy as np
import pytest

from ascontrol import chains, cli, control, model, sim
from ascontrol.errors import NonFiniteObjectiveError
from ascontrol.instances import hard_zero_instance, random_instance
from ascontrol.model import (CompleteState, ConditionalTable, ReferenceModel, load_models,
                             save_models)
from conftest import assert_load_matches_json, bits, ragged_rows, uniform_instance

X0 = CompleteState(0, 0, 0, 0, 0, 0)

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


def gathered_rows(monkeypatch):
    """The reader's rows and row index of each table by name, as
    model._gather gives them to load_models, filled in by its next load."""
    gathered, gather = {}, model._gather

    def keeping_gather(arrays, mark, width, name):
        gathered[name] = gather(arrays, mark, width, name)
        return gathered[name]

    monkeypatch.setattr(model, "_gather", keeping_gather)
    return gathered


def test_loading_converts_each_distinct_row_of_an_array_once(model_file, monkeypatch):
    # the recognition tables repeat a few hundred rows over a million times;
    # a rows array's distinct rows fit its row dictionary, so each is
    # converted once, in the _rows_block call of the block it first shows in,
    # and the reader holds it once
    converted = []
    rows_block = model._rows_block

    def counting_rows_block(block, child_dim):
        converted.extend(block[1:-1].split(b"], ["))
        return rows_block(block, child_dim)

    monkeypatch.setattr(model, "_rows_block", counting_rows_block)
    gathered = gathered_rows(monkeypatch)
    _, rec, _ = load_models(model_file)
    n_rows, distinct = 0, 0
    for name, (values, index) in gathered.items():
        assert len(np.unique(bits(values), axis=0)) == len(values)
        n_rows += len(index)
        distinct += len(values)
        if name.startswith("rec_"):
            assert len(values) < len(index) // 100
            table = rec.tables[name.removeprefix("rec_")]
            assert len(np.unique(bits(table.reshape(-1, values.shape[1])), axis=0)) == len(values)
    assert len(converted) == distinct < n_rows // 1000


def test_seed3_load_holds_each_factors_distinct_rows(model_file, monkeypatch):
    # the reader holds each recognition factor's distinct rows once; the
    # load keeps only the filtering arrays, 5.2 MiB
    gathered = gathered_rows(monkeypatch)
    _, rec, _ = load_models(model_file)
    assert tuple(len(gathered["rec_" + name][0])
                 for name in model.REC_FACTORS) == (129, 139, 515, 491)
    assert sum(rec.tables[name].nbytes for name in model.REC_FACTORS) == 5_474_304


def test_loading_splits_each_distinct_piece_of_an_array_once(model_file, monkeypatch):
    # a recognition factor's rows repeat by (x_prev, o, a) context: its
    # pieces of 7, 14, 28 and 84 rows (s2, a2, s1, a1), cut from the array's
    # first row and at block edges, have a few hundred distinct texts; each
    # array's piece dictionary never starts over and ends holding every one
    # of them, so each is split into rows once
    sizes = [1] * 8 + [7, 14, 28, 84]   # the conditional tables, then s2 .. a1
    arrays, rows_of = [], model._rows_of

    def watching_rows_of(text, stop, index_of, piece_of, cuts):
        if not arrays or arrays[-1][0] is not piece_of:
            arrays.append((piece_of, set(), [0]))
        _, pieces, seen = arrays[-1]
        size, held = sizes[len(arrays) - 1], set(piece_of)
        rows = text[1:stop].split(b"], [")
        for i in range(-seen[0] % size - size, len(rows), size):
            pieces.add(b"], [".join(rows[max(i, 0):i + size]))
        pieces.discard(b"")
        seen[0] += len(rows)
        got = rows_of(text, stop, index_of, piece_of, cuts)
        assert held <= set(piece_of)
        return got

    monkeypatch.setattr(model, "_rows_of", watching_rows_of)
    load_models(model_file)
    assert len(arrays) == len(sizes)
    assert all(set(piece_of) == pieces for piece_of, pieces, _ in arrays)
    assert [len(piece_of) for piece_of, _, _ in arrays[8:]] == [133, 134, 212, 254]


def test_pi_value_builds_each_ticks_transition_rows_once_and_no_dense_matrix(
        model_file, monkeypatch, capsys):
    # the exact rate and the rollouts read one array of class rows per tick,
    # kept on the generative model, and never expand it to the (N, N) matrix
    builds, kept = [], chains._kept

    def counting_kept(cache, key, spec, build):
        def counted():
            builds.append(key)
            return build()
        return kept(cache, key, spec, counted)

    def no_dense(*args):
        raise AssertionError("pi-value built a dense transition matrix")

    monkeypatch.setattr(chains, "_kept", counting_kept)
    monkeypatch.setattr(chains, "transition_matrix", no_dense)
    assert cli.main(["pi-value", "--model", str(model_file), "--rollouts", "100",
                     "--horizon", "3", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["rollouts"] == 100
    assert sorted(key for key in builds if key in (("P", True), ("P", False))) == [
        ("P", False), ("P", True)]


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


def test_train_with_a_reachable_infinite_edge_cost_stops_at_iteration_0(tmp_path):
    gen, rec, ref = hard_zero_instance(0, (2, 2, 2, 2, 1, 1), 2)
    # an edge of infinite cost is reachable from x0 within 3 steps
    assert math.isinf(control.differential_free_energy(gen, rec, ref, X0, 3, 0.0))
    with pytest.raises(NonFiniteObjectiveError, match="objective became non-finite") as err:
        control.train(gen, rec, ref, X0, 3, iters=2)
    assert err.value.iteration == 0
    bundle, out = tmp_path / "hard-zero.json", tmp_path / "trained.json"
    save_models(bundle, gen, rec, ref)
    r = run("train", "--model", str(bundle), "--steps", "3", "--iters", "2",
            "--out", str(out))
    assert_one_line_exit_2(r, "train")
    assert "objective became non-finite at iteration 0" in r.stderr
    assert not out.exists()


def test_train_with_a_non_finite_gradient_stops_at_its_iteration(tmp_path, monkeypatch,
                                                                 capsys):
    gen, rec, ref = random_instance(4, floor=True)
    exact, calls = control.dfe_value_and_grad, []

    def nan_from_the_second_call(*args):
        value, grads = exact(*args)
        calls.append(value)
        if len(calls) > 1:
            grads = control.TrainableParams(
                {k: np.full_like(v, np.nan) for k, v in grads.q_logits.items()},
                grads.pol_logits)
        return value, grads

    monkeypatch.setattr(control, "dfe_value_and_grad", nan_from_the_second_call)
    with pytest.raises(NonFiniteObjectiveError, match="gradient became non-finite") as err:
        control.train(gen, rec, ref, X0, 3, iters=3)
    assert err.value.iteration == 1
    assert np.isfinite(calls).all()
    bundle, out = tmp_path / "model.json", tmp_path / "trained.json"
    save_models(bundle, gen, rec, ref)
    calls.clear()
    assert cli.main(["train", "--model", str(bundle), "--steps", "3", "--iters", "3",
                     "--out", str(out)]) == 2
    err_text = capsys.readouterr().err
    assert err_text == ("ascontrol train: error: gradient became non-finite at "
                        "iteration 1\n")
    assert not out.exists()


def test_episode_with_a_zero_reference_on_the_belief_stops_at_its_step(tmp_path):
    env, ref = sim.thermostat_env(2, [0])                      # 16 states
    gen, rec = sim.thermostat_agent(env, [0], 0)
    # R(o | a1) is zero for o = 1 under every a1, so the first step that
    # observes o = 1 has an infinite expected reference surprisal; the path
    # does not depend on the reference
    zero = ReferenceModel(gen.spec, ConditionalTable.one_hot(
        (gen.spec.card_a1,), gen.spec.card_o, lambda a1: 0), ref.ref_s1)
    rows = sim.run_episode(gen, rec, ref, env, 12, seed=2).rows
    first = next(r.t for r in rows if r.state.o == 1)
    assert first > 1 and all(math.isfinite(r.total) for r in rows)
    with pytest.raises(NonFiniteObjectiveError, match=f"at t={first};") as err:
        sim.run_episode(gen, rec, zero, env, 12, seed=2)
    assert err.value.iteration == first
    bundle, trace = tmp_path / "zero-ref.json", tmp_path / "t.csv"
    save_models(bundle, gen, rec, zero)
    r = run("simulate", "--model", str(bundle), "--temps", "2", "--schedule", "0",
            "--steps", "12", "--seed", "2", "--trace", str(trace))
    assert_one_line_exit_2(r, "simulate")
    assert f"non-finite step objective at t={first};" in r.stderr
    assert not trace.exists()


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
    # a negative seed, before any work
    ("init", "--seed", "-1", "--out", "{dir}/model.json"),
    ("validate", "--seed", "-1", "--report", "{dir}/report.json"),
    ("simulate", "--model", "{model}", "--seed", "-1", "--trace", "{dir}/t.csv"),
    ("train", "--model", "{model}", "--steps", "2", "--iters", "1", "--seed", "-1",
     "--out", "{dir}/trained.json"),
    ("pi-value", "--model", "{model}", "--seed", "-1"),
])
def test_user_errors_get_one_line_and_exit_2(model_file, tmp_path, args):
    r = run(*(a.format(dir=tmp_path, model=model_file) for a in args))
    assert_one_line_exit_2(r, args[0])
    assert r.stdout == ""
    assert list(tmp_path.iterdir()) == []
    if "--seed" in args:
        assert "--seed" in r.stderr


TRAIN_ONCE = ("train", "--model", "{model}", "--steps", "2", "--iters", "1",
              "--out", "{dir}/trained.json")


@pytest.mark.parametrize("args,setting", [
    (TRAIN_ONCE + ("--lr", "0"), "lr"),
    (TRAIN_ONCE + ("--lr=-1",), "lr"),
    (TRAIN_ONCE + ("--lr", "inf"), "lr"),
    (TRAIN_ONCE + ("--lr", "nan"), "lr"),
    (("init", "--heat-success", "2", "--out", "{dir}/model.json"), "heat_success"),
    (("init", "--phase-advance", "1.5", "--out", "{dir}/model.json"), "phase_advance"),
], ids=["lr-0", "lr-negative", "lr-inf", "lr-nan", "heat-success-2", "phase-advance-1.5"])
def test_out_of_range_settings_name_the_setting(model_file, tmp_path, args, setting):
    # train used to run with these step sizes (or warn, then fail in the
    # softmax), and init to fail with "negative probability entry"
    r = run(*(a.format(dir=tmp_path, model=model_file) for a in args))
    assert_one_line_exit_2(r, args[0])
    assert f"{setting} must be" in r.stderr
    assert r.stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags,setting", [
    (("--horizon", "0"), "horizon"),
    (("--rollouts", "1"), "n_rollouts"),
    (("--rate", "nan"), "rate"),
    (("--seed", "-1"), "--seed"),
], ids=["horizon-0", "rollouts-1", "rate-nan", "seed-negative"])
def test_pi_value_settings_are_checked_before_the_bundle(tmp_path, flags, setting):
    # the bundle does not exist: the error names the setting, not the file
    r = run("pi-value", "--model", str(tmp_path / "missing.json"), *flags)
    assert_one_line_exit_2(r, "pi-value")
    assert setting in r.stderr
    assert "missing.json" not in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("flags,message", [
    (("--lr", "0"), "lr must be a finite number > 0"),
    (("--iters", "0"), "iters must be >= 1"),
    (("--steps", "0"), "the horizon T must be at least 1 step"),
    (("--policies", "pol0,lik"), "'lik' is not a trainable policy table"),
], ids=["lr-0", "iters-0", "steps-0", "policies-lik"])
def test_train_settings_are_checked_before_the_bundle(tmp_path, flags, message):
    # the bundle does not exist: the error names the setting, not the file
    r = run("train", "--model", str(tmp_path / "missing.json"), "--steps", "2",
            "--iters", "1", *flags, "--out", str(tmp_path / "trained.json"))
    assert_one_line_exit_2(r, "train")
    assert message in r.stderr
    assert "missing.json" not in r.stderr
    assert r.stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,flags,message", [
    ("solve", ("--tol", "0"), "tol must be a finite number > 0"),
    ("solve", ("--max-iter", "0"), "max_iter must be >= 1"),
    ("simulate", ("--steps", "0"), "the horizon T must be at least 1 step"),
    ("simulate", ("--heat-success", "2"), "heat_success must be a probability"),
], ids=["tol-0", "max-iter-0", "steps-0", "heat-success-2"])
def test_solve_and_simulate_settings_are_checked_before_the_bundle(tmp_path, command,
                                                                   flags, message):
    # the bundle does not exist: the error names the setting, not the file
    out = ("--out", str(tmp_path / "value.npz")) if command == "solve" else (
        "--trace", str(tmp_path / "trace.csv"))
    r = run(command, "--model", str(tmp_path / "missing.json"), *flags, *out)
    assert_one_line_exit_2(r, command)
    assert message in r.stderr
    assert "missing.json" not in r.stderr
    assert r.stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args,flag", [
    (("init", "--out", "{gone}/model.json"), "--out"),
    (("validate", "--report", "{gone}/report.json"), "--report"),
    (("solve", "--model", "{dir}/missing.json", "--out", "{gone}/value.json"), "--out"),
    (("simulate", "--model", "{dir}/missing.json", "--trace", "{gone}/t.csv"), "--trace"),
    (("train", "--model", "{dir}/missing.json", "--steps", "2", "--iters", "1",
      "--out", "{gone}/trained.json"), "--out"),
    (("train", "--model", "{dir}/missing.json", "--steps", "2", "--iters", "1",
      "--out", "{dir}/trained.json", "--report", "{gone}/report.json"), "--report"),
    (("solve", "--model", "{dir}/missing.json", "--out", "{dir}"), "--out"),
    (("solve", "--model", "{dir}/missing.json", "--out", ""), "--out"),
    (("solve", "--model", "{dir}/missing.json", "--out", "{gone}/"), "--out"),
], ids=["init-out", "validate-report", "solve-out", "simulate-trace", "train-out",
        "train-report", "solve-out-is-a-directory", "solve-out-is-empty",
        "solve-out-has-no-file-name"])
def test_output_directories_are_checked_before_the_bundle(tmp_path, args, flag):
    # the output's directory does not exist (or the output is a directory or
    # names no file), nor does the bundle: the error names the output flag,
    # before any work
    r = run(*(a.format(dir=tmp_path, gone=tmp_path / "gone") for a in args))
    assert_one_line_exit_2(r, args[0])
    assert flag in r.stderr
    assert "missing.json" not in r.stderr
    assert r.stdout == ""
    assert list(tmp_path.iterdir()) == []


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


def test_train_writes_its_trained_tables_to_every_future_slice(tmp_path):
    # the bundle train writes holds the trained filtering array in every
    # future slice of each recognition factor, and loads back to it bit for
    # bit; the training run in process is the command's, from the same bundle
    bundle, out = tmp_path / "model.json", tmp_path / "trained.json"
    save_models(bundle, *random_instance(9, floor=True))
    r = run("train", "--model", str(bundle), "--steps", "3", "--iters", "2",
            "--lr", "0.5", "--seed", "0", "--out", str(out))
    assert r.returncode == 0, r.stderr
    gen, rec, ref = load_models(bundle)
    _, _, trained = control.train(gen, rec, ref, X0, 3, iters=2, lr=0.5, seed=0,
                                  estimator="exact", trainable_policies=("pol0",))
    tables = json.loads(out.read_text())["tables"]
    loaded = load_models(out)[1]
    for name in model.REC_FACTORS:
        want = trained.tables[name]
        assert not np.array_equal(want, rec.tables[name])
        entry = tables["rec_" + name]
        whole = np.array(entry["rows"], dtype=float).reshape(entry["dims"])
        for future in range(whole.shape[3]):
            assert np.array_equal(bits(whole[:, :, :, future]), bits(want)), (name, future)
        assert np.array_equal(bits(loaded.tables[name]), bits(want))


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
    (r'("lik": \{"parents": \[[\d, ]*\], "child": 2, "rows": \[)\[0\.5, 0\.5\]',
     r"\1[1.5, -0.5]", "table lik: negative probability entry"),
    (r'("rec_s1": \{"dims": \[[\d, ]*\], "rows": \[)\[0\.5, 0\.5\]', r"\1[0.5,  0.5]",
     "table rec_s1: bundle rows are not lists of 2 numbers laid out as json.dump "
     "writes them"),
    (r'("rec_s1": \{"dims": \[[\d, ]*\], "rows": \[)\[0\.5, 0\.5\]', r"\1[0.5, ]",
     "table rec_s1: bundle rows are not lists of 2 numbers laid out as json.dump "
     "writes them"),
    (r'("rec_s1": \{"dims": \[[\d, ]*\], "rows": \[)\[0\.5, 0\.5\]', r"\1[0.5, 1e]",
     "table rec_s1: bundle rows are not lists of 2 numbers laid out as json.dump "
     "writes them"),
], ids=["int-dims", "str-child", "zero-child", "rec-s2-shape", "rec-s2-negative",
        "lik-negative", "rec-s1-layout", "rec-s1-empty-value", "rec-s1-bad-number"])
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


def test_simulate_spec_mismatch_gets_one_line_and_exit_2(small_model, tmp_path):
    # small_model's spec is not the default thermostat's
    out = tmp_path / "t.csv"
    r = run("simulate", "--model", str(small_model), "--trace", str(out))
    assert_one_line_exit_2(r, "simulate")
    assert "model spec does not match the requested environment" in r.stderr
    assert not out.exists()
