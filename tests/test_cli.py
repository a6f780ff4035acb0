"""Command line interface: config validation, artifacts, exit codes."""

import copy
import json
import threading

import numpy as np
import pytest

from hemaflow.cli import main

from refcase import nan_band_params

BASE_CONFIG = {
    "model": {
        "velocity": {"alpha": 1.0, "p": 1.0},
        "g": {"c": 0.5},
        "delta": 0.05,
        "gamma": 0.1,
        "beta": {"form": "hill", "beta0": 0.3, "theta": 1.0, "n": 1.0},
        "k": {"form": "uniform", "kappa": 1.0, "taper": 0.02},
        "tau_lower": 1.0,
        "tau_upper": 2.0,
    },
    "grid": {"m_nodes": 96, "dt_divisor": 16},
    "run": {"horizon": 5.0, "emit": ["N"], "seed": 0,
            "history": {"kind": "zero"}},
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(tmp_path, *args):
    return main(["--out", str(tmp_path / "out"), *args])


class TestRun:
    def test_zero_history_emits_zero_table(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        assert run_cli(tmp_path, "run", cfg_path) == 0
        data = np.loadtxt(tmp_path / "out" / "solution.csv",
                          delimiter=",", skiprows=1)
        assert np.all(data[:, 2] == 0.0)
        meta = json.loads((tmp_path / "out" / "solution.meta.json").read_text())
        assert meta["max_iterations"] == 1

    def test_csv_round_trip_is_bit_exact(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["run"]["history"] = {"kind": "poly_m", "coeffs": [0.3, 0.7],
                                 "time_factor": {"amplitude": 0.2, "omega": 1.1}}
        cfg_path = write_config(tmp_path, cfg)
        assert run_cli(tmp_path, "run", cfg_path) == 0
        from hemaflow import SolutionField
        csv_field = SolutionField.from_csv(tmp_path / "out" / "solution.csv")
        npz_field = SolutionField.load(tmp_path / "out" / "solution")
        assert np.array_equal(csv_field.N, npz_field.N)

    def test_reference_run_iteration_budget(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["run"]["history"] = {"kind": "poly_m", "coeffs": [0.3, 0.7]}
        cfg_path = write_config(tmp_path, cfg)
        assert run_cli(tmp_path, "run", cfg_path) == 0
        meta = json.loads((tmp_path / "out" / "solution.meta.json").read_text())
        assert meta["max_iterations"] <= 10

    def test_emit_proliferating(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["run"]["emit"] = ["N", "P"]
        cfg["run"]["history"] = {"kind": "constant", "value": 0.4}
        cfg["run"]["warmup"] = {"Gamma": 0.2}
        cfg_path = write_config(tmp_path, cfg)
        assert run_cli(tmp_path, "run", cfg_path) == 0
        header = (tmp_path / "out" / "solution.csv").read_text().splitlines()[0]
        assert header == "t,m,N,P"

    def test_warmup_history_is_the_gamma_source(self, tmp_path):
        # P is rebuilt with the Gamma that made the history, whether or not
        # run.warmup repeats it
        from hemaflow import SolutionField
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["run"]["emit"] = ["N", "P"]
        cfg["run"]["history"] = {"kind": "warmup", "Gamma": 0.1, "N0": 0.4}
        P = []
        for k, warmup in enumerate(({}, {"Gamma": {"const": 0.1}})):
            cfg["run"]["warmup"] = warmup
            out = tmp_path / f"out{k}"
            assert main(["--out", str(out), "run",
                         write_config(tmp_path, cfg, f"c{k}.json")]) == 0
            P.append(SolutionField.load(out / "solution").P)
        assert np.array_equal(P[0], P[1])


class TestOutputs:
    def test_concurrent_writers_give_the_serial_bytes(self, tmp_path):
        # the CSV is formatted on a worker while the npz compresses; each file
        # holds what to_csv and then save write for the reloaded field
        from hemaflow import SolutionField
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["run"]["emit"] = ["N", "P", "residuals"]
        cfg["run"]["history"] = {"kind": "warmup", "Gamma": 0.2, "N0": 0.4}
        assert run_cli(tmp_path, "run", write_config(tmp_path, cfg)) == 0
        out, ref = tmp_path / "out", tmp_path / "ref"
        field = SolutionField.load(out / "solution")
        assert field.upper is not None and field.P is not None
        ref.mkdir()
        field.to_csv(ref / "solution.csv")
        field.save(ref / "solution")
        for name in ("solution.csv", "solution.meta.json"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()
        with np.load(out / "solution.npz") as got, np.load(ref / "solution.npz") as want:
            assert sorted(got.files) == sorted(want.files)
            for key in want.files:
                assert np.array_equal(got[key], want[key]), key
        meta = json.loads((out / "solution.meta.json").read_text())
        assert "residuals" not in meta
        assert set(json.loads((out / "residuals.json").read_text())) >= {"median"}

    def test_csv_worker_failure_reaches_the_caller(self, tmp_path, capsys):
        (tmp_path / "out" / "solution.csv").mkdir(parents=True)
        threads = threading.active_count()
        assert run_cli(tmp_path, "run", write_config(tmp_path, BASE_CONFIG)) == 2
        assert threading.active_count() == threads
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "solution.csv" in err

    @pytest.mark.parametrize("args,experiment,expensive", [
        (("run",), None, "hemaflow.solver.Solver.solve"),
        (("experiment", "extinction"), {"kind": "extinction", "b": 0.2},
         "hemaflow.experiments.exp_extinction"),
        (("experiment", "resolvent"), {"kind": "resolvent"},
         "hemaflow.experiments.resolvent_check"),
    ])
    def test_unwritable_out_exits_2_before_the_work(self, tmp_path, capsys, monkeypatch,
                                                   args, experiment, expensive):
        def reached(*a, **k):
            raise AssertionError("an unwritable --out reached the work")
        monkeypatch.setattr(expensive, reached)
        cfg = copy.deepcopy(BASE_CONFIG)
        if experiment is not None:
            cfg["experiment"] = experiment
        (tmp_path / "file").write_text("")
        bad = tmp_path / "file" / "out"
        assert main(["--out", str(bad), *args, write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out: ") and str(bad) in err

    def test_rejected_experiment_config_makes_no_out_dir(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["run"]["bogus"] = 1
        cfg["experiment"] = {"kind": "extinction", "b": 0.2}
        assert run_cli(tmp_path, "experiment", "extinction",
                       write_config(tmp_path, cfg)) == 2
        assert capsys.readouterr().err.startswith("error: run.bogus")
        assert not (tmp_path / "out").exists()


class TestConfigRejection:
    def test_unknown_key_names_path(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["model"]["betaa"] = 1.0
        assert run_cli(tmp_path, "check", write_config(tmp_path, cfg)) == 2
        assert "model.betaa" in capsys.readouterr().err

    def test_reversed_delays_exit_2(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["model"]["tau_lower"] = 3.0
        assert run_cli(tmp_path, "check", write_config(tmp_path, cfg)) == 2
        assert "tau_lower" in capsys.readouterr().err

    def test_custom_beta_without_constant_exit_2(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["model"]["beta"] = {"form": "custom"}
        assert run_cli(tmp_path, "check", write_config(tmp_path, cfg)) == 2
        assert "Lipschitz" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value, command", [
        ("grid", "m_nodes", "abc", "run"),
        ("grid", "m_nodes", 0, "run"),
        ("grid", "dt_divisor", 2.5, "run"),
        ("run", "seed", True, "run"),
        ("run", "seed", -1, "run"),
        ("experiment", "n_runs", "3", "positivity"),
        ("experiment", "n_w", 1.5, "resolvent"),
    ])
    def test_bad_integer_names_path(self, tmp_path, capsys, section, key,
                                    value, command):
        cfg = copy.deepcopy(BASE_CONFIG)
        args = ["run"]
        if section == "experiment":
            cfg["experiment"] = {"kind": command}
            args = ["experiment", command]
        cfg[section][key] = value
        assert run_cli(tmp_path, *args, write_config(tmp_path, cfg)) == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, path", [
        ("delta", {"poly": [0.05, float("nan")]}, "model.delta.poly"),
        ("gamma", float("inf"), "model.gamma"),
    ])
    def test_nonfinite_number_names_path(self, tmp_path, capsys, key, value, path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["model"][key] = value
        assert run_cli(tmp_path, "check", write_config(tmp_path, cfg)) == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("keys, value, path, command", [
        (["run"], 5, "run", "run"),
        (["grid"], 5, "grid", "run"),
        (["model"], 5, "model", "check"),
        (["experiment"], 5, "experiment", "positivity"),
        (["model", "velocity"], 5, "model.velocity", "check"),
        (["model", "k"], 5, "model.k", "check"),
        (["model", "beta"], 5, "model.beta", "check"),
        (["model", "velocity"], {"table": 5}, "model.velocity.table", "check"),
        (["model", "velocity"],
         {"table": {"m": [0.0, 0.25, 0.5, 1.0], "V": [0.0, "a", 0.5, 1.0]}},
         "model.velocity.table.V", "check"),
        (["model", "g"],
         {"table": {"m": [0.0, 0.25, 0.5, 1.0], "g": [0.0, 0.3, 0.2, 0.5]}},
         "model.g.table", "check"),
        (["run", "history"], {"kind": "constant", "value": 0.4, "time_factor": 5},
         "run.history.time_factor", "run"),
        (["run", "history"], {"kind": "sum", "terms": 5}, "run.history.terms", "run"),
        (["run", "history"], {"kind": ["zero"]}, "run.history.kind", "run"),
        (["run", "emit"], [["N"]], "run.emit", "run"),
        (["run", "warmup"], 5, "run.warmup", "run"),
        (["run", "warmup"], {"Gama": 0.1}, "run.warmup.Gama", "run"),
        (["experiment"], {"kind": "resolvent", "lambdas": [0.5, "a"]},
         "experiment.lambdas", "resolvent"),
        (["model", "velocity"],
         {"table": {"m": [0.0, 0.5, 0.5, 1.0], "V": [0.0, 0.5, 0.5, 1.0]}},
         "model.velocity.table.m", "check"),
        # P reads only Gamma: an N0 there would be ignored, so it is refused
        (["run", "warmup"], {"Gamma": 0.1, "N0": 0.4}, "run.warmup.N0", "run"),
    ])
    def test_malformed_section_names_path(self, tmp_path, capsys, keys, value,
                                          path, command):
        cfg = copy.deepcopy(BASE_CONFIG)
        node = cfg
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        args = [command] if command in ("run", "check") else ["experiment", command]
        assert run_cli(tmp_path, *args, write_config(tmp_path, cfg)) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}")

    @pytest.mark.parametrize("keys, value, command", [
        (["grid", "m_nodes"], 1e308, "run"),
        (["grid", "m_nodes"], 10 ** 400, "run"),
        (["grid", "dt_divisor"], 1e308, "run"),
        (["grid", "dt_divisor"], 2 ** 22, "run"),
        (["run", "horizon"], 1e308, "run"),
        (["experiment", "horizon"], 1e308, "picard-rate"),
        (["experiment", "n_runs"], 1e308, "positivity"),
        (["experiment", "n_w"], 1e308, "resolvent"),
    ])
    def test_oversized_key_names_path(self, tmp_path, capsys, monkeypatch, keys,
                                      value, command):
        # refused while the config is read: reaching a solve, a warmup, a
        # sweep or a resolvent check (or, for grid keys, the grid) fails here
        def reached(*args, **kwargs):
            raise AssertionError(f"{'.'.join(keys)} = {value!r} was not refused")
        targets = ["hemaflow.solver.Solver.start", "hemaflow.solver.Solver.warmup",
                   "hemaflow.experiments.exp_positivity",
                   "hemaflow.experiments.resolvent_check"]
        if keys[0] == "grid":
            targets.append("hemaflow.solver.Grid.build")
        for target in targets:
            monkeypatch.setattr(target, reached)
        cfg = copy.deepcopy(BASE_CONFIG)
        args = ["run"]
        if command != "run":
            cfg["experiment"] = {"kind": command}
            args = ["experiment", command]
        cfg[keys[0]][keys[1]] = value
        assert run_cli(tmp_path, *args, write_config(tmp_path, cfg)) == 2
        assert capsys.readouterr().err.startswith(f"error: {'.'.join(keys)}")

    def test_conflicting_gamma_names_both_paths(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["run"]["history"] = {"kind": "warmup", "Gamma": 0.1}
        cfg["run"]["warmup"] = {"Gamma": 0.2}
        assert run_cli(tmp_path, "run", write_config(tmp_path, cfg)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: run.warmup.Gamma") and "run.history.Gamma" in err

    @pytest.mark.parametrize("horizon", [2.0, 2.0 + 1.0 / 16.0])
    def test_short_horizon_for_residuals_refused_before_solving(
            self, tmp_path, capsys, monkeypatch, horizon):
        # residuals sample t in [tau_upper + dt, T - dt]: two steps past the history
        def reached(*args, **kwargs):
            raise AssertionError("a horizon too short for residuals reached the solve")
        monkeypatch.setattr("hemaflow.solver.Solver.solve", reached)
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["run"].update(horizon=horizon, emit=["N", "residuals"])
        assert run_cli(tmp_path, "run", write_config(tmp_path, cfg)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: run.horizon") and "run.emit" in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path):
        assert run_cli(tmp_path, "check", str(tmp_path / "nope.json")) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli(tmp_path, "check", str(path)) == 2


MUTATION_MODEL = {
    "velocity": {"alpha": 1.0, "p": 1.0},
    "g": {"c": 0.5},
    "delta": 0.05,
    "gamma": {"poly": [0.1, 0.05]},
    "beta": {"form": "hill", "beta0": 0.3, "theta": 1.0, "n": 1.0},
    "k": {"form": "uniform", "kappa": 1.0, "taper": 0.02},
    "tau_lower": 1.0,
    "tau_upper": 2.0,
}
MUTATION_BASES = (
    ("check", {"model": MUTATION_MODEL}),
    ("run", {"model": MUTATION_MODEL, "grid": {"m_nodes": 8, "dt_divisor": 2},
             "run": {"horizon": 2.0, "emit": ["N", "P"], "seed": 0,
                     "history": {"kind": "warmup", "Gamma": 0.2,
                                 "N0": {"const": 0.5}}}}),
)
BAD_VALUES = (None, True, "1", [], {}, [1.0], -1, 0, 1e-300, 1e308,
              float("nan"), float("-inf"))


def _leaf_paths(node, path=()):
    items = (list(node.items()) if isinstance(node, dict)
             else list(enumerate(node)) if isinstance(node, list) else [])
    if not items:
        yield path
    for key, child in items:
        yield from _leaf_paths(child, path + (key,))


class TestConfigMutation:
    def test_every_mutated_leaf_exits_cleanly(self, tmp_path, capsys):
        # each leaf of a check and a run config (8 nodes, horizon tau_upper)
        # takes each bad value in turn: the CLI runs (0), refuses the config
        # (2) or reports a solver failure (3), and never raises nor prints
        # numpy's floating-point warnings first
        for command, base in MUTATION_BASES:
            assert run_cli(tmp_path, command, write_config(tmp_path, base)) == 0
        escaped = []
        for command, base in MUTATION_BASES:
            for path in _leaf_paths(base):
                for bad in BAD_VALUES:
                    cfg = copy.deepcopy(base)
                    node = cfg
                    for key in path[:-1]:
                        node = node[key]
                    node[path[-1]] = bad
                    try:
                        code = run_cli(tmp_path, command, write_config(tmp_path, cfg))
                    except Exception as exc:  # noqa: BLE001 - the defect under test
                        code = repr(exc)
                    if code not in (0, 2, 3):
                        escaped.append((command, ".".join(map(str, path)), bad, code))
        capsys.readouterr()
        assert not escaped, escaped


class TestCheck:
    def test_prints_model_constants(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        assert run_cli(tmp_path, "check", cfg_path) == 0
        out = capsys.readouterr().out
        assert "0.693147181" in out       # tau0 = ln 2
        assert "tau_lower > tau0  : yes" in out
        assert "lipschitz l       : 0.3" in out

    def test_near_identity_division_map(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["model"]["g"] = {"c": 0.999}
        assert run_cli(tmp_path, "check", write_config(tmp_path, cfg)) == 0
        out = capsys.readouterr().out
        tau0 = float(out.splitlines()[1].split(":")[1])
        assert tau0 == pytest.approx(np.log(1.0 / 0.999), rel=1e-6)


class TestExperimentCommand:
    def test_extinction_passes_and_reports_horizon(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["run"]["history"] = {"kind": "bump", "center": 0.35,
                                 "width": 0.09, "amplitude": 1.0}
        cfg["experiment"] = {"kind": "extinction", "b": 0.2,
                             "control": {"kind": "constant", "value": 0.5}}
        cfg_path = write_config(tmp_path, cfg)
        assert run_cli(tmp_path, "experiment", "extinction", cfg_path) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["verdict"] is True
        assert report["t_bar"] == pytest.approx(np.log(2.5) + 6.0, rel=1e-9)
        assert (tmp_path / "out" / "population.csv").exists()

    def test_uniqueness_profile_artifacts(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["run"]["history"] = {"kind": "constant", "value": 0.5}
        cfg["experiment"] = {"kind": "uniqueness", "b": 0.2,
                             "perturbation": {"kind": "bump", "center": 0.35,
                                              "width": 0.09, "amplitude": 0.3}}
        cfg_path = write_config(tmp_path, cfg)
        assert run_cli(tmp_path, "experiment", "uniqueness", cfg_path) == 0
        profile = np.loadtxt(tmp_path / "out" / "divergence.csv",
                             delimiter=",", skiprows=1)
        assert profile.shape[1] == 2
        assert np.max(profile[:, 1]) > 0.0

    def test_uniqueness_precondition_exit_2(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["run"]["history"] = {"kind": "constant", "value": 0.5}
        cfg["experiment"] = {"kind": "uniqueness", "b": 0.2,
                             "perturbation": {"kind": "bump", "center": 0.15,
                                              "width": 0.1, "amplitude": 0.3}}
        cfg_path = write_config(tmp_path, cfg)
        assert run_cli(tmp_path, "experiment", "uniqueness", cfg_path) == 2
        assert "agreement below b" in capsys.readouterr().err

    def test_invariance_skip_exits_zero(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["model"]["beta"]["beta0"] = 2.5
        cfg["run"]["history"] = {"kind": "constant", "value": 0.5}
        cfg["experiment"] = {"kind": "invariance", "b": 0.2}
        cfg_path = write_config(tmp_path, cfg)
        assert run_cli(tmp_path, "experiment", "invariance", cfg_path) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["skipped"] is True

    def test_kind_mismatch_exit_2(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["experiment"] = {"kind": "extinction", "b": 0.2}
        cfg_path = write_config(tmp_path, cfg)
        assert run_cli(tmp_path, "experiment", "positivity", cfg_path) == 2

    def test_nonconvergent_solver_exit_3(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["model"]["beta"]["beta0"] = 60.0
        cfg["run"]["history"] = {"kind": "constant", "value": 0.5}
        cfg["run"]["horizon"] = 4.0
        cfg_path = write_config(tmp_path, cfg)
        assert run_cli(tmp_path, "run", cfg_path) == 3

    def test_nonfinite_rate_exit_3(self, tmp_path, capsys, monkeypatch):
        # JSON cannot express a custom law, so the model is swapped in
        monkeypatch.setattr("hemaflow.cli.build_params", lambda cfg: nan_band_params())
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["run"]["history"] = {"kind": "constant", "value": 0.65}
        cfg["run"]["horizon"] = 4.0
        assert run_cli(tmp_path, "run", write_config(tmp_path, cfg)) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_resolvent_command(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["experiment"] = {"kind": "resolvent", "lambdas": [0.5, 2.0], "n_w": 5}
        cfg_path = write_config(tmp_path, cfg)
        assert run_cli(tmp_path, "experiment", "resolvent", cfg_path) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["verdict"] is True and report["checks"] == 10

    def test_picard_rate_command(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["run"]["history"] = {"kind": "poly_m", "coeffs": [0.3, 0.7]}
        cfg["experiment"] = {"kind": "picard-rate"}
        cfg_path = write_config(tmp_path, cfg)
        assert run_cli(tmp_path, "experiment", "picard-rate", cfg_path) == 0

    def test_positivity_command(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["experiment"] = {"kind": "positivity", "n_runs": 2, "horizon": 5.0}
        cfg_path = write_config(tmp_path, cfg)
        assert run_cli(tmp_path, "experiment", "positivity", cfg_path) == 0
