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


# a curved g on 5 rows: its inverse is computed, not tabulated
CURVED_G = {"m": [0.0, 0.25, 0.5, 0.75, 1.0], "g": [0.0, 0.1, 0.22, 0.36, 0.5]}

# a model part that refuses itself, under run and check alike: (keys, value,
# the expected start of the message)
PART_REFUSALS = [
    (["model", "delta"], -0.5, "model.delta: delta must be nonnegative"),
    (["model", "gamma"], {"poly": [0.1, -1]}, "model.gamma: gamma must be nonnegative"),
    (["model", "beta", "theta"], -1, "model.beta: beta.theta must be > 0"),
    (["model", "beta", "n"], 0.5, "model.beta: beta.n must be >= 1"),
    (["model", "beta"], {"form": "hill", "beta0": 0.3, "theta": 2.0, "n": 1e6},
     "model.beta: beta.n is too large"),
    (["model", "beta", "beta0"], -1, "model.beta: beta must be nonnegative"),
    (["model", "beta", "beta0"], {"poly": [0.5, -2]}, "model.beta: beta must be nonnegative"),
    (["model", "beta"], {"form": "constant", "beta0": -0.1},
     "model.beta: beta must be nonnegative"),
    (["model", "k", "kappa"], -1, "model.k: division kernel k must be nonnegative"),
    (["model", "k"], {"form": "separable", "density": {"poly": [-1]}},
     "model.k: division kernel k must be nonnegative"),
    (["model", "k", "taper"], 0, "model.k: kernel taper fraction"),
]


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(tmp_path, *args):
    return main(["--out", str(tmp_path / "out"), *args])


def experiment_config(kind, **keys):
    """BASE_CONFIG with the experiment section of ``kind`` and only the run keys
    that ``kind`` reads: the seed, and the history unless it solves none of its own."""
    cfg = copy.deepcopy(BASE_CONFIG)
    run_keys = ("seed",) if kind in ("positivity", "resolvent") else ("seed", "history")
    cfg["run"] = {key: cfg["run"][key] for key in run_keys}
    cfg["experiment"] = {"kind": kind, **keys}
    return cfg


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

    @pytest.mark.parametrize("keys, value, equivalent, seed", [
        # a sum of terms is the profile they add up to
        (["run", "history"], {"kind": "sum", "terms": [
            {"kind": "constant", "value": 0.2}, {"kind": "poly_m", "coeffs": [0.0, 0.5]}]},
         {"kind": "poly_m", "coeffs": [0.2, 0.5]}, None),
        # a separable kernel with density 1 is the uniform one on [1, 2]
        (["model", "k"], {"form": "separable", "kappa": 1.0, "density": {"poly": [1.0]}},
         {"form": "uniform", "kappa": 1.0}, None),
        # --seed 7 stands in for run.seed 7
        (["run", "seed"], 0, 7, "7"),
    ])
    def test_vocabulary_matches_its_equivalent(self, tmp_path, keys, value, equivalent,
                                               seed):
        tables = []
        for given, args in ((value, [] if seed is None else ["--seed", seed]),
                            (equivalent, [])):
            cfg = copy.deepcopy(BASE_CONFIG)
            cfg["run"]["history"] = {"kind": "random", "level": 0.1}
            cfg[keys[0]][keys[1]] = given
            out = tmp_path / f"out{len(tables)}"
            assert main(["--out", str(out), *args, "run", write_config(tmp_path, cfg)]) == 0
            tables.append((out / "solution.csv").read_bytes())
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("command", ["check", "run"])
    def test_curved_maturity_table(self, tmp_path, command):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["model"]["g"] = {"table": CURVED_G}
        assert run_cli(tmp_path, command, write_config(tmp_path, cfg)) == 0


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
        cfg = (copy.deepcopy(BASE_CONFIG) if experiment is None
               else experiment_config(**experiment))
        (tmp_path / "file").write_text("")
        bad = tmp_path / "file" / "out"
        assert main(["--out", str(bad), *args, write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out: ") and str(bad) in err

    def test_rejected_experiment_config_makes_no_out_dir(self, tmp_path, capsys):
        cfg = experiment_config("extinction", b=0.2)
        cfg["run"]["bogus"] = 1
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
        cfg, args = copy.deepcopy(BASE_CONFIG), ["run"]
        if section == "experiment":
            cfg, args = experiment_config(command), ["experiment", command]
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
        # each law reads every key it accepts: no form reads a Lipschitz
        # constant, the constant form no Hill shape, a table no closed form
        (["model", "beta"], {"form": "hill", "beta0": 0.3, "lipschitz": 0.3},
         "model.beta.lipschitz", "check"),
        (["model", "beta"], {"form": "constant", "beta0": 0.3, "theta": 1.0},
         "model.beta.theta", "check"),
        (["model", "beta"], {"form": "constant", "beta0": 0.3, "n": 2.0},
         "model.beta.n", "check"),
        (["model", "velocity"],
         {"table": {"m": [0.0, 0.25, 0.5, 1.0], "V": [0.0, 0.25, 0.5, 1.0]}, "alpha": 1.0},
         "model.velocity.alpha", "check"),
        (["model", "velocity"],
         {"table": {"m": [0.0, 0.25, 0.5, 1.0], "V": [0.0, 0.25, 0.5, 1.0]}, "p": 2.0},
         "model.velocity.p", "check"),
        (["model", "g"],
         {"table": {"m": [0.0, 0.25, 0.5, 1.0], "g": [0.0, 0.125, 0.25, 0.5]}, "c": 0.5},
         "model.g.c", "check"),
        # check reads the grid as run does
        (["grid"], {"m_nodes": "abc", "bogus": 1}, "grid.bogus", "check"),
        (["model", "velocity"], {"p": 2.0}, "model.velocity.alpha: required key missing",
         "check"),
        (["model", "delta"], {"const": 0.1, "poly": [0.1]},
         "model.delta: give either const or poly", "check"),
        (["model", "velocity"],
         {"table": {"m": [0.0, 0.25, 0.5, 1.0], "V": [0.0, 0.25, 0.5]}},
         "model.velocity.table: m and V must match", "check"),
        (["experiment"], None, "experiment: section required", "positivity"),
        # a law's own checks refuse under the law's path
        (["model", "velocity"],
         {"table": {"m": [0.0, 0.25, 0.5, 1.0], "V": [0.1, 0.25, 0.5, 1.0]}},
         "model.velocity: velocity must vanish at m = 0", "check"),
        (["model", "g"],
         {"table": {"m": [0.0, 0.25, 0.5, 0.75, 1.0], "g": [0.0, 0.3, 0.35, 0.4, 0.5]}},
         "model.g: g(m) < m must hold", "check"),
        (["model", "velocity"], {"alpha": -1.0}, "model.velocity: velocity.alpha", "check"),
        (["model", "g"], {"c": 1.5}, "model.g: maturity map fraction c", "run"),
        (["model", "tau_lower"], -1.0, "model.tau_lower: must be positive", "check"),
        *[(keys, value, path, command) for keys, value, path in PART_REFUSALS
          for command in ("check", "run")],
    ])
    def test_malformed_section_names_path(self, tmp_path, capsys, keys, value,
                                          path, command):
        if command in ("run", "check"):
            cfg, args = copy.deepcopy(BASE_CONFIG), [command]
        else:
            cfg, args = experiment_config(command), ["experiment", command]
        node = cfg
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
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
        cfg, args = copy.deepcopy(BASE_CONFIG), ["run"]
        if command != "run":
            cfg, args = experiment_config(command), ["experiment", command]
        cfg[keys[0]][keys[1]] = value
        assert run_cli(tmp_path, *args, write_config(tmp_path, cfg)) == 2
        assert capsys.readouterr().err.startswith(f"error: {'.'.join(keys)}")

    @pytest.mark.parametrize("command", ["run", "picard-rate"])
    def test_horizon_counts_the_warmup_band(self, tmp_path, capsys, monkeypatch, command):
        # 96 main nodes fit 1 GiB of slices to T = 6e4, main plus band (191
        # nodes) do not: refused before the warmup, which would make the band
        def reached(*args, **kwargs):
            raise AssertionError("a horizon too long for main plus band was not refused")
        for target in ("hemaflow.solver.Solver.start", "hemaflow.solver.Solver.warmup"):
            monkeypatch.setattr(target, reached)
        if command == "run":
            cfg = copy.deepcopy(BASE_CONFIG)
            cfg["run"]["horizon"] = 6e4
            args, path = ["run"], "run.horizon"
        else:
            cfg = experiment_config(command, horizon=6e4)
            args, path = ["experiment", command], "experiment.horizon"
        cfg["run"]["history"] = {"kind": "warmup", "Gamma": 0.2}
        assert run_cli(tmp_path, *args, write_config(tmp_path, cfg)) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("kind, keys", [
        ("picard-rate", {}),
        ("positivity", {"n_runs": 1}),
        ("uniqueness", {"b": 0.2, "perturbation": {"kind": "bump", "center": 0.35,
                                                   "width": 0.09, "amplitude": 0.3}}),
        ("extinction", {"b": 0.2}),
        ("invariance", {"b": 0.2}),
    ])
    def test_unset_horizon_is_checked_before_the_work(self, tmp_path, capsys, monkeypatch,
                                                      kind, keys):
        # at a cap of 1e5 bytes no default horizon fits 96 nodes (t_bar + 2
        # tau_upper or 5 tau_upper): refused by key before the warmup and the out dir
        def reached(*args, **kwargs):
            raise AssertionError("an unset horizon above the slice cap was not refused")
        for target in ("hemaflow.solver.Solver.start", "hemaflow.solver.Solver.warmup"):
            monkeypatch.setattr(target, reached)
        monkeypatch.setattr("hemaflow.solver.MAX_SLICE_BYTES", 1e5)
        cfg = experiment_config(kind, **keys)
        if kind != "positivity":            # positivity solves histories of its own
            cfg["run"]["history"] = {"kind": "warmup", "Gamma": 0.2}
        assert run_cli(tmp_path, "experiment", kind, write_config(tmp_path, cfg)) == 2
        assert capsys.readouterr().err.startswith("error: experiment.horizon (unset, so ")
        assert not (tmp_path / "out").exists()

    def test_unset_horizon_of_an_invariance_run_that_skips_is_not_checked(
            self, tmp_path, capsys, monkeypatch):
        # the margin fails at beta0 = 1: the run solves nothing and reports it
        monkeypatch.setattr("hemaflow.solver.MAX_SLICE_BYTES", 1e5)
        cfg = experiment_config("invariance", b=0.2)
        cfg["model"]["beta"]["beta0"] = 1.0
        assert run_cli(tmp_path, "experiment", "invariance", write_config(tmp_path, cfg)) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["skipped"] is True

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

    def test_root_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        assert run_cli(tmp_path, "check", str(path)) == 2
        assert capsys.readouterr().err.startswith("error: config: expected an object")

    def test_missing_config_file(self, tmp_path):
        assert run_cli(tmp_path, "check", str(tmp_path / "nope.json")) == 2

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli(tmp_path, "check", str(path)) == 2
        # not UTF-8, nested past the recursion limit, a key given twice: each
        # exits 2 naming the file, never with a traceback
        for text, names in ((b'{"model": "\xff"}', "utf-8"),
                            (b'{"model": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",
                             "recursion"),
                            (b'{"model": 1, "model": 2}', "'model'")):
            path.write_bytes(text)
            capsys.readouterr()
            for command in ("check", "run"):
                assert run_cli(tmp_path, command, str(path)) == 2
                err = capsys.readouterr().err
                assert err.startswith(f"error: {path}: ") and names in err


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
MUTATION_GRID = {"m_nodes": 8, "dt_divisor": 2}


def _experiment_base(kind, history, **keys):
    run = {"seed": 0} if history is None else {"seed": 0, "history": history}
    return (("experiment", kind),
            {"model": MUTATION_MODEL, "grid": MUTATION_GRID, "run": run,
             "experiment": {"kind": kind, **keys}})


MUTATION_BUMP = {"kind": "bump", "center": 0.35, "width": 0.09, "amplitude": 0.3}
MUTATION_BASES = (
    (("check",), {"model": MUTATION_MODEL}),
    # the laws given by a table or a density reach their leaves too
    (("check",), {"model": dict(MUTATION_MODEL, g={"table": CURVED_G}, k={
        "form": "separable", "kappa": 1.0, "density": {"poly": [0.5, 0.5]}})}),
    (("run",), {"model": MUTATION_MODEL, "grid": MUTATION_GRID,
                "run": {"horizon": 2.0, "emit": ["N", "P"], "seed": 0,
                        "history": {"kind": "warmup", "Gamma": 0.2,
                                    "N0": {"const": 0.5}}}}),
    _experiment_base("uniqueness", {"kind": "constant", "value": 0.5}, b=0.2,
                     perturbation=MUTATION_BUMP, horizon=3.0),
    _experiment_base("extinction", {"kind": "zero"}, b=0.2,
                     control={"kind": "constant", "value": 0.5}, horizon=3.0),
    _experiment_base("invariance", {"kind": "constant", "value": 0.5}, b=0.2,
                     horizon=3.0),
    _experiment_base("positivity", None, n_runs=1, horizon=3.0),
    _experiment_base("resolvent", None, n_w=1, lambdas=[1.0]),
    _experiment_base("picard-rate", {"kind": "poly_m", "coeffs": [0.3, 0.7]},
                     horizon=3.0),
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
        # each leaf of a check, a run and each experiment kind's config (8
        # nodes) takes each bad value in turn: the CLI runs (0), refuses the
        # config (2), reports a solver failure (3) or a failed verdict (4), and
        # never raises nor prints numpy's floating-point warnings first
        for command, base in MUTATION_BASES:
            assert run_cli(tmp_path, *command, write_config(tmp_path, base)) == 0
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
                        code = run_cli(tmp_path, *command, write_config(tmp_path, cfg))
                    except Exception as exc:  # noqa: BLE001 - the defect under test
                        code = repr(exc)
                    if code not in (0, 2, 3, 4):
                        escaped.append((command, ".".join(map(str, path)), bad, code))
        capsys.readouterr()
        assert not escaped, escaped


def _fuzz_config(rng) -> dict:
    """A run config drawn with every key at once: power-law V, Hill beta, 8-16
    nodes, tau_upper a whole number of steps past tau_lower, and a random,
    constant or warmup history."""
    dt_divisor = int(rng.integers(1, 9))
    tau_lower = float(rng.uniform(0.2, 2.0))
    tau_upper = tau_lower * (dt_divisor + int(rng.integers(1, 2 * dt_divisor + 1))) / dt_divisor
    history = [{"kind": "random", "level": float(rng.uniform(0.01, 1.0))},
               {"kind": "constant", "value": float(rng.uniform(0.0, 2.0))},
               {"kind": "warmup", "Gamma": float(rng.uniform(0.0, 0.5)),
                "N0": {"const": float(rng.uniform(0.0, 1.0))}}][int(rng.integers(3))]
    emit = ["N", "P", "residuals"]
    rng.shuffle(emit)
    return {
        "model": {
            "velocity": {"alpha": float(np.exp(rng.uniform(np.log(0.05), np.log(20.0)))),
                         "p": float(rng.uniform(1.0, 3.0))},
            "g": {"c": float(rng.uniform(0.01, 0.99))},
            "delta": float(rng.uniform(0.0, 0.2)),
            "gamma": float(rng.uniform(0.0, 0.3)),
            "beta": {"form": "hill", "beta0": float(rng.uniform(0.0, 2.0)),
                     "theta": float(rng.uniform(0.2, 3.0)), "n": float(rng.uniform(1.0, 4.0))},
            "k": {"form": "uniform", "kappa": float(rng.uniform(0.2, 2.0))},
            "tau_lower": tau_lower,
            "tau_upper": tau_upper,
        },
        "grid": {"m_nodes": int(rng.integers(8, 17)), "dt_divisor": dt_divisor},
        "run": {"horizon": tau_upper + float(rng.uniform(0.0, 3.0)),
                "emit": emit[:int(rng.integers(1, 4))], "seed": int(rng.integers(100)),
                "history": history},
    }


class TestConfigFuzz:
    def test_many_keys_at_once_exit_cleanly(self, tmp_path, capsys, monkeypatch):
        # seeded configs that change every key together: each runs (0), is
        # refused (2), fails in the solver (3) or a verdict (4), and none
        # raises out of main; both running and refusing occur. A small c
        # gives a warmup's band ~1e5 nodes: an 8 MB slice cap keeps each
        # run small, and a run past it is refused by name
        monkeypatch.setattr("hemaflow.solver.MAX_SLICE_BYTES", 2 ** 23)
        rng = np.random.default_rng(15)
        codes, escaped = [], []
        for n in range(40):
            cfg = _fuzz_config(rng)
            try:
                code = run_cli(tmp_path, "run", write_config(tmp_path, cfg))
            except Exception as exc:  # noqa: BLE001 - the defect under test
                code = repr(exc)
            codes.append(code)
            if code not in (0, 2, 3, 4):
                escaped.append((n, cfg, code))
        capsys.readouterr()
        assert not escaped, escaped
        assert {0, 2} <= set(codes), codes


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

    @pytest.mark.parametrize("alpha", [2.0, 5.0, 20.0])
    def test_steep_velocity_table(self, tmp_path, capsys, alpha):
        # V = alpha*m on 5 rows passes the divergence screen; with g = m/2
        # every crossing takes ln(2)/alpha
        cfg = copy.deepcopy(BASE_CONFIG)
        m = [0.0, 0.25, 0.5, 0.75, 1.0]
        cfg["model"]["velocity"] = {"table": {"m": m, "V": [alpha * x for x in m]}}
        assert run_cli(tmp_path, "check", write_config(tmp_path, cfg)) == 0
        tau0 = float(capsys.readouterr().out.splitlines()[1].split(":")[1])
        assert tau0 == pytest.approx(np.log(2.0) / alpha, abs=1e-9)

    def test_constant_beta(self, tmp_path, capsys):
        # l is the sup of beta0 over [0, g(1)], here beta0(0)
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["model"]["beta"] = {"form": "constant", "beta0": {"poly": [0.3, -0.2]}}
        assert run_cli(tmp_path, "check", write_config(tmp_path, cfg)) == 0
        assert "lipschitz l       : 0.3\n" in capsys.readouterr().out

    @staticmethod
    def _digest(tmp_path, capsys, part, table):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["model"][part] = {"table": table}
        assert run_cli(tmp_path, "check", write_config(tmp_path, cfg)) == 0
        return capsys.readouterr().out.splitlines()[0]

    def test_model_digest_tells_tables_apart(self, tmp_path, capsys):
        m = [0.0, 0.25, 0.5, 0.75, 1.0]
        velocities = [self._digest(tmp_path, capsys, "velocity",
                                   {"m": m, "V": [a * x for x in m]}) for a in (2, 5, 20, 5)]
        maps = [self._digest(tmp_path, capsys, "g", {"m": m, "g": [c * x for x in m]})
                for c in (0.3, 0.5, 0.3)]
        assert velocities[0].startswith("model digest")
        # equal tables, built twice, agree
        assert len(set(velocities[:3])) == 3 and velocities[3] == velocities[1]
        assert maps[0] != maps[1] and maps[2] == maps[0]


class TestCheckAgreesWithRun:
    """``check`` builds the model and grid as ``run`` does: the same refusals,
    named by key, and a model that runs is one that checks."""

    @staticmethod
    def _both(tmp_path, capsys, cfg):
        """(exit code, stderr) of run, then of check, and check's stdout."""
        path = write_config(tmp_path, cfg)
        out = []
        for command in ("run", "check"):
            code = run_cli(tmp_path, command, path)
            captured = capsys.readouterr()
            out.append((code, captured.err))
        return out, captured.out

    @staticmethod
    def _steep(c):
        # V = 5 m^2: the crossing-time supremum diverges, and a small g(1)
        # makes a wide band, which a warmup history carries
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["model"]["velocity"] = {"alpha": 5.0, "p": 2.0}
        cfg["model"]["g"] = {"c": c}
        cfg["grid"] = {"m_nodes": 16, "dt_divisor": 4}
        cfg["run"]["history"] = {"kind": "warmup", "Gamma": 0.1, "N0": {"poly": [0.45, 0.1]}}
        return cfg

    def test_a_grid_step_that_misses_tau_upper_names_dt_divisor(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["model"]["tau_upper"] = 2.1
        results, _ = self._both(tmp_path, capsys, cfg)
        for code, err in results:
            assert code == 2
            assert err.startswith("error: grid.dt_divisor: dt must divide tau_upper")

    def test_an_unbounded_tau0_checks_as_inf(self, tmp_path, capsys):
        (run, check), out = self._both(tmp_path, capsys, self._steep(0.05))
        assert run == (0, "") and check == (0, "")
        lines = out.splitlines()
        assert lines[1].split(":")[1].strip() == "inf"
        assert lines[2].startswith("tau_lower > tau0  : NO")
        assert "lipschitz l       : 0.3\n" in out and "decay floor I     : 0.05\n" in out
        # an experiment that needs tau0 refuses by its precondition
        cfg = experiment_config("uniqueness", b=0.01,
                                perturbation={"kind": "constant", "value": 0.1})
        cfg["model"], cfg["grid"] = (self._steep(0.05)[key] for key in ("model", "grid"))
        assert run_cli(tmp_path, "experiment", "uniqueness", write_config(tmp_path, cfg)) == 2
        assert capsys.readouterr().err.startswith(
            "error: stem-cell horizon needs tau_lower > tau0 (tau_lower = 1, tau0 = inf)")

    def test_a_band_past_the_cap_names_m_nodes(self, tmp_path, capsys):
        results, _ = self._both(tmp_path, capsys, self._steep(0.01))
        for code, err in results:
            assert code == 2
            assert err.startswith("error: grid.m_nodes: the solve would hold")

    def test_a_velocity_table_that_fails_the_screen_names_its_path(self, tmp_path, capsys):
        m = [0.0] + np.logspace(-12, 0, 60).tolist()
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["model"]["velocity"] = {"table": {"m": m, "V": np.sqrt(m).tolist()}}
        results, _ = self._both(tmp_path, capsys, cfg)
        for code, err in results:
            assert code == 2
            assert err.startswith("error: model.velocity: custom velocity fails the "
                                  "divergence screen")

    @pytest.mark.parametrize("velocity", [
        {"table": {"m": [i / 16 for i in range(17)], "V": [i / 16 for i in range(17)]}},
        {"alpha": 1.0, "p": 1.0}])
    def test_one_velocity_check_and_one_table_per_command(self, tmp_path, capsys,
                                                          monkeypatch, velocity):
        from hemaflow import params
        calls = {"validate_velocity": 0, "adaptive_panels": 0}
        for name in calls:
            def counted(*args, _f=getattr(params, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(params, name, counted)
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["model"]["velocity"] = velocity
        path = write_config(tmp_path, cfg)
        tables = 1 if "table" in velocity else 0
        for command in ("run", "check"):
            calls.update(validate_velocity=0, adaptive_panels=0)
            assert run_cli(tmp_path, command, path) == 0
            assert calls == {"validate_velocity": 1, "adaptive_panels": tables}
        capsys.readouterr()


class TestExperimentCommand:
    def test_extinction_passes_and_reports_horizon(self, tmp_path):
        cfg = experiment_config("extinction", b=0.2,
                                control={"kind": "constant", "value": 0.5})
        cfg["run"]["history"] = {"kind": "bump", "center": 0.35,
                                 "width": 0.09, "amplitude": 1.0}
        cfg_path = write_config(tmp_path, cfg)
        assert run_cli(tmp_path, "experiment", "extinction", cfg_path) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["verdict"] is True
        assert report["t_bar"] == pytest.approx(np.log(2.5) + 6.0, rel=1e-9)
        assert (tmp_path / "out" / "population.csv").exists()

    def test_uniqueness_profile_artifacts(self, tmp_path):
        cfg = experiment_config("uniqueness", b=0.2,
                                perturbation={"kind": "bump", "center": 0.35,
                                              "width": 0.09, "amplitude": 0.3})
        cfg["run"]["history"] = {"kind": "constant", "value": 0.5}
        cfg_path = write_config(tmp_path, cfg)
        assert run_cli(tmp_path, "experiment", "uniqueness", cfg_path) == 0
        profile = np.loadtxt(tmp_path / "out" / "divergence.csv",
                             delimiter=",", skiprows=1)
        assert profile.shape[1] == 2
        assert np.max(profile[:, 1]) > 0.0

    def test_uniqueness_on_a_warmup_history(self, tmp_path):
        # the warmup carries a band, which the histories' scale reads too
        cfg = experiment_config("uniqueness", b=0.2,
                                perturbation={"kind": "bump", "center": 0.35,
                                              "width": 0.09, "amplitude": 0.3})
        cfg["run"]["history"] = {"kind": "warmup", "Gamma": 0.2, "N0": 0.5}
        assert run_cli(tmp_path, "experiment", "uniqueness",
                       write_config(tmp_path, cfg)) == 0
        assert json.loads((tmp_path / "out" / "report.json").read_text())["verdict"]

    def test_uniqueness_precondition_exit_2(self, tmp_path, capsys):
        cfg = experiment_config("uniqueness", b=0.2,
                                perturbation={"kind": "bump", "center": 0.15,
                                              "width": 0.1, "amplitude": 0.3})
        cfg["run"]["history"] = {"kind": "constant", "value": 0.5}
        cfg_path = write_config(tmp_path, cfg)
        assert run_cli(tmp_path, "experiment", "uniqueness", cfg_path) == 2
        assert "agreement below b" in capsys.readouterr().err

    def test_invariance_skip_exits_zero(self, tmp_path):
        cfg = experiment_config("invariance", b=0.2)
        cfg["model"]["beta"]["beta0"] = 2.5
        cfg["run"]["history"] = {"kind": "constant", "value": 0.5}
        cfg_path = write_config(tmp_path, cfg)
        assert run_cli(tmp_path, "experiment", "invariance", cfg_path) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["skipped"] is True

    def test_kind_mismatch_exit_2(self, tmp_path):
        cfg = experiment_config("extinction", b=0.2)
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

    def test_resolvent_command(self, tmp_path, capsys):
        cfg = experiment_config("resolvent", lambdas=[0.5, 2.0], n_w=5)
        cfg_path = write_config(tmp_path, cfg)
        assert run_cli(tmp_path, "experiment", "resolvent", cfg_path) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report == {"kind": "resolvent", "n_w": 5, "lambdas": [0.5, 2.0],
                          "verdict": True, "checks": 10}
        text = (tmp_path / "out" / "report.txt").read_text()
        assert text == "resolvent: 10 checks, verdict PASS\n" == capsys.readouterr().out

    @pytest.mark.parametrize("kind, key, value", [
        ("uniqueness", "n_runs", 2),
        ("extinction", "perturbation", {"kind": "zero"}),
        ("invariance", "control", {"kind": "zero"}),
        ("positivity", "b", 0.2),
        ("resolvent", "horizon", 5.0),
        ("picard-rate", "lambdas", [1.0]),
    ])
    def test_key_of_another_kind_exit_2(self, tmp_path, capsys, kind, key, value):
        cfg = experiment_config(kind, **{key: value})
        assert run_cli(tmp_path, "experiment", kind, write_config(tmp_path, cfg)) == 2
        assert capsys.readouterr().err.startswith(f"error: experiment.{key}: unknown key")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, key, value", [
        (kind, key, value)
        for kind in ("uniqueness", "extinction", "invariance", "positivity", "resolvent",
                     "picard-rate")
        for key, value in (("horizon", 5.0), ("emit", ["N"]), ("warmup", {"Gamma": 0.2}),
                           ("history", {"kind": "bogus"}))
        # the kinds that solve a given history read run.history
        if key != "history" or kind in ("positivity", "resolvent")])
    def test_run_key_the_kind_does_not_read_exit_2(self, tmp_path, capsys, kind, key,
                                                   value):
        cfg = experiment_config(kind)
        cfg["run"][key] = value
        assert run_cli(tmp_path, "experiment", kind, write_config(tmp_path, cfg)) == 2
        assert capsys.readouterr().err.startswith(f"error: run.{key}: unknown key")
        assert not (tmp_path / "out").exists()

    def test_picard_rate_command(self, tmp_path):
        cfg = experiment_config("picard-rate")
        cfg["run"]["history"] = {"kind": "poly_m", "coeffs": [0.3, 0.7]}
        cfg_path = write_config(tmp_path, cfg)
        assert run_cli(tmp_path, "experiment", "picard-rate", cfg_path) == 0

    def test_positivity_command(self, tmp_path):
        cfg = experiment_config("positivity", n_runs=2, horizon=5.0)
        cfg_path = write_config(tmp_path, cfg)
        assert run_cli(tmp_path, "experiment", "positivity", cfg_path) == 0
