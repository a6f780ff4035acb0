"""Self-test of the benchmark at tiny grid sizes (two to three minutes).

Run from the checkout root:

    python3 perfbench/selftest.py

Every workload must run correctly and report every metric that
BENCHMARK.json names, with its unit. Two traced runs with the same seed
must repeat their work counts and the accuracy guard exactly. A hook
whose target is gone must leave its metrics absent, not crash.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402  (perfbench/ is on sys.path as the script's directory)
import spans  # noqa: E402

SEED = 5
REPEATED = ("solver.picard_iterations", "solver.interp.builds", "experiments.solves")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return [w["name"] for w in spec["workloads"]], e2e, layers


def _assert_units(metrics, declared, where):
    for name, unit in declared.items():
        assert name in metrics, f"{where}: {name} missing"
        assert metrics[name]["unit"] == unit, f"{where}: {name} unit {metrics[name]['unit']}"


def check_workloads() -> None:
    workloads, e2e, layers = _declared()
    assert tuple(workloads) == run.WORKLOADS, workloads
    for w in run.WORKLOADS + run.MANUAL:
        r, correct = run.run(w, SEED, 1.0, 0, size="tiny")
        assert correct and r["failed"] == 0, f"{w}: untraced run not correct"
        _assert_units(r["metrics"], e2e, f"{w} trace 0")
        first, correct = run.run(w, SEED, 1.0, 1, size="tiny")
        assert correct and not first["absent"], f"{w}: traced run {first['absent']}"
        _assert_units(first["metrics"], layers, f"{w} trace 1")
        second, _ = run.run(w, SEED, 1.0, 1, size="tiny")
        for name in REPEATED:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            assert a == b, f"{w}: {name} {a} then {b}"
        assert first["residual_median"] == second["residual_median"], w
        print(f"ok  {w}")


def check_missing_hook() -> None:
    """A renamed target resolves to nothing; its metrics become absent."""
    assert spans._resolve("hemaflow.solver.Solver._j_sweep") is not None
    assert spans._resolve("hemaflow.solver.Solver._no_such_method") is None
    assert spans._resolve("hemaflow.solver.NoSuchClass.lookup") is None
    tracer = spans.Tracer()
    tracer.missing.update({"hemaflow.solver.Solver._j_sweep",
                           "hemaflow.solver.HistoryField.lookup"})
    metrics, absent = spans.per_layer_metrics(tracer, {"setup", 0}, {"check0"})
    assert set(absent) == {"solver.j_sweep.s", "solver.j_sweep.calls",
                           "solver.ring_lookup.s", "solver.ring_lookup.calls"}, absent
    assert "solver.window.s" in metrics
    print("ok  missing hooks")


if __name__ == "__main__":
    check_missing_hook()
    check_workloads()
    print("selftest passed")
