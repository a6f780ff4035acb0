"""One hemaflow workload, run in a fresh process by ``run.py``.

The process sets up (imports, model, Solver, inputs), prints ``READY`` so
that the parent can time set-up from the outside, then runs units in a
closed loop: one caller, one unit at a time, no thread pool, for about
``--seconds``: a unit starts only if at least half of one still fits.
A fixed calibration workload runs before the first unit and after each
one, so that every unit's time can be read against the host's speed at
that moment. Each unit's output is checked outside its timed region.
The last stdout line is a JSON summary for the parent.

Unit 0 always takes the reference input (seed 0) and later units the input
drawn from ``--seed``. The accuracy guard ``residual_median`` and the
per-layer numbers are read from unit 0, so they compare like with like
across seeds: residuals of different random histories span more than an
order of magnitude.

Only the public API is called: no ``threads=``, no ``eval_G``/``eval_J``,
no private solver methods.

    python3 perfbench/workload.py --workload ref_solve --seed 1 --seconds 10
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE_SEED = 0

# grid sizes; "tiny" serves the self-test only
SIZES = {
    "full": {
        "ref_solve": {"m_nodes": 512, "dt_divisor": 64, "T": 10.0},
        "fine_solve": {"m_nodes": 2048, "dt_divisor": 512, "T": 4.0},
        "history_sweep": {"m_nodes": 512, "dt_divisor": 64, "T": 10.0, "n_runs": 2},
        "cli_run": {"m_nodes": 512, "dt_divisor": 64, "T": 6.0},
    },
    "tiny": {
        "ref_solve": {"m_nodes": 64, "dt_divisor": 8, "T": 4.0},
        "fine_solve": {"m_nodes": 128, "dt_divisor": 16, "T": 4.0},
        "history_sweep": {"m_nodes": 64, "dt_divisor": 8, "T": 4.0, "n_runs": 2},
        "cli_run": {"m_nodes": 64, "dt_divisor": 8, "T": 4.0},
    },
}

TAU_LOWER, TAU_UPPER = 1.0, 2.0


def reference_params(beta0: float):
    """V = m, g = m/2, tau in [1, 2], Hill reintroduction, uniform kernel."""
    import hemaflow as hf
    return hf.ModelParams(
        velocity=hf.PowerLawVelocity(alpha=1.0, p=1.0),
        maturity=hf.LinearMaturityMap(c=0.5),
        rates=hf.RateFunctions(delta=0.05, gamma=0.1),
        reintroduction=hf.HillReintroduction(beta0=beta0, theta=1.0, n=1.0),
        division=hf.SeparableUniformKernel(tau_lower=TAU_LOWER, tau_upper=TAU_UPPER))


def calibrate() -> float:
    """Seconds for a fixed mix of the solver's kinds of work, run next to
    every unit: scipy PCHIP builds and evaluations at 512 points, NumPy
    arithmetic on small arrays and a plain Python loop.

    It touches no hemaflow code, so it costs the same on every commit and
    measures only how fast the host runs at that moment.
    """
    import numpy as np
    from scipy.interpolate import PchipInterpolator
    x = np.linspace(0.0, 1.0, 512)
    y, xq = 2.0 + np.sin(7.0 * x), 0.99 * x
    a = np.random.default_rng(0).random((16, 512))
    t0 = time.perf_counter()
    for _ in range(200):
        PchipInterpolator(x, y, extrapolate=False)(xq)
        (np.exp(-a) * a + 1.0).sum(axis=0)
        acc = 0
        for j in range(300):
            acc += j
    return time.perf_counter() - t0


def solved_node_steps(times_size: int, nodes: int, n_history: int) -> int:
    """Slices solved past the history, times maturity nodes."""
    return (times_size - (n_history + 1)) * nodes


class _Workload:
    """setup in __init__; run(k) is timed; check(k, out) is not."""

    def input_seed(self, k: int) -> int:
        return REFERENCE_SEED if k == 0 else self.seed

    def probe(self):
        """Residual median from an extra untimed solve, if units give none."""
        return None

    def close(self):
        pass


class SolveWorkload(_Workload):
    """ref_solve and fine_solve: one Solver.solve of one history per unit."""

    def __init__(self, spec: dict, seed: int):
        import hemaflow as hf
        from hemaflow import experiments as xp
        self.seed = seed
        self.T = spec["T"]
        self.solver = hf.Solver(reference_params(0.3), m_nodes=spec["m_nodes"],
                                dt_divisor=spec["dt_divisor"])
        self.histories = {s: hf.InitialHistory.from_callable(
            xp.random_nonneg_history(s), self.solver.grid)
            for s in {REFERENCE_SEED, seed}}

    def run(self, k: int):
        return self.solver.solve(self.histories[self.input_seed(k)], self.T)

    def check(self, k: int, field):
        import numpy as np
        from hemaflow import experiments as xp
        ok = bool(np.all(np.isfinite(field.N))) and xp.picard_rate_check(field).verdict
        grid = self.solver.grid
        steps = solved_node_steps(field.times.size, field.m.size, grid.n_history)
        residual = self.solver.residual_stats(field)["median"] if k == 0 else None
        return ok, steps, residual


class SweepWorkload(_Workload):
    """history_sweep: exp_positivity over a few seeded histories per unit."""

    def __init__(self, spec: dict, seed: int):
        import hemaflow as hf
        self.seed = seed
        self.T = spec["T"]
        self.n_runs = spec["n_runs"]
        self.solver = hf.Solver(reference_params(1.0), m_nodes=spec["m_nodes"],
                                dt_divisor=spec["dt_divisor"])

    def run(self, k: int):
        from hemaflow import experiments as xp
        return xp.exp_positivity(self.solver, n_runs=self.n_runs,
                                 seed=self.input_seed(k), horizon=self.T)

    def check(self, k: int, report):
        grid = self.solver.grid
        ok = bool(report.verdict) and report.n_runs == self.n_runs
        per_solve = round((self.T - grid.tau_upper) / grid.dt) * grid.m_nodes.size
        return ok, self.n_runs * per_solve, None

    def probe(self):
        import hemaflow as hf
        from hemaflow import experiments as xp
        hist = hf.InitialHistory.from_callable(
            xp.random_nonneg_history(REFERENCE_SEED), self.solver.grid)
        field = self.solver.solve(hist, self.T)
        return self.solver.residual_stats(field)["median"]


def cli_config(seed: int, spec: dict) -> dict:
    """A run config drawn from ``seed``: tabulated V = m, warmup history.

    ``run.history.Gamma`` equals ``run.warmup.Gamma`` and the grid fields
    are plain integers, so fixes to how the CLI reads either leave the
    computed workload unchanged.
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    gamma = float(rng.uniform(0.05, 0.15))
    n0 = [float(rng.uniform(0.3, 0.6)), float(rng.uniform(-0.2, 0.2))]
    table = [i / 16 for i in range(17)]
    return {
        "model": {
            "velocity": {"table": {"m": table, "V": table}},
            "g": {"c": 0.5},
            "delta": 0.05,
            "gamma": 0.1,
            "beta": {"form": "hill", "beta0": 0.8, "theta": 1.0, "n": 1.0},
            "k": {"form": "uniform", "kappa": 1.0, "taper": 0.02},
            "tau_lower": TAU_LOWER,
            "tau_upper": TAU_UPPER,
        },
        "grid": {"m_nodes": int(spec["m_nodes"]), "dt_divisor": int(spec["dt_divisor"])},
        "run": {
            "horizon": spec["T"],
            "emit": ["N", "P", "residuals"],
            "seed": int(seed),
            "history": {"kind": "warmup", "Gamma": gamma, "N0": {"poly": n0}},
            "warmup": {"Gamma": gamma},
        },
    }


class CliWorkload(_Workload):
    """cli_run: hemaflow.cli.main(["--out", dir, "run", cfg]) in-process."""

    def __init__(self, spec: dict, seed: int):
        import hemaflow.cli  # noqa: F401  (set-up is the import alone)
        self.seed = seed
        self.spec = spec
        self.work = os.path.join(OUT_DIR, f"cli-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.configs = {}
        for s in {REFERENCE_SEED, seed}:
            path = os.path.join(self.work, f"config-{s}.json")
            with open(path, "w") as fh:
                json.dump(cli_config(s, spec), fh)
            self.configs[s] = path
        self._x_expected = None

    def _out(self, k: int) -> str:
        return os.path.join(self.work, f"unit-{k}")

    def run(self, k: int):
        import hemaflow.cli
        with contextlib.redirect_stdout(io.StringIO()):
            return hemaflow.cli.main(["--out", self._out(k), "run",
                                      self.configs[self.input_seed(k)]])

    def expected_x(self):
        """Flow-coordinate nodes of the config's grid, built with the library."""
        if self._x_expected is None:
            import hemaflow as hf
            from scipy.interpolate import PchipInterpolator
            cfg = cli_config(REFERENCE_SEED, self.spec)
            tab = cfg["model"]["velocity"]["table"]
            interp = PchipInterpolator(tab["m"], tab["V"])
            flow = hf.FlowMap(hf.CustomVelocity(V=interp, V_prime=interp.derivative(),
                                                name="table"),
                              hf.LinearMaturityMap(c=0.5))
            grid = hf.Grid.build(flow, TAU_LOWER, TAU_UPPER,
                                 m_nodes=self.spec["m_nodes"],
                                 dt_divisor=self.spec["dt_divisor"])
            self._x_expected = grid.x_nodes
        return self._x_expected

    def check(self, k: int, rc):
        import numpy as np
        from hemaflow import SolutionField
        out = self._out(k)
        try:
            if rc != 0:
                return False, 0, None
            # the CSV carries no x (known defect: from_csv sets x = m), so x
            # is compared on the npz reload only
            csv = SolutionField.from_csv(os.path.join(out, "solution.csv"))
            npz = SolutionField.load(os.path.join(out, "solution"))
            ok = (np.array_equal(csv.N, npz.N) and np.array_equal(csv.times, npz.times)
                  and np.array_equal(csv.m, npz.m) and np.array_equal(csv.P, npz.P)
                  and np.array_equal(npz.x, self.expected_x())
                  and bool(np.all(np.isfinite(npz.N))) and bool(np.all(np.isfinite(npz.P))))
            n_history = round(TAU_UPPER * self.spec["dt_divisor"] / TAU_LOWER)
            steps = solved_node_steps(npz.times.size, npz.m.size, n_history)
            residual = None
            if k == 0:
                with open(os.path.join(out, "residuals.json")) as fh:
                    residual = float(json.load(fh)["median"])
            return bool(ok), steps, residual
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def make_workload(name: str, spec: dict, seed: int) -> _Workload:
    if name in ("ref_solve", "fine_solve"):
        return SolveWorkload(spec, seed)
    if name == "history_sweep":
        return SweepWorkload(spec, seed)
    if name == "cli_run":
        return CliWorkload(spec, seed)
    raise ValueError(f"unknown workload {name!r}")


def _check_program() -> None:
    """Refuse to run against anything but the checkout's own sources."""
    src = os.path.join(ROOT, "src")
    import hemaflow
    if os.path.commonpath([os.path.abspath(hemaflow.__file__), src]) != src:
        raise SystemExit(f"hemaflow imported from {hemaflow.__file__}, not {src}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    _check_program()
    wl = make_workload(args.workload, SIZES[args.size][args.workload], args.seed)
    print("READY", flush=True)
    if args.setup_only:
        wl.close()
        print(json.dumps({"cal_s": calibrate()}), flush=True)
        return 0

    units, residual = [], None
    start = time.perf_counter()
    cal_before = calibrate()
    while True:
        k = len(units)
        if tracer is not None:
            tracer.unit = k
        error = None
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            out = wl.run(k)
        except Exception:
            error = traceback.format_exc()
        w1, c1 = time.perf_counter(), time.process_time()
        cal_after = calibrate()
        if tracer is not None:
            tracer.unit = f"check{k}"
        ok, steps = False, 0
        if error is None:
            try:
                ok, steps, res = wl.check(k, out)
                if k == 0:
                    residual = res
            except Exception:
                error = traceback.format_exc()
        if error is not None and all(u["ok"] for u in units):
            print(f"unit {k} failed:\n{error}", file=sys.stderr)
        units.append({"wall_s": w1 - w0, "cpu_s": c1 - c0, "ok": ok,
                      "node_steps": steps, "cal_s": 0.5 * (cal_before + cal_after)})
        cal_before = cal_after
        # start another unit only if at least half of one still fits
        typical = statistics.median(u["wall_s"] for u in units)
        if time.perf_counter() - start + 0.5 * typical >= args.seconds:
            break
    if tracer is not None:
        tracer.unit = "probe"
    if residual is None and units[0]["ok"]:
        residual = wl.probe()
    wl.close()

    result = {"units": units, "residual_median": residual, "setup_cal_s": units[0]["cal_s"],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        from spans import per_layer_metrics
        metrics, absent = per_layer_metrics(tracer, {"setup", 0}, {"check0"})
        result["per_layer"] = metrics
        result["absent"] = absent
        tracer.write(os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
