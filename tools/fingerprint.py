"""Print sha256 digests of the solver's outputs as one JSON object.

Two checkouts that print the same JSON computed the same numbers bit for
bit. The inputs are the benchmark's own (``perfbench/workload.py``,
imported, never copied), so the digests cover what the benchmark runs:

* ``ref_solve``: the 512 x 64, T = 10 solve of ``random_nonneg_history(0)``
  (N, per-window iterations and Picard deltas, ``residual_stats``);
* ``positivity``: ``exp_positivity`` per-run records (beta0 = 1, 512 x 64,
  2 runs, T = 10);
* ``uniqueness``: the ``exp_uniqueness`` divergence profile (192 x 16);
* ``band_solve``: a solve with c = 0.3 that needs the upper band (N and the
  band's N);
* ``cli_run``: every file the benchmark's seed-0 ``hemaflow run`` writes
  (its P is reconstructed on main plus band);
* ``proliferating``: P reconstructed on a field without a band (the
  ``ref_solve`` model and history on the ``cli_run`` grid, T = 6, an
  age-dependent Gamma);
* ``tables``: a model read by the CLI's builder with a tabulated V
  (m + m^2 / 2, 17 rows) and a linear tabulated g (c = 0.5, 5 rows), solved
  on 64 x 8 to T = 5 (N, tau0, Lipschitz l, invariance lhs, flow nodes);
* ``warmup``: the warmup history alone (main and band) for the benchmark's
  seed-0 ``hemaflow run`` model and grid, with a Gamma that depends on age;
* ``experiments``: ``to_dict()`` and the profile of ``exp_extinction`` with a
  control and of ``exp_invariance`` (the acceptance models, on 128 x 16).

Run from the root of a checkout; it imports that checkout's ``src``:

    python3 tools/fingerprint.py > parent.json      # in the parent checkout
    python3 tools/fingerprint.py | diff parent.json -   # in the change checkout

The JSON holds one digest per line, so ``diff`` prints each digest that
differs and exits 1 if any does.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import hemaflow as hf  # noqa: E402
from hemaflow import experiments as xp  # noqa: E402
from hemaflow.cli import build_params, main as cli_main  # noqa: E402
from workload import REFERENCE_SEED, SIZES, cli_config, reference_params  # noqa: E402


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray)
                 else json.dumps(p, sort_keys=True).encode())
    return h.hexdigest()


def ref_solve() -> dict:
    spec = SIZES["full"]["ref_solve"]
    solver = hf.Solver(reference_params(0.3), m_nodes=spec["m_nodes"],
                       dt_divisor=spec["dt_divisor"])
    hist = hf.InitialHistory.from_callable(
        xp.random_nonneg_history(REFERENCE_SEED), solver.grid)
    field = solver.solve(hist, spec["T"])
    windows = field.metadata["windows"]
    return {"N": _sha(field.N),
            "iterations": _sha([w["iterations"] for w in windows]),
            "deltas": _sha([[float.hex(d) for d in w["deltas"]] for w in windows]),
            "residual_stats": _sha({k: float.hex(float(v)) for k, v in
                                    solver.residual_stats(field).items()})}


def positivity() -> str:
    spec = SIZES["full"]["history_sweep"]
    solver = hf.Solver(reference_params(1.0), m_nodes=spec["m_nodes"],
                       dt_divisor=spec["dt_divisor"])
    rep = xp.exp_positivity(solver, n_runs=spec["n_runs"], seed=REFERENCE_SEED,
                            horizon=spec["T"])
    return _sha([{k: float.hex(float(v)) for k, v in run.items()} for run in rep.per_run])


def uniqueness() -> str:
    solver = hf.Solver(reference_params(1.0), m_nodes=192, dt_divisor=16)
    phi1 = xp.random_nonneg_history(REFERENCE_SEED)
    bump = xp.smooth_bump(0.35, 0.09, 0.4)
    rep = xp.exp_uniqueness(solver, phi1, lambda t, m: phi1(t, m) + bump(m), 0.2)
    return _sha(rep.times, rep.divergence)


def band_solve() -> dict:
    params = reference_params(0.3)
    params = dataclasses.replace(params, maturity=hf.LinearMaturityMap(c=0.3))
    solver = hf.Solver(params, m_nodes=128, dt_divisor=16)
    phi = xp.random_nonneg_history(REFERENCE_SEED)
    hist = hf.InitialHistory.from_callable(phi, solver.grid, upper=phi)
    field = solver.solve(hist, 6.0)
    return {"N": _sha(field.N), "upper_N": _sha(field.upper.N)}


def cli_run() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w") as fh:
            json.dump(cli_config(REFERENCE_SEED, SIZES["full"]["cli_run"]), fh)
        out = os.path.join(tmp, "out")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(["--out", out, "run", cfg])
        digests = {"exit": rc}
        for name in sorted(os.listdir(out)):
            path = os.path.join(out, name)
            if name.endswith(".npz"):
                # the archive's bytes carry write times: digest its arrays
                with np.load(path) as data:
                    for key in sorted(data.files):
                        digests[f"{name}:{key}"] = _sha(data[key])
                continue
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def proliferating() -> str:
    spec = SIZES["full"]["cli_run"]
    solver = hf.Solver(reference_params(0.3), m_nodes=spec["m_nodes"],
                       dt_divisor=spec["dt_divisor"])
    hist = hf.InitialHistory.from_callable(
        xp.random_nonneg_history(REFERENCE_SEED), solver.grid)
    field = solver.solve(hist, spec["T"])
    data = hf.WarmupData(Gamma=lambda m, a: (1.0 + m) * np.exp(-0.7 * np.asarray(a)),
                         N0=lambda m: 0.0 * m)
    solver.proliferating(field, data.Gamma)
    assert field.upper is None
    return _sha(field.P)


def tables() -> dict:
    cfg = cli_config(REFERENCE_SEED, SIZES["full"]["cli_run"])
    m = [i / 16 for i in range(17)]
    cfg["model"]["velocity"] = {"table": {"m": m, "V": [v + 0.5 * v * v for v in m]}}
    cfg["model"]["g"] = {"table": {"m": m[::4], "g": [0.5 * v for v in m[::4]]}}
    solver = hf.Solver(build_params(cfg), m_nodes=64, dt_divisor=8)
    hist = hf.InitialHistory.from_callable(
        xp.random_nonneg_history(REFERENCE_SEED), solver.grid)
    field = solver.solve(hist, 5.0)
    return {"N": _sha(field.N), "tau0": float.hex(solver.flow.tau0()),
            "lipschitz_l": float.hex(solver.kern.lipschitz_l()),
            "invariance_lhs": float.hex(solver.kern.invariance_margin().lhs),
            "x_nodes": _sha(solver.grid.x_nodes)}


def warmup() -> dict:
    spec = SIZES["full"]["cli_run"]
    solver = hf.Solver(build_params(cli_config(REFERENCE_SEED, spec)),
                       m_nodes=spec["m_nodes"], dt_divisor=spec["dt_divisor"])
    data = hf.WarmupData(Gamma=lambda m, a: (0.1 + m) * np.exp(-0.7 * np.asarray(a)),
                         N0=lambda m: 0.5 - 0.2 * m)
    hist = solver.warmup(data)
    return {"values": _sha(hist.values), "upper": _sha(hist.upper)}


def experiments() -> dict:
    solver = hf.Solver(reference_params(1.8), m_nodes=128, dt_divisor=16)
    bump = xp.smooth_bump(0.35, 0.09, 1.0)
    ext = xp.exp_extinction(solver, lambda t, m: bump(m) * (1.0 + 0.1 * np.sin(t)), 0.2,
                            control_phi=lambda t, m: bump(m) + 0.5 + 0.0 * t)
    params = dataclasses.replace(reference_params(0.2),
                                 rates=hf.RateFunctions(delta=1.2, gamma=0.0))
    bump = xp.smooth_bump(0.35, 0.09, 2.0)
    inv = xp.exp_invariance(hf.Solver(params, m_nodes=128, dt_divisor=16),
                            lambda t, m: 0.1 + bump(m) + 0.0 * t, 0.2)
    assert not inv.skipped
    return {"extinction": _sha(ext.to_dict(), ext.sup_profile),
            "invariance": _sha(inv.to_dict(), inv.sup_ratio)}


def main() -> int:
    result = {"ref_solve": ref_solve(), "positivity": positivity(),
              "uniqueness": uniqueness(), "band_solve": band_solve(),
              "cli_run": cli_run(), "proliferating": proliferating(),
              "tables": tables(), "warmup": warmup(), "experiments": experiments()}
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
