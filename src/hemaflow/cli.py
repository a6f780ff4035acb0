"""Command line interface: config ingestion, run orchestration, reports.

Three subcommands:

* ``run <config>``                solve and emit the solution table,
* ``experiment <kind> <config>``  run one verification experiment,
* ``check <config>``              validate the model and grid and print the
                                  model constants (tau0, Lipschitz l, margin).

The configuration is a single strict JSON document: unknown keys are
rejected with their path so that a misspelled rate cannot silently fall
back to a default. Exit codes: 0 pass or skip, 2 configuration or
precondition failure, 3 solver failure (non-convergence or non-finite
values), 4 verdict failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import experiments as xp
from .cubic import HermiteCubic
from .errors import ConfigurationError, ConvergenceError, HemaflowError
from .kernels import Kernels
from .params import (ConstantReintroduction, CustomMaturityMap,
                     CustomVelocity, HillReintroduction, LinearMaturityMap,
                     ModelParams, PowerLawVelocity, RateFunctions,
                     SeparableKernel, SeparableUniformKernel, as_field,
                     validate_maturity_map, validate_velocity)
from .solver import InitialHistory, Solver, WarmupData, check_slice_bytes

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERDICT = 4

MAX_RUNS = 1000           # experiment.n_runs: one full solve per run
MAX_W = 10000             # experiment.n_w: one resolvent check per lambda each

# each experiment kind: the experiment keys it reads besides ``kind``, the run
# keys it reads, and the profile CSV it writes as (file, report attribute,
# header), if any; positivity and resolvent solve no given history
_SEEDED = ("seed",)
_HISTORY = ("seed", "history")
EXPERIMENTS = {
    "uniqueness": (("b", "perturbation", "horizon"), _HISTORY,
                   ("divergence.csv", "divergence", "t,sup_diff")),
    "extinction": (("b", "control", "horizon"), _HISTORY,
                   ("population.csv", "sup_profile", "t,sup_N")),
    "invariance": (("b", "horizon"), _HISTORY, ("ratio.csv", "sup_ratio", "t,sup_ratio")),
    "positivity": (("n_runs", "horizon"), _SEEDED, None),
    "resolvent": (("lambdas", "n_w"), _SEEDED, None),
    "picard-rate": (("horizon",), _HISTORY, None),
}


# ---------------------------------------------------------------------------
# strict config validation
# ---------------------------------------------------------------------------

def _object(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{path}: expected an object, got {obj!r}")
    return obj


def _reject_unknown(obj: dict, allowed, path: str, why: str = "unknown key") -> None:
    for key in _object(obj, path):
        if key not in allowed:
            raise ConfigurationError(f"{path}.{key}: {why}")


def _need(obj: dict, key: str, path: str):
    if key not in _object(obj, path):
        raise ConfigurationError(f"{path}.{key}: required key missing")
    return obj[key]


def _number(val, path: str) -> float:
    if not isinstance(val, (int, float)) or isinstance(val, bool) \
            or not math.isfinite(val):
        raise ConfigurationError(f"{path}: expected a number, got {val!r}")
    return float(val)


def _integer(val, path: str, minimum: int, maximum: float = math.inf) -> int:
    if isinstance(val, bool) or not (
            isinstance(val, int) or (isinstance(val, float) and val.is_integer())):
        raise ConfigurationError(f"{path}: expected an integer, got {val!r}")
    if val < minimum:
        raise ConfigurationError(f"{path}: must be at least {minimum}, got {val!r}")
    if val > maximum:
        raise ConfigurationError(f"{path}: must be at most {maximum}, got {val!r}")
    return int(val)


def _named(path: str, check, *args):
    """``check(*args)``, naming ``path`` when it refuses."""
    try:
        return check(*args)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}")


def _horizon(val, solver: Solver, path: str, band: bool) -> float:
    """A horizon whose solve fits the slice cap, the band's nodes counted for
    a history with a ``band``."""
    T, grid = _number(val, path), solver.grid
    size = (grid.x_full if band else grid.x_nodes).size
    _named(path, check_slice_bytes, size, grid.n_window, grid.tau_lower, T)
    return T


def _numbers(val, path: str) -> np.ndarray:
    """A nonempty list of finite numbers."""
    if not (isinstance(val, list) and val and
            all(isinstance(c, (int, float)) and not isinstance(c, bool)
                and math.isfinite(c) for c in val)):
        raise ConfigurationError(f"{path}: expected a list of numbers, got {val!r}")
    return np.asarray(val, dtype=float)


def _poly(coeffs, path: str):
    arr = _numbers(coeffs, path)

    def f(m):
        m = np.asarray(m, dtype=float)
        out = np.zeros(m.shape)
        for c in arr[::-1]:
            out = out * m + c
        return out
    return f


def _scalar_field(spec, path: str):
    """A constant or polynomial-in-m field from config."""
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return _number(spec, path)
    if isinstance(spec, dict):
        _reject_unknown(spec, {"const", "poly"}, path)
        if "const" in spec and "poly" in spec:
            raise ConfigurationError(f"{path}: give either const or poly, not both")
        if "const" in spec:
            return _number(spec["const"], f"{path}.const")
        if "poly" in spec:
            return _poly(spec["poly"], f"{path}.poly")
    raise ConfigurationError(f"{path}: expected a number, {{const}}, or {{poly}}")


def _table(spec, columns, path: str, increasing) -> list:
    """Columns of a tabulated law: equal-length number lists, at least 4 rows,
    those named in ``increasing`` strictly increasing."""
    _reject_unknown(spec, set(columns), path)
    cols = [_numbers(_need(spec, c, path), f"{path}.{c}") for c in columns]
    if any(c.size != cols[0].size for c in cols) or cols[0].size < 4:
        raise ConfigurationError(
            f"{path}: {' and '.join(columns)} must match, length >= 4")
    for name, col in zip(columns, cols):
        if name in increasing and not (np.diff(col) > 0.0).all():
            raise ConfigurationError(f"{path}.{name}: must be strictly increasing")
    return cols


def _build_velocity(spec: dict, path: str):
    """The velocity law; a refusal by its own checks names ``path``."""
    if "table" in _object(spec, path):
        _reject_unknown(spec, {"table"}, path, "not read next to a table")
        m, v = _table(spec["table"], ("m", "V"), f"{path}.table", ("m",))
        interp = HermiteCubic(m, v)
        law = CustomVelocity(V=interp, V_prime=interp.derivative(), name="table")
    else:
        _reject_unknown(spec, {"alpha", "p"}, path)
        alpha = _number(_need(spec, "alpha", path), f"{path}.alpha")
        law = _named(path, PowerLawVelocity, alpha, _number(spec.get("p", 1.0), f"{path}.p"))
    _named(path, validate_velocity, law)
    return law


def _build_maturity(spec: dict, path: str):
    """The division map; a refusal by its own checks names ``path``."""
    if "table" in _object(spec, path):
        _reject_unknown(spec, {"table"}, path, "not read next to a table")
        m, gv = _table(spec["table"], ("m", "g"), f"{path}.table", ("m", "g"))
        law = CustomMaturityMap(g=HermiteCubic(m, gv), name="table")
    else:
        _reject_unknown(spec, {"c"}, path)
        law = _named(path, LinearMaturityMap, _number(_need(spec, "c", path), f"{path}.c"))
    _named(path, validate_maturity_map, law)
    return law


def _build_beta(spec: dict, path: str):
    form = _need(spec, "form", path)
    if form == "custom":
        # callables are not expressible in JSON; reject with the contract's
        # reason so a missing Lipschitz declaration surfaces as config error
        raise ConfigurationError(
            f"{path}: custom reintroduction laws need library construction "
            "with a declared Lipschitz constant")
    if form not in ("hill", "constant"):
        raise ConfigurationError(f"{path}.form: unknown form {form!r}")
    _reject_unknown(spec, ("form", "beta0") + (("theta", "n") if form == "hill" else ()),
                    path, f"not read by form {form}")
    if form == "hill":
        return HillReintroduction(
            beta0=_scalar_field(spec.get("beta0", 1.0), f"{path}.beta0"),
            theta=_number(spec.get("theta", 1.0), f"{path}.theta"),
            n=_number(spec.get("n", 1.0), f"{path}.n"))
    return ConstantReintroduction(beta0=_scalar_field(spec.get("beta0", 0.0), f"{path}.beta0"))


def _build_kernel(spec: dict, tau_lower: float, tau_upper: float, path: str):
    _reject_unknown(spec, {"form", "kappa", "density", "taper"}, path)
    form = spec.get("form", "uniform")
    kappa = _scalar_field(spec.get("kappa", 1.0), f"{path}.kappa")
    taper = _number(spec.get("taper", 0.02), f"{path}.taper")
    if form == "uniform":
        if "density" in spec:
            raise ConfigurationError(f"{path}.density: not allowed for uniform form")
        return SeparableUniformKernel(tau_lower=tau_lower, tau_upper=tau_upper,
                                      kappa=kappa, taper=taper)
    if form == "separable":
        dens = spec.get("density")
        if not isinstance(dens, dict) or "poly" not in dens:
            raise ConfigurationError(f"{path}.density: expected {{poly: [...]}}")
        rho = _poly(dens["poly"], f"{path}.density.poly")
        return SeparableKernel(tau_lower=tau_lower, tau_upper=tau_upper,
                               kappa=kappa, age_density=rho, taper=taper)
    raise ConfigurationError(f"{path}.form: unknown form {form!r}")


def build_params(cfg: dict) -> ModelParams:
    model = _need(cfg, "model", "config")
    _reject_unknown(model, {"velocity", "g", "delta", "gamma", "beta", "k",
                            "tau_lower", "tau_upper"}, "model")
    tau_lower = _number(_need(model, "tau_lower", "model"), "model.tau_lower")
    tau_upper = _number(_need(model, "tau_upper", "model"), "model.tau_upper")
    if not tau_lower < tau_upper:
        raise ConfigurationError(
            "model.tau_lower: must be strictly below model.tau_upper")
    return ModelParams(
        velocity=_build_velocity(_need(model, "velocity", "model"), "model.velocity"),
        maturity=_build_maturity(_need(model, "g", "model"), "model.g"),
        rates=RateFunctions(
            delta=_scalar_field(model.get("delta", 0.0), "model.delta"),
            gamma=_scalar_field(model.get("gamma", 0.0), "model.gamma")),
        reintroduction=_build_beta(_need(model, "beta", "model"), "model.beta"),
        division=_build_kernel(model.get("k", {}), tau_lower, tau_upper, "model.k"))


def build_grid(cfg: dict, params: ModelParams) -> dict:
    """Solver size arguments whose history fits the slice cap (m_nodes is
    checked at the coarsest step, dt_divisor at the given m_nodes)."""
    grid = cfg.get("grid", {})
    _reject_unknown(grid, {"m_nodes", "dt_divisor"}, "grid")
    m_nodes = _integer(grid.get("m_nodes", 512), "grid.m_nodes", 8)
    dt_divisor = _integer(grid.get("dt_divisor", 64), "grid.dt_divisor", 1)
    _named("grid.m_nodes", check_slice_bytes, m_nodes, 1, params.tau_lower, params.tau_upper)
    _named("grid.dt_divisor", check_slice_bytes, m_nodes, dt_divisor, params.tau_lower,
           params.tau_upper)
    return {"m_nodes": m_nodes, "dt_divisor": dt_divisor}


# ---------------------------------------------------------------------------
# history construction
# ---------------------------------------------------------------------------

def _history_profile(spec: dict, path: str):
    """Maturity profile callable from one history term."""
    kind = _need(spec, "kind", path)
    if kind == "zero":
        _reject_unknown(spec, {"kind"}, path)
        return lambda m: np.zeros(np.shape(m))
    if kind == "constant":
        _reject_unknown(spec, {"kind", "value"}, path)
        v = _number(_need(spec, "value", path), f"{path}.value")
        return lambda m: np.full(np.shape(m), v)
    if kind == "poly_m":
        _reject_unknown(spec, {"kind", "coeffs"}, path)
        return _poly(_need(spec, "coeffs", path), f"{path}.coeffs")
    if kind == "bump":
        _reject_unknown(spec, {"kind", "center", "width", "amplitude"}, path)
        return xp.smooth_bump(
            _number(_need(spec, "center", path), f"{path}.center"),
            _number(_need(spec, "width", path), f"{path}.width"),
            _number(_need(spec, "amplitude", path), f"{path}.amplitude"))
    if kind == "sum":
        _reject_unknown(spec, {"kind", "terms"}, path)
        terms = _need(spec, "terms", path)
        if not isinstance(terms, list):
            raise ConfigurationError(f"{path}.terms: expected a list of terms")
        terms = [_history_profile(t, f"{path}.terms[{i}]")
                 for i, t in enumerate(terms)]
        return lambda m: sum(f(m) for f in terms)
    raise ConfigurationError(f"{path}.kind: unknown history kind {kind!r}")


def _warmup_data(spec, path: str) -> WarmupData:
    """Constant-or-polynomial age data (Gamma, N0), each defaulting to 0."""
    _reject_unknown(spec, {"Gamma", "N0"}, path)
    gamma = as_field(_scalar_field(spec.get("Gamma", 0.0), f"{path}.Gamma"))
    n0 = as_field(_scalar_field(spec.get("N0", 0.0), f"{path}.N0"))
    return WarmupData(Gamma=lambda m, a: gamma(m) + 0.0 * np.asarray(a), N0=n0)


def _is_warmup(spec) -> bool:
    """Whether the history spec is a warmup, the one history with a band."""
    return isinstance(spec, dict) and spec.get("kind") == "warmup"


def build_history(spec: dict, solver: Solver, seed: int, path: str = "run.history"):
    """A random or warmup history, or a maturity profile from
    ``_history_profile`` with an optional time factor."""
    kind = _need(spec, "kind", path)
    if kind == "random":
        _reject_unknown(spec, {"kind", "level"}, path)
        phi = xp.random_nonneg_history(
            seed, level=_number(spec.get("level", 0.05), f"{path}.level"))
        return InitialHistory.from_callable(phi, solver.grid)
    if kind == "warmup":
        return solver.warmup(_warmup_data(
            {k: v for k, v in spec.items() if k != "kind"}, path))
    tf = spec.get("time_factor")
    profile = _history_profile({k: v for k, v in spec.items() if k != "time_factor"},
                               path)
    if tf is None:
        phi = lambda t, m: profile(m) + 0.0 * np.asarray(t)
    else:
        _reject_unknown(tf, {"amplitude", "omega", "phase"}, f"{path}.time_factor")
        amp = _number(tf.get("amplitude", 0.0), f"{path}.time_factor.amplitude")
        omega = _number(tf.get("omega", 1.0), f"{path}.time_factor.omega")
        phase = _number(tf.get("phase", 0.0), f"{path}.time_factor.phase")
        phi = lambda t, m: profile(m) * (1.0 + amp * np.sin(omega * np.asarray(t) + phase))
    return InitialHistory.from_callable(phi, solver.grid)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    def unique_keys(pairs):             # a key given twice is refused, not overwritten
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, object_pairs_hook=unique_keys)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except (ValueError, RecursionError) as exc:
        # not UTF-8, not JSON, nested past the recursion limit, or a key twice
        raise ConfigurationError(f"{path}: cannot read as JSON: {exc}")
    _reject_unknown(cfg, {"model", "grid", "run", "experiment"}, "config")
    return cfg


def _make_solver(cfg: dict) -> Solver:
    params = build_params(cfg)
    return Solver(params, **build_grid(cfg, params))


def _run_section(cfg: dict, allowed) -> dict:
    """The run section, holding only keys that the command reads."""
    run = cfg.get("run", {})
    _reject_unknown(run, allowed, "run")
    return run


def _run_seed(run: dict, seed_override) -> int:
    if seed_override is None:
        return _integer(run.get("seed", 0), "run.seed", 0)
    return _integer(seed_override, "--seed", 0)


def _make_out(out_dir: Path) -> None:
    """Create the output directory; one that cannot be made exits 2 as --out."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"--out: {exc}")


def cmd_run(cfg: dict, out_dir: Path, seed_override=None) -> int:
    """Solve the config's run and write ``solution.csv``, ``solution.npz``,
    ``solution.meta.json`` and, with ``residuals`` in ``run.emit``,
    ``residuals.json`` to ``out_dir``. The directory is made once every
    config key has been read, before the solve. The CSV is formatted on a
    one-thread executor while this thread compresses the npz and samples the
    residuals (zlib releases the GIL); the worker has ended before return or
    raise, and what it raised is raised here, in place of any error here."""
    from concurrent.futures import ThreadPoolExecutor
    solver = _make_solver(cfg)
    run = _run_section(cfg, ("horizon", "emit", "seed", "history", "warmup"))
    hist_spec = run.get("history", {"kind": "zero"})
    warmup_history = _is_warmup(hist_spec)
    horizon = _horizon(run.get("horizon", 5.0 * solver.grid.tau_upper), solver,
                       "run.horizon", warmup_history)
    seed = _run_seed(run, seed_override)
    emit = run.get("emit", ["N"])
    if not (isinstance(emit, list) and
            all(e in ("N", "P", "residuals") for e in emit)):
        raise ConfigurationError("run.emit: expected a list drawn from [N, P, residuals]")
    if "residuals" in emit and solver.grid.steps_to(horizon) < 2:
        raise ConfigurationError(f"run.horizon: {horizon:g} is below tau_upper + 2 dt, "
                                 "the least horizon for residuals in run.emit")
    # P reads only Gamma, so run.warmup holds nothing else
    warmup = run.get("warmup", {})
    _reject_unknown(warmup, {"Gamma"}, "run.warmup")
    gamma = _warmup_data(warmup, "run.warmup").Gamma
    if warmup_history:
        # P is rebuilt with the Gamma that made the history
        given = {k: v for k, v in hist_spec.items() if k != "kind"}
        const = lambda g: g.get("const", g) if isinstance(g, dict) else g
        if "Gamma" in warmup and const(warmup["Gamma"]) != const(given.get("Gamma", 0.0)):
            raise ConfigurationError(
                "run.warmup.Gamma: differs from run.history.Gamma, the Gamma that "
                "made the warmup history; give it once, in run.history")
        gamma = _warmup_data(given, "run.history").Gamma
    history = build_history(hist_spec, solver, seed)
    _make_out(out_dir)

    t0 = time.perf_counter()
    field = solver.solve(history, horizon)
    if "P" in emit:
        field = solver.proliferating(field, gamma)
    wall = time.perf_counter() - t0

    csv_path = out_dir / "solution.csv"
    with ThreadPoolExecutor(max_workers=1) as pool:
        csv = pool.submit(field.to_csv, csv_path)
        try:
            field.save(out_dir / "solution")
            if "residuals" in emit:
                stats = solver.residual_stats(field)
                with open(out_dir / "residuals.json", "w") as fh:
                    json.dump(stats, fh, indent=2)
        finally:
            csv.result()
    meta = field.metadata
    print(f"wrote {csv_path}")
    print(f"  N in [{field.N.min():.6g}, {field.N.max():.6g}]  "
          f"slices {field.times.size} x nodes {field.m.size}")
    print(f"  windows {len(meta['windows'])}, max Picard iterations "
          f"{meta['max_iterations']}, wall {wall:.2f} s")
    return EXIT_OK


def _experiment_section(cfg: dict, kind: str) -> dict:
    """The experiment section: ``kind``, if given, must be the command's, and
    the other keys must be ones that ``kind`` reads."""
    exp = cfg.get("experiment")
    if exp is None:
        raise ConfigurationError("experiment: section required for this command")
    cfg_kind = _object(exp, "experiment").get("kind", kind)
    if cfg_kind != kind:
        raise ConfigurationError(
            f"experiment.kind: config says {cfg_kind!r} but the command asked "
            f"for {kind!r}")
    _reject_unknown(exp, ("kind",) + EXPERIMENTS[kind][0], "experiment")
    return exp


def _plus_profile(history: InitialHistory, spec, solver: Solver, path: str):
    """``history`` plus the maturity profile ``spec`` at every slice; a band
    is kept as it is."""
    profile = _history_profile(spec, path)
    return InitialHistory(values=history.values + profile(solver.grid.m_nodes)[None, :],
                          upper=None if history.upper is None else history.upper.copy())


def _experiment_call(kind: str, exp: dict, cfg: dict, run: dict, seed: int):
    """Read every key the experiment ``kind`` reads; the zero-argument call
    that runs it."""
    solver = _make_solver(cfg)
    if kind == "resolvent":
        lambdas = _numbers(exp.get("lambdas", [0.1, 1.0, 10.0]), "experiment.lambdas")
        n_w = _integer(exp.get("n_w", 100), "experiment.n_w", 1, MAX_W)
        return lambda: xp.resolvent_sweep(solver.flow, lambdas, n_w, seed)
    hist_spec = run.get("history", {"kind": "zero"})
    b = (_number(_need(exp, "b", "experiment"), "experiment.b")
         if "b" in EXPERIMENTS[kind][0] else None)
    horizon, path = exp.get("horizon"), "experiment.horizon"
    # an unset horizon is checked too, unless the run solves nothing: an
    # invariance run whose margin fails only reports it
    if horizon is None and (kind != "invariance"
                            or solver.kern.invariance_margin().satisfied):
        horizon = xp.default_horizon(solver, b)
        path = f"experiment.horizon (unset, so {horizon:g})"
    if horizon is not None:
        horizon = _horizon(horizon, solver, path, _is_warmup(hist_spec))
    if kind == "positivity":
        n_runs = _integer(exp.get("n_runs", 20), "experiment.n_runs", 1, MAX_RUNS)
        return lambda: xp.exp_positivity(solver, n_runs=n_runs, seed=seed,
                                         horizon=horizon)
    history = build_history(hist_spec, solver, seed)
    if kind == "picard-rate":
        return lambda: xp.picard_rate_check(solver.solve(history, horizon))
    if kind == "uniqueness":
        phi2 = _plus_profile(history, _need(exp, "perturbation", "experiment"), solver,
                             "experiment.perturbation")
        return lambda: xp.exp_uniqueness(solver, history, phi2, b, horizon=horizon)
    if kind == "extinction":
        control = None if "control" not in exp else _plus_profile(
            history, exp["control"], solver, "experiment.control")
        return lambda: xp.exp_extinction(solver, history, b, control_phi=control,
                                         horizon=horizon)
    return lambda: xp.exp_invariance(solver, history, b, horizon=horizon)


def cmd_experiment(kind: str, cfg: dict, out_dir: Path, seed_override=None) -> int:
    """Run one verification experiment and write its profile CSV, if the kind
    has one, and its report to ``out_dir``, made once every config key has
    been read."""
    exp = _experiment_section(cfg, kind)
    run = _run_section(cfg, EXPERIMENTS[kind][1])
    experiment = _experiment_call(kind, exp, cfg, run, _run_seed(run, seed_override))
    _make_out(out_dir)
    report = experiment()
    skipped = getattr(report, "skipped", False)
    profile = EXPERIMENTS[kind][2]
    if profile is not None and not skipped:
        name, attr, header = profile
        _write_profile(out_dir / name, report.times, getattr(report, attr), header)
    xp.write_report(report, out_dir / "report.json", out_dir / "report.txt")
    print(report.to_text())
    return EXIT_OK if skipped or report.verdict else EXIT_VERDICT


def _write_profile(path, times, values, header):
    np.savetxt(path, np.column_stack([times, values]), fmt="%.17g",
               delimiter=",", header=header, comments="")


def cmd_check(cfg: dict) -> int:
    params = build_params(cfg)
    build_grid(cfg, params)
    kern = Kernels(params)
    tau0 = kern.flow.tau0()
    margin = kern.invariance_margin()
    ok = params.tau_lower > tau0
    print(f"model digest      : {params.digest()}")
    print(f"tau0              : {tau0:.9g}")
    print(f"tau_lower > tau0  : {'yes' if ok else 'NO'} "
          f"(tau_lower = {params.tau_lower:g})")
    print(f"lipschitz l       : {margin.l:.9g}")
    print(f"decay floor I     : {margin.I:.9g}")
    print(f"zeta_tilde        : {margin.zeta_tilde:.9g}")
    print(f"invariance lhs    : {margin.lhs:.9g}")
    print(f"margin satisfied  : {'yes' if margin.satisfied else 'no'}"
          + (f"  ({margin.note})" if margin.note else ""))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hemaflow",
        description="maturity-structured blood cell production model")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="solve and emit the solution table")
    p_run.add_argument("config")
    p_exp = sub.add_parser("experiment", help="run a verification experiment")
    p_exp.add_argument("kind", choices=EXPERIMENTS)
    p_exp.add_argument("config")
    p_chk = sub.add_parser("check", help="validate config and print constants")
    p_chk.add_argument("config")

    args = parser.parse_args(argv)
    # every non-finite result exits 2 or 3 by name, so numpy's floating-point
    # warnings on the way there would only repeat it
    try:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            cfg = _load_config(args.config)
            if args.command == "run":
                return cmd_run(cfg, Path(args.out), seed_override=args.seed)
            if args.command == "experiment":
                return cmd_experiment(args.kind, cfg, Path(args.out),
                                      seed_override=args.seed)
            return cmd_check(cfg)
    except ConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (HemaflowError, OSError) as exc:
        # a config, domain or precondition error, or an unwritable output file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
