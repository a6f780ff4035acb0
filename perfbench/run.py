"""hemaflow benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the root of a checkout; hemaflow is imported from its ``src``.

    python3 perfbench/run.py --workload ref_solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1          # every listed workload in turn
    python3 perfbench/run.py --workload fine_solve --seed 1   # not listed

Each workload runs in fresh processes (``workload.py``), one caller, one
unit at a time. ``--trace 0`` times set-up in several fresh processes and
reports the end-to-end metrics; their times are read against a
calibration workload run next to them (see CAL_REF_S), and the raw
seconds are printed too. ``--trace 1`` runs the same workload untraced
and then traced, for half of ``--seconds`` each, and reports the
per-layer metrics (raw seconds and counts) plus the tracing overhead.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.

``failed_frac`` (failed units over attempted units) is printed with the
table; in the JSON it is carried by ``failed`` and ``attempted``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOAD_PY = os.path.join(HERE, "workload.py")

# the workloads BENCHMARK.json lists; fine_solve runs only when named
WORKLOADS = ("ref_solve", "history_sweep", "cli_run")
MANUAL = ("fine_solve",)
SETUP_SAMPLES = 5          # fresh processes timed per run; the median is reported
DEADLINE_S = 170.0         # a run must end within 180 s

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "node_steps_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "residual_median": ("abs", "lower"),
}
# On a shared host the CPU's speed can drift by a third within minutes,
# which moves raw medians more than any bound allows. So every time is
# read against the calibration workload run next to it
# (workload.calibrate) and reported in seconds at the speed where that
# calibration takes CAL_REF_S; the raw seconds are printed with the table.
CAL_REF_S = 0.060
OVERHEAD = ("trace.overhead_frac", "frac")


class BenchError(RuntimeError):
    pass


def _spawn(args, deadline):
    """Run workload.py; return (seconds from spawn to READY, its JSON or None)."""
    # no bytecode cache: every process compiles hemaflow alike, and the
    # checkout stays clean
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKLOAD_PY, *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], deadline - time.perf_counter())
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError(f"workload process failed during set-up: {' '.join(args)}")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process timed out: {' '.join(args)}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}: {' '.join(args)}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def _at_ref(seconds, cal_s):
    """Seconds at the machine speed where the calibration takes CAL_REF_S."""
    return seconds * CAL_REF_S / cal_s


def _tail(values):
    """Highest percentile with at least ten samples beyond it, once that
    percentile reaches p50; otherwise the max."""
    n = len(values)
    if n >= 20:
        p = int(100.0 * (1.0 - 10.0 / n))
        return f"p{p}", statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return "max", max(values)


def measure(workload, seed, seconds, size="full"):
    """Untraced: set-up in fresh processes plus one closed-loop unit process."""
    deadline = time.perf_counter() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--size", size]
    setups = []                   # (raw seconds, calibration seconds)
    for _ in range(SETUP_SAMPLES - 1):
        setup_s, res = _spawn(base + ["--seconds", "0", "--setup-only"], deadline)
        setups.append((setup_s, res["cal_s"]))
    setup_s, res = _spawn(base + ["--seconds", str(seconds)], deadline)
    setups.append((setup_s, res["setup_cal_s"]))
    units = res["units"]
    good = [u for u in units if u["ok"]]
    metrics = {"setup_s": statistics.median(_at_ref(t, c) for t, c in setups)}
    raw = {"setup_s": statistics.median(t for t, _ in setups)}
    if good:
        metrics["wall_s"] = statistics.median(_at_ref(u["wall_s"], u["cal_s"]) for u in good)
        metrics["cpu_s"] = statistics.median(_at_ref(u["cpu_s"], u["cal_s"]) for u in good)
        metrics["node_steps_per_s"] = statistics.median(
            u["node_steps"] / _at_ref(u["wall_s"], u["cal_s"]) for u in good)
        raw.update(wall_s=statistics.median(u["wall_s"] for u in good),
                   cpu_s=statistics.median(u["cpu_s"] for u in good),
                   node_steps_per_s=statistics.median(
                       u["node_steps"] / u["wall_s"] for u in good),
                   cal_s=statistics.median(u["cal_s"] for u in good))
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    if res["residual_median"] is not None:
        metrics["residual_median"] = res["residual_median"]
    return {
        "workload": workload,
        "attempted": len(units),
        "failed": len(units) - len(good),
        "metrics": {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in metrics.items()},
        "raw": raw,
        "walls": [u["wall_s"] for u in good],
    }


def measure_traced(workload, seed, seconds, size="full"):
    """Untraced then traced process, each for half the time; per-layer metrics."""
    deadline = time.perf_counter() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--size", size,
            "--seconds", str(seconds / 2.0)]
    _, plain = _spawn(base + ["--trace", "0"], deadline)
    _, traced = _spawn(base + ["--trace", "1"], deadline)
    units = plain["units"] + traced["units"]
    metrics = dict(traced["per_layer"])
    # overhead over the units both processes ran: the same inputs, in order.
    # Raw seconds: a single unit read against its calibration is noisier
    # than the drift between two processes that run back to back.
    common = min(len(plain["units"]), len(traced["units"]))
    untraced_s = sum(u["wall_s"] for u in plain["units"][:common])
    traced_s = sum(u["wall_s"] for u in traced["units"][:common])
    metrics[OVERHEAD[0]] = {"value": traced_s / untraced_s - 1.0, "unit": OVERHEAD[1]}
    return {
        "workload": workload,
        "attempted": len(units),
        "failed": sum(1 for u in units if not u["ok"]),
        "metrics": metrics,
        "absent": traced["absent"],
        "residual_median": traced["residual_median"],
    }


def _print_table(seed, seconds, trace, r) -> None:
    frac = r["failed"] / r["attempted"]
    print(f"workload {r['workload']}  seed {seed}  {seconds:g} s  trace {trace}  "
          f"closed loop, 1 caller, 1 process at a time")
    print(f"  attempted {r['attempted']}  failed {r['failed']}  failed_frac {frac:g}")
    for name, m in r["metrics"].items():
        better = END_TO_END.get(name, (None, "lower"))[1]
        print(f"  {name:<30} {m['value']:<14.6g} {m['unit']:<6} {better} is better")
    for name, value in r.get("raw", {}).items():
        unit = "1/s" if name == "node_steps_per_s" else "s"
        print(f"  raw {name:<26} {value:<14.6g} {unit:<6} as measured, not gated")
    if r.get("walls"):
        label, value = _tail(r["walls"])
        print(f"  raw wall_s {label} {value:.6g} s over {len(r['walls'])} units; "
              f"setup_s over {SETUP_SAMPLES} processes")
    for name in r.get("absent", ()):
        print(f"  {name:<30} absent (its hook's target no longer exists)")


def run(workload, seed, seconds, trace, size="full"):
    r = (measure_traced if trace else measure)(workload, seed, seconds, size)
    correct = r["failed"] == 0 and (trace == 1 or set(END_TO_END) <= set(r["metrics"]))
    return r, correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hemaflow benchmark")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + MANUAL + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny grids, for the self-test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hemaflow", "__init__.py")):
        print("error: run from a checkout root that has src/hemaflow", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, correct = [], True
    try:
        for name in names:
            r, ok = run(name, args.seed, args.seconds, args.trace, args.size)
            _print_table(args.seed, args.seconds, args.trace, r)
            results.append(r)
            correct = correct and ok
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
