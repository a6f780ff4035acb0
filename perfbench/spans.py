"""Span recorder that traces hemaflow from outside the package.

Hooks are installed by dotted name, and only when the name resolves: a
hook whose target was renamed or deleted is recorded as missing, and every
per-layer metric that depends on it is reported as absent. Nothing here
raises because the program changed shape.

A span is ``[name, start, end, parent, unit]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``unit`` labels the phase of the
run (``"setup"``, a unit index, or a check phase). Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

import numpy as np

# (dotted target, span name); the span times every call of the target
SPAN_HOOKS = (
    ("hemaflow.cli.main", "cli.main"),
    ("hemaflow.experiments.exp_positivity", "experiments.sweep"),
    ("hemaflow.solver.Solver.start", "solver.start"),
    ("hemaflow.solver.Solver.solve", "solver.solve"),
    ("hemaflow.solver.Solver.solve_window", "solver.window"),
    ("hemaflow.solver.Solver._j_sweep", "solver.j_sweep"),
    ("hemaflow.solver.Solver._q_slice", "solver.q_slice"),
    ("hemaflow.solver.HistoryField.lookup", "solver.ring_lookup"),
    ("hemaflow.solver.Solver._advance_band", "solver.band"),
    ("hemaflow.solver.Solver.warmup", "solver.warmup"),
    ("hemaflow.solver.Solver.proliferating", "solver.proliferating"),
    ("hemaflow.solver.Solver.residual_stats", "solver.residual_stats"),
    ("hemaflow.solver.SolutionField.lookup", "solver.field_lookup"),
    ("hemaflow.solver.SolutionField.to_csv", "io.to_csv"),
    ("hemaflow.solver.SolutionField.save", "io.save"),
    ("hemaflow.solver.SolutionField.from_csv", "io.from_csv"),
    ("hemaflow.solver.SolutionField.load", "io.load"),
    ("hemaflow.flow.FlowMap.__init__", "flow.init"),
    ("hemaflow.kernels.Kernels.decay_table", "kernels.decay_table"),
    ("hemaflow.kernels.Kernels.lipschitz_l", "kernels.lipschitz"),
)

# (dotted target, counter name); called too often for a span per call
COUNT_HOOKS = (
    ("hemaflow.kernels.Kernels.beta", "kernels.beta.calls"),
    ("hemaflow.flow.FlowMap.h_inv_log", "flow.h_inv_log.calls"),
)

# the interpolant class as the solver module names it
PCHIP_TARGET = "hemaflow.solver.PchipInterpolator"


def _resolve(dotted: str):
    """(owner, attribute name, static attribute) or None if it does not exist."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        try:
            raw = inspect.getattr_static(owner, parts[-1])
        except AttributeError:
            return None
        return owner, parts[-1], raw
    return None


def _rewrap(raw, wrap):
    """Apply ``wrap`` to the function behind a plain, class or static method."""
    if isinstance(raw, classmethod):
        return classmethod(wrap(raw.__func__))
    if isinstance(raw, staticmethod):
        return staticmethod(wrap(raw.__func__))
    if callable(raw):
        return wrap(raw)
    return None


class Tracer:
    """In-memory spans, counters and maxima, labelled by run phase."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}          # (unit, name) -> sum
        self.maxima: dict = {}            # (unit, name) -> max
        self.unit = "setup"
        self.missing: set = set()         # dotted targets that did not resolve
        self.broken: set = set()          # counter names whose post-hook failed
        self._stack: list = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.unit])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, amount) -> None:
        key = (self.unit, name)
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, name: str, value) -> None:
        key = (self.unit, name)
        self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- installation --------------------------------------------------------

    def _span_wrapper(self, name, post=None):
        tracer = self

        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = tracer.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(idx)
                if post is not None:
                    post(tracer, args, kwargs, result)
                return result
            return traced
        return wrap

    def _count_wrapper(self, name):
        tracer = self

        def wrap(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.add(name, 1)
                return fn(*args, **kwargs)
            return counted
        return wrap

    def _patch(self, dotted: str, wrap) -> bool:
        found = _resolve(dotted)
        new = None if found is None else _rewrap(found[2], wrap)
        if new is None:
            self.missing.add(dotted)
            return False
        setattr(found[0], found[1], new)
        return True

    def install(self) -> None:
        """Install every hook whose target exists; remember the rest."""
        for dotted, name in SPAN_HOOKS:
            self._patch(dotted, self._span_wrapper(name, _POST_HOOKS.get(name)))
        for dotted, name in COUNT_HOOKS:
            self._patch(dotted, self._count_wrapper(name))
        self._install_pchip()

    def _install_pchip(self) -> None:
        found = _resolve(PCHIP_TARGET)
        if found is None or not inspect.isclass(found[2]):
            self.missing.add(PCHIP_TARGET)
            return
        owner, attr, base = found
        tracer = self

        class TracedPchip(base):
            def __init__(self, *args, **kwargs):
                idx = tracer.begin("solver.interp.build")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer.end(idx)

            def __call__(self, x, *args, **kwargs):
                tracer.add("solver.interp.evals", 1)
                tracer.add("solver.interp.points", int(np.size(x)))
                return super().__call__(x, *args, **kwargs)

        TracedPchip.__name__ = base.__name__
        setattr(owner, attr, TracedPchip)

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "unit": unit}) + "\n")


# -- post-hooks: counts read off a traced call's arguments or result ---------

def _guarded(counter_names):
    """Run a post-hook; if the program's shape changed, mark its counters
    broken instead of raising."""
    def deco(fn):
        @functools.wraps(fn)
        def hook(tracer, args, kwargs, result):
            try:
                fn(tracer, args, kwargs, result)
            except (AttributeError, KeyError, TypeError, IndexError, OSError):
                tracer.broken.update(counter_names)
        return hook
    return deco


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


@_guarded(("solver.picard_iterations", "solver.junction_mismatch_max"))
def _after_solve(tracer, args, kwargs, field):
    windows = field.metadata["windows"]
    tracer.add("solver.picard_iterations", sum(int(w["iterations"]) for w in windows))
    tracer.peak("solver.junction_mismatch_max",
                max((float(w["junction_mismatch"]) for w in windows), default=0.0))


@_guarded(("solver.state_bytes",))
def _after_start(tracer, args, kwargs, state):
    """Bytes of the run state's arrays; a slice ring counts at full capacity."""
    total = 0
    for value in vars(state).values():
        nbytes = getattr(value, "nbytes", None)
        if isinstance(nbytes, int):
            total += nbytes
        elif getattr(value, "capacity", None) is not None and hasattr(value, "x"):
            total += int(value.capacity) * int(value.x.nbytes)
    tracer.peak("solver.state_bytes", total)


@_guarded(("io.bytes_written",))
def _after_to_csv(tracer, args, kwargs, result):
    tracer.add("io.bytes_written", os.path.getsize(str(_arg(args, kwargs, 1, "path"))))


@_guarded(("io.bytes_written",))
def _after_save(tracer, args, kwargs, result):
    prefix = str(_arg(args, kwargs, 1, "path_prefix"))
    for suffix in (".npz", ".meta.json"):
        if os.path.exists(prefix + suffix):
            tracer.add("io.bytes_written", os.path.getsize(prefix + suffix))


_POST_HOOKS = {
    "solver.solve": _after_solve,
    "solver.start": _after_start,
    "io.to_csv": _after_to_csv,
    "io.save": _after_save,
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

_SOLVER = "hemaflow.solver.Solver."
_FIELD = "hemaflow.solver.SolutionField."

# name -> (unit, how it is computed, hooks it needs)
# kinds: ("span_s", span) total seconds; ("span_n", span) number of calls;
# ("counter", name); ("max", name); ("self_s", prefix) self time of spans whose
# name starts with prefix; ("nested", child, ancestor) calls of child under
# ancestor.
PER_LAYER = {
    "solver.interp.builds": ("count", ("span_n", "solver.interp.build"), (PCHIP_TARGET,)),
    "solver.interp.build_s": ("s", ("span_s", "solver.interp.build"), (PCHIP_TARGET,)),
    "solver.interp.evals": ("count", ("counter", "solver.interp.evals"), (PCHIP_TARGET,)),
    "solver.interp.points": ("count", ("counter", "solver.interp.points"), (PCHIP_TARGET,)),
    "solver.j_sweep.s": ("s", ("span_s", "solver.j_sweep"), (_SOLVER + "_j_sweep",)),
    "solver.j_sweep.calls": ("count", ("span_n", "solver.j_sweep"), (_SOLVER + "_j_sweep",)),
    "solver.picard_iterations": ("count", ("counter", "solver.picard_iterations"),
                                 (_SOLVER + "solve",)),
    "solver.q_slice.s": ("s", ("span_s", "solver.q_slice"), (_SOLVER + "_q_slice",)),
    "solver.q_slice.calls": ("count", ("span_n", "solver.q_slice"), (_SOLVER + "_q_slice",)),
    "solver.ring_lookup.s": ("s", ("span_s", "solver.ring_lookup"),
                             ("hemaflow.solver.HistoryField.lookup",)),
    "solver.ring_lookup.calls": ("count", ("span_n", "solver.ring_lookup"),
                                 ("hemaflow.solver.HistoryField.lookup",)),
    "solver.window.s": ("s", ("span_s", "solver.window"), (_SOLVER + "solve_window",)),
    "solver.window.calls": ("count", ("span_n", "solver.window"), (_SOLVER + "solve_window",)),
    "solver.solve.s": ("s", ("span_s", "solver.solve"), (_SOLVER + "solve",)),
    "solver.junction_mismatch_max": ("abs", ("max", "solver.junction_mismatch_max"),
                                     (_SOLVER + "solve",)),
    "solver.state_bytes": ("bytes", ("max", "solver.state_bytes"), (_SOLVER + "start",)),
    "experiments.sweep.s": ("s", ("span_s", "experiments.sweep"),
                            ("hemaflow.experiments.exp_positivity",)),
    "experiments.solves": ("count", ("nested", "solver.solve", "experiments.sweep"),
                           ("hemaflow.experiments.exp_positivity", _SOLVER + "solve")),
    "experiments.self_s": ("s", ("self_s", "experiments."),
                           ("hemaflow.experiments.exp_positivity",)),
    "solver.warmup.s": ("s", ("span_s", "solver.warmup"), (_SOLVER + "warmup",)),
    "solver.proliferating.s": ("s", ("span_s", "solver.proliferating"),
                               (_SOLVER + "proliferating",)),
    "solver.band.s": ("s", ("span_s", "solver.band"), (_SOLVER + "_advance_band",)),
    "solver.field_lookup.s": ("s", ("span_s", "solver.field_lookup"), (_FIELD + "lookup",)),
    "solver.field_lookup.calls": ("count", ("span_n", "solver.field_lookup"),
                                  (_FIELD + "lookup",)),
    "solver.residual_stats.s": ("s", ("span_s", "solver.residual_stats"),
                                (_SOLVER + "residual_stats",)),
    "io.to_csv.s": ("s", ("span_s", "io.to_csv"), (_FIELD + "to_csv",)),
    "io.save.s": ("s", ("span_s", "io.save"), (_FIELD + "save",)),
    "io.from_csv.s": ("s", ("span_s", "io.from_csv"), (_FIELD + "from_csv",)),
    "io.load.s": ("s", ("span_s", "io.load"), (_FIELD + "load",)),
    "io.bytes_written": ("bytes", ("counter", "io.bytes_written"),
                         (_FIELD + "to_csv", _FIELD + "save")),
    "cli.self_s": ("s", ("self_s", "cli."), ("hemaflow.cli.main",)),
    "flow.init.s": ("s", ("span_s", "flow.init"), ("hemaflow.flow.FlowMap.__init__",)),
    "kernels.decay_table.s": ("s", ("span_s", "kernels.decay_table"),
                              ("hemaflow.kernels.Kernels.decay_table",)),
    "kernels.lipschitz.s": ("s", ("span_s", "kernels.lipschitz"),
                            ("hemaflow.kernels.Kernels.lipschitz_l",)),
    "kernels.beta.calls": ("count", ("counter", "kernels.beta.calls"),
                           ("hemaflow.kernels.Kernels.beta",)),
    "flow.h_inv_log.calls": ("count", ("counter", "flow.h_inv_log.calls"),
                             ("hemaflow.flow.FlowMap.h_inv_log",)),
}

# read-back of the CLI's output happens in the benchmark's check, not in
# the timed unit, so these two are taken from the check phase
CHECK_SCOPED = {"io.from_csv.s", "io.load.s"}


def per_layer_metrics(tracer: Tracer, scope, check_scope) -> tuple:
    """(metrics, absent names) over spans whose unit label is in scope."""
    spans = tracer.spans
    durations = {}                       # (in check scope, span name) -> [seconds]
    for s in spans:
        for checked, units in ((False, scope), (True, check_scope)):
            if s[4] in units:
                durations.setdefault((checked, s[0]), []).append(s[2] - s[1])
    metrics, absent = {}, []
    for name, (unit, (kind, *args), needs) in PER_LAYER.items():
        source = args[0] if kind in ("counter", "max") else None
        if any(n in tracer.missing for n in needs) or source in tracer.broken:
            absent.append(name)
            continue
        checked = name in CHECK_SCOPED
        units = check_scope if checked else scope
        if kind == "span_s":
            value = sum(durations.get((checked, args[0]), ()))
        elif kind == "span_n":
            value = len(durations.get((checked, args[0]), ()))
        elif kind == "counter":
            value = sum(v for (u, n), v in tracer.counters.items()
                        if n == source and u in units)
        elif kind == "max":
            value = max((v for (u, n), v in tracer.maxima.items()
                         if n == source and u in units), default=0)
        elif kind == "self_s":
            value = _self_time(spans, units, args[0])
        else:
            value = sum(1 for i, s in enumerate(spans) if s[4] in units
                        and s[0] == args[0] and _has_ancestor(spans, i, args[1]))
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent


def _self_time(spans, units, prefix) -> float:
    """Duration of the matching spans minus the time their children cover."""
    own = {i for i, s in enumerate(spans) if s[4] in units and s[0].startswith(prefix)}
    total = sum(spans[i][2] - spans[i][1] for i in own)
    for s in spans:
        if s[3] in own:
            total -= s[2] - s[1]
    return total


def _has_ancestor(spans, i, name) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
