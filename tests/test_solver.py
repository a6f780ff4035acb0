"""Windowed Picard solver: exactness, convergence, bookkeeping, serialization."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

from hemaflow import (ConfigurationError, ConvergenceError, CustomReintroduction,
                      DomainError, FlowMap, Grid,
                      HistoryField, HistoryWindowError, InitialHistory,
                      Kernels, LinearMaturityMap, PowerLawVelocity, SolutionField, Solver,
                      WarmupData)
from hemaflow import cli as cli_module
from hemaflow import solver as solver_module
from hemaflow.cubic import HermiteCubic
from hemaflow.solver import Located, UpperBand

from refcase import eval_G, eval_J, nan_band_params, reference_params, smooth_history

NONFINITE_TIMES = [float("nan"), float("inf"), float("-inf"), 1e308]

TAU = 2.0  # history depth of the reference model


def age_gamma(m, a):
    """An age-dependent initial proliferating density."""
    return (1.0 + m) * np.exp(-0.7 * np.asarray(a))


@pytest.fixture(scope="module")
def solver_ref():
    return Solver(reference_params(), m_nodes=256, dt_divisor=32)


@pytest.fixture(scope="module")
def field_ref(solver_ref):
    hist = InitialHistory.from_callable(smooth_history, solver_ref.grid)
    return solver_ref.solve(hist, T=8.0)


class TestGrid:
    def test_build_reference(self):
        par = reference_params()
        grid = Grid.build(Kernels(par).flow, par.tau_lower, par.tau_upper,
                          m_nodes=128, dt_divisor=16)
        assert grid.x_nodes[0] == 0.0
        assert grid.x_nodes[-1] == pytest.approx(0.5)
        assert np.all(np.diff(grid.m_nodes) > 0.0)
        assert grid.n_window == 16
        assert grid.n_history == 32

    def test_band_node_count_ignores_round_off(self):
        # V = m and c = 0.5 put exactly 511 main spacings on (g(1), 1]; the
        # CLI's tabulated V = m reads the ratio one ulp above 511
        table = [i / 16 for i in range(17)]
        counts = set()
        for velocity in (cli_module._build_velocity({"table": {"m": table, "V": table}},
                                                    "model.velocity"),
                         PowerLawVelocity(1.0, 1.0)):
            flow = FlowMap(velocity, LinearMaturityMap(c=0.5))
            counts.add(Grid.build(flow, 1.0, 2.0, m_nodes=512).band_x.size)
        assert counts == {512}

    def test_history_depth_must_align(self):
        # tau_upper/dt = 1.7 * 16 = 27.2 slices: not representable
        par = reference_params(tau_upper=1.7)
        flow = Kernels(par).flow
        with pytest.raises(ConfigurationError):
            Grid.build(flow, par.tau_lower, par.tau_upper, dt_divisor=16)

    @pytest.mark.parametrize("key, value", [
        ("m_nodes", 0), ("m_nodes", 1), ("m_nodes", 7), ("m_nodes", -3),
        ("m_nodes", 8.5), ("dt_divisor", 0), ("dt_divisor", -2),
        ("dt_divisor", 2.5), ("dt_divisor", True),
    ])
    def test_bad_grid_sizes_rejected(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            Solver(reference_params(), **{key: value})

    @pytest.mark.parametrize("dt", [math.nan, 0.0, math.inf, -0.125])
    def test_step_must_be_finite_and_positive(self, dt):
        grid = Grid.build(Kernels(reference_params()).flow, 1.0, 2.0, m_nodes=16, dt_divisor=8)
        with pytest.raises(ConfigurationError, match="dt must be finite and positive") \
                as refusal:
            dataclasses.replace(grid, dt=dt)
        assert refusal.value.key == "dt"

    def test_slice_cap_checked_before_allocating(self):
        # the band is counted from h(g(1)) and the main step alone, so a grid
        # past the cap is refused before its nodes exist
        with pytest.raises(ConfigurationError, match="cap"):
            Solver(reference_params(), m_nodes=2 ** 62)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="cap"):
                Solver(reference_params(), m_nodes=2 ** 22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_degenerate_delays_rejected(self):
        with pytest.raises(ConfigurationError):
            reference_params(tau_lower=2.0, tau_upper=2.0)
        with pytest.raises(ConfigurationError):
            reference_params(tau_lower=2.5, tau_upper=2.0)


def _kernel_rows():
    """Seeded rows (n >= 8) on uniform and on main-plus-band node sets:
    uniform random, random walk, plateaus with spikes, exact zeros (both
    signs) with sign changes; and a -0.0 node on a steepening descent, where
    every term of the cubic is -0.0 and scipy reads +0.0."""
    rows = [pytest.param(np.linspace(0.0, 0.5, 8),
                         np.array([0.2, 0.1, -0.0, -1.0, -101.0, -102.0, -103.0, -104.0]),
                         id="negative-zero")]
    rng = np.random.default_rng(9)
    node_sets = [np.linspace(0.0, 0.5, 8), np.linspace(0.0, 0.5, 33),
                 np.linspace(0.0, 0.5, 512),
                 np.concatenate([np.linspace(0.0, 0.3, 24), np.linspace(0.3, 1.0, 6)[1:]])]
    for k, x in enumerate(node_sets):
        n, n_spikes = x.size, max(2, x.size // 5)
        spiked = np.full(n, 0.7)
        spiked[rng.choice(n, n_spikes, replace=False)] = rng.uniform(1.0, 4.0, n_spikes)
        for kind, y in (("uniform", rng.uniform(-1.0, 1.0, n)),
                        ("walk", np.cumsum(rng.normal(size=n))),
                        ("plateau", spiked),
                        ("zeros", rng.choice([0.0, -0.0, 1.0, -1.0, 0.25, -2.0], n))):
            rows.append(pytest.param(x, y, id=f"{kind}-{k}"))
    return rows


def _assert_same_bits(got, expected):
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.array_equal(got, expected, equal_nan=True)
    # PPoly's sum starts from +0.0; a kernel that skipped that would differ
    # from scipy only in the sign of some zeros
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def _batch_rows():
    """Node sets with 2, 3, 8, 33 and main-plus-band nodes, each with rows to
    build as one batch: exact zeros of both signs, flat runs, random rows
    and, from 4 nodes on, end secants that take each of ``_edge_slope``'s
    branches at either end (secants 1, 4: the slope flips sign and is 0;
    1, -10: the signs differ and it is clipped to 3; 1, 1: kept; -0, 2: both
    tests hold and the flip to +0.0 wins over the clip to 3 * -0.0)."""
    rng = np.random.default_rng(17)
    sets = [np.array([0.0, 1.0]), np.array([0.0, 1.0, 3.0]), np.arange(8.0),
            np.cumsum(rng.uniform(0.01, 1.0, 33)),
            np.concatenate([np.linspace(0.0, 0.3, 24), np.linspace(0.3, 1.0, 6)[1:]])]
    params = []
    for x in sets:
        n = x.size
        rows = [rng.normal(size=n), np.cumsum(rng.normal(size=n)),
                rng.choice([0.0, -0.0], n), np.full(n, -0.0),
                np.repeat([1.0, 2.0, -0.5], -(-n // 3))[:n]]
        if n >= 4:
            for m0, m1 in ((1.0, 4.0), (1.0, -10.0), (1.0, 1.0), (-0.0, 2.0)):
                head = np.concatenate([[0.0, m0, m0 + m1], np.full(n - 3, m0 + m1)])
                rows += [head, -head[::-1]]            # the same secants at the tail
        params.append(pytest.param(x, np.array(rows), id=f"{n}-nodes"))
    return params


def _batch_queries(x):
    span = x[-1] - x[0]
    return np.concatenate([x, x * math.exp(-1.0 / 64.0),
                           np.linspace(x[0] - 0.2 * span, x[-1] + 0.2 * span, 41),
                           [np.nan, x[-1], np.nan]])


class TestMonotoneCubic:
    """The package's kernel gives scipy 1.17.1's PCHIP bits. If a later scipy
    changes its arithmetic, the kernel stays the reference."""

    @staticmethod
    def queries(x):
        rng = np.random.default_rng(11)
        return {
            "nodes": x,
            "feet": x * math.exp(-1.0 / 64.0),
            "inside": np.linspace(x[0], x[-1], 101),
            "beyond": np.linspace(x[0] - 0.2, x[-1] + 0.2, 57),
            "random": rng.uniform(x[0] - 0.05, x[-1] + 0.05, 200),
            "nan": np.array([np.nan, x[3], np.nan]),
            "scalar": 0.5 * (x[2] + x[3]),
            "0-d": np.asarray(x[-1]),
            "2-D": rng.uniform(x[0], x[-1], (3, 7)),
            "empty": np.array([]),
        }

    @pytest.mark.parametrize("x, y", _kernel_rows())
    def test_bit_equal_to_scipy(self, x, y):
        ours = solver_module.PchipInterpolator(x, y)
        theirs = PchipInterpolator(x, y, extrapolate=False)
        for xq in self.queries(x).values():
            expected = theirs(xq)
            _assert_same_bits(ours(xq), expected)
            _assert_same_bits(ours.at(Located(x, xq)), expected)

    @pytest.mark.parametrize("x, y", [([0.0, 1.0], [2.0, -1.0]),
                                      ([0.0, 1.0, 3.0], [2.0, -1.0, 4.0])])
    def test_two_and_three_nodes(self, x, y):
        x, y = np.asarray(x), np.asarray(y)
        xq = np.linspace(-0.5, 3.5, 17)
        _assert_same_bits(solver_module.PchipInterpolator(x, y)(xq),
                          PchipInterpolator(x, y, extrapolate=False)(xq))

    @pytest.mark.parametrize("x, rows", _batch_rows())
    def test_batched_build_equals_single_builds(self, x, rows):
        # the wave's batched shift: B rows built and read as one, each with
        # the bits of its own build, NaN outside the nodes
        q = Located(x, _batch_queries(x))
        batch = solver_module.PchipInterpolator(x, rows).at(q)
        assert batch.shape == (len(rows), q.flat.size)
        for row, got in zip(rows, batch):
            _assert_same_bits(got, solver_module.PchipInterpolator(x, row).at(q))
        assert np.isnan(batch[:, -3]).all() and not np.isnan(batch[:, -2]).any()

    def test_batched_end_slopes_take_every_branch_as_one_row_does(self):
        from hemaflow.cubic import NodeSet, _edge_slope, _edge_slopes
        x, rows = _batch_rows()[2].values
        h, m = np.diff(x).tolist(), np.diff(rows, axis=1) / np.diff(x)
        one = np.array([[_edge_slope(*h[:2], *r[:2]), _edge_slope(*h[:-3:-1], *r[:-3:-1])]
                        for r in m.tolist()])
        _assert_same_bits(_edge_slopes(NodeSet(x), m), one)
        for end in one.T:
            assert {0.0, 3.0, 1.0} <= set(end.tolist())

    def test_subnormal_secants_give_scipy_bits_without_warning(self):
        # a subnormal secant overflows the harmonic mean's w / m to inf; the
        # node slope is then 0, as scipy's, and the build stays silent
        x = np.linspace(0.0, 1.0, 9)
        y = np.array([0.0, 1e-310, 3e-310, 2e-309, 0.5, 0.5 + 2.0 ** -52, 1.0, 1.0, -1e-311])
        rows = np.stack([y, -y, y[::-1]])
        xq = np.concatenate([x, x * math.exp(-1.0 / 64.0), [-0.1, np.nan, 1.1]])
        batch = solver_module.PchipInterpolator(x, rows)(xq)
        for row, got in zip(rows, batch):
            with np.errstate(over="ignore"):
                expected = PchipInterpolator(x, row, extrapolate=False)(xq)
            _assert_same_bits(solver_module.PchipInterpolator(x, row)(xq), expected)
            _assert_same_bits(got, expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_row_in_a_batch_raises_convergence_error(self, bad):
        x = np.linspace(0.0, 0.5, 12)
        rows = np.stack([np.sin(x), np.cos(x), x])
        rows[1, 5] = bad
        with pytest.raises(ConvergenceError, match="non-finite") as err:
            solver_module.PchipInterpolator(x, rows)
        assert err.value.window_index is None

    def test_located_reads_equal_raw_reads_in_the_store(self):
        x = np.linspace(0.0, 0.5, 12)
        values = np.cumsum(np.random.default_rng(3).normal(size=(4, 12)), axis=1)
        store = HistoryField(x, 0.25, values)
        xq = np.linspace(-0.1, 0.6, 23)
        at = Located(x, xq)
        for t in (0.0, 0.1, 0.25, 0.6, 0.75):
            _assert_same_bits(store.lookup(t, at), store.lookup(t, xq))

    def test_points_located_on_other_nodes_refused(self):
        x = np.linspace(0.0, 0.5, 12)
        kernel = solver_module.PchipInterpolator(x, np.sin(x))
        with pytest.raises(ValueError, match="node set"):
            kernel.at(Located(x.copy(), x))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_values_raise_convergence_error(self, bad):
        x = np.linspace(0.0, 0.5, 12)
        y = np.sin(x)
        y[5] = bad
        with pytest.raises(ConvergenceError, match="non-finite") as err:
            solver_module.PchipInterpolator(x, y)
        assert err.value.window_index is None
        with pytest.raises(ConvergenceError, match="non-finite") as err:
            HistoryField(x, 0.25, y[None, :]).lookup(0.0, x)
        assert err.value.window_index is None

    def test_solve_builds_through_the_module_name(self, monkeypatch):
        # the solver resolves the kernel by its module-level name at every
        # build, so a subclass bound there sees every transport and ring read
        built = []

        class Counting(solver_module.PchipInterpolator):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        solver = Solver(reference_params(), m_nodes=16, dt_divisor=4)
        hist = InitialHistory.from_callable(smooth_history, solver.grid)
        plain = solver.solve(hist, T=3.0)
        monkeypatch.setattr(solver_module, "PchipInterpolator", Counting)
        assert np.array_equal(solver.solve(hist, T=3.0).N, plain.N)
        assert len(built) > 0


class TestShift:
    """The one-step shift reads the slice kernel only at its feet x_out e^-dt,
    with scipy's ``PchipInterpolator(x, row, extrapolate=False)`` bits for
    every row, whatever the number of rows. A zero step puts the feet on the
    nodes, where a -0.0 row value must read +0.0 as scipy's does."""

    DT = 1.0 / 64.0
    STEPS = pytest.mark.parametrize("dt", [DT, 0.0], ids=["dt", "zero-step"])

    @staticmethod
    def outs(x):
        """The nodes themselves, their tail (as the band march reads the full
        shift) and points past both ends, whose feet partly fall outside."""
        span = x[-1] - x[0]
        return [x, x[x.size // 2:], np.linspace(x[0] - 0.25 * span, x[-1] + 0.25 * span, 17)]

    @staticmethod
    def expected(x, x_out, dt, row):
        return PchipInterpolator(x, row, extrapolate=False)(x_out * math.exp(-dt))

    @STEPS
    @pytest.mark.parametrize("x, y", _kernel_rows())
    def test_one_row_bit_equal_to_scipy(self, x, y, dt):
        for x_out in self.outs(x):
            shift, expected = solver_module._Shift(x, x_out, dt), self.expected(x, x_out, dt, y)
            _assert_same_bits(shift(y), expected)
            _assert_same_bits(shift(y[None]), expected[None])

    @STEPS
    @pytest.mark.parametrize("x, rows", _batch_rows())
    def test_batch_bit_equal_to_scipy(self, x, rows, dt):
        # sign changes, zero runs of both signs and every end-slope branch
        for x_out in self.outs(x):
            shift = solver_module._Shift(x, x_out, dt)
            got = shift(rows)
            assert got.shape == (len(rows), x_out.size)
            for row, out in zip(rows, got):
                expected = self.expected(x, x_out, dt, row)
                _assert_same_bits(out, expected)
                _assert_same_bits(shift(row), expected)
                _assert_same_bits(shift(row[None]), expected[None])

    def test_feet_outside_the_nodes_read_nan(self):
        x = np.linspace(0.2, 0.5, 12)
        rows = np.stack([np.sin(7.0 * x), np.cos(5.0 * x), -x])
        # feet 0.2 e^-dt below x[0] and 0.6 e^-dt above x[-1]
        x_out = np.array([0.2, 0.3, 0.45, 0.5, 0.6])
        for values in (rows, rows[:1], rows[0]):
            got = solver_module._Shift(x, x_out, self.DT)(values)
            assert np.isnan(got[..., [0, 4]]).all()
            assert not np.isnan(got[..., 1:4]).any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", ["1-D", "one-row", "batch"])
    def test_nonfinite_values_raise_convergence_error(self, bad, shape):
        x = np.linspace(0.0, 0.5, 12)
        rows = np.stack([np.sin(x), np.cos(x), x])
        rows[1, 5] = bad
        values = {"1-D": rows[1], "one-row": rows[1:2], "batch": rows}[shape]
        with pytest.raises(ConvergenceError, match="non-finite.*in window 4") as err:
            solver_module._Shift(x, x, self.DT)(values, window_index=4)
        assert err.value.window_index == 4


def _uniform_sets():
    """Uniform node sets of 9 to 12,289 nodes, and the tabulated flow's u = ln m
    table, which is log-spaced m and so uniform to rounding."""
    velocity = cli_module._build_velocity(
        {"table": {"m": [i / 16 for i in range(17)], "V": [i / 16 for i in range(17)]}},
        "model.velocity")
    sets = [pytest.param(np.linspace(-2.0, 1.5, n), id=f"linspace-{n}")
            for n in (9, 513, 4097, 12289)]
    return sets + [pytest.param(velocity._w_of_u.nodes.x, id="flow-u-table")]


class TestLocated:
    """Points on a uniform node set are located by arithmetic from
    ``_ARITH_POINTS`` points on; the intervals are searchsorted's."""

    @staticmethod
    def _points(x, rng):
        up, down = np.nextafter(x, np.inf), np.nextafter(x, -np.inf)
        span = x[-1] - x[0]
        return np.concatenate([
            rng.uniform(x[0] - 0.1 * span, x[-1] + 0.1 * span, 3000), x, up, down,
            [np.nan, np.inf, -np.inf, x[0] - span, x[-1] + span, -1e100, 1e100]])

    @pytest.mark.parametrize("x", _uniform_sets())
    def test_uniform_sets_locate_as_searchsorted(self, x, monkeypatch):
        from hemaflow.cubic import NodeSet
        guesses, guess = [], NodeSet.guess
        monkeypatch.setattr(NodeSet, "guess",
                            lambda self, flat: guesses.append(flat.size) or guess(self, flat))
        nodes = NodeSet(x)
        xq = self._points(x, np.random.default_rng(x.size))
        got = Located(nodes, xq)
        assert guesses == [xq.size] and nodes.uniform
        assert np.array_equal(got.index, x[1:-1].searchsorted(xq, side="right"))
        assert np.array_equal(got.s, xq - x[got.index], equal_nan=True)

    @pytest.mark.parametrize("x", [
        pytest.param(np.r_[np.linspace(0.0, 0.5, 9), np.linspace(0.5, 1.0, 3)[1:]],
                     id="main-and-band"),
        pytest.param("W", id="W-table-of-m+m2/2")])
    def test_nonuniform_sets_take_searchsorted(self, x, monkeypatch):
        from hemaflow.cubic import NodeSet
        if isinstance(x, str):
            table = [i / 16 for i in range(17)]
            velocity = cli_module._build_velocity(
                {"table": {"m": table, "V": [v + 0.5 * v * v for v in table]}},
                "model.velocity")
            x = velocity._u_of_w.nodes.x
        monkeypatch.setattr(NodeSet, "guess", lambda self, flat: pytest.fail("guessed"))
        nodes = NodeSet(x)
        xq = self._points(x, np.random.default_rng(7))
        assert not nodes.uniform
        assert np.array_equal(Located(nodes, xq).index, x[1:-1].searchsorted(xq, side="right"))

    def test_size_threshold(self, monkeypatch):
        from hemaflow import cubic
        guesses, guess = [], cubic.NodeSet.guess
        monkeypatch.setattr(cubic.NodeSet, "guess",
                            lambda self, flat: guesses.append(flat.size) or guess(self, flat))
        x = np.linspace(0.0, 1.0, 513)
        nodes = cubic.NodeSet(x)
        rng = np.random.default_rng(9)
        for n in (cubic._ARITH_POINTS - 1, cubic._ARITH_POINTS):
            xq = rng.uniform(-0.1, 1.1, n)
            assert np.array_equal(Located(nodes, xq).index,
                                  x[1:-1].searchsorted(xq, side="right"))
            # a plain node array always takes searchsorted
            assert np.array_equal(Located(x, xq).index, Located(nodes, xq).index)
        assert guesses == [cubic._ARITH_POINTS] * 2

    def test_cubic_and_store_locate_on_their_own_node_sets(self):
        x = np.linspace(0.0, 1.0, 65)
        kernel = HermiteCubic(x, np.sin(3.0 * x))
        xq = np.random.default_rng(10).uniform(-0.1, 1.1, 4000)
        _assert_same_bits(kernel(xq), kernel.at(Located(x, xq)))
        assert kernel.derivative().nodes is kernel.nodes and kernel.nodes.uniform
        store = HistoryField(x, 0.25, np.sin(np.outer([1.0, 2.0], x)))
        _assert_same_bits(store.lookup(0.125, xq), store.lookup(0.125, Located(x, xq)))
        assert store.nodes.uniform


def _hermite_tables():
    """Seeded random tables (slopes of both signs, exact zeros of both signs)
    and a 4,096-node log-spaced table shaped like the flow coordinate's."""
    rng = np.random.default_rng(21)
    tables = []
    for k, n in enumerate((2, 3, 8, 33, 300)):
        x = np.cumsum(rng.uniform(0.01, 1.0, n)) - 1.0
        y = rng.normal(size=n) if k % 2 else rng.choice([0.0, -0.0, 1.0, -2.5], n)
        d = rng.normal(size=n) if k % 2 else rng.choice([0.0, -0.0, 3.0], n)
        tables.append(pytest.param(x, y, d, id=f"random-{n}"))
    u = np.log(np.logspace(-12.0, 0.0, 4096))
    tables.append(pytest.param(u, -1.3 * u + 0.01 * np.sin(u), -1.3 + 0.01 * np.cos(u),
                               id="flow-4096"))
    return tables


class TestHermiteCubic:
    """The one cubic the package runs gives scipy 1.17.1's bits: with given
    slopes as ``CubicHermiteSpline``, without as ``PchipInterpolator``, both
    extrapolating with their end pieces, and their derivatives."""

    @staticmethod
    def queries(x):
        rng = np.random.default_rng(5)
        span = x[-1] - x[0]
        return {"nodes": x,
                "beyond": np.linspace(x[0] - 0.5 * span, x[-1] + 0.5 * span, 1001),
                "random": rng.uniform(x[0] - 0.1 * span, x[-1] + 0.1 * span, 2000),
                "nan": np.array([np.nan, x[1], np.nan]),
                "scalar": 0.5 * (x[0] + x[1]),
                "0-d": np.asarray(x[-1]),
                "2-D": rng.uniform(x[0], x[-1], (3, 7)),
                "empty": np.array([])}

    @pytest.mark.parametrize("x, y, d", _hermite_tables())
    def test_given_slopes_bit_equal_to_scipy(self, x, y, d):
        ours, theirs = HermiteCubic(x, y, d), CubicHermiteSpline(x, y, d)
        for xq in self.queries(x).values():
            _assert_same_bits(ours(xq), theirs(xq))
            _assert_same_bits(ours.derivative()(xq), theirs.derivative()(xq))

    @pytest.mark.parametrize("x, y", _kernel_rows() + [
        pytest.param(np.array([0.0, 1.0]), np.array([2.0, -1.0]), id="two"),
        pytest.param(np.array([0.0, 1.0, 3.0]), np.array([2.0, -1.0, 4.0]), id="three")])
    def test_pchip_slopes_extrapolate_bit_equal_to_scipy(self, x, y):
        ours, theirs = HermiteCubic(x, y), PchipInterpolator(x, y)
        for xq in self.queries(x).values():
            _assert_same_bits(ours(xq), theirs(xq))
            _assert_same_bits(ours.derivative()(xq), theirs.derivative()(xq))

    @pytest.mark.parametrize("x, rows", _batch_rows())
    def test_batched_build_equals_single_builds(self, x, rows):
        xq = _batch_queries(x)
        batch = HermiteCubic(x, rows)(xq)
        for got, row in zip(batch, rows):
            _assert_same_bits(got, HermiteCubic(x, row)(xq))

    def test_solver_kernel_is_the_cubic_without_extrapolation(self):
        x = np.linspace(0.0, 0.5, 12)
        y = np.cumsum(np.random.default_rng(4).normal(size=12))
        xq = np.linspace(-0.2, 0.7, 31)
        inside = (xq >= 0.0) & (xq <= 0.5)
        kernel = solver_module.PchipInterpolator(x, y)
        assert isinstance(kernel, HermiteCubic)
        _assert_same_bits(kernel(xq)[inside], HermiteCubic(x, y)(xq)[inside])
        assert np.isnan(kernel(xq)[~inside]).all()

    def test_import_loads_no_scipy(self):
        code = ("import sys, hemaflow, hemaflow.cli, hemaflow.experiments; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        src = os.path.dirname(os.path.dirname(solver_module.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "[]"


class TestHistoryField:
    x = np.linspace(0.0, 0.5, 9)

    def test_lookup_interpolates_linearly_in_time(self):
        values = np.array([self.x ** 2, np.sin(3.0 * self.x), np.ones(9)])
        ring = HistoryField(self.x, 0.25, values)
        assert np.max(np.abs(ring.lookup(0.125, self.x) - 0.5 * (values[0] + values[1]))) < 1e-14
        xq = np.linspace(0.01, 0.49, 17)
        lo, hi = ring.lookup(0.25, xq), ring.lookup(0.5, xq)
        for theta in (0.1, 0.5, 0.75):
            mixed = ring.lookup(0.25 * (1.0 + theta), xq)
            assert np.max(np.abs(mixed - ((1.0 - theta) * lo + theta * hi))) < 1e-14

    def test_shares_memory_with_wrapped_array(self):
        values = np.zeros((3, 12))
        ring = HistoryField(np.linspace(0.0, 0.8, 12), 0.25, values)
        assert ring.values is values
        # a slice written before its first read is read as written
        values[2, :9], values[2, 9:] = 2.0, 3.0
        assert ring.lookup(0.5, np.asarray([0.7]))[0] == 3.0

    def test_out_of_window_raises(self):
        values = np.arange(4.0)[:, None] + np.zeros((4, 9))
        ring = HistoryField(self.x, 0.25, values, filled=2)
        assert ring.lookup(0.25, self.x)[0] == 1.0
        # slice 2 is not finalized: neither it nor any time past slice 1 reads
        for t in (0.3, 0.5, 0.75, -0.1):
            with pytest.raises(HistoryWindowError):
                ring.lookup(t, self.x)
        ring.filled = 3
        assert ring.lookup(0.5, self.x)[0] == 2.0

    @pytest.mark.parametrize("t", NONFINITE_TIMES)
    def test_nonfinite_time_raises_window_error(self, t):
        ring = HistoryField(self.x, 0.25, np.ones((4, 9)))
        with pytest.raises(HistoryWindowError, match="outside the stored slices"):
            ring.lookup(t, self.x)

    def test_cache_bounded_by_keep_older_slices_readable(self):
        values = np.arange(6.0)[:, None] * (1.0 + self.x)[None, :]
        ring = HistoryField(self.x, 0.25, values, keep=2)
        assert ring.capacity == 2 and ring._block.shape == (2, 4, self.x.size - 1)
        for i in range(6):
            assert np.array_equal(ring.lookup(0.25 * i, self.x), values[i])
            assert i in ring._held and len(ring._held) == 2
        # slice 0 was evicted long ago; it is rebuilt, not lost
        assert np.array_equal(ring.lookup(0.0, self.x), values[0])
        assert np.array_equal(ring.lookup(0.125, self.x), 0.5 * (values[0] + values[1]))
        assert sorted(ring._held.tolist()) == [0, 1]

    @pytest.mark.parametrize("keep", [math.inf, 3, 1])
    def test_many_times_read_as_one_time_each(self, keep):
        # the times span slices 0 to 6: a store holding fewer refuses the read
        rng = np.random.default_rng(6)
        values = np.cumsum(rng.normal(size=(7, 9)), axis=1)
        ring = HistoryField(self.x, 0.25, values, keep=keep)
        times = np.array([1.5, 0.0, 0.3, 0.25 + 1e-12, 1.1, 0.6, 0.75, 1.4999999])
        raw = rng.uniform(-0.05, 0.55, (times.size, 9))
        shared = np.linspace(0.0, 0.5, 13)
        for xq, each in ((raw, raw), (shared, [shared] * times.size),
                         (Located(self.x, shared), [shared] * times.size)):
            if keep < 7:
                with pytest.raises(HistoryWindowError, match=f"0 to 6 spans 7 slices, "
                                   f"more than the store's capacity of {keep}$"):
                    ring.lookup(times, xq)
                continue
            got = ring.lookup(times, xq)
            expected = np.array([ring.lookup(t, row) for t, row in zip(times, each)])
            _assert_same_bits(got, expected)

    def test_block_read_never_touches_the_slice_after_an_exact_time(self):
        values = np.cumsum(np.random.default_rng(8).normal(size=(4, 9)), axis=1)
        values[2:] = np.nan                 # not filled yet: building it would raise
        ring = HistoryField(self.x, 0.25, values, filled=2)
        got = ring.lookup(np.array([0.25, 0.125, 0.0]), self.x)
        assert np.array_equal(got[[2, 0]], values[:2])
        assert np.array_equal(got[1], 0.5 * values[0] + 0.5 * values[1])

    def test_points_located_on_other_nodes_refused(self):
        ring = HistoryField(self.x, 0.25, np.ones((3, 9)))
        with pytest.raises(DomainError, match="node set"):
            ring.lookup(0.25, Located(self.x.copy(), self.x))
        with pytest.raises(DomainError, match="node set"):
            ring.lookup(np.array([0.0, 0.25]), Located(self.x.copy(), self.x))

    def test_times_and_points_must_agree(self):
        ring = HistoryField(self.x, 0.25, np.ones((3, 9)))
        for times, xq in ((np.array([0.0, 0.25]), np.ones((3, 4))),
                          (np.array([0.0, 0.25]), np.float64(0.1)),
                          (np.zeros((2, 2)), np.ones(4))):
            with pytest.raises(DomainError, match="cannot read"):
                ring.lookup(times, xq)

    @pytest.mark.parametrize("keep", [math.inf, 4])
    def test_shared_points_read_as_the_scalar_lookup_at_each_time(self, keep, monkeypatch):
        # one point set at times that are not consecutive slices, or that lie
        # between slices for some times and on them for others, gathers the
        # slices of every time in one read; at keep = 4 a read spanning more
        # than 4 slices is refused
        rng = np.random.default_rng(21)
        values = np.cumsum(rng.normal(size=(10, 9)), axis=1)
        values[9] = np.nan                  # not filled yet: building it would raise
        ring = HistoryField(self.x, 0.25, values, filled=9, keep=keep)
        xq = np.linspace(-0.05, 0.55, 13)                   # NaN outside the nodes
        reads, read = [], HistoryField._read_rows
        monkeypatch.setattr(HistoryField, "_read_rows",
                            lambda self, rows, index, q: reads.append(index.shape[0])
                            or read(self, rows, index, q))
        for times in (np.array([0.0, 0.5, 2.0,              # on slices, the last filled one
                                0.3, 1.1, 0.25 + 1e-12, 1.9999999, 0.125]),
                      np.array([0.0, 0.5, 2.0, 1.0]),       # on slices, scattered
                      np.array([0.3, 1.1, 0.6, 1.9999999]),  # between slices, scattered
                      np.array([0.25, 0.6, 0.75, 1.1])):    # consecutive slices, mixed
            expected = np.array([ring.lookup(t, xq) for t in times.tolist()])
            for points in (xq, Located(self.x, xq)):
                reads.clear()
                if keep < 9:            # every set spans more than 4 slices
                    with pytest.raises(HistoryWindowError, match="capacity of 4$"):
                        ring.lookup(times, points)
                    assert reads == [1]
                    continue
                got = ring.lookup(times, points)
                assert reads == [1]         # one read, one row of intervals
                _assert_same_bits(got, expected)
            if keep >= 9:
                assert np.array_equal(np.isnan(got),
                                      np.broadcast_to((xq < 0.0) | (xq > 0.5), got.shape))

    def test_empty_times_read_an_empty_block(self, field_ref):
        ring = HistoryField(np.linspace(0.0, 1.0, 9), 0.25, np.ones((3, 9)))
        xq = np.linspace(0.0, 1.0, 5)
        for points in (xq, Located(ring.x, xq), np.empty((0, 5))):
            got = ring.lookup(np.array([]), points)
            assert got.shape == (0, 5) and got.dtype == float
        assert field_ref.lookup(np.array([]), field_ref.x[:5]).shape == (0, 5)
        assert field_ref.lookup(np.array([]), np.empty((0, 5))).shape == (0, 5)

    @pytest.mark.parametrize("far", [1e200, -1e200])
    def test_far_points_read_nan_without_warning(self, far):
        ring = HistoryField(self.x, 0.25, np.cumsum(
            np.random.default_rng(25).normal(size=(3, 9)), axis=1))
        xq = np.array([far, 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [ring.lookup(0.25, xq), ring.lookup(0.3, Located(self.x, xq)),
                   ring.lookup(np.array([0.0, 0.3]), np.stack([xq, xq]))]
        for block in got:
            block = block.reshape(-1, 2)
            assert np.isnan(block[:, 0]).all() and np.isfinite(block[:, 1]).all()

    def test_batched_slot_builds_equal_single_builds_with_a_band(self, monkeypatch):
        rng = np.random.default_rng(22)
        x = np.concatenate([self.x, np.linspace(0.5, 0.9, 5)[1:]])
        values = np.cumsum(rng.normal(size=(70, 9)), axis=1)
        upper = np.cumsum(rng.normal(size=(70, 5)), axis=1)
        # main plus band as one array: each row the main row followed by the band's
        joined = np.concatenate([values, upper[:, 1:]], axis=1)
        one = np.stack([solver_module.PchipInterpolator(x, joined[i]).c for i in range(70)])
        builds, kernel = [], solver_module.PchipInterpolator
        monkeypatch.setattr(solver_module, "PchipInterpolator",
                            lambda nodes, y: builds.append(y.shape) or kernel(nodes, y))
        batch = HistoryField(x, 0.25, joined)
        batch.lookup(np.arange(70) * 0.25, x)
        assert builds == [(64, 13), (6, 13)]
        assert np.array_equal(batch._held, np.arange(70))
        _assert_same_bits(batch._block, one)

    def test_a_single_slice_builds_as_a_batch_of_one(self, monkeypatch):
        values = np.cumsum(np.random.default_rng(23).normal(size=(3, 9)), axis=1)
        builds, kernel = [], solver_module.PchipInterpolator
        monkeypatch.setattr(solver_module, "PchipInterpolator",
                            lambda nodes, y: builds.append(y.shape) or kernel(nodes, y))
        ring = HistoryField(self.x, 0.25, values)
        assert np.array_equal(ring.lookup(0.5, self.x), values[2])
        assert builds == [(1, 9)]
        # the bits of the 1-D cubic
        _assert_same_bits(ring._block[2], kernel(self.x, values[2]).c)

    @pytest.mark.parametrize("keep", [math.inf, 4])
    def test_consecutive_times_read_their_span_once(self, keep, monkeypatch):
        # consecutive slices, every time ahead of its slice or none: the span is
        # one read, and the rows are those of the general shared-point path
        rng = np.random.default_rng(24)
        values = np.cumsum(rng.normal(size=(12, 9)), axis=1)
        ring = HistoryField(self.x, 0.25, values, keep=keep)
        xq = np.linspace(-0.05, 0.55, 13)
        reads, read = [], HistoryField._read_rows
        monkeypatch.setattr(HistoryField, "_read_rows",
                            lambda self, rows, index, q: reads.append(rows.tolist())
                            or read(self, rows, index, q))
        for times in (0.25 * np.arange(2, 9), 0.25 * np.arange(2, 9) + 0.1):
            reads.clear()
            span = list(range(2, 9 + (times[0] % 0.25 > 0)))
            if keep < len(span):
                with pytest.raises(HistoryWindowError, match=f"slices 2 to {span[-1]} spans {len(span)} slices"):
                    ring.lookup(times, xq)
                assert reads == [span]
                continue
            got = ring.lookup(times, xq)
            assert reads == [span]
            _assert_same_bits(got, np.array([ring.lookup(t, xq) for t in times.tolist()]))
            shuffled = rng.permutation(times.size)      # not consecutive: the general path
            _assert_same_bits(got[shuffled], ring.lookup(times[shuffled], xq))


def _time_bracket(t: float, dt: float):
    """(i, theta) with t = (i + theta) * dt in scalar arithmetic, snapping onto
    slices within 1e-9; a non-finite t brackets to i = -1, before every slice."""
    pos = float(t) / dt
    if not math.isfinite(pos):
        return -1, 0.0
    i = math.floor(pos + 1e-9)
    theta = pos - i
    if theta < 1e-9:
        theta = 0.0
    return i, theta


def _q_rows(solver, st, i0, steps):
    """The division integral a row and an age node at a time."""
    acc = np.zeros((steps + 1, solver.grid.m_nodes.size))
    for r in range(steps + 1):
        t = (i0 + r) * solver.grid.dt
        for q in range(solver._a_nodes.size):
            nv = st.ring.lookup(t - solver._a_nodes[q], st.age_points[q])
            acc[r] += (solver._a_weights[q] * st.zeta_qa[q]
                       * solver.kern.beta(solver._mdelta[q], nv) * nv)
    return acc


class TestWindowBlockReads:
    @pytest.mark.parametrize("params, m_nodes, dt_divisor, band", [
        pytest.param(reference_params(), 512, 64, False, id="reference-512x64"),
        pytest.param(reference_params(), 64, 7, False, id="dt-divisor-7"),
        pytest.param(reference_params(c=0.3, tau_lower=1.0, tau_upper=2.0), 64, 8, True,
                     id="band-c0.3")])
    def test_window_q_equals_row_by_row_reads(self, params, m_nodes, dt_divisor, band):
        solver = Solver(params, m_nodes=m_nodes, dt_divisor=dt_divisor)
        hist = InitialHistory.from_callable(smooth_history, solver.grid,
                                            upper=smooth_history if band else None)
        st = solver.start(hist, T=5.0)
        for _ in range(2):                  # a window on history, then one past it
            i0 = st.ring.filled - 1
            steps = min(solver.grid.n_window, st.n_slices - 1 - i0)
            Q = solver._q_slice(st, i0, steps)
            assert Q.shape == (steps + 1, m_nodes)
            assert np.array_equal(Q, _q_rows(solver, st, i0, steps))
            solver.solve_window(st)

    def test_reference_solve_builds_no_single_slot(self, monkeypatch):
        # the ring, the history pull and the residual reads build slices in
        # batches, every slot with the bits of its slice's own build
        batches, build = [], HistoryField._build

        def checked(self, rows):
            build(self, rows)
            batches.append(rows.size)
            one = [solver_module.PchipInterpolator(self.nodes, self.values[i]).c
                   for i in rows.tolist()]
            _assert_same_bits(self._block[rows % self.capacity], np.stack(one))

        monkeypatch.setattr(HistoryField, "_build", checked)
        solver = Solver(reference_params(), m_nodes=512, dt_divisor=64)
        field = solver.solve(InitialHistory.from_callable(smooth_history, solver.grid), T=10.0)
        assert solver.residual_stats(field)["n_samples"] > 0
        assert sum(batches) >= 16 * len(batches)

    @pytest.mark.parametrize("dt_divisor", [64, 7])
    def test_vector_bracket_equals_the_per_time_bracket(self, dt_divisor):
        solver = Solver(reference_params(), m_nodes=16, dt_divisor=dt_divisor)
        grid = solver.grid
        rows = np.arange(grid.n_history, grid.n_history + grid.steps_to(10.0) + 1)
        times = (rows[:, None] * grid.dt - solver._a_nodes[None, :]).ravel()
        i, theta = solver_module._time_brackets(times, grid.dt)
        expected = [_time_bracket(t, grid.dt) for t in times.tolist()]
        assert np.array_equal(i, [e[0] for e in expected])
        assert np.array_equal(theta, [e[1] for e in expected])
        # the weight of one age node is not the same in every row
        assert max(np.unique(th).size for th in theta.reshape(rows.size, -1).T) > 1
        i, theta = solver_module._time_brackets(np.array(NONFINITE_TIMES), 0.25)
        expected = [_time_bracket(t, 0.25) for t in NONFINITE_TIMES]
        assert list(zip(i, theta)) == expected


class TestSolvedFieldStore:
    """The solver reads a field through its own store, ``Solver._slices``;
    ``SolutionField.lookup`` reads through one that keeps every slice."""

    def test_holds_one_history_depth_and_reads_as_an_unbounded_store(self, solver_ref,
                                                                      field_ref):
        reader = solver_ref._reader(field_ref)
        assert reader.capacity == solver_ref.grid.n_history + 2
        assert reader._block.shape[0] == reader.capacity
        unbounded = HistoryField(field_ref.x, field_ref.dt, field_ref.N)
        xq = np.linspace(0.0, field_ref.x[-1], 37)
        for t in (7.9, 0.3, 4.1, 7.95, 2.0, 0.3):
            assert np.array_equal(reader.lookup(t, xq), unbounded.lookup(t, xq))

    def test_reloaded_field_holds_one_history_depth(self, tmp_path):
        # a band field saved and loaded reads through a store of one history
        # depth, and its P and residual are the in-memory field's bit for bit
        solver = Solver(reference_params(c=0.3), m_nodes=64, dt_divisor=16)
        field = solver.solve(InitialHistory.from_callable(
            smooth_history, solver.grid, upper=smooth_history), T=5.0)
        field.save(tmp_path / "field")
        back = SolutionField.load(tmp_path / "field")
        assert solver._reader(back).capacity == solver.grid.n_history + 2
        assert _hex(solver.residual_stats(back)) == _hex(solver.residual_stats(field))
        for f in (field, back):
            solver.proliferating(f, age_gamma)
        for got, want in ((back.P, field.P), (back.upper.P, field.upper.P)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_fields_without_a_recorded_grid_keep_every_slice(self, field_ref):
        xq = field_ref.x[:3]
        for meta in (None, field_ref.metadata):
            field = SolutionField(field_ref.times, field_ref.x, field_ref.m, field_ref.N,
                                  metadata=meta)
            assert np.array_equal(field.lookup(4.0, xq), field_ref.lookup(4.0, xq))
            assert field._history.capacity == field_ref.times.size

    @pytest.mark.parametrize("meta", ['{"grid": [1, 2]}',
                                      '{"grid": {"dt": 0, "tau_upper": 1}}'])
    def test_metadata_without_a_usable_grid_keeps_every_slice(self, field_ref, tmp_path,
                                                              meta):
        field_ref.save(tmp_path / "field")
        (tmp_path / "field.meta.json").write_text(meta)
        back = SolutionField.load(tmp_path / "field")
        assert np.array_equal(back.lookup(4.0, field_ref.x[:3]),
                              field_ref.lookup(4.0, field_ref.x[:3]))
        assert back._history.capacity == field_ref.times.size


class TestForeignField:
    """``proliferating`` and the residual read a field only on the solver's grid."""

    @pytest.mark.parametrize("other", [{"m_nodes": 48}, {"dt_divisor": 16}],
                             ids=["48-nodes", "dt-divisor-16"])
    def test_field_of_another_grid_is_refused(self, other):
        grid = {"m_nodes": 32, "dt_divisor": 8}
        solved = Solver(reference_params(), **grid)
        field = solved.solve(InitialHistory.from_callable(smooth_history, solved.grid), 4.0)
        solver = Solver(reference_params(), **{**grid, **other})
        with pytest.raises(DomainError, match="grid"):
            solver.proliferating(field, age_gamma)
        assert field.P is None
        with pytest.raises(DomainError, match="grid"):
            solver.residual_stats(field)
        solved.proliferating(field, age_gamma)
        solved.residual_stats(field)

    def test_csv_field_asks_for_a_reload(self, tmp_path):
        solver = Solver(reference_params(), m_nodes=32, dt_divisor=8)
        solver.solve(InitialHistory.from_callable(smooth_history, solver.grid),
                     4.0).to_csv(tmp_path / "field.csv")
        back = SolutionField.from_csv(tmp_path / "field.csv")
        for read in (lambda: solver.proliferating(back, age_gamma),
                     lambda: solver.residual_stats(back)):
            with pytest.raises(DomainError, match="SolutionField.load"):
                read()


def _small_field() -> SolutionField:
    x = np.linspace(0.0, 1.0, 4)
    return SolutionField(np.arange(3) * 0.5, x, x, np.ones((3, 4)))


def _hex(stats: dict) -> dict:
    return {k: float.hex(float(v)) for k, v in stats.items()}


class TestNonFiniteTimes:
    @pytest.mark.parametrize("t", NONFINITE_TIMES)
    def test_field_lookup(self, field_ref, t):
        with pytest.raises(HistoryWindowError):
            field_ref.lookup(t, field_ref.x[:5])

    @pytest.mark.parametrize("t", NONFINITE_TIMES)
    def test_residual(self, solver_ref, field_ref, t):
        with pytest.raises(DomainError, match="finite"):
            solver_ref.residual(field_ref, t, solver_ref.grid.m_nodes[10])

    @pytest.mark.parametrize("t", NONFINITE_TIMES)
    def test_eval_G(self, solver_ref, field_ref, t):
        with pytest.raises(DomainError, match="finite"):
            eval_G(solver_ref, field_ref, t, 0.3)

    @pytest.mark.parametrize("t", NONFINITE_TIMES)
    def test_eval_J(self, solver_ref, field_ref, t):
        with pytest.raises(DomainError, match="finite"):
            eval_J(solver_ref, field_ref, t, 0.3)


class TestSolveBasics:
    def test_zero_history_stays_zero(self, solver_ref):
        hist = InitialHistory.zeros(solver_ref.grid)
        field = solver_ref.solve(hist, T=8.0)
        assert np.all(field.N == 0.0)
        assert field.metadata["max_iterations"] == 1

    def test_no_reintroduction_single_iteration(self):
        solver = Solver(reference_params(beta_form="constant", beta0=0.0),
                        m_nodes=128, dt_divisor=16)
        hist = InitialHistory.from_callable(smooth_history, solver.grid)
        field = solver.solve(hist, T=6.0)
        assert field.metadata["max_iterations"] == 1

    def test_transport_decay_matches_closed_form(self):
        # with no reintroduction and no proliferating load the population is
        # a pure pullback of the history edge with exponential attenuation
        solver = Solver(reference_params(beta_form="constant", beta0=0.0,
                                         delta=0.05), m_nodes=256, dt_divisor=32)
        hist = InitialHistory.from_callable(lambda t, m: m + 0.0 * t, solver.grid)
        field = solver.solve(hist, T=10.0)
        sel = field.times >= TAU - 1e-12
        tt = field.times[sel][:, None]
        closed = field.m[None, :] * np.exp(-2.05 * (tt - TAU))
        err = np.max(np.abs(field.N[sel] - closed)) / np.max(closed)
        assert err < 1e-12

    def test_determinism(self, solver_ref):
        hist = InitialHistory.from_callable(smooth_history, solver_ref.grid)
        f1 = solver_ref.solve(hist, T=6.0)
        f2 = solver_ref.solve(hist, T=6.0)
        assert np.array_equal(f1.N, f2.N)

    def test_deeper_decay_tables_change_no_bits(self):
        # decay-table nodes are dyadic in u, so tables of any depth agree bit
        # for bit where they overlap: a solve reads the same numbers whichever
        # depth the kernels' cache hands it, and whatever the cache holds
        fresh, deep = (Solver(reference_params(delta=lambda m: 0.1 + 0.5 * m ** 2),
                              m_nodes=128, dt_divisor=16) for _ in range(2))
        hist = InitialHistory.from_callable(smooth_history, fresh.grid)
        long = deep.solve(hist, T=60.0)
        f1, f2 = fresh.solve(hist, T=6.0), deep.solve(hist, T=6.0)
        assert np.array_equal(f1.N, f2.N)
        # the first slices of the long solve read its deep tables
        assert np.array_equal(long.N[:f1.times.size], f1.N)
        assert fresh.residual_stats(f1) == deep.residual_stats(f2)
        shallow = [deep.kern.decay_table(which, -10.0)
                   for which in ("resting", "proliferating")]
        far = [deep.kern.decay_table(which, -70.0)
               for which in ("resting", "proliferating")]
        assert shallow[0] is not far[0] and far[0]._u_min < shallow[0]._u_min
        x = np.linspace(0.0, 0.5, 33)[:, None]
        elapsed = np.linspace(0.0, 8.0, 17)[None, :]      # ln x - elapsed > -16
        for a, b in zip(shallow, far):
            assert np.array_equal(a.log_survival(x, elapsed), b.log_survival(x, elapsed))

    def test_horizon_below_history_depth_rejected(self, solver_ref):
        hist = InitialHistory.zeros(solver_ref.grid)
        with pytest.raises(ConfigurationError):
            solver_ref.solve(hist, T=1.0)

    @pytest.mark.parametrize("T", [1e308, float("inf"), float("nan")])
    def test_oversized_horizon_rejected(self, solver_ref, T):
        with pytest.raises(ConfigurationError, match="cap"):
            solver_ref.solve(InitialHistory.zeros(solver_ref.grid), T=T)

    def test_slice_cap_counts_the_band(self, monkeypatch):
        # a band solve to T = 6 holds main plus band: a cap between the main
        # slices and those is refused, one of exactly those passes (start, not
        # solve, so a few hundred kB are allocated at most)
        solver = Solver(reference_params(c=0.3), m_nodes=64, dt_divisor=8)
        grid = solver.grid
        rows = 6.0 / grid.tau_lower * grid.n_window + 1.0
        band = InitialHistory.from_callable(smooth_history, grid, upper=smooth_history)
        monkeypatch.setattr(solver_module, "MAX_SLICE_BYTES",
                            4.0 * (grid.x_nodes.size + grid.x_full.size) * rows)
        with pytest.raises(ConfigurationError, match="cap"):
            solver.start(band, 6.0)
        monkeypatch.setattr(solver_module, "MAX_SLICE_BYTES", 8.0 * grid.x_full.size * rows)
        solver.start(band, 6.0)

    def test_history_shape_checked(self, solver_ref):
        hist = InitialHistory(values=np.zeros((3, 8)))
        with pytest.raises(ConfigurationError):
            solver_ref.solve(hist, T=6.0)

    def test_history_callable_of_wrong_shape_named(self, solver_ref):
        with pytest.raises(ConfigurationError, match="the history phi"):
            InitialHistory.from_callable(lambda t, m: np.ones(3), solver_ref.grid)

    def test_nonfinite_history_rejected(self, solver_ref):
        hist = InitialHistory.zeros(solver_ref.grid)
        hist.values[3, 10] = np.nan
        with pytest.raises(ConfigurationError, match="finite"):
            solver_ref.solve(hist, T=6.0)

    def test_nonfinite_last_history_slice_rejected(self, solver_ref):
        hist = InitialHistory.zeros(solver_ref.grid)
        hist.values[-1, 10] = np.nan
        with pytest.raises(ConfigurationError, match="finite"):
            solver_ref.solve(hist, T=6.0)

    def test_nonfinite_upper_band_rejected(self, solver_ref):
        hist = InitialHistory.from_callable(
            smooth_history, solver_ref.grid, upper=lambda t, m: np.nan + 0.0 * (t + m))
        with pytest.raises(ConfigurationError, match="finite"):
            solver_ref.solve(hist, T=6.0)

    def test_nonconvergence_signalled(self):
        # l * window length = 60: the contraction only wins past n = 50
        solver = Solver(reference_params(beta0=60.0), m_nodes=64, dt_divisor=16)
        hist = InitialHistory.from_callable(smooth_history, solver.grid)
        with pytest.raises(ConvergenceError) as err:
            solver.solve(hist, T=4.0)
        assert err.value.window_index == 0
        assert err.value.last_delta is not None

    def test_nonfinite_rate_signalled(self):
        solver = Solver(nan_band_params(), m_nodes=64, dt_divisor=8)
        hist = InitialHistory.from_callable(lambda t, m: 0.65 + 0.0 * (t + m),
                                            solver.grid)
        with pytest.raises(ConvergenceError, match="non-finite") as err:
            solver.solve(hist, T=4.0)
        assert err.value.window_index == 0


class TestPicardBookkeeping:
    def test_junction_mismatch_small(self, field_ref):
        scale = np.max(np.abs(field_ref.N))
        assert field_ref.metadata["max_junction_mismatch"] <= 1e-9 * scale

    def test_factorial_envelope(self, field_ref):
        meta = field_ref.metadata
        l, ab = meta["lipschitz_l"], meta["alpha_bar"]
        for wm in meta["windows"]:
            L = wm["t_end"] - wm["t_start"]
            M = wm["sup_initial_iterate"]
            for n, d in enumerate(wm["deltas"], start=1):
                bound = 2.0 * M * (ab * l * L) ** n / math.factorial(n)
                assert d <= bound

    def test_iteration_counts_modest(self, field_ref):
        assert field_ref.metadata["max_iterations"] <= 10

    def test_windows_cover_horizon(self, field_ref):
        wins = field_ref.metadata["windows"]
        assert wins[0]["t_start"] == pytest.approx(TAU)
        assert wins[-1]["t_end"] == pytest.approx(8.0)
        for a, b in zip(wins[:-1], wins[1:]):
            assert a["t_end"] == pytest.approx(b["t_start"])


WAVE_DEPTHS = [1, 2, solver_module._DEPTH_CAP]


def _at_depth(monkeypatch, depth):
    """Force every window's wave depth; returns the list of waves run."""
    monkeypatch.setattr(solver_module, "_wave_depth", lambda *args: depth)
    waves = []
    sweep = Solver._j_sweep

    def counted(self, st, win):
        waves.append(st.window_index)
        return sweep(self, st, win)
    monkeypatch.setattr(Solver, "_j_sweep", counted)
    return waves


class TestWaveGrouping:
    """How many Picard iterates a wave runs ahead changes which rows share a
    batched shift, never a bit: depth 1 runs the iterates one at a time."""

    CASES = {
        "reference-64": (reference_params(), 64, 16, 8.0, False),
        "band-c0.3": (reference_params(c=0.3), 64, 8, 6.0, True),
    }

    @staticmethod
    def _solve(case):
        params, m_nodes, dt_divisor, T, band = case
        solver = Solver(params, m_nodes=m_nodes, dt_divisor=dt_divisor)
        hist = InitialHistory.from_callable(smooth_history, solver.grid,
                                            upper=smooth_history if band else None)
        return solver.solve(hist, T)

    @pytest.mark.parametrize("depth", WAVE_DEPTHS)
    @pytest.mark.parametrize("name", list(CASES))
    def test_depth_changes_no_bit(self, monkeypatch, name, depth):
        case = self.CASES[name]
        plain = self._solve(case)
        waves = _at_depth(monkeypatch, depth)
        field = self._solve(case)
        assert np.array_equal(field.N, plain.N)
        assert np.array_equal(field.N.view(np.uint64), plain.N.view(np.uint64))
        if plain.upper is not None:
            assert np.array_equal(field.upper.N, plain.upper.N)
        assert field.metadata["windows"] == plain.metadata["windows"]
        # depth d runs ceil(sweeps / d) waves per window
        sweeps = [w["iterations"] + 1 for w in plain.metadata["windows"]]
        assert len(waves) == sum(-(-n // depth) for n in sweeps)

    @pytest.mark.parametrize("depth", WAVE_DEPTHS)
    def test_nonconvergence_unchanged(self, monkeypatch, depth):
        solver = Solver(reference_params(beta0=60.0), m_nodes=64, dt_divisor=16)
        hist = InitialHistory.from_callable(smooth_history, solver.grid)
        with pytest.raises(ConvergenceError) as plain:
            solver.solve(hist, T=4.0)
        _at_depth(monkeypatch, depth)
        with pytest.raises(ConvergenceError) as err:
            solver.solve(hist, T=4.0)
        assert err.value.window_index == plain.value.window_index == 0
        assert err.value.last_delta == plain.value.last_delta
        assert str(err.value) == str(plain.value)

    @pytest.mark.parametrize("depth", WAVE_DEPTHS)
    @pytest.mark.parametrize("params, history", [
        pytest.param(nan_band_params(), lambda t, m: 0.65 + 0.0 * (t + m), id="nan-band"),
        # beta = 60 / (1 + x), NaN above x = 50, which the diverging iterates
        # pass after a few sweeps: a wave meets the NaN in an iterate that
        # runs ahead and raises once the iterate before it fails its test
        pytest.param(dataclasses.replace(reference_params(), reintroduction=(
            CustomReintroduction(
                fn=lambda m, x: np.where(x > 50.0, np.nan, 60.0 / (1.0 + x)) + 0.0 * m,
                lipschitz_bound=60.0, name="nan_above_50"))),
            lambda t, m: 0.6 + 0.5 * np.sin(3.0 * t) + 0.4 * m, id="nan-above-50")])
    def test_nonfinite_rate_unchanged(self, monkeypatch, depth, params, history):
        solver = Solver(params, m_nodes=64, dt_divisor=8)
        hist = InitialHistory.from_callable(history, solver.grid)
        with pytest.raises(ConvergenceError, match="non-finite") as plain:
            solver.solve(hist, T=4.0)
        _at_depth(monkeypatch, depth)
        with pytest.raises(ConvergenceError, match="non-finite") as err:
            solver.solve(hist, T=4.0)
        assert err.value.window_index == plain.value.window_index == 0
        assert str(err.value) == str(plain.value)


class TestDirectFormEvaluators:
    def test_trivial_zeros(self, solver_ref, field_ref):
        assert eval_G(solver_ref, field_ref, TAU, 0.3) == 0.0
        assert eval_J(solver_ref, field_ref, TAU, 0.3) == 0.0

    def test_no_reintroduction_zeroes_both(self):
        solver = Solver(reference_params(beta_form="constant", beta0=0.0),
                        m_nodes=64, dt_divisor=16)
        hist = InitialHistory.from_callable(smooth_history, solver.grid)
        field = solver.solve(hist, T=5.0)
        assert eval_G(solver, field, 4.0, 0.3) == 0.0
        assert eval_J(solver, field, 4.0, 0.3) == 0.0

    def test_no_division_zeroes_influx(self):
        solver = Solver(reference_params(kappa=0.0), m_nodes=64, dt_divisor=16)
        hist = InitialHistory.from_callable(smooth_history, solver.grid)
        field = solver.solve(hist, T=5.0)
        assert eval_G(solver, field, 4.0, 0.3) == 0.0

    def test_constant_field_outflux_closed_form(self):
        # N = c and beta = b constant: J = b c (1 - e^-(r (t - tau)))/r
        solver = Solver(reference_params(beta_form="constant", beta0=0.4,
                                         delta=0.05, gamma=0.0),
                        m_nodes=128, dt_divisor=64)
        grid = solver.grid
        c0, b0, r = 0.7, 0.4, 1.05
        n_slices = int(round(4.0 / grid.dt)) + 1
        rec = SolutionField(times=np.arange(n_slices) * grid.dt,
                            x=grid.x_nodes.copy(), m=grid.m_nodes.copy(),
                            N=np.full((n_slices, grid.m_nodes.size), c0))
        for t in (2.5, 3.5):
            expect = b0 * c0 * (1.0 - np.exp(-r * (t - TAU))) / r
            got = eval_J(solver, rec, t, 0.31)
            assert got == pytest.approx(expect, rel=2e-4)

    def test_fixed_point_relation_against_direct_forms(self, solver_ref, field_ref):
        # the solved field must satisfy N = phiK + G - J with the integrals
        # recomputed from scratch by the direct trapezoid/Gauss rules
        solver, field = solver_ref, field_ref
        grid = solver.grid
        nh = grid.n_history
        dec_r, _ = solver._ensure_tables(8.0)
        scale = np.max(np.abs(field.N))
        for it, j in ((nh + 40, 60), (nh + 90, 128), (nh + 150, 200)):
            t = field.times[it]
            m = grid.m_nodes[j]
            back = t - TAU
            phiK = (field.lookup(TAU, np.asarray([grid.x_nodes[j] * np.exp(-back)]))[0]
                    * float(dec_r.survival(np.asarray([grid.x_nodes[j]]), back)[0]))
            recomputed = (phiK + eval_G(solver, field, t, m)
                          - eval_J(solver, field, t, m))
            assert abs(recomputed - field.N[it, j]) < 2e-5 * scale


class TestResidualDiagnostic:
    def test_zero_field_zero_residual(self, solver_ref):
        grid = solver_ref.grid
        n_slices = int(round(6.0 / grid.dt)) + 1
        field = SolutionField(times=np.arange(n_slices) * grid.dt,
                              x=grid.x_nodes.copy(), m=grid.m_nodes.copy(),
                              N=np.zeros((n_slices, grid.m_nodes.size)))
        val = solver_ref.residual(field, 4.0, grid.m_nodes[100])
        assert val == 0.0

    def test_transport_decay_residual_small(self):
        solver = Solver(reference_params(beta_form="constant", beta0=0.0,
                                         delta=0.05), m_nodes=256, dt_divisor=64)
        hist = InitialHistory.from_callable(lambda t, m: m + 0.0 * t, solver.grid)
        field = solver.solve(hist, T=6.0)
        stats = solver.residual_stats(field)
        assert stats["max"] < 5e-4
        assert stats["median"] < 5e-5

    def test_residual_shrinks_under_refinement(self):
        par = reference_params()
        stats = []
        for nodes, div in ((128, 16), (256, 32)):
            solver = Solver(par, m_nodes=nodes, dt_divisor=div)
            hist = InitialHistory.from_callable(smooth_history, solver.grid)
            field = solver.solve(hist, T=6.0)
            stats.append(solver.residual_stats(field))
        assert stats[0]["median"] / stats[1]["median"] >= 3.0

    def test_alignment_and_interior_requirements(self, solver_ref, field_ref):
        grid = solver_ref.grid
        with pytest.raises(Exception):
            solver_ref.residual(field_ref, TAU + 0.5 * grid.dt, grid.m_nodes[10])
        with pytest.raises(Exception):
            solver_ref.residual(field_ref, 4.0, grid.m_nodes[0])


def _residual_one_sample(solver, field, t, m):
    """The residual as one point and one age node at a time: the per-sample
    form that ``Solver._residuals`` evaluates as a block."""
    grid = solver.grid
    i = solver._aligned_index(t)
    j = int(np.argmin(np.abs(grid.m_nodes - m)))
    _, dec_g = solver._ensure_tables(float(field.times[-1]) + grid.tau_upper)
    mj = grid.m_nodes[j]
    V = solver.params.velocity
    dN_dt = (field.N[i + 1, j] - field.N[i - 1, j]) / (2.0 * grid.dt)
    fluxes = V(grid.m_nodes[j - 1:j + 2]) * field.N[i, j - 1:j + 2]
    dx = grid.x_nodes[1] - grid.x_nodes[0]
    dflux_dx = (fluxes[2] - fluxes[0]) / (2.0 * dx)
    dflux_dm = dflux_dx * grid.x_nodes[j] / float(V(np.asarray([mj]))[0])
    nv_here = field.N[i, j]
    delta = float(solver.params.rates.delta_fn()(np.asarray([mj]))[0])
    decay = -(delta + float(solver.kern.beta(np.asarray(mj), np.asarray(nv_here)))) * nv_here
    lgi = float(solver.flow.log_h(solver.params.maturity.inverse(np.asarray(mj))))
    a_nodes = solver._a_nodes
    xd = np.exp(lgi - a_nodes)
    md = solver.flow.h_inv_log(lgi - a_nodes)
    k_q = solver.params.division.k(np.full(16, mj), a_nodes, solver.flow.g1)
    xi_q = np.exp(dec_g.log_survival(np.full(16, np.exp(lgi)), a_nodes))
    nv = np.array([float(field.lookup(t - a, np.asarray([xq]))[0])
                   for a, xq in zip(a_nodes, xd)])
    # the solver's delayed-flux terms, a_w * zeta * beta * N with zeta = 2 k xi,
    # added in age order as it adds them
    gain = 0.0
    for term in (solver._a_weights * (2.0 * k_q * xi_q) * solver.kern.beta(md, nv)
                 * nv).tolist():
        gain += term
    return float(dN_dt + dflux_dm - decay - gain)


class TestResidualBlock:
    """``residual_stats``' 12 x 24 sample is one block, bit-equal to the
    residual evaluated one sample at a time."""

    @pytest.mark.parametrize("c, m_nodes, dt_divisor, T, band", [
        (0.5, 512, 64, 10.0, False),        # the reference solve
        (0.3, 128, 16, 6.0, True),          # ancestry above g(1): a band solve
    ])
    def test_sample_equals_one_sample_at_a_time(self, c, m_nodes, dt_divisor, T, band):
        solver = Solver(reference_params(c=c), m_nodes=m_nodes, dt_divisor=dt_divisor)
        field = solver.solve(InitialHistory.from_callable(
            smooth_history, solver.grid, upper=smooth_history if band else None), T)
        grid = solver.grid
        t_idx = np.unique(np.linspace(grid.n_history + 1, field.times.size - 2, 12,
                                      dtype=int))
        j_idx = np.unique(np.random.default_rng(0).integers(1, m_nodes - 1, size=24))
        expected = np.array([_residual_one_sample(solver, field, field.times[i],
                                                  grid.m_nodes[j])
                             for i in t_idx for j in j_idx])
        block = solver._residuals(field, field.times[t_idx], t_idx, j_idx).ravel()
        assert block.size == t_idx.size * j_idx.size
        assert np.array_equal(block.view(np.uint64), expected.view(np.uint64))
        stats = solver.residual_stats(field)
        assert stats["n_samples"] == expected.size
        assert float.hex(stats["max"]) == float.hex(float(np.abs(expected).max()))
        assert float.hex(stats["median"]) == float.hex(float(np.median(np.abs(expected))))
        for k in (0, expected.size // 2, expected.size - 1):
            i, j = t_idx[k // j_idx.size], j_idx[k % j_idx.size]
            one = solver.residual(field, field.times[i], grid.m_nodes[j])
            assert float.hex(one) == float.hex(float(expected[k]))

    def test_band_solve_residuals_are_finite(self):
        # the ancestry above g(1) is read from the band, as the solve reads it
        solver = Solver(reference_params(c=0.3), m_nodes=128, dt_divisor=16)
        field = solver.solve(InitialHistory.from_callable(
            smooth_history, solver.grid, upper=smooth_history), 6.0)
        stats = solver.residual_stats(field)
        assert np.isfinite([stats["max"], stats["median"]]).all()
        assert stats["median"] < 1e-4          # the c = 0.5 solve at this size: 5.7e-5


class TestUpperBand:
    def test_band_never_feeds_back(self):
        par = reference_params()
        solver = Solver(par, m_nodes=128, dt_divisor=16)
        hist_plain = InitialHistory.from_callable(smooth_history, solver.grid)
        hist_band = InitialHistory.from_callable(
            smooth_history, solver.grid, upper=lambda t, m: 5.0 + 0.0 * t * m)
        f_plain = solver.solve(hist_plain, T=6.0)
        f_band = solver.solve(hist_band, T=6.0)
        assert f_band.upper is not None
        assert np.array_equal(f_plain.N, f_band.N)

    def test_band_transport_decay(self):
        # constant beta = 0: the band obeys pure transport-decay too
        par = reference_params(beta_form="constant", beta0=0.0, delta=0.05)
        solver = Solver(par, m_nodes=256, dt_divisor=32)
        hist = InitialHistory.from_callable(
            lambda t, m: m + 0.0 * t, solver.grid,
            upper=lambda t, m: m + 0.0 * t)
        field = solver.solve(hist, T=6.0)
        sel = field.times >= TAU - 1e-12
        tt = field.times[sel][:, None]
        closed = field.upper.m[None, :] * np.exp(-2.05 * (tt - TAU))
        err = np.max(np.abs(field.upper.N[sel] - closed)) / np.max(closed)
        assert err < 1e-6

    @pytest.mark.parametrize("warmup", [False, True], ids=["band-history", "warmup"])
    def test_band_node_at_g1_is_the_main_grid_last_node(self, warmup):
        solver = Solver(reference_params(c=0.3), m_nodes=128, dt_divisor=16)
        hist = (solver.warmup(WarmupData(Gamma=age_gamma, N0=lambda m: 0.5 - 0.2 * m))
                if warmup else InitialHistory.from_callable(
                    smooth_history, solver.grid, upper=lambda t, m: smooth_history(t, m)
                    + 0.01 * m))
        field = solver.solve(hist, T=6.0)
        assert np.array_equal(field.upper.N[:, 0].view(np.uint64),
                              field.N[:, -1].view(np.uint64))
        # one memory cell, not two kept equal
        assert np.shares_memory(field.N[:, -1], field.upper.N[:, 0])
        solver.proliferating(field, age_gamma)
        assert np.shares_memory(field.P[:, -1], field.upper.P[:, 0])
        if warmup:
            assert np.shares_memory(hist.values[:, -1], hist.upper[:, 0])

    def test_combined_lookup_reads_the_joined_row(self):
        par = reference_params(c=0.3, tau_lower=1.0, tau_upper=2.0)
        solver = Solver(par, m_nodes=64, dt_divisor=8)
        field = solver.solve(InitialHistory.from_callable(
            smooth_history, solver.grid, upper=smooth_history), T=4.0)
        x_full = np.concatenate([field.x, field.upper.x[1:]])
        xq = np.linspace(0.0, 0.99, 41)
        for i in (0, 17, field.times.size - 1):
            row = np.concatenate([field.N[i], field.upper.N[i][1:]])
            expected = PchipInterpolator(x_full, row, extrapolate=False)(xq)
            assert np.array_equal(field.lookup(field.times[i], xq), expected)

    @pytest.mark.parametrize("c, m_nodes", [(0.3, 128), (0.5, 600)])
    def test_band_shift_is_the_tail_of_the_full_shift(self, c, m_nodes):
        # the band march reads the tail of the full shift: bit for bit the
        # shift onto the band nodes alone (at 600 nodes the full feet are
        # located by arithmetic, the band's by a search)
        solver = Solver(reference_params(c=c), m_nodes=m_nodes, dt_divisor=16)
        grid = solver.grid
        band = solver_module._Shift(grid.x_full, grid.band_x, grid.dt)
        tail = grid.m_nodes.size - 1
        rows = np.cumsum(np.random.default_rng(26).normal(size=(5, grid.x_full.size)), axis=1)
        for y in (rows[0], rows):
            _assert_same_bits(solver._shift_full(y)[..., tail:], band(y))

    def test_short_delay_requires_band_history(self):
        # tau_lower below the crossing time at g(1): ancestry reaches above
        # g(1), so a main-grid-only history cannot serve the influx lookups
        par = reference_params(c=0.3, tau_lower=1.0, tau_upper=2.0)
        solver = Solver(par, m_nodes=128, dt_divisor=16)
        hist = InitialHistory.from_callable(smooth_history, solver.grid)
        with pytest.raises(ConfigurationError):
            solver.solve(hist, T=5.0)
        hist_band = InitialHistory.from_callable(
            smooth_history, solver.grid, upper=smooth_history)
        field = solver.solve(hist_band, T=5.0)
        assert np.all(np.isfinite(field.N))


def _field_for_npz(band: bool, with_p: bool) -> SolutionField:
    """A field of signed values over many magnitudes, with or without a band and P."""
    rng = np.random.default_rng(5)
    n_t, n_m, n_b = 6, 9, 5
    values = lambda n: rng.normal(size=(n_t, n)) * 10.0 ** rng.integers(-300, 300, (n_t, n))
    x = np.linspace(0.0, 1.0, n_m)
    field = SolutionField(np.arange(n_t) * 0.25, x, x * x, values(n_m),
                          P=values(n_m) if with_p else None, metadata={"grid": {"m": n_m}})
    if band:
        bx = np.linspace(1.0, 1.5, n_b)
        field.upper = UpperBand(bx, bx * bx, values(n_b), values(n_b) if with_p else None)
    return field


def _npz_arrays(field: SolutionField) -> dict:
    """The arrays ``save`` writes, by member name, in the archive's order."""
    arrays = {"times": field.times, "x": field.x, "m": field.m, "N": field.N, "P": field.P}
    if field.upper is not None:
        arrays.update(upper_x=field.upper.x, upper_m=field.upper.m,
                      upper_N=field.upper.N, upper_P=field.upper.P)
    return {k: v for k, v in arrays.items() if v is not None}


class TestSerialization:
    def test_csv_round_trip_bit_exact(self, field_ref, tmp_path):
        path = tmp_path / "field.csv"
        field_ref.to_csv(path)
        back = SolutionField.from_csv(path)
        assert np.array_equal(back.N, field_ref.N)
        assert np.array_equal(back.times, field_ref.times)
        assert np.array_equal(back.m, field_ref.m)

    @pytest.mark.parametrize("with_p", [False, True])
    def test_csv_bytes_are_savetxt_bytes(self, tmp_path, with_p):
        rng = np.random.default_rng(3)
        n_t, n_m = 7, 9
        times = np.arange(n_t) * 0.1
        m = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 0.5, n_m - 1))])
        N = rng.normal(size=(n_t, n_m)) * 10.0 ** rng.integers(-300, 300, size=(n_t, n_m))
        N[0, :6] = [-0.0, 5e-324, 1e300, -1e300, -5e-324, -2.5]
        P = -N[::-1] if with_p else None
        SolutionField(times, None, m, N, P).to_csv(tmp_path / "field.csv")
        cols = [np.repeat(times, n_m), np.tile(m, n_t), N.ravel()]
        cols += [P.ravel()] if with_p else []
        np.savetxt(tmp_path / "savetxt.csv", np.column_stack(cols), fmt="%.17g",
                   delimiter=",", header="t,m,N" + ",P" * with_p, comments="")
        written = (tmp_path / "field.csv").read_bytes()
        assert written == (tmp_path / "savetxt.csv").read_bytes()
        assert written.splitlines()[1].startswith(b"0,0,-0")
        back = SolutionField.from_csv(tmp_path / "field.csv")
        for got, want in ((back.times, times), (back.m, m), (back.N, N), (back.P, P)):
            if want is None:
                assert got is None
            else:
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("name", ["field.csv.gz", "field.csv.bz2", "field.xz",
                                      "field.lzma"])
    def test_csv_refuses_compressed_names(self, tmp_path, name):
        field = SolutionField(np.arange(3) * 0.5, None, np.linspace(0.0, 1.0, 4),
                              np.ones((3, 4)))
        with pytest.raises(ConfigurationError, match="plain text"):
            field.to_csv(tmp_path / name)
        assert not (tmp_path / name).exists()

    def test_csv_field_refuses_flow_lookup(self, tmp_path):
        # alpha = 2 makes h(m) = sqrt(m) != m, so the CSV's maturities do
        # not give the flow coordinates back
        solver = Solver(reference_params(alpha=2.0), m_nodes=64, dt_divisor=8)
        field = solver.solve(
            InitialHistory.from_callable(smooth_history, solver.grid), T=3.0)
        xq = field.x[5:9]
        field.to_csv(tmp_path / "field.csv")
        back = SolutionField.from_csv(tmp_path / "field.csv")
        assert np.array_equal(back.N, field.N)
        with pytest.raises(DomainError, match="SolutionField.load"):
            back.lookup(2.5, xq)
        field.save(tmp_path / "field")
        loaded = SolutionField.load(tmp_path / "field")
        assert np.array_equal(loaded.lookup(2.5, xq), field.lookup(2.5, xq))
        back.save(tmp_path / "from_csv")
        assert SolutionField.load(tmp_path / "from_csv").x is None

    @pytest.mark.parametrize("rows", ["", "0,0,1\n"], ids=["no-rows", "one-row"])
    def test_csv_of_fewer_than_two_slices_is_refused(self, tmp_path, rows):
        (tmp_path / "field.csv").write_text("t,m,N\n" + rows)
        with pytest.raises(ConfigurationError, match="field.csv"):
            SolutionField.from_csv(tmp_path / "field.csv")

    def test_csv_with_a_non_numeric_cell_is_refused(self, tmp_path):
        (tmp_path / "field.csv").write_text("t,m,N\n0,0,1\n0,1,x\n1,0,1\n1,1,1\n")
        with pytest.raises(ConfigurationError, match="field.csv"):
            SolutionField.from_csv(tmp_path / "field.csv")

    def test_load_refuses_malformed_metadata(self, tmp_path):
        _small_field().save(tmp_path / "field")
        (tmp_path / "field.meta.json").write_text('{"grid": ')
        with pytest.raises(ConfigurationError, match="field.meta.json: not JSON"):
            SolutionField.load(tmp_path / "field")

    @pytest.mark.parametrize("meta", ["[1, 2]", '"grid"', "3"])
    def test_load_refuses_metadata_that_is_not_an_object(self, tmp_path, meta):
        _small_field().save(tmp_path / "field")
        (tmp_path / "field.meta.json").write_text(meta)
        with pytest.raises(ConfigurationError, match="field.meta.json: expected a JSON object"):
            SolutionField.load(tmp_path / "field")

    def test_load_refuses_an_npz_without_times(self, tmp_path):
        field = _small_field()
        np.savez_compressed(tmp_path / "field.npz", x=field.x, m=field.m, N=field.N)
        with pytest.raises(ConfigurationError, match=r"field.npz: missing the array\(s\) times"):
            SolutionField.load(tmp_path / "field")

    @pytest.mark.parametrize("content", [b"t,m,N\n0,0,1\n", b"PK\x03\x04cut short"],
                             ids=["text", "broken-zip"])
    def test_load_refuses_a_file_that_is_not_an_npz(self, tmp_path, content):
        (tmp_path / "field.npz").write_bytes(content)
        with pytest.raises(ConfigurationError, match="field.npz: not an npz archive"):
            SolutionField.load(tmp_path / "field")

    def test_load_refuses_a_plain_npy_array(self, tmp_path):
        # np.load gives the array itself back, not an archive
        with open(tmp_path / "field.npz", "wb") as fh:
            np.save(fh, np.ones(3))
        with pytest.raises(ConfigurationError, match="field.npz: not an npz archive"):
            SolutionField.load(tmp_path / "field")

    @pytest.mark.parametrize("band", [False, True], ids=["no-band", "band"])
    @pytest.mark.parametrize("with_p", [False, True], ids=["no-P", "P"])
    def test_npz_holds_the_arrays_of_savez_compressed(self, tmp_path, band, with_p):
        # what np.savez_compressed wrote before: the same members, in the same
        # order, each deflated, zip64 forced (extract version 4.5), same bits
        import zipfile
        field = _field_for_npz(band, with_p)
        field.save(tmp_path / "field")
        arrays = _npz_arrays(field)
        np.savez_compressed(tmp_path / "numpy.npz", **arrays)
        with zipfile.ZipFile(tmp_path / "field.npz") as got, \
                zipfile.ZipFile(tmp_path / "numpy.npz") as want:
            assert ([(i.filename, i.file_size, i.extract_version) for i in got.infolist()]
                    == [(i.filename, i.file_size, i.extract_version)
                        for i in want.infolist()])
            assert {i.compress_type for i in got.infolist()} == {zipfile.ZIP_DEFLATED}
        with np.load(tmp_path / "field.npz") as data:
            assert data.files == list(arrays)
            for key, want in arrays.items():
                assert data[key].dtype == want.dtype and data[key].shape == want.shape
                assert np.array_equal(data[key].view(np.uint64), want.view(np.uint64)), key

    @pytest.mark.parametrize("band", [False, True], ids=["no-band", "band"])
    def test_load_reads_an_archive_of_savez_compressed(self, tmp_path, band):
        # outputs written before the npz was deflated at level 2 still load
        field = _field_for_npz(band, True)
        field.save(tmp_path / "field")
        np.savez_compressed(tmp_path / "field.npz", **_npz_arrays(field))
        back = SolutionField.load(tmp_path / "field")
        assert back.metadata == field.metadata
        pairs = [(back.times, field.times), (back.x, field.x), (back.m, field.m),
                 (back.N, field.N), (back.P, field.P)]
        if band:
            pairs += [(getattr(back.upper, k), getattr(field.upper, k))
                      for k in ("x", "m", "N", "P")]
        else:
            assert back.upper is None
        for got, want in pairs:
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_one_slice_field_has_no_time_step(self):
        field = SolutionField([0.0], np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 4),
                              np.ones((1, 4)))
        with pytest.raises(DomainError, match="time step"):
            field.lookup(0.0, np.array([0.5]))

    def test_binary_round_trip(self, field_ref, tmp_path):
        prefix = tmp_path / "field"
        field_ref.save(prefix)
        back = SolutionField.load(prefix)
        assert np.array_equal(back.N, field_ref.N)
        assert back.metadata["model_digest"] == field_ref.metadata["model_digest"]
