"""Batched numpy tracer against its scalar reference."""

import inspect

import numpy as np
import pytest

import selfsim as ss
from selfsim import _kernels, field as fld, vorticity

import scalar_tracer


def _trace_both(b, max_len, sgn):
    """Trace every node with the numpy and the scalar kernel."""
    g = b.grid
    X, Y = g.meshgrid()
    args = (b.u, b.v, fld.divergence(b).values, X.ravel(), Y.ravel(), sgn,
            0.5 * min(g.hx, g.hy), max_len, 1e-14,
            g.x0, g.x1, g.y0, g.y1, g.hx, g.hy, g.nx, g.ny)
    return _kernels.trace_all(*args), scalar_tracer.trace_all(*args)


@pytest.mark.parametrize("case", ["radial", "spiral", "rotation",
                                  "nonsquare", "forward"])
def test_numpy_tracer_matches_scalar_kernel(case):
    # the scalar reference, run as plain Python, on every node of a 9^2 grid
    # (11^2 for the rotation, whose step 0.1 is not a power of two, so that
    # summed steps round below max_len after ceil(max_len / step) steps);
    # nonsquare has nx != ny and hx != hy, where a wrong corner index shows,
    # and forward traces along +b, where a wrongly folded sign shows
    sgn = -1.0
    if case == "radial":
        grid = ss.Grid2D(0.25, 0.75, 0.25, 0.75, 9, 9)
        b = ss.VectorField.from_function(grid, lambda x, y: -x,
                                         lambda x, y: -y)
        max_len, counts = 20.0 * grid.diam, [56, 0, 0, 25]
    elif case == "rotation":
        grid = ss.Grid2D(-1, 1, -1, 1, 11, 11)
        b = ss.VectorField.from_function(grid, lambda x, y: -y,
                                         lambda x, y: x)
        max_len, counts = 1.0, [36, 1, 44, 40]
    elif case == "nonsquare":
        grid = ss.Grid2D(-1, 1, -0.5, 0.75, 13, 7)
        b = ss.VectorField.from_function(
            grid, lambda x, y: -y + 0.15 * x + 0.3 * x * y,
            lambda x, y: x + 0.15 * y - 0.2 * x * x)
        max_len, counts = 1.0, [30, 0, 48, 13]
    else:  # the spiral, traced backward or forward
        grid = ss.Grid2D(-1, 1, -1, 1, 9, 9)
        b = ss.VectorField.from_function(grid, lambda x, y: -y + 0.15 * x,
                                         lambda x, y: x + 0.15 * y)
        max_len, counts = 1.0, [20, 1, 52, 8]
        if case == "forward":
            counts, sgn = [40, 1, 32, 8], 1.0
    fast, ref = _trace_both(b, max_len, sgn)
    # exited, stagnated, max-length and foot paths
    assert np.bincount(ref[3], minlength=4).tolist() == counts
    for a, r in zip(fast, ref):
        assert np.array_equal(a, r)


def test_numpy_tracer_bisects_once_per_trace(monkeypatch):
    # the exit bisection (49 RK2 steps) runs once for all crossed nodes,
    # not once per march step in which some node crosses; every other node
    # stops at a foot and is interpolated
    calls = []
    rk2 = _kernels._rk2

    def counted(*args):
        calls.append(1)
        return rk2(*args)

    monkeypatch.setattr(_kernels, "_rk2", counted)
    grid = ss.Grid2D(0.25, 0.75, 0.25, 0.75, 33, 33)
    b = ss.VectorField.from_function(grid, lambda x, y: -x, lambda x, y: -y)
    _, rep = vorticity.transport_omega(b, ss.ScalarField.zeros(grid))
    assert rep.exited + rep.interpolated == rep.traced
    assert rep.exited > 0 and rep.interpolated > 0
    # backward paths grow as xi0 * e^r and leave [0.25, 0.75]^2 by r = ln 3
    march_steps = int(np.ceil(np.log(3.0) / (0.5 * grid.hx)))
    assert len(calls) <= march_steps + 49


def _trace_radial(n):
    """Backward trace of b = -xi from every node of an n^2 grid on
    [0.25, 0.75]^2 at the default step; returns the start points, the step
    and the trace_all result."""
    grid = ss.Grid2D(0.25, 0.75, 0.25, 0.75, n, n)
    b = ss.VectorField.from_function(grid, lambda x, y: -x, lambda x, y: -y)
    X, Y = grid.meshgrid()
    xs, ys = X.ravel(), Y.ravel()
    step = 0.5 * min(grid.hx, grid.hy)
    out = _kernels.trace_all(
        b.u, b.v, fld.divergence(b).values, xs, ys, -1.0, step,
        20.0 * grid.diam, 1e-14, grid.x0, grid.x1, grid.y0, grid.y1,
        grid.hx, grid.hy, grid.nx, grid.ny)
    return xs, ys, step, out


def test_tracer_converges_to_the_exact_radial_characteristics():
    # bilinear interpolation is exact for the linear drift b = -xi, so only
    # the integrator's error shows: the backward path is xi0 e^r, it leaves
    # [0.25, 0.75]^2 at r = ln(0.75 / max(xi0)), and 1 + div b = -1 makes
    # the integral -r.  A path stops at a foot 3 cells out or at the frame,
    # so it is O(h) long and midpoint RK2 errs by O(h^3) on it
    errs = []
    for n in (33, 65):
        xs, ys, _, (acc, hx, hy, status, length) = _trace_radial(n)
        exited = status == _kernels.TRACE_EXITED
        foot = status == _kernels.TRACE_FOOT
        assert (exited | foot).all() and exited.any() and foot.any()
        hit = np.hypot(hx - xs * np.exp(length), hy - ys * np.exp(length))
        exit_integral = np.abs(acc + np.log(0.75 / np.maximum(xs, ys)))
        # the trapezoid sums of a constant integrand are exact at a foot
        assert np.abs(acc + length)[foot].max() <= 1e-14
        errs.append((hit[exited].max(), hit[foot].max(),
                     exit_integral[exited].max()))
        # a foot is 3 cells from its start, in a cell 1 .. n - 3
        h = 0.5 / (n - 1)
        assert (np.hypot(hx - xs, hy - ys)[foot] >= 3 * h).all()
        for t in ((hx[foot] - 0.25) / h, (hy[foot] - 0.25) / h):
            assert ((1 <= np.floor(t)) & (np.floor(t) <= n - 3)).all()
    assert max(errs[0]) <= 1e-6
    for coarse, fine in zip(*errs):
        assert 6.8 <= coarse / fine <= 9.2


def test_tracer_takes_two_samples_per_march_step(monkeypatch):
    # a node samples the drift at its start point and twice per march step
    # it completes: at the half step and at the new point, the next step's
    # k1.  A foot node takes nothing more; an exited node samples the
    # midpoint of its crossing step and then 50 in the bisection: 48
    # halvings, the final step and div b at the hit point
    points = []
    sample = _kernels._sample

    def counted(tab, pts, geom):
        points.append(pts.shape[1])
        return sample(tab, pts, geom)

    monkeypatch.setattr(_kernels, "_sample", counted)
    xs, _, step, (_, _, _, status, length) = _trace_radial(33)
    exited = status == _kernels.TRACE_EXITED
    # length = full steps * step, plus the bisected part of a crossing step
    full_steps = np.where(exited, np.floor(length / step),
                          np.rint(length / step)).astype(np.int64)
    assert (status[~exited] == _kernels.TRACE_FOOT).all()
    assert np.array_equal(full_steps[~exited] * step, length[~exited])
    assert sum(points) == (xs.size + 2 * full_steps.sum()
                           + 51 * np.count_nonzero(exited))


def test_benchmark_hooks_keep_their_names():
    # the benchmark patches trace_all and counts its start points as args[3],
    # and reads the backend from HAVE_NUMBA and use_numba();
    # test_numpy_tracer_bisects_once_per_trace patches _rk2
    assert list(inspect.signature(_kernels.trace_all).parameters) == [
        "gx", "gy", "gdiv", "xs", "ys", "sgn", "step", "max_len", "stag_tol",
        "x0", "x1", "y0", "y1", "hx", "hy", "nx", "ny"]
    assert callable(_kernels._rk2)
    assert isinstance(_kernels.HAVE_NUMBA, bool)
    assert isinstance(_kernels.use_numba(), bool)
