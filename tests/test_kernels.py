"""Batched numpy tracer against its scalar reference."""

import inspect
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import selfsim as ss
from selfsim import _kernels, field as fld, vorticity

import scalar_tracer
from conftest import quiescent_field


def _args(b, max_len):
    """trace_all arguments for every node of b's grid at the default step."""
    g = b.grid
    step = vorticity._step_and_length(g, None, max_len)[0]
    return (b.u, b.v, fld.divergence(b).values, np.arange(g.nx * g.ny),
            step, max_len, g)


def _start_points(args):
    """The start points (2, m) of trace_all's start nodes."""
    nodes, g = args[3], args[6]
    return np.array([g.xi1[nodes % g.nx], g.xi2[nodes // g.nx]])


def _node_dt(args):
    """Each start point's r-step, step / |b(p0)|, in the tracer's bits."""
    tab, geom = _kernels._corners(-np.stack(args[:2]), args[6])
    s = _kernels._sample(tab, _start_points(args), geom)
    return args[4] / np.maximum(np.hypot(s[0], s[1]), _kernels._STAG_TOL)


_TRACER_CASES = ["radial", "spiral", "rotation", "nonsquare", "forward",
                 "shear"]


def _tracer_case(case):
    """(drift, max_len, status counts) of the scalar-reference cases: a
    9^2 grid (11^2 for the rotation, 13 x 7 for nonsquare); nonsquare has
    nx != ny and hx != hy, where a wrong corner index shows, forward traces
    the spiral along +b, passed as the drift -b, and the shear
    b = (y, 0) stagnates on y = 0 and runs along the top and bottom sides,
    whose paths leave through the next side at a corner.  The counts are
    of exited, stagnated, max-length and foot paths"""
    if case == "radial":
        grid = ss.Grid2D(0.25, 0.75, 0.25, 0.75, 9, 9)
        b = ss.VectorField.from_function(grid, lambda x, y: -x,
                                         lambda x, y: -y)
        max_len, counts = 20.0 * grid.diam, [58, 0, 0, 23]
    elif case == "rotation":
        grid = ss.Grid2D(-1, 1, -1, 1, 11, 11)
        b = ss.VectorField.from_function(grid, lambda x, y: -y,
                                         lambda x, y: x)
        max_len, counts = 1.0, [40, 1, 40, 40]
    elif case == "nonsquare":
        grid = ss.Grid2D(-1, 1, -0.5, 0.75, 13, 7)
        b = ss.VectorField.from_function(
            grid, lambda x, y: -y + 0.15 * x + 0.3 * x * y,
            lambda x, y: x + 0.15 * y - 0.2 * x * x)
        max_len, counts = 1.0, [31, 0, 46, 14]
    elif case == "shear":
        grid = ss.Grid2D(-1, 1, -1, 1, 9, 9)
        b = ss.VectorField.from_function(grid, lambda x, y: y,
                                         lambda x, y: 0.0 * y)
        max_len, counts = 20.0, [50, 9, 0, 22]
    else:  # the spiral, traced backward or forward
        grid = ss.Grid2D(-1, 1, -1, 1, 9, 9)
        b = ss.VectorField.from_function(grid, lambda x, y: -y + 0.15 * x,
                                         lambda x, y: x + 0.15 * y)
        max_len, counts = 1.0, [20, 1, 52, 8]
        if case == "forward":
            b = ss.VectorField(grid, -b.u, -b.v)
            counts = [40, 1, 36, 4]
    return b, max_len, counts


@pytest.mark.parametrize("case", _TRACER_CASES)
def test_numpy_tracer_matches_scalar_kernel(case):
    # the scalar reference, run as plain Python, on every node of the grid;
    # an exit lies on the side it reports, at that side's bound exactly,
    # with its other coordinate in the frame, and any other path has side -1
    b, max_len, counts = _tracer_case(case)
    args = _args(b, max_len)
    fast, ref = _kernels.trace_all(*args), scalar_tracer.trace_all(*args)
    assert np.bincount(ref[3], minlength=4).tolist() == counts
    for a, r in zip(fast, ref):
        assert np.array_equal(a, r)
    _, hx, hy, status, _, side = fast
    g = b.grid
    exited = status == _kernels.TRACE_EXITED
    assert side.dtype == np.int8 and (side[~exited] == -1).all()
    for k, (on, bound, other, lo, hi) in enumerate((
            (hx, g.x0, hy, g.y0, g.y1), (hy, g.y0, hx, g.x0, g.x1),
            (hx, g.x1, hy, g.y0, g.y1), (hy, g.y1, hx, g.x0, g.x1))):
        at = exited & (side == k)
        assert (on[at] == bound).all()
        assert ((lo <= other[at]) & (other[at] <= hi)).all()
    assert np.isin(side[exited], range(4)).all()


def _corner_sample(fields, pts, x0, y0, hx, hy, nx, ny):
    """The sampler of the tracer before it read the fields themselves:
    bilinear samples (k, m) of fields (k, ny, nx) at pts (2, m), gathered
    by one take of each point's lower-left node from a corner table
    (4k, base nodes), whose row 4 q + c holds field q at corner c (p,
    p + 1, p + nx, p + nx + 1) of each cell.  The bitwise reference of
    _kernels._sample"""
    flat = fields.reshape(len(fields), -1)
    w = flat.shape[1] - nx - 1
    tab = np.stack([flat[:, o:o + w] for o in (0, 1, nx, nx + 1)],
                   axis=1).reshape(-1, w)
    t = (pts - np.array([[x0], [y0]])) / np.array([[hx], [hy]])
    c = t.astype(np.int64)
    np.maximum(c, 0, out=c)
    np.minimum(c, np.array([[nx - 2], [ny - 2]]), out=c)
    a = t - c
    b = 1.0 - a
    f = tab.take(c[1] * nx + c[0], axis=1).reshape(len(fields), 2, 2, -1)
    g = b[0] * f[:, :, 0] + a[0] * f[:, :, 1]
    return b[1] * g[:, 0] + a[1] * g[:, 1]


@pytest.mark.parametrize("case", _TRACER_CASES)
def test_sample_is_bitwise_the_corner_table(case, monkeypatch):
    # every sample of a trace has the bits of the corner-table sampler on
    # the same fields; the fields the tracer samples are (-gx, -gy, div b),
    # the upstream sign folded in
    b, max_len, _ = _tracer_case(case)
    g = b.grid
    calls = []
    sample = _kernels._sample

    def spy(tab, pts, geom):
        out = sample(tab, pts, geom)
        calls.append((tab, pts.copy(), out))
        return out

    monkeypatch.setattr(_kernels, "_sample", spy)
    args = _args(b, max_len)
    status = _kernels.trace_all(*args)[3]
    signed = np.stack([-b.u, -b.v, args[2]]).reshape(3, -1)
    assert calls[0][0].tobytes() == signed.tobytes()
    assert (status == _kernels.TRACE_EXITED).any()
    for tab, pts, out in calls:
        ref = _corner_sample(tab.reshape(len(tab), g.ny, g.nx), pts, g.x0,
                             g.y0, g.hx, g.hy, g.nx, g.ny)
        assert out.tobytes() == ref.tobytes()


def _radial(n, lo=0.25):
    """The sink b = -xi on an n^2 grid over [lo, lo + 0.5]^2."""
    grid = ss.Grid2D(lo, lo + 0.5, lo, lo + 0.5, n, n)
    return ss.VectorField.from_function(grid, lambda x, y: -x,
                                        lambda x, y: -y)


def _trace_radial(n, step=None):
    """Backward trace of b = -xi from every node of an n^2 grid on
    [0.25, 0.75]^2 at ``step`` (None: the default step); returns the start
    points' x and y, each node's r-step and the trace_all result."""
    b = _radial(n)
    args = _args(b, 20.0 * b.grid.diam)
    if step is not None:
        args = args[:4] + (step,) + args[5:]
    xs, ys = _start_points(args)
    return xs, ys, _node_dt(args), _kernels.trace_all(*args)


def _full_steps(dt, status, length):
    """March steps each path completed: length = steps * dt, plus the
    sub-step (< dt) of an exited path."""
    exited = status == _kernels.TRACE_EXITED
    return np.where(exited, np.floor(length / dt),
                    np.rint(length / dt)).astype(np.int64)


def test_numpy_tracer_bisects_once_per_trace(monkeypatch):
    # the exit root find (_EXIT_ITERS + 1 RK2 steps) runs once for all
    # crossed nodes, not once per march step in which some node crosses:
    # one RK2 call per march step of the longest path, plus the root find.
    # These counts are per block; the 33^2 start points are one block
    calls = []
    rk2 = _kernels._rk2

    def counted(*args):
        calls.append(1)
        return rk2(*args)

    monkeypatch.setattr(_kernels, "_rk2", counted)
    xs, _, dt, (_, _, _, status, length, _) = _trace_radial(33)
    assert xs.size <= _kernels._BLOCK
    exited = status == _kernels.TRACE_EXITED
    assert exited.any() and (status[~exited] == _kernels.TRACE_FOOT).all()
    # an exited path also takes its crossing step
    march_steps = (_full_steps(dt, status, length) + exited).max()
    assert len(calls) == march_steps + _kernels._EXIT_ITERS + 1


def _radial_errors(cells):
    """Largest 33^2 and 65^2 errors (exit hit, foot hit, exit integral) of
    the backward trace of b = -xi at a step of ``cells`` cells (None: the
    default step), with the checks of the exact paths on the way.

    Bilinear interpolation is exact for the linear drift b = -xi, so only
    the integrator's error shows: the backward path is xi0 e^r, it leaves
    [0.25, 0.75]^2 at r = ln(0.75 / max(xi0)), and 1 + div b = -1 makes the
    integral -r.
    """
    errs = []
    for n in (33, 65):
        h = 0.5 / (n - 1)
        xs, ys, _, (acc, hx, hy, status, length, _) = _trace_radial(
            n, None if cells is None else cells * h)
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
        assert (np.hypot(hx - xs, hy - ys)[foot] >= 3 * h).all()
        for t in ((hx[foot] - 0.25) / h, (hy[foot] - 0.25) / h):
            assert ((1 <= np.floor(t)) & (np.floor(t) <= n - 3)).all()
    return errs


def test_tracer_converges_to_the_exact_radial_characteristics():
    # a path stops at a foot 3 cells out or at the frame, so it is O(h)
    # long and midpoint RK2 errs by O(h^3) on it; at a step of 0.2 cells
    # the 33^2 errors stay under 1e-6 (measured 6.9e-7)
    errs = _radial_errors(0.2)
    assert max(errs[0]) <= 1e-6
    for coarse, fine in zip(*errs):
        assert 6.8 <= coarse / fine <= 9.2


def test_default_step_error_on_the_radial_characteristics():
    # the default step, 0.75 cells, takes about a quarter of the steps of
    # 0.2 cells and errs 14 times more: measured 9.6e-6 at 33^2, 17 times the
    # 5.7e-7 of the fixed r-step 0.5 min(hx, hy) that it replaced
    errs = _radial_errors(None)
    assert max(errs[0]) <= 1.5e-5
    for coarse, fine in zip(*errs):
        assert 6.8 <= coarse / fine <= 9.2


def test_tracer_takes_two_samples_per_march_step(monkeypatch):
    # a node samples the drift at its start point and twice per march step
    # it completes: at the half step and at the new point, the next step's
    # k1.  A foot node takes nothing more; an exited node samples the
    # midpoint of its crossing step and then _EXIT_ITERS + 2 in the root
    # find: one per iteration, the final step and div b at the hit point.
    # The 33^2 start points are one block, whose march these counts follow
    points = []
    sample = _kernels._sample

    def counted(tab, pts, geom):
        points.append(pts.shape[1])
        return sample(tab, pts, geom)

    monkeypatch.setattr(_kernels, "_sample", counted)
    xs, _, dt, (_, _, _, status, length, _) = _trace_radial(33)
    assert xs.size <= _kernels._BLOCK
    exited = status == _kernels.TRACE_EXITED
    full_steps = _full_steps(dt, status, length)
    assert (status[~exited] == _kernels.TRACE_FOOT).all()
    assert np.array_equal(full_steps[~exited] * dt[~exited], length[~exited])
    # _trace_radial's own _node_dt samples every start point once more
    assert sum(points) == (2 * xs.size + 2 * full_steps.sum()
                           + (_kernels._EXIT_ITERS + 3)
                           * np.count_nonzero(exited))


def _drift(case):
    """The radial (33^2), spiral (17^2), shear (33^2) or quasi-patch
    (33^2) drift.  The shear b = (y, 0) runs its top and bottom rows along
    the frame, so their crossing steps start on a side (frame gap 0) and
    leave through the next one at a corner"""
    if case == "radial":
        return _radial(33)
    if case == "spiral":
        grid = ss.Grid2D(-1, 1, -1, 1, 17, 17)
        return ss.VectorField.from_function(grid, lambda x, y: -x - 0.4 * y,
                                            lambda x, y: -y + 0.4 * x)
    if case == "shear":
        grid = ss.Grid2D(-1, 1, -1, 1, 33, 33)
        return ss.VectorField.from_function(grid, lambda x, y: y,
                                            lambda x, y: 0.0 * y)
    # the first sweep's drift on the criterion-11 patch
    return fld.gradient(quiescent_field(ss.Grid2D(0.1, 0.6, 0.1, 0.6,
                                                  33, 33)))


_DRIFTS = ["radial", "spiral", "quasi-patch", "shear"]


@pytest.mark.parametrize("case", _DRIFTS)
def test_exit_root_find_matches_a_bisection(case):
    # the Illinois root find lands where 48 halvings of the crossing
    # sub-step do: the march is the same, so only the exits may differ
    b = _drift(case)
    args = _args(b, 20.0 * b.grid.diam)
    acc, hx, hy, status, length, _ = _kernels.trace_all(*args)
    ref = scalar_tracer.trace_all(*args, bisect=True)
    assert np.array_equal(status, ref[3])
    exited = status == _kernels.TRACE_EXITED
    assert np.count_nonzero(exited) >= 10
    tol = 1e-13 * _node_dt(args)[exited]
    assert (np.abs(length - ref[4])[exited] <= tol).all()
    speed = np.hypot(b.u, b.v).max()
    assert (np.hypot(hx - ref[1], hy - ref[2])[exited] <= speed * tol).all()
    for a, r in zip((acc, hx, hy, length), ref[:3] + ref[4:5]):
        assert np.array_equal(a[~exited], r[~exited])


@pytest.mark.parametrize("case", _DRIFTS)
def test_block_march_matches_one_block(case, monkeypatch):
    # each node's march and root find are its own arithmetic, so blocks of
    # 7 start points (a last, shorter block included) give every result
    # bit for bit as one block does
    b = _drift(case)
    args = _args(b, 20.0 * b.grid.diam)
    assert 7 < args[3].size <= _kernels._BLOCK and args[3].size % 7
    whole = _kernels.trace_all(*args)
    monkeypatch.setattr(_kernels, "_BLOCK", 7)
    blocks = _kernels.trace_all(*args)
    assert len(np.unique(whole[3])) >= 2
    for a, r in zip(blocks, whole):
        assert a.dtype == r.dtype and a.tobytes() == r.tobytes()


def test_trace_memory_per_node():
    # the tracemalloc peak of trace_all from every node of the 129^2 radial
    # drift, per start node: 138 B measured (137 B before the int8 exit
    # side was returned, 164 B with each sample's corners in one (k, 4, m)
    # gather, 235 B with a corner table of the three fields, 12 rows of the
    # grid's size, beside their stack).  The bound leaves 16 % over the
    # measurement
    b = _radial(129)
    args = _args(b, 20.0 * b.grid.diam)
    _kernels.trace_all(*args)  # any first-call set-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _kernels.trace_all(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert args[3].size == 129 * 129
    assert peak <= 160 * args[3].size


_CHURN = """
import resource, statistics
import test_kernels as tk
from selfsim import _kernels
b = tk._radial(129)
args = tk._args(b, 20.0 * b.grid.diam)
_kernels.trace_all(*args)
faults = []
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _kernels.trace_all(*args)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(statistics.median(faults))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="glibc's malloc settings and ru_minflt")
def test_trace_maps_no_temporary_per_call():
    # glibc serves a request of 128 KiB or more that no free chunk fits by
    # a fresh mmap, unmapped on free, whose pages fault afresh on every
    # call.  A fresh process with the heap top never trimmed and the mmap
    # threshold fixed at its 128 KiB default (by glibc's environment
    # variables, in the child only) counts exactly those.  The median of 5
    # repeated 129^2 traces after a warm-up was 0 minor page faults in 20
    # runs (the first of the 5 took 162-256 while the heap settled), and
    # 712-1,913 with each sample's corners in one (4, m) index and
    # (k, 4, m) gather.  Under glibc's default, self-tuning settings a
    # trace-only loop can still fault when the heap top is trimmed between
    # blocks, which depends on what the process freed before
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([os.path.dirname(ss.__path__[0]),
                                           here]),
               MALLOC_TRIM_THRESHOLD_=str(2 ** 30),
               MALLOC_MMAP_THRESHOLD_=str(128 * 1024))
    out = subprocess.run([sys.executable, "-c", _CHURN], env=env, cwd=here,
                         capture_output=True, text=True, check=True)
    assert float(out.stdout) <= 200


def test_slow_node_ends_after_its_step_budget():
    # a node's r-step is step / |b(p0)|, so on a slow uniform drift it still
    # moves `step` per step and ends as TRACE_MAXLEN after ceil(max_len / dt)
    # steps
    grid = ss.Grid2D(0.0, 1.0, 0.0, 1.0, 17, 17)
    b = ss.VectorField(grid, np.full(grid.shape, 1e-3), np.zeros(grid.shape))
    step = 0.75 * grid.hx
    max_len = 2.5 * step / 1e-3
    # from the centre node (0.5, 0.5)
    args = (b.u, b.v, fld.divergence(b).values, np.array([8 * 17 + 8]),
            step, max_len, grid)
    dt = _node_dt(args)
    _, hx, hy, status, length, _ = _kernels.trace_all(*args)
    assert status[0] == _kernels.TRACE_MAXLEN
    assert np.ceil(max_len / dt[0]) == 3
    assert length[0] == 3 * dt[0]
    assert hx[0] == pytest.approx(0.5 - 3 * step, rel=1e-12)
    assert hy[0] == 0.5


def test_benchmark_hooks_keep_their_names():
    # the benchmark patches trace_all and counts its start nodes as args[3],
    # and reads the backend from HAVE_NUMBA and use_numba();
    # test_numpy_tracer_bisects_once_per_trace patches _rk2
    assert list(inspect.signature(_kernels.trace_all).parameters) == [
        "gx", "gy", "gdiv", "nodes", "step", "max_len", "grid"]
    assert callable(_kernels._rk2)
    assert isinstance(_kernels.HAVE_NUMBA, bool)
    assert isinstance(_kernels.use_numba(), bool)
