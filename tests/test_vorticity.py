"""Characteristic vorticity-transport unit tests."""

import tracemalloc

import numpy as np
import pytest

import selfsim as ss
from selfsim import _kernels, field as fld, vorticity
from selfsim.errors import ConfigError, UncoveredNodes

import scalar_tracer
from conftest import quiescent_field


def radial_grid(n=33):
    return ss.Grid2D(0.25, 0.75, 0.25, 0.75, n, n)


def radial_drift(grid):
    return ss.VectorField.from_function(grid, lambda x, y: -x,
                                        lambda x, y: -y)


def test_inflow_boundary_radial():
    grid = radial_grid(9)
    inflow = vorticity.inflow_boundary(radial_drift(grid))
    # b = -xi in the positive quadrant flows down-left: top and right sides
    # (and their shared corner) are inflow, bottom/left are outflow
    assert np.all(inflow.mask[-1, :])
    assert np.all(inflow.mask[:, -1])
    assert not inflow.mask[0, 1:-1].any()
    assert not inflow.mask[1:-1, 0].any()
    assert inflow.count == 2 * 9 - 1
    assert inflow.normal_speed[4, 4] == 0.0  # interior entries stay zero


def test_transport_zero_data_is_exact():
    grid = radial_grid(17)
    omega, rep, _ = vorticity.transport_omega(radial_drift(grid),
                                              ss.ScalarField.zeros(grid))
    assert np.all(omega.values == 0.0)
    assert rep.uncovered == 0


def test_transport_radial_exact_solution():
    grid = radial_grid(33)
    b = radial_drift(grid)
    X, Y = grid.meshgrid()
    R = np.hypot(X, Y)
    omega_b = ss.ScalarField(grid, 1.0 / R)
    omega, rep, _ = vorticity.transport_omega(b, omega_b,
                                              step=min(grid.hx, grid.hy) / 4)
    # exact solution of div(omega b) + omega = 0 for b = -xi: omega = 1/|xi|
    assert rep.uncovered == 0
    assert np.max(np.abs(omega.values - 1.0 / R)) < 2e-3
    res = vorticity.transport_residual(omega, b)
    assert np.max(np.abs(res.values)) < 0.05
    assert np.all(res.values[0, :] == 0.0)  # frame ring zeroed


def test_transport_inflow_nodes_keep_data():
    grid = radial_grid(17)
    X, Y = grid.meshgrid()
    omega_b = ss.ScalarField(grid, X + Y)
    omega, _, _ = vorticity.transport_omega(radial_drift(grid), omega_b)
    assert np.array_equal(omega.values[-1, :], omega_b.values[-1, :])
    assert np.array_equal(omega.values[:, -1], omega_b.values[:, -1])


def test_transport_uncovered_strict():
    grid = ss.Grid2D(-1, 1, -1, 1, 17, 17)
    # rotational drift: interior characteristics never reach the boundary
    b = ss.VectorField.from_function(grid, lambda x, y: -y, lambda x, y: x)
    omega, rep, _ = vorticity.transport_omega(
        b, ss.ScalarField.zeros(grid), max_len=2.0)
    assert rep.uncovered > 0 and rep.truncated > 0
    with pytest.raises(UncoveredNodes):
        vorticity.transport_omega(b, ss.ScalarField.zeros(grid),
                                  max_len=2.0, strict=True)


def _statuses_sum(rep):
    return rep.exited + rep.interpolated + rep.stagnated + rep.truncated


def test_transport_samples_per_node_stay_flat(monkeypatch):
    # each node is traced 3 cells upstream, not to the frame, so the drift
    # samples per traced node do not grow with n (the full-length march took
    # 196 at 65^2 and 337 at 129^2)
    points = []
    sample = _kernels._sample

    def counted(tab, pts, geom):
        points.append(pts.shape[1])
        return sample(tab, pts, geom)

    monkeypatch.setattr(_kernels, "_sample", counted)
    per_node = []
    for n in (65, 129):
        grid = radial_grid(n)
        points.clear()
        _, rep, _ = vorticity.transport_omega(radial_drift(grid),
                                              ss.ScalarField.zeros(grid))
        per_node.append(sum(points) / rep.traced)
    assert max(per_node) <= 32
    assert per_node[1] <= per_node[0]


@pytest.mark.parametrize("case", ["radial", "criterion-11"])
def test_transport_resolves_every_node(case):
    # every foot node is filled in dependency order: no cycle is left, and
    # the counts partition the traced nodes
    if case == "radial":
        grid = radial_grid(65)
        b = radial_drift(grid)
    else:  # the first sweep's drift on the criterion-11 patch
        grid = ss.Grid2D(0.1, 0.6, 0.1, 0.6, 65, 65)
        b = fld.gradient(quiescent_field(grid))
    _, rep, _ = vorticity.transport_omega(b, ss.ScalarField.zeros(grid))
    assert rep.uncovered == rep.truncated == rep.stagnated == 0
    assert rep.exited + rep.interpolated == rep.traced
    assert rep.interpolated > rep.exited > 0


def test_transport_counts_partition_traced_nodes():
    # a rotation leaves its feet in dependency cycles: truncated and
    # uncovered; on the sink b = -xi, max_len bounds each whole
    # characteristic, whose length -ln max(|x0|, |y0|) passes through the
    # interpolation, and the centre node stagnates
    grid = ss.Grid2D(-1, 1, -1, 1, 33, 33)
    X, Y = grid.meshgrid()
    ones = ss.ScalarField(grid, np.ones(grid.shape))
    rot = ss.VectorField.from_function(grid, lambda x, y: -y, lambda x, y: x)
    _, rep, _ = vorticity.transport_omega(rot, ones, max_len=4.0)
    assert _statuses_sum(rep) == rep.traced
    assert rep.truncated > rep.traced // 2
    assert rep.uncovered == rep.truncated + rep.stagnated
    sink = ss.VectorField.from_function(grid, lambda x, y: -x,
                                        lambda x, y: -y)
    for max_len, truncated in ((2.0, 24), (None, 0)):
        omega, rep, _ = vorticity.transport_omega(sink, ones, max_len=max_len)
        assert _statuses_sum(rep) == rep.traced
        assert (rep.stagnated, rep.truncated) == (1, truncated)
        assert rep.uncovered == 1 + truncated
        if max_len:
            too_long = np.maximum(np.abs(X), np.abs(Y)) < np.exp(-max_len)
            assert np.array_equal(omega.values == 0.0, too_long)


def test_exit_past_max_len_is_truncated():
    # on the slow drift b = (1e-3, 0) a node next to the inflow side x = 0
    # exits at r = hx / 1e-3 = 62.5, inside its budget of ceil(max_len / dt)
    # steps of dt = 0.75 hx / 1e-3 = 46.9: past max_len 60 the path is
    # truncated and its node uncovered, like a foot past max_len; with
    # max_len 65 it lands on the inflow data
    grid = ss.Grid2D(0.0, 1.0, 0.0, 1.0, 17, 17)
    b = ss.VectorField(grid, np.full(grid.shape, 1e-3), np.zeros(grid.shape))
    ones = ss.ScalarField(grid, np.ones(grid.shape))
    for max_len, exited in ((60.0, 0), (65.0, grid.ny)):
        omega, rep, _ = vorticity.transport_omega(b, ones, max_len=max_len)
        assert rep.exited == exited
        assert _statuses_sum(rep) == rep.traced
        assert rep.uncovered == rep.traced - exited
        assert np.all((omega.values[:, 1] > 0.0) == bool(exited))
        assert np.all(omega.values[:, 2:] == 0.0)


def _lagrange(a, m):
    """Weight of node m in -1 .. 2 of the cubic through those nodes."""
    w = 1.0
    for k in (-1, 0, 1, 2):
        if k != m:
            w *= (a - k) / (m - k)
    return w


def _hit_sides(g, x, y):
    """The sides (0 .. 3: x = x0, y = y0, x = x1, y = y1) that a hit point
    (x, y) lies on exactly, in the order left, right, bottom, top."""
    return [k for k, on in ((0, x == g.x0), (2, x == g.x1), (1, y == g.y0),
                            (3, y == g.y1)) if on]


def _hit_is_inflow(b, x, y):
    """b.nu < -_TOL_INFLOW at a hit point on the frame, for b bilinear at
    the point and nu the outward normal of each side it lies on exactly
    (at a corner, the least b.nu of the two)."""
    g = b.grid
    bu, bv = (scalar_tracer._bilinear(f, x, y, g.x0, g.y0, g.hx, g.hy, g.nx,
                                      g.ny) for f in (b.u, b.v))
    normal = (-bu, -bv, bu, bv)
    return min(normal[k] for k in _hit_sides(g, x, y)) < -vorticity._TOL_INFLOW


def _frame_data(values, g, x, y):
    """Linear interpolation of frame data at a hit point along the first
    side of left, right, bottom and top that it lies on exactly."""
    k = _hit_sides(g, x, y)[0]
    line = (values[:, 0], values[0], values[:, -1], values[-1])[k]
    t, t0, h, n = ((y, g.y0, g.hy, g.ny) if k % 2 == 0
                   else (x, g.x0, g.hx, g.nx))
    s = (t - t0) / h
    i = min(max(int(np.floor(s)), 0), n - 2)
    return (1.0 - (s - i)) * line[i] + (s - i) * line[i + 1]


def _loop_transport(b, omega_b, max_len):
    """transport_omega with the foot nodes filled by plain loops: each
    pass fills every foot whose stencil holds no unfilled foot.  An exit
    takes its side from where its hit point lies, not from the tracer."""
    g = b.grid
    inflow = vorticity.inflow_boundary(b).mask.ravel()
    nodes = np.flatnonzero(~inflow)
    acc, hx_, hy_, st, length, _ = _kernels.trace_all(
        b.u, b.v, fld.divergence(b).values, nodes,
        vorticity._step_and_length(g, None, 1.0)[0], max_len, g)
    # omega and length of the covered nodes, by flat index
    omega = {int(k): omega_b.values.flat[k] for k in np.flatnonzero(inflow)}
    total = dict.fromkeys(omega, 0.0)
    feet = {}
    for i, k in enumerate(nodes):
        if (st[i] == _kernels.TRACE_EXITED and length[i] <= max_len
                and _hit_is_inflow(b, hx_[i], hy_[i])):
            omega[k] = (_frame_data(omega_b.values, g, hx_[i], hy_[i])
                        * np.exp(-acc[i]))
            total[k] = length[i]
        elif st[i] == _kernels.TRACE_FOOT:
            tx, ty = (hx_[i] - g.x0) / g.hx, (hy_[i] - g.y0) / g.hy
            cx, cy = int(np.floor(tx)), int(np.floor(ty))
            sten = [((cy + m) * g.nx + cx + n,
                     _lagrange(ty - cy, m) * _lagrange(tx - cx, n))
                    for m in (-1, 0, 1, 2) for n in (-1, 0, 1, 2)]
            # a round-off weight ties the foot to no node
            feet[int(k)] = (i, [(s, w) for s, w in sten if abs(w) > 1e-12])
    while True:
        ready = [k for k, (_, sten) in feet.items()
                 if not any(s in feet for s, _ in sten)]
        if not ready:
            break
        for k in ready:
            i, sten = feet[k]
            if all(s in omega for s, _ in sten):
                t = length[i] + sum(w * total[s] for s, w in sten)
                if t <= max_len:
                    omega[k] = (sum(w * omega[s] for s, w in sten)
                                * np.exp(-acc[i]))
                    total[k] = t
        for k in ready:
            del feet[k]
    return omega


@pytest.mark.parametrize("case", ["spiral", "spiral-cut", "nonsquare",
                                  "shear", "tilted"])
def test_transport_matches_a_loop_reference(case):
    # a spiral sink inflowing on the whole frame; with max_len 1.5 the
    # length budget cuts the characteristics of the inner nodes, and on a
    # 23 x 13 grid the sides x = x0 and y = y0 have other lengths.  Coverage
    # passes through the stencils: a foot whose stencil holds an uncovered
    # node at a weight above 1e-12 is uncovered.  The shear b = (y, 0)
    # stagnates on y = 0, which its feet, on the grid rows, hold only at
    # round-off weights; the tilted shear's feet are off the grid lines,
    # and with max_len 5 some of their stencils hold a truncated node
    grid = ss.Grid2D(-1, 1, -1, 1, 17, 17)
    if case == "shear":
        b = ss.VectorField.from_function(grid, lambda x, y: y,
                                         lambda x, y: 0.0 * y)
        max_len = 20.0
    elif case == "tilted":
        b = ss.VectorField.from_function(grid, lambda x, y: y - x / 2,
                                         lambda x, y: (y - x / 2) / 2)
        max_len = 5.0
    else:
        if case == "nonsquare":
            grid = ss.Grid2D(-1, 1, -0.5, 0.75, 23, 13)
        b = ss.VectorField.from_function(grid, lambda x, y: -x - 0.4 * y,
                                         lambda x, y: -y + 0.4 * x)
        max_len = 1.5 if case == "spiral-cut" else 20.0
    X, Y = grid.meshgrid()
    omega_b = ss.ScalarField(grid, 1.0 + 0.5 * np.sin(3 * X + Y))
    omega, rep, _ = vorticity.transport_omega(b, omega_b, max_len=max_len)
    ref = _loop_transport(b, omega_b, max_len)
    covered = np.zeros(grid.nx * grid.ny, bool)
    covered[list(ref)] = True
    assert rep.uncovered == covered.size - len(ref)
    assert rep.interpolated > 0
    if case == "shear":  # the stagnant row spoils no foot
        assert rep.uncovered == rep.stagnated > 0
    if case == "tilted":  # the case reaches the propagation rule
        assert rep.uncovered > rep.stagnated + rep.truncated > 0
    assert np.all(omega.values.ravel()[~covered] == 0.0)
    keys = np.array(sorted(ref))
    assert np.allclose(omega.values.ravel()[keys],
                       [ref[k] for k in keys], rtol=1e-13, atol=0.0)


def _level_fill(omega, total, nodes, acc, length, fx, fy, grid, max_len,
                schedule=None):
    """The reference fill: Kahn's levels and the values in one loop, over
    the (m, 16) weights and kept mask of all feet (the fill of transport
    before its schedule and value passes were split).  Takes and returns
    what _fill_feet does; its schedule is None."""
    def cubic(a):
        ap, am, a2 = a + 1.0, a - 1.0, a - 2.0
        return np.stack([-a * am * a2 / 6.0, ap * am * a2 / 2.0,
                         -ap * a * a2 / 2.0, ap * a * am / 6.0], axis=1)

    nx = grid.nx
    tx = (fx - grid.x0) / grid.hx
    ty = (fy - grid.y0) / grid.hy
    cx = np.floor(tx).astype(np.int64)
    cy = np.floor(ty).astype(np.int64)
    w = (cubic(ty - cy)[:, :, None] * cubic(tx - cx)[:, None, :]).reshape(
        -1, 16)
    kept = (w > 1e-12) | (w < -1e-12)
    w[~kept] = 0.0
    offsets = (np.arange(4)[:, None] * nx + np.arange(4)).ravel()
    base = (cy - 1) * nx + cx - 1
    pending = np.zeros(omega.size, bool)
    pending[nodes] = True
    indeg = np.zeros(nodes.size, np.int64)
    for j, off in enumerate(offsets):
        indeg += pending[base + off] & kept[:, j]
    feet = np.argsort(base, kind="stable")
    first = np.concatenate(
        [[0], np.cumsum(np.bincount(base, minlength=omega.size))])
    filled = np.zeros(nodes.size, bool)
    slot = np.zeros(nodes.size, np.int64)
    ready = np.flatnonzero(indeg == 0)
    while ready.size:
        st = base[ready][:, None] + offsets
        wr, g = w[ready], nodes[ready]
        t = length[ready] + (wr * total[st]).sum(axis=1)
        om = np.where(kept[ready], omega[st], 0.0)
        omega[g] = np.where(t <= max_len, (wr * om).sum(axis=1)
                            * np.exp(-acc[ready]), np.nan)
        total[g] = t
        filled[ready] = True
        cells = (g[:, None] - offsets).ravel()
        entry = np.tile(np.arange(16), g.size)
        valid = cells >= 0
        cells, entry = cells[valid], entry[valid]
        n_out = first[cells + 1] - first[cells]
        ends = np.cumsum(n_out)
        deps = feet[np.repeat(first[cells] - ends + n_out, n_out)
                    + np.arange(ends[-1])]
        deps = deps[kept[deps, np.repeat(entry, n_out)]]
        np.subtract.at(indeg, deps, 1)
        ready = deps[indeg[deps] == 0]
        slot[ready] = np.arange(ready.size)
        ready = ready[slot[ready] == np.arange(ready.size)]
    return filled, None


def _fill_case(case):
    """(drift, data, max_len) of the fill cases: the 129^2 radial drift,
    the first sweep's drift on the 17^2 criterion-11 patch, and the 17^2
    drifts of test_transport_matches_a_loop_reference."""
    if case == "radial":
        grid = radial_grid(129)
        b = radial_drift(grid)
        max_len = None
    elif case == "criterion-11":
        grid = ss.Grid2D(0.1, 0.6, 0.1, 0.6, 17, 17)
        b = fld.gradient(quiescent_field(grid))
        max_len = None
    else:
        grid = ss.Grid2D(-1, 1, -1, 1, 17, 17)
        if case == "shear":
            b = ss.VectorField.from_function(grid, lambda x, y: y,
                                             lambda x, y: 0.0 * y)
            max_len = 20.0
        elif case == "tilted":
            b = ss.VectorField.from_function(grid, lambda x, y: y - x / 2,
                                             lambda x, y: (y - x / 2) / 2)
            max_len = 5.0
        else:
            b = ss.VectorField.from_function(grid, lambda x, y: -x - 0.4 * y,
                                             lambda x, y: -y + 0.4 * x)
            max_len = 1.5 if case == "spiral-cut" else 20.0
    X, Y = grid.meshgrid()
    omega_b = ss.ScalarField(grid, 1.0 + 0.5 * np.sin(3 * X + Y))
    return b, omega_b, max_len


def _spy_levels(monkeypatch):
    """Count the schedule passes: the calls of vorticity._foot_levels."""
    builds = []
    levels = vorticity._foot_levels

    def counted(*args):
        builds.append(args[0].size)
        return levels(*args)

    monkeypatch.setattr(vorticity, "_foot_levels", counted)
    return builds


@pytest.mark.parametrize("case, cycles", [
    ("radial", False), ("criterion-11", False), ("spiral", False),
    ("spiral-cut", False), ("shear", False), ("tilted", True)])
def test_fill_is_bitwise_the_level_fill(monkeypatch, case, cycles):
    # the schedule and value passes fill every node from the same operands
    # in the same order as the one-loop level fill, fresh and on a carried
    # schedule; the tilted shear leaves the same nodes unfilled behind its
    # cycles, and a schedule that left nodes in a cycle is rebuilt
    b, omega_b, max_len = _fill_case(case)
    with monkeypatch.context() as m:
        m.setattr(vorticity, "_fill_feet", _level_fill)
        ref, ref_rep, none = vorticity.transport_omega(b, omega_b,
                                                       max_len=max_len)
    assert none is None
    builds = _spy_levels(monkeypatch)
    omega, rep, schedule = vorticity.transport_omega(b, omega_b,
                                                     max_len=max_len)
    assert len(builds) == 1
    again, again_rep, kept = vorticity.transport_omega(
        b, omega_b, max_len=max_len, schedule=schedule)
    assert len(builds) == 1 + cycles
    assert (kept is schedule) != cycles
    assert np.array_equal(kept, schedule)
    assert ref.values.tobytes() == omega.values.tobytes()
    assert ref.values.tobytes() == again.values.tobytes()
    assert vars(ref_rep) == vars(rep) == vars(again_rep)
    assert set(vars(rep)) == {"uncovered", "stagnated", "truncated",
                              "exited", "traced", "interpolated"}
    if cycles:
        assert rep.uncovered > rep.stagnated + rep.truncated > 0


def _traced_lengths(monkeypatch, b, omega_b, max_len, schedule=None):
    """A transport's omega, report and schedule, the per grid node
    characteristic lengths that its fill completes, and the feet in each
    chunk of its value pass."""
    totals, sizes, marks = [], [], []
    fill, cubic = vorticity._fill_feet, vorticity._cubic_weights
    kept_bits = vorticity._kept_bits

    def spy_fill(*args):
        out = fill(*args)
        totals.append(args[1])
        return out

    def spy_cubic(a):
        sizes.append(a.size)
        return cubic(a)

    def spy_bits(*args):
        out = kept_bits(*args)
        marks.append(len(sizes))  # the value pass's calls come next
        return out

    with monkeypatch.context() as m:
        m.setattr(vorticity, "_fill_feet", spy_fill)
        m.setattr(vorticity, "_cubic_weights", spy_cubic)
        m.setattr(vorticity, "_kept_bits", spy_bits)
        omega, rep, schedule = vorticity.transport_omega(
            b, omega_b, max_len=max_len, schedule=schedule)
    # two calls a chunk: the row factors, then the column factors
    return omega, rep, schedule, totals[0], sizes[marks[0]::2]


@pytest.mark.parametrize("case, several", [
    ("radial", True), ("criterion-11", True), ("spiral", False),
    ("spiral-cut", False), ("shear", False), ("tilted", False)])
def test_value_pass_chunks_change_no_bit(monkeypatch, case, several):
    # the value pass forms the weight factors of whole levels at a time, up
    # to _kernels._BLOCK feet or one larger level.  With blocks of 7 (the
    # tracer and the kept masks take them too) omega and the lengths are
    # byte-identical to one chunk, fresh and on a carried schedule.  A
    # level over 7 feet is a chunk alone; in two cases a chunk also holds
    # several small levels
    b, omega_b, max_len = _fill_case(case)
    monkeypatch.setattr(_kernels, "_BLOCK", 1 << 20)
    ref, ref_rep, schedule, ref_total, one = _traced_lengths(
        monkeypatch, b, omega_b, max_len)
    assert len(one) == 1
    levels = np.unique(schedule[schedule >= 0]).size
    monkeypatch.setattr(_kernels, "_BLOCK", 7)
    for carried in (None, schedule):
        omega, rep, _, total, chunks = _traced_lengths(
            monkeypatch, b, omega_b, max_len, carried)
        assert omega.values.tobytes() == ref.values.tobytes()
        assert total.tobytes() == ref_total.tobytes()
        assert vars(rep) == vars(ref_rep)
        assert sum(chunks) == one[0] and max(chunks) > 7
        assert (len(chunks) < levels) == several


def _feet(monkeypatch, b, omega_b):
    """The foot nodes and foot points (nodes, fx, fy) of a transport."""
    calls = []
    fill = vorticity._fill_feet

    def spy(*args):
        calls.append((args[2], args[5], args[6]))
        return fill(*args)

    with monkeypatch.context() as m:
        m.setattr(vorticity, "_fill_feet", spy)
        vorticity.transport_omega(b, omega_b)
    return calls[0]


@pytest.mark.parametrize("change", ["foot set", "new first foot",
                                    "level order"])
def test_a_carried_schedule_that_does_not_hold_is_rebuilt(monkeypatch,
                                                          change):
    # a schedule carried to other feet: the spiral's schedule on the sink's
    # feet, where the sink has feet that the spiral's fill did not level;
    # the sink's own schedule without a level for one foot of level 0, one
    # with no foot in its stencil; or the sink's own schedule with its
    # deepest foot moved one level up, onto the level of a foot in its
    # stencil.  The check rejects it, the schedule pass runs again, and
    # omega is bitwise a fresh fill's
    grid = ss.Grid2D(-1, 1, -1, 1, 33, 33)
    X, Y = grid.meshgrid()
    omega_b = ss.ScalarField(grid, 1.0 + 0.5 * np.sin(3 * X + Y))
    sink = radial_drift(grid)
    fresh, fresh_rep, schedule = vorticity.transport_omega(sink, omega_b)
    nodes, fx, fy = _feet(monkeypatch, sink, omega_b)
    base, ay, ax = vorticity._foot_stencils(fx, fy, grid)
    kept = vorticity._kept_bits(ay, ax)
    assert vorticity._schedule_holds(schedule, nodes, base, kept, grid.nx)
    if change == "foot set":
        spiral = ss.VectorField.from_function(
            grid, lambda x, y: -x - 0.4 * y, lambda x, y: -y + 0.4 * x)
        carried = vorticity.transport_omega(spiral, omega_b)[2]
        assert np.any(carried[nodes] < 0)
    elif change == "new first foot":
        carried = schedule.copy()
        carried[nodes[np.argmin(schedule[nodes])]] = -1
    else:
        carried = schedule.copy()
        carried[nodes[np.argmax(schedule[nodes])]] -= 1
        assert np.all(carried[nodes] >= 0)
    assert not vorticity._schedule_holds(carried, nodes, base, kept,
                                         grid.nx)
    builds = _spy_levels(monkeypatch)
    got, rep, rebuilt = vorticity.transport_omega(sink, omega_b,
                                                  schedule=carried)
    assert len(builds) == 1
    assert np.array_equal(rebuilt, schedule)
    assert got.values.tobytes() == fresh.values.tobytes()
    assert vars(rep) == vars(fresh_rep)


def test_transport_memory_per_traced_node():
    # the tracemalloc peak of a 129^2 transport on the radial drift, per
    # traced node: 172 B measured (180 B when the caller passed the traced
    # nodes' coordinates to the tracer, 208 B with each tracer sample's
    # corners in one (k, 4, m) gather, 281 B with the tracer's corner table
    # and the fill's (m, 4) weight factors, 344 B with the (m, 16) weights
    # and kept mask in the fill, 568 B when the whole set marched at once,
    # with an (m, 16) int64 stencil and |w| array in the fill).  The bound
    # leaves 17 % over the measurement
    grid = radial_grid(129)
    b = radial_drift(grid)
    omega_b = ss.ScalarField(grid, np.ones(grid.shape))
    vorticity.transport_omega(b, omega_b)  # any first-call set-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, rep, _ = vorticity.transport_omega(b, omega_b)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rep.traced == 129 * 129 - 2 * 129 + 1
    assert peak <= 201 * rep.traced


def test_transport_validation():
    grid = radial_grid(9)
    other = radial_grid(11)
    with pytest.raises(ConfigError):
        vorticity.transport_omega(radial_drift(grid),
                                  ss.ScalarField.zeros(other))
    with pytest.raises(ConfigError):
        vorticity.transport_omega(radial_drift(grid),
                                  ss.ScalarField.zeros(grid), step=-1.0)


@pytest.mark.parametrize("kw", [{"step": 0.0}, {"step": np.nan},
                                {"step": -1.0}, {"max_len": 0.0},
                                {"max_len": np.inf}])
def test_step_and_max_len_must_be_finite_and_positive(kw):
    # None takes the default; 0 is refused like any other bad value
    grid = radial_grid(9)
    b = radial_drift(grid)
    with pytest.raises(ConfigError):
        vorticity.transport_omega(b, ss.ScalarField.zeros(grid), **kw)


@pytest.mark.parametrize("case, most", [("shear", 89), ("shear-shifted", 80),
                                        ("radial", 0), ("criterion-11", 0)])
def test_round_off_weights_do_not_spread_uncovered_nodes(case, most):
    # a foot on the grid line of a stagnant or truncated row holds that row
    # in its stencil only at round-off weights, which must not spread the
    # row's coverage to the foot: b = (y, 0) and (y + 0.3, 0) on [-1, 1]^2
    # lose 81 and 73 nodes at 65^2, the stagnant row y = 0 and the slow
    # nodes next to y = -c whose characteristics exceed max_len (whole
    # stencils spread them to 2,608 and 2,030); the bound allows 10 % more
    if case.startswith("shear"):
        grid = ss.Grid2D(-1, 1, -1, 1, 65, 65)
        c = 0.3 if case == "shear-shifted" else 0.0
        b = ss.VectorField.from_function(grid, lambda x, y: y + c,
                                         lambda x, y: 0.0 * y)
    elif case == "radial":
        grid = radial_grid(65)
        b = radial_drift(grid)
    else:  # the first sweep's drift on the criterion-11 patch
        grid = ss.Grid2D(0.1, 0.6, 0.1, 0.6, 65, 65)
        b = fld.gradient(quiescent_field(grid))
    _, rep, _ = vorticity.transport_omega(
        b, ss.ScalarField(grid, np.ones(grid.shape)))
    assert rep.uncovered <= most
    assert _statuses_sum(rep) == rep.traced


@pytest.mark.parametrize("lo, n, gap, samples", [
    (0.1, 65, 1.1344e-4, 32.03), (0.1, 129, 2.8248e-5, 29.83),
    (0.25, 65, 6.3793e-5, 23.58), (0.25, 129, 1.6187e-5, 21.52)])
def test_per_node_step_halves_the_samples(monkeypatch, lo, n, gap, samples):
    # the criterion-9 data g / |xi| on the sink b = -xi over [lo, lo + 0.5]^2
    # at the default step: the per-node step takes at most half the drift
    # samples per traced node of the fixed r-step 0.5 min(hx, hy) (`samples`,
    # measured with it), and its omega |xi| gap stays within 10 % of that
    # march's (`gap`)
    points = []
    sample = _kernels._sample

    def counted(tab, pts, geom):
        points.append(pts.shape[1])
        return sample(tab, pts, geom)

    monkeypatch.setattr(_kernels, "_sample", counted)
    grid = ss.Grid2D(lo, lo + 0.5, lo, lo + 0.5, n, n)
    X, Y = grid.meshgrid()
    R = np.hypot(X, Y)
    g = 1.0 + 0.5 * np.sin(4 * np.arctan2(Y, X))
    omega, rep, _ = vorticity.transport_omega(radial_drift(grid),
                                              ss.ScalarField(grid, g / R))
    assert rep.uncovered == 0
    assert sum(points) / rep.traced <= 0.5 * samples
    assert np.max(np.abs(omega.values * R - g)) / np.max(g) <= 1.1 * gap


@pytest.mark.parametrize("shift", [(0.3, 0.4), (0.05, 0.0)])
def test_transport_next_to_a_stagnation_point(shift):
    # the sink b = -xi on [-0.5, 0.5]^2 moved by a fraction of a cell, so
    # that its stagnation point lies off the nodes, with the criterion-9
    # data: omega = g / |xi| exactly.  A node d from the origin starts at
    # speed d, so step / |b(p0)| alone gives it an r-step of 0.75 h / d, 15
    # at d = 0.05 h, on which RK2 misses e^r by orders of magnitude; the
    # speed floor holds every node to 2.0 %, the worst within 2 cells of
    # the origin (the fixed r-step 0.5 min(hx, hy) measured 1.9 % and 0.7 %)
    n = 33
    h = 1.0 / (n - 1)
    ox, oy = shift[0] * h, shift[1] * h
    grid = ss.Grid2D(-0.5 - ox, 0.5 - ox, -0.5 - oy, 0.5 - oy, n, n)
    X, Y = grid.meshgrid()
    R = np.hypot(X, Y)
    g = 1.0 + 0.5 * np.sin(4 * np.arctan2(Y, X))
    omega, rep, _ = vorticity.transport_omega(radial_drift(grid),
                                              ss.ScalarField(grid, g / R))
    assert rep.uncovered == 0
    assert np.max(np.abs(omega.values * R - g) / g) <= 0.03
