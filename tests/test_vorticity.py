"""Characteristic vorticity-transport unit tests."""

import numpy as np
import pytest

import selfsim as ss
from selfsim import vorticity
from selfsim.errors import ConfigError, UncoveredNodes


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


def test_trace_characteristic_uniform_drift():
    grid = ss.Grid2D(0.0, 1.0, 0.0, 1.0, 11, 11)
    b = ss.VectorField(grid, np.ones(grid.shape), np.zeros(grid.shape))
    tr = vorticity.trace_characteristic(b, (0.05, 0.5), step=0.05)
    assert tr.status == "exited"
    assert tr.points[-1][0] == pytest.approx(1.0)
    assert tr.points[-1][1] == pytest.approx(0.5)
    # div b = 0, so the accumulated damping is the path length
    assert tr.accumulated == pytest.approx(0.95, rel=1e-6)


def test_trace_characteristic_records_path_length():
    # the exit sub-step adds its bisected length to r, not a full step
    grid = ss.Grid2D(0.0, 1.0, 0.0, 1.0, 11, 11)
    b = ss.VectorField(grid, np.ones(grid.shape), np.zeros(grid.shape))
    tr = vorticity.trace_characteristic(b, (0.07, 0.5), step=0.05)
    assert tr.status == "exited"
    assert tr.r[-1] == pytest.approx(0.93)
    assert tr.r[-1] == pytest.approx(tr.accumulated)
    assert tr.points[-1] == pytest.approx((1.0, 0.5))


def test_trace_characteristic_stagnation():
    grid = ss.Grid2D(-1, 1, -1, 1, 11, 11)
    b = ss.VectorField.zeros(grid)
    tr = vorticity.trace_characteristic(b, (0.0, 0.0))
    assert tr.status == "stagnation"


def test_trace_characteristic_maxlen():
    grid = ss.Grid2D(-1, 1, -1, 1, 21, 21)
    # rigid rotation: the trajectory circles and never exits
    b = ss.VectorField.from_function(grid, lambda x, y: -y, lambda x, y: x)
    tr = vorticity.trace_characteristic(b, (0.5, 0.0), step=0.05, max_len=1.0)
    assert tr.status == "maxlen"


def test_trace_characteristic_stops_at_max_len():
    # ten steps of 0.1 sum to 0.9999999999999999 < 1.0; the polyline keeps
    # the step count of trace_all, ceil(max_len / step), not an eleventh step
    grid = ss.Grid2D(-1, 1, -1, 1, 21, 21)
    b = ss.VectorField.from_function(grid, lambda x, y: -y, lambda x, y: x)
    tr = vorticity.trace_characteristic(b, (0.5, 0.0), step=0.1, max_len=1.0)
    assert tr.status == "maxlen"
    assert len(tr.r) == 11
    assert tr.r[-1] == pytest.approx(1.0)


def test_transport_zero_data_is_exact():
    grid = radial_grid(17)
    omega, rep = vorticity.transport_omega(radial_drift(grid),
                                           ss.ScalarField.zeros(grid))
    assert np.all(omega.values == 0.0)
    assert rep.uncovered == 0


def test_transport_radial_exact_solution():
    grid = radial_grid(33)
    b = radial_drift(grid)
    X, Y = grid.meshgrid()
    R = np.hypot(X, Y)
    omega_b = ss.ScalarField(grid, 1.0 / R)
    omega, rep = vorticity.transport_omega(b, omega_b,
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
    omega, _ = vorticity.transport_omega(radial_drift(grid), omega_b)
    assert np.array_equal(omega.values[-1, :], omega_b.values[-1, :])
    assert np.array_equal(omega.values[:, -1], omega_b.values[:, -1])


def test_transport_uncovered_strict():
    grid = ss.Grid2D(-1, 1, -1, 1, 17, 17)
    # rotational drift: interior characteristics never reach the boundary
    b = ss.VectorField.from_function(grid, lambda x, y: -y, lambda x, y: x)
    omega, rep = vorticity.transport_omega(
        b, ss.ScalarField.zeros(grid), max_len=2.0)
    assert rep.uncovered > 0 and rep.truncated > 0
    with pytest.raises(UncoveredNodes):
        vorticity.transport_omega(b, ss.ScalarField.zeros(grid),
                                  max_len=2.0, strict=True)


def test_transport_validation():
    grid = radial_grid(9)
    other = radial_grid(11)
    with pytest.raises(ConfigError):
        vorticity.transport_omega(radial_drift(grid),
                                  ss.ScalarField.zeros(other))
    with pytest.raises(ConfigError):
        vorticity.transport_omega(radial_drift(grid),
                                  ss.ScalarField.zeros(grid), step=-1.0)


def test_trace_characteristic_builds_one_drift_table(monkeypatch):
    # the polyline equals one trace_all sub-step per recorded step, while
    # the O(N) corner table is built once per call, not once per step
    from selfsim import _kernels, field as fld

    grid = ss.Grid2D(-1, 1, -1, 1, 21, 21)
    b = ss.VectorField.from_function(grid, lambda x, y: -y + 0.3 * x,
                                     lambda x, y: x + 0.1)
    step = 0.05
    x, y = 0.5, 0.0
    points = [(x, y)]
    for _ in range(40):
        a, hx_, hy_, st, _ = _kernels.trace_all(
            b.u, b.v, fld.divergence(b).values, np.array([x]), np.array([y]),
            1.0, step, step * 0.999, 1e-14, grid.x0, grid.x1, grid.y0,
            grid.y1, grid.hx, grid.hy, grid.nx, grid.ny)
        x, y = float(hx_[0]), float(hy_[0])
        points.append((x, y))
        if st[0] == _kernels.TRACE_EXITED:
            break
    calls = []
    corners = _kernels._corners

    def counted(*args):
        calls.append(1)
        return corners(*args)

    monkeypatch.setattr(_kernels, "_corners", counted)
    tr = vorticity.trace_characteristic(b, (0.5, 0.0), step=step,
                                        max_len=40 * step)
    assert len(calls) == 1
    assert np.array_equal(tr.points, np.array(points))
