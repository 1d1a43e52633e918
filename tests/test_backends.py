"""Numba fast path vs pure-numpy fallback: selection and agreement."""

import os

import numpy as np
import pytest

import selfsim as ss
from selfsim import _kernels, field as fld, vorticity

needs_numba = pytest.mark.skipif(not _kernels.HAVE_NUMBA,
                                 reason="numba not importable")


@pytest.fixture
def backend_env(monkeypatch):
    def set_mode(mode):
        monkeypatch.setenv("SELFSIM_BACKEND", mode)
    return set_mode


def test_backend_selection(backend_env):
    backend_env("numpy")
    assert not _kernels.use_numba()
    if _kernels.HAVE_NUMBA:
        backend_env("numba")
        assert _kernels.use_numba()
        backend_env("auto")
        assert _kernels.use_numba()


@needs_numba
def test_stencil_parity(backend_env):
    rng = np.random.default_rng(17)
    shape = (21, 19)
    coef = tuple(rng.normal(size=shape) for _ in range(9))
    f = rng.normal(size=shape)
    backend_env("numba")
    a = _kernels.apply_stencil(coef, f)
    backend_env("numpy")
    b = _kernels.apply_stencil(coef, f)
    assert np.max(np.abs(a - b)) < 1e-13
    # frame passes through unchanged on both paths
    assert np.array_equal(a[0, :], f[0, :])
    assert np.array_equal(b[:, -1], f[:, -1])


@needs_numba
def test_transport_parity(backend_env):
    grid = ss.Grid2D(0.25, 0.75, 0.25, 0.75, 25, 25)
    b = ss.VectorField.from_function(grid, lambda x, y: -x, lambda x, y: -y)
    X, Y = grid.meshgrid()
    omega_b = ss.ScalarField(grid, (1.0 + 0.3 * X) / np.hypot(X, Y))
    backend_env("numba")
    om1, rep1 = vorticity.transport_omega(b, omega_b)
    backend_env("numpy")
    om2, rep2 = vorticity.transport_omega(b, omega_b)
    assert rep1 == rep2
    assert np.max(np.abs(om1.values - om2.values)) < 1e-12


def _trace_both(b, max_len):
    """Trace every node backward with the numpy and the scalar kernel."""
    g = b.grid
    X, Y = g.meshgrid()
    args = (b.u, b.v, fld.divergence(b).values, X.ravel(), Y.ravel(), -1.0,
            0.5 * min(g.hx, g.hy), max_len, 1e-14,
            g.x0, g.x1, g.y0, g.y1, g.hx, g.hy, g.nx, g.ny)
    return _kernels._trace_all_numpy(*args), _kernels._trace_all_numba(*args)


@pytest.mark.parametrize("case", ["radial", "spiral"])
def test_numpy_tracer_matches_scalar_kernel(case):
    # without numba, _trace_all_numba runs as plain Python: a scalar
    # reference for the batched numpy tracer on every node of a 9^2 grid
    if case == "radial":
        grid = ss.Grid2D(0.25, 0.75, 0.25, 0.75, 9, 9)
        b = ss.VectorField.from_function(grid, lambda x, y: -x,
                                         lambda x, y: -y)
        max_len, counts = 20.0 * grid.diam, [81, 0, 0]
    else:
        grid = ss.Grid2D(-1, 1, -1, 1, 9, 9)
        b = ss.VectorField.from_function(grid, lambda x, y: -y + 0.15 * x,
                                         lambda x, y: x + 0.15 * y)
        max_len, counts = 1.0, [20, 1, 60]
    fast, ref = _trace_both(b, max_len)
    # exited, stagnated, max-length paths
    assert np.bincount(ref[3], minlength=3).tolist() == counts
    for a, r in zip(fast, ref):
        assert np.array_equal(a, r)


def test_numpy_tracer_bisects_once_per_trace(monkeypatch):
    # the exit bisection (49 RK4 steps) runs once for all crossed nodes,
    # not once per march step in which some node crosses
    monkeypatch.setenv("SELFSIM_BACKEND", "numpy")
    calls = []
    rk4 = _kernels._rk4_np

    def counted(*args):
        calls.append(1)
        return rk4(*args)

    monkeypatch.setattr(_kernels, "_rk4_np", counted)
    grid = ss.Grid2D(0.25, 0.75, 0.25, 0.75, 33, 33)
    b = ss.VectorField.from_function(grid, lambda x, y: -x, lambda x, y: -y)
    _, rep = vorticity.transport_omega(b, ss.ScalarField.zeros(grid))
    assert rep.exited == rep.traced
    # backward paths grow as xi0 * e^r and leave [0.25, 0.75]^2 by r = ln 3
    march_steps = int(np.ceil(np.log(3.0) / (0.5 * grid.hx)))
    assert len(calls) <= march_steps + 49


def test_backend_numba_required_but_missing(monkeypatch):
    monkeypatch.setattr(_kernels, "HAVE_NUMBA", False)
    monkeypatch.setenv("SELFSIM_BACKEND", "numba")
    with pytest.raises(RuntimeError):
        _kernels.use_numba()
