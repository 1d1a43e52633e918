"""Quasi-potential machinery unit tests: perturbation forms, closures,
linearized operator, coupled solver reduction and rotational diagnostics."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg

import selfsim as ss
from selfsim import (field as fld, hodge, potential, quasipotential as qp,
                     vorticity)
from selfsim.errors import ConfigError, LinearStagnation

from conftest import quiescent_field


@pytest.fixture
def law():
    return ss.GasLaw(a=1.0, gamma=2.0)


@pytest.fixture
def grid():
    return ss.Grid2D(-0.5, 0.5, -0.5, 0.5, 33, 33)


def smooth(grid, seed=0):
    rng = np.random.default_rng(seed)
    X, Y = grid.meshgrid()
    a, b, c = rng.normal(size=3)
    return ss.ScalarField(grid, a * np.sin(np.pi * X) * np.cos(np.pi * Y)
                          + b * X * Y + c * np.cos(2 * X + Y))


def test_N_terms_discrete_homogeneity(grid):
    """N1 is exactly homogeneous of degree 1 in zeta."""
    psi = smooth(grid, 1)
    zeta = smooth(grid, 2)
    z2 = ss.ScalarField(grid, 2.0 * zeta.values)
    a = qp.compute_N1(psi, z2).values
    b = 2.0 * qp.compute_N1(psi, zeta).values
    assert np.max(np.abs(a - b)) < 1e-10 * max(1.0, np.max(np.abs(b)))


def test_N1_vanishes_for_zero_zeta(grid):
    psi = smooth(grid, 3)
    z0 = ss.ScalarField.zeros(grid)
    assert np.all(qp.compute_N1(psi, z0).values == 0.0)


def _sym_DU(psi, zeta, t=1.0):
    """Symmetric part of DU for U = grad psi + t perp_grad zeta, from
    fld.hessian: D perp_grad zeta has rows (-z12, -z22 ; z11, z12)."""
    p11, p12, p22 = (f.values for f in fld.hessian(psi))
    z11, z12, z22 = (f.values for f in fld.hessian(zeta))
    return (p11 - t * z12, p12 + t * 0.5 * (z11 - z22), p22 + t * z12)


def test_N1_is_the_first_order_part_of_the_operator(grid):
    # N1 = -d/dt at t = 0 of the operator without its c^2 terms on
    # U_t = grad psi + t perp_grad zeta; that is a cubic in t, so the
    # 5-point difference is exact
    psi = smooth(grid, 5)
    zeta = smooth(grid, 6)
    gp, pz = fld.gradient(psi), fld.perp_gradient(zeta)

    def op(t):
        U = ss.VectorField(grid, gp.u + t * pz.u, gp.v + t * pz.v)
        return potential.self_similar_operator(0.0, U, _sym_DU(psi, zeta, t))

    h = 0.5
    deriv = (op(-2 * h) - 8 * op(-h) + 8 * op(h) - op(2 * h)) / (12 * h)
    n1 = qp.compute_N1(psi, zeta).values
    assert np.max(np.abs(n1 + deriv)) <= 1e-10 * np.max(np.abs(n1))


def test_r1_is_the_operator_on_U(law, grid):
    # r1 = c^2 Lap psi - U . (DU) U - |U|^2 + 2 c^2, written out here with
    # the full (unsymmetrized) Jacobian DU and the Bernoulli closure c^2
    psi = ss.ScalarField(grid, quiescent_field(grid).values
                         + 0.05 * smooth(grid, 1).values)
    zeta = ss.ScalarField(grid, 0.05 * smooth(grid, 2).values)
    anchor = (16, 16)
    gp, pp = fld.gradient(psi), fld.perp_gradient(psi)
    gz, pz = fld.gradient(zeta), fld.perp_gradient(zeta)
    p11, p12, p22 = (f.values for f in fld.hessian(psi))
    z11, z12, z22 = (f.values for f in fld.hessian(zeta))
    lz = z11 + z22
    F = hodge.reconstruct_F(
        ss.ScalarField(grid, -lz * (pp.u + gz.u) - pz.u),
        ss.ScalarField(grid, -lz * (pp.v + gz.v) - pz.v), C=0.0,
        anchor=anchor)
    u, v = gp.u + pz.u, gp.v + pz.v
    c2 = -(law.gamma - 1.0) * (psi.values - F.values + 0.5 * (u * u + v * v))
    # DU[i][j] = d U_i / d xi_j
    DU = ((p11 - z12, p12 - z22), (p12 + z11, p22 + z12))
    quad = (u * (DU[0][0] * u + DU[0][1] * v)
            + v * (DU[1][0] * u + DU[1][1] * v))
    want = c2 * (p11 + p22) - quad - (u * u + v * v) + 2.0 * c2
    r1, _ = qp.full_rotational_residual(psi, zeta, law, anchor=anchor)
    inner = (slice(1, -1), slice(1, -1))
    assert np.max(np.abs(r1.values[inner] - want[inner])) <= (
        1e-12 * np.max(np.abs(want[inner])))


def test_reconstruct_F1_harmonic_golden(grid):
    # zeta = xi1 xi2 is harmonic, so grad F1 = perp_grad zeta = (-xi1, xi2)
    # and F1 = (xi2^2 - xi1^2)/2 anchored at the center node (the origin)
    psi = smooth(grid, 4)
    zeta = ss.ScalarField.from_function(grid, lambda x, y: x * y)
    F1, defect = qp.reconstruct_F1(psi, zeta, anchor=(16, 16))
    X, Y = grid.meshgrid()
    assert np.max(np.abs(F1.values - (Y ** 2 - X ** 2) / 2.0)) < 1e-12
    assert defect < 1e-10


def test_reconstruct_F1_strict_curl_guard(grid):
    psi = quiescent_field(grid)
    zeta = ss.ScalarField.from_function(
        grid, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    _, defect = qp.reconstruct_F1(psi, zeta)
    assert defect > 1e-3  # this zeta does not satisfy the transport balance


def test_Q1_and_c2_quasi(law, grid):
    psi = quiescent_field(grid)
    zeta = ss.ScalarField.from_function(grid, lambda x, y: x * y)
    F1, _ = qp.reconstruct_F1(psi, zeta, anchor=(16, 16))
    q1 = qp.compute_Q1(law, psi, zeta, F1)
    gp = fld.gradient(psi)
    pz = fld.perp_gradient(zeta)
    expect = (law.gamma - 1.0) * (F1.values + gp.u * pz.u + gp.v * pz.v)
    assert np.max(np.abs(q1.values - expect)) == 0.0
    c2, clamped = qp.c2_quasi(law, psi, zeta, 1e-3, F1)
    c0, _ = potential.c2_of_phi(law, psi, c2_floor=-np.inf)
    assert np.max(np.abs(c2.values - (c0.values - 1e-3 * q1.values))) < 1e-14
    assert clamped == 0


def test_quasi_state_computes_Q1_once(law, grid, monkeypatch):
    psi = quiescent_field(grid)
    zeta = ss.ScalarField.from_function(grid, lambda x, y: x * y)
    base = potential.PotentialProblem(law=law, grid=grid, phi_b=psi,
                                      c2_floor=1e-6)
    compute_Q1 = qp.compute_Q1
    calls = []

    def counted(*args):
        calls.append(1)
        return compute_Q1(*args)

    monkeypatch.setattr(qp, "compute_Q1", counted)
    state = qp.quasi_state(qp.QuasiConfig(anchor=(16, 16)), base, 1e-3,
                           psi, zeta)
    assert len(calls) == 1
    # the closure from the shared Q1 is the one c2_quasi computes alone
    c2, clamped = qp.c2_quasi(law, psi, zeta, 1e-3, state.F1, 1e-6)
    assert np.array_equal(state.c2.values, c2.values)
    assert state.clamped == clamped
    assert np.array_equal(state.Q1.values, compute_Q1(law, psi, zeta,
                                                      state.F1).values)



def test_quasi_state_takes_each_gradient_once(law, grid, monkeypatch):
    # grad psi and perp_grad zeta~ are taken once per evaluation and shared
    # by F1, Q1, N1, c^2 and U, which equal the standalone forms
    psi = smooth(grid, 3)
    zeta = smooth(grid, 4)
    base = potential.PotentialProblem(law=law, grid=grid, phi_b=psi,
                                      c2_floor=1e-6)
    calls = []
    for name in ("gradient", "perp_gradient"):
        def counted(f, _name=name, _fn=getattr(fld, name)):
            calls.append((_name, f))
            return _fn(f)
        monkeypatch.setattr(fld, name, counted)
    state = qp.quasi_state(qp.QuasiConfig(anchor=(16, 16)), base, 1e-2,
                           psi, zeta)
    assert [n for n, f in calls if f is psi].count("gradient") == 1
    assert [n for n, f in calls if f is zeta].count("perp_gradient") == 1
    monkeypatch.undo()
    F1, defect = qp.reconstruct_F1(psi, zeta, anchor=(16, 16))
    Q1 = qp.compute_Q1(law, psi, zeta, F1)
    c2, clamped = qp.c2_quasi(law, psi, zeta, 1e-2, F1, 1e-6)
    gp, pz = fld.gradient(psi), fld.perp_gradient(zeta)
    for got, want in ((state.F1, F1), (state.Q1, Q1), (state.c2, c2),
                      (state.N1, qp.compute_N1(psi, zeta))):
        assert np.array_equal(got.values, want.values)
    assert (state.curl_defect, state.clamped) == (defect, clamped)
    assert np.array_equal(state.U.u, gp.u + 1e-2 * pz.u)
    assert np.array_equal(state.U.v, gp.v + 1e-2 * pz.v)

def test_residual_map_zero_at_quiescent(law, grid):
    # the residual map of the Newton step is residual_Q with the unclamped
    # closure
    psi = quiescent_field(grid)
    r = potential.residual_Q(law, psi, c2_floor=-np.inf)
    assert np.max(np.abs(r.values)) < 1e-12


def test_linearized_annihilates_translation(law, grid):
    psi0 = quiescent_field(grid)
    v = ss.ScalarField.from_function(grid, lambda x, y: x)
    lv = qp.linearized_L(psi0, v, law)
    assert np.max(np.abs(lv.values[1:-1, 1:-1])) < 1e-12


def test_gateaux_slope(law, grid):
    psi0 = quiescent_field(grid)
    v = ss.ScalarField.from_function(
        grid, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    out = qp.gateaux_check(psi0, v, law)
    assert 0.9 <= out["slope"] <= 1.1
    with pytest.raises(ConfigError):
        qp.gateaux_check(psi0, v, law, taus=(1e-4, 1e-3))


def test_quasi_config_validation():
    with pytest.raises(ConfigError):
        qp.QuasiConfig(delta_targets=[1e-2, 1e-3])  # not ascending
    with pytest.raises(ConfigError):
        qp.QuasiConfig(delta_targets=[-0.1])
    with pytest.raises(ConfigError):
        qp.QuasiConfig(delta_targets=[1.0])
    with pytest.raises(ConfigError):
        qp.QuasiConfig(outer_tol=0.0)


def test_solve_quasi_delta_zero_reduces_to_potential(law):
    grid = ss.Grid2D(0.1, 0.6, 0.1, 0.6, 17, 17)
    base = potential.PotentialProblem(law=law, grid=grid,
                                      phi_b=quiescent_field(grid))
    phi, _ = potential.epsilon_continuation(base)
    cfg = qp.QuasiConfig(delta_targets=[0.0], anchor=(8, 8))
    state, rep = qp.solve_quasi(cfg, base)
    assert rep.status == "Converged"
    assert np.max(np.abs(state.psi.values - phi.values)) < 1e-8
    assert np.all(state.zeta.values == 0.0)
    assert state.delta == 0.0


def test_solve_quasi_carries_one_jacobian(law, monkeypatch):
    # the criterion-11 patch with a rotational zeta_b: the base solve takes
    # the direct path, and its factored Jacobian serves the psi solves of
    # every sweep and stage, which give the psi of psi solves that each
    # start on a fresh Jacobian
    grid = ss.Grid2D(0.1, 0.6, 0.1, 0.6, 17, 17)
    base = potential.PotentialProblem(law=law, grid=grid,
                                      phi_b=quiescent_field(grid))
    zeta_b = ss.ScalarField.from_function(
        grid, lambda x, y: 0.5 * np.sin(np.pi * x) * np.cos(np.pi * y)
        + 0.25 * x * y)
    cfg = qp.QuasiConfig(delta_targets=[1e-3, 1e-2], zeta_b=zeta_b,
                         anchor=(8, 8), outer_tol=1e-9)
    picard_solve = potential.picard_solve
    assemble, splu = potential.assemble_frozen, scipy.sparse.linalg.splu
    assembled, factored = [], []

    def fresh(*args, system=None, **kwargs):
        return picard_solve(*args, **kwargs)

    def counted(calls, fn):
        def call(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(potential, "assemble_frozen",
                        counted(assembled, assemble))
    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted(factored, splu))
    monkeypatch.setattr(potential, "picard_solve", fresh)
    ref, ref_rep = qp.solve_quasi(cfg, base)
    # every LU is a Jacobian's: the zeta~ Poisson solves factor none
    assert len(factored) == len(assembled) > 2
    monkeypatch.setattr(potential, "picard_solve", picard_solve)
    del assembled[:], factored[:]
    state, rep = qp.solve_quasi(cfg, base)
    sweeps = [s["outer_iters"] for s in rep.stages]
    assert (rep.status, rep.path) == ("Converged", "direct")
    assert sweeps == [s["outer_iters"] for s in ref_rep.stages]
    assert len(assembled) <= 2 < 1 + sum(sweeps)
    assert len(factored) == len(assembled)
    assert np.max(np.abs(state.psi.values - ref.psi.values)) <= 1e-12


def _bench_quasi(law, targets):
    """solve_quasi on the solve-quasi-17 inputs of the benchmark's seed 0:
    the criterion-11 patch at 17^2 with zeta_b scaled by (c1, c2)."""
    grid = ss.Grid2D(0.1, 0.6, 0.1, 0.6, 17, 17)
    c1, c2 = 0.832329615669275, 0.9609751167974349
    base = potential.PotentialProblem(law=law, grid=grid,
                                      phi_b=quiescent_field(grid))
    zeta_b = ss.ScalarField.from_function(
        grid, lambda x, y: 0.5 * c1 * np.sin(np.pi * x) * np.cos(np.pi * y)
        + 0.25 * c2 * x * y)
    cfg = qp.QuasiConfig(delta_targets=targets, zeta_b=zeta_b,
                         anchor=(8, 8), outer_tol=1e-9)
    return qp.solve_quasi(cfg, base)


def test_quasi_sweeps_reuse_the_fill_schedule(law, monkeypatch):
    # each transport starts from the fill schedule of the one before: the
    # 8 transports of solve-quasi-17 at seed 0 run the schedule pass at
    # most twice (once, measured), the psi and zeta of a solve whose every
    # transport builds its own schedule are bitwise the same, and the
    # schedule stays out of the report
    builds, transports = [], []
    levels, transport = vorticity._foot_levels, vorticity.transport_omega

    def counted_levels(*args):
        builds.append(args[0].size)
        return levels(*args)

    def fresh_transport(*args, **kwargs):
        transports.append(kwargs.get("schedule"))
        kwargs["schedule"] = None
        return transport(*args, **kwargs)

    monkeypatch.setattr(vorticity, "_foot_levels", counted_levels)
    state, rep = _bench_quasi(law, [1e-3, 1e-2])
    assert [s["outer_iters"] for s in rep.stages] == [4, 4]
    assert 1 <= len(builds) <= 2
    assert all(set(s) == {"delta", "outer_iters", "change", "max_L2",
                          "curl_defect", "uncovered"} for s in rep.stages)
    assert not any("schedule" in k for k in vars(rep))
    monkeypatch.setattr(vorticity, "transport_omega", fresh_transport)
    builds.clear()
    ref, _ = _bench_quasi(law, [1e-3, 1e-2])
    assert len(transports) == len(builds) == 8
    assert transports[0] is None and all(
        t is not None for t in transports[1:])
    for got, want in ((state.psi, ref.psi), (state.zeta, ref.zeta),
                      (state.omega_tilde, ref.omega_tilde)):
        assert got.values.tobytes() == want.values.tobytes()


_BLAS_THREADS = """
import time
import selfsim as ss
from selfsim import hodge
import test_quasipotential as tq
# numpy's and scipy's OpenBLAS each start a thread that spins for about
# 0.1 s after the library loads; let that end first
time.sleep(0.5)
grid = ss.Grid2D(-0.5, 0.5, -0.5, 0.5, 129, 129)
U = ss.VectorField.from_function(grid, lambda x, y: -y + x * x,
                                 lambda x, y: x + x * y)
law = ss.GasLaw(a=1.0, gamma=2.0)
cpu, own = time.process_time(), time.thread_time()
hodge.decompose(U)
tq._bench_quasi(law, [1e-3, 1e-2])
print(1e3 * (time.process_time() - cpu - (time.thread_time() - own)))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="per-thread CPU clocks")
def test_no_operation_wakes_a_blas_thread():
    # the CPU time of every thread but the caller's over a 129^2 decompose
    # and the 17^2 quasi solve of the benchmark: 0.00 ms measured, where
    # one BLAS product of two 129^2 matrices reads 10-60 ms.  So hodge's
    # _mm and _inv and potential.norm2 stay off BLAS, and the benchmark's
    # cpu_s counts no BLAS thread of selfsim's own.  The thread settings
    # are the library defaults
    here = os.path.dirname(os.path.abspath(__file__))
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("OPENBLAS_", "OMP_", "MKL_"))}
    env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(ss.__path__[0]),
                                         here])
    out = subprocess.run([sys.executable, "-c", _BLAS_THREADS], env=env,
                         cwd=here, capture_output=True, text=True, check=True)
    assert float(out.stdout) < 5.0


@pytest.mark.parametrize("targets, status, most, error", [
    # sweeps per stage without the secant predictor, which each stage
    # after the first with a nonzero step behind it saves one of
    ([1e-3, 0.1], "Converged", [4, 11], None),
    ([0.01, 0.05, 0.1, 0.2], "Converged", [5, 7, 10, 20], None),
    ([0.0, 0.01, 0.02], "Converged", [2, 5, 6], None),
    ([1e-3, 0.3], "PartialContinuation", [4], "after 50 sweeps"),
    ([0.05, 0.3, 0.6], "PartialContinuation", [7], "after 50 sweeps"),
    ([1e-4, 0.5], "PartialContinuation", [3], "ellipticity margin")])
def test_delta_schedules_keep_their_status(law, targets, status, most,
                                           error):
    _, rep = _bench_quasi(law, targets)
    sweeps = [s["outer_iters"] for s in rep.stages]
    assert rep.status == status
    assert len(sweeps) == len(most)
    assert all(s <= m for s, m in zip(sweeps, most))
    if error:
        assert len(rep.errors) == 1 and error in rep.errors[0]
    else:
        assert sum(sweeps) < sum(most)


def test_secant_predictor_saves_a_sweep(law, monkeypatch):
    # with the predictor patched out (each stage starts from the last
    # converged psi) the stages take [4, 5] sweeps; the predicted second
    # stage takes 4 and ends on the same psi and zeta
    stage = qp._solve_stage
    last = []

    def unpredicted(config, base, params, delta, psi, *args):
        out = stage(config, base, params, delta,
                    last[-1] if last else psi, *args)
        last.append(out[0])
        return out

    monkeypatch.setattr(qp, "_solve_stage", unpredicted)
    ref, ref_rep = _bench_quasi(law, [1e-3, 1e-2])
    monkeypatch.undo()
    state, rep = _bench_quasi(law, [1e-3, 1e-2])
    assert [s["outer_iters"] for s in ref_rep.stages] == [4, 5]
    assert [s["outer_iters"] for s in rep.stages] == [4, 4]
    assert rep.status == "Converged"
    for got, want in ((state.psi, ref.psi), (state.zeta, ref.zeta)):
        assert np.max(np.abs(got.values - want.values)) <= 1e-13


def test_full_rotational_residual_potential_limit(law):
    grid = ss.Grid2D(0.1, 0.6, 0.1, 0.6, 17, 17)
    base = potential.PotentialProblem(law=law, grid=grid,
                                      phi_b=quiescent_field(grid))
    phi, _ = potential.epsilon_continuation(base)
    zeta0 = ss.ScalarField.zeros(grid)
    r1, r2 = qp.full_rotational_residual(phi, zeta0, law, anchor=(8, 8))
    # with zeta = 0 the reconstructed closure collapses to c0^2 and r1 is the
    # plain potential residual; the vorticity residual vanishes identically
    lim = np.max(np.abs(potential.residual_Q(law, phi,
                                             c2_floor=-np.inf).values))
    assert np.max(np.abs(r1.values)) <= lim + 1e-10
    assert np.all(r2.values == 0.0)


def test_newton_step_rejects_non_finite_rhs(law, grid):
    rhs = ss.ScalarField.zeros(grid)
    rhs.values[4, 9] = np.inf
    prob = potential.PotentialProblem(law=law, grid=grid,
                                      phi_b=quiescent_field(grid))
    with pytest.raises(LinearStagnation):
        potential.picard_solve(prob, 0.0, rhs=rhs)


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_newton_stencil_is_linearized_L(gamma, grid):
    # the Newton system at eps = 0 is the operator whose Gateaux derivative
    # gateaux_check verifies
    law = ss.GasLaw(a=2.0 if gamma == 1.0 else 1.0, gamma=gamma)
    psi = ss.ScalarField(grid, quiescent_field(grid).values
                         + 0.02 * smooth(grid, 7).values)
    v = smooth(grid, 8)
    want = qp.linearized_L(psi, v, law).values[1:-1, 1:-1]
    got = potential.assemble_frozen(law, psi, 0.0).apply(v.values)[1:-1, 1:-1]
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
