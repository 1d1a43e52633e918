"""Hodge-Helmholtz decomposition and Bernoulli-construction unit tests."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

import selfsim as ss
from selfsim import field as fld, hodge
from selfsim.errors import (ConfigError, DomainError, LinearStagnation,
                            NonSolenoidalInput, SolverError)


@pytest.fixture
def grid():
    return ss.Grid2D(-0.5, 0.5, -0.5, 0.5, 33, 33)


def test_decompose_pure_gradient(grid):
    f = ss.ScalarField.from_function(
        grid, lambda x, y: np.sin(2 * x) * np.cos(y))
    U = fld.gradient(f)
    dec = hodge.decompose(U)
    assert dec.div_W_norm < 1e-10
    gpsi = fld.gradient(dec.psi)
    # the potential part captures the full gradient field
    assert np.max(np.abs(gpsi.u - U.u)) < 1e-6
    assert np.max(np.abs(dec.W.u)) < 1e-6 and np.max(np.abs(dec.W.v)) < 1e-6


def test_decompose_preserves_rotation(grid):
    rng = np.random.default_rng(3)
    U = ss.VectorField(grid, rng.normal(size=grid.shape),
                       rng.normal(size=grid.shape))
    dec = hodge.decompose(U)
    assert dec.div_W_norm < 1e-10
    gap = fld.rot(dec.W).values - fld.rot(U).values
    assert np.max(np.abs(gap[1:-1, 1:-1])) < 1e-10
    # U = grad psi + W by construction
    gpsi = fld.gradient(dec.psi)
    assert np.max(np.abs(U.u - gpsi.u - dec.W.u)) < 1e-12


def test_decompose_rejects_nonfinite(grid):
    U = ss.VectorField.zeros(grid)
    U.u[3, 3] = np.nan
    with pytest.raises(DomainError):
        hodge.decompose(U)
    U.u[3, 3] = 0.0
    for lin_tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigError):
            hodge.decompose(U, lin_tol=lin_tol)


def _diff1_matrix(n, h):
    """Sparse 1-D first-derivative operator, written out from the stencil
    of field.diff1: centered inside, one-sided second order at the ends."""
    one_sided = sp.csr_matrix(([-3.0, 4.0, -1.0, 1.0, -4.0, 3.0],
                               ([0, 0, 0, 1, 1, 1],
                                [0, 1, 2, n - 3, n - 2, n - 1])),
                              shape=(2, n))
    centered = sp.diags([-1.0, 1.0], [0, 2], shape=(n - 2, n))
    D = sp.vstack([one_sided[0], centered, one_sided[1]])
    return (D / (2.0 * h)).tocsr()


def gradient_operators(grid):
    """Sparse (Gx, Gy) acting on row-major flattened fields."""
    Dx = _diff1_matrix(grid.nx, grid.hx)
    Dy = _diff1_matrix(grid.ny, grid.hy)
    Gx = sp.kron(sp.identity(grid.ny, format="csr"), Dx, format="csr")
    Gy = sp.kron(Dy, sp.identity(grid.nx, format="csr"), format="csr")
    return Gx, Gy


def _zero_mean_bordered_psi(U):
    """Reference psi: a dense solve of the Neumann system bordered by the
    boundary multiplier column and the row mean(psi) = 0."""
    grid = U.grid
    N = grid.nx * grid.ny
    Gx, Gy = gradient_operators(grid)
    interior = np.zeros(grid.shape, bool)
    interior[1:-1, 1:-1] = True
    interior = interior.ravel()
    nux, nuy = (a.ravel() for a in hodge._boundary_normals(grid))
    L = (Gx @ Gx + Gy @ Gy).toarray()
    A = np.where(interior[:, None], L,
                 nux[:, None] * Gx.toarray() + nuy[:, None] * Gy.toarray())
    rhs = np.where(interior, Gx @ U.u.ravel() + Gy @ U.v.ravel(),
                   nux * U.u.ravel() + nuy * U.v.ravel())
    w_b = (~interior) / np.count_nonzero(~interior)
    M = np.block([[A, w_b[:, None]], [np.full((1, N), 1.0 / N), 0.0]])
    return np.linalg.solve(M, np.append(rhs, 0.0))[:N].reshape(grid.shape)


@pytest.mark.parametrize("shape", [(17, 17), (13, 9), (3, 3), (4, 5),
                                   (16, 16), (33, 17)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decompose_matches_zero_mean_bordered_system(shape, seed):
    # the pinned, separable solve and the mean shift keep the discrete
    # problem: the same psi as the dense zero-mean system, also for
    # hx != hy, odd and even node counts and the 3-node line
    g = ss.Grid2D(0.0, 1.0, -0.5, 0.1, *shape)
    rng = np.random.default_rng(seed)
    U = ss.VectorField(g, rng.normal(size=g.shape), rng.normal(size=g.shape))
    dec = hodge.decompose(U)
    assert np.max(np.abs(dec.psi.values - _zero_mean_bordered_psi(U))) <= 1e-12
    assert abs(np.mean(dec.psi.values)) <= 1e-14


@pytest.mark.parametrize("n", [65, 64])
def test_decompose_solves_without_sparse_lu(monkeypatch, n):
    # no splu: the Neumann system is solved by fast diagonalization, once
    # plus at most three refinement corrections
    def no_splu(*args, **kwargs):
        raise AssertionError("decompose called splu")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", no_splu)
    solves = []
    solve = hodge._NeumannSolver.solve

    def counted(self, *args):
        solves.append(args)
        return solve(self, *args)

    monkeypatch.setattr(hodge._NeumannSolver, "solve", counted)
    g = ss.Grid2D(-0.5, 0.5, -0.5, 0.5, n, n)
    rng = np.random.default_rng(5)
    dec = hodge.decompose(ss.VectorField(g, rng.normal(size=g.shape),
                                         rng.normal(size=g.shape)))
    assert dec.div_W_norm <= 1e-10
    assert 1 <= len(solves) <= 4


@pytest.mark.parametrize("shape", [(3, 3), (4, 5), (16, 16), (17, 17)])
def test_decompose_calls_no_numpy_linalg(monkeypatch, shape):
    # the line and corner blocks are inverted by hodge._inv, so decompose
    # touches none of numpy's own LAPACK.  The reference is decompose with
    # np.linalg.inv in _inv's place, as both inverses were taken before:
    # on lines of 4 or more nodes both blocks are diagonal and psi keeps
    # its bits; 3-node lines have off-diagonal entries, where the
    # elimination may round otherwise
    g = ss.Grid2D(0.0, 1.0, -0.5, 0.1, *shape)
    rng = np.random.default_rng(0)
    U = ss.VectorField(g, rng.normal(size=g.shape), rng.normal(size=g.shape))
    with monkeypatch.context() as m:
        m.setattr(hodge, "_inv", np.linalg.inv)
        ref = hodge.decompose(U).psi.values

    def refuse(*args, **kwargs):
        raise AssertionError("hodge called np.linalg")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    psi = hodge.decompose(U).psi.values
    if min(shape) >= 4:
        assert psi.tobytes() == ref.tobytes()
    else:
        assert np.max(np.abs(psi - ref)) <= 1e-14 * np.max(np.abs(ref))
    # nothing is cached: a second solver on the grid is built afresh and
    # holds the bits of the first
    assert not hasattr(hodge._Line.unit, "cache_info")
    a, b = hodge._NeumannSolver(g), hodge._NeumannSolver(g)
    for name in ("x", "y"):
        la, lb = getattr(a, name), getattr(b, name)
        assert la is not lb
        for f in la.__dataclass_fields__:
            assert np.asarray(getattr(la, f)).tobytes() == np.asarray(
                getattr(lb, f)).tobytes()
    for f in ("c", "c0", "denom", "corner_inv"):
        assert np.asarray(getattr(a, f)).tobytes() == np.asarray(
            getattr(b, f)).tobytes()
    R = rng.normal(size=g.shape)
    for u, v in zip(a.solve(R, 0.0), b.solve(R, 0.0)):
        assert np.asarray(u).tobytes() == np.asarray(v).tobytes()


def _line_operator(n):
    """Dense A = (D^2)_II - (D^2)_IF D_FF^-1 D_FI of the 1-D Neumann line."""
    D = _diff1_matrix(n, 1.0).toarray()
    F, I = [0, n - 1], slice(1, n - 1)
    D2 = D @ D
    return D2[I, I] - D2[I][:, F] @ np.linalg.solve(D[F][:, F], D[F, I])


@pytest.mark.parametrize("n", [3, 4, 5, 17, 64, 129, 257])
def test_line_eigendecomposition(n):
    A = _line_operator(n)
    line = hodge._Line.unit(n)
    mu, V, Vinv = line.mu, line.V, line.Vinv
    norm = np.linalg.norm(A, 2)
    assert np.linalg.norm(A @ V - V * mu, 2) <= 1e-13 * norm
    assert np.linalg.norm(Vinv @ V - np.eye(n - 2), 2) <= 1e-12
    # one zero mode, the constants; the rest of the spectrum is negative
    assert np.count_nonzero(np.abs(mu) <= 1e-8 * np.max(np.abs(mu))) == 1
    assert np.all(np.delete(mu, line.zero) < 0)


@pytest.mark.parametrize("box, shape", [
    ((-1.0, 1.0, -0.1, 0.1), (129, 65)),
    ((0.0, 0.1, 0.0, 2.0), (33, 129)),
])
def test_decompose_is_solenoidal_on_stretched_grids(box, shape):
    # hx / hy = 5 and 1 / 6.4: the two line operators differ in scale,
    # and the solve stays accurate when the spacings differ
    g = ss.Grid2D(*box, *shape)
    rng = np.random.default_rng(7)
    dec = hodge.decompose(ss.VectorField(g, rng.normal(size=g.shape),
                                         rng.normal(size=g.shape)))
    assert dec.div_W_norm <= 1e-10


def test_stream_function_recovers_perp_potential(grid):
    # zeta vanishes on the frame, matching the solver's Dirichlet convention
    zeta = ss.ScalarField.from_function(
        grid, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
    W = fld.perp_gradient(zeta)
    z2, mismatch = hodge.stream_function(W)
    assert mismatch < 5e-2  # truncation of the Poisson recovery
    assert np.max(np.abs(z2.values - zeta.values)) < 1e-2


def test_stream_function_rejects_compressible_input(grid):
    U = ss.VectorField.from_function(grid, lambda x, y: x, lambda x, y: y)
    with pytest.raises(NonSolenoidalInput):
        hodge.stream_function(U)


def test_bernoulli_GH_rigid_rotation(grid):
    # U = W = (-xi2, xi1), omega = 2: G = 2 xi1 + xi2, H = 2 xi2 - xi1
    U = ss.VectorField.from_function(grid, lambda x, y: -y, lambda x, y: x)
    G, H = hodge.bernoulli_GH(U, U)
    X, Y = grid.meshgrid()
    assert np.max(np.abs(G.values - (2 * X + Y))) < 1e-12
    assert np.max(np.abs(H.values - (2 * Y - X))) < 1e-12
    assert hodge.integrability_residual(G, H) == pytest.approx(2.0, abs=1e-12)


def test_bernoulli_GH_consistency_guard(grid):
    U = ss.VectorField.from_function(grid, lambda x, y: -y, lambda x, y: x)
    psi_bad = ss.ScalarField.from_function(grid, lambda x, y: x)
    with pytest.raises(SolverError):
        hodge.bernoulli_GH(U, U, psi=psi_bad)


def test_integrability_residual_exact_linear(grid):
    X, Y = grid.meshgrid()
    G = ss.ScalarField(grid, Y)
    H = ss.ScalarField(grid, X)
    assert hodge.integrability_residual(G, H) == 0.0


def test_reconstruct_F_goldens():
    grid = ss.Grid2D(0.0, 1.0, 0.0, 1.0, 17, 17)
    X, Y = grid.meshgrid()
    one = ss.ScalarField(grid, np.ones(grid.shape))
    zero = ss.ScalarField.zeros(grid)
    F = hodge.reconstruct_F(one, zero, anchor=(0, 0))
    assert np.max(np.abs(F.values - X)) < 1e-13
    F2 = hodge.reconstruct_F(ss.ScalarField(grid, Y), ss.ScalarField(grid, X),
                             anchor=(0, 0))
    assert np.max(np.abs(F2.values - X * Y)) < 1e-13
    F3 = hodge.reconstruct_F(zero, zero, C=3.5)
    assert np.all(F3.values == 3.5)


def test_reconstruct_F_anchor_and_constant():
    grid = ss.Grid2D(-1.0, 1.0, -1.0, 1.0, 21, 21)
    X, Y = grid.meshgrid()
    G = ss.ScalarField(grid, 2 * X)
    H = ss.ScalarField(grid, 2 * Y)  # grad of |xi|^2
    F = hodge.reconstruct_F(G, H, C=1.0, anchor=(10, 10))
    assert F.values[10, 10] == pytest.approx(1.0)
    assert np.max(np.abs(F.values - (X ** 2 + Y ** 2 + 1.0))) < 1e-12
    with pytest.raises(SolverError):
        hodge.reconstruct_F(G, H, anchor=(50, 0))


def test_bernoulli_residual_round_trip(grid):
    law = ss.GasLaw(a=1.0, gamma=2.0, rho_floor=0.1)
    psi = ss.ScalarField.from_function(grid, lambda x, y: x * y)
    U = ss.VectorField.from_function(grid, lambda x, y: y, lambda x, y: x)
    F = ss.ScalarField.from_function(grid, lambda x, y: 2.0 + x)
    h = F.values - psi.values - 0.5 * U.magnitude_sq()
    rho = ss.ScalarField(grid, ss.enthalpy_inverse(law, h))
    r = hodge.bernoulli_residual(law, rho, psi, U, F)
    assert np.max(np.abs(r.values)) < 1e-12


def test_bernoulli_fields_bundle(grid):
    U = ss.VectorField.from_function(grid, lambda x, y: -y, lambda x, y: x)
    bundle = hodge.bernoulli_fields(U, U, anchor=(16, 16))
    assert bundle.integrability_residual == pytest.approx(2.0, abs=1e-12)
    assert bundle.F.values[16, 16] == pytest.approx(0.0)


def test_gradient_operators_match_field_gradient(grid):
    rng = np.random.default_rng(11)
    f = ss.ScalarField(grid, rng.normal(size=grid.shape))
    Gx, Gy = gradient_operators(grid)
    g = fld.gradient(f)
    assert np.max(np.abs(Gx @ f.values.ravel() - g.u.ravel())) <= 1e-12
    assert np.max(np.abs(Gy @ f.values.ravel() - g.v.ravel())) <= 1e-12


@pytest.mark.parametrize("shape", [(3, 3), (4, 5), (16, 16), (17, 17),
                                   (33, 17)])
def test_poisson_dirichlet_matches_dense_5_point(monkeypatch, shape):
    # the sine-transform solve is the discrete problem: the dense solve of
    # the interior 5-point rows and the identity frame rows, for hx != hy,
    # odd and even node counts and a single inner node; it factors no LU
    def no_splu(*args, **kwargs):
        raise AssertionError("the Poisson solve called splu")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", no_splu)
    g = ss.Grid2D(0.0, 1.0, -0.5, 0.1, *shape)
    rng = np.random.default_rng(sum(shape))
    rhs, frame = rng.normal(size=g.shape), rng.normal(size=g.shape)
    ny, nx = g.shape
    A = np.eye(nx * ny)
    for j in range(1, ny - 1):
        for i in range(1, nx - 1):
            k = j * nx + i
            A[k, k] = -2.0 / g.hx ** 2 - 2.0 / g.hy ** 2
            A[k, [k - 1, k + 1]] = 1.0 / g.hx ** 2
            A[k, [k - nx, k + nx]] = 1.0 / g.hy ** 2
    b = frame.copy()
    b[1:-1, 1:-1] = rhs[1:-1, 1:-1]
    ref = np.linalg.solve(A, b.ravel()).reshape(g.shape)
    zeta = hodge._solve_poisson_dirichlet(g, rhs, frame)
    assert np.max(np.abs(zeta - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_poisson_dirichlet_rejects_non_finite_rhs(grid):
    rhs = np.zeros(grid.shape)
    rhs[5, 7] = np.nan
    with pytest.raises(LinearStagnation):
        hodge._solve_poisson_dirichlet(grid, rhs, np.zeros(grid.shape))


@pytest.mark.parametrize("shape", [(1, 1), (15, 15), (64, 7), (65, 33),
                                   (255, 255), (200, 31)])
def test_dst_row_blocks_change_no_value(shape):
    # the rows are transformed in blocks of 64; each row's transform is
    # bitwise that of one rfft over all rows, the DST-I of its definition
    # sum_k a_k sin(pi j k / (m + 1)) sqrt(2 / (m + 1)) to round-off, and
    # the transform is its own inverse
    rng = np.random.default_rng(shape[0])
    a = rng.normal(size=shape)
    m = shape[1]
    ext = np.zeros((shape[0], m + 1))
    ext[:, 1:] = a
    one = np.fft.rfft(ext, 2 * m + 2).imag[:, 1:-1] * -np.sqrt(2 / (m + 1))
    got = hodge._dst(a)
    assert got.tobytes() == one.tobytes()
    k = np.arange(1, m + 1)
    S = np.sin(np.pi * np.outer(k, k) / (m + 1)) * np.sqrt(2 / (m + 1))
    assert np.max(np.abs(got - a @ S)) <= 1e-13 * np.sqrt(m) * np.max(
        np.abs(a))
    assert np.max(np.abs(hodge._dst(got) - a)) <= 1e-13 * np.max(np.abs(a))
