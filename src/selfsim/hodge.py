"""Hodge-Helmholtz decomposition and the Bernoulli-type (G, H, F) construction.

The potential part psi solves a discrete Neumann problem built from the same
centered/one-sided difference operators as the field calculus, so that
W = U - grad(psi) is discretely divergence-free at interior nodes up to the
linear-solver residual (not just to truncation order).  That system is
separable: after the frame nodes of each grid line are eliminated, the
interior block is a Kronecker sum of two 1-D operators, solved exactly by
fast diagonalization (_NeumannSolver).  The Dirichlet Poisson solve
(_solve_poisson_dirichlet) is diagonalized by the sine transform of each
axis (_SineLaplacian).  Neither builds a sparse matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import field as fld, potential
from .errors import (DomainError, NonSolenoidalInput, SolverError,
                     check_positive)
from .field import Grid2D, ScalarField, VectorField
from .gas import GasLaw, enthalpy


def _boundary_normals(grid: Grid2D):
    """Outward normal components per node (zero at interior); corners diagonal."""
    ny, nx = grid.shape
    nux = np.zeros((ny, nx))
    nuy = np.zeros((ny, nx))
    nux[:, 0] = -1.0
    nux[:, -1] = 1.0
    nuy[0, :] = -1.0
    nuy[-1, :] = 1.0
    norm = np.hypot(nux, nuy)
    mask = norm > 0
    nux[mask] /= norm[mask]
    nuy[mask] /= norm[mask]
    return nux, nuy


@dataclass
class Decomposition:
    psi: ScalarField
    W: VectorField
    div_W_norm: float


@dataclass
class BernoulliFields:
    G: ScalarField
    H: ScalarField
    F: ScalarField
    C: float
    integrability_residual: float = 0.0


def decompose(U: VectorField, lin_tol: float = 1e-11) -> Decomposition:
    """Split U = grad(psi) + W with div W = 0 and zero normal trace on W.

    psi solves div(grad psi) = div U at interior nodes and grad(psi).nu = U.nu
    on the boundary.  The compatibility defect of the discrete Neumann system
    is absorbed by a Lagrange multiplier distributed over the boundary rows
    (so interior equations hold to solver accuracy).  The constant in psi is
    pinned by the row psi[0] = 0, and psi is shifted to zero mean after the
    solve.  The bordered system is solved exactly by _NeumannSolver (fast
    diagonalization, no sparse matrix), and refinement measures its residual
    with the field stencils.
    Before the solve: ConfigError for a bad lin_tol, DomainError for a bad U.
    """
    grid = U.grid
    check_positive(lin_tol=lin_tol)
    if not (np.all(np.isfinite(U.u)) and np.all(np.isfinite(U.v))):
        raise DomainError("decompose requires finite input fields")
    N = grid.nx * grid.ny
    nux, nuy = _boundary_normals(grid)
    frame = np.ones(grid.shape, bool)
    frame[1:-1, 1:-1] = False
    w_b = frame / np.count_nonzero(frame)
    rhs = np.where(frame, nux * U.u + nuy * U.v, fld.divergence(U).values)
    solver = _NeumannSolver(grid)
    x = np.append(*solver.solve(rhs, 0.0))

    def residual():  # rows of the bordered system, the pin row psi[0] last
        g = fld.gradient(ScalarField(grid, x[:N]))
        rows = np.where(frame, nux * g.u + nuy * g.v + w_b * x[N],
                        fld.divergence(g).values) - rhs
        return np.append(rows, x[0])

    def correct(res):
        x[:] -= np.append(*solver.solve(res[:N].reshape(grid.shape), res[N]))

    scale = max(potential.norm2(rhs), 1.0)
    rel = potential.refine(x, residual, correct, lambda: scale, lin_tol)
    psi_vec = x[:N] - np.mean(x[:N])
    if not np.all(np.isfinite(psi_vec)) or rel > 1e3 * lin_tol:
        raise SolverError("Neumann solve for the potential part stagnated")
    psi = ScalarField(grid, psi_vec)
    gpsi = fld.gradient(psi)
    W = VectorField(grid, U.u - gpsi.u, U.v - gpsi.v)
    divW = fld.divergence(W)
    div_norm = float(np.max(np.abs(divW.interior())))
    return Decomposition(psi=psi, W=W, div_W_norm=div_norm)


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in einsum's own loop, on one thread.  Through BLAS, a product
    of size ~127 wakes a second OpenBLAS thread, which then spins for ~0.1 s
    of CPU after the call (2-core host); einsum takes ~1 ms at that size."""
    return np.einsum("ij,jk->ik", a, b, optimize=False)


# outward normal sign at the first and the last node of a grid line
_NU = np.array([-1.0, 1.0])


def _inv(M: np.ndarray) -> np.ndarray:
    """Inverse of a small row diagonally dominant matrix by Gauss-Jordan
    elimination without pivoting, dividing each row by its pivot; the 2 x 2
    D_FF of a line and the 4 x 4 corner block are both, and both are
    diagonal on lines of 4 or more nodes, where the rows come out as 1 / d
    exactly.  np.linalg.inv would touch numpy's own OpenBLAS only for
    these."""
    n = len(M)
    A = np.hstack([M, np.eye(n)])
    for i in range(n):
        A[i] /= A[i, i]
        for r in range(n):
            if r != i:
                A[r] -= A[r, i] * A[i]
    return A[:, n:]


def _line_modes(A: np.ndarray):
    """Eigenpairs A = V diag(mu) V^-1 of the line operator of _Line.

    The spectrum is real and <= 0 with one zero, the constants.  For odd n
    the odd nodes never see the even ones, so A is block lower triangular in
    (odd, even) order with symmetric tridiagonal diagonal blocks A_oo, A_ee:
    V = [[Q_o, 0], [Q_e G, Q_e]] and V^-1 = [[Q_o', 0], [-G Q_o', Q_e']],
    with G = (Q_e' A_eo Q_o) / (nu_j - mu_k) for the eigenpairs (nu_j, Q_o)
    of A_oo and (mu_k, Q_e) of A_ee, and no dense eigensolver or inverse.
    For even n the two parities couple both ways: dgeev with left vectors W,
    V^-1 = W' / (W' V)_kk, given its minimum workspace so that it takes the
    unblocked paths, which call no threaded BLAS-3 product (see _mm).
    """
    m = len(A)
    if m % 2 == 0:
        mu, _, W, V, _ = scipy.linalg.lapack.dgeev(A, lwork=4 * m)
        return mu, V, W.T / np.einsum("ik,ik->k", W, V)[:, None]
    odd, even = np.arange(0, m, 2), np.arange(1, m, 2)  # node 1, 3, ...
    nu, Qo = _eigh_tridiagonal(A[np.ix_(odd, odd)])
    mu, Qe = _eigh_tridiagonal(A[np.ix_(even, even)])
    G = _mm(_mm(Qe.T, A[np.ix_(even, odd)]), Qo) / (nu[None, :] - mu[:, None])
    no = len(odd)
    V = np.zeros((m, m))
    V[odd, :no] = Qo
    V[even, :no] = _mm(Qe, G)
    V[even, no:] = Qe
    Vinv = np.zeros((m, m))
    Vinv[:no, odd] = Qo.T
    Vinv[no:, odd] = -_mm(G, Qo.T)
    Vinv[no:, even] = Qe.T
    return np.concatenate([nu, mu]), V, Vinv


def _eigh_tridiagonal(T: np.ndarray):
    if len(T) == 0:  # the even block of a 3-node line
        return np.zeros(0), np.zeros((0, 0))
    return scipy.linalg.eigh_tridiagonal(np.diag(T).copy(),
                                         np.diag(T, 1).copy())


@dataclass(frozen=True)
class _Line:
    """One grid axis of n nodes, spacing h, with its two end nodes F
    eliminated from the n - 2 inner nodes I.

    With D the first-derivative operator of field.diff1, the Neumann rows of
    the ends read D_FF psi_F + D_FI psi_I = b, so psi_F = Finv b - S psi_I
    with Finv = D_FF^-1 and S = Finv D_FI, and the inner rows of D^2 become
    A psi_I + P b with A = (D^2)_II - P D_FI and P = (D^2)_IF Finv.
    A = V diag(mu) V^-1 (_line_modes), with mu[zero] = 0.
    """
    D_FF: np.ndarray
    D_FI: np.ndarray
    Finv: np.ndarray
    S: np.ndarray
    P: np.ndarray
    mu: np.ndarray
    V: np.ndarray
    Vinv: np.ndarray
    zero: int

    @staticmethod
    def unit(n: int) -> "_Line":
        """The line at h = 1; D and D^2 by field.diff1, with no product.
        Nothing caches it: _NeumannSolver builds each line length once."""
        D = fld.diff1(np.eye(n), 1.0, axis=0)
        D2 = fld.diff1(D, 1.0, axis=0)
        F, I = [0, n - 1], slice(1, n - 1)
        D_FF, D_FI = D[F][:, F], D[F, I]
        Finv = _inv(D_FF)
        P = _mm(D2[I][:, F], Finv)
        mu, V, Vinv = _line_modes(D2[I, I] - _mm(P, D_FI))
        return _Line(D_FF, D_FI, Finv, _mm(Finv, D_FI), P, mu, V, Vinv,
                     int(np.argmax(mu)))

    def scaled(self, h: float) -> "_Line":
        """The line at spacing h: D scales as 1/h, so A as 1/h^2, and V not
        at all."""
        return replace(self, D_FF=self.D_FF / h, D_FI=self.D_FI / h,
                       Finv=self.Finv * h, P=self.P / h,
                       mu=self.mu / (h * h))


class _NeumannSolver:
    """Exact solve of decompose's bordered Neumann system on one grid.

    Every non-corner frame row is a 1-D one-sided Neumann row along its grid
    line, and no interior row touches a corner.  Eliminating those frame
    nodes line by line (_Line) leaves the interior block as the Kronecker
    sum of the two line operators, which the lines' eigenvectors
    diagonalize (Lynch, Rice & Thomas, Numer. Math. 6, 1964).  Its single
    zero mode fixes the multiplier, the corner rows give the corners, and
    the pin row the constant.
    """

    def __init__(self, grid: Grid2D):
        # a square grid diagonalizes one unit line and scales it per axis
        ux = _Line.unit(grid.nx)
        uy = ux if grid.ny == grid.nx else _Line.unit(grid.ny)
        x = self.x = ux.scaled(grid.hx)
        y = self.y = uy.scaled(grid.hy)
        self.w = 1.0 / (2 * (grid.nx + grid.ny) - 4)  # the frame's w_b
        # inner rows: K psi_I = f + lambda c, with K the Kronecker sum
        self.c = self.w * (_mm(x.P, _NU[:, None]).T + _mm(y.P, _NU[:, None]))
        self.c0 = self._zero_mode(self.c)
        self.denom = y.mu[:, None] + x.mu[None, :]
        self.denom[y.zero, x.zero] = np.inf
        # corner rows: nux (D_x psi) + nuy (D_y psi) + w lambda on the 2 x 2
        # corners, row-major; psi D_FF^x' and D_FF^y psi as 4 x 4 operators
        nux, nuy = _boundary_normals(grid)
        self.corner_nux = nux[np.ix_([0, -1], [0, -1])]
        self.corner_nuy = nuy[np.ix_([0, -1], [0, -1])]
        self.corner_inv = _inv(
            self.corner_nux.reshape(4, 1) * np.kron(np.eye(2), x.D_FF)
            + self.corner_nuy.reshape(4, 1) * np.kron(y.D_FF, np.eye(2)))

    def _zero_mode(self, f: np.ndarray) -> float:
        return float(np.einsum("j,ji,i->", self.y.Vinv[self.y.zero], f,
                               self.x.Vinv[self.x.zero], optimize=False))

    def solve(self, R: np.ndarray, pin: float):
        """(psi, lambda) for the row values R on the grid (interior rows
        div grad psi, frame rows nu.grad psi + w_b lambda) and psi[0, 0] =
        pin."""
        x, y, w = self.x, self.y, self.w
        bx = _NU * R[1:-1, [0, -1]]           # end rows of the x-lines
        by = _NU[:, None] * R[[0, -1], 1:-1]  # and of the y-lines
        f = R[1:-1, 1:-1] - _mm(bx, x.P.T) - _mm(y.P, by)
        lam = -self._zero_mode(f) / self.c0
        gh = _mm(_mm(y.Vinv, f + lam * self.c), x.Vinv.T) / self.denom
        psi_I = _mm(_mm(y.V, gh), x.V.T)
        ex = _mm(bx - lam * w * _NU, x.Finv.T) - _mm(psi_I, x.S.T)
        ey = _mm(y.Finv, by - lam * w * _NU[:, None]) - _mm(y.S, psi_I)
        known = (self.corner_nux * _mm(ey, x.D_FI.T)
                 + self.corner_nuy * _mm(y.D_FI, ex))
        rc = R[np.ix_([0, -1], [0, -1])] - w * lam - known
        psi = np.empty(R.shape)
        psi[1:-1, 1:-1] = psi_I
        psi[1:-1, [0, -1]] = ex
        psi[[0, -1], 1:-1] = ey
        psi[np.ix_([0, -1], [0, -1])] = _mm(self.corner_inv,
                                            rc.reshape(4, 1)).reshape(2, 2)
        psi += pin - psi[0, 0]
        return psi, lam


# largest interior |div W| that stream_function accepts
_DIV_TOL = 1e-8


def stream_function(W: VectorField) -> tuple[ScalarField, float]:
    """Recover zeta with W ~ perp_grad(zeta) from Delta zeta = rot W, zeta = 0
    on the frame.  Returns (zeta, mismatch) where mismatch is the interior
    sup-norm of perp_grad(zeta) - W (harmonic remainder plus truncation).
    """
    grid = W.grid
    div_norm = float(np.max(np.abs(fld.divergence(W).interior())))
    if div_norm > _DIV_TOL:
        raise NonSolenoidalInput(
            f"div W = {div_norm:.3e} exceeds tolerance {_DIV_TOL:.3e}")
    rhs_field = fld.rot(W)
    zeta_vec = _solve_poisson_dirichlet(grid, rhs_field.values,
                                        np.zeros(grid.shape))
    zeta = ScalarField(grid, zeta_vec)
    pg = fld.perp_gradient(zeta)
    mismatch = float(max(np.max(np.abs((pg.u - W.u)[1:-1, 1:-1])),
                         np.max(np.abs((pg.v - W.v)[1:-1, 1:-1]))))
    return zeta, mismatch


def _solve_poisson_dirichlet(grid: Grid2D, rhs: np.ndarray,
                             boundary: np.ndarray) -> np.ndarray:
    """Compact 5-point Laplacian with Dirichlet frame data."""
    coef = potential.stencil_coefficients(grid, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    # the four corner arrays of a stencil without cross term are zero
    laplacian = _SineLaplacian(grid, tuple(np.broadcast_to(c, grid.shape)
                                           for c in coef[:5]), lambda_min=1.0)
    return potential.solve_linear_dirichlet(
        laplacian, ScalarField(grid, rhs), ScalarField(grid, boundary)).values


def _dst(a: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along the last axis of a 2-D array, an involution.
    The rfft of (0, a) zero-padded to 2(m + 1) has -i times the sine sums
    as its modes 1 .. m: half those of the odd extension (0, a, 0,
    -reversed a).  The rows are transformed in blocks of 64, so that a
    block's complex output stays in cache at 257^2 and above; the rows are
    independent, so the blocks change no value."""
    m = a.shape[-1]
    ext = np.zeros(a.shape[:-1] + (m + 1,))
    ext[..., 1:] = a
    out = np.empty(a.shape)
    scale = -np.sqrt(2 / (m + 1))
    for s in range(0, len(a), 64):
        out[s:s + 64] = (np.fft.rfft(ext[s:s + 64], 2 * m + 2).imag[:, 1:-1]
                         * scale)
    return out


class _SineLaplacian(potential.FrozenSystem):
    """diff2_x + diff2_y as a Dirichlet stencil operator (margin 1).

    Its coef holds the five arrays of the 5-point stencil, which apply and
    anorm use; matrix() needs nine and is never built.  Its interior block
    is the Kronecker sum of the compact diff2 of each axis with zero end
    values, which the orthonormal DST-I of that axis diagonalizes (Buzbee,
    Golub & Nielson, SIAM J. Numer. Anal. 7, 1970), with the eigenvalues
    (2 cos(pi k / (n - 1)) - 2) / h^2, k = 1 .. n - 2, of a line of n nodes.
    So factor() is the transform solve itself: no LU, no cache.
    """

    def factor(self) -> "_SineLaplacian":
        return self

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The interior unknowns, row-major, like the solve of an LU."""
        g = self.grid
        ky, kx = np.ogrid[1:g.ny - 1, 1:g.nx - 1]
        eig = ((2.0 * np.cos(np.pi * ky / (g.ny - 1)) - 2.0) / (g.hy * g.hy)
               + (2.0 * np.cos(np.pi * kx / (g.nx - 1)) - 2.0) / (g.hx * g.hx))
        f = _dst(_dst(b.reshape(eig.shape)).T).T / eig
        return _dst(_dst(f).T).T.ravel()


def bernoulli_GH(U: VectorField, W: VectorField,
                 psi: ScalarField | None = None):
    """Bernoulli construction (G, H) = -omega U^perp - W with
    U^perp = (-U^2, U^1), i.e. G = omega U^2 - W^1, H = -omega U^1 - W^2.

    With this orientation d(H)/dxi1 - d(G)/dxi2 = -(div(omega U) + omega),
    so the integrability defect of (G, H) vanishes exactly when U satisfies
    the vorticity equation.  When psi is supplied the decomposition
    consistency U = grad psi + W is checked (sup-norm threshold 1e-8).
    """
    grid = U.grid
    if psi is not None:
        gpsi = fld.gradient(psi)
        gap = max(np.max(np.abs(U.u - gpsi.u - W.u)),
                  np.max(np.abs(U.v - gpsi.v - W.v)))
        if gap > 1e-8:
            raise SolverError(
                f"inconsistent decomposition: |U - grad psi - W| = {gap:.3e}")
    omega = fld.rot(U).values
    G = ScalarField(grid, omega * U.v - W.u)
    H = ScalarField(grid, -omega * U.u - W.v)
    return G, H


def _cumtrapz_from(values: np.ndarray, h: float, anchor: int) -> np.ndarray:
    """Signed trapezoid antiderivative along the last axis, zero at anchor."""
    mids = 0.5 * h * (values[..., 1:] + values[..., :-1])
    out = np.zeros_like(values)
    out[..., 1:] = np.cumsum(mids, axis=-1)
    return out - out[..., anchor:anchor + 1]


def reconstruct_F(G: ScalarField, H: ScalarField, C: float = 0.0,
                  anchor: tuple[int, int] = (0, 0)) -> ScalarField:
    """Two-leg line-integral reconstruction of F with grad F = (G, H).

    anchor = (i, j) node indices; first leg runs along the anchor row in xi1,
    second leg along each column in xi2.  Composite-trapezoid quadrature.
    """
    grid = G.grid
    i0, j0 = anchor
    if not (0 <= i0 < grid.nx and 0 <= j0 < grid.ny):
        raise SolverError(f"anchor {anchor} outside grid")
    leg1 = _cumtrapz_from(G.values[j0, :], grid.hx, i0)        # (nx,)
    leg2 = _cumtrapz_from(H.values.T, grid.hy, j0).T           # (ny, nx)
    return ScalarField(grid, leg1[None, :] + leg2 + C)


def integrability_residual(G: ScalarField, H: ScalarField) -> float:
    """Interior sup-norm of d(H)/dxi1 - d(G)/dxi2 (curl of the target field)."""
    grid = G.grid
    d = (fld.diff1(H.values, grid.hx, axis=1)
         - fld.diff1(G.values, grid.hy, axis=0))
    return float(np.max(np.abs(d[1:-1, 1:-1])))


def bernoulli_residual(law: GasLaw, rho: ScalarField, psi: ScalarField,
                       U: VectorField, F: ScalarField) -> ScalarField:
    """Nodewise h(rho) + psi + |U|^2/2 - F."""
    h = enthalpy(law, rho.values)
    return ScalarField(rho.grid,
                       h + psi.values + 0.5 * U.magnitude_sq() - F.values)


def bernoulli_fields(U: VectorField, W: VectorField, C: float = 0.0,
                     anchor: tuple[int, int] = (0, 0)) -> BernoulliFields:
    """Convenience bundle: (G, H), reconstructed F and the curl defect."""
    G, H = bernoulli_GH(U, W)
    F = reconstruct_F(G, H, C=C, anchor=anchor)
    return BernoulliFields(G=G, H=H, F=F, C=C,
                           integrability_residual=integrability_residual(G, H))
