"""Hodge-Helmholtz decomposition and the Bernoulli-type (G, H, F) construction.

The potential part psi solves a discrete Neumann problem built from the same
centered/one-sided difference operators as the field calculus, so that
W = U - grad(psi) is discretely divergence-free at interior nodes up to the
linear-solver residual (not just to truncation order).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import field as fld, potential
from .errors import (DomainError, NonSolenoidalInput, SolverError,
                     check_positive)
from .field import Grid2D, ScalarField, VectorField
from .gas import GasLaw, enthalpy


def _diff1_matrix(n: int, h: float) -> sp.csr_matrix:
    """1-D first-derivative operator matching field.diff1."""
    one_sided = sp.csr_matrix(([-3.0, 4.0, -1.0, 1.0, -4.0, 3.0],
                               ([0, 0, 0, 1, 1, 1],
                                [0, 1, 2, n - 3, n - 2, n - 1])),
                              shape=(2, n))
    centered = sp.diags([-1.0, 1.0], [0, 2], shape=(n - 2, n))
    D = sp.vstack([one_sided[0], centered, one_sided[1]])
    return (D / (2.0 * h)).tocsr()


def gradient_operators(grid: Grid2D):
    """Sparse (Gx, Gy) acting on row-major flattened fields."""
    Dx = _diff1_matrix(grid.nx, grid.hx)
    Dy = _diff1_matrix(grid.ny, grid.hy)
    Gx = sp.kron(sp.identity(grid.ny, format="csr"), Dx, format="csr")
    Gy = sp.kron(Dy, sp.identity(grid.nx, format="csr"), format="csr")
    return Gx, Gy


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
    pinned by the row psi[0] = 0, which keeps the system sparse where a mean
    row would couple every unknown, and psi is shifted to zero mean after
    the solve.  The frame rows, O(1/h), are scaled by 1/min(hx, hy) to the
    O(1/h^2) size of the interior rows, so that partial pivoting keeps the
    diagonal and the LU keeps the minimum-degree ordering of
    FrozenSystem.factor; refinement measures the unscaled residual.
    Before the solve: ConfigError for a bad lin_tol, DomainError for a bad U.
    """
    grid = U.grid
    check_positive(lin_tol=lin_tol)
    if not (np.all(np.isfinite(U.u)) and np.all(np.isfinite(U.v))):
        raise DomainError("decompose requires finite input fields")
    ny, nx = grid.shape
    N = nx * ny
    Gx, Gy = gradient_operators(grid)
    L = (Gx @ Gx + Gy @ Gy).tocsr()
    interior = np.zeros((ny, nx), bool)
    interior[1:-1, 1:-1] = True
    int_flat = interior.ravel()
    nux, nuy = _boundary_normals(grid)
    D_int = sp.diags(int_flat.astype(float))
    A = (D_int @ L
         + sp.diags(nux.ravel()) @ Gx
         + sp.diags(nuy.ravel()) @ Gy).tocsr()
    rhs = np.where(
        int_flat,
        (Gx @ U.u.ravel() + Gy @ U.v.ravel()),
        nux.ravel() * U.u.ravel() + nuy.ravel() * U.v.ravel(),
    )
    w_b = (~int_flat).astype(float)
    w_b /= w_b.sum()
    pin = sp.csr_matrix(([1.0], ([0], [0])), shape=(1, N))
    M = sp.bmat([[A, w_b[:, None]], [pin, None]], format="csc")
    rhs_aug = np.concatenate([rhs, [0.0]])
    row_scale = np.concatenate(
        [np.where(int_flat, 1.0, 1.0 / min(grid.hx, grid.hy)), [1.0]])
    lu = spla.splu((sp.diags(row_scale) @ M).tocsc(),
                   permc_spec="MMD_AT_PLUS_A")
    x = lu.solve(row_scale * rhs_aug)

    def correct(res):
        x[:] -= lu.solve(row_scale * res)

    scale = max(potential.norm2(rhs), 1.0)
    rel = potential.refine(lambda: M @ x - rhs_aug, correct, lambda: scale,
                           lin_tol)
    psi_vec = x[:N] - np.mean(x[:N])
    if not np.all(np.isfinite(psi_vec)) or rel > 1e3 * lin_tol:
        raise SolverError("Neumann solve for the potential part stagnated")
    psi = ScalarField(grid, psi_vec)
    gpsi = fld.gradient(psi)
    W = VectorField(grid, U.u - gpsi.u, U.v - gpsi.v)
    divW = fld.divergence(W)
    div_norm = float(np.max(np.abs(divW.interior())))
    return Decomposition(psi=psi, W=W, div_W_norm=div_norm)


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
    return potential.solve_linear_dirichlet(
        _laplacian(grid), ScalarField(grid, rhs),
        ScalarField(grid, boundary)).values


@functools.lru_cache(maxsize=1)
def _laplacian(grid: Grid2D) -> potential.FrozenSystem:
    """diff2_x + diff2_y as a Dirichlet stencil operator (margin 1).

    Cached per grid, so its LU is factored once for every Poisson solve on
    that grid.
    """
    one, zero = np.ones(grid.shape), np.zeros(grid.shape)
    return potential.FrozenSystem(
        grid,
        potential.stencil_coefficients(grid, one, zero, one, zero, zero, 0.0),
        lambda_min=1.0)


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
