"""Nonlinear degenerate elliptic potential-flow solver.

One definition, for every gamma, of the self-similar potential-flow operator
    Q[phi] = c^2 Lap phi - (D^2 phi) grad phi . grad phi - |grad phi|^2 + 2 c^2
(self_similar_operator, on any pseudo-velocity U; quasipotential's r1 is it
on U = grad psi + perp_grad zeta), its closure c^2 = -(gamma - 1)(phi +
|grad phi|^2/2), a^2 for the isothermal gamma = 1 (c2_of_phi), the
coefficients of its linearization (linearization) and its regularization
Q + eps Lap (residual_Q).  Damped Newton on Q_eps = rhs, with the Jacobian
as a 9-point stencil system with Dirichlet frame data (picard_solve), solves
Q = 0 (solve): Newton at eps = 0 from phi_b first, since Q is elliptic
wherever the flow is pseudo-subsonic, and geometric epsilon-continuation
(epsilon_continuation) only when that stage fails.  The psi equation of
quasipotential is the same Newton solve at eps = 0 with a forcing.  A stage
keeps a Jacobian's LU while the steps it gives are full and contract by
_CONTRACTION, and refactors otherwise; it may start from the factored
Jacobian of an earlier solve.  FrozenSystem solved by
solve_linear_dirichlet is the single Dirichlet operator path: the LU covers
the interior unknowns only.  The Poisson solve of hodge uses it too, with a
sine transform as its factor.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _kernels, field as fld, regime
from .errors import (CapExceeded, ConfigError, IndefiniteSystem,
                     LinearStagnation, NonConvergence, SolverError,
                     check_positive)
from .field import Grid2D, ScalarField, VectorField
from .gas import GasLaw


@dataclass
class PotentialProblem:
    """Dirichlet data on the frame plus interior Newton initialization.

    phi_b is a full-grid field: its frame trace is the boundary condition and
    its interior values embody the boundary-data extension used to start the
    iteration.
    """

    law: GasLaw
    grid: Grid2D
    phi_b: ScalarField
    c2_floor: float = 1e-8
    cap_M: float = 1e6

    def __post_init__(self):
        if not np.all(np.isfinite(self.phi_b.values)):
            raise ConfigError("phi_b must be finite")
        check_positive(c2_floor=self.c2_floor, cap_M=self.cap_M)


@dataclass
class PicardParams:
    """Parameters of the damped Newton stage solve (picard_solve)."""

    tol_fixed_point: float = 1e-10
    max_iters: int = 200
    lin_tol: float = 1e-11

    def __post_init__(self):
        check_positive(tol_fixed_point=self.tol_fixed_point,
                       max_iters=self.max_iters, lin_tol=self.lin_tol)


@dataclass
class EpsilonSchedule:
    eps0: float = 0.1
    ratio: float = 0.5
    eps_min: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.eps0) and self.eps0 > self.eps_min > 0):
            raise ConfigError("schedule requires a finite eps0 > eps_min > 0")
        if not (0.0 < self.ratio < 1.0):
            raise ConfigError("ratio must lie in (0, 1)")

    def stages(self) -> list[float]:
        out = []
        eps = self.eps0
        while eps > self.eps_min * (1.0 + 1e-5):  # relative, for any eps_min
            out.append(eps)
            eps *= self.ratio
        out.append(self.eps_min)
        return out


@dataclass
class PicardReport:
    """One damped Newton stage: iterations (= Jacobian factorizations),
    deltas (the sup norm of each accepted step; a stage reusing an LU takes
    more steps than factorizations), the final-iterate diagnostics (its
    residual, its closure c2 floored at c2_floor and the clamped count) and
    system, the factored Jacobian of the last step."""

    iterations: int = 0
    converged: bool = False
    deltas: list = dc_field(default_factory=list)
    final_residual: float = float("nan")
    c2: ScalarField | None = dc_field(repr=False, default=None)
    clamped: int = 0
    system: FrozenSystem | None = dc_field(repr=False, default=None)


@dataclass
class SolveReport:
    status: str = "Converged"
    path: str = "continuation"  # or "direct": Newton at eps = 0 from phi_b
    stages: list = dc_field(default_factory=list)
    final_eps: float = float("nan")
    final_residual: float = float("nan")
    c2_min: float = float("nan")
    c2_max: float = float("nan")
    max_L2: float = float("nan")
    max_L2_node: tuple = (0, 0)
    clamped: int = 0
    audit: str = ""
    audit_details: dict = dc_field(default_factory=dict)
    errors: list = dc_field(default_factory=list)
    # the final state's floored c^2 and its L^2 = |U|^2 / c^2, and the
    # factored Jacobian of the last Newton step
    c2: ScalarField | None = dc_field(repr=False, default=None)
    L2: ScalarField | None = dc_field(repr=False, default=None)
    system: FrozenSystem | None = dc_field(repr=False, default=None)

    def to_dict(self) -> dict:
        """Every field but c2, L2 and system, as JSON writes it (a tuple
        becomes an array)."""
        fields = dataclasses.asdict(dataclasses.replace(
            self, c2=None, L2=None, system=None))
        return {k: v for k, v in fields.items()
                if k not in ("c2", "L2", "system")}


def c2_of_phi(law: GasLaw, phi: ScalarField,
              grad_phi: VectorField | None = None,
              c2_floor: float = 1e-8):
    """Sound-speed closure c^2(phi) with floor clamping.

    gamma != 1: c^2 = -(gamma - 1)(phi + |grad phi|^2 / 2); gamma = 1: a^2.
    Pass c2_floor=-np.inf for the unclamped closure.
    Returns (c2 field, number of clamped nodes).
    """
    g = law.gamma
    if g == 1.0:
        return ScalarField(phi.grid,
                           np.full(phi.grid.shape, law.a ** 2)), 0
    if grad_phi is None:
        grad_phi = fld.gradient(phi)
    raw = -(g - 1.0) * (phi.values + 0.5 * grad_phi.magnitude_sq())
    clamped = int(np.count_nonzero(raw <= c2_floor))
    return ScalarField(phi.grid, np.maximum(raw, c2_floor)), clamped


def hessian_form(h: tuple, a: VectorField, b: VectorField) -> np.ndarray:
    """h a . b for the symmetric h = (h11, h12, h22), nodewise."""
    h11, h12, h22 = h
    return h11 * a.u * b.u + h12 * (a.u * b.v + a.v * b.u) + h22 * a.v * b.v


def self_similar_operator(c2: np.ndarray, U: VectorField,
                          DU: tuple) -> np.ndarray:
    """c^2 div U - (DU) U . U - |U|^2 + 2 c^2, nodewise, with DU = (h11, h12,
    h22) the symmetric part of the Jacobian of U, whose trace is div U; for
    U = grad phi, fld.hessian(phi), whose trace is the compact Lap phi."""
    return (c2 * (DU[0] + DU[2]) - hessian_form(DU, U, U)
            - U.magnitude_sq() + 2.0 * c2)


def residual_Q(law: GasLaw, phi: ScalarField, eps: float = 0.0,
               rhs: ScalarField | None = None,
               c2_floor: float = 1e-8) -> ScalarField:
    """Interior residual of Q_eps(phi) = Q[phi] + eps Lap phi (minus an
    optional forcing field), with c^2 = c2_of_phi(phi).

    The frame ring of the returned field is zero.
    """
    grid = phi.grid
    gp = fld.gradient(phi)
    c2, _ = c2_of_phi(law, phi, gp, c2_floor=c2_floor)
    hess = tuple(f.values for f in fld.hessian(phi))
    r = self_similar_operator(c2.values, gp, hess) + eps * (hess[0] + hess[2])
    if rhs is not None:
        r = r - rhs.values
    out = np.zeros(grid.shape)
    out[1:-1, 1:-1] = r[1:-1, 1:-1]
    return ScalarField(grid, out)


def linearization(law: GasLaw, psi0: ScalarField) -> tuple:
    """Coefficients (a11, a12, a22, b1, b2, c) of the Gateaux derivative of
    Q (unclamped closure c0^2) at psi0, L[v] = a11 v11 + a12 v12 + a22 v22
    + b1 v1 + b2 v2 + c v:  a11 = c0^2 - psi1^2, a12 = -2 psi1 psi2, a22 =
    c0^2 - psi2^2, (b1, b2) = -2 (D^2 psi0) grad psi0 - (k + 2) grad psi0,
    c = -k, with k = (gamma - 1)(2 + Lap psi0) the closure's share.
    """
    gp = fld.gradient(psi0)
    return _principal_part(law, psi0, gp) + _lower_order(law, psi0, gp)


def _principal_part(law: GasLaw, psi0: ScalarField, gp: VectorField) -> tuple:
    """(a11, a12, a22) of linearization(law, psi0); gp = grad psi0."""
    c0 = c2_of_phi(law, psi0, gp, c2_floor=-np.inf)[0].values
    return c0 - gp.u ** 2, -2.0 * gp.u * gp.v, c0 - gp.v ** 2


def _lower_order(law: GasLaw, psi0: ScalarField, gp: VectorField) -> tuple:
    """(b1, b2, c) of linearization(law, psi0); gp = grad psi0."""
    p11, p12, p22 = fld.hessian(psi0)
    k = (law.gamma - 1.0) * (2.0 + (p11.values + p22.values))
    b1 = (-2.0 * (p11.values * gp.u + p12.values * gp.v)
          - (k + 2.0) * gp.u)
    b2 = (-2.0 * (p12.values * gp.u + p22.values * gp.v)
          - (k + 2.0) * gp.v)
    return b1, b2, -k


def stencil_coefficients(grid: Grid2D, a11, cross, a22, b1, b2, c0) -> tuple:
    """9-point stencil of a11 f11 + cross f12 + a22 f22 + b1 f1 + b2 f2 + c0 f.

    Centered second and first differences, the 4-point cross difference.
    Returns the arrays (cc, ce, cw, cn, cs, cne, cnw, cse, csw).
    """
    hx2, hy2 = grid.hx ** 2, grid.hy ** 2
    cd = cross / (4.0 * grid.hx * grid.hy)
    return (-2.0 * a11 / hx2 - 2.0 * a22 / hy2 + c0,
            a11 / hx2 + b1 / (2.0 * grid.hx),
            a11 / hx2 - b1 / (2.0 * grid.hx),
            a22 / hy2 + b2 / (2.0 * grid.hy),
            a22 / hy2 - b2 / (2.0 * grid.hy),
            cd, -cd, -cd, cd)


# (row, column) offset of each coefficient array of a stencil
_OFFSETS = ((0, 0), (0, 1), (0, -1), (1, 0), (-1, 0),
            (1, 1), (1, -1), (-1, 1), (-1, -1))


@functools.lru_cache(maxsize=8)
def _interior_pattern(shape: tuple) -> tuple:
    """CSC pattern (take, indices, indptr) of the interior stencil block.

    The matrix data are the interior values of the nine coefficient arrays,
    concatenated, indexed by take.
    """
    ny, nx = shape
    mx, my = nx - 2, ny - 2
    J, I = np.mgrid[0:my, 0:mx]
    rows, cols, src = [], [], []
    for k, (dj, di) in enumerate(_OFFSETS):
        jj, ii = J + dj, I + di
        inner = (jj >= 0) & (jj < my) & (ii >= 0) & (ii < mx)
        rows.append((J * mx + I)[inner])
        cols.append((jj * mx + ii)[inner])
        src.append(k * mx * my + np.flatnonzero(inner))
    src = np.concatenate(src)
    # a CSC matrix of positions 1..nnz gives each entry's place in CSC order
    order = sp.csc_matrix(
        (np.arange(1, src.size + 1),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(mx * my, mx * my))
    pattern = (src[order.data - 1], order.indices, order.indptr)
    for a in pattern:  # shared by every matrix built on this grid
        a.flags.writeable = False
    return pattern


@dataclass
class FrozenSystem:
    """9-point stencil operator with Dirichlet (identity) frame rows.

    lambda_min is the operator's ellipticity margin over the interior;
    solve_linear_dirichlet refuses to solve when it is not positive.
    """

    grid: Grid2D
    coef: tuple = dc_field(repr=False)
    lambda_min: float
    _matrix: sp.csc_matrix | None = dc_field(repr=False, default=None)
    _factor: object | None = dc_field(repr=False, default=None)
    _anorm: float | None = dc_field(repr=False, default=None)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Operator application; frame nodes pass values through (Dirichlet rows)."""
        return _kernels.apply_stencil(self.coef, values)

    def matrix(self) -> sp.csc_matrix:
        """CSC matrix of the (nx - 2)(ny - 2) interior unknowns, row-major.

        Entries that couple to a frame node are left out: the frame values
        are known, and solve_linear_dirichlet moves them to the right-hand
        side.
        """
        if self._matrix is None:
            take, indices, indptr = _interior_pattern(self.grid.shape)
            data = np.concatenate([cf[1:-1, 1:-1].ravel() for cf in self.coef])
            self._matrix = sp.csc_matrix((data[take], indices, indptr),
                                         shape=(indptr.size - 1,) * 2)
        return self._matrix

    def factor(self):
        if self._factor is None:
            self._factor = spla.splu(self.matrix(),
                                     permc_spec="MMD_AT_PLUS_A")
        return self._factor

    def anorm(self) -> float:
        """Max row sum of |A| over the full stencil (at least 1, the frame
        rows), the backward-error scale of solve_linear_dirichlet."""
        if self._anorm is None:
            self._anorm = max(
                float(np.max(sum(np.abs(c) for c in self.coef))), 1.0)
        return self._anorm


def _check_cap(w: ScalarField, cap_M: float) -> None:
    """Raise CapExceeded unless w is finite with |w|_inf <= cap_M."""
    if not np.all(np.isfinite(w.values)):
        raise CapExceeded("iterate contains non-finite values")
    wmax = float(np.max(np.abs(w.values)))
    if wmax > cap_M:
        raise CapExceeded(f"|w|_inf = {wmax:.3e} exceeds cap_M = {cap_M:.3e}")


def _checked_principal_part(law: GasLaw, w: ScalarField, eps: float,
                            cap_M: float) -> tuple:
    """The checks of every Newton iterate: CapExceeded, then grad w, the
    principal part (a11 + eps, a12, a22 + eps) of the Jacobian at w and its
    ellipticity margin (the smaller eigenvalue's minimum over the interior)."""
    _check_cap(w, cap_M)
    gp = fld.gradient(w)
    a11, a12, a22 = _principal_part(law, w, gp)
    a11, a22 = a11 + eps, a22 + eps
    margin = 0.5 * (a11 + a22 - np.hypot(a11 - a22, a12))
    return gp, (a11, a12, a22), float(np.min(margin[1:-1, 1:-1]))


def assemble_frozen(law: GasLaw, w: ScalarField, eps: float,
                    cap_M: float = 1e6) -> FrozenSystem:
    """Jacobian of Q_eps at w for damped Newton, as a 9-point stencil system.

    The coefficients of linearization(law, w) with eps added to a11 and a22;
    the ellipticity margin is the smaller eigenvalue of the principal part,
    min(c0^2(w) - |grad w|^2 + eps) over the interior.
    """
    gp, principal, lambda_min = _checked_principal_part(law, w, eps, cap_M)
    return FrozenSystem(
        grid=w.grid,
        coef=stencil_coefficients(w.grid, *principal,
                                  *_lower_order(law, w, gp)),
        lambda_min=lambda_min,
    )


def _check_margin(lambda_min: float) -> None:
    """Raise IndefiniteSystem unless the ellipticity margin is positive."""
    if lambda_min <= 0:
        raise IndefiniteSystem(f"ellipticity margin {lambda_min:.3e} <= 0")


def norm2(v: np.ndarray) -> float:
    """Euclidean norm of all entries, without the BLAS dot of
    np.linalg.norm, whose threads can stall for milliseconds per call."""
    return math.sqrt(float(np.sum(v * v)))


def refine(x: np.ndarray, residual, correct, scale, lin_tol: float) -> float:
    """Iterative refinement of the unknowns x: r = residual(), then up to
    three rounds of correct(r), which updates x in place, each measured by a
    new r = residual().  Stops once |r| / scale() <= 0.01 lin_tol or is not
    finite, once a correction does not reduce |r| (it is undone), or once
    |r| / scale() <= lin_tol after a correction that did not halve |r| (it
    is kept): past that point a correction meets the residual floor of the
    solve and buys little.  Returns |r| / scale() of x as it is left."""
    r = residual()
    r_norm = norm2(r)
    rel = r_norm / scale()
    for _ in range(3):
        if not np.isfinite(rel) or rel <= 0.01 * lin_tol:
            break
        kept = x.copy()
        correct(r)
        r = residual()
        r_norm, last = norm2(r), r_norm
        if not r_norm < last:
            x[...] = kept
            return last / scale()
        rel = r_norm / scale()
        if rel <= lin_tol and r_norm > 0.5 * last:
            break
    return rel


def solve_linear_dirichlet(system: FrozenSystem, rhs: ScalarField | None,
                           phi_b: ScalarField,
                           lin_tol: float = 1e-11) -> ScalarField:
    """Solve L_eps phi = rhs (interior) with phi = phi_b on the frame.

    Direct solve of the interior block by system.factor() (the sparse LU of
    FrozenSystem.matrix, or a subclass's own), with the frame data on the
    right-hand side, then iterative refinement against the full stencil
    (apply); deterministic for fixed inputs.  Raises
    IndefiniteSystem when nodewise ellipticity fails and LinearStagnation
    when the relative residual exceeds lin_tol.
    """
    _check_margin(system.lambda_min)
    grid = system.grid
    inner = (slice(1, -1), slice(1, -1))
    x = np.zeros(grid.shape)
    x[[0, -1], :] = phi_b.values[[0, -1], :]
    x[:, [0, -1]] = phi_b.values[:, [0, -1]]
    b = x.copy()
    if rhs is not None:
        b[inner] = rhs.values[inner]
    lu = system.factor()

    def correct(resid):  # interior solve; resid is zero on the frame
        x[inner] -= lu.solve(resid[inner].ravel()).reshape(x[inner].shape)

    correct(system.apply(x) - b)
    # backward-error scale: |r| / (|A| |x| + |b|) with |A| the max row sum
    anorm = system.anorm()
    b_norm = norm2(b)
    rel = refine(x, lambda: system.apply(x) - b, correct,
                 lambda: max(anorm * norm2(x) + b_norm, 1.0), lin_tol)
    if not np.all(np.isfinite(x)) or rel > lin_tol:
        raise LinearStagnation(f"linear relative residual {rel:.3e} > {lin_tol:.3e}")
    return ScalarField(grid, x)


# step halvings a damped Newton step may take before the stage fails
_MAX_HALVINGS = 10
# a reused-LU step keeps that LU for the next step only if it contracted:
# |v_k|_inf <= _CONTRACTION |v_{k-1}|_inf
_CONTRACTION = 0.25
# failures of a Newton stage: solve falls back to the continuation, and the
# continuation stops at the last converged stage
_STAGE_ERRORS = (NonConvergence, IndefiniteSystem, LinearStagnation,
                 CapExceeded)


def picard_solve(problem: PotentialProblem, eps: float,
                 params: PicardParams | None = None,
                 w0: ScalarField | None = None,
                 rhs: ScalarField | None = None,
                 system: FrozenSystem | None = None
                 ) -> tuple[ScalarField, PicardReport]:
    """Damped Newton solve of Q_eps[phi] = rhs with phi = phi_b on the frame,
    keeping each Jacobian's LU while the steps it gives contract.

    Each step solves J v = -R(w) with R = residual_Q(eps, rhs) under the
    unclamped closure and v = 0 on the frame.  J = assemble_frozen(w') is
    the Jacobian factored at the current or an earlier iterate w'.  A stage
    starts with a fresh LU, or with system, a factored Jacobian of an
    earlier solve (PicardReport.system) taken as a reused LU.  The LU is
    refactored at the current iterate unless the last step was a full step
    (lam = 1) that had a fresh LU, was the first step on system, or
    contracted, |v_k|_inf <= _CONTRACTION |v_{k-1}|_inf.  A step tries
    w + lam v from lam = 1 and takes the first trial that reduces |R|_inf or
    has |lam v|_inf <= tol_fixed_point.  A fresh LU halves lam at most
    _MAX_HALVINGS times before NonConvergence; a reused LU gets the one
    trial lam = 1, and if that is not taken the step is discarded and
    redone with a fresh LU at w.  So NonConvergence after the halvings
    always comes from a fresh Jacobian.  Every iterate passes the checks of
    assemble_frozen, CapExceeded and then an ellipticity margin > 0
    (IndefiniteSystem), whether or not it is factored; the full Jacobian is
    assembled only to be factored.

    The stage has converged on a step |lam v|_inf <= tol_fixed_point;
    report.iterations counts the Jacobian factorizations and report.deltas
    holds the accepted steps, at most max_iters of them.  The final iterate
    must be finite with |phi|_inf <= cap_M (else CapExceeded) and have no
    node clamped at c2_floor.  Every SolverError raised carries the report
    as its report attribute.
    """
    report = PicardReport(system=system)
    try:
        return _newton_stage(problem, eps, params or PicardParams(), w0,
                             rhs, report), report
    except SolverError as exc:
        exc.report = report
        raise


def _newton_stage(problem: PotentialProblem, eps: float,
                  params: PicardParams, w0: ScalarField | None,
                  rhs: ScalarField | None,
                  report: PicardReport) -> ScalarField:
    """The stage of picard_solve, filling report; starts on report.system
    when it is set."""
    grid = problem.grid
    law = problem.law
    zero = ScalarField.zeros(grid)

    def residual(values):
        return residual_Q(law, ScalarField(grid, values), eps=eps, rhs=rhs,
                          c2_floor=-np.inf).values

    w = (w0.values if w0 is not None else problem.phi_b.values).copy()
    w[[0, -1], :] = problem.phi_b.values[[0, -1], :]
    w[:, [0, -1]] = problem.phi_b.values[:, [0, -1]]
    r = residual(w)
    r_norm = float(np.max(np.abs(r)))
    system = report.system
    reuse = system is not None
    while len(report.deltas) < params.max_iters:
        if reuse:
            _check_margin(_checked_principal_part(
                law, ScalarField(grid, w), eps, problem.cap_M)[2])
        else:
            system = assemble_frozen(law, ScalarField(grid, w), eps,
                                     cap_M=problem.cap_M)
            # counted once it passes the check, as it is then factored
            _check_margin(system.lambda_min)
            report.iterations += 1
        v = solve_linear_dirichlet(system, ScalarField(grid, -r), zero,
                                   lin_tol=params.lin_tol).values
        lam = 1.0
        for _ in range(1 if reuse else _MAX_HALVINGS + 1):
            step = float(np.max(np.abs(lam * v)))
            trial = w + lam * v
            if step <= params.tol_fixed_point:
                break
            r_trial = residual(trial)
            r_trial_norm = float(np.max(np.abs(r_trial)))
            if r_trial_norm < r_norm:
                r, r_norm = r_trial, r_trial_norm
                break
            lam *= 0.5
        else:
            if not reuse:
                raise NonConvergence(
                    f"damped Newton step does not reduce |Q_eps|_inf = "
                    f"{r_norm:.3e} after {_MAX_HALVINGS} halvings",
                    best=ScalarField(grid, w))
            reuse = False  # discard the step and refactor at w
            continue
        reuse = lam == 1.0 and (
            not reuse or not report.deltas
            or step <= _CONTRACTION * report.deltas[-1])
        w = trial
        report.deltas.append(step)
        report.system = system
        if step <= params.tol_fixed_point:
            report.converged = True
            break
    phi = ScalarField(grid, w)
    _check_cap(phi, problem.cap_M)
    report.c2, report.clamped = c2_of_phi(law, phi,
                                          c2_floor=problem.c2_floor)
    report.final_residual = float(np.max(np.abs(
        residual_Q(law, phi, eps=eps, rhs=rhs,
                   c2_floor=problem.c2_floor).interior())))
    if not report.converged:
        raise NonConvergence(
            f"no converged Newton step after {params.max_iters} steps "
            f"(last step {report.deltas[-1]:.3e})", best=phi)
    if report.clamped > 0:
        raise NonConvergence(
            f"{report.clamped} nodes clamped at c2_floor in the final iterate",
            best=phi)
    return phi


def solve(problem: PotentialProblem,
          schedule: EpsilonSchedule | None = None,
          params: PicardParams | None = None
          ) -> tuple[ScalarField, SolveReport]:
    """Solve Q[phi] = 0 with phi = phi_b on the frame.

    Damped Newton at eps = 0 from phi_b comes first: where the flow stays
    pseudo-subsonic Q is elliptic and needs no eps Lap regularization
    (report.path "direct", one stage).  If that stage fails (any of
    _STAGE_ERRORS), epsilon_continuation under schedule runs from phi_b
    (report.path "continuation"); schedule acts only there.  When the
    continuation fails too, NonConvergence names both failures.
    """
    try:
        phi, prep = picard_solve(problem, 0.0, params)
    except _STAGE_ERRORS as direct:
        try:
            return epsilon_continuation(problem, schedule, params)
        except NonConvergence as exc:
            cost = ("" if direct.report is None else
                    f" ({direct.report.iterations} factorizations)")
            raise NonConvergence(
                f"direct eps=0 solve failed{cost}: {direct}; {exc}",
                best=exc.best, report=exc.report) from exc
    report = SolveReport(path="direct")
    _add_stage(report, 0.0, prep)
    _finalize_report(report, fld.gradient(phi), prep.c2, prep.clamped,
                     prep.final_residual)
    return phi, report


def epsilon_continuation(problem: PotentialProblem,
                         schedule: EpsilonSchedule | None = None,
                         params: PicardParams | None = None
                         ) -> tuple[ScalarField, SolveReport]:
    """Geometric continuation eps0 -> eps_min, then a final eps = 0 stage.

    Each stage warm-starts from the previous solution.  On a failed stage
    (the eps = 0 stage included) the last successful solution is returned
    with status PartialContinuation and the error recorded; a failed first
    stage raises NonConvergence.
    """
    schedule = schedule or EpsilonSchedule()
    params = params or PicardParams()
    report = SolveReport()
    phi = last = None
    w0 = problem.phi_b
    for eps in schedule.stages() + [0.0]:
        try:
            phi_e, prep = picard_solve(problem, eps, params, w0=w0)
        except _STAGE_ERRORS as exc:
            report.errors.append(f"eps={eps:g}: {exc}")
            if phi is None:
                raise NonConvergence(
                    f"first continuation stage failed: {exc}",
                    best=getattr(exc, "best", None), report=report) from exc
            report.status = "PartialContinuation"
            break
        phi = w0 = phi_e
        last = prep
        _add_stage(report, eps, prep)
    _finalize_report(report, fld.gradient(phi), last.c2, last.clamped,
                     last.final_residual)
    return phi, report


def _add_stage(report: SolveReport, eps: float, prep: PicardReport) -> None:
    """Record a converged stage; its system is the solve's last system."""
    report.stages.append({"eps": eps, "iterations": prep.iterations,
                          "steps": len(prep.deltas),
                          "delta": prep.deltas[-1],
                          "residual": prep.final_residual})
    report.final_eps = eps
    report.system = prep.system


def _finalize_report(report: SolveReport, U: VectorField, c2: ScalarField,
                     clamped: int, residual: float) -> None:
    """Fill the final-state fields of report from the solve's pseudo-velocity
    U, its floored c^2 with the clamped count, and its residual."""
    rr = regime.classify(U, c2)
    report.c2, report.L2 = c2, rr.L2
    report.final_residual = residual
    report.c2_min = float(np.min(c2.values))
    report.c2_max = float(np.max(c2.values))
    report.clamped = clamped
    report.max_L2 = rr.max_L2
    report.max_L2_node = rr.max_L2_node
    report.audit = rr.audit.value
    report.audit_details = rr.audit_details
