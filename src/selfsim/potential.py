"""Nonlinear degenerate elliptic potential-flow solver.

One definition, for every gamma, of the self-similar potential-flow operator
    Q[phi] = c^2 Lap phi - (D^2 phi) grad phi . grad phi - |grad phi|^2 + 2 c^2
(self_similar_operator), its closure c^2 = -(gamma - 1)(phi + |grad phi|^2/2),
a^2 for the isothermal gamma = 1 (c2_of_phi), the coefficients of its
linearization (linearization) and its regularization Q + eps Lap
(residual_Q).  Damped Newton on Q_eps = rhs, with the Jacobian as a 9-point
stencil system with Dirichlet frame data, and geometric epsilon-continuation
solve Q = 0; the psi equation of quasipotential is the same Newton solve at
eps = 0 with a forcing.  FrozenSystem solved by solve_linear_dirichlet is the
single Dirichlet operator path: the Poisson solve of hodge uses it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _kernels, field as fld, regime
from .errors import (CapExceeded, ConfigError, IndefiniteSystem,
                     LinearStagnation, NonConvergence)
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
        if self.c2_floor <= 0 or self.cap_M <= 0:
            raise ConfigError("c2_floor and cap_M must be positive")


@dataclass
class PicardParams:
    """Parameters of the damped Newton stage solve (picard_solve)."""

    tol_fixed_point: float = 1e-10
    max_iters: int = 200
    lin_tol: float = 1e-11

    def __post_init__(self):
        if min(self.tol_fixed_point, self.lin_tol) <= 0 or self.max_iters <= 0:
            raise ConfigError("tolerances and max_iters must be positive")


@dataclass
class EpsilonSchedule:
    eps0: float = 0.1
    ratio: float = 0.5
    eps_min: float = 1e-6

    def __post_init__(self):
        if not (self.eps0 > self.eps_min > 0):
            raise ConfigError("schedule requires eps0 > eps_min > 0")
        if not (0.0 < self.ratio < 1.0):
            raise ConfigError("ratio must lie in (0, 1)")

    def stages(self) -> list[float]:
        out = []
        eps = self.eps0
        while eps > self.eps_min and not np.isclose(eps, self.eps_min):
            out.append(eps)
            eps *= self.ratio
        out.append(self.eps_min)
        return out


@dataclass
class PicardReport:
    """One damped Newton stage: iterations (= Jacobian factorizations), the
    sup norm of each accepted step and the final-iterate diagnostics."""

    iterations: int = 0
    converged: bool = False
    deltas: list = dc_field(default_factory=list)
    final_residual: float = float("nan")
    c2_min: float = float("nan")
    c2_max: float = float("nan")
    clamped: int = 0


@dataclass
class SolveReport:
    status: str = "Converged"
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

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "stages": self.stages,
            "final_eps": self.final_eps,
            "final_residual": self.final_residual,
            "c2_min": self.c2_min,
            "c2_max": self.c2_max,
            "max_L2": self.max_L2,
            "max_L2_node": list(self.max_L2_node),
            "clamped": self.clamped,
            "audit": self.audit,
            "audit_details": {k: (list(v) if isinstance(v, tuple) else v)
                              for k, v in self.audit_details.items()},
            "errors": self.errors,
        }


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


def self_similar_operator(c2: np.ndarray, grad_phi: VectorField,
                          hess_phi: tuple) -> np.ndarray:
    """c^2 Lap phi - (D^2 phi) grad phi . grad phi - |grad phi|^2 + 2 c^2.

    Nodewise, for the given c^2 values, fld.gradient(phi) and
    fld.hessian(phi); Lap is the compact diff2_x + diff2_y.
    """
    u, v = grad_phi.u, grad_phi.v
    f11, f12, f22 = (f.values for f in hess_phi)
    return (c2 * (f11 + f22)
            - (f11 * u * u + f12 * (u * v + v * u) + f22 * v * v)
            - grad_phi.magnitude_sq() + 2.0 * c2)


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
    hess = fld.hessian(phi)
    r = (self_similar_operator(c2.values, gp, hess)
         + eps * (hess[0].values + hess[2].values))
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
    p11, p12, p22 = fld.hessian(psi0)
    c0 = c2_of_phi(law, psi0, gp, c2_floor=-np.inf)[0].values
    k = (law.gamma - 1.0) * (2.0 + (p11.values + p22.values))
    b1 = (-2.0 * (p11.values * gp.u + p12.values * gp.v)
          - (k + 2.0) * gp.u)
    b2 = (-2.0 * (p12.values * gp.u + p22.values * gp.v)
          - (k + 2.0) * gp.v)
    return (c0 - gp.u ** 2, -2.0 * gp.u * gp.v, c0 - gp.v ** 2, b1, b2, -k)


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

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Operator application; frame nodes pass values through (Dirichlet rows)."""
        return _kernels.apply_stencil(self.coef, values)

    def matrix(self) -> sp.csc_matrix:
        """CSC matrix; a coefficient array zero on the whole interior stores
        no entries, so a 5-point operator keeps its 5-point pattern."""
        if self._matrix is None:
            ny, nx = self.grid.shape
            idx = np.arange(nx * ny).reshape(ny, nx)
            inner = idx[1:-1, 1:-1].ravel()
            on_frame = np.ones((ny, nx), bool)
            on_frame[1:-1, 1:-1] = False
            frame = idx[on_frame]
            rows, cols, data = [frame], [frame], [np.ones(frame.size)]
            for cf, (dj, di) in zip(self.coef, _OFFSETS):
                vals = cf[1:-1, 1:-1].ravel()
                if vals.any():
                    rows.append(inner)
                    cols.append(inner + dj * nx + di)
                    data.append(vals)
            self._matrix = sp.csc_matrix(
                (np.concatenate(data),
                 (np.concatenate(rows), np.concatenate(cols))),
                shape=(nx * ny, nx * ny))
        return self._matrix

    def factor(self):
        if self._factor is None:
            self._factor = spla.splu(self.matrix())
        return self._factor


def _check_cap(w: ScalarField, cap_M: float) -> None:
    """Raise CapExceeded unless w is finite with |w|_inf <= cap_M."""
    if not np.all(np.isfinite(w.values)):
        raise CapExceeded("iterate contains non-finite values")
    wmax = float(np.max(np.abs(w.values)))
    if wmax > cap_M:
        raise CapExceeded(f"|w|_inf = {wmax:.3e} exceeds cap_M = {cap_M:.3e}")


def assemble_frozen(law: GasLaw, w: ScalarField, eps: float,
                    cap_M: float = 1e6) -> FrozenSystem:
    """Jacobian of Q_eps at w for damped Newton, as a 9-point stencil system.

    The coefficients of linearization(law, w) with eps added to a11 and a22;
    the ellipticity margin is the smaller eigenvalue of the principal part,
    min(c0^2(w) - |grad w|^2 + eps) over the interior.
    """
    _check_cap(w, cap_M)
    a11, a12, a22, b1, b2, c = linearization(law, w)
    a11, a22 = a11 + eps, a22 + eps
    margin = 0.5 * (a11 + a22 - np.hypot(a11 - a22, a12))
    return FrozenSystem(
        grid=w.grid,
        coef=stencil_coefficients(w.grid, a11, a12, a22, b1, b2, c),
        lambda_min=float(np.min(margin[1:-1, 1:-1])),
    )


def solve_linear_dirichlet(system: FrozenSystem, rhs: ScalarField | None,
                           phi_b: ScalarField,
                           lin_tol: float = 1e-11) -> ScalarField:
    """Solve L_eps phi = rhs (interior) with phi = phi_b on the frame.

    Direct sparse LU; deterministic for fixed inputs.  Raises
    IndefiniteSystem when nodewise ellipticity fails and LinearStagnation
    when the relative residual exceeds lin_tol.
    """
    if system.lambda_min <= 0:
        raise IndefiniteSystem(
            f"ellipticity margin {system.lambda_min:.3e} <= 0")
    grid = system.grid
    b = np.zeros(grid.shape)
    if rhs is not None:
        b[1:-1, 1:-1] = rhs.values[1:-1, 1:-1]
    b[0, :] = phi_b.values[0, :]
    b[-1, :] = phi_b.values[-1, :]
    b[:, 0] = phi_b.values[:, 0]
    b[:, -1] = phi_b.values[:, -1]
    bv = b.ravel()
    lu = system.factor()
    x = lu.solve(bv)
    # backward-error scale: |r| / (|A| |x| + |b|) with |A| the max row sum
    anorm = max(float(np.max(sum(np.abs(c) for c in system.coef))), 1.0)
    rel = np.inf
    for _ in range(3):  # iterative refinement against the stencil operator
        resid = system.apply(x.reshape(grid.shape)).ravel() - bv
        scale = anorm * float(np.linalg.norm(x)) + float(np.linalg.norm(bv))
        rel = float(np.linalg.norm(resid)) / max(scale, 1.0)
        if not np.isfinite(rel) or rel <= 0.01 * lin_tol:
            break
        x = x - lu.solve(resid)
    if not np.all(np.isfinite(x)) or rel > lin_tol:
        raise LinearStagnation(f"linear relative residual {rel:.3e} > {lin_tol:.3e}")
    return ScalarField(grid, x)


# step halvings a damped Newton step may take before the stage fails
_MAX_HALVINGS = 10


def picard_solve(problem: PotentialProblem, eps: float,
                 params: PicardParams | None = None,
                 w0: ScalarField | None = None,
                 rhs: ScalarField | None = None
                 ) -> tuple[ScalarField, PicardReport]:
    """Damped Newton solve of Q_eps[phi] = rhs with phi = phi_b on the frame.

    Each iteration solves J v = -R(w) with J = assemble_frozen(w), R =
    residual_Q(eps, rhs) with the unclamped closure and v = 0 on the frame,
    then takes w + lam v with lam halved (at most _MAX_HALVINGS times) until
    |R|_inf decreases or |lam v|_inf <= tol_fixed_point.  The stage has
    converged on a step |lam v|_inf <= tol_fixed_point; report.iterations
    counts the Jacobian factorizations.  The final iterate must be finite
    with |phi|_inf <= cap_M (else CapExceeded) and have no node clamped at
    c2_floor.
    """
    params = params or PicardParams()
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
    report = PicardReport()
    while report.iterations < params.max_iters:
        report.iterations += 1
        system = assemble_frozen(law, ScalarField(grid, w), eps,
                                 cap_M=problem.cap_M)
        v = solve_linear_dirichlet(system, ScalarField(grid, -r), zero,
                                   lin_tol=params.lin_tol).values
        lam = 1.0
        for _ in range(_MAX_HALVINGS + 1):
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
            raise NonConvergence(
                f"damped Newton step does not reduce |Q_eps|_inf = "
                f"{r_norm:.3e} after {_MAX_HALVINGS} halvings",
                best=ScalarField(grid, w), report=report)
        w = trial
        report.deltas.append(step)
        if step <= params.tol_fixed_point:
            report.converged = True
            break
    phi = ScalarField(grid, w)
    _check_cap(phi, problem.cap_M)
    c2, report.clamped = c2_of_phi(law, phi, c2_floor=problem.c2_floor)
    report.c2_min = float(np.min(c2.values))
    report.c2_max = float(np.max(c2.values))
    report.final_residual = float(np.max(np.abs(
        residual_Q(law, phi, eps=eps, rhs=rhs,
                   c2_floor=problem.c2_floor).interior())))
    if not report.converged:
        raise NonConvergence(
            f"no converged Newton step after {params.max_iters} iterations "
            f"(last step {report.deltas[-1]:.3e})",
            best=phi, report=report)
    if report.clamped > 0:
        raise NonConvergence(
            f"{report.clamped} nodes clamped at c2_floor in the final iterate",
            best=phi, report=report)
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
    phi = None
    w0 = problem.phi_b
    for eps in schedule.stages() + [0.0]:
        try:
            phi_e, prep = picard_solve(problem, eps, params, w0=w0)
        except (NonConvergence, IndefiniteSystem, LinearStagnation,
                CapExceeded) as exc:
            report.errors.append(f"eps={eps:g}: {exc}")
            if phi is None:
                raise NonConvergence(
                    f"first continuation stage failed: {exc}",
                    best=getattr(exc, "best", None), report=report) from exc
            report.status = "PartialContinuation"
            break
        phi = w0 = phi_e
        report.stages.append({"eps": eps, "iterations": prep.iterations,
                              "delta": prep.deltas[-1],
                              "residual": prep.final_residual})
        report.final_eps = eps
    _finalize_report(problem, phi, report)
    return phi, report


def _finalize_report(problem: PotentialProblem, phi: ScalarField,
                     report: SolveReport,
                     rhs: ScalarField | None = None) -> None:
    gp = fld.gradient(phi)
    c2, clamped = c2_of_phi(problem.law, phi, gp, c2_floor=problem.c2_floor)
    rr = regime.classify(VectorField(problem.grid, gp.u, gp.v), c2)
    report.final_residual = float(np.max(np.abs(residual_Q(
        problem.law, phi, eps=report.final_eps, rhs=rhs,
        c2_floor=problem.c2_floor).interior())))
    report.c2_min = float(np.min(c2.values))
    report.c2_max = float(np.max(c2.values))
    report.clamped = clamped
    report.max_L2 = rr.max_L2
    report.max_L2_node = rr.max_L2_node
    report.audit = rr.audit.value
    report.audit_details = rr.audit_details
