"""Quasi-potential (weakly rotational) flows: delta-perturbation machinery.

A quasi-potential pseudo-velocity is U = grad(psi) + delta * perp_grad(zeta~).
Truncating the rotational system at first order in delta couples

    Q(psi) = delta * ((2 + Lap psi) Q1 + N1),       (psi equation)
    Lap(zeta~) = omega~,  div(omega~ grad psi) + omega~ = 0,   (vorticity pair)

with Q the potential-flow operator of the potential module and its closure
c0^2 = -(gamma - 1)(psi + |grad psi|^2 / 2) (a^2 for gamma = 1), grad(F1) =
Lap(zeta) perp_grad(psi) + perp_grad(zeta), Q1 = (gamma - 1)(F1 + grad psi .
perp_grad zeta) and c^2 = c0^2 - delta Q1.  The solver runs block
Gauss-Seidel sweeps (transport -> zeta -> closures -> psi) per delta target.
Each stage after the first starts psi from the secant predictor in delta
through the last two converged psi (the base potential is the one at
delta = 0), which saves about one sweep per stage, and zeta~ from its last
converged value, which the first transport recomputes anyway.  The psi
solve of each sweep is the damped Newton solve of potential.picard_solve at
eps = 0 with the forcing above, whose Jacobian is the linearized operator L
(potential.linearization).  Since psi moves by O(delta) between sweeps, one
factored Jacobian is carried from the base solve through every sweep and
stage, and is refactored only where its steps stop contracting.  The
transport's fill schedule is carried the same way: transport_omega reuses
it while it still orders the feet and rebuilds it where it does not.
quasi_state is the one evaluation of the closures (F1, Q1, N1, c^2 floored
at the problem's c2_floor) and of U: every sweep reads it, and so do the
returned state and the report of solve_quasi.

Diagnostics reconstruct the untruncated rotational residuals (r1, r2).  r1
is potential.self_similar_operator on the rotational U, of which N1 is the
first-order part, so at a converged first-order state r1 = O(delta^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import field as fld, potential, vorticity
from .errors import (CapExceeded, ConfigError, IndefiniteSystem,
                     LinearStagnation, NonConvergence, SonicEncroachment,
                     check_positive)
from .field import ScalarField, VectorField
from .gas import GasLaw
from .hodge import _solve_poisson_dirichlet, integrability_residual, reconstruct_F
from .potential import (EpsilonSchedule, PicardParams, PotentialProblem,
                        SolveReport)


@dataclass
class QuasiState:
    delta: float
    psi: ScalarField
    zeta: ScalarField          # scaled rotational potential delta * zeta~
    omega_tilde: ScalarField   # unscaled transported vorticity Lap(zeta~)
    F1: ScalarField
    Q1: ScalarField
    N1: ScalarField
    c2: ScalarField
    clamped: int               # nodes of c2 held at c2_floor
    curl_defect: float         # of grad F1, from reconstruct_F1
    U: VectorField             # grad psi + delta perp_grad zeta~

    def __post_init__(self):
        if self.delta < 0:
            raise ConfigError("delta must be non-negative")


@dataclass
class QuasiConfig:
    delta_targets: list = dc_field(default_factory=lambda: [0.0])
    outer_tol: float = 1e-8
    outer_max_iters: int = 50
    zeta_b: ScalarField | None = None  # full-grid; frame trace is Dirichlet data
    anchor: tuple = (0, 0)     # (i, j) node where F1 = 0
    sonic_margin: float = 0.01

    def __post_init__(self):
        t = list(self.delta_targets)
        if not t or not all(0 <= d < 1 for d in t) or t != sorted(t):
            raise ConfigError("delta_targets must be ascending within [0, 1)")
        check_positive(outer_tol=self.outer_tol,
                       outer_max_iters=self.outer_max_iters)
        if not 0 <= self.sonic_margin < 1:
            raise ConfigError("sonic_margin must lie in [0, 1)")
        a = self.anchor
        if not (isinstance(a, (tuple, list)) and len(a) == 2
                and all(isinstance(k, (int, np.integer))
                        and not isinstance(k, bool) for k in a)):
            raise ConfigError(f"anchor must be two node indices, got {a!r}")
        self.anchor = tuple(a)


# ---------------------------------------------------------------------------
# pointwise differential forms


def _lap_c(f: ScalarField) -> np.ndarray:
    """Compact Laplacian diff2_x + diff2_y, matching the stencil operators."""
    g = f.grid
    return (fld.diff2(f.values, g.hx, axis=1)
            + fld.diff2(f.values, g.hy, axis=0))


def _sym_D_perp(zeta: ScalarField) -> tuple:
    """Symmetric part (h11, h12, h22) of D perp_grad zeta, whose rows are
    (-z12, -z22 ; z11, z12); its trace is zero."""
    z11, z12, z22 = (f.values for f in fld.hessian(zeta))
    return -z12, 0.5 * (z11 - z22), z12


def compute_N1(psi: ScalarField, zeta: ScalarField,
               grad_psi=None, perp_zeta=None) -> ScalarField:
    """First-order forcing: minus the part linear in zeta of the c^2-free
    terms of potential.self_similar_operator on U = grad psi + perp_grad zeta:

    N1 = (D perp_grad zeta) grad psi . grad psi
         + 2 (D^2 psi) grad psi . perp_grad zeta
         + 2 grad psi . perp_grad zeta.

    grad_psi and perp_zeta, when given, are fld.gradient(psi) and
    fld.perp_gradient(zeta), reused instead of taken again.
    """
    gp = fld.gradient(psi) if grad_psi is None else grad_psi
    pz = fld.perp_gradient(zeta) if perp_zeta is None else perp_zeta
    hp = tuple(f.values for f in fld.hessian(psi))
    vals = (potential.hessian_form(_sym_D_perp(zeta), gp, gp)
            + 2.0 * potential.hessian_form(hp, gp, pz)
            + 2.0 * (gp.u * pz.u + gp.v * pz.v))
    return ScalarField(psi.grid, vals)


def reconstruct_F1(psi: ScalarField, zeta: ScalarField,
                   anchor: tuple = (0, 0), perp_zeta=None):
    """Two-leg reconstruction of F1 from grad F1 = Lap(zeta) perp_grad(psi)
    + perp_grad(zeta), anchored with F1 = 0 at the anchor node.

    Returns (F1, curl_defect); the defect is small only when zeta satisfies
    the vorticity transport equation.  perp_zeta as in compute_N1.
    """
    lz = _lap_c(zeta)
    pp = fld.perp_gradient(psi)
    pz = fld.perp_gradient(zeta) if perp_zeta is None else perp_zeta
    G = ScalarField(psi.grid, lz * pp.u + pz.u)
    H = ScalarField(psi.grid, lz * pp.v + pz.v)
    defect = integrability_residual(G, H)
    F1 = reconstruct_F(G, H, C=0.0, anchor=anchor)
    return F1, defect


def compute_Q1(law: GasLaw, psi: ScalarField, zeta: ScalarField,
               F1: ScalarField, grad_psi=None, perp_zeta=None) -> ScalarField:
    """Q1 = (gamma - 1)(F1 + grad psi . perp_grad zeta); grad_psi and
    perp_zeta as in compute_N1."""
    gp = fld.gradient(psi) if grad_psi is None else grad_psi
    pz = fld.perp_gradient(zeta) if perp_zeta is None else perp_zeta
    return ScalarField(psi.grid, (law.gamma - 1.0)
                       * (F1.values + gp.u * pz.u + gp.v * pz.v))


def c2_quasi(law: GasLaw, psi: ScalarField, zeta: ScalarField, delta: float,
             F1: ScalarField, c2_floor: float = 1e-8, Q1=None,
             grad_psi=None):
    """Perturbed closure c^2 = c0^2(psi) - delta Q1, floored with count
    (c^2 = a^2 for the isothermal law, where Q1 = 0); pass Q1 and
    grad_psi = fld.gradient(psi) to reuse them."""
    c0, _ = potential.c2_of_phi(law, psi, grad_psi, c2_floor=-np.inf)
    if Q1 is None:
        Q1 = compute_Q1(law, psi, zeta, F1)
    raw = c0.values - delta * Q1.values
    clamped = int(np.count_nonzero(raw <= c2_floor))
    return ScalarField(psi.grid, np.maximum(raw, c2_floor)), clamped


# ---------------------------------------------------------------------------
# linearized operator and Gateaux check


def linearized_L(psi0: ScalarField, v: ScalarField, law: GasLaw
                 ) -> ScalarField:
    """Gateaux derivative of Q at psi0 in direction v, pointwise from the
    coefficients of potential.linearization:

    L[v] = c0^2 Lap v - (D^2 v) grad psi0 . grad psi0
           - 2 (D^2 psi0) grad psi0 . grad v
           - [(gamma - 1)(2 + Lap psi0) + 2] grad psi0 . grad v
           - (gamma - 1)(2 + Lap psi0) v.

    At a quiescent base state (Lap psi0 = -2) the zero-order and closure
    drift terms vanish and L[xi1] = 0 identically.
    """
    a11, a12, a22, b1, b2, c = potential.linearization(law, psi0)
    v11, v12, v22 = fld.hessian(v)
    gv = fld.gradient(v)
    return ScalarField(psi0.grid,
                       a11 * v11.values + a12 * v12.values + a22 * v22.values
                       + b1 * gv.u + b2 * gv.v + c * v.values)


def gateaux_check(psi0: ScalarField, v: ScalarField, law: GasLaw,
                  taus=(1e-2, 1e-3, 1e-4)) -> dict:
    """Interior defect |(R(psi0 + tau v) - R(psi0))/tau - L[v]| per tau and
    the least-squares slope of log(defect) against log(tau)."""
    taus = list(taus)
    if any(t <= 0 for t in taus) or taus != sorted(taus, reverse=True):
        raise ConfigError("taus must be positive and decreasing")
    grid = psi0.grid
    base = potential.residual_Q(law, psi0, c2_floor=-np.inf).values
    lv = linearized_L(psi0, v, law).values
    defects = []
    for tau in taus:
        pert = ScalarField(grid, psi0.values + tau * v.values)
        quot = (potential.residual_Q(law, pert, c2_floor=-np.inf).values
                - base) / tau
        defects.append(float(np.max(np.abs((quot - lv)[1:-1, 1:-1]))))
    slope = float("nan")
    if len(taus) >= 2 and min(defects) > 0:
        slope = float(np.polyfit(np.log(taus), np.log(defects), 1)[0])
    return {"taus": taus, "defects": defects, "slope": slope}


# ---------------------------------------------------------------------------
# coupled solver


# failures of a linear solve inside a sweep; they fail the stage
_LINEAR_ERRORS = (IndefiniteSystem, LinearStagnation, CapExceeded)


def solve_quasi(config: QuasiConfig, base: PotentialProblem,
                params: PicardParams | None = None,
                schedule: EpsilonSchedule | None = None
                ) -> tuple[QuasiState, SolveReport]:
    """Delta-continuation solve of the first-order quasi-potential system.

    Per delta target (ascending): block Gauss-Seidel sweeps of transport ->
    zeta-recovery -> quasi_state (F1, Q1, N1, c^2) -> psi solve, until the
    joint sup-norm change of (psi, zeta~) drops below outer_tol.  A stage
    starts from zeta~ of the previous delta and from the secant prediction
    psi_{k-1} + (delta_k - delta_{k-1}) / (delta_{k-1} - delta_{k-2})
    (psi_{k-1} - psi_{k-2}), with delta_0 = 0 and psi_0 the base potential,
    or from psi_{k-1} where delta_{k-1} = delta_{k-2}.  The last converged
    stage is returned on failure with status PartialContinuation.  A
    linear-solve failure in the first stage is raised as NonConvergence.  An
    anchor outside the grid raises ConfigError before any solve.  The base
    potential is potential.solve(base, schedule, params), whose path the
    report keeps; its last factored Jacobian starts the first psi solve,
    and each psi solve's last one starts the next; each transport starts
    from the fill schedule of the one before.  The report's top-level
    fields describe the returned state, quasi_state at the last converged
    (psi, zeta~): its c^2, the audit of its U against that c^2, and the
    residual of the psi equation, forcing included.
    """
    params = params or PicardParams()
    grid = base.grid
    zeta_b = config.zeta_b or ScalarField.zeros(grid)
    if zeta_b.grid != grid:
        raise ConfigError("zeta_b must live on the problem grid")
    i0, j0 = config.anchor
    if not (0 <= i0 < grid.nx and 0 <= j0 < grid.ny):
        raise ConfigError(f"anchor {config.anchor} outside the "
                          f"{grid.nx} x {grid.ny} grid")
    omega_b = fld.laplacian(zeta_b)  # inflow data for the transported vorticity
    psi, prep = potential.solve(base, schedule, params)
    report = SolveReport(path=prep.path)
    if prep.status != "Converged":
        report.errors.extend(prep.errors)
    zt = zeta_b.copy()
    state = None
    system, fill = prep.system, None
    # delta of the last converged stage, and delta and psi of the one
    # before it; the base potential is the stage at delta = 0
    d_last, d_prev, psi_prev = 0.0, 0.0, psi
    for delta in config.delta_targets:
        psi0 = psi
        if d_last != d_prev:  # secant predictor in delta
            s = (delta - d_last) / (d_last - d_prev)
            psi0 = ScalarField(grid, psi.values
                               + s * (psi.values - psi_prev.values))
        try:
            psi_d, zt_d, stage, system, fill = _solve_stage(
                config, base, params, delta, psi0, zt, zeta_b, omega_b,
                system, fill)
        except (NonConvergence, SonicEncroachment, *_LINEAR_ERRORS) as exc:
            report.errors.append(f"delta={delta:g}: {exc}")
            if state is None:
                if isinstance(exc, _LINEAR_ERRORS):
                    raise NonConvergence(f"first delta stage failed: {exc}",
                                         report=report) from exc
                raise
            report.status = "PartialContinuation"
            break
        d_last, d_prev, psi_prev = delta, d_last, psi
        psi, zt = psi_d, zt_d
        report.stages.append(stage)
        state = quasi_state(config, base, delta, psi, zt)
    report.final_eps = 0.0
    residual = float(np.max(np.abs(potential.residual_Q(
        base.law, state.psi, rhs=_psi_forcing(state),
        c2_floor=base.c2_floor).interior())))
    potential._finalize_report(report, state.U, state.c2, state.clamped,
                               residual)
    return state, report


def quasi_state(config: QuasiConfig, base: PotentialProblem, delta: float,
                psi: ScalarField, zt: ScalarField) -> QuasiState:
    """The quasi state at (psi, zeta~): F1 and its curl defect, Q1, N1, and
    c^2 = c0^2 - delta Q1 floored at base.c2_floor, with
    U = grad psi + delta perp_grad zeta~."""
    law = base.law
    gp = fld.gradient(psi)
    pz = fld.perp_gradient(zt)
    F1, defect = reconstruct_F1(psi, zt, anchor=config.anchor, perp_zeta=pz)
    Q1 = compute_Q1(law, psi, zt, F1, gp, pz)
    c2, clamped = c2_quasi(law, psi, zt, delta, F1, base.c2_floor, Q1,
                           grad_psi=gp)
    return QuasiState(
        delta=delta, psi=psi,
        zeta=ScalarField(psi.grid, delta * zt.values),
        omega_tilde=ScalarField(psi.grid, _lap_c(zt)),
        F1=F1, Q1=Q1, N1=compute_N1(psi, zt, grad_psi=gp, perp_zeta=pz),
        c2=c2, clamped=clamped, curl_defect=defect,
        U=VectorField(psi.grid, gp.u + delta * pz.u, gp.v + delta * pz.v))


def _psi_forcing(state: QuasiState) -> ScalarField:
    """delta ((2 + Lap psi) Q1 + N1), the right-hand side of the psi
    equation at the state."""
    return ScalarField(state.psi.grid, state.delta * (
        (2.0 + _lap_c(state.psi)) * state.Q1.values + state.N1.values))


def _solve_stage(config: QuasiConfig, base: PotentialProblem,
                 params: PicardParams, delta: float,
                 psi: ScalarField, zt: ScalarField,
                 zeta_b: ScalarField, omega_b: ScalarField,
                 system: potential.FrozenSystem | None,
                 fill: np.ndarray | None):
    """The sweeps of one delta stage from (psi, zeta~); the psi solves start
    on system, the factored Jacobian carried in, and the transports on
    fill, the fill schedule carried in.  Returns psi, zeta~, the stage's
    report entry, the last psi solve's system and the last transport's
    schedule."""
    grid = base.grid
    stage = {"delta": delta, "outer_iters": 0, "change": float("inf")}
    for it in range(1, config.outer_max_iters + 1):
        omega_t, trep, fill = vorticity.transport_omega(
            fld.gradient(psi), omega_b, schedule=fill)
        zt_new = ScalarField(grid, _solve_poisson_dirichlet(
            grid, omega_t.values, zeta_b.values))
        state = quasi_state(config, base, delta, psi, zt_new)
        L2max = float(np.max(state.U.magnitude_sq() / state.c2.values))
        if L2max >= 1.0 - config.sonic_margin:
            raise SonicEncroachment(
                f"max pseudo-Mach^2 {L2max:.4f} >= {1 - config.sonic_margin}")
        psi_new, prep = potential.picard_solve(
            base, 0.0, params, w0=psi, rhs=_psi_forcing(state),
            system=system)
        system = prep.system
        change = max(float(np.max(np.abs(psi_new.values - psi.values))),
                     float(np.max(np.abs(zt_new.values - zt.values))))
        psi, zt = psi_new, zt_new
        stage.update(outer_iters=it, change=change, max_L2=L2max,
                     curl_defect=state.curl_defect, uncovered=trep.uncovered)
        if change <= config.outer_tol:
            return psi, zt, stage, system, fill
    raise NonConvergence(
        f"outer loop: change {stage['change']:.3e} > {config.outer_tol:.3e} "
        f"after {config.outer_max_iters} sweeps", report=stage)


# ---------------------------------------------------------------------------
# untruncated rotational diagnostics


def full_rotational_residual(psi: ScalarField, zeta: ScalarField, law: GasLaw,
                             anchor: tuple = (0, 0)):
    """Residuals (r1, r2) of the untruncated rotational system at
    U = grad psi + perp_grad zeta (zeta already carries its delta scaling).

    r1 uses the reconstructed Bernoulli closure: grad F =
    -Lap(zeta)(perp_grad psi + grad zeta) - perp_grad zeta, F anchored to 0
    at the anchor node, c^2 = (gamma - 1)(F - psi - |U|^2 / 2) (a^2 for the
    isothermal law); then r1 is the self-similar operator on U,
    r1 = c^2 div U - (DU) U . U - |U|^2 + 2 c^2, with DU = D^2 psi +
    D perp_grad zeta from fld.hessian (div U is the compact Lap psi).
    r2 = Lap(zeta)(Lap(psi) + 1) + U . grad(Lap zeta).  Frame rings zeroed.
    """
    grid = psi.grid
    lz = _lap_c(zeta)
    pp = fld.perp_gradient(psi)
    gz = fld.gradient(zeta)
    pz = fld.perp_gradient(zeta)
    G = ScalarField(grid, -lz * (pp.u + gz.u) - pz.u)
    H = ScalarField(grid, -lz * (pp.v + gz.v) - pz.v)
    F = reconstruct_F(G, H, C=0.0, anchor=anchor)
    gp = fld.gradient(psi)
    U = VectorField(grid, gp.u + pz.u, gp.v + pz.v)
    # the closure of c2_of_phi with the potential psi - F and velocity U
    c2, _ = potential.c2_of_phi(law, ScalarField(grid, psi.values - F.values),
                                U, c2_floor=-np.inf)
    DU = tuple(p.values + z
               for p, z in zip(fld.hessian(psi), _sym_D_perp(zeta)))
    r1 = potential.self_similar_operator(c2.values, U, DU)
    glz = fld.gradient(ScalarField(grid, lz))
    r2 = lz * (_lap_c(psi) + 1.0) + U.u * glz.u + U.v * glz.v
    out1 = np.zeros(grid.shape)
    out2 = np.zeros(grid.shape)
    out1[1:-1, 1:-1] = r1[1:-1, 1:-1]
    out2[1:-1, 1:-1] = r2[1:-1, 1:-1]
    return ScalarField(grid, out1), ScalarField(grid, out2)
