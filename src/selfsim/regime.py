"""Characteristic eigenvalues, mixed-type classification and the ellipticity audit.

Covers the three Euler formulations (time-dependent, steady, self-similar),
the discriminant identity B^2 - 4AC = 4(L^2 - 1) of the potential-flow
equation, pseudo-Mach fields, and an empirical audit of the interior-maximum
principle for L^2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DomainError
from .field import ScalarField, VectorField
from .gas import Regime

_DEGEN_TOL = 1e-14
# |L - 1| at or below which classify calls a node sonic
_TOL_SONIC = 1e-12


class AuditVerdict(enum.Enum):
    PASS = "Pass"
    INTERIOR_MAX_VIOLATION = "InteriorMaxViolation"
    IDENTICALLY_ZERO = "IdenticallyZero"


@dataclass(frozen=True)
class EigenTriple:
    """Three characteristic speeds, sorted ascending when all real.

    ``complex_pair`` marks a complex lambda_{1,3} pair (subsonic data in the
    steady/self-similar formulations); ``degenerate`` marks a vanishing
    denominator.  ``lam2`` is carried separately since it stays real whenever
    it is defined.
    """

    lambdas: tuple | None
    lam2: float | None = None
    complex_pair: bool = False
    degenerate: bool = False


@dataclass
class RegimeReport:
    regime_map: np.ndarray = dc_field(repr=False)
    L2: ScalarField = dc_field(repr=False)
    discriminant: ScalarField = dc_field(repr=False)
    max_L2: float = 0.0
    max_L2_node: tuple = (0, 0)
    flagged: int = 0
    audit: AuditVerdict = AuditVerdict.PASS
    audit_details: dict = dc_field(default_factory=dict)


def eigen_time_dependent(u, v, c, alpha) -> EigenTriple:
    """Eigenvalues u.alpha +- c and u.alpha of the time-dependent system."""
    a1, a2 = alpha
    if c <= 0:
        raise DomainError(f"sound speed must be positive, got {c}")
    if abs(math.hypot(a1, a2) - 1.0) > 1e-12:
        raise DomainError("direction alpha must be a unit vector")
    mid = u * a1 + v * a2
    return EigenTriple(lambdas=(mid - c, mid, mid + c), lam2=mid)


def eigen_steady(u, v, c) -> EigenTriple:
    """Eigenvalues (uv +- c sqrt(u^2+v^2-c^2))/(c^2-u^2) and v/u for steady flow."""
    if c <= 0:
        raise DomainError(f"sound speed must be positive, got {c}")
    c2 = c * c
    s = u * u + v * v - c2
    denom = c2 - u * u
    degenerate = abs(denom) <= _DEGEN_TOL * c2 or abs(u) <= _DEGEN_TOL * c
    lam2 = v / u if abs(u) > _DEGEN_TOL * c else None
    if s < 0:
        return EigenTriple(lambdas=None, lam2=lam2, complex_pair=True,
                           degenerate=degenerate)
    if abs(denom) <= _DEGEN_TOL * c2:
        return EigenTriple(lambdas=None, lam2=lam2, degenerate=True)
    root = c * math.sqrt(s)
    pair = ((u * v - root) / denom, (u * v + root) / denom)
    lams = sorted(pair + ((lam2,) if lam2 is not None else ()))
    return EigenTriple(lambdas=tuple(lams), lam2=lam2, degenerate=degenerate)


def eigen_self_similar(U1, U2, c) -> EigenTriple:
    """Same algebra as the steady case with the pseudo-velocity (L = |U|/c)."""
    return eigen_steady(U1, U2, c)


def discriminant(grad_phi, c2):
    """Discriminant of the normalized potential-flow equation.

    Returns (disc, check) where disc = B^2 - 4AC from the coefficients
    A = 1 - phi1^2/c^2, B = -2 phi1 phi2/c^2, C = 1 - phi2^2/c^2 and
    check = 4 (L^2 - 1).
    """
    if np.any(np.asarray(c2) <= 0):
        raise DomainError("c^2 must be positive")
    p1, p2 = grad_phi
    A = 1.0 - p1 * p1 / c2
    B = -2.0 * p1 * p2 / c2
    C = 1.0 - p2 * p2 / c2
    disc = B * B - 4.0 * A * C
    check = 4.0 * ((p1 * p1 + p2 * p2) / c2 - 1.0)
    return disc, check


def pseudo_mach_field(U: VectorField, c2: ScalarField) -> ScalarField:
    """Nodewise L^2 = |U|^2 / c^2; non-positive c^2 nodes map to NaN."""
    vals = np.where(c2.values > 0, U.magnitude_sq() / np.where(
        c2.values > 0, c2.values, 1.0), np.nan)
    return ScalarField(U.grid, vals)


def ellipticity_audit(L2: ScalarField, b: ScalarField | None = None,
                      tol: float = 1e-10):
    """Empirical interior-maximum audit of L^2 (optionally L^2 + b).

    The strict interior excludes a 2-ring frame to buffer discretization
    noise; ties count as Pass.
    """
    vals = L2.values + (b.values if b is not None else 0.0)
    finite = np.isfinite(vals)
    maxL2 = float(np.nanmax(L2.values)) if finite.any() else 0.0
    details = {"max_L2": maxL2}
    if maxL2 <= tol:
        return AuditVerdict.IDENTICALLY_ZERO, details
    ny, nx = vals.shape
    if ny < 5 or nx < 5:
        details["note"] = "grid too small for a 2-ring frame; audit passes"
        return AuditVerdict.PASS, details
    inner = vals[2:-2, 2:-2]
    frame = vals.copy()
    frame[2:-2, 2:-2] = -np.inf
    m_int = float(np.nanmax(inner))
    m_bnd = float(np.nanmax(frame))
    details["m_int"] = m_int
    details["m_bnd"] = m_bnd
    if m_int <= m_bnd + tol:
        return AuditVerdict.PASS, details
    j, i = np.unravel_index(int(np.nanargmax(inner)), inner.shape)
    details["argmax_node"] = (int(j) + 2, int(i) + 2)
    return AuditVerdict.INTERIOR_MAX_VIOLATION, details


def classify(U: VectorField, c2: ScalarField) -> RegimeReport:
    """Per-node regime classification plus discriminant and ellipticity audit."""
    L2 = pseudo_mach_field(U, c2)
    L = np.sqrt(np.where(np.isfinite(L2.values), L2.values, np.nan))
    regime_map = np.full(L.shape, Regime.SUBSONIC.value, dtype=np.int8)
    regime_map[L > 1.0] = Regime.SUPERSONIC.value
    regime_map[np.abs(L - 1.0) <= _TOL_SONIC] = Regime.SONIC.value
    regime_map[~np.isfinite(L)] = -1
    flagged = int(np.count_nonzero(~np.isfinite(L)))
    safe_c2 = np.where(c2.values > 0, c2.values, np.nan)
    disc, _ = discriminant((U.u, U.v), safe_c2)
    finite = np.isfinite(L2.values)
    if finite.any():
        flat = np.where(finite, L2.values, -np.inf)
        j, i = np.unravel_index(int(np.argmax(flat)), flat.shape)
        max_L2 = float(flat[j, i])
    else:
        j = i = 0
        max_L2 = float("nan")
    verdict, details = ellipticity_audit(
        ScalarField(L2.grid, np.where(finite, L2.values, 0.0)))
    return RegimeReport(
        regime_map=regime_map,
        L2=L2,
        discriminant=ScalarField(U.grid, disc),
        max_L2=max_L2,
        max_L2_node=(int(j), int(i)),
        flagged=flagged,
        audit=verdict,
        audit_details=details,
    )
