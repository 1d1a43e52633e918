"""Uniform rectangular grid, node-centered fields and finite-difference calculus.

Conventions
-----------
Values are stored as 2-D float64 arrays of shape (ny, nx), row-major with the
xi2 index outermost, so ``values[j, i]`` sits at ``(xi1[i], xi2[j])``.

First derivatives use centered second-order differences at interior nodes and
one-sided second-order differences on the boundary ring.  Second derivatives
use the compact 3-point stencil (one-sided at the ring, exact on quadratics).
``laplacian`` is defined as ``divergence(gradient(f))`` so that the discrete
identities rot(grad f) = 0 and div(perp_grad z) = 0 hold exactly at interior
nodes; the compact 5-point Laplacian used by the Poisson solvers lives in the
modules that assemble linear systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DimensionMismatch, DomainError, FormatError


@dataclass(frozen=True)
class Grid2D:
    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise DomainError("grid bounds must satisfy x1 > x0 and y1 > y0")
        if self.nx < 3 or self.ny < 3:
            raise DomainError("grid needs at least 3 nodes per axis")

    @property
    def hx(self) -> float:
        return (self.x1 - self.x0) / (self.nx - 1)

    @property
    def hy(self) -> float:
        return (self.y1 - self.y0) / (self.ny - 1)

    @property
    def xi1(self) -> np.ndarray:
        return self.x0 + self.hx * np.arange(self.nx)

    @property
    def xi2(self) -> np.ndarray:
        return self.y0 + self.hy * np.arange(self.ny)

    def meshgrid(self):
        return np.meshgrid(self.xi1, self.xi2)

    @property
    def shape(self):
        return (self.ny, self.nx)

    @property
    def diam(self) -> float:
        return float(np.hypot(self.x1 - self.x0, self.y1 - self.y0))


def _as_values(grid: Grid2D, values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.size != grid.nx * grid.ny:
        raise DimensionMismatch(
            f"expected {grid.nx * grid.ny} values, got {v.size}"
        )
    return v.reshape(grid.ny, grid.nx)


@dataclass
class ScalarField:
    grid: Grid2D
    values: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        self.values = _as_values(self.grid, self.values)

    @classmethod
    def from_function(cls, grid: Grid2D, fn) -> "ScalarField":
        X, Y = grid.meshgrid()
        return cls(grid, np.asarray(fn(X, Y), dtype=float) + np.zeros(grid.shape))

    @classmethod
    def zeros(cls, grid: Grid2D) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def interior(self) -> np.ndarray:
        return self.values[1:-1, 1:-1]


@dataclass
class VectorField:
    grid: Grid2D
    u: np.ndarray = dc_field(repr=False)
    v: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        self.u = _as_values(self.grid, self.u)
        self.v = _as_values(self.grid, self.v)

    @classmethod
    def from_function(cls, grid: Grid2D, fn_u, fn_v) -> "VectorField":
        X, Y = grid.meshgrid()
        z = np.zeros(grid.shape)
        return cls(grid, np.asarray(fn_u(X, Y), dtype=float) + z,
                   np.asarray(fn_v(X, Y), dtype=float) + z)

    @classmethod
    def zeros(cls, grid: Grid2D) -> "VectorField":
        return cls(grid, np.zeros(grid.shape), np.zeros(grid.shape))

    def copy(self) -> "VectorField":
        return VectorField(self.grid, self.u.copy(), self.v.copy())

    def magnitude_sq(self) -> np.ndarray:
        return self.u ** 2 + self.v ** 2


# ---------------------------------------------------------------------------
# difference stencils


def diff1(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """First derivative: centered interior, one-sided second order at the ends."""
    f = values.swapaxes(axis, 0)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return out.swapaxes(0, axis)


def diff2(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second derivative: compact 3-point; one-sided at the ends."""
    f = values.swapaxes(axis, 0)
    out = np.empty_like(f)
    h2 = h * h
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h2
    out[0] = (f[0] - 2.0 * f[1] + f[2]) / h2
    out[-1] = (f[-1] - 2.0 * f[-2] + f[-3]) / h2
    return out.swapaxes(0, axis)


def gradient(f: ScalarField) -> VectorField:
    g = f.grid
    return VectorField(g, diff1(f.values, g.hx, axis=1), diff1(f.values, g.hy, axis=0))


def hessian(f: ScalarField):
    """Returns (f11, f12, f22) as ScalarFields; cross term by composition."""
    g = f.grid
    f11 = diff2(f.values, g.hx, axis=1)
    f22 = diff2(f.values, g.hy, axis=0)
    f12 = diff1(diff1(f.values, g.hx, axis=1), g.hy, axis=0)
    return ScalarField(g, f11), ScalarField(g, f12), ScalarField(g, f22)


def divergence(V: VectorField) -> ScalarField:
    g = V.grid
    return ScalarField(g, diff1(V.u, g.hx, axis=1) + diff1(V.v, g.hy, axis=0))


def laplacian(f: ScalarField) -> ScalarField:
    return divergence(gradient(f))


def rot(V: VectorField) -> ScalarField:
    """Scalar curl: d(v)/dxi1 - d(u)/dxi2 (the vorticity of the field)."""
    g = V.grid
    return ScalarField(g, diff1(V.v, g.hx, axis=1) - diff1(V.u, g.hy, axis=0))


def perp_gradient(z: ScalarField) -> VectorField:
    """Perpendicular gradient (-dz/dxi2, dz/dxi1); divergence-free by stencil match."""
    g = z.grid
    return VectorField(g, -diff1(z.values, g.hy, axis=0), diff1(z.values, g.hx, axis=1))


# ---------------------------------------------------------------------------
# F2D text format

_FMT = "%.17g"


def write_field(field, path):
    """Serialize a Scalar/VectorField in the F2D text format (17 sig. digits)."""
    g = field.grid
    kind = "scalar" if isinstance(field, ScalarField) else "vector"
    head = "F2D %d %d %s %s %s %s %s" % (
        g.nx, g.ny, _FMT % g.x0, _FMT % g.x1, _FMT % g.y0, _FMT % g.y1, kind)
    if kind == "scalar":
        line, values = _FMT + "\n", field.values.ravel()
    else:  # u and v interleaved, one node per line
        line = _FMT + " " + _FMT + "\n"
        values = np.stack([field.u.ravel(), field.v.ravel()], axis=1).ravel()
    # one % operation formats the whole body
    body = (line * g.nx * g.ny) % tuple(values.tolist())
    with open(path, "w") as fh:
        fh.write(head + "\n" + body)


def _parse_rows(lines, first_lineno: int, want: int) -> np.ndarray:
    """Value lines parsed one at a time; FormatError names the bad line."""
    rows = []
    for lineno, line in enumerate(lines, start=first_lineno):
        toks = line.split("#", 1)[0].split()
        if not toks:
            continue
        if len(toks) != want:
            raise FormatError(f"expected {want} value(s) per line", line=lineno)
        try:
            rows.append([float(t) for t in toks])
        except ValueError as exc:
            raise FormatError(str(exc), line=lineno) from exc
    return np.array(rows, dtype=float).reshape(-1, want)


def read_field(path):
    """Parse an F2D file into a ScalarField or VectorField."""
    with open(path) as fh:
        raw = fh.readlines()
    header = None
    for header_line, line in enumerate(raw, start=1):
        text = line.split("#", 1)[0].strip()
        if text:
            header = text.split()
            break
    if header is None:
        raise FormatError("missing F2D header", line=1)
    if len(header) != 8 or header[0] != "F2D":
        raise FormatError("header must be 'F2D nx ny x0 x1 y0 y1 kind'",
                          line=header_line)
    try:
        nx, ny = int(header[1]), int(header[2])
        x0, x1, y0, y1 = (float(t) for t in header[3:7])
    except ValueError as exc:
        raise FormatError(str(exc), line=header_line) from exc
    kind = header[7]
    if kind not in ("scalar", "vector"):
        raise FormatError(f"unknown field kind {kind!r}", line=header_line)
    grid = Grid2D(x0, x1, y0, y1, nx, ny)
    want = 1 if kind == "scalar" else 2
    body = raw[header_line:]
    data = None
    # one loadtxt call parses the body (it warns on a body without values);
    # when it fails or finds the wrong column count, the line loop names the
    # bad line or accepts what float() accepts
    if any(line.split("#", 1)[0].strip() for line in body):
        try:
            data = np.loadtxt(body, comments="#", ndmin=2)
        except ValueError:
            pass
    if data is None or data.shape[1] != want:
        data = _parse_rows(body, header_line + 1, want)
    if len(data) != nx * ny:
        raise DimensionMismatch(
            f"{len(data)} value lines for a {nx}x{ny} grid")
    if kind == "scalar":
        return ScalarField(grid, data[:, 0])
    return VectorField(grid, data[:, 0], data[:, 1])
