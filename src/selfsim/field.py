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

``write_field`` writes the body of an F2D file byte for byte as the
per-value "%.17g" join.  It formats the values of "%.17g"'s fixed-notation
range (1e-4 <= |v| < 1e17) exactly with array arithmetic and the rest (0,
nan, inf and the values outside that range) with "%"; the comment above it
gives the exactness argument.
"""

from __future__ import annotations

import math
import numbers
import warnings
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
        for name in ("x0", "x1", "y0", "y1"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"grid bound {name} must be finite, got "
                                  f"{getattr(self, name)!r}")
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise DomainError("grid bounds must satisfy x1 > x0 and y1 > y0")
        if not (math.isfinite(self.x1 - self.x0)
                and math.isfinite(self.y1 - self.y0)):
            raise DomainError("grid extent x1 - x0, y1 - y0 must be finite")
        for name in ("nx", "ny"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise DomainError(f"grid node count {name} must be an "
                                  f"integer, got {getattr(self, name)!r}")
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
#
# The body of an F2D file is exactly the "%.17g" join of its values, one node
# per line (u, a space, then v for a vector).  numpy has no such formatter,
# so write_field builds the text of the values that "%.17g" prints in fixed
# notation (decimal exponent d in [-4, 16]) with array arithmetic, and formats
# the rest (0, nan, inf, |v| < 1e-4, |v| >= 1e17) with one "%" call per block.
#
# Exact digits.  For 10**d <= |v| < 10**(d+1) let k = 16 - d, in [0, 20], so
# that 10**k is a double and |v| 10**k lies in [1e16, 1e17).  Dekker's product
# (T. J. Dekker, Numer. Math. 18, 1971; the Veltkamp split stands in for the
# fma numpy lacks) gives it exactly as hi + lo.  Doubles in [1e16, 1e17] are
# even integers, so N = hi + rint(lo) is |v| 10**k rounded half to even: the
# 17 significant digits "%.17g" prints.  d is exact too: |v| is compared with
# the smallest double >= 10**j, not taken from log10.  N = 10**17 (a carry
# into the next decade) would need a double within half a unit of the 17th
# digit below 10**(d+1); doubles are spaced wider than that, and 10**(d+1) is
# one or, for d < -1, farther than that from one.  Such a value would go to
# the "%" call all the same.
#
# Text.  Each value becomes a row of 11 little-endian uint32 words whose NUL
# bytes are dropped at the end: words 0-4 hold the sign, "0." when d < 0 and
# the integer digits; words 5-9 the point (or the zeros after "0.") and the
# fraction digits, trailing zeros stripped; word 10 the line's end.  Both
# halves are the same 17 digits, 4 per word from a table, cut by a mask that
# depends only on d and the count of trailing zeros.

_FMT = "%.17g"
_BLOCK = 4096    # values formatted at a time; bounds the temporaries
_WORDS = 11      # uint32 words per value, see above
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter for doubles


def _split(a):
    """a = hi + lo exactly, each with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


_POW10 = 10.0 ** np.arange(21)  # exact
# 10**j at j + 4, rounded to nearest: exact for j >= 0, and for j < 0 the
# nearest double lies above 10**j, so a double x >= 10**j iff x >= it
_DECADE = np.array([float(f"1e{j}") for j in range(-4, 18)])
_LE32 = np.dtype("<u4")
_ASCII = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
# the ASCII digits of 0000-9999 one word each, and of 0-9 in byte 3
_DIGITS4 = np.stack(np.meshgrid(*[_ASCII] * 4, indexing="ij"),
                    axis=-1).view(_LE32).ravel()
_DIGIT1 = _ASCII.astype(_LE32) << 24
_ZEROS4 = np.zeros(10000, np.int8)  # the trailing zeros of 0000-9999
for _t in range(1, 5):
    _ZEROS4[::10 ** _t] += 1


def _row_tables():
    """Masks and fixed bytes of a row for class c = 17 (d + 4) + tz, where
    tz is the count of trailing zeros of N and kept = 17 - tz its digits:
    - _MASK[:, c] (10 words): digits 0..d in words 0-4 (the integer part),
      digits d+1..kept-1 in words 5-9 (the fraction, from digit 0 if d < 0);
    - _WORD0[2 c + negative]: the sign, and "0." if d < 0;
    - _WORD5[c]: the point if a fraction digit is kept, or for d < 0 the
      zeros between "0." and the first digit."""
    d, tz = np.meshgrid(np.arange(-4, 17), np.arange(17), indexing="ij")
    kept = 17 - tz
    first = np.array([0, 1, 5, 9, 13])  # index of the first digit of a word
    width = np.array([1, 4, 4, 4, 4])
    lead = np.array([0, 0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF], _LE32)
    whole = lead[np.clip(d[..., None] + 1 - first, 0, width)]
    frac = lead[np.clip(kept[..., None] - first, 0, width)] & ~whole
    whole[..., 0] <<= 24  # the digit of word 0 is its byte 3
    frac[..., 0] <<= 24
    mask = np.concatenate([whole, frac], axis=2).reshape(-1, 10).T.copy()
    point = np.where(d < 0, 0x2E3000, 0)  # "0." in bytes 1-2
    word0 = np.stack([point, point | ord("-")], axis=2)
    word5 = np.where(d < 0, lead[np.clip(-d - 1, 0, 3)] & 0x303030,
                     np.where(kept > d + 1, ord("."), 0))
    return mask, word0.ravel().astype(_LE32), word5.ravel().astype(_LE32)


_MASK, _WORD0, _WORD5 = _row_tables()


def _format_block(values, end, words):
    """Fill words (11, n) with the rows of "%.17g" % v, each ended by end."""
    a = np.abs(values)
    fixed = (a >= _DECADE[0]) & (a < 1e17)
    a = np.where(fixed, a, 1.0)
    e = np.frexp(a)[1]
    # 78913 / 2**18 ~ log10 2: floor((e - 1) log10 2), which is d or d - 1
    d = ((e - 1) * 78913) >> 18
    d += a >= _DECADE[d + 5]
    p = _POW10[16 - d]
    ph, pl = _split(p)
    ah, al = _split(a)
    hi = a * p
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    fixed &= n < 10 ** 17
    # the 17 digits of n: d1, then 4-digit groups qh ql rh rl
    q = n // 10 ** 8
    r = n - q * 10 ** 8
    d1 = q // 10 ** 8
    qh = q // 10 ** 4
    ql = q - qh * 10 ** 4
    qh -= d1 * 10 ** 4
    rh = r // 10 ** 4
    rl = r - rh * 10 ** 4
    digits = np.empty((5, values.size), _LE32)
    np.take(_DIGIT1, d1, out=digits[0])
    for word, group in zip(digits[1:], (qh, ql, rh, rl)):
        np.take(_DIGITS4, group, out=word)
    tz = _ZEROS4[rl] + (rl == 0) * (
        _ZEROS4[rh] + (rh == 0) * (_ZEROS4[ql] + (ql == 0) * _ZEROS4[qh]))
    c = (d + 4) * 17 + tz
    mask = np.take(_MASK, c, axis=1)
    np.bitwise_and(digits, mask[:5], out=words[:5])
    np.bitwise_and(digits, mask[5:], out=words[5:10])
    words[0] |= _WORD0[2 * c + (values < 0)]
    words[5] |= _WORD5[c]
    words[10] = end
    if not fixed.all():
        # "%.17g" gives at most 24 characters; the padding becomes NUL
        rest = np.flatnonzero(~fixed)
        text = ("%-24.17g" * rest.size) % tuple(values[rest].tolist())
        raw = np.frombuffer(text.encode(), np.uint8).reshape(-1, 24)
        words[:6, rest] = (raw * (raw != ord(" "))).view(_LE32).T
        words[6:10, rest] = 0


def write_field(field, path):
    """Serialize a Scalar/VectorField in the F2D text format.

    The header is formatted with "%.17g"; the body is byte for byte the
    per-value "%.17g" join, one node per line, "u v" for a vector.  Values
    in "%.17g"'s fixed-notation range are formatted exactly by array
    arithmetic (see the comment above), the rest by one "%" call per block.
    """
    g = field.grid
    if isinstance(field, ScalarField):
        kind, comps, ends = "scalar", [field.values], b"\n"
    else:  # u and v on one line
        kind, comps, ends = "vector", [field.u, field.v], b" \n"
    head = "F2D %d %d %s %s %s %s %s\n" % (
        g.nx, g.ny, _FMT % g.x0, _FMT % g.x1, _FMT % g.y0, _FMT % g.y1, kind)
    comps = [np.asarray(c, dtype=float).ravel() for c in comps]
    size, step = comps[0].size, _BLOCK // len(comps)
    with open(path, "wb") as fh:
        fh.write(head.encode())
        for start in range(0, size, step):
            rows = np.empty((len(comps), _WORDS, min(step, size - start)),
                            _LE32)
            for words, comp, end in zip(rows, comps, ends):
                _format_block(comp[start:start + step], end, words)
            fh.write(rows.transpose(2, 0, 1).tobytes().translate(None, b"\0"))


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
    """Parse an F2D file into a ScalarField or VectorField.

    The header is the first line with text outside a "#" comment.  The open
    file after it goes to one np.loadtxt call, which takes the body a line
    at a time, so no list of the body's lines is held.  Only when loadtxt
    fails or finds the wrong column count are the body's lines read again,
    for _parse_rows to name the bad line (or to accept what float()
    accepts).
    """
    with open(path) as fh:
        header = None
        for header_line, line in enumerate(fh, start=1):
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
            raise FormatError(f"unknown field kind {kind!r}",
                              line=header_line)
        grid = Grid2D(x0, x1, y0, y1, nx, ny)
        want = 1 if kind == "scalar" else 2
        try:
            with warnings.catch_warnings():
                # a body without values is reported below, as too short
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning)
                data = np.loadtxt(fh, comments="#", ndmin=2)
        except ValueError:
            data = None
        if data is None or data.shape[1] != want:
            fh.seek(0)
            data = _parse_rows(fh.readlines()[header_line:], header_line + 1,
                               want)
    if len(data) != nx * ny:
        raise DimensionMismatch(
            f"{len(data)} value lines for a {nx}x{ny} grid")
    if kind == "scalar":
        return ScalarField(grid, data[:, 0])
    return VectorField(grid, data[:, 0], data[:, 1])
