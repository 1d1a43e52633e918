"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

The backend is picked from the SELFSIM_BACKEND environment variable:
"numba" (require numba), "numpy" (force the fallback), or "auto" (default:
numba when importable).  Both paths are deterministic; they may differ by
floating-point rounding only.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # numba is optional: the `fast` extra
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn
        if args and callable(args[0]):
            return args[0]
        return wrap


TRACE_EXITED = 0
TRACE_STAGNATION = 1
TRACE_MAXLEN = 2


def use_numba() -> bool:
    mode = os.environ.get("SELFSIM_BACKEND", "auto").lower()
    if mode == "numpy":
        return False
    if mode == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError("SELFSIM_BACKEND=numba but numba is not importable")
        return True
    return HAVE_NUMBA


# ---------------------------------------------------------------------------
# 9-point variable-coefficient stencil application (frozen operator)


def _apply_stencil_numpy(coef, f):
    cc, ce, cw, cn, cs, cne, cnw, cse, csw = coef
    out = f.copy()
    out[1:-1, 1:-1] = (
        cc[1:-1, 1:-1] * f[1:-1, 1:-1]
        + ce[1:-1, 1:-1] * f[1:-1, 2:]
        + cw[1:-1, 1:-1] * f[1:-1, :-2]
        + cn[1:-1, 1:-1] * f[2:, 1:-1]
        + cs[1:-1, 1:-1] * f[:-2, 1:-1]
        + cne[1:-1, 1:-1] * f[2:, 2:]
        + cnw[1:-1, 1:-1] * f[2:, :-2]
        + cse[1:-1, 1:-1] * f[:-2, 2:]
        + csw[1:-1, 1:-1] * f[:-2, :-2]
    )
    return out


@njit(cache=True)
def _apply_stencil_numba(cc, ce, cw, cn, cs, cne, cnw, cse, csw, f):
    ny, nx = f.shape
    out = f.copy()
    for j in range(1, ny - 1):
        for i in range(1, nx - 1):
            out[j, i] = (
                cc[j, i] * f[j, i]
                + ce[j, i] * f[j, i + 1]
                + cw[j, i] * f[j, i - 1]
                + cn[j, i] * f[j + 1, i]
                + cs[j, i] * f[j - 1, i]
                + cne[j, i] * f[j + 1, i + 1]
                + cnw[j, i] * f[j + 1, i - 1]
                + cse[j, i] * f[j - 1, i + 1]
                + csw[j, i] * f[j - 1, i - 1]
            )
    return out


def apply_stencil(coef, f):
    """Apply a 9-point stencil at interior nodes; frame nodes pass through."""
    if use_numba():
        return _apply_stencil_numba(*coef, np.ascontiguousarray(f))
    return _apply_stencil_numpy(coef, f)


# ---------------------------------------------------------------------------
# characteristic tracing (semi-Lagrangian transport)
#
# Integrates d(xi)/dr = sgn * b(xi) with RK4 and bilinear interpolation of the
# drift b = (gx, gy), accumulating the trapezoid quadrature of (1 + div b)
# along the path.  A path ends on stagnation of |b|, at path length max_len,
# or when a step leaves the frame: that sub-step is bisected 48 times onto
# the boundary and the hit point is snapped onto the closest side.
# The numpy path marches all live nodes together, one full step at a time; a
# node whose step would leave the frame records its start point and leaves
# the march.  After the march one batched bisection runs over all crossed
# nodes.  A bisection depends only on the node's own start point, so each
# node sees the same arithmetic as when bisected at the step it crossed.


@njit(cache=True)
def _bilinear(field, x, y, x0, y0, hx, hy, nx, ny):
    tx = (x - x0) / hx
    ty = (y - y0) / hy
    i = int(np.floor(tx))
    j = int(np.floor(ty))
    if i < 0:
        i = 0
    if i > nx - 2:
        i = nx - 2
    if j < 0:
        j = 0
    if j > ny - 2:
        j = ny - 2
    ax = tx - i
    ay = ty - j
    f00 = field[j, i]
    f01 = field[j, i + 1]
    f10 = field[j + 1, i]
    f11 = field[j + 1, i + 1]
    return (1.0 - ay) * ((1.0 - ax) * f00 + ax * f01) + ay * (
        (1.0 - ax) * f10 + ax * f11)


@njit(cache=True)
def _rk4_step(gx, gy, x, y, dt, sgn, x0, y0, hx, hy, nx, ny):
    k1x = sgn * _bilinear(gx, x, y, x0, y0, hx, hy, nx, ny)
    k1y = sgn * _bilinear(gy, x, y, x0, y0, hx, hy, nx, ny)
    k2x = sgn * _bilinear(gx, x + 0.5 * dt * k1x, y + 0.5 * dt * k1y,
                          x0, y0, hx, hy, nx, ny)
    k2y = sgn * _bilinear(gy, x + 0.5 * dt * k1x, y + 0.5 * dt * k1y,
                          x0, y0, hx, hy, nx, ny)
    k3x = sgn * _bilinear(gx, x + 0.5 * dt * k2x, y + 0.5 * dt * k2y,
                          x0, y0, hx, hy, nx, ny)
    k3y = sgn * _bilinear(gy, x + 0.5 * dt * k2x, y + 0.5 * dt * k2y,
                          x0, y0, hx, hy, nx, ny)
    k4x = sgn * _bilinear(gx, x + dt * k3x, y + dt * k3y,
                          x0, y0, hx, hy, nx, ny)
    k4y = sgn * _bilinear(gy, x + dt * k3x, y + dt * k3y,
                          x0, y0, hx, hy, nx, ny)
    xn = x + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    yn = y + dt / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    return xn, yn


@njit(cache=True)
def _trace_all_numba(gx, gy, gdiv, xs, ys, sgn, step, max_len, stag_tol,
                     x0, x1, y0, y1, hx, hy, nx, ny):
    n = xs.size
    acc = np.zeros(n)
    hitx = np.empty(n)
    hity = np.empty(n)
    status = np.empty(n, np.int8)
    for k in range(n):
        x = xs[k]
        y = ys[k]
        r = 0.0
        a = 0.0
        st = TRACE_MAXLEN
        while r < max_len:
            bx = _bilinear(gx, x, y, x0, y0, hx, hy, nx, ny)
            by = _bilinear(gy, x, y, x0, y0, hx, hy, nx, ny)
            if np.sqrt(bx * bx + by * by) < stag_tol:
                st = TRACE_STAGNATION
                break
            g0 = 1.0 + _bilinear(gdiv, x, y, x0, y0, hx, hy, nx, ny)
            xn, yn = _rk4_step(gx, gy, x, y, step, sgn, x0, y0, hx, hy, nx, ny)
            if x0 <= xn <= x1 and y0 <= yn <= y1:
                g1 = 1.0 + _bilinear(gdiv, xn, yn, x0, y0, hx, hy, nx, ny)
                a += 0.5 * step * (g0 + g1)
                x = xn
                y = yn
                r += step
            else:
                lo = 0.0
                hi = step
                for _ in range(48):
                    mid = 0.5 * (lo + hi)
                    xm, ym = _rk4_step(gx, gy, x, y, mid, sgn,
                                       x0, y0, hx, hy, nx, ny)
                    if x0 <= xm <= x1 and y0 <= ym <= y1:
                        lo = mid
                    else:
                        hi = mid
                xn, yn = _rk4_step(gx, gy, x, y, lo, sgn,
                                   x0, y0, hx, hy, nx, ny)
                g1 = 1.0 + _bilinear(gdiv, xn, yn, x0, y0, hx, hy, nx, ny)
                a += 0.5 * lo * (g0 + g1)
                # snap the closest bound onto the boundary
                dl = xn - x0
                dr = x1 - xn
                db = yn - y0
                dt2 = y1 - yn
                m = min(min(dl, dr), min(db, dt2))
                if m == dl:
                    xn = x0
                elif m == dr:
                    xn = x1
                elif m == db:
                    yn = y0
                else:
                    yn = y1
                x = xn
                y = yn
                st = TRACE_EXITED
                break
        acc[k] = a
        hitx[k] = x
        hity[k] = y
        status[k] = st
    return acc, hitx, hity, status


def _sample_np(fields, x, y, x0, y0, hx, hy, nx, ny):
    """Bilinear samples (k, m) of stacked fields (k, ny, nx) at points.

    One cell index, one set of weights and one gather serve all k fields.
    """
    tx = (x - x0) / hx
    ty = (y - y0) / hy
    i = np.minimum(np.maximum(np.floor(tx).astype(np.int64), 0), nx - 2)
    j = np.minimum(np.maximum(np.floor(ty).astype(np.int64), 0), ny - 2)
    ax = tx - i
    ay = ty - j
    p = j * nx + i
    f = np.take(fields.reshape(len(fields), -1),
                np.stack([p, p + 1, p + nx, p + nx + 1]), axis=1)
    return (1.0 - ay) * ((1.0 - ax) * f[:, 0] + ax * f[:, 1]) + ay * (
        (1.0 - ax) * f[:, 2] + ax * f[:, 3])


def _rk4_np(gxy, p, k1, dt, sgn, geom):
    """RK4 step of length dt from points p (2, m); k1 = sgn * b(p) is given."""
    k2 = sgn * _sample_np(gxy, *(p + 0.5 * dt * k1), *geom)
    k3 = sgn * _sample_np(gxy, *(p + 0.5 * dt * k2), *geom)
    k4 = sgn * _sample_np(gxy, *(p + dt * k3), *geom)
    return p + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _trace_all_numpy(gx, gy, gdiv, xs, ys, sgn, step, max_len, stag_tol,
                     x0, x1, y0, y1, hx, hy, nx, ny):
    geom = (x0, y0, hx, hy, nx, ny)
    fields = np.stack([gx, gy, gdiv])
    gxy = fields[:2]

    def inside(q):
        return (x0 <= q[0]) & (q[0] <= x1) & (y0 <= q[1]) & (q[1] <= y1)

    n = xs.size
    acc = np.zeros(n)
    hit = np.stack([xs, ys])
    status = np.full(n, TRACE_MAXLEN, np.int8)
    # the march keeps only live nodes: ids, points p, sums a, and the samples
    # s = (bx, by, div b) at p, which the next step reuses
    ids, p, a = np.arange(n), hit.copy(), acc.copy()
    s = _sample_np(fields, *p, *geom)
    crossed = []  # per step: ids, start points, sums, k1, g0
    for _ in range(int(np.ceil(max_len / step))):
        if not ids.size:
            break
        stag = np.hypot(s[0], s[1]) < stag_tol
        k1 = sgn * s[:2]
        g0 = 1.0 + s[2]
        pn = _rk4_np(gxy, p, k1, step, sgn, geom)
        ok = inside(pn)
        keep = ok & ~stag
        if not keep.all():
            hit[:, ids[stag]] = p[:, stag]
            acc[ids[stag]] = a[stag]
            status[ids[stag]] = TRACE_STAGNATION
            out = ~ok & ~stag
            crossed.append((ids[out], p[:, out], a[out], k1[:, out], g0[out]))
            ids, pn, a, g0 = ids[keep], pn[:, keep], a[keep], g0[keep]
        s = _sample_np(fields, *pn, *geom)
        a = a + 0.5 * step * (g0 + (1.0 + s[2]))
        p = pn
    hit[:, ids] = p
    acc[ids] = a
    if crossed:
        # one batched bisection of the crossing sub-step onto the boundary
        ids, p, a, k1, g0 = (np.concatenate(c, axis=-1) for c in zip(*crossed))
        lo = np.zeros(ids.size)
        hi = np.full(ids.size, step)
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            ok = inside(_rk4_np(gxy, p, k1, mid, sgn, geom))
            lo = np.where(ok, mid, lo)
            hi = np.where(ok, hi, mid)
        xb, yb = _rk4_np(gxy, p, k1, lo, sgn, geom)
        g1 = 1.0 + _sample_np(fields[2:], xb, yb, *geom)[0]
        acc[ids] = a + 0.5 * lo * (g0 + g1)
        # snap the closest bound onto the boundary
        side = np.argmin(np.stack([xb - x0, x1 - xb, yb - y0, y1 - yb]), axis=0)
        hit[0, ids] = np.where(side == 0, x0, np.where(side == 1, x1, xb))
        hit[1, ids] = np.where(side == 2, y0, np.where(side == 3, y1, yb))
        status[ids] = TRACE_EXITED
    return acc, hit[0], hit[1], status


def trace_all(gx, gy, gdiv, xs, ys, sgn, step, max_len, stag_tol,
              x0, x1, y0, y1, hx, hy, nx, ny):
    """Trace characteristics from every start point; see module docstring."""
    args = (np.ascontiguousarray(gx), np.ascontiguousarray(gy),
            np.ascontiguousarray(gdiv),
            np.ascontiguousarray(xs, dtype=float),
            np.ascontiguousarray(ys, dtype=float),
            float(sgn), float(step), float(max_len), float(stag_tol),
            float(x0), float(x1), float(y0), float(y1),
            float(hx), float(hy), int(nx), int(ny))
    if use_numba():
        return _trace_all_numba(*args)
    return _trace_all_numpy(*args)
