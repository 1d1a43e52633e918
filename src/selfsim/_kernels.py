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
# along the path.  Terminates on domain exit (sub-step bisected onto the
# boundary), stagnation of |b|, or path length max_len.


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


def _bilinear_np(field, x, y, x0, y0, hx, hy, nx, ny):
    tx = (x - x0) / hx
    ty = (y - y0) / hy
    i = np.clip(np.floor(tx).astype(np.int64), 0, nx - 2)
    j = np.clip(np.floor(ty).astype(np.int64), 0, ny - 2)
    ax = tx - i
    ay = ty - j
    f00 = field[j, i]
    f01 = field[j, i + 1]
    f10 = field[j + 1, i]
    f11 = field[j + 1, i + 1]
    return (1.0 - ay) * ((1.0 - ax) * f00 + ax * f01) + ay * (
        (1.0 - ax) * f10 + ax * f11)


def _rk4_step_np(gx, gy, x, y, dt, sgn, x0, y0, hx, hy, nx, ny):
    def b(px, py):
        return (sgn * _bilinear_np(gx, px, py, x0, y0, hx, hy, nx, ny),
                sgn * _bilinear_np(gy, px, py, x0, y0, hx, hy, nx, ny))

    k1x, k1y = b(x, y)
    k2x, k2y = b(x + 0.5 * dt * k1x, y + 0.5 * dt * k1y)
    k3x, k3y = b(x + 0.5 * dt * k2x, y + 0.5 * dt * k2y)
    k4x, k4y = b(x + dt * k3x, y + dt * k3y)
    xn = x + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    yn = y + dt / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    return xn, yn


def _trace_all_numpy(gx, gy, gdiv, xs, ys, sgn, step, max_len, stag_tol,
                     x0, x1, y0, y1, hx, hy, nx, ny):
    n = xs.size
    x = xs.copy()
    y = ys.copy()
    acc = np.zeros(n)
    status = np.full(n, TRACE_MAXLEN, np.int8)
    active = np.ones(n, bool)
    nsteps = int(np.ceil(max_len / step))
    for _ in range(nsteps):
        if not active.any():
            break
        ia = np.nonzero(active)[0]
        xa, ya = x[ia], y[ia]
        bx = _bilinear_np(gx, xa, ya, x0, y0, hx, hy, nx, ny)
        by = _bilinear_np(gy, xa, ya, x0, y0, hx, hy, nx, ny)
        stag = np.hypot(bx, by) < stag_tol
        if stag.any():
            idx = ia[stag]
            status[idx] = TRACE_STAGNATION
            active[idx] = False
            ia = ia[~stag]
            if ia.size == 0:
                continue
            xa, ya = x[ia], y[ia]
        g0 = 1.0 + _bilinear_np(gdiv, xa, ya, x0, y0, hx, hy, nx, ny)
        xn, yn = _rk4_step_np(gx, gy, xa, ya, step, sgn, x0, y0, hx, hy, nx, ny)
        inside = (x0 <= xn) & (xn <= x1) & (y0 <= yn) & (yn <= y1)
        # nodes that stay inside: full step
        ii = ia[inside]
        if ii.size:
            g1 = 1.0 + _bilinear_np(gdiv, xn[inside], yn[inside],
                                    x0, y0, hx, hy, nx, ny)
            acc[ii] += 0.5 * step * (g0[inside] + g1)
            x[ii] = xn[inside]
            y[ii] = yn[inside]
        # nodes that cross: bisect the sub-step onto the boundary
        io = ia[~inside]
        if io.size:
            px, py = x[io], y[io]
            lo = np.zeros(io.size)
            hi = np.full(io.size, step)
            for _ in range(48):
                mid = 0.5 * (lo + hi)
                xm, ym = _rk4_step_np(gx, gy, px, py, mid, sgn,
                                      x0, y0, hx, hy, nx, ny)
                ok = (x0 <= xm) & (xm <= x1) & (y0 <= ym) & (ym <= y1)
                lo = np.where(ok, mid, lo)
                hi = np.where(ok, hi, mid)
            xb, yb = _rk4_step_np(gx, gy, px, py, lo, sgn,
                                  x0, y0, hx, hy, nx, ny)
            g1 = 1.0 + _bilinear_np(gdiv, xb, yb, x0, y0, hx, hy, nx, ny)
            acc[io] += 0.5 * lo * (g0[~inside] + g1)
            d = np.stack([xb - x0, x1 - xb, yb - y0, y1 - yb])
            side = np.argmin(d, axis=0)
            xb = np.where(side == 0, x0, np.where(side == 1, x1, xb))
            yb = np.where(side == 2, y0, np.where(side == 3, y1, yb))
            x[io] = xb
            y[io] = yb
            status[io] = TRACE_EXITED
            active[io] = False
    return acc, x, y, status


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
