"""Scalar reference of ``selfsim._kernels.trace_all``: one node at a time.

Plain Python loops over the same midpoint-RK2, bilinear-interpolation,
foot-point and 48-step exit-bisection arithmetic as the batched numpy
tracer, which must match it bit for bit (tests/test_kernels.py).
"""

import numpy as np

from selfsim._kernels import (_REACH, TRACE_EXITED, TRACE_FOOT, TRACE_MAXLEN,
                               TRACE_STAGNATION)


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


def _rk2_step(gx, gy, x, y, dt, sgn, x0, y0, hx, hy, nx, ny):
    k1x = sgn * _bilinear(gx, x, y, x0, y0, hx, hy, nx, ny)
    k1y = sgn * _bilinear(gy, x, y, x0, y0, hx, hy, nx, ny)
    k2x = sgn * _bilinear(gx, x + 0.5 * dt * k1x, y + 0.5 * dt * k1y,
                          x0, y0, hx, hy, nx, ny)
    k2y = sgn * _bilinear(gy, x + 0.5 * dt * k1x, y + 0.5 * dt * k1y,
                          x0, y0, hx, hy, nx, ny)
    return x + dt * k2x, y + dt * k2y


def trace_all(gx, gy, gdiv, xs, ys, sgn, step, max_len, stag_tol,
              x0, x1, y0, y1, hx, hy, nx, ny):
    n = xs.size
    acc = np.zeros(n)
    hitx = np.empty(n)
    hity = np.empty(n)
    status = np.empty(n, np.int8)
    length = np.empty(n)
    reach = _REACH * max(hx, hy)
    for k in range(n):
        x = xs[k]
        y = ys[k]
        r = 0.0
        a = 0.0
        st = TRACE_MAXLEN
        for steps in range(int(np.ceil(max_len / step))):
            bx = _bilinear(gx, x, y, x0, y0, hx, hy, nx, ny)
            by = _bilinear(gy, x, y, x0, y0, hx, hy, nx, ny)
            if np.sqrt(bx * bx + by * by) < stag_tol:
                st = TRACE_STAGNATION
                break
            g0 = 1.0 + _bilinear(gdiv, x, y, x0, y0, hx, hy, nx, ny)
            xn, yn = _rk2_step(gx, gy, x, y, step, sgn, x0, y0, hx, hy, nx, ny)
            if x0 <= xn <= x1 and y0 <= yn <= y1:
                g1 = 1.0 + _bilinear(gdiv, xn, yn, x0, y0, hx, hy, nx, ny)
                a += 0.5 * step * (g0 + g1)
                x = xn
                y = yn
                r = (steps + 1) * step
                i = int(np.floor((x - x0) / hx))
                j = int(np.floor((y - y0) / hy))
                if (np.hypot(x - xs[k], y - ys[k]) >= reach
                        and 1 <= i <= nx - 3 and 1 <= j <= ny - 3):
                    st = TRACE_FOOT
                    break
            else:
                lo = 0.0
                hi = step
                for _ in range(48):
                    mid = 0.5 * (lo + hi)
                    xm, ym = _rk2_step(gx, gy, x, y, mid, sgn,
                                       x0, y0, hx, hy, nx, ny)
                    if x0 <= xm <= x1 and y0 <= ym <= y1:
                        lo = mid
                    else:
                        hi = mid
                xn, yn = _rk2_step(gx, gy, x, y, lo, sgn,
                                   x0, y0, hx, hy, nx, ny)
                g1 = 1.0 + _bilinear(gdiv, xn, yn, x0, y0, hx, hy, nx, ny)
                a += 0.5 * lo * (g0 + g1)
                r = steps * step + lo
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
        length[k] = r
    return acc, hitx, hity, status, length
