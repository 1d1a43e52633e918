"""Scalar reference of ``selfsim._kernels.trace_all``: one node at a time.

Plain Python loops over the same per-node midpoint-RK2 step upstream,
bilinear-interpolation, foot-point and Illinois exit arithmetic as the
batched numpy tracer, which must match it bit for bit, the side each exit
crosses included (tests/test_kernels.py).  With ``bisect=True`` the exit
is found by 48 halvings of the crossing sub-step instead, the reference
for the root find's accuracy.
"""

import numpy as np

from selfsim._kernels import (_EXIT_ITERS, _REACH, _STAG_TOL, TRACE_EXITED,
                               TRACE_FOOT, TRACE_MAXLEN, TRACE_STAGNATION)


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


def _rk2_step(gx, gy, x, y, dt, x0, y0, hx, hy, nx, ny):
    """Midpoint RK2 step of length dt along -b."""
    k1x = -_bilinear(gx, x, y, x0, y0, hx, hy, nx, ny)
    k1y = -_bilinear(gy, x, y, x0, y0, hx, hy, nx, ny)
    k2x = -_bilinear(gx, x + 0.5 * dt * k1x, y + 0.5 * dt * k1y,
                     x0, y0, hx, hy, nx, ny)
    k2y = -_bilinear(gy, x + 0.5 * dt * k1x, y + 0.5 * dt * k1y,
                     x0, y0, hx, hy, nx, ny)
    return x + dt * k2x, y + dt * k2y


def _dist(x, y, x0, x1, y0, y1):
    """Signed distances outside the four sides, 0 .. 3 for x0, y0, x1, y1."""
    return [x0 - x, y0 - y, x - x1, y - y1]


def _gap(d):
    """Largest signed distance outside the frame and its side (the first of
    equal distances)."""
    g = max(d)
    return g, d.index(g)


def _lipschitz(gx, gy, hx, hy):
    """Bound on |b(q) - b(p)| / |q - p| of the bilinear drift."""
    total = 0.0
    for f in (gx, gy):
        total += (np.abs(np.diff(f, axis=1)) / hx).max(initial=0.0) ** 2
        total += (np.abs(np.diff(f, axis=0)) / hy).max(initial=0.0) ** 2
    return np.sqrt(total)


def trace_all(gx, gy, gdiv, nodes, step, max_len, grid, bisect=False):
    x0, x1, y0, y1 = grid.x0, grid.x1, grid.y0, grid.y1
    hx, hy, nx, ny = grid.hx, grid.hy, grid.nx, grid.ny
    xs = grid.xi1[nodes % nx]
    ys = grid.xi2[nodes // nx]
    n = xs.size
    acc = np.zeros(n)
    hitx = np.empty(n)
    hity = np.empty(n)
    status = np.empty(n, np.int8)
    length = np.empty(n)
    exit_side = np.full(n, -1, np.int8)
    reach = _REACH * max(hx, hy)
    geom = (x0, y0, hx, hy, nx, ny)
    floor = max(_lipschitz(gx, gy, hx, hy) * reach, _STAG_TOL)
    for k in range(n):
        x = xs[k]
        y = ys[k]
        bx = _bilinear(gx, x, y, *geom)
        by = _bilinear(gy, x, y, *geom)
        dt = step / max(np.hypot(bx, by), floor)
        m = np.ceil(max_len / dt)
        r = 0.0
        a = 0.0
        st = TRACE_MAXLEN
        steps = 0
        while steps < m:
            bx = _bilinear(gx, x, y, *geom)
            by = _bilinear(gy, x, y, *geom)
            if np.hypot(bx, by) < _STAG_TOL:
                st = TRACE_STAGNATION
                break
            g0 = 1.0 + _bilinear(gdiv, x, y, *geom)
            xn, yn = _rk2_step(gx, gy, x, y, dt, *geom)
            if x0 <= xn <= x1 and y0 <= yn <= y1:
                g1 = 1.0 + _bilinear(gdiv, xn, yn, *geom)
                a += 0.5 * dt * (g0 + g1)
                x = xn
                y = yn
                steps += 1
                r = steps * dt
                i = int(np.floor((x - x0) / hx))
                j = int(np.floor((y - y0) / hy))
                if (np.hypot(x - xs[k], y - ys[k]) >= reach
                        and 1 <= i <= nx - 3 and 1 <= j <= ny - 3):
                    st = TRACE_FOOT
                    break
                continue
            lo = 0.0
            hi = dt
            fhi, side = _gap(_dist(xn, yn, x0, x1, y0, y1))
            if bisect:
                for _ in range(48):
                    mid = 0.5 * (lo + hi)
                    xm, ym = _rk2_step(gx, gy, x, y, mid, *geom)
                    g, gside = _gap(_dist(xm, ym, x0, x1, y0, y1))
                    if g > 0.0:
                        hi = mid
                        side = gside
                    else:
                        lo = mid
            else:
                # regula falsi on the distance outside the side crossed
                dlo = _dist(x, y, x0, x1, y0, y1)
                flo = dlo[side]
                moved = 0
                for _ in range(_EXIT_ITERS):
                    t = lo - flo * (hi - lo) / (fhi - flo)
                    xm, ym = _rk2_step(gx, gy, x, y, t, *geom)
                    d = _dist(xm, ym, x0, x1, y0, y1)
                    g, gside = _gap(d)
                    if g > 0.0:
                        if moved > 0:
                            flo = 0.5 * flo
                        if gside != side:
                            flo = dlo[gside]
                        hi = t
                        fhi = g
                        side = gside
                        moved = 1
                    else:
                        if moved < 0:
                            fhi = 0.5 * fhi
                        lo = t
                        dlo = d
                        flo = d[side]
                        moved = -1
            xn, yn = _rk2_step(gx, gy, x, y, lo, *geom)
            g1 = 1.0 + _bilinear(gdiv, xn, yn, *geom)
            a += 0.5 * lo * (g0 + g1)
            r = steps * dt + lo
            # snap onto the side that the step crosses
            if side == 0:
                xn = x0
            elif side == 1:
                yn = y0
            elif side == 2:
                xn = x1
            else:
                yn = y1
            x = xn
            y = yn
            st = TRACE_EXITED
            exit_side[k] = side
            break
        else:
            r = steps * dt
        acc[k] = a
        hitx[k] = x
        hity[k] = y
        status[k] = st
        length[k] = r
    return acc, hitx, hity, status, length, exit_side
