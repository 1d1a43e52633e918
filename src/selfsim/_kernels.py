"""Hot numeric kernels, in numpy: the 9-point stencil and the tracer.

``apply_stencil`` applies the frozen-coefficient operator at interior
nodes.  ``trace_all`` integrates characteristics of a bilinear drift from
many start points at once (semi-Lagrangian vorticity transport), each until
it reaches a foot point _REACH cells upstream or leaves the frame; it is
drift_table then trace_table, which a caller tracing many times on one
drift calls itself.  Both kernels are deterministic.
"""

from __future__ import annotations

import importlib.util

import numpy as np

# Backend report, read only by the benchmark harness (perfbench/worker.py);
# nothing in selfsim reads these two names.  find_spec looks the package up
# without importing it.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None


def use_numba() -> bool:
    return False


TRACE_EXITED = 0
TRACE_STAGNATION = 1
TRACE_MAXLEN = 2
TRACE_FOOT = 3

# a path stops at a foot point this many cells (of the larger spacing) from
# its start: the 4 x 4 cubic stencil of the foot's cell lies within 2 cells
# of the foot on each axis (2.83 on a diagonal), so at 3 cells it never
# holds the start node, which the ordered fill needs
_REACH = 3


def apply_stencil(coef, f):
    """Apply a 9-point stencil at interior nodes; frame nodes pass through."""
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


# ---------------------------------------------------------------------------
# characteristic tracing (semi-Lagrangian transport)
#
# Integrates d(xi)/dr = sgn * b(xi) with midpoint RK2 (bilinear interpolation
# makes the drift b = (gx, gy) only C0 across cell edges, so a higher order
# gains nothing) and the trapezoid quadrature of (1 + div b) along the path;
# the sample at a step's new point is the next step's k1, so a step takes two
# samples.  A path ends on stagnation of |b|, at path length max_len, at a
# foot point, or when a step leaves the frame: that sub-step is bisected 48
# times onto the boundary and the hit point is snapped onto the closest
# side.  A step's new point is a foot (TRACE_FOOT) when it lies at least
# _REACH * max(hx, hy) from the path's start (np.hypot) and in a cell whose
# 4 x 4 cubic stencil fits inside the grid, cells 1 .. n - 3 on each axis;
# the caller interpolates there from nodes it has already solved, so a path
# takes O(1) steps, not O(1 / h).  Without the cell rule, a clamped stencil
# next to the frame can hold the start node itself.
# All live nodes march together, one full step at a time; a node whose step
# would leave the frame records its start point and leaves the march.  After
# the march one batched bisection runs over all crossed nodes, so it runs
# only for paths that reach the frame before a foot.  A bisection depends
# only on the node's own start point, so each node sees the same arithmetic
# as when bisected at the step it crossed.
#
# Samples gather from one corner table per call, holding for each cell's
# lower-left node p the corners p, p + 1, p + nx, p + nx + 1 of (sgn gx,
# sgn gy, div b).  The sign sits in the table: negation is exact and commutes
# with the bilinear formula's products and sums, so a sample equals sgn * b
# bit for bit (an exactly cancelled zero may differ in sign only).  Cell
# indices truncate and clamp at 0, which gives floor's index, so the tracer
# matches its scalar reference (tests/scalar_tracer.py) bit for bit.


def _corners(fields, x0, y0, hx, hy, nx, ny):
    """Corner table (4k, base nodes) of stacked fields (k, ny, nx): row
    4q + c holds field q at corner c of each cell; and its grid."""
    flat = fields.reshape(len(fields), -1)
    w = flat.shape[1] - nx - 1
    tab = np.stack([flat[:, o:o + w] for o in (0, 1, nx, nx + 1)], axis=1)
    geom = (np.array([[x0], [y0]]), np.array([[hx], [hy]]),
            np.array([[nx - 2], [ny - 2]]), nx)
    return tab.reshape(-1, w), geom


def _sample(tab, pts, geom):
    """Bilinear samples (k, m) at points pts (2, m) of a corner table."""
    lo, h, top, nx = geom
    t = (pts - lo) / h
    c = t.astype(np.int64)
    np.maximum(c, 0, out=c)
    np.minimum(c, top, out=c)
    a = t - c
    b = 1.0 - a
    f = tab.take(c[1] * nx + c[0], axis=1)
    f = f.reshape(len(tab) // 4, 2, 2, -1)  # field, row, column, point
    g = b[0] * f[:, :, 0] + a[0] * f[:, :, 1]
    return b[1] * g[:, 0] + a[1] * g[:, 1]


def _rk2(tab, p, k1, dt, geom):
    """Midpoint RK2 step of length dt from p (2, m); k1 = sgn * b(p)."""
    return p + dt * _sample(tab, p + 0.5 * dt * k1, geom)


def trace_all(gx, gy, gdiv, xs, ys, sgn, step, max_len, stag_tol,
              x0, x1, y0, y1, hx, hy, nx, ny):
    """Trace characteristics from every start point; see the comment above.

    Returns (accumulated integral, hit x, hit y, status, path length) per
    start point; the length is the march steps times ``step``, plus the
    bisected sub-step of an exited path.  The status is TRACE_EXITED (hit
    on the frame), TRACE_FOOT (hit at the first step point _REACH cells from
    the start whose cell is 1 .. n - 3 on both axes), TRACE_STAGNATION or
    TRACE_MAXLEN.
    """
    return trace_table(drift_table(gx, gy, gdiv, sgn, x0, y0, hx, hy, nx, ny),
                       xs, ys, step, max_len, stag_tol, x0, x1, y0, y1)


def drift_table(gx, gy, gdiv, sgn, x0, y0, hx, hy, nx, ny):
    """Corner table of (sgn gx, sgn gy, gdiv) and its grid, for trace_table."""
    return _corners(np.stack([sgn * gx, sgn * gy, gdiv]),
                    x0, y0, hx, hy, nx, ny)


def trace_table(table, xs, ys, step, max_len, stag_tol, x0, x1, y0, y1):
    """trace_all on the drift of a drift_table, built once for many calls."""
    tab, geom = table
    txy, tdiv = tab[:8], tab[8:]
    lo, h, top = geom[:3]
    reach = _REACH * h.max()
    frame_lo, frame_hi = np.array([[x0], [y0]]), np.array([[x1], [y1]])

    def inside(q):
        return ((frame_lo <= q) & (q <= frame_hi)).all(axis=0)

    n = xs.size
    acc = np.zeros(n)
    length = np.zeros(n)
    hit = np.array([xs, ys], dtype=float)
    status = np.full(n, TRACE_MAXLEN, np.int8)
    # the march keeps only live nodes: ids, start points p0, points p, sums
    # a, and the samples s = (sgn bx, sgn by, div b) at p, which the next
    # step reuses
    ids, p0, p, a = np.arange(n), hit.copy(), hit.copy(), acc.copy()
    s = _sample(tab, p, geom)
    crossed = []  # per step: ids, start points, sums, k1, g0, lengths
    n_steps = int(np.ceil(max_len / step))
    for steps in range(n_steps):
        if not ids.size:
            break
        stag = np.hypot(s[0], s[1]) < stag_tol
        k1 = s[:2]
        g0 = 1.0 + s[2]
        pn = _rk2(txy, p, k1, step, geom)
        ok = inside(pn)
        keep = ok & ~stag
        if not keep.all():
            hit[:, ids[stag]] = p[:, stag]
            acc[ids[stag]] = a[stag]
            length[ids[stag]] = steps * step
            status[ids[stag]] = TRACE_STAGNATION
            out = ~ok & ~stag
            crossed.append((ids[out], p[:, out], a[out], k1[:, out], g0[out],
                            np.full(np.count_nonzero(out), steps * step)))
            ids, p0, pn, a, g0 = (ids[keep], p0[:, keep], pn[:, keep],
                                  a[keep], g0[keep])
        s = _sample(tab, pn, geom)
        a = a + 0.5 * step * (g0 + (1.0 + s[2]))
        p = pn
        # points are inside the frame, so truncation is floor
        c = ((p - lo) / h).astype(np.int64)
        foot = ((np.hypot(p[0] - p0[0], p[1] - p0[1]) >= reach)
                & ((1 <= c) & (c < top)).all(axis=0))
        if foot.any():
            hit[:, ids[foot]] = p[:, foot]
            acc[ids[foot]] = a[foot]
            length[ids[foot]] = (steps + 1) * step
            status[ids[foot]] = TRACE_FOOT
            live = ~foot
            ids, p0, p, a, s = (ids[live], p0[:, live], p[:, live], a[live],
                                s[:, live])
    hit[:, ids] = p
    acc[ids] = a
    length[ids] = n_steps * step
    if crossed:
        # one batched bisection of the crossing sub-step onto the boundary
        ids, p, a, k1, g0, r = (np.concatenate(c, axis=-1)
                                for c in zip(*crossed))
        lo = np.zeros(ids.size)
        hi = np.full(ids.size, step)
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            ok = inside(_rk2(txy, p, k1, mid, geom))
            lo = np.where(ok, mid, lo)
            hi = np.where(ok, hi, mid)
        pb = _rk2(txy, p, k1, lo, geom)
        xb, yb = pb
        g1 = 1.0 + _sample(tdiv, pb, geom)[0]
        acc[ids] = a + 0.5 * lo * (g0 + g1)
        length[ids] = r + lo
        # snap the closest bound onto the boundary
        side = np.argmin(np.stack([xb - x0, x1 - xb, yb - y0, y1 - yb]), axis=0)
        hit[0, ids] = np.where(side == 0, x0, np.where(side == 1, x1, xb))
        hit[1, ids] = np.where(side == 2, y0, np.where(side == 3, y1, yb))
        status[ids] = TRACE_EXITED
    return acc, hit[0], hit[1], status, length
