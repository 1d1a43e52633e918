"""Hot numeric kernels, in numpy: the 9-point stencil and the tracer.

``apply_stencil`` applies the frozen-coefficient operator at interior
nodes.  ``trace_all`` integrates characteristics of a bilinear drift
upstream from many grid nodes at once (semi-Lagrangian vorticity
transport), each until it reaches a foot point _REACH cells upstream or
leaves the frame, and reports the frame side that each exit crosses.  Both
kernels are deterministic.
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

# |b| below which a characteristic stagnates
_STAG_TOL = 1e-14

# a path stops at a foot point this many cells (of the larger spacing) from
# its start: the 4 x 4 cubic stencil of the foot's cell lies within 2 cells
# of the foot on each axis (2.83 on a diagonal), so at 3 cells it never
# holds the start node, which the ordered fill needs
_REACH = 3


def apply_stencil(coef, f):
    """Apply a 9-point stencil (cc, ce, cw, cn, cs, cne, cnw, cse, csw) at
    interior nodes, or the 5-point one of its first five arrays when coef
    holds only those; frame nodes pass through."""
    cc, ce, cw, cn, cs = coef[:5]
    out = f.copy()
    inner = (
        cc[1:-1, 1:-1] * f[1:-1, 1:-1]
        + ce[1:-1, 1:-1] * f[1:-1, 2:]
        + cw[1:-1, 1:-1] * f[1:-1, :-2]
        + cn[1:-1, 1:-1] * f[2:, 1:-1]
        + cs[1:-1, 1:-1] * f[:-2, 1:-1]
    )
    if len(coef) == 9:
        # in place: a sum into a new array would allocate one more array
        # per call, where numpy's chained sum reuses its temporary
        cne, cnw, cse, csw = coef[5:]
        inner += cne[1:-1, 1:-1] * f[2:, 2:]
        inner += cnw[1:-1, 1:-1] * f[2:, :-2]
        inner += cse[1:-1, 1:-1] * f[:-2, 2:]
        inner += csw[1:-1, 1:-1] * f[:-2, :-2]
    out[1:-1, 1:-1] = inner
    return out


# ---------------------------------------------------------------------------
# characteristic tracing (semi-Lagrangian transport)
#
# Integrates d(xi)/dr = -b(xi), upstream, with midpoint RK2 (bilinear
# interpolation makes the drift b = (gx, gy) only C0 across cell edges, so a
# higher order gains nothing) and the trapezoid quadrature of (1 + div b)
# along the path; the sample at a step's new point is the next step's k1, so
# a step takes two samples.  Each node takes its own r-step dt = step / |b(p0)|, so ``step`` is
# the spatial length of a step at the start point and a slow node crosses its
# _REACH cells in as few steps as a fast one (semi-Lagrangian practice takes
# a trajectory's step from its local wind).  The speed is floored at
# lip * reach, lip a Lipschitz bound of the bilinear drift: a slower node
# may lie within its reach of a stagnation point, where |b| changes on the
# scale of a step, and the floor keeps dt * lip <= step / reach.  A path
# ends on stagnation of |b| (at step 0 when |b(p0)| < _STAG_TOL), at path
# length max_len, i.e. after ceil(max_len / dt) steps, at a foot point, or
# when a step leaves the frame.
# A step's new point is a foot (TRACE_FOOT) when it lies at least
# _REACH * max(hx, hy) from the path's start (np.hypot) and in a cell whose
# 4 x 4 cubic stencil fits inside the grid, cells 1 .. n - 3 on each axis;
# the caller interpolates there from nodes it has already solved, so a path
# takes O(1) steps, not O(1 / h).  Without the cell rule, a clamped stencil
# next to the frame can hold the start node itself.
# The start points go in blocks of _BLOCK.  All live nodes of a block march
# together, one step each at a time; a node whose step would leave the frame
# records its start point and leaves the march.  After the march one batched
# root find runs over all crossed nodes of the block: regula falsi
# with the Illinois modification, bracketed by [0, dt], for _EXIT_ITERS
# iterations, each keeping lo inside the frame and hi outside.  The secant
# runs on the signed distance outside the side that hi is farthest out of,
# the side the path crosses (on a path along a side the frame gap is 0 at
# lo, where a secant on it stalls), and the point of sub-step lo is snapped
# onto that side, which the call reports: the closest one (the one it ran
# along) may not be inflow.  Of sides equally far out, as at an exact
# corner, the first in the order x0, y0, x1, y1 is the one crossed.
# A root find depends only on the node's own crossing step, so each node
# sees the same arithmetic as when solved alone at the step it crossed, and
# the block size changes no bit of the result; it bounds the march's
# temporaries, a few hundred bytes per live node, to 1.3 MB at 4,096 on
# the 129^2 radial sink.  Freed at each block's end, they can exceed
# glibc's self-tuned trim threshold (twice the largest mapped block freed
# so far, 0.8 MB after the 400 kB field stack alone), and then the heap
# top is trimmed and faulted in again block after block.
#
# Samples read the stack of the three fields (-gx, -gy, div b), the
# only copy of them a call holds, one row of each point's cell at a time:
# takes at p and p + 1, then at p + nx and p + nx + 1, p the lower-left
# node.  Keep each temporary of a sample or a march step under 128 KiB at
# _BLOCK points (a (3, m) gather is 96 KiB): glibc serves a request of
# 128 KiB or more that no free chunk fits (its default mmap threshold) by
# a fresh mmap and unmaps it on free, so its pages fault afresh on every
# call; a (4, m) int64 index of the corners was exactly 128 KiB.  The
# upstream sign sits in the stack: negation is exact and commutes with the
# bilinear formula's products and sums, so a sample equals -b bit for bit
# (an exactly cancelled zero may differ in sign only).
# Cell indices truncate and clamp at 0, which gives floor's index, so the
# tracer matches its scalar reference (tests/scalar_tracer.py) bit for bit.

# Illinois iterations of the exit root find: on the radial, spiral,
# quasi-patch and shear drifts of tests/test_kernels.py eight land within
# 1.2e-14 dt of 48 halvings' crossing, six only within 8.7e-13 dt on the
# spiral
_EXIT_ITERS = 8
# start points marched and root-found at a time, see above
_BLOCK = 4096


def _corners(fields, grid):
    """The (k, nodes) view of stacked fields (k, ny, nx) on ``grid`` that
    _sample reads, and its geometry: origin, spacing, largest cell index
    and the row length nx."""
    geom = (np.array([[grid.x0], [grid.y0]]), np.array([[grid.hx], [grid.hy]]),
            np.array([[grid.nx - 2], [grid.ny - 2]]), grid.nx)
    return fields.reshape(len(fields), -1), geom


def _sample(tab, pts, geom):
    """Bilinear samples (k, m) of the fields tab (k, nodes) at points
    pts (2, m), one cell row at a time: the lower row from takes at p and
    p + 1, p each point's lower-left node, then the upper row at p + nx and
    p + nx + 1.  No temporary exceeds k m floats (see the tracer comment)."""
    lo, h, top, nx = geom
    t = (pts - lo) / h
    c = t.astype(np.int64)
    np.maximum(c, 0, out=c)
    np.minimum(c, top, out=c)
    a = t - c
    b = 1.0 - a
    p = c[1] * nx + c[0]
    g0 = b[0] * tab.take(p, axis=1) + a[0] * tab.take(p + 1, axis=1)
    p += nx
    g1 = b[0] * tab.take(p, axis=1) + a[0] * tab.take(p + 1, axis=1)
    return b[1] * g0 + a[1] * g1


def _rk2(tab, p, k1, dt, geom):
    """Midpoint RK2 step of length dt (m,) from p (2, m); k1 = -b(p)."""
    return p + dt * _sample(tab, p + 0.5 * dt * k1, geom)


def trace_all(gx, gy, gdiv, nodes, step, max_len, grid):
    """Trace characteristics upstream, along -b for the drift b = (gx, gy)
    with div b = gdiv on ``grid``, from the grid nodes of flat indices
    ``nodes``; see the comment above.

    ``step`` is the spatial length of a node's RK2 step at its start point:
    the node's r-step is dt = step / |b(p0)|, with |b(p0)| floored near a
    stagnation point (see above).  Returns (accumulated integral, hit x,
    hit y, status, path length, side) per start node; the length is the
    node's march steps times its dt, plus the sub-step of an exited path.
    The status is TRACE_EXITED (hit on the frame), TRACE_FOOT (hit at the
    first step point _REACH cells from the start whose cell is 1 .. n - 3
    on both axes), TRACE_STAGNATION or TRACE_MAXLEN (after ceil(max_len /
    dt) steps).  The side (int8) of an exited path is the frame side that
    it crosses and that its hit is snapped onto, 0 .. 3 for x = x0, y = y0,
    x = x1, y = y1; at an exact corner it is the first of the two in that
    order.  Any other path has side -1.  Besides its inputs and results, a
    call holds the (3, nodes) stack of the sampled fields (-gx, -gy, gdiv)
    and the temporaries of one block: the start nodes are marched and
    root-found in blocks of _BLOCK, which bounds them and leaves every
    result bit as one block gives it.
    """
    tab, geom = _corners(np.stack([-gx, -gy, gdiv]), grid)
    reach = _REACH * geom[1].max()
    # _STAG_TOL only keeps the dt of a node that stagnates at step 0 finite
    lip = np.sqrt(sum((np.abs(np.diff(f, axis=ax)) / hh).max(initial=0.0)
                      ** 2 for f in (gx, gy)
                      for ax, hh in ((1, grid.hx), (0, grid.hy))))
    floor = max(lip * reach, _STAG_TOL)
    n = nodes.size
    acc = np.zeros(n)
    length = np.zeros(n)
    hit = np.array([grid.xi1[nodes % grid.nx], grid.xi2[nodes // grid.nx]])
    status = np.full(n, TRACE_MAXLEN, np.int8)
    side = np.full(n, -1, np.int8)
    frame_hi = np.array([[grid.x1], [grid.y1]])
    for lo in range(0, n, _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        _trace_block(tab, geom, frame_hi, reach, floor, step, max_len,
                     acc[blk], hit[:, blk], status[blk], length[blk],
                     side[blk])
    return acc, hit[0], hit[1], status, length, side


def _trace_block(tab, geom, frame_hi, reach, floor, step, max_len,
                 acc, hit, status, length, exit_side):
    """March and root-find one block of trace_all, whose start points hit
    (2, m) holds: fills these views of its results in place.  The frame
    runs from the origin geom[0] to frame_hi (2, 1); ``floor`` is the floor
    of the speed |b(p0)| in a node's r-step."""
    txy, tdiv = tab[:2], tab[2:]
    frame_lo, h, top = geom[:3]

    def inside(q):
        return ((frame_lo <= q) & (q <= frame_hi)).all(axis=0)

    def dist(q):
        # signed distances outside the four sides: 0 .. 3 for x0, y0, x1, y1
        return np.concatenate([frame_lo - q, q - frame_hi])

    # the march keeps only live nodes: ids, start points p0, points p, sums
    # a, r-steps dt, step budgets m, and the samples s = (-bx, -by, div b)
    # at p, which the next step reuses
    ids, p0, p, a = np.arange(acc.size), hit.copy(), hit.copy(), acc.copy()
    s = _sample(tab, p, geom)
    dt = step / np.maximum(np.hypot(s[0], s[1]), floor)
    m = np.ceil(max_len / dt)
    # per step: ids, start points, sums, k1, g0, dt, lengths, gap and side
    crossed = []
    steps = 0
    while ids.size:
        end = m == steps
        stop = end | (np.hypot(s[0], s[1]) < _STAG_TOL)
        k1 = s[:2]
        g0 = 1.0 + s[2]
        pn = _rk2(txy, p, k1, dt, geom)
        ok = inside(pn)
        keep = ok & ~stop
        if not keep.all():
            hit[:, ids[stop]] = p[:, stop]
            acc[ids[stop]] = a[stop]
            length[ids[stop]] = steps * dt[stop]
            status[ids[stop]] = np.where(end[stop], TRACE_MAXLEN,
                                         TRACE_STAGNATION)
            out = ~ok & ~stop
            d = dist(pn[:, out])
            crossed.append((ids[out], p[:, out], a[out], k1[:, out], g0[out],
                            dt[out], steps * dt[out], d.max(axis=0),
                            d.argmax(axis=0)))
            ids, p0, pn, a, g0, dt, m = (ids[keep], p0[:, keep], pn[:, keep],
                                         a[keep], g0[keep], dt[keep], m[keep])
        s = _sample(tab, pn, geom)
        a = a + 0.5 * dt * (g0 + (1.0 + s[2]))
        p = pn
        steps += 1
        # points are inside the frame, so truncation is floor
        c = ((p - frame_lo) / h).astype(np.int64)
        foot = ((np.hypot(p[0] - p0[0], p[1] - p0[1]) >= reach)
                & ((1 <= c) & (c < top)).all(axis=0))
        if foot.any():
            hit[:, ids[foot]] = p[:, foot]
            acc[ids[foot]] = a[foot]
            length[ids[foot]] = steps * dt[foot]
            status[ids[foot]] = TRACE_FOOT
            live = ~foot
            ids, p0, p, a, s, dt, m = (ids[live], p0[:, live], p[:, live],
                                       a[live], s[:, live], dt[live], m[live])
    if crossed:
        # one batched root find of the crossing sub-step on the signed
        # distance f = d[side] outside the side that hi is farthest out of
        ids, p, a, k1, g0, hi, r, fhi, side = (np.concatenate(c, axis=-1)
                                               for c in zip(*crossed))
        col = np.arange(ids.size)
        lo = np.zeros(ids.size)
        dlo = dist(p)
        flo = dlo[side, col]
        moved = np.zeros(ids.size)  # +1 (-1): the last point replaced hi (lo)
        for _ in range(_EXIT_ITERS):
            t = lo - flo * (hi - lo) / (fhi - flo)
            d = dist(_rk2(txy, p, k1, t, geom))
            g, gside = d.max(axis=0), d.argmax(axis=0)
            out = g > 0.0
            # Illinois: halve the kept end's f when the same end moves twice
            fhi = np.where(~out & (moved < 0), 0.5 * fhi, fhi)
            flo = np.where(out & (moved > 0), 0.5 * flo, flo)
            # a new hi on another side starts that side's f afresh
            flo = np.where(out, np.where(gside == side, flo, dlo[gside, col]),
                           d[side, col])
            lo, dlo = np.where(out, lo, t), np.where(out, dlo, d)
            hi, fhi = np.where(out, t, hi), np.where(out, g, fhi)
            side = np.where(out, gside, side)
            moved = np.where(out, 1.0, -1.0)
        pb = _rk2(txy, p, k1, lo, geom)
        xb, yb = pb
        g1 = 1.0 + _sample(tdiv, pb, geom)[0]
        acc[ids] = a + 0.5 * lo * (g0 + g1)
        length[ids] = r + lo
        (x0, y0), (x1, y1) = frame_lo[:, 0], frame_hi[:, 0]
        hit[0, ids] = np.where(side == 0, x0, np.where(side == 2, x1, xb))
        hit[1, ids] = np.where(side == 1, y0, np.where(side == 3, y1, yb))
        status[ids] = TRACE_EXITED
        exit_side[ids] = side
