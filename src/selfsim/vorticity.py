"""Vorticity transport along pseudo-velocity characteristics.

The stationary vorticity balance div(omega b) + omega = 0 is solved by an
ordered one-step semi-Lagrangian scheme.  From each node the ODE
d(xi)/dr = -b(xi) is integrated, with the damping integral of (1 + div b)
along the path, until it leaves the domain or reaches a foot point three
cells upstream (_kernels.trace_all), giving

    omega(xi) = omega(xi_end) * exp(-int_0^R (1 + div b) ds),

with omega(xi_end) the inflow data at a boundary hit, or the 4 x 4
Lagrange-cubic interpolation at a foot of nodes already solved.  Foot nodes
are filled in dependency order, so the work is O(N) rather than O(N / h):
a schedule pass gives each foot node its level in Kahn's algorithm on the
stencil graph (Kahn, CACM 5, 1962), and a value pass fills the levels in
turn.  transport_omega returns the schedule, and a later call on the same
grid (the next quasi sweep) passes it back; it is reused when one
vectorized check finds that it still orders the new feet, and rebuilt
otherwise.  Any valid level order reads the same operands in the same
order, so omega is bitwise the same either way.  Nodes whose characteristic
stagnates, exceeds the length budget, lands on a non-inflow boundary point,
interpolates an uncovered node, or stays in a dependency cycle are
*uncovered*: they receive zero and are counted in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _kernels, field as fld
from .errors import ConfigError, UncoveredNodes, check_positive
from .field import Grid2D, ScalarField, VectorField
from .hodge import _boundary_normals

# a frame point is inflow where b.nu < -_TOL_INFLOW (nu the outward normal)
_TOL_INFLOW = 1e-12
# a foot's stencil entry with |weight| <= _TOL_WEIGHT is dropped: a foot on a
# grid line has round-off weights on the nodes off the line, which must not
# tie it to those nodes' coverage or order
_TOL_WEIGHT = 1e-12


@dataclass
class InflowSet:
    """Frame nodes with inward drift b.nu < -tol (nu = outward normal)."""

    mask: np.ndarray = dc_field(repr=False)          # bool, frame-only
    normal_speed: np.ndarray = dc_field(repr=False)  # b.nu, zero at interior
    count: int = 0


@dataclass
class TransportReport:
    """Node counts of one transport; the last four statuses partition the
    traced nodes by how their own segment ended: on the frame, at a foot
    that was interpolated, on stagnation, or truncated (the length budget,
    or a foot left in a dependency cycle)."""

    uncovered: int = 0
    stagnated: int = 0
    truncated: int = 0
    exited: int = 0
    traced: int = 0
    interpolated: int = 0


def inflow_boundary(b: VectorField) -> InflowSet:
    """Classify frame nodes by the sign of b.nu (corners use the unit diagonal)."""
    nux, nuy = _boundary_normals(b.grid)
    speed = nux * b.u + nuy * b.v
    frame = (nux != 0) | (nuy != 0)
    mask = frame & (speed < -_TOL_INFLOW)
    return InflowSet(mask=mask, normal_speed=speed,
                     count=int(np.count_nonzero(mask)))


def _step_and_length(grid: Grid2D, step, max_len) -> tuple:
    """(step, max_len), None taking a quarter of the foot reach, 3/4 of the
    larger cell side, and twenty diameters; ConfigError unless both are
    finite and positive."""
    if step is None:
        step = 0.25 * _kernels._REACH * max(grid.hx, grid.hy)
    max_len = 20.0 * grid.diam if max_len is None else max_len
    check_positive(step=step, max_len=max_len)
    return step, max_len


def _on_side(lines, grid: Grid2D, side, hx_, hy_):
    """Linear interpolation at exit points (hx_, hy_) along the frame side
    that each one crossed, ``side`` 0 .. 3 as _kernels.trace_all reports
    it (x = x0, y = y0, x = x1, y = y1).  ``lines`` holds the node values of
    the four sides in that order, ny, nx, ny and nx values, each from the
    lower-left end."""
    along_y = side % 2 == 0
    t = np.where(along_y, (hy_ - grid.y0) / grid.hy,
                 (hx_ - grid.x0) / grid.hx)
    i = np.floor(t).astype(np.int64)
    i = np.minimum(np.maximum(i, 0), np.where(along_y, grid.ny, grid.nx) - 2)
    a = t - i
    i += np.cumsum([0, grid.ny, grid.nx, grid.ny])[side]
    return (1.0 - a) * lines[i] + a * lines[i + 1]


def _cubic_weights(a):
    """Lagrange weights (m, 4) of the nodes -1, 0, 1, 2 at offsets a (m,),
    written a column at a time: stacking four (m,) columns held twice the
    memory at the fill's peak."""
    ap, am, a2 = a + 1.0, a - 1.0, a - 2.0
    w = np.empty(a.shape + (4,))
    w[:, 0] = -a * am * a2 / 6.0
    w[:, 1] = ap * am * a2 / 2.0
    w[:, 2] = -ap * a * a2 / 2.0
    w[:, 3] = ap * a * am / 6.0
    return w


def _foot_stencils(fx, fy, grid: Grid2D):
    """Per foot at (fx, fy): the flat index of the lower-left node of its
    4 x 4 stencil (its base), and its offsets ay and ax (m,) in its cell
    along y and x.  Entry 4 a + c of the stencil is node base + a nx + c at
    weight wy[:, a] * wx[:, c], with wy and wx the _cubic_weights of ay and
    ax, which the fill forms a block of feet at a time.  The bases are
    int32, like the foot nodes' indices."""
    t = (fx - grid.x0) / grid.hx
    cx = np.floor(t).astype(np.int32)
    ax = t - cx
    t = (fy - grid.y0) / grid.hy
    cy = np.floor(t).astype(np.int32)
    ay = t - cy
    return (cy - 1) * grid.nx + cx - 1, ay, ax


def _offsets(nx):
    """Flat offsets of the 16 stencil entries from the base node."""
    return (np.arange(4)[:, None] * nx + np.arange(4)).ravel()


def _kept_bits(ay, ax):
    """Per foot, the 16-bit mask of its kept stencil entries: bit 4 a + c
    where |wy[:, a] * wx[:, c]| > _TOL_WEIGHT, wy and wx the
    _cubic_weights of the cell offsets ay and ax, formed a block of
    _kernels._BLOCK feet at a time."""
    bits = np.zeros(len(ay), np.uint16)
    for lo in range(0, len(ay), _kernels._BLOCK):
        blk = slice(lo, lo + _kernels._BLOCK)
        wy, wx = _cubic_weights(ay[blk]), _cubic_weights(ax[blk])
        out = bits[blk]
        for a in range(4):
            for c in range(4):
                w = wy[:, a] * wx[:, c]
                out |= ((w > _TOL_WEIGHT) | (w < -_TOL_WEIGHT)).astype(
                    np.uint16) << (4 * a + c)
    return bits


def _foot_levels(nodes, base, kept, size, nx):
    """The schedule pass: Kahn levels of the foot nodes (flat indices
    ``nodes``, stencil bases ``base``, kept masks ``kept``) as a per grid
    node int32 array.  A foot node whose kept stencil holds no pending foot
    node has level 0, any other one level 1 + the largest level among
    them; every other node, and a foot node in or behind a dependency
    cycle, has level -1."""
    offsets = _offsets(nx)
    pending = np.zeros(size, bool)
    pending[nodes] = True
    indeg = np.zeros(nodes.size, np.int64)
    for j, off in enumerate(offsets):
        indeg += pending.take(base + off) & (kept >> j)
    # a node s is in the stencil of the feet whose stencil base is s minus
    # an offset: group the feet by base, feet[first[c]:first[c + 1]] (the
    # bases run nearly in node order, which the stable sort takes fastest)
    feet = np.argsort(base, kind="stable")
    first = np.concatenate(
        [[0], np.cumsum(np.bincount(base, minlength=size))])
    level = np.full(size, -1, np.int32)
    slot = np.zeros(nodes.size, np.int64)
    ready = np.flatnonzero(indeg == 0)
    depth = 0
    while ready.size:
        # widened: a store is fast on intp indices only (see _fill_feet)
        g = nodes.take(ready).astype(np.intp)
        level[g] = depth
        depth += 1
        # g sits at stencil entry j of the feet whose base is g - offsets[j]
        cells = (g[:, None] - offsets).ravel()
        entry = np.tile(np.arange(16), g.size)
        valid = cells >= 0
        cells, entry = cells[valid], entry[valid]
        n_out = first[cells + 1] - first[cells]
        ends = np.cumsum(n_out)
        deps = feet[np.repeat(first[cells] - ends + n_out, n_out)
                    + np.arange(ends[-1])]
        deps = deps[((kept[deps] >> np.repeat(entry, n_out)) & 1)
                    .astype(bool)]
        np.subtract.at(indeg, deps, 1)
        # a node reaching zero in-degree appears once per edge: keep one
        ready = deps[indeg[deps] == 0]
        slot[ready] = np.arange(ready.size)
        ready = ready[slot[ready] == np.arange(ready.size)]
    return level


def _schedule_holds(schedule, nodes, base, kept, nx):
    """Whether a carried schedule orders these feet: every foot node has a
    level, and every kept stencil entry that is a foot node has a strictly
    lower one.  One vectorized pass over the 16 entries."""
    level = schedule.take(nodes)
    if np.any(level < 0):
        return False
    pending = np.full(schedule.size, -1, np.int32)
    pending[nodes] = level
    for j, off in enumerate(_offsets(nx)):
        if np.any((pending.take(base + off) >= level) & (kept >> j)):
            return False
    return True


def _fill_feet(omega, total, nodes, acc, length, base, ay, ax,
               grid: Grid2D, max_len, schedule=None):
    """Fill the foot nodes (flat indices ``nodes``) in dependency order.

    ``omega`` and ``total`` hold per grid node omega, NaN where uncovered,
    and the characteristic length.  A foot node takes the 4 x 4
    Lagrange-cubic interpolation of both at its foot, whose stencil base
    and cell offsets (base, ay, ax) _foot_stencils gives, omega times
    exp(-acc) and the length plus its segment's; a NaN at a stencil node,
    or a length beyond max_len, leaves it uncovered.  Stencil entries with
    |weight| <= _TOL_WEIGHT are dropped from the sums, the coverage and the
    order.

    Two passes.  The schedule pass (_foot_levels) takes Kahn's levels from
    a 16-bit kept mask per foot.  The value pass fills one level per batch.
    It walks the level-ordered feet in chunks of whole levels, each up to
    _kernels._BLOCK feet (a larger level is a chunk alone), forms a chunk's
    (k, 4) row and column factors from the feet's cell offsets once, and
    slices them per level into that level's (k, 16) weights.  So the fill
    keeps per foot only its node, base node and level order (int32) and
    two offsets, and no (m, 4) or (m, 16) array is held; the kept masks
    are dropped once the schedule is settled.  An int32 index is read with
    take, which keeps numpy's fast path, and widened to intp where it
    indexes a store, since fancy assignment is fast on intp indices only.
    The schedule pass keeps its sort, slots and bucket starts in intp: their
    values index stores and count np.repeat and np.cumsum, fast on intp
    only.  A carried ``schedule`` (the per-node levels
    of an earlier fill) is used when _schedule_holds finds it valid for
    these feet, and rebuilt otherwise; a foot node it left in a cycle has
    no level, so it fails the check on any feet that still hold that node.
    Filling in any valid level order reads the same operands in the same
    order as Kahn's, so omega and total are bitwise the same.  Returns the
    mask of nodes filled (the rest sit in or behind a dependency cycle) and
    the schedule used.
    """
    bits = _kept_bits(ay, ax)
    if (schedule is None or schedule.size != omega.size
            or not _schedule_holds(schedule, nodes, base, bits, grid.nx)):
        schedule = _foot_levels(nodes, base, bits, omega.size, grid.nx)
    del bits
    level = schedule.take(nodes)
    order = np.argsort(level, kind="stable").astype(np.int32)
    # where each level ends in ``order``, level -1 (not filled) first
    ends = np.cumsum(np.bincount(level + 1, minlength=1))
    filled = level >= 0
    del level
    offsets = _offsets(grid.nx)
    i = 0
    while ends[i] < ends[-1]:
        # a chunk of whole levels, up to _BLOCK feet or one larger level:
        # its weight factors are formed once and sliced per level
        j = max(i + 1, np.searchsorted(ends, ends[i] + _kernels._BLOCK,
                                       "right") - 1)
        chunk = order[ends[i]:ends[j]]
        wy, wx = _cubic_weights(ay.take(chunk)), _cubic_weights(ax.take(chunk))
        for lo, hi in zip(ends[i:j] - ends[i], ends[i + 1:j + 1] - ends[i]):
            if lo == hi:
                continue
            r = chunk[lo:hi]
            st = base.take(r)[:, None] + offsets
            w = (wy[lo:hi, :, None] * wx[lo:hi, None, :]).reshape(-1, 16)
            kept = (w > _TOL_WEIGHT) | (w < -_TOL_WEIGHT)  # |w| > _TOL_WEIGHT
            w[~kept] = 0.0
            # widened: a store is fast on intp indices only
            g = nodes.take(r).astype(np.intp)
            t = length.take(r) + (w * total[st]).sum(axis=1)
            om = np.where(kept, omega[st], 0.0)
            omega[g] = np.where(t <= max_len, (w * om).sum(axis=1)
                                * np.exp(-acc.take(r)), np.nan)
            total[g] = t
        i = j
    return filled, schedule


def transport_omega(b: VectorField, omega_b: ScalarField,
                    step: float | None = None,
                    max_len: float | None = None,
                    strict: bool = False,
                    schedule: np.ndarray | None = None
                    ) -> tuple[ScalarField, TransportReport, np.ndarray]:
    """Backward semi-Lagrangian solve of div(omega b) + omega = 0.

    omega_b carries the boundary data on the frame of the same grid; only
    inflow frame values are consulted.  A path that exits the frame takes
    its inflow test (b.nu < -_TOL_INFLOW, nu the outward normal) and its
    data from the side that _kernels.trace_all reports it crossed, both
    interpolated linearly along that side.  ``step`` is the spatial
    length of each node's RK2 step (its r-step is step / |b| at the node,
    shorter next to a stagnation point; default 3/4 of the larger cell
    side, four steps to a foot _REACH = 3 cells upstream) and ``max_len``
    bounds each whole characteristic in r.
    ``strict`` raises UncoveredNodes instead of zero-filling.
    ``schedule`` is the fill schedule returned by an earlier call on the
    same grid, which _fill_feet reuses where it still orders the feet
    (bitwise the same omega either way).  Returns omega, the report and
    the schedule used.  Before the fill, which sets the transport's memory
    peak on large grids, everything it does not read is released: the
    per traced node arrays (indices, statuses, sides, hits), the exit
    bookkeeping and the inflow set; the feet keep their values and their
    stencils from _foot_stencils.
    """
    grid = b.grid
    if omega_b.grid != grid:
        raise ConfigError("omega_b must live on the drift grid")
    step, max_len = _step_and_length(grid, step, max_len)
    inflow = inflow_boundary(b)
    # inflow frame nodes keep their data verbatim; the rest are traced
    traced = np.flatnonzero(~inflow.mask).astype(np.int32)
    acc, hx_, hy_, status, length, side = _kernels.trace_all(
        b.u, b.v, fld.divergence(b).values, traced, step, max_len, grid)
    # per grid node omega and characteristic length; omega is NaN until
    # covered: inflow frame data, a hit on the inflow frame, or a foot
    omega = np.where(inflow.mask, omega_b.values, np.nan).ravel()
    total = np.zeros(omega.size)
    total[traced] = length
    # an exit past max_len (the last r-step may overrun it) is truncated,
    # as a foot is in _fill_feet; an exit lands where b.nu < -_TOL_INFLOW,
    # nu the outward normal of the side it crossed
    exited = np.flatnonzero((status == _kernels.TRACE_EXITED)
                            & (length <= max_len))
    speed = np.concatenate([-b.u[:, 0], -b.v[0], b.u[:, -1], b.v[-1]])
    landed = exited[_on_side(speed, grid, side[exited], hx_[exited],
                             hy_[exited]) < -_TOL_INFLOW]
    w = omega_b.values
    omega[traced[landed]] = (
        _on_side(np.concatenate([w[:, 0], w[0], w[:, -1], w[-1]]), grid,
                 side[landed], hx_[landed], hy_[landed])
        * np.exp(-acc[landed]))
    foot = np.flatnonzero(status == _kernels.TRACE_FOOT)
    nodes = traced[foot]
    stagnated = int(np.count_nonzero(status == _kernels.TRACE_STAGNATION))
    n_traced, n_exited = int(traced.size), int(exited.size)
    # the feet's values and stencils replace the per traced node arrays,
    # and what the fill does not read is released before it runs, each
    # array as soon as it is spent
    del inflow, traced, status, side, exited, landed, speed
    acc = acc[foot]
    length = length[foot]
    fx, fy = hx_[foot], hy_[foot]
    del foot, hx_, hy_
    base, ay, ax = _foot_stencils(fx, fy, grid)
    del fx, fy
    filled, schedule = _fill_feet(omega, total, nodes, acc, length, base, ay,
                                  ax, grid, max_len, schedule)
    interpolated = int(np.count_nonzero(filled & (total[nodes] <= max_len)))
    uncovered = np.isnan(omega)
    omega[uncovered] = 0.0
    report = TransportReport(
        uncovered=int(np.count_nonzero(uncovered)),
        stagnated=stagnated,
        truncated=n_traced - n_exited - interpolated - stagnated,
        exited=n_exited,
        traced=n_traced,
        interpolated=interpolated,
    )
    if strict and report.uncovered:
        raise UncoveredNodes(
            f"{report.uncovered} nodes not reached from the inflow set")
    return ScalarField(grid, omega.reshape(grid.shape)), report, schedule


def transport_residual(omega: ScalarField, b: VectorField) -> ScalarField:
    """Nodewise div(omega b) + omega; frame ring zeroed."""
    grid = omega.grid
    flux = VectorField(grid, omega.values * b.u, omega.values * b.v)
    r = fld.divergence(flux).values + omega.values
    out = np.zeros(grid.shape)
    out[1:-1, 1:-1] = r[1:-1, 1:-1]
    return ScalarField(grid, out)
