"""Vorticity transport along pseudo-velocity characteristics.

The stationary vorticity balance div(omega b) + omega = 0 is solved by an
ordered one-step semi-Lagrangian scheme.  From each node the ODE
d(xi)/dr = -b(xi) is integrated, with the damping integral of (1 + div b)
along the path, until it leaves the domain or reaches a foot point three
cells upstream (_kernels.trace_all), giving

    omega(xi) = omega(xi_end) * exp(-int_0^R (1 + div b) ds),

with omega(xi_end) the inflow data at a boundary hit, or the 4 x 4
Lagrange-cubic interpolation at a foot of nodes already solved.  Foot nodes
are filled in dependency order (Kahn's algorithm on the stencil graph), so
the work is O(N) rather than O(N / h).  Nodes whose characteristic
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

# |b| below which a characteristic stagnates
_STAG_TOL = 1e-14
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


def _interp_frame(values: np.ndarray, grid: Grid2D, hx_, hy_):
    """Linear interpolation of frame data at boundary hit points.

    Hit points are snapped exactly onto one of the four sides by the tracer;
    interpolation runs along that side between adjacent frame nodes.  A
    point on two sides takes the first of left, right, bottom, top; a point
    on none gets NaN.
    """
    out = np.full(hx_.shape, np.nan)
    todo = np.ones(hx_.shape, bool)
    for on, line, t, t0, h, n in (
            (hx_ == grid.x0, values[:, 0], hy_, grid.y0, grid.hy, grid.ny),
            (hx_ == grid.x1, values[:, -1], hy_, grid.y0, grid.hy, grid.ny),
            (hy_ == grid.y0, values[0, :], hx_, grid.x0, grid.hx, grid.nx),
            (hy_ == grid.y1, values[-1, :], hx_, grid.x0, grid.hx, grid.nx)):
        on &= todo
        todo &= ~on
        s = (t[on] - t0) / h
        i = np.minimum(np.maximum(np.floor(s).astype(np.int64), 0), n - 2)
        a = s - i
        out[on] = (1.0 - a) * line[i] + a * line[i + 1]
    return out


def _hit_is_inflow(b: VectorField, hx_, hy_):
    """b.nu < -_TOL_INFLOW at snapped hit points (side normal, not corner)."""
    g = b.grid
    tab, geom = _kernels._corners(np.stack([b.u, b.v]),
                                  g.x0, g.y0, g.hx, g.hy, g.nx, g.ny)
    bu, bv = _kernels._sample(tab, np.array([hx_, hy_]), geom)
    speed = np.full(hx_.shape, np.inf)
    speed = np.where(hx_ == g.x0, np.minimum(speed, -bu), speed)
    speed = np.where(hx_ == g.x1, np.minimum(speed, bu), speed)
    speed = np.where(hy_ == g.y0, np.minimum(speed, -bv), speed)
    speed = np.where(hy_ == g.y1, np.minimum(speed, bv), speed)
    return speed < -_TOL_INFLOW


def _cubic_weights(a):
    """Lagrange weights (m, 4) of the nodes -1, 0, 1, 2 at offsets a (m,)."""
    ap, am, a2 = a + 1.0, a - 1.0, a - 2.0
    return np.stack([-a * am * a2 / 6.0, ap * am * a2 / 2.0,
                     -ap * a * a2 / 2.0, ap * a * am / 6.0], axis=1)


def _fill_feet(omega, total, nodes, acc, length, fx, fy, grid: Grid2D,
               max_len):
    """Fill the foot nodes (flat indices ``nodes``) in dependency order.

    ``omega`` and ``total`` hold per grid node omega, NaN where uncovered,
    and the characteristic length.  A foot node takes the 4 x 4
    Lagrange-cubic interpolation of both at its foot (fx, fy), omega times
    exp(-acc) and the length plus its segment's; a NaN at a stencil node,
    or a length beyond max_len, leaves it uncovered.  Stencil entries with
    |weight| <= _TOL_WEIGHT are dropped from the sums, the coverage and the
    order.  A node is ready once no kept stencil node is a pending foot
    node; each level of ready nodes is filled in one batch.  A foot's
    stencil is kept as its base node, the lower-left one, and a level's rows
    as base + offsets: no (m, 16) index or |w| array is held.  Returns the
    mask of nodes filled; the rest sit in or behind a dependency cycle.
    """
    nx = grid.nx
    tx = (fx - grid.x0) / grid.hx
    ty = (fy - grid.y0) / grid.hy
    cx = np.floor(tx).astype(np.int64)
    cy = np.floor(ty).astype(np.int64)
    w = (_cubic_weights(ty - cy)[:, :, None]
         * _cubic_weights(tx - cx)[:, None, :]).reshape(-1, 16)
    kept = (w > _TOL_WEIGHT) | (w < -_TOL_WEIGHT)  # |w| > _TOL_WEIGHT
    w[~kept] = 0.0
    offsets = (np.arange(4)[:, None] * nx + np.arange(4)).ravel()
    base = (cy - 1) * nx + cx - 1
    pending = np.zeros(omega.size, bool)
    pending[nodes] = True
    indeg = np.zeros(nodes.size, np.int64)
    for j, off in enumerate(offsets):
        indeg += pending[base + off] & kept[:, j]
    # a node s is in the stencil of the feet whose stencil base is s minus
    # an offset: group the feet by base, feet[first[c]:first[c + 1]] (the
    # bases run nearly in node order, which the stable sort takes fastest)
    feet = np.argsort(base, kind="stable")
    first = np.concatenate(
        [[0], np.cumsum(np.bincount(base, minlength=omega.size))])
    filled = np.zeros(nodes.size, bool)
    slot = np.zeros(nodes.size, np.int64)
    ready = np.flatnonzero(indeg == 0)
    while ready.size:
        st = base[ready][:, None] + offsets
        wr, g = w[ready], nodes[ready]
        t = length[ready] + (wr * total[st]).sum(axis=1)
        om = np.where(kept[ready], omega[st], 0.0)
        omega[g] = np.where(t <= max_len, (wr * om).sum(axis=1)
                            * np.exp(-acc[ready]), np.nan)
        total[g] = t
        filled[ready] = True
        # g sits at stencil entry j of the feet whose base is g - offsets[j]
        cells = (g[:, None] - offsets).ravel()
        entry = np.tile(np.arange(16), g.size)
        valid = cells >= 0
        cells, entry = cells[valid], entry[valid]
        n_out = first[cells + 1] - first[cells]
        ends = np.cumsum(n_out)
        deps = feet[np.repeat(first[cells] - ends + n_out, n_out)
                    + np.arange(ends[-1])]
        deps = deps[kept[deps, np.repeat(entry, n_out)]]
        np.subtract.at(indeg, deps, 1)
        # a node reaching zero in-degree appears once per edge: keep one
        ready = deps[indeg[deps] == 0]
        slot[ready] = np.arange(ready.size)
        ready = ready[slot[ready] == np.arange(ready.size)]
    return filled


def transport_omega(b: VectorField, omega_b: ScalarField,
                    step: float | None = None,
                    max_len: float | None = None,
                    strict: bool = False
                    ) -> tuple[ScalarField, TransportReport]:
    """Backward semi-Lagrangian solve of div(omega b) + omega = 0.

    omega_b carries the boundary data on the frame of the same grid; only
    inflow frame values are consulted.  ``step`` is the spatial length of
    each node's RK2 step (its r-step is step / |b| at the node, shorter
    next to a stagnation point; default 3/4 of the larger cell side, four
    steps to a foot _REACH = 3 cells upstream) and ``max_len`` bounds each
    whole characteristic in r.
    ``strict`` raises UncoveredNodes instead of zero-filling.
    """
    grid = b.grid
    if omega_b.grid != grid:
        raise ConfigError("omega_b must live on the drift grid")
    step, max_len = _step_and_length(grid, step, max_len)
    inflow = inflow_boundary(b)
    # inflow frame nodes keep their data verbatim; the rest are traced
    traced = np.flatnonzero(~inflow.mask)
    acc, hx_, hy_, status, length = _kernels.trace_all(
        b.u, b.v, fld.divergence(b).values, grid.xi1[traced % grid.nx],
        grid.xi2[traced // grid.nx], -1.0, step, max_len, _STAG_TOL,
        grid.x0, grid.x1, grid.y0, grid.y1, grid.hx, grid.hy, grid.nx,
        grid.ny)
    # per grid node omega and characteristic length; omega is NaN until
    # covered: inflow frame data, a hit on the inflow frame, or a foot
    omega = np.where(inflow.mask, omega_b.values, np.nan).ravel()
    total = np.zeros(omega.size)
    total[traced] = length
    # an exit past max_len (the last r-step may overrun it) is truncated,
    # as a foot is in _fill_feet
    exited = np.flatnonzero((status == _kernels.TRACE_EXITED)
                            & (length <= max_len))
    landed = exited[_hit_is_inflow(b, hx_[exited], hy_[exited])]
    omega[traced[landed]] = (_interp_frame(omega_b.values, grid,
                                           hx_[landed], hy_[landed])
                             * np.exp(-acc[landed]))
    foot = np.flatnonzero(status == _kernels.TRACE_FOOT)
    filled = _fill_feet(omega, total, traced[foot], acc[foot], length[foot],
                        hx_[foot], hy_[foot], grid, max_len)
    interpolated = int(np.count_nonzero(
        filled & (total[traced[foot]] <= max_len)))
    uncovered = np.isnan(omega)
    omega[uncovered] = 0.0
    stagnated = int(np.count_nonzero(status == _kernels.TRACE_STAGNATION))
    report = TransportReport(
        uncovered=int(np.count_nonzero(uncovered)),
        stagnated=stagnated,
        truncated=int(traced.size - exited.size - interpolated - stagnated),
        exited=int(exited.size),
        traced=int(traced.size),
        interpolated=interpolated,
    )
    if strict and report.uncovered:
        raise UncoveredNodes(
            f"{report.uncovered} nodes not reached from the inflow set")
    return ScalarField(grid, omega.reshape(grid.shape)), report


def transport_residual(omega: ScalarField, b: VectorField) -> ScalarField:
    """Nodewise div(omega b) + omega; frame ring zeroed."""
    grid = omega.grid
    flux = VectorField(grid, omega.values * b.u, omega.values * b.v)
    r = fld.divergence(flux).values + omega.values
    out = np.zeros(grid.shape)
    out[1:-1, 1:-1] = r[1:-1, 1:-1]
    return ScalarField(grid, out)
