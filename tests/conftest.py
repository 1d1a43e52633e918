"""Shared fixtures: quiescent reference problems and solved states, and the
per-value F2D reference."""

import numpy as np
import pytest

import selfsim as ss
from selfsim import potential


def quiescent_field(grid: ss.Grid2D, K: float = -1.0) -> ss.ScalarField:
    """The exact radial solution phi* = -|xi|^2 / 2 + K."""
    return ss.ScalarField.from_function(
        grid, lambda x, y: -(x ** 2 + y ** 2) / 2.0 + K)


def per_value_f2d(field) -> bytes:
    """F2D text formatted one numpy value at a time (the reference)."""
    g = field.grid
    kind = "scalar" if isinstance(field, ss.ScalarField) else "vector"
    lines = ["F2D %d %d %.17g %.17g %.17g %.17g %s" % (
        g.nx, g.ny, g.x0, g.x1, g.y0, g.y1, kind)]
    for j in range(g.ny):
        for i in range(g.nx):
            if kind == "scalar":
                lines.append("%.17g" % field.values[j, i])
            else:
                lines.append("%.17g %.17g" % (field.u[j, i], field.v[j, i]))
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture(scope="session")
def law():
    return ss.GasLaw(a=1.0, gamma=2.0)


@pytest.fixture(scope="session")
def grid65():
    return ss.Grid2D(-0.5, 0.5, -0.5, 0.5, 65, 65)


@pytest.fixture(scope="session")
def quiescent_problem(law, grid65):
    return potential.PotentialProblem(law=law, grid=grid65,
                                      phi_b=quiescent_field(grid65))


@pytest.fixture(scope="session")
def quiescent_solution(quiescent_problem):
    """epsilon-continuation solve of the quiescent problem (shared; slow)."""
    phi, report = potential.epsilon_continuation(quiescent_problem)
    return phi, report
