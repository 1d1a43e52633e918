"""The benchmark's workloads: seeded inputs, CLI commands and output checks.

Each workload is one *operation*: a short list of ``selfsim`` CLI commands
run in one fresh worker process.  ``make_inputs`` writes every input file
from the seed before any timing starts; the program only ever sees those
files.  ``check`` runs in the worker after the timed calls and turns the
written outputs into pass/fail problems, the workload's error measure and
its work counts.

This module imports only numpy at top level; selfsim is imported inside the
check functions, which run in the worker after its import has been timed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# Full size and a smoke size (seconds to run, used by the tests) per workload.
# Full sizes keep one operation to a few seconds, so that a run holds several;
# the workload name carries it.  Postprocess needs 65^2 for the criterion-09
# bound of its transport check; solve-quasi is smoke-sized already.
SIZES = {
    "solve-potential-33": {"full": 33, "smoke": 17},
    "postprocess-129": {"full": 129, "smoke": 65},
    "solve-quasi-17": {"full": 17, "smoke": 17},
}
NAMES = tuple(SIZES)

OUTER_TOL = 1e-9          # solve-quasi-17 outer tolerance (config value)
DIV_W_TOL = 1e-10         # decompose: discrete div W bound
INVARIANT_TOL = 1e-4      # transport: omega |xi| constancy (criterion 09)


# ---------------------------------------------------------------------------
# F2D / CSV writers for the inputs (the format of the README, 17 digits)


def write_f2d(path, grid, values, v=None):
    x0, x1, y0, y1 = grid["x0"], grid["x1"], grid["y0"], grid["y1"]
    ny, nx = values.shape
    kind = "scalar" if v is None else "vector"
    head = "F2D %d %d %.17g %.17g %.17g %.17g %s" % (nx, ny, x0, x1, y0, y1,
                                                     kind)
    if v is None:
        body = ["%.17g" % a for a in values.ravel()]
    else:
        body = ["%.17g %.17g" % (a, b)
                for a, b in zip(values.ravel(), v.ravel())]
    with open(path, "w") as fh:
        fh.write("\n".join([head] + body) + "\n")


def _mesh(grid):
    x = np.linspace(grid["x0"], grid["x1"], grid["nx"])
    y = np.linspace(grid["y0"], grid["y1"], grid["ny"])
    return np.meshgrid(x, y)


def _grid(lo, hi, n):
    return {"x0": lo, "x1": hi, "y0": lo, "y1": hi, "nx": n, "ny": n}


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# inputs


def make_inputs(name: str, seed: int, size: str, in_dir: str,
                out_dir: str) -> dict:
    """Write the seeded inputs of one workload into ``in_dir``.

    Returns ``params`` (the seeded values, recorded and used by the checks)
    and ``commands``, the CLI argument lists, which write into ``out_dir``.
    """
    rng = np.random.default_rng([seed, NAMES.index(name)])
    n = SIZES[name][size]
    os.makedirs(in_dir, exist_ok=True)
    return _MAKERS[name](rng, n, os.path.abspath(in_dir),
                         os.path.abspath(out_dir))


def _make_potential(rng, n, d, out):
    grid = _grid(-0.5, 0.5, n)
    a = float(rng.uniform(0.015, 0.025))
    p = float(rng.uniform(0.0, 2.0 * math.pi))
    X, Y = _mesh(grid)
    phi_b = -(X ** 2 + Y ** 2) / 2.0 - 1.0 + a * np.sin(
        math.pi * (X + 2.0 * Y) + p)
    write_f2d(os.path.join(d, "phi_b.f2d"), grid, phi_b)
    cfg = {"gas": {"a": 1.0, "gamma": 2.0}, "grid": grid,
           "boundary": {"kind": "file", "path": os.path.join(d, "phi_b.f2d")},
           "output": {"dir": out}}
    _write_json(os.path.join(d, "config.json"), cfg)
    return {"params": {"n": n, "a": a, "phase": p},
            "commands": [["solve-potential", "--config",
                          os.path.join(d, "config.json")]]}


def _make_postprocess(rng, n, d, out):
    grid = _grid(0.25, 0.75, n)
    X, Y = _mesh(grid)
    k1, k2 = (int(k) for k in rng.integers(1, 3, size=2))
    p1, p2 = (float(p) for p in rng.uniform(0.0, 2.0 * math.pi, size=2))
    amp = float(rng.uniform(0.1, 0.3))
    kth = int(rng.integers(2, 6))
    # U = grad psi + perp_grad zeta with psi quiescent and a smooth zeta
    w1, w2 = 2.0 * math.pi * k1, 2.0 * math.pi * k2
    zx = 0.05 * w1 * np.cos(w1 * X + p1) * np.sin(w2 * Y + p2)
    zy = 0.05 * w2 * np.sin(w1 * X + p1) * np.cos(w2 * Y + p2)
    write_f2d(os.path.join(d, "U.f2d"), grid, -X - zy, -Y + zx)
    write_f2d(os.path.join(d, "c2.f2d"), grid, np.ones(X.shape))
    write_f2d(os.path.join(d, "psi.f2d"), grid, -(X ** 2 + Y ** 2) / 2 - 1)
    # inflow data g(theta) / |xi| on the two inflow sides of the radial drift
    g = 1.0 + amp * np.sin(kth * np.arctan2(Y, X))
    omega_b = g / np.hypot(X, Y)
    np.savetxt(os.path.join(d, "right.csv"), omega_b[:, -1], fmt="%.17g")
    np.savetxt(os.path.join(d, "top.csv"), omega_b[-1, :], fmt="%.17g")
    _write_json(os.path.join(d, "inflow.json"),
                {"right": os.path.join(d, "right.csv"),
                 "top": os.path.join(d, "top.csv")})
    u, c2, psi = (os.path.join(d, f) for f in ("U.f2d", "c2.f2d", "psi.f2d"))
    return {"params": {"n": n, "k": [k1, k2], "phase": [p1, p2],
                       "inflow_amp": amp, "inflow_k": kth},
            "commands": [
                ["classify", "--u", u, "--c2", c2,
                 "--out-dir", os.path.join(out, "classify")],
                ["decompose", "--u", u,
                 "--out-dir", os.path.join(out, "decompose")],
                ["transport", "--psi", psi,
                 "--inflow", os.path.join(d, "inflow.json"),
                 "--out-dir", os.path.join(out, "transport")]]}


def _make_quasi(rng, n, d, out):
    grid = _grid(0.1, 0.6, n)
    c1, c2 = (float(c) for c in rng.uniform(0.8, 1.2, size=2))
    X, Y = _mesh(grid)
    zeta_b = (0.5 * c1 * np.sin(math.pi * X) * np.cos(math.pi * Y)
              + 0.25 * c2 * X * Y)
    write_f2d(os.path.join(d, "zeta_b.f2d"), grid, zeta_b)
    cfg = {"gas": {"a": 1.0, "gamma": 2.0}, "grid": grid,
           "boundary": {"kind": "quiescent", "K": -1.0},
           "quasi": {"delta_targets": [1e-3, 1e-2], "outer_tol": OUTER_TOL,
                     "zeta_b": os.path.join(d, "zeta_b.f2d"),
                     "anchor": [n // 2, n // 2]},
           "output": {"dir": out}}
    _write_json(os.path.join(d, "config.json"), cfg)
    return {"params": {"n": n, "c": [c1, c2]},
            "commands": [["solve-quasi", "--config",
                          os.path.join(d, "config.json")]]}


_MAKERS = {"solve-potential-33": _make_potential,
           "postprocess-129": _make_postprocess,
           "solve-quasi-17": _make_quasi}


# ---------------------------------------------------------------------------
# output checks (run in the worker, outside the timed interval)


def load_report(path: str) -> dict:
    """The ``report`` object of a CLI JSON report (``meta`` is wall-clock)."""
    with open(path) as fh:
        return json.load(fh)["report"]


def check(name: str, params: dict, out_dir: str, exit_codes: list) -> dict:
    """Check one operation's outputs.

    Returns ``problems`` (empty when the operation passed), ``answer_err``
    (the workload's error measure, NaN when it could not be computed) and
    ``counts`` (work counts taken from the CLI's own reports).
    """
    problems = [f"command {k} exited {c}"
                for k, c in enumerate(exit_codes) if c != 0]
    result = {"answer_err": float("nan"), "counts": {}}
    if not problems:
        try:
            _CHECKS[name](params, out_dir, result, problems)
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    result["problems"] = problems
    return result


def _check_potential(params, out_dir, result, problems):
    rep = load_report(os.path.join(out_dir, "report.json"))
    result["answer_err"] = float(rep["final_residual"])
    result["counts"] = {
        "eps_stages": len(rep["stages"]),
        "picard_iters_per_stage": [s["iterations"] for s in rep["stages"]],
        "picard_iters": sum(s["iterations"] for s in rep["stages"])}
    if rep["status"] != "Converged":
        problems.append(f"status {rep['status']}")
    if rep["final_eps"] != 0.0:
        problems.append(f"final_eps {rep['final_eps']}")
    if rep["audit"] != "Pass":
        problems.append(f"audit {rep['audit']}")
    if rep["clamped"] != 0:
        problems.append(f"{rep['clamped']} clamped nodes")


def _check_postprocess(params, out_dir, result, problems):
    from selfsim import field as fld

    cls = load_report(os.path.join(out_dir, "classify", "classify.json"))
    dec = load_report(os.path.join(out_dir, "decompose", "decompose.json"))
    tr = load_report(os.path.join(out_dir, "transport", "transport.json"))
    omega = fld.read_field(os.path.join(out_dir, "transport", "omega.f2d"))
    grid = omega.grid
    X, Y = grid.meshgrid()
    g = 1.0 + params["inflow_amp"] * np.sin(params["inflow_k"]
                                            * np.arctan2(Y, X))
    gap = float(np.max(np.abs(omega.values * np.hypot(X, Y) - g))
                / np.max(np.abs(g)))
    result["answer_err"] = gap
    result["counts"] = {"regime_counts": cls["counts"],
                        "traced": tr["traced"], "uncovered": tr["uncovered"]}
    if sum(cls["counts"].values()) != grid.nx * grid.ny:
        problems.append(f"regime counts {cls['counts']} do not sum to "
                        f"{grid.nx * grid.ny}")
    if not dec["div_W_norm"] <= DIV_W_TOL:
        problems.append(f"div_W_norm {dec['div_W_norm']:.3e} > {DIV_W_TOL}")
    if tr["uncovered"] != 0:
        problems.append(f"{tr['uncovered']} uncovered nodes")
    if not gap <= INVARIANT_TOL:
        problems.append(f"omega|xi| gap {gap:.3e} > {INVARIANT_TOL}")


def _check_quasi(params, out_dir, result, problems):
    import selfsim as ss
    from selfsim import field as fld, quasipotential

    rep = load_report(os.path.join(out_dir, "report.json"))
    result["counts"] = {
        "outer_iters_per_stage": [s["outer_iters"] for s in rep["stages"]],
        "outer_iters": sum(s["outer_iters"] for s in rep["stages"])}
    if rep["status"] != "Converged":
        problems.append(f"status {rep['status']}")
    if len(rep["stages"]) != 2:
        problems.append(f"{len(rep['stages'])} stages, expected 2")
    for s in rep["stages"]:
        if not s["change"] <= OUTER_TOL:
            problems.append(f"delta={s['delta']:g}: change {s['change']:.3e}"
                            f" > {OUTER_TOL}")
    psi = fld.read_field(os.path.join(out_dir, "psi.f2d"))
    zeta = fld.read_field(os.path.join(out_dir, "zeta.f2d"))
    n = params["n"]
    r1, _ = quasipotential.full_rotational_residual(
        psi, zeta, ss.GasLaw(a=1.0, gamma=2.0), anchor=(n // 2, n // 2))
    result["answer_err"] = float(np.max(np.abs(r1.values)))


_CHECKS = {"solve-potential-33": _check_potential,
           "postprocess-129": _check_postprocess,
           "solve-quasi-17": _check_quasi}
