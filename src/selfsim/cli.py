"""Command-line front end: config parsing, subcommand dispatch, reports.

Subcommands: classify | decompose | transport | solve-potential |
solve-quasi.  Exit codes: 0 success, 1 solver non-convergence, partial
continuation or uncovered transport nodes under --strict, 2
config/validation error, 3 IO error, 4 internal invariant violation.  All file outputs are atomic (temp file + rename).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import tempfile

import numpy as np

from . import field as fld
from . import gas, hodge, potential, quasipotential, regime, vorticity
from .errors import (ConfigError, DimensionMismatch, DomainError,
                     FormatError, InternalError, NonConvergence, RangeError,
                     SelfsimError, SonicEncroachment, UncoveredNodes)
from .field import Grid2D, ScalarField, VectorField
from .gas import GasLaw, GasVariant

_KNOWN_SECTIONS = {"gas", "grid", "boundary", "solver", "quasi", "output",
                   "strict"}
_KNOWN_KEYS = {
    "gas": {"a", "gamma", "rho_floor", "variant"},
    "grid": {"x0", "x1", "y0", "y1", "nx", "ny"},
    "boundary": {"kind", "K", "path", "table"},
    "solver": {"tol_fixed_point", "max_iters", "lin_tol", "eps0", "ratio",
               "eps_min", "c2_floor", "cap_M"},
    "quasi": {"delta_targets", "outer_tol", "outer_max_iters", "zeta_b",
              "anchor", "sonic_margin"},
    "output": {"phi_path", "report_path", "dir", "csv"},
}


def _atomic_write(path: str, write):
    """Call ``write(tmp)`` on a temp file beside ``path``, then rename it."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str):
    def write(tmp):
        with open(tmp, "w") as fh:
            fh.write(text)
    _atomic_write(path, write)


def atomic_write_field(field, path: str):
    _atomic_write(path, lambda tmp: fld.write_field(field, tmp))


def _write_csv(field, path: str):
    X, Y = field.grid.meshgrid()
    if isinstance(field, ScalarField):
        header, cols = ["xi1", "xi2", "value"], [field.values]
    else:
        header, cols = ["xi1", "xi2", "u", "v"], [field.u, field.v]
    rows = np.column_stack([c.ravel() for c in (X, Y, *cols)]).tolist()

    def write(tmp):
        with open(tmp, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
    _atomic_write(path, write)


# ---------------------------------------------------------------------------
# config parsing


def _check_keys(cfg: dict, strict: bool):
    for key in cfg:
        if key not in _KNOWN_SECTIONS:
            _unknown(f"unknown top-level key {key!r}", strict)
        elif key in _KNOWN_KEYS and isinstance(cfg[key], dict):
            for sub in cfg[key]:
                if sub not in _KNOWN_KEYS[key]:
                    _unknown(f"unknown key {key}.{sub}", strict)


def _unknown(msg: str, strict: bool):
    if strict:
        raise ConfigError(msg)
    print(f"warning: {msg}", file=sys.stderr)


def load_config(path: str, strict: bool = False) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    strict = strict or bool(cfg.get("strict", False))
    _check_keys(cfg, strict)
    return cfg


def _reads_config(fn):
    """A config value of the wrong type (a string for a number, a list for
    a section) raises ConfigError from fn, not TypeError or ValueError."""
    @functools.wraps(fn)
    def read(*args):
        try:
            return fn(*args)
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc
    return read


def _integer(value) -> int:
    """int(value) for an integral value; int() alone truncates 9.5 to 9."""
    if not float(value).is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def gas_from_config(cfg: dict) -> GasLaw:
    g = cfg.get("gas", {})
    variant = g.get("variant", "standard")
    try:
        variant = GasVariant(variant)
    except ValueError:
        raise ConfigError(f"unknown gas variant {variant!r}")
    return GasLaw(a=float(g.get("a", 1.0)), gamma=float(g.get("gamma", 2.0)),
                  rho_floor=float(g.get("rho_floor", 0.0)), variant=variant)


def grid_from_config(cfg: dict) -> Grid2D:
    g = cfg.get("grid")
    if g is None:
        raise ConfigError("config requires a grid section")
    try:
        return Grid2D(float(g["x0"]), float(g["x1"]), float(g["y0"]),
                      float(g["y1"]), _integer(g["nx"]),
                      _integer(g["ny"]))
    except KeyError as exc:
        raise ConfigError(f"grid section missing key {exc}") from exc


def boundary_from_config(cfg: dict, grid: Grid2D) -> ScalarField:
    b = cfg.get("boundary", {"kind": "quiescent"})
    kind = b.get("kind", "quiescent")
    if kind == "quiescent":
        K = float(b.get("K", -1.0))
        return ScalarField.from_function(
            grid, lambda x, y: -(x ** 2 + y ** 2) / 2.0 + K)
    if kind == "file":
        if "path" not in b:
            raise ConfigError("boundary.kind = 'file' requires boundary.path")
        f = fld.read_field(os.fspath(b["path"]))  # a number is not a path
        if not isinstance(f, ScalarField) or f.grid != grid:
            raise ConfigError("boundary file must be a scalar field on the "
                              "configured grid")
        return f
    if kind == "expression-table":
        table = b.get("table")
        if table is None:
            raise ConfigError("boundary.kind = 'expression-table' requires "
                              "boundary.table (ny rows of nx values)")
        arr = np.asarray(table, dtype=float)
        if arr.shape != grid.shape:
            raise ConfigError(f"boundary.table shape {arr.shape} does not "
                              f"match grid {grid.shape}")
        return ScalarField(grid, arr)
    raise ConfigError(f"unknown boundary kind {kind!r}; expected "
                      "'quiescent', 'file' or 'expression-table'")


@_reads_config
def _solve_inputs(cfg: dict):
    """The potential problem, Newton parameters and epsilon schedule."""
    grid = grid_from_config(cfg)
    s = cfg.get("solver", {})
    problem = potential.PotentialProblem(
        law=gas_from_config(cfg), grid=grid,
        phi_b=boundary_from_config(cfg, grid),
        c2_floor=float(s.get("c2_floor", 1e-8)),
        cap_M=float(s.get("cap_M", 1e6)))
    params = potential.PicardParams(
        tol_fixed_point=float(s.get("tol_fixed_point", 1e-10)),
        max_iters=_integer(s.get("max_iters", 200)),
        lin_tol=float(s.get("lin_tol", 1e-11)),
    )
    schedule = potential.EpsilonSchedule(
        eps0=float(s.get("eps0", 0.1)),
        ratio=float(s.get("ratio", 0.5)),
        eps_min=float(s.get("eps_min", 1e-6)),
    )
    return problem, params, schedule


@_reads_config
def quasi_from_config(cfg: dict, grid: Grid2D) -> quasipotential.QuasiConfig:
    q = cfg.get("quasi", {})
    zeta_b = None
    if q.get("zeta_b"):
        f = fld.read_field(os.fspath(q["zeta_b"]))
        if not isinstance(f, ScalarField) or f.grid != grid:
            raise ConfigError("quasi.zeta_b must be a scalar field on the "
                              "configured grid")
        zeta_b = f
    return quasipotential.QuasiConfig(
        delta_targets=[float(d) for d in q.get("delta_targets", [0.0])],
        outer_tol=float(q.get("outer_tol", 1e-8)),
        outer_max_iters=_integer(q.get("outer_max_iters", 50)),
        zeta_b=zeta_b,
        anchor=q.get("anchor", (0, 0)),
        sonic_margin=float(q.get("sonic_margin", 0.01)),
    )


@_reads_config
def _out_paths(cfg: dict) -> tuple[str, str, str]:
    """The output directory and the phi and report paths in it, read
    before a solve so that a mistyped value costs no solve."""
    out = cfg.get("output", {})
    base = os.fspath(out.get("dir", "."))
    return (base, os.path.join(base, out.get("phi_path", "phi.f2d")),
            os.path.join(base, out.get("report_path", "report.json")))


def _report_payload(report_dict: dict) -> str:
    return json.dumps({"report": report_dict}, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve_potential(args) -> int:
    cfg = load_config(args.config, strict=args.strict)
    problem, params, schedule = _solve_inputs(cfg)
    _, phi_path, report_path = _out_paths(cfg)
    try:
        phi, report = potential.solve(problem, schedule, params)
    except NonConvergence as exc:
        print(f"solve-potential: {exc}", file=sys.stderr)
        return 1
    out_dir = os.path.dirname(os.path.abspath(phi_path)) or "."
    atomic_write_field(phi, phi_path)
    atomic_write_field(report.c2, os.path.join(out_dir, "c2.f2d"))
    atomic_write_field(report.L2, os.path.join(out_dir, "L2.f2d"))
    if cfg.get("output", {}).get("csv"):
        _write_csv(phi, os.path.splitext(phi_path)[0] + ".csv")
    atomic_write_text(report_path, _report_payload(report.to_dict()))
    print(f"solve-potential: {report.status} (eps={report.final_eps:g}, "
          f"residual={report.final_residual:.3e}, audit={report.audit}); "
          f"report: {report_path}")
    return 0 if report.status == "Converged" else 1


def cmd_solve_quasi(args) -> int:
    cfg = load_config(args.config, strict=args.strict)
    problem, params, schedule = _solve_inputs(cfg)
    qcfg = quasi_from_config(cfg, problem.grid)
    base, _, report_path = _out_paths(cfg)
    try:
        state, report = quasipotential.solve_quasi(qcfg, problem, params,
                                                   schedule)
    except (NonConvergence, SonicEncroachment) as exc:
        print(f"solve-quasi: {exc}", file=sys.stderr)
        return 1
    for name, f in (("psi", state.psi), ("zeta", state.zeta),
                    ("omega_tilde", state.omega_tilde), ("c2", state.c2),
                    ("N1", state.N1), ("F1", state.F1)):
        atomic_write_field(f, os.path.join(base, f"{name}.f2d"))
    atomic_write_text(report_path, _report_payload(report.to_dict()))
    print(f"solve-quasi: {report.status} (delta={state.delta:g}, "
          f"stages={len(report.stages)}); report: {report_path}")
    return 0 if report.status == "Converged" else 1


def cmd_classify(args) -> int:
    U = fld.read_field(args.u)
    c2 = fld.read_field(args.c2)
    if not isinstance(U, VectorField) or not isinstance(c2, ScalarField):
        raise ConfigError("classify expects a vector field U and scalar c2")
    if U.grid != c2.grid:
        raise ConfigError("U and c2 must share a grid")
    if not np.all(np.isfinite(c2.values) & (c2.values > 0)):
        raise DomainError("classify requires a finite, positive c2")
    rr = regime.classify(U, c2)
    base = args.out_dir
    os.makedirs(base, exist_ok=True)
    atomic_write_field(rr.L2, os.path.join(base, "L2.f2d"))
    atomic_write_field(rr.discriminant, os.path.join(base, "discriminant.f2d"))
    counts = {name: int(np.count_nonzero(rr.regime_map == r.value))
              for name, r in (("subsonic", gas.Regime.SUBSONIC),
                              ("sonic", gas.Regime.SONIC),
                              ("supersonic", gas.Regime.SUPERSONIC))}
    payload = {
        "max_L2": rr.max_L2, "max_L2_node": list(rr.max_L2_node),
        "flagged": rr.flagged, "audit": rr.audit.value,
        "audit_details": rr.audit_details,  # JSON writes tuples as arrays
        "counts": counts,
    }
    report_path = os.path.join(base, "classify.json")
    atomic_write_text(report_path, _report_payload(payload))
    print(f"classify: audit={rr.audit.value}, max L2={rr.max_L2:.6g}; "
          f"report: {report_path}")
    return 0


def cmd_decompose(args) -> int:
    U = fld.read_field(args.u)
    if not isinstance(U, VectorField):
        raise ConfigError("decompose expects a vector field")
    dec = hodge.decompose(U, lin_tol=args.lin_tol)
    base = args.out_dir
    os.makedirs(base, exist_ok=True)
    atomic_write_field(dec.psi, os.path.join(base, "psi.f2d"))
    atomic_write_field(dec.W, os.path.join(base, "W.f2d"))
    bf = hodge.bernoulli_fields(U, dec.W)
    atomic_write_field(bf.F, os.path.join(base, "F.f2d"))
    payload = {"div_W_norm": dec.div_W_norm,
               "integrability_residual": bf.integrability_residual}
    report_path = os.path.join(base, "decompose.json")
    atomic_write_text(report_path, _report_payload(payload))
    print(f"decompose: |div W| = {dec.div_W_norm:.3e}; report: {report_path}")
    return 0


def _inflow_field(spec_path: str, grid: Grid2D) -> ScalarField:
    """Boundary vorticity data: JSON object side -> constant or CSV path."""
    with open(spec_path) as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {spec_path}: {exc}") from exc
    if not isinstance(spec, dict):
        raise ConfigError("inflow spec must map sides to values")
    vals = np.zeros(grid.shape)
    sides = {"left": (np.s_[:, 0], grid.ny), "right": (np.s_[:, -1], grid.ny),
             "bottom": (np.s_[0, :], grid.nx), "top": (np.s_[-1, :], grid.nx)}
    for side, v in spec.items():
        if side not in sides:
            raise ConfigError(f"unknown side {side!r}; expected "
                              "left/right/bottom/top")
        sl, n = sides[side]
        if isinstance(v, (int, float)):
            vals[sl] = float(v)
        elif isinstance(v, str):
            try:
                data = np.loadtxt(v, delimiter=",").ravel()
            except ValueError as exc:
                raise ConfigError(f"side {side}: non-numeric CSV {v}: "
                                  f"{exc}") from exc
            if data.size != n:
                raise ConfigError(f"side {side} expects {n} values, "
                                  f"got {data.size}")
            vals[sl] = data
        else:
            raise ConfigError(f"side {side}: expected number or CSV path")
        if not np.all(np.isfinite(vals[sl])):
            raise ConfigError(f"side {side}: inflow values must be finite")
    return ScalarField(grid, vals)


def cmd_transport(args) -> int:
    psi = fld.read_field(args.psi)
    if not isinstance(psi, ScalarField):
        raise ConfigError("transport expects a scalar stream potential")
    b = fld.gradient(psi)
    omega_b = _inflow_field(args.inflow, psi.grid)
    omega, rep, _ = vorticity.transport_omega(b, omega_b, step=args.step,
                                              strict=args.strict)
    base = args.out_dir
    os.makedirs(base, exist_ok=True)
    atomic_write_field(omega, os.path.join(base, "omega.f2d"))
    resid = vorticity.transport_residual(omega, b)
    payload = dict(vars(rep),
                   residual_sup=float(np.max(np.abs(resid.values))))
    report_path = os.path.join(base, "transport.json")
    atomic_write_text(report_path, _report_payload(payload))
    print(f"transport: {rep.uncovered} uncovered of {rep.traced}; "
          f"report: {report_path}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="selfsim",
        description="Self-similar compressible-flow analysis toolkit")
    p.add_argument("--strict", action="store_true",
                   help="upgrade warnings (e.g. unknown config keys) to errors")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve-potential",
                        help="potential-flow solve: Newton at eps = 0, "
                        "eps-continuation if it fails")
    sp.add_argument("--config", required=True)
    sp.set_defaults(fn=cmd_solve_potential)

    sq = sub.add_parser("solve-quasi", help="delta-continuation quasi solve")
    sq.add_argument("--config", required=True)
    sq.set_defaults(fn=cmd_solve_quasi)

    sc = sub.add_parser("classify", help="regime map and ellipticity audit")
    sc.add_argument("--u", required=True, help="pseudo-velocity (F2D vector)")
    sc.add_argument("--c2", required=True, help="sound speed squared (F2D)")
    sc.add_argument("--out-dir", default=".")
    sc.set_defaults(fn=cmd_classify)

    sd = sub.add_parser("decompose", help="Hodge-Helmholtz split of U")
    sd.add_argument("--u", required=True)
    sd.add_argument("--out-dir", default=".")
    sd.add_argument("--lin-tol", type=float, default=1e-11)
    sd.set_defaults(fn=cmd_decompose)

    st = sub.add_parser("transport", help="characteristic vorticity transport")
    st.add_argument("--psi", required=True, help="potential (F2D scalar)")
    st.add_argument("--inflow", required=True,
                    help="JSON side->constant or CSV-path inflow data")
    st.add_argument("--out-dir", default=".")
    st.add_argument("--step", type=float, default=None,
                    help="spatial length of an RK2 step of a characteristic "
                         "(default 3/4 of the larger cell side)")
    st.set_defaults(fn=cmd_transport)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ConfigError, DomainError, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, DimensionMismatch, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except (NonConvergence, SonicEncroachment, UncoveredNodes) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1
    except (InternalError, SelfsimError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
