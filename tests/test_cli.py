"""Command-line interface tests: configs, subcommands, exit codes, outputs."""

import argparse
import csv
import inspect
import json
import os
from pathlib import Path

import numpy as np
import pytest

import selfsim as ss
from selfsim import (cli, field as fld, hodge, potential, quasipotential,
                     regime, vorticity)
from selfsim.errors import IndefiniteSystem, LinearStagnation

from conftest import per_value_f2d, quiescent_field


_QUASI_GRID = {"x0": 0.1, "x1": 0.6, "y0": 0.1, "y1": 0.6, "nx": 17, "ny": 17}


def small_config(tmp_path, **overrides):
    cfg = {
        "gas": {"a": 1.0, "gamma": 2.0},
        "grid": {"x0": -0.5, "x1": 0.5, "y0": -0.5, "y1": 0.5,
                 "nx": 17, "ny": 17},
        "boundary": {"kind": "quiescent", "K": -1.0},
        "solver": {"eps0": 0.1, "ratio": 0.25, "eps_min": 1e-4},
        "output": {"dir": str(tmp_path)},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_solve_potential_end_to_end(tmp_path):
    path = small_config(tmp_path)
    assert cli.main(["solve-potential", "--config", str(path)]) == 0
    phi = fld.read_field(tmp_path / "phi.f2d")
    grid = phi.grid
    exact = quiescent_field(grid)
    assert np.max(np.abs(phi.values - exact.values)) < 1e-8
    for name in ("c2.f2d", "L2.f2d", "report.json"):
        assert (tmp_path / name).exists()
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["report"]["status"] == "Converged"
    assert payload["report"]["audit"] == "Pass"
    assert payload["report"]["path"] == "direct"
    assert list(payload) == ["report"]  # no wall-clock metadata


def test_solve_potential_writes_the_solves_c2_and_L2(tmp_path, monkeypatch):
    # c2.f2d and L2.f2d are the report's fields, not a second evaluation
    solve = potential.solve
    reports, calls = [], []

    def solve_then_spy(*args, **kwargs):
        phi, report = solve(*args, **kwargs)
        reports.append(report)
        for owner, name in ((fld, "gradient"), (potential, "c2_of_phi"),
                            (regime, "pseudo_mach_field")):
            def spy(*a, _name=name, _fn=getattr(owner, name), **k):
                calls.append(_name)
                return _fn(*a, **k)
            monkeypatch.setattr(owner, name, spy)
        return phi, report

    monkeypatch.setattr(potential, "solve", solve_then_spy)
    path = small_config(tmp_path)
    assert cli.main(["solve-potential", "--config", str(path)]) == 0
    monkeypatch.undo()
    assert calls == []
    phi, c2, L2 = (fld.read_field(tmp_path / name)
                   for name in ("phi.f2d", "c2.f2d", "L2.f2d"))
    assert np.array_equal(c2.values, reports[0].c2.values)
    assert np.array_equal(L2.values, reports[0].L2.values)
    gp = fld.gradient(phi)
    c2_phi, _ = potential.c2_of_phi(ss.GasLaw(a=1.0, gamma=2.0), phi, gp)
    assert np.array_equal(c2.values, c2_phi.values)
    assert np.array_equal(L2.values,
                          regime.pseudo_mach_field(gp, c2_phi).values)


def test_solve_potential_csv_output(tmp_path):
    path = small_config(tmp_path, output={"dir": str(tmp_path), "csv": True})
    assert cli.main(["solve-potential", "--config", str(path)]) == 0
    with open(tmp_path / "phi.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["xi1", "xi2", "value"]
    assert len(rows) == 17 * 17 + 1
    phi = fld.read_field(tmp_path / "phi.f2d")
    X, Y = phi.grid.meshgrid()
    cells = np.array(rows[1:], dtype=float)
    assert np.array_equal(cells, np.column_stack(
        [X.ravel(), Y.ravel(), phi.values.ravel()]))


def test_csv_write_failure_leaves_no_temp_file(tmp_path, monkeypatch):
    grid = ss.Grid2D(-0.5, 0.5, -0.5, 0.5, 9, 9)
    writer = csv.writer

    class Failing:
        def __init__(self, fh):
            self.w = writer(fh)

        def writerow(self, row):
            self.w.writerow(row)

        def writerows(self, rows):
            raise OSError("disk full")

    monkeypatch.setattr(cli.csv, "writer", Failing)
    with pytest.raises(OSError):
        cli._write_csv(quiescent_field(grid), str(tmp_path / "phi.csv"))
    assert list(tmp_path.iterdir()) == []


def test_solve_potential_failed_eps0_stage_is_partial(tmp_path, monkeypatch):
    picard_solve = potential.picard_solve

    def picard(problem, eps, *args, **kwargs):
        if eps == 0.0:
            raise LinearStagnation("injected")
        return picard_solve(problem, eps, *args, **kwargs)

    monkeypatch.setattr(potential, "picard_solve", picard)
    path = small_config(tmp_path)
    assert cli.main(["solve-potential", "--config", str(path)]) == 1
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    assert report["status"] == "PartialContinuation"
    assert report["final_eps"] == 1e-4
    assert report["stages"][-1]["eps"] == 1e-4
    assert report["errors"] == ["eps=0: injected"]


def test_solve_potential_failed_first_stage_exits_1(tmp_path, capsys):
    # gamma = 2 data with c^2 = 1 plus 0.08 sin(pi (xi1 + 2 xi2) + 0.3) on
    # 9^2: the first eps stage meets a non-elliptic iterate
    grid = ss.Grid2D(-0.5, 0.5, -0.5, 0.5, 9, 9)
    X, Y = grid.meshgrid()
    table = quiescent_field(grid).values + 0.08 * np.sin(
        np.pi * (X + 2.0 * Y) + 0.3)
    path = small_config(
        tmp_path, grid={"x0": -0.5, "x1": 0.5, "y0": -0.5, "y1": 0.5,
                        "nx": 9, "ny": 9},
        boundary={"kind": "expression-table", "table": table.tolist()})
    assert cli.main(["solve-potential", "--config", str(path)]) == 1
    assert ("first continuation stage failed: ellipticity margin "
            "-1.166e-01 <= 0") in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("n, direct, first", [
    (17, "-2.693e-01", "-1.693e-01"),
    (33, "-3.082e-01", "-2.082e-01"),
])
def test_solve_potential_both_paths_fail_exits_1(tmp_path, capsys, n,
                                                 direct, first):
    # gamma = 3 data with c^2 = 1 plus 0.06 sin(pi (xi1 + 2 xi2) + 0.3):
    # phi_b is not elliptic, so the direct eps = 0 stage fails before its
    # first LU, and so does the first eps stage of the fallback
    grid = ss.Grid2D(-0.5, 0.5, -0.5, 0.5, n, n)
    X, Y = grid.meshgrid()
    table = quiescent_field(grid, -0.5).values + 0.06 * np.sin(
        np.pi * (X + 2.0 * Y) + 0.3)
    path = small_config(
        tmp_path, gas={"a": 1.0, "gamma": 3.0},
        grid={"x0": -0.5, "x1": 0.5, "y0": -0.5, "y1": 0.5, "nx": n, "ny": n},
        boundary={"kind": "expression-table", "table": table.tolist()})
    assert cli.main(["solve-potential", "--config", str(path)]) == 1
    assert (f"direct eps=0 solve failed (0 factorizations): ellipticity "
            f"margin {direct} <= 0; first continuation stage failed: "
            f"ellipticity margin {first} <= 0") in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def _all_files(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())
            if p.name != "config.json"}


@pytest.mark.parametrize("command", ["solve-potential", "solve-quasi"])
def test_outputs_are_byte_identical_across_runs(tmp_path, command):
    runs = []
    for k in range(2):
        d = tmp_path / f"run{k}"
        d.mkdir()
        path = small_config(
            d, output={"dir": str(d), "csv": True},
            grid={"x0": 0.1, "x1": 0.6, "y0": 0.1, "y1": 0.6,
                  "nx": 17, "ny": 17},
            quasi={"delta_targets": [0.0, 1e-3], "anchor": [8, 8]})
        assert cli.main([command, "--config", str(path)]) == 0
        runs.append(_all_files(d))
    assert "report.json" in runs[0] and len(runs[0]) > 1
    assert runs[0] == runs[1]


def test_every_written_f2d_is_the_per_value_join(tmp_path):
    # each command's F2D files are byte for byte the "%.17g" join of the
    # values read back from them (17 digits round-trip exactly)
    inp, pot, quasi, out = (tmp_path / d for d in ("in", "pot", "quasi",
                                                   "out"))
    for d in (inp, pot, quasi):
        d.mkdir()
    grid = ss.Grid2D(0.25, 0.75, 0.25, 0.75, 17, 17)
    U = ss.VectorField.from_function(grid, lambda x, y: -x - 0.1 * y * y,
                                     lambda x, y: -y + 0.1 * np.sin(5 * x))
    fld.write_field(U, inp / "U.f2d")
    fld.write_field(ss.ScalarField.from_function(grid, lambda x, y: 1.0),
                    inp / "c2.f2d")
    fld.write_field(quiescent_field(grid, 0.0), inp / "psi.f2d")
    (inp / "inflow.json").write_text('{"top": 1.0, "right": 1.0}')
    quasi_cfg = small_config(quasi, grid=_QUASI_GRID, quasi={
        "delta_targets": [0.0, 1e-3], "anchor": [8, 8]})
    for argv in (["solve-potential", "--config", str(small_config(pot))],
                 ["solve-quasi", "--config", str(quasi_cfg)],
                 ["classify", "--u", str(inp / "U.f2d"),
                  "--c2", str(inp / "c2.f2d"), "--out-dir", str(out)],
                 ["decompose", "--u", str(inp / "U.f2d"),
                  "--out-dir", str(out)],
                 ["transport", "--psi", str(inp / "psi.f2d"),
                  "--inflow", str(inp / "inflow.json"),
                  "--out-dir", str(out)]):
        assert cli.main(argv) == 0
    written = [p for d in (pot, quasi, out) for p in sorted(d.glob("*.f2d"))]
    assert sorted(p.name for p in written) == sorted([
        "phi.f2d", "c2.f2d", "L2.f2d",                    # solve-potential
        "psi.f2d", "zeta.f2d", "omega_tilde.f2d", "c2.f2d",  # solve-quasi
        "F1.f2d", "N1.f2d",
        "L2.f2d", "discriminant.f2d",                     # classify
        "psi.f2d", "W.f2d", "F.f2d",                      # decompose
        "omega.f2d"])                                     # transport
    for path in written:
        assert path.read_bytes() == per_value_f2d(fld.read_field(path))


def test_boundary_table_kind(tmp_path):
    grid = ss.Grid2D(-0.5, 0.5, -0.5, 0.5, 9, 9)
    table = quiescent_field(grid).values.tolist()
    path = small_config(
        tmp_path,
        grid={"x0": -0.5, "x1": 0.5, "y0": -0.5, "y1": 0.5, "nx": 9, "ny": 9},
        boundary={"kind": "expression-table", "table": table})
    assert cli.main(["solve-potential", "--config", str(path)]) == 0


def test_boundary_file_kind(tmp_path):
    grid = ss.Grid2D(-0.5, 0.5, -0.5, 0.5, 9, 9)
    bpath = tmp_path / "phi_b.f2d"
    fld.write_field(quiescent_field(grid), bpath)
    path = small_config(
        tmp_path,
        grid={"x0": -0.5, "x1": 0.5, "y0": -0.5, "y1": 0.5, "nx": 9, "ny": 9},
        boundary={"kind": "file", "path": str(bpath)})
    assert cli.main(["solve-potential", "--config", str(path)]) == 0


def test_solve_quasi_end_to_end(tmp_path):
    path = small_config(
        tmp_path,
        grid={"x0": 0.1, "x1": 0.6, "y0": 0.1, "y1": 0.6, "nx": 17, "ny": 17},
        quasi={"delta_targets": [0.0], "anchor": [8, 8]})
    assert cli.main(["solve-quasi", "--config", str(path)]) == 0
    for name in ("psi", "zeta", "omega_tilde", "c2", "N1", "F1"):
        assert (tmp_path / f"{name}.f2d").exists()
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["report"]["status"] == "Converged"
    # the last sweep's transport reached every node
    assert [s["uncovered"] for s in payload["report"]["stages"]] == [0]


def test_classify_subcommand(tmp_path):
    grid = ss.Grid2D(-0.5, 0.5, -0.5, 0.5, 17, 17)
    U = ss.VectorField.from_function(grid, lambda x, y: -x, lambda x, y: -y)
    c2 = ss.ScalarField.from_function(grid, lambda x, y: 1.0)
    fld.write_field(U, tmp_path / "U.f2d")
    fld.write_field(c2, tmp_path / "c2.f2d")
    assert cli.main(["classify", "--u", str(tmp_path / "U.f2d"),
                     "--c2", str(tmp_path / "c2.f2d"),
                     "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "classify.json").read_text())
    assert payload["report"]["audit"] == "Pass"
    assert payload["report"]["counts"]["subsonic"] == 17 * 17
    assert (tmp_path / "discriminant.f2d").exists()


def test_decompose_subcommand(tmp_path):
    grid = ss.Grid2D(-0.5, 0.5, -0.5, 0.5, 17, 17)
    U = ss.VectorField.from_function(grid, lambda x, y: -y + x,
                                     lambda x, y: x + y)
    fld.write_field(U, tmp_path / "U.f2d")
    assert cli.main(["decompose", "--u", str(tmp_path / "U.f2d"),
                     "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "decompose.json").read_text())
    assert payload["report"]["div_W_norm"] < 1e-10
    W = fld.read_field(tmp_path / "W.f2d")
    assert isinstance(W, ss.VectorField)


def test_transport_subcommand(tmp_path):
    grid = ss.Grid2D(0.25, 0.75, 0.25, 0.75, 17, 17)
    psi = ss.ScalarField.from_function(grid,
                                       lambda x, y: -(x ** 2 + y ** 2) / 2)
    fld.write_field(psi, tmp_path / "psi.f2d")
    (tmp_path / "inflow.json").write_text(json.dumps({"top": 1.0,
                                                      "right": 1.0}))
    assert cli.main(["transport", "--psi", str(tmp_path / "psi.f2d"),
                     "--inflow", str(tmp_path / "inflow.json"),
                     "--out-dir", str(tmp_path)]) == 0
    omega = fld.read_field(tmp_path / "omega.f2d")
    assert np.all(np.isfinite(omega.values))
    payload = json.loads((tmp_path / "transport.json").read_text())
    assert payload["report"]["uncovered"] == 0
    # the frame-side nodes exit, the rest are interpolated at their feet
    rep = payload["report"]
    assert rep["exited"] > 0 and rep["interpolated"] > 0
    assert rep["exited"] + rep["interpolated"] == rep["traced"]


def test_strict_transport_uncovered_node_exits_1(tmp_path, capsys):
    # the drift grad psi = -xi vanishes at the centre node, so no
    # characteristic from the inflow frame reaches it
    grid = ss.Grid2D(-0.5, 0.5, -0.5, 0.5, 9, 9)
    psi = ss.ScalarField.from_function(grid,
                                       lambda x, y: -(x ** 2 + y ** 2) / 2)
    fld.write_field(psi, tmp_path / "psi.f2d")
    (tmp_path / "inflow.json").write_text(json.dumps(
        {side: 1.0 for side in ("left", "right", "bottom", "top")}))
    assert cli.main(["--strict", "transport",
                     "--psi", str(tmp_path / "psi.f2d"),
                     "--inflow", str(tmp_path / "inflow.json"),
                     "--out-dir", str(tmp_path)]) == 1
    assert "solver error" in capsys.readouterr().err


def test_exit_code_missing_config(tmp_path):
    assert cli.main(["solve-potential", "--config",
                     str(tmp_path / "nope.json")]) == 3


def test_exit_code_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert cli.main(["solve-potential", "--config", str(p)]) == 2


def test_exit_code_unknown_key_strict(tmp_path):
    path = small_config(tmp_path, extra_section={"x": 1})
    assert cli.main(["--strict", "solve-potential",
                     "--config", str(path)]) == 2


@pytest.mark.parametrize("overrides", [
    {"seed": 7},
    {"solver": {"lin_max_iters": 10}},
    {"output": {"fields": ["phi"]}},
    {"solver": {"relax_theta": 0.7}},
    {"quasi": {"newton": True}},
])
def test_unread_keys_are_unknown(tmp_path, overrides):
    path = small_config(tmp_path, **overrides)
    assert cli.main(["--strict", "solve-potential",
                     "--config", str(path)]) == 2


def test_unknown_key_warns_without_strict(tmp_path, capsys):
    path = small_config(tmp_path, extra_section={"x": 1})
    assert cli.main(["solve-potential", "--config", str(path)]) == 0
    assert "unknown top-level key" in capsys.readouterr().err


def test_exit_code_bad_inflow_side(tmp_path):
    grid = ss.Grid2D(0.25, 0.75, 0.25, 0.75, 9, 9)
    psi = ss.ScalarField.from_function(grid, lambda x, y: -x * x)
    fld.write_field(psi, tmp_path / "psi.f2d")
    (tmp_path / "inflow.json").write_text(json.dumps({"north": 1.0}))
    assert cli.main(["transport", "--psi", str(tmp_path / "psi.f2d"),
                     "--inflow", str(tmp_path / "inflow.json"),
                     "--out-dir", str(tmp_path)]) == 2


def test_exit_code_truncated_field_file(tmp_path):
    grid = ss.Grid2D(-0.5, 0.5, -0.5, 0.5, 9, 9)
    U = ss.VectorField.from_function(grid, lambda x, y: -y, lambda x, y: x)
    fld.write_field(U, tmp_path / "U.f2d")
    lines = (tmp_path / "U.f2d").read_text().splitlines(keepends=True)
    (tmp_path / "U.f2d").write_text("".join(lines[:-5]))
    assert cli.main(["decompose", "--u", str(tmp_path / "U.f2d"),
                     "--out-dir", str(tmp_path)]) == 3


def _transport_with_inflow(tmp_path, inflow_text):
    grid = ss.Grid2D(0.25, 0.75, 0.25, 0.75, 9, 9)
    psi = ss.ScalarField.from_function(grid, lambda x, y: -x * x)
    fld.write_field(psi, tmp_path / "psi.f2d")
    (tmp_path / "inflow.json").write_text(inflow_text)
    return cli.main(["transport", "--psi", str(tmp_path / "psi.f2d"),
                     "--inflow", str(tmp_path / "inflow.json"),
                     "--out-dir", str(tmp_path)])


def test_exit_code_malformed_inflow_json(tmp_path):
    assert _transport_with_inflow(tmp_path, "{right: 1") == 2


def test_exit_code_non_numeric_inflow_csv(tmp_path):
    (tmp_path / "right.csv").write_text("1.0\nabc\n" + "1.0\n" * 7)
    spec = json.dumps({"right": str(tmp_path / "right.csv")})
    assert _transport_with_inflow(tmp_path, spec) == 2


def _no_work(monkeypatch, owner, name):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{name} ran on invalid input")
    monkeypatch.setattr(owner, name, no_work)


@pytest.mark.parametrize("inflow", [
    '{"right": NaN, "top": 1.0}',
    '{"right": 1.0, "top": -Infinity}',
    "csv",
])
def test_non_finite_inflow_exits_2(tmp_path, capsys, monkeypatch, inflow):
    # json reads NaN and Infinity, and loadtxt reads a "nan" line
    _no_work(monkeypatch, vorticity, "transport_omega")
    if inflow == "csv":
        (tmp_path / "right.csv").write_text("1.0\nnan\n" + "1.0\n" * 7)
        inflow = json.dumps({"right": str(tmp_path / "right.csv")})
    assert _transport_with_inflow(tmp_path, inflow) == 2
    assert "inflow values must be finite" in capsys.readouterr().err
    assert not (tmp_path / "omega.f2d").exists()


@pytest.mark.parametrize("bad", [np.nan, -1.0, 0.0, np.inf])
def test_classify_bad_c2_exits_2(tmp_path, capsys, monkeypatch, bad):
    _no_work(monkeypatch, regime, "classify")
    grid = ss.Grid2D(-0.5, 0.5, -0.5, 0.5, 9, 9)
    U = ss.VectorField.from_function(grid, lambda x, y: -x, lambda x, y: -y)
    c2 = ss.ScalarField.from_function(grid, lambda x, y: 1.0)
    c2.values[4, 5] = bad
    fld.write_field(U, tmp_path / "U.f2d")
    fld.write_field(c2, tmp_path / "c2.f2d")
    assert cli.main(["classify", "--u", str(tmp_path / "U.f2d"),
                     "--c2", str(tmp_path / "c2.f2d"),
                     "--out-dir", str(tmp_path)]) == 2
    assert "finite, positive c2" in capsys.readouterr().err
    assert not (tmp_path / "classify.json").exists()


@pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
def test_transport_bad_step_exits_2(tmp_path, capsys, step):
    # 0 is not "no step given": it is refused like every step that is not
    # finite and positive
    grid = ss.Grid2D(0.25, 0.75, 0.25, 0.75, 9, 9)
    fld.write_field(ss.ScalarField.from_function(grid, lambda x, y: -x * x),
                    tmp_path / "psi.f2d")
    (tmp_path / "inflow.json").write_text(json.dumps({"right": 1.0}))
    assert cli.main(["transport", "--psi", str(tmp_path / "psi.f2d"),
                     "--inflow", str(tmp_path / "inflow.json"),
                     "--out-dir", str(tmp_path), "--step", step]) == 2
    assert "step must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "omega.f2d").exists()


@pytest.mark.parametrize("lin_tol, bad", [
    ("0", None), ("-1", None), ("nan", None),
    ("1e-11", np.inf), ("1e-11", np.nan),
])
def test_decompose_input_errors_exit_2(tmp_path, capsys, monkeypatch,
                                       lin_tol, bad):
    # a bad tolerance or a non-finite U is an input error, raised before
    # the Neumann solver is set up
    def no_solve(*args, **kwargs):
        raise AssertionError("Neumann solver set up for invalid input")

    monkeypatch.setattr(hodge, "_NeumannSolver", no_solve)
    grid = ss.Grid2D(-0.5, 0.5, -0.5, 0.5, 9, 9)
    U = ss.VectorField.from_function(grid, lambda x, y: -y + x,
                                     lambda x, y: x + y)
    if bad is not None:
        U.v[4, 5] = bad
    fld.write_field(U, tmp_path / "U.f2d")
    assert cli.main(["decompose", "--u", str(tmp_path / "U.f2d"),
                     "--out-dir", str(tmp_path), "--lin-tol", lin_tol]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "decompose.json").exists()


@pytest.mark.parametrize("overrides", [
    {"solver": {"max_iters": "abc"}},
    {"grid": {**_QUASI_GRID, "nx": "x"}},
    {"quasi": {"delta_targets": 5}},
    {"gas": [1, 2]},
    {"grid": [1]},
    {"boundary": {"kind": "expression-table",
                  "table": [["a"] * 17] * 17}},
    # open() would take a number as a file descriptor
    {"boundary": {"kind": "file", "path": 9999}},
    {"quasi": {"zeta_b": 9999}},
    # int() would truncate these to 9 nodes, 2 steps and 1 sweep
    {"grid": {**_QUASI_GRID, "nx": 9.5}},
    {"grid": {**_QUASI_GRID, "ny": 17.5}},
    {"solver": {"max_iters": 2.7}},
    {"quasi": {"outer_max_iters": 1.5}},
    # the output paths are read before the solve
    {"output": {"dir": 5}},
    {"output": {"report_path": ["r.json"]}},
    {"output": 5},
])
def test_mistyped_config_value_exits_2(tmp_path, capsys, monkeypatch,
                                       overrides):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran on a malformed config")

    monkeypatch.setattr(quasipotential, "solve_quasi", no_solve)
    path = small_config(tmp_path, **{"grid": _QUASI_GRID, **overrides})
    assert cli.main(["solve-quasi", "--config", str(path)]) == 2
    assert "malformed config value" in capsys.readouterr().err


def test_mistyped_output_value_exits_2_before_solve_potential(
        tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran on a malformed config")

    monkeypatch.setattr(potential, "solve", no_solve)
    path = small_config(tmp_path, output={"dir": str(tmp_path),
                                          "phi_path": 7})
    assert cli.main(["solve-potential", "--config", str(path)]) == 2
    assert "malformed config value" in capsys.readouterr().err


def test_exit_code_bad_grid(tmp_path):
    path = small_config(
        tmp_path,
        grid={"x0": 0.5, "x1": -0.5, "y0": -0.5, "y1": 0.5,
              "nx": 9, "ny": 9})
    assert cli.main(["solve-potential", "--config", str(path)]) == 2


def _quasi_config(tmp_path, delta_targets, quasi=None, **overrides):
    return small_config(
        tmp_path, grid=_QUASI_GRID,
        quasi={"delta_targets": delta_targets, "anchor": [8, 8],
               **(quasi or {})},
        **overrides)


def _write_zeta_b(path):
    """A rotational zeta_b on the quasi grid, written as F2D."""
    fld.write_field(ss.ScalarField.from_function(
        ss.Grid2D(**_QUASI_GRID),
        lambda x, y: 0.5 * np.sin(np.pi * x) * np.cos(np.pi * y)
        + 0.25 * x * y), path)
    return str(path)


def _fail_stages_above(monkeypatch, delta_ok):
    """Make every quasi stage with delta > delta_ok raise LinearStagnation."""
    solve_stage = quasipotential._solve_stage

    def stage(config, base, params, delta, *rest):
        if delta > delta_ok:
            raise LinearStagnation("injected")
        return solve_stage(config, base, params, delta, *rest)

    monkeypatch.setattr(quasipotential, "_solve_stage", stage)


def test_solve_quasi_first_stage_linear_failure_exits_1(tmp_path, monkeypatch):
    _fail_stages_above(monkeypatch, -1.0)
    path = _quasi_config(tmp_path, [0.0])
    assert cli.main(["solve-quasi", "--config", str(path)]) == 1
    assert not (tmp_path / "report.json").exists()


def test_solve_quasi_later_stage_linear_failure_is_partial(tmp_path,
                                                           monkeypatch):
    _fail_stages_above(monkeypatch, 0.0)
    path = _quasi_config(tmp_path, [0.0, 1e-3])
    assert cli.main(["solve-quasi", "--config", str(path)]) == 1
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    assert report["status"] == "PartialContinuation"
    assert [s["delta"] for s in report["stages"]] == [0.0]
    assert report["errors"] == ["delta=0.001: injected"]


@pytest.mark.parametrize("quasi, message", [
    ({"sonic_margin": 0.99}, "max pseudo-Mach^2 0.7204 >= "),
    ({"outer_max_iters": 1, "outer_tol": 1e-14},
     "outer loop: change 2.941e-01 > 1.000e-14 after 1 sweeps"),
])
def test_solve_quasi_solver_failure_exits_1(tmp_path, capsys, quasi,
                                            message):
    zeta_b = tmp_path / "zeta_b.f2d"
    fld.write_field(ss.ScalarField.from_function(
        ss.Grid2D(**_QUASI_GRID),
        lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)), zeta_b)
    path = _quasi_config(tmp_path, [1e-2],
                         quasi={"zeta_b": str(zeta_b), **quasi})
    assert cli.main(["solve-quasi", "--config", str(path)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def _raise_on_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_solve_quasi_report_is_json_with_psi_residual(tmp_path):
    path = _quasi_config(
        tmp_path, [1e-3, 1e-2],
        quasi={"outer_tol": 1e-9,
               "zeta_b": _write_zeta_b(tmp_path / "zeta_b.f2d")})
    assert cli.main(["solve-quasi", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text(),
                        parse_constant=_raise_on_constant)["report"]
    assert report["final_eps"] == 0.0
    # the psi equation with its O(delta) forcing, not the bare Q(psi)
    assert report["final_residual"] <= 1e-8


def _rotational_quasi_run(tmp_path, **overrides):
    """Run solve-quasi to delta = 1e-2 with a rotational zeta_b; return the
    report and the written psi, zeta and c2."""
    path = _quasi_config(
        tmp_path, [1e-3, 1e-2],
        quasi={"outer_tol": 1e-9,
               "zeta_b": _write_zeta_b(tmp_path / "zeta_b.f2d")},
        **overrides)
    assert cli.main(["solve-quasi", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    return report, *(fld.read_field(tmp_path / f"{name}.f2d")
                     for name in ("psi", "zeta", "c2"))


def test_solve_quasi_report_describes_written_state(tmp_path):
    report, psi, zeta, c2 = _rotational_quasi_run(tmp_path)
    # c^2 = c0^2 - delta Q1 of the returned state, not the base closure c0^2
    assert report["c2_min"] == np.min(c2.values)
    assert report["c2_max"] == np.max(c2.values)
    assert report["clamped"] == 0
    # U = grad psi + perp_grad zeta, zeta already scaled by delta
    gp, pz = fld.gradient(psi), fld.perp_gradient(zeta)
    L2 = ((gp.u + pz.u) ** 2 + (gp.v + pz.v) ** 2) / c2.values
    assert abs(report["max_L2"] - np.max(L2)) <= 1e-12
    assert report["audit_details"]["max_L2"] == report["max_L2"]


def test_solve_quasi_closures_use_configured_c2_floor(tmp_path, monkeypatch):
    floors = []
    c2_quasi = quasipotential.c2_quasi
    signature = inspect.signature(c2_quasi)

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        floors.append(bound.arguments["c2_floor"])
        return c2_quasi(*args, **kwargs)

    monkeypatch.setattr(quasipotential, "c2_quasi", spy)
    report, *_ = _rotational_quasi_run(
        tmp_path, solver={"eps0": 0.1, "ratio": 0.25, "eps_min": 1e-4,
                          "c2_floor": 1e-6})
    # one call per sweep and one for the state each stage returns
    sweeps = sum(s["outer_iters"] for s in report["stages"])
    assert floors == [1e-6] * (sweeps + len(report["stages"]))


def test_solve_quasi_uses_configured_schedule(tmp_path, monkeypatch):
    # the direct eps = 0 attempt (no w0) fails, so the base solve falls
    # back to the continuation, which gets the configured schedule
    schedules = {"solve": [], "epsilon_continuation": []}
    for name, calls in schedules.items():
        def spy(problem, schedule=None, params=None, _calls=calls,
                _fn=getattr(potential, name)):
            _calls.append(schedule)
            return _fn(problem, schedule, params)
        monkeypatch.setattr(potential, name, spy)
    picard_solve = potential.picard_solve

    def direct_fails(problem, eps, params=None, w0=None, **kwargs):
        if w0 is None:
            raise IndefiniteSystem("injected")
        return picard_solve(problem, eps, params, w0, **kwargs)

    monkeypatch.setattr(potential, "picard_solve", direct_fails)
    path = small_config(
        tmp_path,
        grid={"x0": 0.1, "x1": 0.6, "y0": 0.1, "y1": 0.6, "nx": 17, "ny": 17},
        solver={"eps0": 0.05, "ratio": 0.25, "eps_min": 1e-4},
        quasi={"delta_targets": [0.0], "anchor": [8, 8]})
    assert cli.main(["solve-quasi", "--config", str(path)]) == 0
    assert [[s.eps0 for s in calls] for calls in schedules.values()] == [
        [0.05], [0.05]]
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    assert report["path"] == "continuation"


def test_strict_key_only_checks_config_keys(tmp_path):
    # a rotational zeta_b gives an O(1) curl defect of grad F1; neither
    # spelling of strict may turn that diagnostic into a failure
    zeta_b = _write_zeta_b(tmp_path / "zeta_b.f2d")
    runs = []
    for name, flags, top in (("flag", ["--strict"], {}),
                             ("key", [], {"strict": True})):
        d = tmp_path / name
        d.mkdir()
        path = _quasi_config(d, [0.0, 1e-3], quasi={"zeta_b": zeta_b}, **top)
        assert cli.main([*flags, "solve-quasi", "--config", str(path)]) == 0
        runs.append(_all_files(d))
    report = json.loads(runs[0]["report.json"])["report"]
    assert report["stages"][-1]["curl_defect"] > 1.0
    assert runs[0] == runs[1]


@pytest.mark.parametrize("anchor", [[99, 99], [1, 2, 3], "xx"])
def test_solve_quasi_rejects_bad_anchor(tmp_path, monkeypatch, anchor):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve started before the anchor was checked")

    monkeypatch.setattr(potential, "solve", no_solve)
    path = _quasi_config(tmp_path, [0.0], quasi={"anchor": anchor})
    assert cli.main(["solve-quasi", "--config", str(path)]) == 2
    assert not (tmp_path / "report.json").exists()


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("overrides", [
    {"solver": {"tol_fixed_point": _NAN}},
    {"solver": {"lin_tol": _NAN}},
    {"solver": {"cap_M": _NAN}},
    {"solver": {"cap_M": _INF}},
    {"solver": {"c2_floor": _NAN}},
    {"solver": {"eps0": _INF}},
    {"quasi": {"delta_targets": [_NAN]}},
    {"quasi": {"outer_tol": _NAN}},
    {"quasi": {"sonic_margin": _NAN}},
    {"quasi": {"sonic_margin": -5.0}},
    {"quasi": {"sonic_margin": 1.0}},
], ids=lambda o: ",".join(f"{sec}.{k}={v}" for sec, d in o.items()
                          for k, v in d.items()))
def test_nan_or_out_of_range_setting_exits_2(tmp_path, monkeypatch,
                                             overrides):
    # each setting is checked on its own before any solve; json writes
    # and reads NaN and Infinity
    def no_solve(*args, **kwargs):
        raise AssertionError("solve started before the settings were checked")

    monkeypatch.setattr(potential, "solve", no_solve)
    quasi = {"delta_targets": [0.0], "anchor": [8, 8],
             **overrides.get("quasi", {})}
    solver = {"eps0": 0.1, "ratio": 0.25, "eps_min": 1e-4,
              **overrides.get("solver", {})}
    path = small_config(tmp_path, grid=_QUASI_GRID, quasi=quasi,
                        solver=solver)
    assert cli.main(["solve-quasi", "--config", str(path)]) == 2
    assert not (tmp_path / "report.json").exists()


def test_readme_lists_every_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    listed = [line.split()[1] for line in block.splitlines()
              if line.startswith("selfsim ")]
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(listed) == sorted(sub.choices)


def test_readme_config_schema_names_every_key():
    # the schema block is JSON with // comments; it names exactly the
    # sections and keys that the config reader accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config schema (JSON)", 1)[1].split("```")[1]
    body = block.split("\n", 1)[1]  # drop the jsonc fence tag
    cfg = json.loads("\n".join(line.split("//")[0]
                               for line in body.splitlines()))
    assert set(cfg) == cli._KNOWN_SECTIONS
    assert {k: set(v) for k, v in cfg.items()
            if isinstance(v, dict)} == cli._KNOWN_KEYS
