"""Tests of the benchmark: tracing, span arithmetic, names, smoke runs."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

import selfsim as ss  # noqa: E402
from selfsim import cli, potential  # noqa: E402
from selfsim.errors import NonConvergence  # noqa: E402

from perfbench import run, tracing, workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_restore_puts_originals_back():
    before = (potential.picard_solve, potential.FrozenSystem.factor,
              cli.potential.epsilon_continuation)
    rec = tracing.Recorder()
    restore, _ = tracing.install(rec)
    assert potential.picard_solve is not before[0]
    restore()
    assert (potential.picard_solve, potential.FrozenSystem.factor,
            cli.potential.epsilon_continuation) == before


def test_wrapper_reraises_the_same_exception():
    exc = NonConvergence("boom")

    def fails():
        raise exc

    rec = tracing.Recorder()
    with pytest.raises(NonConvergence) as info:
        rec.wrap("potential.picard_solve", fails, tracing._picard)()
    assert info.value is exc
    assert rec.spans[0]["error"] == "NonConvergence"
    assert rec.spans[0]["counts"] == {"iterations": 0}


def test_nonconvergence_still_reaches_continuation(monkeypatch):
    """A stage failure raised under a traced picard_solve still turns the
    continuation into PartialContinuation."""
    grid = ss.Grid2D(-0.5, 0.5, -0.5, 0.5, 9, 9)
    phi_b = ss.ScalarField.from_function(
        grid, lambda x, y: -(x ** 2 + y ** 2) / 2 - 1.0)
    problem = potential.PotentialProblem(law=ss.GasLaw(a=1.0, gamma=2.0),
                                         grid=grid, phi_b=phi_b)
    real = potential.picard_solve
    calls = []

    def third_call_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise NonConvergence("injected stage failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(potential, "picard_solve", third_call_fails)
    rec = tracing.Recorder()
    restore, _ = tracing.install(rec)
    try:
        _, report = potential.epsilon_continuation(problem)
    finally:
        restore()
    assert report.status == "PartialContinuation"
    assert any("injected stage failure" in e for e in report.errors)
    failed = [s for s in rec.spans if s["name"] == "potential.picard_solve"
              and "error" in s]
    assert len(failed) == 1 and failed[0]["error"] == "NonConvergence"
    m = tracing.layer_metrics(rec.spans)
    assert m["potential.stage_failures"] == 1
    assert m["potential.eps_stages"] == 2


def _span(name, start, end, parent, **counts):
    return {"name": name, "op": 0, "parent": parent, "start": start,
            "end": end, "counts": counts}


def test_self_time_arithmetic_on_a_synthetic_tree():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),                        # 0
        _span("potential.picard_solve", 1.0, 6.0, 0, iterations=2),  # 1
        _span("potential.FrozenSystem.factor", 1.5, 4.5, 1),     # 2
        _span("scipy.splu", 2.0, 4.0, 2, fill_nnz=50),           # 3
        _span("kernels.apply_stencil", 4.5, 5.5, 1, bytes=88),   # 4
        _span("field.write_field", 7.0, 8.0, 0, bytes=10),       # 5
        _span("hodge.decompose", 8.0, 9.5, 0),                   # 6
        _span("scipy.splu", 8.5, 9.0, 6, fill_nnz=70),           # 7
    ]
    m = tracing.layer_metrics(spans)
    # cli: 10 - (5 + 1 + 1.5); potential: picard 5-3-1, factor 3-2, splu 2
    assert m["cli.self_s"] == pytest.approx(2.5)
    assert m["potential.self_s"] == pytest.approx(4.0)
    assert m["potential.lu_factors"] == 1
    assert m["potential.lu_factor_s"] == pytest.approx(2.0)
    assert m["potential.lu_fill_nnz"] == 50
    assert m["potential.picard_iters"] == 2
    assert m["kernels.stencil_s"] == pytest.approx(1.0)
    assert m["hodge.self_s"] == pytest.approx(1.5)
    assert m["hodge.neumann_lu_s"] == pytest.approx(0.5)
    assert m["hodge.neumann_fill_nnz"] == 70
    assert m["field.write_bytes"] == 10 and m["field.files"] == 1
    assert m["cli.traced_wall_s"] == pytest.approx(10.0)
    assert sum(m[k] for k in tracing.SELF_TIME_PARTS) == pytest.approx(10.0)
    by_span = tracing.self_by_span(spans)
    assert by_span["potential.scipy.splu"] == pytest.approx(2.0)
    assert by_span["hodge.scipy.splu"] == pytest.approx(0.5)


def test_covered_merges_overlapping_children():
    assert tracing._covered([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert tracing._covered([(-1, 2), (9, 12)], 0, 10) == 3
    assert tracing._covered([], 0, 10) == 0


def test_names_and_benchmark_json_agree():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(
        tracing.LAYER_METRICS)
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert m["unit"] == {**run.END_TO_END,
                             **tracing.LAYER_METRICS}[m["name"]]
    names = (list(workloads.NAMES) + list(run.END_TO_END)
             + list(run.REPORTED) + list(tracing.LAYER_METRICS))
    assert all(NAME.match(n) for n in names), names
    assert len(set(names)) == len(names)


def test_fingerprint_ignores_the_timestamp_only(tmp_path):
    (tmp_path / "a.f2d").write_text("F2D 1 1 0 1 0 1 scalar\n1\n")
    rep = {"report": {"x": 1}, "meta": {"timestamp": "2026-01-01T00:00:00"}}
    (tmp_path / "r.json").write_text(json.dumps(rep))
    first = run.fingerprint(tmp_path)
    rep["meta"]["timestamp"] = "2027-01-01T00:00:00"
    (tmp_path / "r.json").write_text(json.dumps(rep))
    assert run.fingerprint(tmp_path) == first
    (tmp_path / "a.f2d").write_text("F2D 1 1 0 1 0 1 scalar\n2\n")
    assert run.fingerprint(tmp_path) != first
    store = run.FingerprintStore(tmp_path / "fp.json")
    assert store.compare("k", "d1") and store.compare("k", "d1")
    assert not store.compare("k", "d2")


def test_inputs_depend_only_on_the_seed(tmp_path):
    for name in workloads.NAMES:
        a = workloads.make_inputs(name, 3, "smoke", tmp_path / "a", tmp_path)
        b = workloads.make_inputs(name, 3, "smoke", tmp_path / "b", tmp_path)
        c = workloads.make_inputs(name, 4, "smoke", tmp_path / "c", tmp_path)
        assert a["params"] == b["params"] != c["params"]
        for f in (tmp_path / "a").iterdir():
            if f.suffix == ".f2d":
                assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


def _bench(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_smoke_run_of_every_workload(tmp_path):
    record = tmp_path / "record.json"
    proc = _bench(["--workload", "all", "--seed", "5", "--seconds", "0.1",
                   "--smoke", "--record", str(record)], ROOT)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    recs = {(r["workload"], r["traced"]): r
            for r in json.loads(record.read_text())}
    for name in workloads.NAMES:
        plain, traced = recs[(name, False)], recs[(name, True)]
        assert set(run.END_TO_END) <= set(plain["metrics"])
        assert all(plain["metrics"][k] > 0 for k in run.END_TO_END)
        m = traced["metrics"]
        assert list(m) == list(tracing.LAYER_METRICS)
        parts = sum(m[k] for k in tracing.SELF_TIME_PARTS)
        assert parts == pytest.approx(m["cli.traced_wall_s"], rel=1e-9)
        # tracing leaves every output byte-identical (JSON minus timestamp)
        assert traced["fingerprint"] == plain["fingerprint"]
        assert traced["untraced_targets"] == []
        counts = traced["work_counts"]
        if name == "solve-potential-33":
            assert (m["potential.lu_factors"] == m["potential.picard_iters"]
                    == counts["picard_iters"])
            assert m["kernels.trace_calls"] == 0
        elif name == "postprocess-129":
            assert m["vorticity.traced"] == counts["traced"]
            assert m["potential.picard_iters"] == 0
        else:
            assert m["quasipotential.sweeps"] == counts["outer_iters"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(["--workload", "solve-potential-33", "--seed", "1",
                   "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
