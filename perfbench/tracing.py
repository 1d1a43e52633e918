"""Layer spans recorded from outside the program, and the per-layer metrics.

``install`` wraps selfsim's layer entry points by patching module and class
attributes in the current process; no source file changes.  Each wrapper
records a span (name, start, end, parent span, operation id) plus counts
taken from the call's arguments or return value, and re-raises whatever the
wrapped call raises, unchanged.  Spans stay in memory; the worker writes
them out when it exits.

``layer_metrics`` turns spans into the per-layer metrics.  A span's self
time is its duration minus the part of it that its child spans cover.  A
span's layer is the first component of its name, except that ``scipy.*``
calls (``splu``, ``spsolve``) are charged to the span that encloses them.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

# Per-layer metrics, in the order they are reported, with their units; a run
# reports their means over its operations.
LAYER_METRICS = {
    "potential.eps_stages": "count",
    "potential.picard_iters": "count",
    "potential.stage_failures": "count",
    "potential.assemble_s": "s",
    "potential.to_csc_s": "s",
    "potential.lu_factors": "count",
    "potential.lu_factor_s": "s",
    "potential.lu_fill_nnz": "count",       # largest stored L + U entries
    "potential.lu_solve_s": "s",            # solve_linear_dirichlet self
    "potential.solves_per_factor": "ratio",
    "potential.residual_s": "s",
    "potential.self_s": "s",
    "kernels.trace_s": "s",
    "kernels.trace_calls": "count",
    "kernels.trace_nodes": "count",
    "kernels.trace_us_per_node": "us",
    "kernels.stencil_s": "s",
    "kernels.stencil_calls": "count",
    "kernels.stencil_bytes": "B_computed",  # from array sizes, not measured
    "vorticity.transport_calls": "count",
    "vorticity.transport_s": "s",
    "vorticity.self_s": "s",
    "vorticity.traced": "count",
    "vorticity.uncovered": "count",
    "vorticity.coverage": "ratio",
    "vorticity.residual_s": "s",
    "hodge.decompose_s": "s",
    "hodge.neumann_lu_s": "s",
    "hodge.neumann_fill_nnz": "count",
    "hodge.poisson_calls": "count",
    "hodge.poisson_s": "s",
    "hodge.poisson_build_s": "s",           # poisson_s minus its spsolve
    "hodge.reconstruct_s": "s",
    "hodge.self_s": "s",
    "quasipotential.sweeps": "count",
    "quasipotential.base_solve_s": "s",
    "quasipotential.sweep_s": "s",          # median over sweeps
    "quasipotential.psi_solve_s": "s",
    "quasipotential.psi_factors": "count",
    "quasipotential.closure_s": "s",
    "quasipotential.self_s": "s",
    "field.read_s": "s",
    "field.read_bytes": "B",
    "field.write_s": "s",
    "field.write_bytes": "B",
    "field.files": "count",
    "regime.classify_s": "s",
    "cli.self_s": "s",
    "cli.traced_wall_s": "s",
}

# Metrics whose sum is the self time of every span: it equals the traced
# wall time of the CLI calls.
SELF_TIME_PARTS = ("potential.self_s", "kernels.trace_s", "kernels.stencil_s",
                   "vorticity.self_s", "hodge.self_s", "quasipotential.self_s",
                   "field.read_s", "field.write_s", "regime.classify_s",
                   "cli.self_s")

_CLOSURES = ("quasipotential.reconstruct_F1", "quasipotential.compute_Q1",
             "quasipotential.compute_N1", "quasipotential.c2_quasi")


class Recorder:
    """In-memory span store; ``wrap`` makes a traced version of a callable."""

    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """``count(args, kwargs, out, exc)`` returns the span's counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "op": self.op,
                    "parent": self._stack[-1] if self._stack else -1,
                    "start": 0.0, "end": 0.0, "counts": {}}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            out = exc = None
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                exc = e
                span["error"] = type(e).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if count is not None:
                    span["counts"] = count(args, kwargs, out, exc)

        return traced


# ---------------------------------------------------------------------------
# counts taken at the layer boundaries


def _stages(args, kwargs, out, exc):
    return {"stages": len(out[1].stages) if out is not None else 0}


def _picard(args, kwargs, out, exc):
    rep = out[1] if out is not None else getattr(exc, "report", None)
    return {"iterations": getattr(rep, "iterations", 0)}


def _transport(args, kwargs, out, exc):
    if out is None:
        return {}
    return {"traced": out[1].traced, "uncovered": out[1].uncovered}


def _quasi(args, kwargs, out, exc):
    if out is None:
        return {}
    return {"outer_iters": sum(s["outer_iters"] for s in out[1].stages)}


def _trace_nodes(args, kwargs, out, exc):
    return {"nodes": int(getattr(args[3], "size", 1))}


def _stencil_bytes(args, kwargs, out, exc):
    # 9 coefficient arrays and the input read, the output written (float64)
    return {"bytes": 11 * 8 * int(args[1].size)}


def _fill(args, kwargs, out, exc):
    # entries SuperLU stores for L and U; building out.L and out.U to count
    # theirs costs milliseconds per call, which would land in the parent span
    return {"fill_nnz": int(out.nnz)} if out is not None else {}


def _read_bytes(args, kwargs, out, exc):
    return {"bytes": os.path.getsize(args[0])} if out is not None else {}


def _write_bytes(args, kwargs, out, exc):
    return {"bytes": os.path.getsize(args[1])} if exc is None else {}


def _span_name(owner, attr):
    """``layer.attr`` or ``layer.Class.attr``; scipy's layer is ``scipy``."""
    if isinstance(owner, type):
        module, attr = owner.__module__, f"{owner.__name__}.{attr}"
    else:
        module = owner.__name__
    if module.startswith("scipy."):
        return f"scipy.{attr}"
    return f"{module.rsplit('.', 1)[-1].lstrip('_')}.{attr}"


def install(rec: Recorder):
    """Patch selfsim's layer entry points to record into ``rec``.

    Targets the program no longer has are skipped and listed in
    ``missing``.  Returns ``(restore, missing)``; ``restore()`` puts every
    patched attribute back.
    """
    import scipy.sparse.linalg as spla

    from selfsim import (_kernels, field, hodge, potential, quasipotential,
                         regime, vorticity)

    frozen = potential.FrozenSystem
    targets = [
        (potential, "epsilon_continuation", _stages),
        (potential, "picard_solve", _picard),
        (potential, "assemble_frozen", None),
        (potential, "solve_linear_dirichlet", None),
        (frozen, "matrix", None),
        (frozen, "factor", None),
        (frozen, "apply", None),
        (potential, "residual_Q", None),
        (_kernels, "trace_all", _trace_nodes),
        (_kernels, "apply_stencil", _stencil_bytes),
        (vorticity, "transport_omega", _transport),
        (vorticity, "transport_residual", None),
        (hodge, "decompose", None),
        (hodge, "reconstruct_F", None),
        (hodge, "integrability_residual", None),
        (hodge, "_solve_poisson_dirichlet", None),
        # quasipotential imported these three by name from hodge
        (quasipotential, "reconstruct_F", None),
        (quasipotential, "integrability_residual", None),
        (quasipotential, "_solve_poisson_dirichlet", None),
        (quasipotential, "solve_quasi", _quasi),
        (quasipotential, "reconstruct_F1", None),
        (quasipotential, "compute_Q1", None),
        (quasipotential, "compute_N1", None),
        (quasipotential, "c2_quasi", None),
        (field, "read_field", _read_bytes),
        (field, "write_field", _write_bytes),
        (regime, "classify", None),
        (spla, "splu", _fill),
        (spla, "spsolve", None),
    ]
    saved, missing = [], []
    wrapped = {}  # one wrapper per original callable, however many owners
    for owner, attr, count in targets:
        orig = owner.__dict__.get(attr)
        if orig is None:
            missing.append(f"{owner.__name__}.{attr}")
            continue
        if id(orig) not in wrapped:  # named after its first owner
            wrapped[id(orig)] = rec.wrap(_span_name(owner, attr), orig, count)
        saved.append((owner, attr, orig))
        setattr(owner, attr, wrapped[id(orig)])

    def restore():
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)

    return restore, missing


# ---------------------------------------------------------------------------
# span arithmetic


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTree:
    """Parent/child views of a span list (``parent`` indexes the list)."""

    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s["parent"] >= 0:
                self.children[s["parent"]].append(i)

    def dur(self, i):
        s = self.spans[i]
        return s["end"] - s["start"]

    def self_time(self, i):
        s = self.spans[i]
        kids = [(self.spans[k]["start"], self.spans[k]["end"])
                for k in self.children[i]]
        return self.dur(i) - _covered(kids, s["start"], s["end"])

    def enclosing(self, i):
        """Index of the nearest span, ``i`` included, that is not scipy."""
        while self.spans[i]["name"].startswith("scipy.") \
                and self.spans[i]["parent"] >= 0:
            i = self.spans[i]["parent"]
        return i

    def layer(self, i):
        return self.spans[self.enclosing(i)]["name"].split(".", 1)[0]

    def descendants(self, i):
        out, todo = [], list(self.children[i])
        while todo:
            k = todo.pop()
            out.append(k)
            todo.extend(self.children[k])
        return out

    def named(self, name):
        return [i for i, s in enumerate(self.spans) if s["name"] == name]


def self_by_span(spans) -> dict:
    """Total self time per span name; scipy calls keyed under their layer."""
    t = SpanTree(spans)
    out = {}
    for i, s in enumerate(spans):
        name = s["name"]
        if name.startswith("scipy."):
            name = f"{t.layer(i)}.{name}"
        out[name] = out.get(name, 0.0) + t.self_time(i)
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metrics (see LAYER_METRICS) of one operation's spans."""
    t = SpanTree(spans)

    def dur(idx):
        return sum(t.dur(i) for i in idx)

    def total(name):
        return dur(t.named(name))

    def count(name, key):
        return sum(spans[i]["counts"].get(key, 0) for i in t.named(name))

    layer_self = {}
    for i in range(len(spans)):
        layer = t.layer(i)
        layer_self[layer] = layer_self.get(layer, 0.0) + t.self_time(i)

    def splu_under(name):
        return [i for i in t.named("scipy.splu")
                if spans[t.enclosing(i)]["name"] == name]

    pot_lu = splu_under("potential.FrozenSystem.factor")
    hodge_lu = splu_under("hodge.decompose")
    solves = t.named("potential.solve_linear_dirichlet")
    poisson = t.named("hodge._solve_poisson_dirichlet")
    poisson_spsolve = [k for i in poisson for k in t.descendants(i)
                       if spans[k]["name"] == "scipy.spsolve"]
    trace_s = total("kernels.trace_all")
    trace_nodes = count("kernels.trace_all", "nodes")
    traced = count("vorticity.transport_omega", "traced")
    uncovered = count("vorticity.transport_omega", "uncovered")
    reads = t.named("field.read_field")
    writes = t.named("field.write_field")

    # quasi sweeps: children of solve_quasi, one sweep per transport call,
    # ending with the psi solve that follows it
    sweeps, base_s, psi_s, psi_factors = [], 0.0, 0.0, 0
    for q in t.named("quasipotential.solve_quasi"):
        kids = sorted(t.children[q], key=lambda k: spans[k]["start"])
        base_s += dur(k for k in kids if spans[k]["name"]
                      == "potential.epsilon_continuation")
        psi = [k for k in kids if spans[k]["name"] == "potential.picard_solve"]
        psi_s += dur(psi)
        psi_factors += len(set(pot_lu).intersection(
            d for k in psi for d in t.descendants(k)))
        starts = [k for k in kids
                  if spans[k]["name"] == "vorticity.transport_omega"]
        for n, k in enumerate(starts):
            stop = (spans[starts[n + 1]]["start"] if n + 1 < len(starts)
                    else float("inf"))
            group = [c for c in kids
                     if spans[k]["start"] <= spans[c]["start"] < stop]
            ends = [c for c in group
                    if spans[c]["name"] == "potential.picard_solve"]
            last = ends[0] if ends else group[-1]
            sweeps.append(spans[last]["end"] - spans[k]["start"])
    closures = [i for n in _CLOSURES for i in t.named(n)
                if spans[i]["parent"] < 0
                or spans[spans[i]["parent"]]["name"] not in _CLOSURES]

    lu_factors = len(pot_lu)
    m = {
        "potential.eps_stages": count("potential.epsilon_continuation",
                                      "stages"),
        "potential.picard_iters": count("potential.picard_solve",
                                        "iterations"),
        "potential.stage_failures": sum(
            1 for i in t.named("potential.picard_solve")
            if "error" in spans[i]),
        "potential.assemble_s": total("potential.assemble_frozen"),
        "potential.to_csc_s": total("potential.FrozenSystem.matrix"),
        "potential.lu_factors": lu_factors,
        "potential.lu_factor_s": dur(pot_lu),
        "potential.lu_solve_s": sum(t.self_time(i) for i in solves),
        "potential.residual_s": total("potential.residual_Q"),
        "potential.self_s": layer_self.get("potential", 0.0),
        "kernels.trace_s": trace_s,
        "kernels.trace_calls": len(t.named("kernels.trace_all")),
        "kernels.trace_nodes": trace_nodes,
        "kernels.stencil_s": total("kernels.apply_stencil"),
        "kernels.stencil_calls": len(t.named("kernels.apply_stencil")),
        "kernels.stencil_bytes": count("kernels.apply_stencil", "bytes"),
        "vorticity.transport_calls": len(t.named("vorticity.transport_omega")),
        "vorticity.transport_s": total("vorticity.transport_omega"),
        "vorticity.self_s": layer_self.get("vorticity", 0.0),
        "vorticity.traced": traced,
        "vorticity.uncovered": uncovered,
        "vorticity.residual_s": total("vorticity.transport_residual"),
        "hodge.decompose_s": total("hodge.decompose"),
        "hodge.neumann_lu_s": dur(hodge_lu),
        "hodge.poisson_calls": len(poisson),
        "hodge.poisson_s": dur(poisson),
        "hodge.poisson_build_s": dur(poisson) - dur(poisson_spsolve),
        "hodge.reconstruct_s": total("hodge.reconstruct_F"),
        "hodge.self_s": layer_self.get("hodge", 0.0),
        "quasipotential.sweeps": len(sweeps),
        "quasipotential.base_solve_s": base_s,
        "quasipotential.psi_solve_s": psi_s,
        "quasipotential.psi_factors": psi_factors,
        "quasipotential.closure_s": dur(closures),
        "quasipotential.self_s": layer_self.get("quasipotential", 0.0),
        "field.read_s": dur(reads),
        "field.read_bytes": count("field.read_field", "bytes"),
        "field.write_s": dur(writes),
        "field.write_bytes": count("field.write_field", "bytes"),
        "field.files": len(reads) + len(writes),
        "regime.classify_s": total("regime.classify"),
        "cli.self_s": layer_self.get("cli", 0.0),
        "cli.traced_wall_s": total("cli.main"),
    }
    m["potential.lu_fill_nnz"] = max(
        (spans[i]["counts"].get("fill_nnz", 0) for i in pot_lu), default=0)
    m["potential.solves_per_factor"] = (len(solves) / lu_factors
                                        if lu_factors else 0.0)
    m["kernels.trace_us_per_node"] = (1e6 * trace_s / trace_nodes
                                      if trace_nodes else 0.0)
    m["vorticity.coverage"] = ((traced - uncovered) / traced
                               if traced else 0.0)
    m["hodge.neumann_fill_nnz"] = max(
        (spans[i]["counts"].get("fill_nnz", 0) for i in hodge_lu), default=0)
    m["quasipotential.sweep_s"] = statistics.median(sweeps) if sweeps else 0.0
    return {k: m[k] for k in LAYER_METRICS}
