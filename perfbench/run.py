#!/usr/bin/env python3
"""selfsim benchmark: end-to-end CLI metrics and a traced per-layer pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--record F]

Each workload (see workloads.py) is a closed loop with one client: the
runner writes the seeded inputs, then runs one operation at a time, each in
a fresh worker process that imports selfsim from this checkout's ``src`` and
calls ``selfsim.cli.main`` for the operation's commands.  Operations repeat
on the same inputs until the next one would end after ``--seconds`` (at
least one runs).  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` records layer spans in the worker and reports the per-layer metrics.
``--workload all`` runs every workload untraced and then traced, prints
both, the tracing overhead, and with ``--record`` writes the full record.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every operation passed its output checks, 1 when one failed, and 2
when the program cannot be run at all (then no result line is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import tracing, workloads  # noqa: E402

# End-to-end metrics gated by BENCHMARK.json, with units.
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Reported with them but not gated: answer_err depends on the seeded input,
# and fail_frac is zero on a passing run.
REPORTED = {"answer_err": "1", "fail_frac": "ratio"}
SETUP_SAMPLES = 4      # setup-only workers per untraced run, after a warm-up
LAST_START_S = 120.0   # no operation may end later, so a run ends within 180 s
WORKER_TIMEOUT_S = 170.0
THREAD_ENV = ("SELFSIM_", "OMP_", "OPENBLAS_", "MKL_")


class CannotRun(Exception):
    """The program cannot be imported or run from this checkout."""


def _median(values):
    return statistics.median(values) if values else float("nan")


# ---------------------------------------------------------------------------
# workers


def _worker_env():
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _run_worker(job: dict, job_path: Path) -> dict:
    """Run one worker and return its result; a failed worker's result holds
    only ``problems``."""
    job_path.write_text(json.dumps(job))
    result = Path(job["result"])
    if result.exists():
        result.unlink()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.worker", str(job_path)],
            cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"worker exceeded {WORKER_TIMEOUT_S:.0f} s"]}
    if proc.returncode == 3:
        raise CannotRun(proc.stderr.strip())
    if proc.returncode != 0 or not result.exists():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"problems": [f"worker exited {proc.returncode}: "
                             + " | ".join(tail)]}
    return json.loads(result.read_text())


# ---------------------------------------------------------------------------
# output fingerprints


def fingerprint(out_dir: Path) -> str:
    """Digest of every file the CLI wrote; JSON reports lose meta.timestamp."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.suffix == ".json":
            obj = json.loads(data)
            obj.get("meta", {}).pop("timestamp", None)
            data = json.dumps(obj, sort_keys=True).encode()
        h.update(f"{path.relative_to(out_dir)}\0".encode())
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def _source_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(f"{path.relative_to(src)}\0".encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


class FingerprintStore:
    """Output digests of earlier runs, keyed by source and inputs."""

    def __init__(self, path: Path):
        self.path = path
        self.known = json.loads(path.read_text()) if path.exists() else {}

    def compare(self, key: str, digest: str) -> bool:
        """Record ``digest``; False when an earlier run saw another one."""
        return self.known.setdefault(key, digest) == digest

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# one workload, one pass


def _environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"seed": seed, "git_commit": commit,
            "src_digest": _source_digest(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "thread_env": {k: v for k, v in sorted(os.environ.items())
                           if k.startswith(THREAD_ENV)}}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 size: str, store: FingerprintStore, work: Path,
                 base_env: dict) -> dict:
    """Measure one workload for ``seconds``; returns its record."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir = work / "out"
    job = workloads.make_inputs(name, seed, size, work / "in", out_dir)
    job.update(name=name, src=str(ROOT / "src"), out_dir=str(out_dir),
               trace=traced, op=0, result=str(work / "result.json"))
    job_path = work / "job.json"

    setup, env = [], {}
    if not traced:
        for k in range(SETUP_SAMPLES + 1):  # the first import warms caches
            res = _run_worker(dict(job, setup_only=True), job_path)
            if "setup_s" not in res:
                raise CannotRun("; ".join(res["problems"]))
            if k:
                setup.append(res["setup_s"])
            env = res["env"]

    key = (f"{name}|seed={seed}|src={base_env['src_digest']}"
           f"|inputs={fingerprint(work / 'in')}")
    ops = []
    t0 = time.perf_counter()
    while True:
        t_op = time.perf_counter()
        res = _run_worker(dict(job, op=len(ops)), job_path)
        env = res.get("env", env)
        if "wall_s" in res:
            setup.append(res["setup_s"])
            res["fingerprint"] = fingerprint(out_dir)
            if not store.compare(key, res["fingerprint"]):
                res["problems"].append(
                    "output fingerprint differs from an earlier run of the "
                    "same source and seed")
        ops.append(res)
        now = time.perf_counter()
        if (now - t0) + (now - t_op) > min(seconds, LAST_START_S):
            break
    store.save()

    done = [o for o in ops if "wall_s" in o]
    failed = sum(1 for o in ops if o["problems"])
    record = {
        "workload": name, "size": size,
        "traced": traced, "seconds": seconds, "params": job["params"],
        "attempted": len(ops), "failed": failed,
        "problems": sorted({p for o in ops for p in o["problems"]}),
        "work_counts": done[0]["counts"] if done else {},
        "fingerprint": done[0]["fingerprint"] if done else None,
        "env": {**base_env, **env},
        "samples": {"wall_s": len(done), "setup_s": len(setup)},
    }
    if traced:
        per_op = [tracing.layer_metrics(o["spans"]) for o in done]
        record["metrics"] = {
            k: statistics.fmean(m[k] for m in per_op) if per_op else 0.0
            for k in tracing.LAYER_METRICS}
        record["self_by_span"] = (tracing.self_by_span(done[0]["spans"])
                                  if done else {})
        record["untraced_targets"] = done[0]["untraced"] if done else []
    else:
        record["metrics"] = {
            "wall_s": _median([o["wall_s"] for o in done]),
            "cpu_s": _median([o["cpu_s"] for o in done]),
            "setup_s": _median(setup),
            "peak_rss_mb": _median([o["peak_rss_mb"] for o in done]),
            "answer_err": max((o["answer_err"] for o in done),
                              default=float("nan")),
            "fail_frac": failed / len(ops),
        }
        record["command_walls"] = [o["walls"] for o in done]
    return record


# ---------------------------------------------------------------------------
# output


def _units(traced: bool) -> dict:
    return tracing.LAYER_METRICS if traced else {**END_TO_END, **REPORTED}


def _print_record(rec: dict):
    mode = "traced, per layer" if rec["traced"] else "end to end"
    print(f"== {rec['workload']} ({mode}): {rec['attempted']} operation(s), "
          f"{rec['failed']} failed, backend {rec['env'].get('backend')}")
    units = _units(rec["traced"])
    for k, v in rec["metrics"].items():
        print(f"   {k:<32} {v:>14.6g} {units[k]}")
    for p in rec["problems"]:
        print(f"   FAILED CHECK: {p}")


def _result_line(records: list, prefix: bool) -> dict:
    metrics = {}
    for rec in records:
        units = END_TO_END if not rec["traced"] else tracing.LAYER_METRICS
        for k, unit in units.items():
            key = f"{rec['workload']}.{k}" if prefix else k
            metrics[key] = {"value": rec["metrics"][k], "unit": unit}
    return {"correct": all(r["failed"] == 0 for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.NAMES) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small grids that run in seconds (for tests)")
    ap.add_argument("--record", help="write the full record(s) to this file")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run then kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "selfsim" / "__init__.py").is_file():
        print(f"run.py: no selfsim sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    names = workloads.NAMES if args.workload == "all" else [args.workload]
    passes = (False, True) if args.workload == "all" else (bool(args.trace),)
    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    store = FingerprintStore(state / "fingerprints.json")
    work = state / "work"  # a fixed path keeps input digests comparable
    base_env = _environment(args.seed)
    records = []
    try:
        for name in names:
            for traced in passes:
                rec = run_workload(name, args.seed, args.seconds, traced,
                                   size, store, work, base_env)
                _print_record(rec)
                print("record: " + json.dumps(rec))
                records.append(rec)
    except CannotRun as exc:
        print(f"run.py: cannot run selfsim: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.workload == "all":
        for name in names:
            plain, traced = (r for r in records if r["workload"] == name)
            overhead = (traced["metrics"]["cli.traced_wall_s"]
                        - plain["metrics"]["wall_s"])
            traced["tracing_overhead_s"] = overhead
            print(f"== {name}: tracing overhead {overhead:+.4f} s")
    if args.record:
        Path(args.record).write_text(json.dumps(records, indent=1) + "\n")
    line = _result_line(records, prefix=args.workload == "all")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
