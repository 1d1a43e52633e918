"""One benchmark operation in a fresh process.

Run as ``python -m perfbench.worker JOB.json`` with the checkout's ``src``
first on PYTHONPATH.  The worker times its import of selfsim (numpy and
scipy come with it), then calls ``selfsim.cli.main`` once per command of the
job, timing wall and CPU time around those calls only.  With ``trace`` set
it records layer spans first.  Last, outside the timed interval, it checks
the outputs and writes its result JSON.  Exit code 3 means the program
could not be imported at all.
"""

import json
import os
import resource
import shutil
import sys
import time


def main(job_path):
    t0 = time.perf_counter()
    try:
        import numpy  # noqa: F401
        import scipy.sparse.linalg  # noqa: F401

        import selfsim.cli
    except ImportError as exc:
        print(f"worker: cannot import selfsim: {exc}", file=sys.stderr)
        return 3
    setup_s = time.perf_counter() - t0

    with open(job_path) as fh:
        job = json.load(fh)
    src = os.path.realpath(job["src"])
    where = os.path.realpath(selfsim.cli.__file__)
    if os.path.commonpath([src, where]) != src:
        print(f"worker: imported {where}, not the checkout's {src}",
              file=sys.stderr)
        return 3
    result = {"setup_s": setup_s, "env": _environment()}
    if not job.get("setup_only"):
        result.update(_operation(job, selfsim.cli))
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


def _operation(job, cli):
    from perfbench import workloads

    out_dir = job["out_dir"]
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    main, rec, missing, restore = cli.main, None, [], None
    if job["trace"]:
        from perfbench import tracing

        rec = tracing.Recorder(op=job["op"])
        restore, missing = tracing.install(rec)
        main = rec.wrap("cli.main", cli.main)
    codes, walls = [], []
    cpu0 = time.process_time()
    for argv in job["commands"]:
        w0 = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
        walls.append(time.perf_counter() - w0)
        codes.append(code)
    cpu_s = time.process_time() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if restore:  # the checks below call traced functions too
        restore()
    checked = workloads.check(job["name"], job["params"], out_dir, codes)
    return {"exit_codes": codes, "walls": walls, "wall_s": sum(walls),
            "cpu_s": cpu_s, "peak_rss_mb": peak_kb / 1024.0,
            "spans": rec.spans if rec else None, "untraced": missing,
            **checked}


def _environment():
    import numpy
    import scipy

    from selfsim import _kernels

    return {"backend": "numba" if _kernels.use_numba() else "numpy",
            "numba_importable": _kernels.HAVE_NUMBA,
            "numpy": numpy.__version__, "scipy": scipy.__version__}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
