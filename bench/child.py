"""One benchmark round in its own process: import the CLI, run its calls.

Usage: python3 child.py JOB.json

The job names the package's source directory, the CLI argument lists, the
report path and whether to trace.  The report records the monotonic clock
reading once `robustmc.cli` is imported (the parent compares it with the
moment it started this process), the wall time of the calls, their exit
codes, this process's peak resident set and the numeric environment.  The
BLAS thread variables come from the parent's environment.
"""

import json
import os
import sys
import time


def numeric_environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(job_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import robustmc.cli

    imported_at = time.monotonic()
    tracer = None
    if job["trace"]:
        from layertrace import Tracer
        tracer = Tracer.install()
    codes = []
    t0 = time.perf_counter()
    for argv in job["calls"]:
        if tracer is None:
            codes.append(robustmc.cli.main(argv))
        else:
            codes.append(tracer.call(robustmc.cli.main, "cli", "main", (argv,), {}))
    wall_s = time.perf_counter() - t0
    import resource

    report = {
        "imported_at": imported_at,
        "wall_s": wall_s,
        "codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": numeric_environment(),
        "layers": None if tracer is None else tracer.metrics(wall_s),
    }
    with open(job["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(sys.argv[1])
