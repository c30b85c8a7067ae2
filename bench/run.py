"""Benchmark of the robustmc CLI.

Usage, from the root of the repository:

    python3 bench/run.py --workload simulate-100 --seed 1 --seconds 10 --trace 0

A run makes the workload's inputs from --seed, measures set-up (the
median of several child processes that only import `robustmc.cli`), then
repeats whole rounds of the workload's CLI calls, each round in a fresh
child process pinned to one BLAS thread, until --seconds have passed.
Every round's outputs are checked.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced run
with --trace 1.  The line before it records the numeric environment, and
a fuller record goes to bench/results/.
"""

import os

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(BLAS_THREADS)  # before numpy loads; children get it through `spawn`

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from layertrace import SELF_TIME_PARTS  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SPAWNS = 5
CHILD_TIMEOUT_S = 150
COVERAGE_SHARE = 0.01  # traced: |sum of layer self times - traced wall| / traced wall
OK, DATA_ERROR, NOT_CONVERGED = 0, 2, 3


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def declared_units(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def spawn(work, calls, trace):
    """Run one child process; return its report with `setup_s` added."""
    job_path = os.path.join(work, "job.json")
    report_path = os.path.join(work, "report.json")
    log_path = os.path.join(work, "child.log")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump({"src": SRC, "calls": calls, "trace": trace, "report": report_path}, fh)
    if os.path.exists(report_path):
        os.remove(report_path)
    with open(log_path, "wb") as log:
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), job_path],
                                stdout=log, stderr=subprocess.STDOUT, cwd=work,
                                env=dict(os.environ, **BLAS_THREADS))
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"child process ran over {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"child process exited {proc.returncode}:\n{tail}")
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["setup_s"] = report["imported_at"] - started
    return report


def out_dirs(calls):
    return [argv[argv.index("--out-dir") + 1] for argv in calls]


def run_workload(workload, seed, seconds, trace, work, setup_spawns=SETUP_SPAWNS):
    """Measure one workload in `work`; return (result line, record)."""
    calls = workload.prepare(work, seed)
    spawn(work, [], False)  # warm-up: byte-compiles the package, fills the file cache
    setups = [spawn(work, [], False)["setup_s"] for _ in range(setup_spawns)]
    rounds, problems = [], []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        for d in out_dirs(calls):
            shutil.rmtree(d, ignore_errors=True)
        report = spawn(work, calls, trace)
        unexpected = [c for c in report["codes"] if c not in (OK, DATA_ERROR, NOT_CONVERGED)]
        if unexpected:
            raise BenchError(f"CLI exit codes {report['codes']} for {calls}")
        if all(c == OK for c in report["codes"]):
            try:
                report["rse"] = workload.check()
            except CheckFailed as exc:
                problems.append(str(exc))
        rounds.append(report)
    rses = [r["rse"] for r in rounds if "rse" in r]
    if not rses:
        # Nothing was verified, so nothing is vouched for; the counts and
        # the timings still show what the failed operations cost.
        problems.append("no round ran without a failed operation and passed its checks")
    elif len(set(rses)) != 1:
        problems.append(f"robust_test_rse differs between rounds of one seed: {rses}")
    if trace:
        for r in rounds:
            m = r["layers"]
            share = abs(sum(m[k] for k in SELF_TIME_PARTS) - m["trace.wall_s"]) / m["trace.wall_s"]
            if share > COVERAGE_SHARE:
                problems.append(f"layer self times miss the traced wall by {share:.2%}")
        values = {k: statistics.median(r["layers"][k] for r in rounds) for k in rounds[0]["layers"]}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        if rses:
            values["robust_test_rse"] = rses[0]
    units = declared_units(trace)
    unmeasured = {"robust_test_rse"} if not trace and not rses else set()
    if set(values) != set(units) - unmeasured:
        raise BenchError(f"measured metrics {sorted(values)} differ from BENCHMARK.json's {sorted(units)}")
    codes = [c for r in rounds for c in r["codes"]]
    result = {
        "correct": not problems,
        "attempted": len(codes),
        "failed": sum(c != OK for c in codes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": rounds[0]["env"], "problems": problems, "setup_s": setups,
        "rounds": [{k: r.get(k) for k in ("wall_s", "peak_rss_mb", "codes", "rse", "layers")}
                   for r in rounds],
    }
    return result, record


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "robustmc", "cli.py")):
        sys.stderr.write(f"bench: no robustmc package under {SRC}\n")
        return 2
    work = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result, record = run_workload(WORKLOADS[args.workload](), args.seed, args.seconds,
                                      bool(args.trace), work)
    except (BenchError, OSError) as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in record["problems"]:
        sys.stderr.write(f"bench: check failed: {problem}\n")
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump(dict(record, result=result), fh, indent=1)
    print(json.dumps({"env": record["env"]}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
