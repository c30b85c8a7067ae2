"""Byte-identity battery: do the CLI's outputs match those of a git revision?

    python tools/identity.py --base REV

Checks out REV with `git worktree add --detach` into a temporary directory,
then runs one fixed battery of CLI calls against that tree's `src/` and
against the working tree's `src/`.  Each call runs in its own child process
(`python -m robustmc.cli`, one BLAS thread) from a run directory of its
tree, on the same generated inputs and with relative paths, so that no
message or manifest names either tree.  Exit codes, stderr and every file a
run leaves are compared byte for byte; `manifest.json` is compared without
its `created_utc` stamp.  Prints one JSON summary line and exits 1 on any
difference.  The worktree is removed again however the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _battery():
    """(name, argv) pairs; a call that writes output writes it to `name`/."""
    calls = []
    for count in ((), ("--gamma-count", "6")):
        for method in ("robust", "soft", "both"):
            calls.append(("simulate", "--seed", "1", "--replicates", "3",
                          "--method", method) + count)
    for missing in ("independent", "clustered", "none"):
        for path in (("--gamma", "1"), ("--gamma-path", "10,3,1"), ("--gamma-count", "5")):
            calls.append(("inpaint", "image.pgm", "--missing", missing,
                          "--replicates", "2") + path)
    calls.append(("inpaint", "image.pgm", "--gamma-count", "3", "--max-iters", "1"))
    calls.append(("inpaint", "flat.pgm", "--gamma-count", "3"))
    variants = ((), ("--gamma-count", "5"), ("--gamma-path", "8,4,2"), ("--gamma", "2"),
                ("--c", "0.5"))
    for csv in ("full.csv", "partial.csv"):
        for variant in variants + (("--no-robust",), ("--gamma", "0", "--no-robust")):
            calls.append(("complete", csv) + variant)
        for variant in variants:
            calls.append(("outliers", csv) + variant)
    calls += [
        ("complete", "full.csv", "--gamma", "1", "--gamma-path", "3,2"),
        ("complete", "full.csv", "--gamma-path", "3,x"),
        ("complete", "full.csv", "--tol", "0"),
        ("simulate", "--replicates", "0"),
        ("simulate", "--gamma", "1"),
        ("inpaint", "image.pgm", "--ranks", "50,x"),
    ]
    return [(f"call{i:02d}", argv + ("--out-dir", f"call{i:02d}"))
            for i, argv in enumerate(calls)]


BATTERY = _battery()


def _write_pgm(path, img):
    rows, cols = img.shape
    path.write_bytes(b"P5\n%d %d\n255\n" % (cols, rows) + img.astype(np.uint8).tobytes())


def _write_csv(path, x, flags):
    lines = (",".join(repr(float(v)) if f else ("NA" if j % 2 else "")
                      for j, (v, f) in enumerate(zip(row, frow)))
             for row, frow in zip(x, flags))
    path.write_text("\n".join(lines) + "\n")


def write_inputs(run_dir: Path):
    """The battery's inputs, generated here so they do not depend on either tree."""
    rng = np.random.default_rng(20)
    i, j = np.mgrid[0:64, 0:64]
    texture = 128 + 60 * np.sin(i / 5.0) * np.cos(j / 7.0) + 20 * rng.standard_normal((64, 64))
    _write_pgm(run_dir / "image.pgm", np.clip(np.rint(texture), 0, 255))
    _write_pgm(run_dir / "flat.pgm", np.full((16, 16), 128))
    x = rng.standard_normal((24, 2)) @ rng.standard_normal((2, 18))
    x += 0.05 * rng.standard_normal(x.shape)
    x[3, 4] += 9.0
    x[17, 11] -= 8.0
    _write_csv(run_dir / "full.csv", x, np.ones(x.shape, dtype=bool))
    _write_csv(run_dir / "partial.csv", x, rng.random(x.shape) < 0.7)


def run_battery(src: Path, run_dir: Path, calls=BATTERY) -> dict:
    """Run `calls` against the package in `src` from `run_dir`; return
    {name: (exit code, stderr bytes)}."""
    run_dir.mkdir(parents=True)
    write_inputs(run_dir)
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in THREAD_VARIABLES})
    results = {}
    for name, argv in calls:
        proc = subprocess.run([sys.executable, "-m", "robustmc.cli", *argv], cwd=run_dir,
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        results[name] = (proc.returncode, proc.stderr)
    return results


def _files(run_dir: Path) -> dict:
    return {p.relative_to(run_dir).as_posix(): p for p in run_dir.rglob("*") if p.is_file()}


def _content(path: Path):
    if path.name == "manifest.json":
        manifest = json.loads(path.read_bytes())
        manifest.pop("created_utc", None)
        return manifest
    return path.read_bytes()


def compare(base_dir: Path, base_runs: dict, head_dir: Path, head_runs: dict) -> list:
    """Every difference between two battery runs, one message each."""
    diffs = []
    for name, (base_code, base_err) in base_runs.items():
        head_code, head_err = head_runs[name]
        if base_code != head_code:
            diffs.append(f"{name}: exit code {base_code} -> {head_code}")
        if base_err != head_err:
            diffs.append(f"{name}: stderr {base_err!r} -> {head_err!r}")
    base_files, head_files = _files(base_dir), _files(head_dir)
    for rel in sorted(base_files.keys() ^ head_files.keys()):
        diffs.append(f"{rel}: only in {'base' if rel in base_files else 'head'}")
    for rel in sorted(base_files.keys() & head_files.keys()):
        if _content(base_files[rel]) != _content(head_files[rel]):
            diffs.append(f"{rel}: contents differ")
    return diffs


def identity(base: str, calls=BATTERY) -> dict:
    """Run `calls` against `base`'s tree and the working tree and compare."""
    commit = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--verify", f"{base}^{{commit}}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tree, base_dir, head_dir = Path(tmp, "tree"), Path(tmp, "base"), Path(tmp, "head")
        subprocess.run(["git", "-C", str(REPO), "worktree", "add", "--detach", "--quiet",
                        str(tree), commit], check=True)
        try:
            base_runs = run_battery(tree / "src", base_dir, calls)
            head_runs = run_battery(REPO / "src", head_dir, calls)
        finally:
            subprocess.run(["git", "-C", str(REPO), "worktree", "remove", "--force", str(tree)],
                           check=False)
        diffs = compare(base_dir, base_runs, head_dir, head_runs)
        return {"base": base, "commit": commit, "calls": len(calls),
                "files": len(_files(head_dir)), "identical": not diffs, "differences": diffs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    summary = identity(parser.parse_args(argv).base)
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
