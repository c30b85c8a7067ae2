import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))

import identity  # noqa: E402

REDUCED = [
    ("outliers", ("outliers", "partial.csv", "--gamma-count", "3", "--out-dir", "outliers")),
    ("usage", ("complete", "full.csv", "--tol", "0", "--out-dir", "usage")),
]


def _src_is_clean():
    if shutil.which("git") is None or not (REPO / ".git").exists():
        return False
    status = subprocess.run(["git", "-C", str(REPO), "status", "--porcelain", "--", "src"],
                            capture_output=True, text=True)
    return status.returncode == 0 and status.stdout == ""


@pytest.mark.skipif(not _src_is_clean(), reason="needs git and an unmodified src/")
def test_head_against_its_own_tree_reports_no_difference():
    summary = identity.identity("HEAD", REDUCED)
    assert summary["identical"], summary["differences"]
    assert summary["calls"] == 2
    assert summary["files"] > 4  # the generated inputs and the outputs


def test_planted_byte_is_reported_with_its_file(tmp_path):
    runs = identity.run_battery(REPO / "src", tmp_path / "base", REDUCED[:1])
    assert runs["outliers"][0] == 0
    shutil.copytree(tmp_path / "base", tmp_path / "head")
    assert identity.compare(tmp_path / "base", runs, tmp_path / "head", runs) == []
    target = tmp_path / "head" / "outliers" / "outlier_locations.csv"
    data = bytearray(target.read_bytes())
    data[-2] ^= 1
    target.write_bytes(bytes(data))
    assert identity.compare(tmp_path / "base", runs, tmp_path / "head", runs) == [
        "outliers/outlier_locations.csv: contents differ"]
