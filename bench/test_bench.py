"""Tests of the benchmark itself, in its smoke mode.

    python3 -m pytest bench -q

They sit outside the package's ``testpaths``, so the tier-1 suite does not
collect them.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402


def bench(*args, cwd=ROOT, root=ROOT):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--seed", "7", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_smoke_run_reports_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--trace", "0", "--smoke")
    result = result_line(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "ops_failed 0 count" in proc.stdout


def test_traced_smoke_run_reports_every_layer_metric_and_repeats_counts():
    proc = bench("--workload", "ifreq_chirp", "--trace", "1", "--smoke")
    result = result_line(proc)
    assert result["correct"], proc.stdout
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["continuation.continue_spectral.calls"]["value"] == 64
    assert "counts repeat exactly" in proc.stdout


def test_fails_without_result_when_only_the_benchmark_is_present(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "advect_ring", "--trace", "0", cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_transform_check_rejects_output_off_the_closed_form(tmp_path):
    x = np.arange(256) * (2.0 * np.pi / 256)
    modes = np.array([[3.0, 0.5, 0.1], [7.0, 1.0, 2.0]])
    H, Z = 1e-3, 2e-3

    def shi(z):  # power series, independent of scipy
        return sum(z ** (2 * n + 1) / ((2 * n + 1) * math.factorial(2 * n + 1)) for n in range(8))

    ref = sum(a * shi(k * Z) / Z * np.sin(k * H) / (k * H) * np.cos(k * x + p) for k, a, p in modes)
    out = tmp_path / "out.csv"
    check = workloads._transform_check(out, x, modes, H, Z)
    for scale in (1.0, 1.0 + 1e-5):
        out.write_text("x,input,csit_output\n" + "".join(f"{float(u)!r},0.0,{float(scale * v)!r}\n" for u, v in zip(x, ref)))
        if scale == 1.0:
            check(0)
        else:
            with pytest.raises(workloads.CheckFailed):
                check(0)
