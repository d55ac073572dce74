"""csit benchmark: one workload per invocation, checked outputs, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload advect_ring --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``advect_ring``,
``ifreq_chirp`` and ``operator_routes``.  Every repetition runs the
workload's operations in-process through ``csit.cli.main`` or the public
library API, in a fresh child interpreter, one caller in a closed loop.
Every output is checked against references computed by the benchmark.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:

* ``op_gmean_s``: geometric mean of the operations' median times, so a
  slowdown of a short operation weighs as much as one of a long one;
* ``setup_s``: median over several fresh interpreters of the import of
  ``csit.cli`` plus the first, cold repetition;
* ``peak_rss_mb``: the timed child's peak resident set.

``rep_s``, the median time of a whole repetition, is printed but not
gated: on ``operator_routes`` one 3.5 s memory-bound transform dominates
it, and the five or six repetitions that fit in a 25 s run leave its
median spreading by 0.12 between seeds, against 0.06 for ``op_gmean_s``.

These times are scaled to a reference machine speed: each wall time is
multiplied by ``KERNEL_REF_S`` over the time of a fixed calibration
kernel run just before it (see ``worker.py``).  On a shared 2-core Xeon
VM, wall medians of whole runs drift by up to 1.7x over minutes while the
scaled ones stay within a few percent.  Each
operation's unscaled wall-time median, tail percentile and sample count,
and its scaled median, are printed on the lines before the JSON result,
e.g. ``advect_csit_s``.

``--trace 1`` runs one untraced child and two traced children with the
same seed and a fixed number of repetitions, checks that every count
repeats exactly between the two traced runs, and reports the per-layer
metrics plus the tracing overhead (traced minus untraced) of every
end-to-end metric.  Spans go to ``.bench_out/``.

``--smoke`` shrinks the run (one setup sample, one traced repetition, a
4096-row transform input) for the benchmark's own tests.

Outputs are written to a fresh directory under ``.bench_work/``, removed
at the end; ``CSIT_THREADS`` is removed from the children's environment.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import py_compile
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("advect_ring", "ifreq_chirp", "operator_routes")
SETUP_SAMPLES = 3
# fixed, so that the traced counts of two runs of the same code are equal
TRACED_REPS = {"advect_ring": 5, "ifreq_chirp": 20, "operator_routes": 2}
DEADLINE_S = 170.0
# the calibration kernel's time on the reference machine when it is quiet,
# so that scaled times read close to wall seconds there
KERNEL_REF_S = 0.010


class BenchError(RuntimeError):
    """The harness itself failed; no result is printed."""


def environment() -> dict[str, str]:
    env = {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": str(os.cpu_count()),
        "CSIT_THREADS": "unset",
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            kind = (index / "type").read_text().strip()
            label = "L" + (index / "level").read_text().strip() + {"Data": "d", "Instruction": "i"}.get(kind, "")
            env[label] = (index / "size").read_text().strip() + "/core"
    except OSError:
        pass
    return env


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return "no tail (n < 11)"
    return f"p{100 * (n - 10) // n} {sorted(samples)[n - 11]:.6g} s"


class Children:
    """Spawns worker processes under one deadline and collects their results."""

    def __init__(self, args, work: Path):
        self.args, self.work, self.count = args, work, 0
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k != "CSIT_THREADS"}

    def run(self, mode: str, *extra: str) -> dict:
        self.count += 1
        work_dir = self.work / f"child{self.count}"
        result = self.work / f"child{self.count}.json"
        cmd = [
            sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--mode", mode, "--work-dir", str(work_dir), "--result", str(result), *extra,
        ]
        if self.args.smoke:
            cmd.append("--smoke")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a child")
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=sys.stderr, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child exceeded the deadline") from None
        if proc.returncode != 0 or not result.exists():
            raise BenchError(f"{mode} child exited with {proc.returncode}")
        return json.loads(result.read_text())


def scaled(wall_s: float, kernel_s: float) -> float:
    return wall_s * KERNEL_REF_S / kernel_s


def end_to_end(child: dict, setup_children: list[dict]) -> tuple[dict, dict, dict]:
    """Scaled end-to-end values of a timed child, with each operation's
    wall-time and scaled samples."""
    reps = child["reps"]
    wall = {op: [rep[op][0] for rep in reps] for op in reps[0]}
    per_op = {op: [scaled(*rep[op]) for rep in reps] for op in reps[0]}
    values = {
        "rep_s": statistics.median(sum(scaled(*t) for t in rep.values()) for rep in reps),
        "op_gmean_s": math.exp(statistics.fmean(math.log(statistics.median(v)) for v in per_op.values())),
        "setup_s": statistics.median(scaled(c["setup_s"], c["setup_kernel_s"]) for c in setup_children),
        "peak_rss_mb": child["peak_rss_mb"],
    }
    return values, wall, per_op


def report_failures(children: list[dict]) -> tuple[int, int]:
    attempted = sum(c["attempted"] for c in children)
    failures = [f for c in children for f in c["failures"]]
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"ops {attempted} count")
    print(f"ops_failed {len(failures)} count")
    return attempted, len(failures)


def untraced(args, children: Children, spec: dict) -> tuple[dict, bool, int, int]:
    setups = [children.run("setup") for _ in range(1 if args.smoke else SETUP_SAMPLES - 1)]
    timed = children.run("timed", "--seconds", str(args.seconds))
    values, wall, per_op = end_to_end(timed, setups + [timed])
    for op, samples in wall.items():
        print(f"{op}_s {statistics.median(samples):.6g} s wall (median, n {len(samples)}; {tail(samples)}); "
              f"{statistics.median(per_op[op]):.6g} s scaled")
    setup_wall = [c["setup_s"] for c in setups + [timed]]
    print(f"setup_s {statistics.median(setup_wall):.6g} s wall (median, n {len(setup_wall)})")
    attempted, failed = report_failures(setups + [timed])
    for name, value in values.items():
        print(f"{name} {value:.6g} {'MB' if name.endswith('_mb') else 's'}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    return metrics, failed == 0, attempted, failed


def traced(args, children: Children, spec: dict) -> tuple[dict, bool, int, int]:
    reps = 1 if args.smoke else TRACED_REPS[args.workload]
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    base = children.run("timed", "--seconds", str(args.seconds))
    runs = [
        children.run("traced", "--reps", str(reps), "--spans",
                     str(out / f"spans-{args.workload}-seed{args.seed}-{label}.json"))
        for label in "ab"
    ]
    first, second = (r["layers"] for r in runs)
    exact = sorted({k for k in (*first, *second) if k.endswith(".calls")} | set(tracer.EXACT) | {"trace.spans"})
    mismatched = [k for k in exact if first.get(k, 0) != second.get(k, 0)]
    for k in mismatched:
        print(f"FAILED count {k} differs between traced runs: {first.get(k, 0)} vs {second.get(k, 0)}")
    print(f"trace reps {reps} per traced run; {len(exact) - len(mismatched)}/{len(exact)} counts repeat exactly")

    plain, _, plain_ops = end_to_end(base, [base])
    heavy, _, heavy_ops = end_to_end(runs[0], [runs[0]])
    for op in plain_ops:
        delta = statistics.median(heavy_ops[op]) - statistics.median(plain_ops[op])
        print(f"trace.overhead.{op}_s {delta:.6g} s")
    layers = dict(first)
    for name in plain:
        layers[f"trace.overhead.{name}"] = heavy[name] - plain[name]
    attempted, failed = report_failures([base, *runs])
    metrics = {}
    for m in spec["per_layer"]:
        value = layers.get(m["name"], 0)
        print(f"{m['name']} {value:.6g} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, failed == 0 and not mismatched, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "csit" / "__init__.py").is_file():
        print(f"bench: no csit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # byte-compile up front so that no timed import pays for it
    compileall.compile_dir(str(ROOT / "src"), quiet=1,
                           invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP)

    print(f"bench workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + " ".join(f"{k}={v!r}" for k, v in environment().items()))
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        runner = traced if args.trace else untraced
        metrics, correct, attempted, failed = runner(args, Children(args, work), spec)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
