"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/repeat.py --seeds 1-10 [--workloads advect_ring,...] [--trace 1] [--out FILE]

For every workload and metric (end-to-end, or per-layer with
``--trace 1``) it prints the median of the per-run values, their
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, next to the bound from ``BENCHMARK.json`` where the
metric has one.  ``--out`` also writes every run's result line and
the summary as JSON, which is how a baseline is recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    runs: dict[str, list[dict]] = {}
    env = ""
    summary: dict[str, dict] = {}
    ok = True
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            env = env or next(ln for ln in proc.stdout.splitlines() if ln.startswith("env "))
            report = [ln for ln in proc.stdout.splitlines()[:-1]
                      if not ln.startswith(("bench ", "env ")) and ln.split(" ", 1)[0] not in result["metrics"]]
            runs[workload].append({"seed": seed, "result": result, "report": report})
            ok &= result["correct"]
            print(f"{workload} seed {seed}: correct {result['correct']} failed {result['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        summary[workload] = {}
        for m in spec["per_layer" if args.trace == "1" else "end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs[workload]]
            s = summarize(values)
            summary[workload][m["name"]] = s
            bound = f" bound {m['bound']} (spread/bound {s['spread'] / m['bound']:.2f})" if "bound" in m else ""
            print(f"  {m['name']} median {s['median']:.5g} q1 {s['q1']:.5g} q3 {s['q3']:.5g} "
                  f"spread {s['spread']:.4f}{bound}")
    if args.out:
        args.out.write_text(json.dumps({"env": env, "seconds": args.seconds, "trace": int(args.trace), "seeds": args.seeds,
                                        "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
