"""One benchmark child process: import csit, run repetitions, write a result file.

Run by ``run.py``, never directly by a user.  Modes:

``setup``   import ``csit.cli`` and run the first, cold repetition only;
``timed``   then repeat untraced for ``--seconds`` seconds;
``traced``  install the tracer, run the cold repetition, then exactly
            ``--reps`` traced repetitions and reduce their spans.

Only the standard library is imported before the clock starts, so
``import_s`` covers numpy and scipy as a user of ``csit`` pays them.

Each operation is preceded by runs of a fixed calibration kernel, about
10 ms each, as many as take 5% of the operation's previous duration (at
least one), and the cold repetition is followed by five.  On a shared
2-core Xeon VM the machine's speed drifts by up to 1.7x over minutes;
``run.py`` divides each timing by the kernel time measured next to it,
which cancels most of that drift.
"""

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# calibration before each operation: runs of about KERNEL_RUN_S each, as
# many as take KERNEL_SHARE of the operation's previous duration
KERNEL_RUN_S = 0.010
KERNEL_SHARE = 0.05
KERNEL_MAX_RUNS = 25


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "timed", "traced"], required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--reps", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    root = Path(args.root)
    source = root / "src"
    sys.path.insert(0, str(source))

    start = time.perf_counter()
    import csit.cli  # noqa: F401  (timed: the user's import cost)
    import_s = time.perf_counter() - start
    import csit
    if Path(csit.__file__).resolve().parent != (source / "csit").resolve():
        print(f"bench: imported csit from {csit.__file__}, not {source}", file=sys.stderr)
        return 2

    import numpy as np
    import tracer as tracing
    import workloads

    kernel_input = np.random.default_rng(0).standard_normal(500)

    def kernel_once() -> float:
        """A fixed mix of interpreter and small-array numpy work, timed."""
        t0 = time.perf_counter()
        total = 0
        for i in range(60000):
            total += i * i
        a = kernel_input
        for _ in range(300):
            a = np.roll(a, 1) * 0.5 + a * 0.5
        return time.perf_counter() - t0

    def kernel_s(runs: int) -> float:
        return statistics.median(kernel_once() for _ in range(runs))

    last_s: dict[str, float] = {}  # each operation's previous wall time
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracing.install(tracer)

    work = Path(args.work_dir)
    run_dir = work / "inputs"
    run_dir.mkdir(parents=True)
    build = workloads.WORKLOADS[args.workload]
    reps, failures, attempted = [], [], 0

    def repetition(index: int) -> dict[str, list[float]]:
        nonlocal attempted
        rep_dir = work / f"rep{index}"
        rep_dir.mkdir()
        ctx = workloads.Context(root, rep_dir, run_dir, args.seed, args.smoke)
        steps = build(ctx, np.random.default_rng([args.seed, index]), index)
        times = {}
        for step in steps:
            attempted += 1
            runs = round(KERNEL_SHARE * last_s.get(step.op, 0.0) / KERNEL_RUN_S)
            kernel = kernel_s(max(1, min(KERNEL_MAX_RUNS, runs)))
            if tracer is not None:
                tracer.request = index
            t0 = time.perf_counter()
            try:
                result = step.run()
            except Exception:
                failures.append(f"rep {index} {step.op}: {traceback.format_exc(limit=3)}")
                continue
            finally:
                last_s[step.op] = time.perf_counter() - t0
                times[step.op] = [last_s[step.op], kernel]
                if tracer is not None:
                    tracer.request = None
            try:
                step.check(result)
            except workloads.CheckFailed as exc:
                failures.append(f"rep {index} {step.op}: {exc}")
            except Exception:
                failures.append(f"rep {index} {step.op}: check raised {traceback.format_exc(limit=3)}")
        shutil.rmtree(rep_dir)
        return times

    cold = repetition(0)
    setup_s = import_s + sum(t for t, _ in cold.values())
    setup_kernel_s = kernel_s(5)
    if args.mode == "timed":
        began = time.perf_counter()
        while not reps or time.perf_counter() - began < args.seconds:
            reps.append(repetition(len(reps) + 1))
    elif args.mode == "traced":
        tracer.reset()
        for index in range(1, args.reps + 1):
            reps.append(repetition(index))

    result = {
        "import_s": import_s,
        "setup_s": setup_s,
        "setup_kernel_s": setup_kernel_s,
        "reps": reps,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        if args.spans:
            with open(args.spans, "w") as handle:
                json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "request"],
                           "spans": tracer.spans}, handle)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
