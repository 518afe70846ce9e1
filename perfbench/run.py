"""fusegen benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload train|eval|generate --seed N \
        --seconds S --trace 0|1

Run it from the root of a fusegen checkout; it imports the package from
``src/`` and writes scratch files under ``.perfbench_out/``. With ``--trace 0``
it times closed-loop operations for S seconds and reports the end-to-end
metrics. With ``--trace 1`` it runs S/2 seconds untraced, then S/2 seconds
with spans around fusegen's public functions, and reports the per-layer
metrics plus the tracing overhead (traced vs untraced median operation).

Before the result it prints one JSON line recording the environment, why the
workload was chosen, what each metric stands for on this workload, and which
end-to-end metric each layer metric should move. The exit code is 1
when an output check fails and 2 when no fusegen source tree is found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# One client on matrices of a few dozen rows: a single BLAS thread keeps the
# timings steady and stays within any core count.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3


def environment():
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def import_seconds(src):
    """Median wall time of a fresh interpreter importing fusegen's CLI, which
    imports every fusegen module."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fusegen.cli"], env=env,
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def attempt(workload):
    """One operation; returns (seconds, items), or None when it raised."""
    start = time.perf_counter()
    try:
        n = workload.op()
    except Exception:  # an operation that raises counts as failed
        traceback.print_exc(file=sys.stderr)
        return None
    return time.perf_counter() - start, n


def run_ops(workload, seconds):
    """Closed loop: operation after operation until ``seconds`` have passed
    and the workload has what its checks need. Returns (times, items, failed)."""
    times, items, failed = [], 0, 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or (workload.needs_more() and not failed):
        done = attempt(workload)
        if done is None:
            failed += 1
        else:
            times.append(done[0])
            items += done[1]
    return times, items, failed


def p90(times):
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["train", "eval", "generate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fusegen" / "__init__.py").is_file():
        print(f"error: no fusegen source tree under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    import_s = import_seconds(src)
    import spans
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, str(OUT_DIR))
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.build()
        builds.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    workload.prepare()
    prepare_s = time.perf_counter() - t0

    tracer = spans.Tracer() if args.trace else None
    t0 = time.perf_counter()
    with tracer.installed() if tracer else nullcontext():
        workload.save()
    save_s = time.perf_counter() - t0
    setup_s = import_s + statistics.median(builds) + prepare_s + save_s

    attempted = failed = 0
    for _ in range(workload.warmup_ops):
        attempted += 1
        failed += attempt(workload) is None
    if tracer:
        plain, _, f1 = run_ops(workload, args.seconds / 2)
        with tracer.installed():
            times, items, f2 = run_ops(workload, args.seconds / 2)
        failed += f1 + f2
        attempted += len(plain) + f1
    else:
        times, items, f2 = run_ops(workload, args.seconds)
        failed += f2
    attempted += len(times) + f2

    problems = workload.check() if times else ["no operation succeeded"]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "why": why,
        "meaning": workloads.MEANING[args.workload],
        "environment": environment(),
        "setup": {"import_s": import_s, "build_s": builds,
                  "prepare_s": prepare_s, "save_s": save_s},
        "ops_timed": len(times),
        "problems": problems,
        "moves": {m["name"]: spans.moves_of(m["name"]) for m in spec["per_layer"]},
    }
    if not problems:
        record.update(workload.record())

    if tracer:
        overhead = 100.0 * (statistics.median(times) / statistics.median(plain) - 1.0) \
            if times and plain else 0.0
        problems += tracer.coverage_problems(args.workload)
        values = tracer.layer_metrics(overhead)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.dump(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "items_per_s": items / sum(times) if times else 0.0,
            "op_ms_p50": 1e3 * statistics.median(times) if times else 0.0,
            "op_ms_p90": 1e3 * p90(times) if times else 0.0,
            "quality": workload.quality() if not problems else 0.0,
        }

    kind = "per_layer" if tracer else "end_to_end"
    metrics_out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec[kind]}
    if os.path.exists(getattr(workload, "ckpt", "")):
        os.remove(workload.ckpt)
    correct = not problems and failed == 0
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
