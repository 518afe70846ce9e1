"""The benchmark's own tests.

    python3 perfbench/selfcheck.py

Run from the root of a fusegen checkout. It checks that

* the span bookkeeping (self time, step coverage, required spans) is right
  on hand-made spans;
* every workload prints each metric named in BENCHMARK.json with its unit,
  traced and untraced, and each traced workload fires the spans listed for
  it, with the spans under a train step covering the step within 10%;
* a copy of the program broken so that each workload's output check must
  fail makes the benchmark exit nonzero with ``"correct": false``;
* without a source tree the benchmark exits nonzero and prints no result.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_out" / "selfcheck"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "4"

# (workload, file under src/fusegen, text, replacement): each breaks the
# output check of its workload.
BREAKS = [
    ("train", "training.py", "p.data = p.data - lr * m_hat",
     "p.data = p.data + lr * m_hat"),
    ("eval", "metrics.py", 'lines.append(f"CIDEr: {self.cider:.4f}")', "pass"),
    ("generate", "cli.py", "print(vocab.decode(toks))",
     'print(vocab.decode(toks) + " zebra")'),
]


def fail(msg):
    print(f"FAIL {msg}")
    sys.exit(1)


def run(root, workload, trace, seconds=SECONDS):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", seconds, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{\"correct\"") else None
    return proc, result


def check_bookkeeping():
    tracer = spans.Tracer()
    # a step of 10 s whose two children cover 8 s, one grandchild inside
    tracer.spans = [
        ["training.run_training", 0.0, 10.0, None, 1],
        ["data.make_batch", 0.0, 1.0, 0, 1],
        ["training.train_step", 3.0, 10.0, 0, 1],
        ["tensor.backward", 4.0, 8.0, 2, 1],
    ]
    if tracer.self_times() != [2.0, 1.0, 3.0, 4.0]:
        fail(f"self times {tracer.self_times()}")
    if abs(tracer.step_coverage() - 0.8) > 1e-12:
        fail(f"step coverage {tracer.step_coverage()}")
    problems = tracer.coverage_problems("train")
    if not any("cover 0.800" in p for p in problems):
        fail(f"an uncovered step was not reported: {problems}")
    if not any("model.losses never fired" in p for p in problems):
        fail(f"a missing span was not reported: {problems}")
    print("ok   span bookkeeping")


def check_workload(workload):
    names = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
             1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    for trace in (0, 1):
        proc, result = run(ROOT, workload, trace)
        if proc.returncode != 0 or result is None or not result["correct"]:
            fail(f"{workload} trace={trace} rc={proc.returncode}\n{proc.stderr[-2000:]}")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != names[trace]:
            fail(f"{workload} trace={trace} metrics differ from BENCHMARK.json: "
                 f"{sorted(set(got) ^ set(names[trace]))}")
        if result["failed"] or result["attempted"] < 1:
            fail(f"{workload} trace={trace} attempted/failed {result}")
        if trace and workload == "train":
            share = result["metrics"]["trace.step_coverage"]["value"]
            print(f"     train step covered by its spans: {share:.4f}")
    print(f"ok   {workload}: every metric printed, required spans fired")


def check_broken(workload, name, old, new):
    copy = SCRATCH / f"broken-{workload}"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT / "src", copy / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", copy / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    target = copy / "src" / "fusegen" / name
    text = target.read_text()
    if old not in text:
        fail(f"cannot break {workload}: {old!r} not found in {name}")
    target.write_text(text.replace(old, new))
    proc, result = run(copy, workload, 0, seconds="2")
    shutil.rmtree(copy)
    if proc.returncode == 0 or result is None or result["correct"]:
        fail(f"broken {workload} passed: rc={proc.returncode} {result}")
    print(f"ok   broken {workload} rejected (rc={proc.returncode})")


def check_no_program():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc, _ = run(bare, "train", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"bare directory: rc={proc.returncode} stdout={proc.stdout!r}")
    print("ok   no source tree: nonzero exit, no result")


def main():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    check_bookkeeping()
    check_no_program()
    for workload in ("train", "eval", "generate"):
        check_workload(workload)
    for case in BREAKS:
        check_broken(*case)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("all checks passed")


if __name__ == "__main__":
    main()
