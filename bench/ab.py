"""In-process A/B timer for two fusegen source trees.

    OPENBLAS_NUM_THREADS=1 python3 bench/ab.py PARENT_TREE CHANGE_TREE

Each tree's ``src/fusegen`` is imported as its own package, so both run in one
process under the same machine state. The workloads are float32 train steps
on the criterion-6 configuration (batch 32, max_len 10), batch-1 ``generate``
calls (untrained model, 12 steps), ``eval`` operations
(``cli._decode_corpus`` plus ``metrics.score_corpus`` over 64 train samples on
the same model, max_len 12) and whole ``fusegen generate`` requests
(``cli.main``, stdout discarded) on a checkpoint of that model saved by the
tree's own ``save_checkpoint``, so each request also pays the checkpoint load
and data set-up. The ``eval request`` workload is whole ``fusegen eval --split
train`` calls (``cli.main``) on a checkpoint that each tree trains with the
recipe of perfbench's eval fixture (EVAL_FIXTURE_STEPS steps, batch 16,
lr 1e-3) and saves when the block first runs, so it covers the checkpoint
load, the synthesis of the 200 train-split samples, batched decoding that
stops at EOS and scoring. For each workload in turn, each of ROUNDS rounds
times a block of BLOCK operations on each tree and alternates which tree goes
first. Per workload it prints the median and IQR of the per-round
change/parent block-time ratio, the rounds the change won, and each tree's p10
and p50 per operation. The same tree twice is an A/A run. Then each tree runs
one untimed train step under tracemalloc, and the script prints the MB its
forward leaves live and the peak MB during its backward, both above the
traced memory before the step.

Last, each tree trains in fresh processes of its own (one BLAS thread), two
per tree in alternating order: FRESH_WARMUP untimed steps, then FRESH_STEPS
timed ones. Per run it prints the p50 ms/step and, from ``getrusage`` deltas
over the timed steps, the minor page faults and the system-CPU ms per step.
A long-lived process that shares its heap with the other tree can hide what
a fresh one pays: an allocator that returns memory to the OS after every
step shows up here as faults and system time, not in the ratios above.
The children all run in this script's directory, because the fault count
follows the heap layout, which even the working directory moves; compare
trees within one run.
"""

import argparse
import contextlib
import functools
import importlib
import importlib.util
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np

ROUNDS = 20
BLOCK = 20     # operations per block
FRESH_RUNS, FRESH_WARMUP, FRESH_STEPS = 2, 20, 200
EVAL_FIXTURE_STEPS = 300
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load(tree: str, name: str):
    pkg = os.path.join(os.path.abspath(tree), "src", "fusegen")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workloads(fg, seed: int = 0) -> dict:
    D, TR, CLI, M = (importlib.import_module(f"{fg.__name__}.{m}")
                     for m in ("data", "training", "cli", "metrics"))
    vocab, samples = D.default_vocab(), D.synth_generate(200, seed=seed)
    model = fg.ReportModel(fg.ModelConfig(vocab_size=32, seed=seed))
    tc = fg.TrainConfig(batch_size=32, lr=1e-4, scheduler="constant", lambda_align=0.5,
                        seed=seed, n_train=200)
    run = {"state": TR.AdamState(), "step": 0}

    def train():
        run["state"], _ = TR.run_training(model, samples, vocab, tc, n_steps=1, state=run["state"],
                                          start_step=run["step"], max_len=10)
        run["step"] += 1

    gen_model = fg.ReportModel(fg.ModelConfig(vocab_size=32, seed=seed))
    ids, mask = D.encode_keyword_string(vocab, samples[0].keywords, gen_model.cfg.s_l)

    def generate():
        gen_model.generate(samples[0].image[None], ids[None], mask[None], vocab.bos_id,
                           vocab.eos_id, 12)

    def evaluate():
        M.score_corpus(*CLI._decode_corpus(gen_model, samples[:64], vocab, 12))

    run_dir = tempfile.TemporaryDirectory()     # removed when the last request is gone
    TR.save_checkpoint(gen_model, TR.AdamState(), tc, os.path.join(run_dir.name, "model.ckpt"))

    def request():
        with contextlib.redirect_stdout(io.StringIO()):
            rc = CLI.main(["generate", "--out", run_dir.name, "--sample-seed", str(seed),
                           "--max-len", "12"])
        if rc != 0:
            raise RuntimeError(f"generate request exited {rc}")

    @functools.cache
    def eval_checkpoint() -> str:
        fixture = fg.ReportModel(fg.ModelConfig(vocab_size=32, seed=seed))
        fixture_tc = fg.TrainConfig(batch_size=16, lr=1e-3, scheduler="constant", seed=seed,
                                    n_train=200)
        state, _ = TR.run_training(fixture, samples, vocab, fixture_tc,
                                   n_steps=EVAL_FIXTURE_STEPS, max_len=10)
        path = os.path.join(run_dir.name, "eval.ckpt")
        TR.save_checkpoint(fixture, state, fixture_tc, path)
        return path

    def eval_request():
        with contextlib.redirect_stdout(io.StringIO()):
            rc = CLI.main(["eval", "--checkpoint", eval_checkpoint(), "--split", "train",
                           "--out", run_dir.name])
        if rc != 0:
            raise RuntimeError(f"eval request exited {rc}")

    def train_memory():
        idx = TR.batch_indices(seed, run["step"], len(samples), tc.batch_size)
        batch = D.make_batch([samples[i] for i in idx], vocab, model.cfg.s_l, 10)
        model.zero_grad()
        tracemalloc.start()
        try:
            report = model.losses(batch, tc.lambda_align)
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report.total.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return live / 2**20, peak / 2**20

    return {"train": train, "generate": generate, "eval": evaluate,
            "request": request, "eval request": eval_request}, train_memory


def block(op, n: int) -> list:
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        op()
        times.append(time.perf_counter() - t0)
    return times


def fresh_train(tree: str) -> None:
    """Body of one fresh process: time ``tree``'s train steps and print
    p50 ms, minor faults and system-CPU ms per step as one JSON line."""
    train = workloads(load(tree, "fusegen_fresh"))[0]["train"]
    block(train, FRESH_WARMUP)
    before = resource.getrusage(resource.RUSAGE_SELF)
    times = block(train, FRESH_STEPS)
    after = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({"ms": float(np.median(times)) * 1e3,
                      "faults": (after.ru_minflt - before.ru_minflt) / FRESH_STEPS,
                      "sys_ms": (after.ru_stime - before.ru_stime) * 1e3 / FRESH_STEPS}))


def fresh_runs(trees) -> list:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ab; "
            "ab.fresh_train(sys.argv[2])")
    here = os.path.dirname(os.path.abspath(__file__))
    runs = ([], [])
    for r in range(FRESH_RUNS):
        for i in ((0, 1) if r % 2 == 0 else (1, 0)):
            out = subprocess.run([sys.executable, "-c", code, here, os.path.abspath(trees[i])],
                                 env=env, cwd=here, check=True, capture_output=True,
                                 text=True).stdout
            runs[i].append(json.loads(out.splitlines()[-1]))
    return runs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()
    trees, memory = zip(workloads(load(args.parent, "fusegen_parent")),
                        workloads(load(args.change, "fusegen_change")))
    for name in trees[0]:
        for t in trees:
            block(t[name], BLOCK)                       # warm-up
        per_op, ratios = ([], []), []
        for r in range(ROUNDS):
            sums = [0.0, 0.0]
            for i in ((0, 1) if r % 2 == 0 else (1, 0)):
                times = block(trees[i][name], BLOCK)
                per_op[i].extend(times)
                sums[i] = sum(times)
            ratios.append(sums[1] / sums[0])
        q1, med, q3 = np.percentile(ratios, [25, 50, 75])
        p10_p50 = [np.percentile(t, [10, 50]) * 1e3 for t in per_op]
        print(f"{name}: change/parent median {med:.3f} IQR {q3 - q1:.3f}, change faster in "
              f"{sum(x < 1 for x in ratios)}/{ROUNDS} rounds; ms p10/p50 parent "
              f"{p10_p50[0][0]:.2f}/{p10_p50[0][1]:.2f}, change {p10_p50[1][0]:.2f}/{p10_p50[1][1]:.2f}")
    (live_a, peak_a), (live_b, peak_b) = (probe() for probe in memory)
    print(f"train step traced MB, forward-live/backward-peak: parent {live_a:.1f}/{peak_a:.1f}, "
          f"change {live_b:.1f}/{peak_b:.1f}")
    runs = [", ".join(f"{r['ms']:.2f}/{r['faults']:.0f}/{r['sys_ms']:.2f}" for r in tree)
            for tree in fresh_runs((args.parent, args.change))]
    print(f"train fresh processes, ms/step p50 / minor faults per step / system ms per step: "
          f"parent {runs[0]}; change {runs[1]}")


if __name__ == "__main__":
    main()
