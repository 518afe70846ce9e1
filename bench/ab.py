"""In-process A/B timer for two fusegen source trees.

    OPENBLAS_NUM_THREADS=1 python3 bench/ab.py PARENT_TREE CHANGE_TREE

Each tree's ``src/fusegen`` is imported as its own package, so both run in one
process under the same machine state. Each of ROUNDS rounds times a block of
BLOCK float32 train steps on the criterion-6 configuration (batch 32, max_len
10) and a block of BLOCK batch-1 ``generate`` calls (untrained model, 12 steps)
on each tree, and alternates which tree goes first. Per workload it prints the
median and IQR of the per-round change/parent block-time ratio, the rounds the
change won, and each tree's p10 and p50 per operation. The same tree twice is
an A/A run.
"""

import argparse
import importlib
import importlib.util
import os
import sys
import time

import numpy as np

ROUNDS = 20
BLOCK = 20     # operations per block


def load(tree: str, name: str):
    pkg = os.path.join(os.path.abspath(tree), "src", "fusegen")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workloads(fg, seed: int = 0) -> dict:
    D, TR = (importlib.import_module(f"{fg.__name__}.{m}") for m in ("data", "training"))
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

    return {"train": train, "generate": generate}


def block(op, n: int) -> list:
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        op()
        times.append(time.perf_counter() - t0)
    return times


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()
    trees = [workloads(load(args.parent, "fusegen_parent")),
             workloads(load(args.change, "fusegen_change"))]
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


if __name__ == "__main__":
    main()
