"""The three workloads: what each sets up, what one operation is, and how
its outputs are checked.

All run closed loop with one client: the next operation starts when the
previous one returns. Model and data seeds are the workload seed.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

from fusegen import cli
from fusegen import data as D
from fusegen import training as TR
from fusegen.config import ModelConfig, TrainConfig
from fusegen.model import ReportModel

N_TRAIN = 200
MAX_LEN = 10                 # report cap in training, as in the convergence criteria
GUARD_STEP = 100             # train quality is read at this step of every run
SCORE_KEYS = ("BLEU-1", "BLEU-2", "BLEU-3", "BLEU-4", "ROUGE-L", "CIDEr")

# What each generic end-to-end metric stands for on each workload.
MEANING = {
    "train": {"items_per_s": "train_samples_per_s", "op_ms_p50": "train_step_ms_p50",
              "op_ms_p90": "train_step_ms_p90",
              "quality": f"1 - train_ce_per_token(step {GUARD_STEP}) / ce(step 1)"},
    "eval": {"items_per_s": "eval_reports_per_s", "op_ms_p50": "eval_call_ms_p50",
             "op_ms_p90": "eval_call_ms_p90", "quality": "eval_bleu4"},
    "generate": {"items_per_s": "generate_requests_per_s",
                 "op_ms_p50": "generate_ms_p50", "op_ms_p90": "generate_ms_p90",
                 "quality": "generate_match_rate"},
}


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


class Train:
    """Back-to-back ``run_training`` steps on the criterion-6 configuration."""

    name = "train"
    warmup_ops = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.history = []

    def build(self):
        self.vocab = D.default_vocab()
        self.samples = D.synth_generate(N_TRAIN, seed=self.seed)
        self.model = ReportModel(ModelConfig(vocab_size=32, seed=self.seed))
        self.config = TrainConfig(batch_size=32, lr=1e-4, scheduler="constant",
                                  lambda_align=0.5, seed=self.seed, n_train=N_TRAIN)
        self.state = TR.AdamState()

    def prepare(self):
        pass

    def save(self):
        pass

    def needs_more(self):
        return len(self.history) < GUARD_STEP

    def op(self):
        step = len(self.history)
        self.state, hist = TR.run_training(self.model, self.samples, self.vocab,
                                           self.config, n_steps=1, state=self.state,
                                           start_step=step, max_len=MAX_LEN)
        self.history.extend(hist)
        return self.config.batch_size

    def check(self):
        problems = []
        if len(self.history) < GUARD_STEP:
            problems.append(f"only {len(self.history)} of {GUARD_STEP} steps ran")
        for i, h in enumerate(self.history):
            values = (h.l_ce, h.l_ce_per_token, h.l_align, h.l_total, h.grad_norm)
            if not all(math.isfinite(v) for v in values):
                problems.append(f"non-finite loss at step {i}: {values}")
        first, last = self.history[0].l_ce_per_token, self.history[-1].l_ce_per_token
        if not last < first:
            problems.append(f"ce/token did not fall: {first} -> {last}")
        return problems

    def quality(self):
        first = self.history[0].l_ce_per_token
        return 1.0 - self.history[GUARD_STEP - 1].l_ce_per_token / first

    def record(self):
        return {"train_ce_per_token": self.history[GUARD_STEP - 1].l_ce_per_token,
                "first_ce_per_token": self.history[0].l_ce_per_token,
                "steps": len(self.history)}


class _Fixture:
    """Set-up shared by the CLI workloads: a checkpoint trained with the
    criterion-7 recipe and written with ``save_checkpoint``."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.ckpt = os.path.join(workdir, f"fixture-{seed}.ckpt")
        self.workdir = workdir
        self.outputs = []

    def build(self):
        self.vocab = D.default_vocab()
        self.samples = D.synth_generate(N_TRAIN, seed=self.seed)

    def prepare(self):
        self.model = ReportModel(ModelConfig(vocab_size=32, seed=self.seed))
        self.config = TrainConfig(batch_size=16, lr=1e-3, scheduler="constant",
                                  seed=self.seed, n_train=N_TRAIN)
        self.state, _ = TR.run_training(self.model, self.samples, self.vocab,
                                        self.config, n_steps=300, max_len=MAX_LEN)

    def save(self):
        TR.save_checkpoint(self.model, self.state, self.config, self.ckpt)

    def needs_more(self):
        return False


class Eval(_Fixture):
    """Repeated ``fusegen eval --split train`` on the fixture checkpoint."""

    name = "eval"
    warmup_ops = 0

    def op(self):
        rc, out = _run_cli(["eval", "--checkpoint", self.ckpt, "--split", "train",
                            "--out", self.workdir])
        if rc != 0:
            raise RuntimeError(f"fusegen eval exited {rc}")
        scores = {}
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if key in SCORE_KEYS:
                scores[key] = float(value)
        missing = [k for k in SCORE_KEYS if k not in scores]
        if missing or f"pairs evaluated: {N_TRAIN}" not in out:
            raise RuntimeError(f"unparsed eval output (missing {missing}):\n{out}")
        self.outputs.append(scores)
        return N_TRAIN

    def check(self):
        problems = []
        if any(s != self.outputs[0] for s in self.outputs):
            problems.append("eval scores differ between calls on one checkpoint")
        return problems

    def quality(self):
        return self.outputs[0]["BLEU-4"]

    def record(self):
        return {"scores": self.outputs[0] if self.outputs else None}


class Generate(_Fixture):
    """Single-report ``fusegen generate`` requests cycling over the training
    samples of the fixture."""

    name = "generate"
    warmup_ops = 1

    def op(self):
        index = len(self.outputs) % N_TRAIN
        rc, out = _run_cli(["generate", "--checkpoint", self.ckpt,
                            "--sample-seed", str(self.seed),
                            "--sample-index", str(index), "--out", self.workdir])
        if rc != 0:
            raise RuntimeError(f"fusegen generate exited {rc}")
        self.outputs.append((index, out.strip()))
        return 1

    def check(self):
        problems = []
        words = set(self.vocab.id_to_word) - set(D.RESERVED)
        for index, text in self.outputs:
            unknown = [w for w in text.split() if w not in words]
            if unknown:
                problems.append(f"sample {index}: words outside the vocabulary {unknown}")
        return problems

    def quality(self):
        hits = sum(text == self.samples[i].report for i, text in self.outputs)
        return hits / len(self.outputs)

    def record(self):
        return {"requests": len(self.outputs)}


WORKLOADS = {w.name: w for w in (Train, Eval, Generate)}
