"""In-memory spans around fusegen's public functions, for the traced run.

The tracer replaces a function at the name its caller looks it up by (for
example ``fusegen.training.make_batch``, which ``run_training`` calls, rather
than ``fusegen.data.make_batch``), so the library itself is not edited. Each
span is ``[name, start, end, parent, op]``; ``op`` numbers the top-level
call (one train step, one CLI request) that caused it. Spans stay in memory
until ``dump`` writes them out at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (span name, owner, attribute). The owner is the module or class the caller
# looks the function up in, written "module" or "module:Class".
TARGETS = [
    ("cli.main", "fusegen.cli", "main"),
    ("cli.cmd_eval", "fusegen.cli", "cmd_eval"),
    ("cli.cmd_generate", "fusegen.cli", "cmd_generate"),
    ("data.synth_generate", "fusegen.data", "synth_generate"),
    ("data.make_sample", "fusegen.data", "make_sample"),
    ("data.make_batch", "fusegen.training", "make_batch"),
    ("training.run_training", "fusegen.training", "run_training"),
    ("training.train_step", "fusegen.training", "train_step"),
    ("training.clip_global_norm", "fusegen.training", "clip_global_norm"),
    ("training.adam_update", "fusegen.training", "adam_update"),
    ("training.load_checkpoint", "fusegen.training", "load_checkpoint"),
    ("training.save_checkpoint", "fusegen.training", "save_checkpoint"),
    ("model.losses", "fusegen.model:ReportModel", "losses"),
    ("model.fuse", "fusegen.model:ReportModel", "fuse"),
    ("model.generate", "fusegen.model:ReportModel", "generate"),
    ("encoders.encode_image", "fusegen.encoders", "encode_image"),
    ("encoders.encode_keywords", "fusegen.encoders", "encode_keywords"),
    ("abstractor.abstractor_forward", "fusegen.abstractor", "abstractor_forward"),
    ("adaptor.adaptor_forward", "fusegen.adaptor", "adaptor_forward"),
    ("alignment.pool_fusion", "fusegen.alignment", "pool_fusion"),
    ("alignment.embed_report", "fusegen.alignment", "embed_report"),
    ("alignment.info_nce", "fusegen.alignment", "info_nce"),
    ("decoder.decoder_forward", "fusegen.decoder", "decoder_forward"),
    ("decoder.cross_entropy", "fusegen.decoder", "cross_entropy"),
    ("decoder.decode_step", "fusegen.decoder", "decode_step"),
    ("tensor.backward", "fusegen.tensor:Tensor", "backward"),
    ("metrics.score_corpus", "fusegen.metrics", "score_corpus"),
]

# Time spans reported per layer: (span, denominator). "step" divides by the
# train steps traced, "call" by the span's own call count. Each also gets a
# self-time twin (span minus its child spans).
TIMED = [
    ("tensor.backward", "step"),
    ("data.make_batch", "step"),
    ("data.synth_generate", "call"),
    ("data.make_sample", "call"),
    ("model.losses", "step"),
    ("model.fuse", "call"),
    ("model.generate", "call"),
    ("encoders.encode_image", "call"),
    ("encoders.encode_keywords", "call"),
    ("abstractor.abstractor_forward", "call"),
    ("adaptor.adaptor_forward", "call"),
    ("alignment.pool_fusion", "step"),
    ("alignment.embed_report", "step"),
    ("alignment.info_nce", "step"),
    ("decoder.decoder_forward", "step"),
    ("decoder.cross_entropy", "step"),
    ("decoder.decode_step", "call"),
    ("training.run_training", "step"),
    ("training.train_step", "step"),
    ("training.adam_update", "step"),
    ("training.clip_global_norm", "step"),
    ("training.load_checkpoint", "call"),
    ("training.save_checkpoint", "call"),
    ("metrics.score_corpus", "call"),
]
SELF_ONLY = ["cli.main", "cli.cmd_eval", "cli.cmd_generate"]

# Which end-to-end metric each layer metric should move, and on which
# workload. Time metrics not listed here move the same pairs as their span.
MOVES = {
    "tensor.backward": "train:op_ms_p50",
    "tensor.tape_nodes_per_step": "train:op_ms_p50",
    "tensor.tensors_per_report": "eval:items_per_s generate:op_ms_p50",
    "data.make_batch": "train:op_ms_p50",
    "data.synth_generate": "eval:items_per_s",
    "data.make_sample": "generate:op_ms_p50",
    "model.losses": "train:op_ms_p50",
    "model.fuse": "train:op_ms_p50 generate:op_ms_p50",
    "model.generate": "eval:items_per_s generate:op_ms_p50",
    "model.generate.eos_share": "eval:items_per_s generate:op_ms_p50",
    "encoders.encode_image": "train:op_ms_p50 generate:op_ms_p50",
    "encoders.encode_keywords": "train:op_ms_p50 generate:op_ms_p50",
    "abstractor.abstractor_forward": "train:op_ms_p50 generate:op_ms_p50",
    "adaptor.adaptor_forward": "train:op_ms_p50 generate:op_ms_p50",
    "alignment.pool_fusion": "train:op_ms_p50",
    "alignment.embed_report": "train:op_ms_p50",
    "alignment.info_nce": "train:op_ms_p50",
    "decoder.decoder_forward": "train:op_ms_p50",
    "decoder.cross_entropy": "train:op_ms_p50",
    "decoder.decode_step": "eval:items_per_s generate:op_ms_p50",
    "decoder.decode_step.calls_per_report": "eval:items_per_s generate:op_ms_p50",
    "decoder.first_token_ms": "eval:items_per_s generate:op_ms_p50",
    "training.run_training": "train:op_ms_p50",
    "training.train_step": "train:op_ms_p50",
    "training.adam_update": "train:op_ms_p50",
    "training.clip_global_norm": "train:op_ms_p50",
    "training.load_checkpoint": "generate:op_ms_p50 eval:items_per_s",
    "training.save_checkpoint": "eval:setup_s generate:setup_s",
    "metrics.score_corpus": "eval:items_per_s",
    "cli.main": "eval:op_ms_p50 generate:op_ms_p50",
    "cli.cmd_eval": "eval:op_ms_p50",
    "cli.cmd_generate": "generate:op_ms_p50",
}

# Spans that must fire at least once in a traced run of each workload.
ENCODE = ["model.fuse", "encoders.encode_image", "encoders.encode_keywords",
          "abstractor.abstractor_forward", "adaptor.adaptor_forward"]
DECODE = ["model.generate", "decoder.decode_step", "training.load_checkpoint",
          "training.save_checkpoint", "cli.main"]
REQUIRED = {
    "train": ENCODE + [
        "training.run_training", "training.train_step", "data.make_batch",
        "model.losses", "alignment.pool_fusion", "alignment.embed_report",
        "alignment.info_nce", "decoder.decoder_forward", "decoder.cross_entropy",
        "tensor.backward", "training.clip_global_norm", "training.adam_update"],
    "eval": ENCODE + DECODE + ["cli.cmd_eval", "data.synth_generate",
                               "data.make_sample", "metrics.score_corpus"],
    "generate": ENCODE + DECODE + ["cli.cmd_generate", "data.make_sample"],
}

STEP_SPAN = "training.run_training"
STEP_COVERAGE_MIN = 0.9


def moves_of(name):
    if name in MOVES:
        return MOVES[name]
    return MOVES.get(name.rsplit(".", 1)[0], "")


class Tracer:
    """Wraps fusegen's public functions and records spans in memory."""

    def __init__(self):
        self.spans = []
        self.tensors_built = 0
        self.tape_nodes = []
        self.reports = []        # (tensors, decode_steps, stopped_at_eos, first_token_s)
        self._stack = []
        self._ops = 0
        self._report = None

    # -- recording -------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._ops += 1
            op = self._ops
        else:
            op = self.spans[parent][4]
        idx = len(self.spans)
        self._stack.append(idx)
        self.spans.append([name, time.perf_counter(), None, parent, op])
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, after=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if after is not None:
                    after(idx)
        return traced

    def _decode_step_done(self, idx):
        report = self._report
        if report is None:
            return
        report["steps"] += 1
        if report["first"] is None:
            report["first"] = self.spans[idx][2] - report["start"]

    def _wrap_generate(self, fn):
        inner = self._wrap(fn, "model.generate")
        tracer = self

        def generate(*args, **kwargs):
            outer, tensors0 = tracer._report, tracer.tensors_built
            tracer._report = {"steps": 0, "first": None,
                              "start": time.perf_counter()}
            try:
                tokens = inner(*args, **kwargs)
            finally:
                report, tracer._report = tracer._report, outer
            # a report that stopped at EOS ran one more step than it emitted
            tracer.reports.append((tracer.tensors_built - tensors0, report["steps"],
                                   report["steps"] > len(tokens), report["first"]))
            return tokens
        return generate

    def _wrap_losses(self, fn):
        inner = self._wrap(fn, "model.losses")
        tracer = self

        def losses(*args, **kwargs):
            report = inner(*args, **kwargs)
            idx = tracer._open("trace.tape_walk")
            try:
                tracer.tape_nodes.append(count_tape_nodes(report.total))
            finally:
                tracer._close(idx)
            return report
        return losses

    def _wrap_tensor_init(self, fn):
        tracer = self

        def __init__(self, *args, **kwargs):
            tracer.tensors_built += 1
            fn(self, *args, **kwargs)
        return __init__

    # -- installing ------------------------------------------------------
    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        patches = []
        for name, owner_path, attr in TARGETS:
            owner = _resolve(owner_path)
            fn = getattr(owner, attr)
            if name == "model.generate":
                new = self._wrap_generate(fn)
            elif name == "model.losses":
                new = self._wrap_losses(fn)
            elif name == "decoder.decode_step":
                new = self._wrap(fn, name, after=self._decode_step_done)
            else:
                new = self._wrap(fn, name)
            patches.append((owner, attr, fn, new))
        tensor_cls = _resolve("fusegen.tensor:Tensor")
        patches.append((tensor_cls, "__init__", tensor_cls.__init__,
                        self._wrap_tensor_init(tensor_cls.__init__)))
        for owner, attr, _, new in patches:
            setattr(owner, attr, new)
        try:
            yield self
        finally:
            for owner, attr, old, _ in reversed(patches):
                setattr(owner, attr, old)

    # -- reading ---------------------------------------------------------
    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[2] - s[1] - child[i] for i, s in enumerate(self.spans)]

    def step_coverage(self):
        """Share of the traced train steps covered by the spans under them."""
        self_t = self.self_times()
        step_total = covered = 0.0
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if name == STEP_SPAN and parent is None:
                step_total += end - start
                covered += end - start - self_t[i]
        return covered / step_total if step_total else 0.0

    def layer_metrics(self, overhead_pct):
        self_t = self.self_times()
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        for i, span in enumerate(self.spans):
            total[span[0]] += span[2] - span[1]
            own[span[0]] += self_t[i]
            calls[span[0]] += 1
        steps = calls[STEP_SPAN]
        out = {}
        for span, per in TIMED:
            n = steps if per == "step" else calls[span]
            out[f"{span}.ms_per_{per}"] = 1e3 * total[span] / n if n else 0.0
            out[f"{span}.self_ms_per_{per}"] = 1e3 * own[span] / n if n else 0.0
        for span in SELF_ONLY:
            out[f"{span}.self_ms"] = 1e3 * own[span] / calls[span] if calls[span] else 0.0
        reports = self.reports
        out["tensor.tape_nodes_per_step"] = _mean(self.tape_nodes)
        out["tensor.tensors_per_report"] = _mean(r[0] for r in reports)
        out["model.generate.eos_share"] = _mean(r[2] for r in reports)
        out["decoder.decode_step.calls_per_report"] = _mean(r[1] for r in reports)
        out["decoder.first_token_ms"] = 1e3 * _mean(r[3] for r in reports
                                                    if r[3] is not None)
        out["trace.step_coverage"] = self.step_coverage()
        out["trace.overhead_pct"] = overhead_pct
        return out

    def coverage_problems(self, workload):
        """Required spans that never fired, and a train step the spans under
        it do not cover within 10%."""
        fired = {s[0] for s in self.spans}
        problems = [f"span {name} never fired" for name in REQUIRED[workload]
                    if name not in fired]
        if workload == "train":
            share = self.step_coverage()
            if share < STEP_COVERAGE_MIN:
                problems.append(f"spans under a train step cover {share:.3f} "
                                f"of it, below {STEP_COVERAGE_MIN}")
        return problems

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _resolve(path):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def count_tape_nodes(root):
    """Tensors reachable from ``root`` through recorded op inputs."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node._children:
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return len(seen)
