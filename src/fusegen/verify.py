"""Finite-difference verification harness for every differentiable stage.

Used by the grad-check CLI subcommand and the test suite. Each check builds a
small random instance, computes analytic gradients through the tape, and
compares against Richardson-extrapolated central differences.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

import numpy as np

from . import abstractor as abs_mod
from . import adaptor as adp_mod
from . import alignment as aln_mod
from . import decoder as dec_mod
from . import data as data_mod
from . import nn
from . import tensor as T
from .config import ModelConfig
from .model import ReportModel
from .tensor import Tensor


# relative-error bounds of the module checks and the float64 end-to-end check
MODULE_THRESHOLD = 1e-5
END_TO_END_THRESHOLD = 1e-4

# float32 analytic grads against float64 finite differences. Summing in
# float32 leaves a gradient of ~1e-4 off by up to ~4e-7, so the threshold
# sits at 1e-2: over seeds 0-15 in both attention modes the worst error was
# 5.1e-3 (sigmoid, seed 12), which a 2-point reference matched, so it is
# float32 rounding, not reference noise; grads skewed by 0.5 read ~1.9. The floor keeps what the differences cannot
# resolve out of the relative error: at h = 1e-3 and a toy loss of ~60,
# float64 rounding leaves each difference ~1e-11 of noise, and a gradient
# that is exactly zero comes out of float32 as ~1e-12 of noise; below 1e-6
# the comparison is in absolute terms.
FLOAT32_END_TO_END_THRESHOLD = 1e-2
FLOAT32_GRAD_FLOOR = 1e-6


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.threshold

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name:<28s} rel_err={self.max_rel_err:.3e} (< {self.threshold:.0e})"


def toy_config(attn_norm: str = "softmax", seed: int = 0, **overrides) -> ModelConfig:
    """Smallest config that still exercises every mechanism; < 50k params.

    It runs in float64 (not the float32 default), so finite differences and
    tight oracle tolerances resolve."""
    kw = dict(
        image_side=16, e_v=8, e_l=16, s_l=4, enc_layers=1, enc_heads=4,
        p=16, d_align=16, dec_d=32, dec_layers=1, n_q=4, n_kv=2,
        vocab_size=29, attn_norm=attn_norm, seed=seed, dtype="float64",
    )
    kw.update(overrides)
    return ModelConfig(**kw)


# ---------------------------------------------------------------------
# per-module checks
# ---------------------------------------------------------------------

def _sumsq(x: Tensor) -> Tensor:
    # generic nondegenerate scalar readout
    return (x * x).sum()


def check_mha(mode: str, rng: np.random.Generator) -> float:
    d, s = 16, 5
    params = nn.init_mha(rng, d)
    x0 = Tensor(rng.normal(0, 1, (1, s, d)))
    return T.grad_check(lambda x: _sumsq(nn.mha(x, params, 4, mode=mode)), x0)


def check_abstractor(mode: str, rng: np.random.Generator) -> float:
    cfg = toy_config(attn_norm=mode)
    params = abs_mod.init_abstractor(cfg, rng)
    v0 = Tensor(rng.normal(0, 1, (1, 6, cfg.e_v)))
    l_e = Tensor(rng.normal(0, 1, (1, 3, cfg.e_l)))

    return T.grad_check(lambda v: _sumsq(abs_mod.abstractor_forward(v, l_e, params, cfg)), v0)


def check_adaptor(mode: str, rng: np.random.Generator) -> float:
    cfg = toy_config(attn_norm=mode)
    params = adp_mod.init_adaptor(cfg, rng)
    v0 = Tensor(rng.normal(0, 1, (1, cfg.s_v, cfg.e_v)))
    l_e = Tensor(rng.normal(0, 1, (1, cfg.s_l, cfg.e_l)))

    return T.grad_check(lambda v: _sumsq(adp_mod.adaptor_forward(v, l_e, params, cfg)), v0)


def check_info_nce(rng: np.random.Generator) -> float:
    n, d = 4, 8
    r_raw = Tensor(rng.normal(0, 1, (n, d)))
    tau = Tensor(np.array([0.7]))

    def f(x):
        return aln_mod.info_nce(aln_mod.l2_normalize(x), aln_mod.l2_normalize(r_raw), tau)

    return T.grad_check(f, Tensor(rng.normal(0, 1, (n, d))))


def check_swiglu(rng: np.random.Generator) -> float:
    d, dff = 8, 12
    w1 = Tensor(rng.normal(0, 0.5, (d, dff)))
    w2 = Tensor(rng.normal(0, 0.5, (d, dff)))
    w3 = Tensor(rng.normal(0, 0.5, (dff, d)))
    return T.grad_check(lambda x: _sumsq(dec_mod.swiglu_ffn(x, w1, w2, w3)),
                        Tensor(rng.normal(0, 1, (3, d))))


def check_rms_norm(rng: np.random.Generator) -> float:
    gain = Tensor(rng.normal(1, 0.2, 10))
    r = Tensor(rng.normal(0, 1, (4, 10)))
    return T.grad_check(lambda x: (T.rms_norm(x, gain) * r).sum(),
                        Tensor(rng.normal(0, 1, (4, 10))))


def check_cross_entropy(rng: np.random.Generator) -> float:
    n, t, v = 2, 4, 7
    targets = rng.integers(0, v, (n, t))
    mask = np.ones((n, t), dtype=bool)
    mask[1, -1] = False
    return T.grad_check(lambda x: dec_mod.cross_entropy(x, targets, mask)[0],
                        Tensor(rng.normal(0, 1, (n, t, v))))


def check_end_to_end(mode: str, seed: int = 0, float32: bool = False) -> float:
    """Composite-loss gradient over all model parameters, sampled coordinates.

    With ``float32`` the analytic grads come from a float32 twin of the toy
    model (its params cast down), and the central differences from the
    float64 model holding those float32 values cast back up: differences
    taken in float32 would drown in its rounding.
    """
    lambda_align, sample_per_tensor = 0.5, 4
    cfg = toy_config(attn_norm=mode, seed=seed)
    model = ReportModel(cfg)
    vocab = data_mod.default_vocab()
    samples = data_mod.synth_generate(2, seed=seed + 11, side=cfg.image_side)
    batch = data_mod.make_batch(samples, vocab, cfg.s_l, max_len=10)

    float32_args = {}
    if float32:
        twin = ReportModel(replace(cfg, dtype="float32"))   # same init, cast down
        for name, p in twin.params.items():
            model.params[name].data = p.data.astype(np.float64)
        twin.losses(batch, lambda_align).total.backward()
        float32_args = dict(grads={name: p.grad for name, p in twin.params.items()},
                            floor=FLOAT32_GRAD_FLOOR)

    def loss_fn():
        return model.losses(batch, lambda_align).total

    rng = np.random.default_rng(seed)
    return T.grad_check_params(loss_fn, model.params, sample_per_tensor=sample_per_tensor,
                               rng=rng, **float32_args)


def run_all_checks(mode: str = "softmax", seed: int = 0) -> List[CheckResult]:
    rng = np.random.default_rng(seed)
    results = [
        CheckResult("mha", check_mha(mode, rng), MODULE_THRESHOLD),
        CheckResult("abstractor (proj+cross)", check_abstractor(mode, rng), MODULE_THRESHOLD),
        CheckResult("adaptor (gate+decoupled)", check_adaptor(mode, rng), MODULE_THRESHOLD),
        CheckResult("info_nce", check_info_nce(rng), MODULE_THRESHOLD),
        CheckResult("swiglu_ffn", check_swiglu(rng), MODULE_THRESHOLD),
        CheckResult("rms_norm", check_rms_norm(rng), MODULE_THRESHOLD),
        CheckResult("cross_entropy", check_cross_entropy(rng), MODULE_THRESHOLD),
        CheckResult("end-to-end composite loss", check_end_to_end(mode, seed),
                    END_TO_END_THRESHOLD),
        CheckResult("end-to-end float32 grads", check_end_to_end(mode, seed, float32=True),
                    FLOAT32_END_TO_END_THRESHOLD),
    ]
    return results
