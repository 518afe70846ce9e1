"""Training loop pieces: Adam, LR schedule, one composite-loss step, checkpoints.

One step runs encoders -> both fusion stages -> alignment loss -> decoder ->
cross-entropy, combines them as L_ce + lambda * L_align, backprops, clips the
global gradient norm, and applies Adam. Batch composition is a pure function
of (seed, step) so an interrupted run resumes on the same curve.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from .config import ConfigError, TrainConfig, config_from_dict, config_to_dict
from .data import Batch, SyntheticSample, Vocab, make_batch
from .model import LossReport, ReportModel
from .tensor import Tensor

WARMUP_FRAC = 0.05
FLOOR_FRAC = 0.10
GRAD_CLIP = 1.0
ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8


# ---------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------

@dataclass
class AdamState:
    step: int = 0
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)


def adam_update(params: Dict[str, Tensor], grads: Dict[str, np.ndarray],
                state: AdamState, lr: float) -> None:
    """Standard Adam with bias correction, in place."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m *= ADAM_B1
        m += (1 - ADAM_B1) * g
        v *= ADAM_B2
        v += (1 - ADAM_B2) * g * g
        m_hat = m / (1 - ADAM_B1 ** t)
        v_hat = v / (1 - ADAM_B2 ** t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def lr_schedule(step: int, config: TrainConfig, total_steps: int) -> float:
    """Linear warmup over the first 5% of steps, cosine decay to 10% of peak."""
    if config.scheduler == "constant":
        return config.lr
    warmup = max(1, int(round(WARMUP_FRAC * total_steps)))
    if step < warmup:
        return config.lr * (step + 1) / warmup
    floor = FLOOR_FRAC * config.lr
    if total_steps <= warmup:
        return config.lr
    frac = (step - warmup) / (total_steps - warmup)
    frac = min(1.0, frac)
    # a Python float: an np.float64 lr would upcast float32 params in Adam
    return float(floor + (config.lr - floor) * 0.5 * (1.0 + np.cos(np.pi * frac)))


def clip_global_norm(grads: Dict[str, np.ndarray], max_norm: float) -> float:
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        for g in grads.values():
            g *= scale
    return total


# ---------------------------------------------------------------------
# train step
# ---------------------------------------------------------------------

def train_step(model: ReportModel, batch: Batch, state: AdamState,
               config: TrainConfig, lr: Optional[float] = None) -> LossReport:
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    model.zero_grad()
    report = model.losses(batch, config.lambda_align)
    report.total.backward()
    grads = {name: p.grad for name, p in model.params.items() if p.grad is not None}
    report.grad_norm = clip_global_norm(grads, GRAD_CLIP)
    adam_update(model.params, grads, state, config.lr if lr is None else lr)
    report.total = None  # graph consumed
    return report


def batch_indices(seed: int, step: int, n: int, batch_size: int) -> np.ndarray:
    """Deterministic batch composition from (seed, step)."""
    rng = np.random.default_rng([seed, step])
    return rng.choice(n, size=min(batch_size, n), replace=False)


def run_training(model: ReportModel, samples: Sequence[SyntheticSample],
                 vocab: Vocab, config: TrainConfig, n_steps: int,
                 state: Optional[AdamState] = None, start_step: int = 0,
                 max_len: int = 12):
    """Drive ``n_steps`` of training; returns (AdamState, list[LossReport])."""
    cfg = model.cfg
    state = state or AdamState()
    history = []
    for step in range(start_step, start_step + n_steps):
        idx = batch_indices(config.seed, step, len(samples), config.batch_size)
        batch = make_batch([samples[i] for i in idx], vocab, cfg.s_l, max_len)
        lr = lr_schedule(step, config, start_step + n_steps)
        report = train_step(model, batch, state, config, lr=lr)
        history.append(report)
    return state, history


# ---------------------------------------------------------------------
# checkpoint format: magic "DRMC", u32 version, config blob, tensor records,
# trailing CRC32 of all preceding bytes
# ---------------------------------------------------------------------

MAGIC = b"DRMC"
VERSION = 2    # 2: the decoder cross-attends to the fused rows alone
_DTYPE_TAGS = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}


class CheckpointError(IOError):
    pass


def _tensor_record(name: str, arr: np.ndarray) -> bytes:
    nb = name.encode("utf-8")
    rec = struct.pack("<I", len(nb)) + nb
    rec += struct.pack("<BB", _DTYPE_TAGS[arr.dtype], arr.ndim)
    rec += struct.pack(f"<{arr.ndim}I", *arr.shape)
    rec += arr.astype(arr.dtype.newbyteorder("<")).tobytes()
    return rec


def save_checkpoint(model: ReportModel, state: AdamState,
                    train_cfg: TrainConfig, path: str) -> None:
    """Write the file one chunk at a time (the header, then each tensor
    record), folding every chunk into the CRC as it goes, so no more than
    one record is held in memory."""
    cfg_blob = json.dumps({
        "config": config_to_dict(model.cfg, train_cfg),
        "adam_step": state.step,
    }, sort_keys=True).encode("utf-8")
    arrays = [(name, p.data) for name, p in sorted(model.params.items())]
    for name in sorted(state.m):
        arrays += [(f"adam.m.{name}", state.m[name]), (f"adam.v.{name}", state.v[name])]
    header = (MAGIC + struct.pack("<II", VERSION, len(cfg_blob)) + cfg_blob
              + struct.pack("<I", len(arrays)))
    with open(path, "wb") as fh:
        fh.write(header)
        crc = zlib.crc32(header)
        for name, arr in arrays:
            record = _tensor_record(name, arr)
            fh.write(record)
            crc = zlib.crc32(record, crc)
        fh.write(struct.pack("<I", crc & 0xFFFFFFFF))


def _end(buf: memoryview, end: int) -> int:
    if end > len(buf):
        raise CheckpointError("truncated checkpoint file")
    return end


def _unpack(fmt: str, buf: memoryview, off: int):
    """(values, next offset) of the struct fields ``fmt`` at ``off``."""
    end = _end(buf, off + struct.calcsize(fmt))
    return struct.unpack_from(fmt, buf, off), end


class _Layout:
    """Stands in for the init generator of the model a checkpoint fills: each
    weight it draws is a zero-stride view charged against ``budget`` bytes,
    so a config whose weights outgrow the file fails before anything of
    their size is allocated."""

    def __init__(self, budget: int, dtype: str):
        self.left, self.zero = budget, np.zeros((), dtype)

    def normal(self, loc, scale, size):
        self.left -= math.prod(size) * self.zero.itemsize
        if self.left < 0:
            raise CheckpointError("the config implies more parameter bytes than the file holds")
        return np.broadcast_to(self.zero, size)


def load_checkpoint(path: str):
    """Returns (model, adam_state, train_cfg); bit-identical round-trip.

    One pass over the file: each tensor record is checked against the
    parameter layout its config implies and copied once into an array of its
    own. The model draws no random init; every parameter comes from the file.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(raw) < 12:
        raise CheckpointError("truncated checkpoint file")
    buf = memoryview(raw)[:-4]
    if zlib.crc32(buf) & 0xFFFFFFFF != struct.unpack_from("<I", raw, len(buf))[0]:
        raise CheckpointError("checksum failure")
    if buf[:4] != MAGIC:
        raise CheckpointError(f"bad magic {bytes(buf[:4])!r}")
    (ver,), off = _unpack("<I", buf, 4)
    if ver != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {ver}")
    (blob_len,), off = _unpack("<I", buf, off)
    try:
        meta = json.loads(str(buf[off:_end(buf, off + blob_len)], "utf-8"))
        cfg_dict, adam_step = meta["config"], meta["adam_step"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed checkpoint metadata: {exc!r}") from exc
    if type(adam_step) is not int or adam_step < 0:
        raise CheckpointError(f"adam_step must be an int >= 0, got {adam_step!r}")
    try:
        model_cfg, train_cfg = config_from_dict(cfg_dict)
    except ConfigError as exc:
        raise CheckpointError(f"invalid checkpoint config: {exc}") from exc
    # gains, biases and the gate stay real arrays: an earlier weight draw has
    # charged each of their widths except the gate's s_l slots, charged here
    gate_bytes = model_cfg.use_adaptor * model_cfg.s_l * np.dtype(model_cfg.dtype).itemsize
    model = ReportModel(model_cfg, _rng=_Layout(len(raw) - gate_bytes, model_cfg.dtype))
    layout = {f"{pre}{name}": p.data for name, p in model.params.items()
              for pre in ("", "adam.m.", "adam.v.")}

    (n_records,), off = _unpack("<I", buf, off + blob_len)
    tensors: Dict[str, np.ndarray] = {}
    for _ in range(n_records):
        (name_len,), off = _unpack("<I", buf, off)
        try:
            name = str(buf[off:_end(buf, off + name_len)], "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"tensor name is not UTF-8: {exc}") from exc
        (tag, rank), off = _unpack("<BB", buf, off + name_len)
        shape, off = _unpack(f"<{rank}I", buf, off)
        dtype = _TAG_DTYPES.get(tag)
        if dtype is None:
            raise CheckpointError(f"unknown dtype tag {tag} for {name}")
        like = layout.get(name)
        if like is None:
            raise CheckpointError(f"checkpoint has a record no parameter owns: {name}")
        if name in tensors:
            raise CheckpointError(f"duplicate tensor record {name}")
        if shape != like.shape or dtype != like.dtype:
            raise CheckpointError(f"{name} is {dtype}{shape}, the model "
                                  f"expects {like.dtype}{like.shape}")
        _end(buf, off + like.nbytes)
        # astype copies: an aligned, writable array that owns its memory
        tensors[name] = np.frombuffer(buf, dtype.newbyteorder("<"), count=like.size,
                                      offset=off).reshape(shape).astype(dtype)
        off += like.nbytes

    def take(key: str) -> np.ndarray:
        arr = tensors.get(key)
        if arr is None:
            raise CheckpointError(f"checkpoint missing tensor {key}")
        return arr

    state = AdamState(step=adam_step)
    for name, p in model.params.items():
        p.data = take(name)
        if f"adam.m.{name}" in tensors or f"adam.v.{name}" in tensors:
            state.m[name] = take(f"adam.m.{name}")
            state.v[name] = take(f"adam.v.{name}")
    return model, state, train_cfg
