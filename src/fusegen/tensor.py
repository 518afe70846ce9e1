"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap row-major numpy arrays and record local-gradient closures on an
implicit tape as ops execute. A tensor's dtype is its data's: float32 data
stays float32, anything else becomes float64, and Python-scalar operands take
the dtype of the tensor they meet, so a float32 graph stays float32. The
operators are ``+``, ``*``, unary ``-`` and basic indexing (ints, slices,
``...``); every other op is a function of this module. ``softmax_rows``,
``nll``, ``layer_norm``, ``rms_norm`` and ``rotate_pairs`` are fused: one node
each, with a closed-form backward. ``backward`` replays the tape in reverse
topological order, accumulating gradients over fan-out, and frees each node
as soon as its closure has run. The tape is single-use: a second
``backward`` on the same graph raises. Inside
``no_grad()`` ops record nothing, which is how inference runs.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Dict, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "no_grad",
    "concat",
    "matmul",
    "sigmoid",
    "gelu",
    "silu",
    "softmax_rows",
    "nll",
    "layer_norm",
    "rms_norm",
    "rotate_pairs",
    "embedding",
    "mask_fill",
    "grad_check",
    "grad_check_params",
]

_GRAD_ENABLED = True
_FLOAT_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


class ShapeError(ValueError):
    """Raised when operand shapes violate an op's precondition."""


class NonFiniteError(FloatingPointError):
    """Raised when an op receives or produces disallowed non-finite values."""


@contextlib.contextmanager
def no_grad():
    """Run the block without recording the tape: ops return plain tensors
    with no backward closure and no children. The previous state comes back
    on exit, also when the block raises."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_backward", "_children", "_consumed")

    def __init__(self, data, requires_grad: bool = False, _children: tuple = ()):
        if type(data) is not np.ndarray or data.dtype not in _FLOAT_DTYPES:
            data = np.asarray(data)
            if data.dtype != np.float32:
                data = data.astype(np.float64, copy=False)
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._children = _children
        self._consumed = False

    # -- introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accum(self, g: np.ndarray) -> None:
        # first touch copies: ops hand the same g (or views of it) to several
        # operands, and clip_global_norm scales grads in place
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    # -- autodiff ------------------------------------------------------
    def backward(self) -> None:
        """Populate grads of every reachable requires_grad tensor.

        The loss must be a 1-element tensor. Gradients accumulate (sum) over
        fan-out. Consumes the tape: the graph cannot be replayed.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        if self._consumed:
            raise RuntimeError("tape already consumed by a previous backward()")
        self._consumed = True
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        # popping frees each node (data, grad, closure) once its closure has
        # run, unless the caller holds it: the only other holders, its
        # parents' closures and _children, were dropped when those parents ran
        while order:
            node = order.pop()
            if node._backward is not None:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node._backward(node.grad)
                node._backward = None  # single-use tape
                node._children = ()

    # -- operator sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other, self))

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self))

    def __neg__(self):
        return mul(self, _as_tensor(-1.0, self))

    def __getitem__(self, idx):
        return getitem(self, idx)

    # method aliases used all over the model code
    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes)

    def swapaxes(self, a, b):
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return transpose(self, tuple(axes))


def _as_tensor(x, like: Tensor) -> Tensor:
    """``x`` as a Tensor; non-tensor operands take ``like``'s dtype."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=like.data.dtype))


def _toposort(root: Tensor) -> list:
    order: list = []
    seen: set = set()
    stack = [(root, iter(root._children))]
    seen.add(id(root))
    while stack:
        node, it = stack[-1]
        advanced = False
        for child in it:
            if id(child) not in seen:
                seen.add(id(child))
                stack.append((child, iter(child._children)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast to reach ``grad.shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _make(out_data, children, backward) -> Tensor:
    if not _GRAD_ENABLED:
        return Tensor(out_data)
    out = Tensor(out_data, _children=tuple(children))
    if any(c.requires_grad for c in children):
        out.requires_grad = True
        out._backward = backward
    else:
        out._children = ()
    return out


# ---------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting, gradients unbroadcast)
# ---------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.shape))

    return _make(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), backward)


def pow_const(a: Tensor, p: float) -> Tensor:
    data = a.data ** p

    def backward(g):
        a._accum(g * p * a.data ** (p - 1.0))

    return _make(data, (a,), backward)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def backward(g):
        a._accum(g * data)

    return _make(data, (a,), backward)


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)

    def backward(g):
        a._accum(g / a.data)

    return _make(data, (a,), backward)


# ---------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------

def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # stable two-branch form on e = exp(-|x|) <= 1; exact 0 at -inf
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    data = _sigmoid_np(a.data)

    def backward(g):
        a._accum(g * data * (1.0 - data))

    return _make(data, (a,), backward)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh approximation."""
    x = a.data
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    data = 0.5 * x * (1.0 + t)

    def backward(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
        d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
        a._accum(g * d)

    return _make(data, (a,), backward)


def silu(a: Tensor) -> Tensor:
    s = _sigmoid_np(a.data)
    data = a.data * s

    def backward(g):
        a._accum(g * (s + a.data * s * (1.0 - s)))

    return _make(data, (a,), backward)


# ---------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the trailing two axes; leading axes broadcast."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} vs {b.shape}")
    data = np.matmul(a.data, b.data)

    # a 2-D b under a batched a: each gradient is one GEMM over the
    # flattened batch, instead of N matmuls (plus a sum over N for b)
    flat = b.ndim == 2 and a.ndim > 2

    def backward(g):
        if a.requires_grad:
            if flat:
                a._accum((g.reshape(-1, g.shape[-1]) @ b.data.T).reshape(a.shape))
            else:
                ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
                a._accum(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            if flat:
                b._accum(a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
            else:
                gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
                b._accum(_unbroadcast(gb, b.shape))

    return _make(data, (a, b), backward)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            a._accum(np.broadcast_to(g, a.shape).copy() if np.ndim(g) else np.full(a.shape, g))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a._accum(np.broadcast_to(gg, a.shape).copy())

    return _make(data, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        a._accum(g.reshape(a.shape))

    return _make(data, (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    data = a.data.transpose(axes)

    def backward(g):
        a._accum(g.transpose(np.argsort(axes)))

    return _make(data, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accum(g[tuple(idx)])

    return _make(data, tensors, backward)


def getitem(a: Tensor, idx) -> Tensor:
    # basic indices only: they hit each element at most once, so the backward
    # can assign (an array index would drop the grads of repeated indices)
    if not all(type(i) in (int, slice) or i is Ellipsis
               for i in (idx if type(idx) is tuple else (idx,))):
        raise TypeError(f"Tensor indexing takes ints, slices and ..., got {idx!r}")
    data = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        a._accum(full)

    return _make(data, (a,), backward)


def _lookup_np(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Rows of ``table`` at integer ``ids``; the forward of ``embedding``."""
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"token id out of range for table of {table.shape[0]} rows")
    return table[ids]


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into ``table`` by integer ``ids`` (any shape)."""
    ids = np.asarray(ids)
    data = _lookup_np(table.data, ids)

    def backward(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        table._accum(full)

    return _make(data, (table,), backward)


def mask_fill(a: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Set positions where boolean ``mask`` is True to ``value`` (no gradient there)."""
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape)
    data = np.where(mask, value, a.data)

    def backward(g):
        a._accum(np.where(mask, 0.0, g))

    return _make(data, (a,), backward)


# ---------------------------------------------------------------------
# normalizations
# ---------------------------------------------------------------------

def _row_max(d: np.ndarray, op: str) -> np.ndarray:
    """Trailing-axis max, keepdims. A NaN or +inf entry makes its row's max
    NaN or +inf, and a row of only -inf (every key masked) has max -inf, so
    checking the maxima checks the whole input."""
    m = d.max(axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        raise NonFiniteError(f"{op}: NaN or +inf in input, or a row that is all -inf "
                             "(every entry masked)")
    return m


def _softmax_np(d: np.ndarray) -> np.ndarray:
    """Trailing-axis softmax of an array; the forward of ``softmax_rows``."""
    e = np.exp(d - _row_max(d, "softmax_rows"))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the trailing axis, stabilized by max-subtraction.

    -inf entries (masking) are allowed and get exactly zero weight; NaN or
    +inf inputs and rows of only -inf raise NonFiniteError.
    """
    s = _softmax_np(x.data)

    def backward(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        x._accum(s * (g - dot))

    return _make(s, (x,), backward)


def nll(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Summed negative log-likelihood of integer ``targets`` under the
    trailing-axis log-softmax of ``logits``, over the positions where boolean
    ``mask`` (``logits.shape[:-1]``) is True, as one log-sum-exp node.

    Finite for any finite input, however large the gap between entries;
    NaN or +inf inputs and rows of only -inf raise NonFiniteError.
    """
    d = logits.data
    z = d - _row_max(d, "nll")
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    mask = np.asarray(mask, dtype=bool)
    rows = np.nonzero(mask)
    picked = rows + (targets[rows],)

    def backward(g):
        # softmax * g, then minus g at the targets: this order rounds like the
        # composed log-softmax chain, and g * (softmax - onehot) does not
        grad = np.exp(logp) * (g * mask[..., None])
        grad[picked] -= g
        logits._accum(grad)

    return _make((-logp[picked]).sum(), (logits,), backward)


_NORM_EPS = 1e-5   # the default eps of layer_norm and rms_norm


def _inv_rms(v: np.ndarray, eps: float) -> np.ndarray:
    """(mean(v^2, trailing axis) + eps)^-1/2, keepdims."""
    return ((v * v).sum(axis=-1, keepdims=True) * (1.0 / v.shape[-1]) + eps) ** -0.5


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = _NORM_EPS) -> Tensor:
    """Per-row (trailing axis) standardization followed by gain and bias."""
    d = x.data
    xc = d - d.sum(axis=-1, keepdims=True) * (1.0 / d.shape[-1])
    inv = _inv_rms(xc, eps)
    xhat = xc * inv

    def backward(g):
        if x.requires_grad:
            gh = g * gain.data
            x._accum(inv * (gh - gh.mean(axis=-1, keepdims=True)
                            - xhat * (gh * xhat).mean(axis=-1, keepdims=True)))
        if gain.requires_grad:
            gain._accum(_unbroadcast(g * xhat, gain.shape))
        if bias.requires_grad:
            bias._accum(_unbroadcast(g, bias.shape))

    return _make(xhat * gain.data + bias.data, (x, gain, bias), backward)


def rms_norm(x: Tensor, gain: Tensor, eps: float = _NORM_EPS) -> Tensor:
    """x / sqrt(mean(x^2) + eps) over the trailing axis, then elementwise gain."""
    inv = _inv_rms(x.data, eps)
    xhat = x.data * inv

    def backward(g):
        if x.requires_grad:
            gh = g * gain.data
            x._accum(inv * (gh - xhat * (gh * xhat).mean(axis=-1, keepdims=True)))
        if gain.requires_grad:
            gain._accum(_unbroadcast(g * xhat, gain.shape))

    return _make(xhat * gain.data, (x, gain), backward)


def _rotate_np(v: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """The pair rotation of ``rotate_pairs`` on an array."""
    out = np.empty_like(v)
    vr, vi = v[..., 0::2], v[..., 1::2]
    out[..., 0::2] = vr * cos - vi * sin
    out[..., 1::2] = vr * sin + vi * cos
    return out


def rotate_pairs(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate each adjacent pair (x[2k], x[2k+1]) of the trailing axis by the
    angle whose cosine and sine are ``cos[..., k]``/``sin[..., k]``; the
    tables broadcast against x's leading axes. The backward pass is the
    inverse rotation."""

    def backward(g):
        x._accum(_rotate_np(g, cos, -sin))

    return _make(_rotate_np(x.data, cos, sin), (x,), backward)


# ---------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------

def grad_check(f, x: Tensor, h: float = 1e-3) -> float:
    """Max relative error between analytic and finite-difference gradients.

    ``f`` must map a Tensor to a scalar Tensor. Relative error per coordinate
    is |analytic - fd| / max(|analytic|, |fd|, 1e-12).
    """
    xt = Tensor(x.data.copy(), requires_grad=True)
    return grad_check_params(lambda: f(xt), {"x": xt}, h)


def grad_check_params(
    loss_fn: Callable[[], Tensor],
    params: Dict[str, Tensor],
    h: float = 1e-3,
    sample_per_tensor: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    grads: Optional[Dict[str, np.ndarray]] = None,
    floor: float = 1e-12,
) -> float:
    """Max relative error of analytic vs finite-difference parameter grads.

    ``loss_fn`` must be a deterministic closure over ``params``; each probe
    perturbs one coordinate of a parameter in place. The reference is the
    Richardson-extrapolated central difference (4·D(h) − D(2h)) / 3, whose
    truncation error is O(h⁴), so a step large enough to keep rounding noise
    small stays accurate. The analytic grads are ``grads`` by parameter name
    if given, else one backward pass of ``loss_fn``. With
    ``sample_per_tensor`` set, only that many coordinates per tensor are
    probed (chosen by ``rng``). The error of a coordinate is
    |analytic - fd| / max(|analytic|, |fd|, ``floor``).
    """
    if not (1e-7 <= h <= 1e-3):
        raise ValueError(f"h={h} outside [1e-7, 1e-3]")
    if grads is None:
        for p in params.values():
            p.grad = None
        loss_fn().backward()
        grads = {name: p.grad for name, p in params.items()}
    rng = rng or np.random.default_rng(0)
    worst = 0.0
    for name, p in params.items():
        g = grads.get(name)
        g = (g if g is not None else np.zeros_like(p.data)).ravel()
        flat = p.data.ravel()
        if sample_per_tensor is None or flat.size <= sample_per_tensor:
            idxs: Iterable[int] = range(flat.size)
        else:
            idxs = rng.choice(flat.size, size=sample_per_tensor, replace=False)
        for i in idxs:
            orig = flat[i]
            f = {}
            for step in (h, -h, 2 * h, -2 * h):
                flat[i] = orig + step
                f[step] = loss_fn().item()
            flat[i] = orig
            if not all(map(math.isfinite, f.values())):
                raise NonFiniteError(f"grad_check: non-finite loss probing {name}[{i}]")
            fd = (8.0 * (f[h] - f[-h]) - (f[2 * h] - f[-2 * h])) / (12.0 * h)
            gi = float(g[i])   # a float32 grad would round fd to float32
            rel = abs(gi - fd) / max(abs(gi), abs(fd), floor)
            worst = max(worst, rel)
    return worst
