"""Dense tensors with a reverse-mode gradient tape.

Values live in numpy arrays (float32 for training, float64 for gradient
checks). Differentiable ops record themselves on the currently active
Tape; calling ``Tape.backward`` on a scalar loss replays the record in
reverse and accumulates gradients into every ``requires_grad`` leaf.

Broadcasting is deliberately restricted to scalars and trailing-dim row
vectors so that every backward rule stays auditable. Anything fancier
(attention masks, stacked frames) is materialized to full shape first.
"""

from __future__ import annotations

import struct

import numpy as np

from .atomic import atomic_write
from .errors import NumericError, ShapeError, UsageError

_ACTIVE_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of primitive ops for one forward/backward cycle.

    Creation order is a topological order (an op's inputs always exist
    before its output), so backward is a single reverse sweep that
    touches each node exactly once.
    """

    def __init__(self):
        self._nodes = []  # (out_tensor, backward_fn)

    def __enter__(self):
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_TAPES.pop()
        return False

    def record(self, out: "Tensor", backward_fn) -> None:
        out._tape = self
        out._leaf = False
        self._nodes.append((out, backward_fn))

    def backward(self, loss: "Tensor") -> None:
        """Populate grads of all requires_grad leaves reachable from loss."""
        if loss._tape is not self:
            raise UsageError("backward target was not produced on this tape")
        if loss.data.size != 1:
            raise UsageError("backward requires a scalar loss")
        loss.grad = np.ones_like(loss.data)
        for out, backward_fn in reversed(self._nodes):
            if out.grad is None:
                continue
            backward_fn(out.grad)
            if not out._leaf:
                out.grad = None  # free intermediate grads

    def __len__(self):
        return len(self._nodes)


def active_tape():
    return _ACTIVE_TAPES[-1] if _ACTIVE_TAPES else None


class Tensor:
    """A dense n-d float array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "_leaf", "_tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else None)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._leaf = True
        self._tape = None

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

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- operator sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    # -- gradient plumbing ---------------------------------------------
    def _accumulate(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _finish(out: Tensor, parents, backward_fn) -> Tensor:
    """Mark out as requiring grad and record it, when a tape is live."""
    tape = active_tape()
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        tape.record(out, backward_fn)
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a gradient back to a scalar- or row-broadcast operand shape."""
    if g.shape == tuple(shape):
        return g
    if shape == () or int(np.prod(shape)) == 1:
        return g.sum().reshape(shape)
    # row vector over trailing dim
    return g.reshape(-1, g.shape[-1]).sum(axis=0).reshape(shape)


def _check_broadcast(a: Tensor, b: Tensor, opname: str) -> None:
    if a.shape == b.shape:
        return
    if b.size == 1 or a.size == 1:
        return
    if b.ndim == 1 and a.ndim >= 1 and a.shape[-1] == b.shape[0]:
        return
    if a.ndim == 1 and b.ndim >= 1 and b.shape[-1] == a.shape[0]:
        return
    raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} are not scalar/row broadcastable")


# -- arithmetic ---------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = _as_tensor(b, a)
    _check_broadcast(a, b, "add")
    out = Tensor(a.data + b.data)

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(g, b.shape))

    return _finish(out, (a, b), backward)


def sub(a: Tensor, b) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = _as_tensor(b, a)
    _check_broadcast(a, b, "sub")
    out = Tensor(a.data - b.data)

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(-_unbroadcast(g, b.shape))

    return _finish(out, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = _as_tensor(b, a)
    _check_broadcast(a, b, "mul")
    out = Tensor(a.data * b.data)

    def backward(g):
        a._accumulate(_unbroadcast(g * b.data, a.shape))
        b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _finish(out, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)

    def backward(g):
        a._accumulate(-g)

    return _finish(out, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward(g):
        a._accumulate(g @ b.data.T)
        b._accumulate(a.data.T @ g)

    return _finish(out, (a, b), backward)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul on [N,m,k] @ [N,k,n]."""
    if a.ndim != 3 or b.ndim != 3:
        raise ShapeError(f"bmm expects 3-d operands, got {a.shape} @ {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ShapeError(f"bmm shapes incompatible: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward(g):
        a._accumulate(g @ b.data.transpose(0, 2, 1))
        b._accumulate(a.data.transpose(0, 2, 1) @ g)

    return _finish(out, (a, b), backward)


# -- elementwise nonlinearities -----------------------------------------

def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)

    def backward(g):
        a._accumulate(g * (1.0 - y * y))

    return _finish(out, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    out = Tensor(y)

    def backward(g):
        a._accumulate(g * y * (1.0 - y))

    return _finish(out, (a,), backward)


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        y = np.exp(a.data)
    if not np.all(np.isfinite(y)):
        raise NumericError("exp overflow")
    out = Tensor(y)

    def backward(g):
        a._accumulate(g * y)

    return _finish(out, (a,), backward)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise NumericError("log of non-positive value")
    y = np.log(a.data)
    out = Tensor(y)

    def backward(g):
        a._accumulate(g / a.data)

    return _finish(out, (a,), backward)


def relu(a: Tensor) -> Tensor:
    y = np.maximum(a.data, 0.0)
    out = Tensor(y)

    def backward(g):
        a._accumulate(g * (a.data > 0))

    return _finish(out, (a,), backward)


# -- softmax ------------------------------------------------------------

def softmax(a: Tensor, axis: int = -1) -> Tensor:
    y = softmax_np(a.data, axis)
    out = Tensor(y)

    def backward(g):
        dot = np.sum(g * y, axis=axis, keepdims=True)
        a._accumulate((g - dot) * y)

    return _finish(out, (a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    y = log_softmax_np(a.data, axis)
    out = Tensor(y)

    def backward(g):
        s = np.exp(y)
        a._accumulate(g - s * np.sum(g, axis=axis, keepdims=True))

    return _finish(out, (a,), backward)


def softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax on a raw array (shared by ops and inference)."""
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    m = np.max(x, axis=axis, keepdims=True)
    z = x - m
    return z - np.log(np.sum(np.exp(z), axis=axis, keepdims=True))


# -- reductions ----------------------------------------------------------

def tsum(a: Tensor) -> Tensor:
    out = Tensor(np.asarray(a.data.sum(), dtype=a.data.dtype))

    def backward(g):
        a._accumulate(np.full_like(a.data, g))

    return _finish(out, (a,), backward)


# -- shape surgery --------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def backward(g):
        a._accumulate(g.reshape(a.shape))

    return _finish(out, (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    out = Tensor(a.data.transpose(axes))
    inv = tuple(np.argsort(axes))

    def backward(g):
        a._accumulate(g.transpose(inv))

    return _finish(out, (a,), backward)


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(a.data[..., start:stop])

    def backward(g):
        full = np.zeros_like(a.data)
        full[..., start:stop] = g
        a._accumulate(full)

    return _finish(out, (a,), backward)


def stack0(tensors) -> Tensor:
    """Stack same-shaped tensors along a new leading axis."""
    tensors = list(tensors)
    out = Tensor(np.stack([t.data for t in tensors], axis=0))

    def backward(g):
        for i, t in enumerate(tensors):
            t._accumulate(g[i])

    return _finish(out, tuple(tensors), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)
    if np.any(ids < 0) or np.any(ids >= table.shape[0]):
        raise ShapeError("embedding id out of range")
    out = Tensor(table.data[ids])

    def backward(g):
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, ids, g)
            table._accumulate(full)

    return _finish(out, (table,), backward)


# -- gradient checking -----------------------------------------------------

def gradient_check(loss_fn, params, h: float = 1e-5):
    """Max relative error between tape gradients and central differences.

    loss_fn must rebuild the loss from scratch on each call; params are
    float64 leaf tensors it reads. Returns the worst relative error over
    every element of every parameter.
    """
    for p in params:
        if p.data.dtype != np.float64:
            raise UsageError("gradient_check requires float64 parameters")
        p.zero_grad()
    with Tape() as tape:
        loss = loss_fn()
        tape.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = loss_fn().item()
            flat[i] = orig - h
            f_minus = loss_fn().item()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * h)
            an_i = an.reshape(-1)[i]
            err = abs(fd - an_i) / max(abs(fd), abs(an_i), 1e-6)
            worst = max(worst, err)
    return worst


# -- binary tensor format ---------------------------------------------------
# magic "NDT1", u32 rank, u32 dims[rank], little-endian f32 payload

NDT_MAGIC = b"NDT1"


def write_array(fh, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype=np.float32)
    fh.write(NDT_MAGIC)
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(arr.astype("<f4").tobytes())


def read_array(fh) -> np.ndarray:
    magic = fh.read(4)
    if magic != NDT_MAGIC:
        raise NumericError(f"bad tensor magic {magic!r}")
    (rank,) = struct.unpack("<I", fh.read(4))
    dims = struct.unpack(f"<{rank}I", fh.read(4 * rank))
    count = int(np.prod(dims)) if rank else 1
    payload = fh.read(4 * count)
    if len(payload) != 4 * count:
        raise NumericError("truncated tensor payload")
    return np.frombuffer(payload, dtype="<f4").reshape(dims).copy()


def save_array(path, arr: np.ndarray) -> None:
    with atomic_write(path, "wb") as fh:
        write_array(fh, arr)


def load_array(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_array(fh)
