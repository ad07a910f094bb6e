"""Dense tensors with a reverse-mode gradient tape.

Values live in numpy arrays (float32 for training, float64 for gradient
checks). Differentiable ops record themselves, with their parents, on the
currently active Tape. ``Tape.backward(loss, wrt)`` replays the record in
reverse and returns the gradient of a scalar loss with respect to each
tensor in ``wrt``; no tensor holds a gradient, so nothing carries over
from one backward pass to the next.

The tape is the only graph state: it holds each recorded output with its
parents and backward rule, and a tensor knows nothing of the tape it was
recorded on, so a step's activations are freed as soon as its tape and
outputs go out of scope.

The ops here are the glue between layers: add, mul, relu and
log-softmax. A layer records its whole forward pass as one node of its
own (``layers``), and a loss does the same (``losses``). Broadcasting is
deliberately restricted to scalars and trailing-dim row vectors so that
every backward rule stays auditable.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager

import numpy as np

from .atomic import atomic_write
from .errors import NumericError, ShapeError, UsageError

_ACTIVE_TAPES: list["Tape | None"] = []  # None: no_tape() is in force


class Tape:
    """Ordered record of primitive ops for one forward/backward cycle.

    Creation order is a topological order (an op's inputs always exist
    before its output), so backward is a single reverse sweep that
    touches each node exactly once.
    """

    def __init__(self):
        self._nodes = []  # (out_tensor, parents, backward_fn)

    def __enter__(self):
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_TAPES.pop()
        return False

    def record(self, out: "Tensor", parents, backward_fn) -> None:
        """backward_fn maps the gradient of out to one gradient per parent,
        in order, or None for a parent it skips."""
        self._nodes.append((out, parents, backward_fn))

    def backward(self, loss: "Tensor", wrt) -> list:
        """Gradients of a scalar loss with respect to each tensor in wrt, in
        order; zeros for a tensor the loss does not reach or that does not
        require grad."""
        if loss.data.size != 1:
            raise UsageError("backward requires a scalar loss")
        grads = {id(loss): np.ones_like(loss.data)}  # keyed by id: the tape keeps every tensor alive
        for out, parents, backward_fn in reversed(self._nodes):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for p, gp in zip(parents, backward_fn(g), strict=True):
                if gp is None or not p.requires_grad:
                    continue
                acc = grads.get(id(p))
                if acc is None:
                    grads[id(p)] = gp.astype(p.data.dtype, copy=True)
                else:
                    acc += gp
        if id(loss) in grads:  # the sweep never reached loss
            raise UsageError("backward target was not produced on this tape")
        return [grads[id(p)] if id(p) in grads else np.zeros_like(p.data) for p in wrt]

    def __len__(self):
        return len(self._nodes)


@contextmanager
def no_tape():
    """Ops run inside record nothing, even within a live Tape (inference)."""
    _ACTIVE_TAPES.append(None)
    try:
        yield
    finally:
        _ACTIVE_TAPES.pop()


class Tensor:
    """A dense n-d float array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else None)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = requires_grad

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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _finish(out: Tensor, parents, backward_fn) -> Tensor:
    """Mark out as requiring grad and record it, when a tape is live."""
    tape = _ACTIVE_TAPES[-1] if _ACTIVE_TAPES else None
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        tape.record(out, parents, backward_fn)
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
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _finish(out, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = _as_tensor(b, a)
    _check_broadcast(a, b, "mul")
    out = Tensor(a.data * b.data)

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _finish(out, (a, b), backward)


# -- elementwise nonlinearities -----------------------------------------

def relu(a: Tensor) -> Tensor:
    y = np.maximum(a.data, 0.0)
    out = Tensor(y)

    def backward(g):
        return (g * (a.data > 0),)

    return _finish(out, (a,), backward)


# -- softmax ------------------------------------------------------------

def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    y = log_softmax_np(a.data, axis)
    out = Tensor(y)

    def backward(g):
        s = np.exp(y)
        return (g - s * np.sum(g, axis=axis, keepdims=True),)

    return _finish(out, (a,), backward)


def softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax on a raw array."""
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    z = x - m
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


def sigmoid_np(x: np.ndarray) -> np.ndarray:
    """Logistic function on a raw array, branch-free: with e = exp(-|x|) it is
    1/(1+e) for x >= 0 and e/(1+e) below, so exp never overflows."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


# -- binary tensor format ---------------------------------------------------
# magic "NDT1", u32 rank, u32 dims[rank], little-endian f32 payload

NDT_MAGIC = b"NDT1"


def write_array(fh, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype=np.float32)
    fh.write(NDT_MAGIC)
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(arr.astype("<f4", copy=False))


def read_array(fh) -> np.ndarray:
    magic = fh.read(4)
    if magic != NDT_MAGIC:
        raise NumericError(f"bad tensor magic {magic!r}")
    try:
        (rank,) = struct.unpack("<I", fh.read(4))
        dims = struct.unpack(f"<{rank}I", fh.read(4 * rank))
    except struct.error as exc:
        raise NumericError(f"truncated tensor header: {exc}") from exc
    start = fh.tell()
    if fh.seek(0, 2) - start < 4 * math.prod(dims):  # checked before a corrupt shape can allocate
        raise NumericError("truncated tensor payload")
    fh.seek(start)
    out = np.empty(dims, dtype="<f4")
    if fh.readinto(out) != out.nbytes:
        raise NumericError("truncated tensor payload")
    return out


def save_array(path, arr: np.ndarray) -> None:
    with atomic_write(path, "wb") as fh:
        write_array(fh, arr)


def load_array(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_array(fh)
