"""Dense tensors with a reverse-mode gradient tape.

Values live in numpy arrays (float32 for training, float64 for gradient
checks). Differentiable ops record themselves on the currently active
Tape. ``Tape.backward(loss, wrt)`` replays the record in reverse and
returns the gradient of a scalar loss with respect to each tensor in
``wrt``; no tensor holds a gradient, so nothing carries over from one
backward pass to the next.

The tape is the only graph state, and it holds no tensor: a node is the
serial key of its output, the key, ``requires_grad`` flag and dtype of
each parent, and the backward rule. A rule keeps only the arrays it reads
(an operand of ``mul`` only when the other operand needs a gradient, the
sign mask of ``relu``, the shapes of ``add``), so an intermediate that no
rule reads is freed as soon as the forward pass drops it, and the rest of
a step's activations when its tape goes out of scope. A tensor knows
nothing of the tape it was recorded on.

A rule writes only into arrays it allocated in that call, never into its
incoming gradient (the tape may have handed that array to another parent
too, as ``add`` does) or an array it captured (the next backward reads
it again). The tape stores a rule's gradient as it is, cast only when its
dtype is not the one recorded, and adds a second gradient out of place,
so a step holds each large array once and one tape can run backward
again with the same result.

The ops here are the glue between layers: add, mul, relu and
log-softmax. A layer records its whole forward pass as one node of its
own (``layers``), and a loss does the same (``losses``). Broadcasting is
deliberately restricted to scalars and trailing-dim row vectors so that
every backward rule stays auditable.
"""

from __future__ import annotations

import itertools
import math
import struct
from contextlib import contextmanager

import numpy as np

from .atomic import atomic_write
from .errors import NumericError, ShapeError, UsageError

_ACTIVE_TAPES: list["Tape | None"] = []  # None: no_tape() is in force
_KEYS = itertools.count()  # Tensor keys: serial, never reused, unlike id() of a freed object


class Tape:
    """Ordered record of primitive ops for one forward/backward cycle.

    Creation order is a topological order (an op's inputs always exist
    before its output), so backward is a single reverse sweep that
    touches each node exactly once. Nodes name tensors by key and hold
    none of them, so the tape keeps alive only what the backward rules
    captured.

    A parent's ``requires_grad`` and dtype are read when its op is
    recorded: backward gives a parent a gradient as it stood then, in
    that dtype, whatever the flag says by the time backward runs.
    """

    def __init__(self):
        self._nodes = []  # (out key, ((parent key, requires_grad, dtype), ...), backward_fn)

    def __enter__(self):
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_TAPES.pop()
        return False

    def record(self, out: "Tensor", parents, backward_fn) -> None:
        """backward_fn maps the gradient of out to one gradient per parent,
        in order, or None for a parent it skips."""
        self._nodes.append((out.key, tuple((p.key, p.requires_grad, p.data.dtype) for p in parents),
                            backward_fn))

    def backward(self, loss: "Tensor", wrt) -> list:
        """Gradients of a scalar loss with respect to each tensor in wrt, in
        order; zeros for a tensor the loss does not reach or that does not
        require grad when the ops it feeds were recorded. Two of them may be
        one array (``add(a, b)`` gives a and b the same), so a caller must
        not write into them."""
        if loss.data.size != 1:
            raise UsageError("backward requires a scalar loss")
        grads = {loss.key: np.ones_like(loss.data)}
        for out_key, parents, backward_fn in reversed(self._nodes):
            g = grads.pop(out_key, None)
            if g is None:
                continue
            for (key, requires_grad, dtype), gp in zip(parents, backward_fn(g), strict=True):
                if gp is None or not requires_grad:
                    continue
                acc = grads.get(key)
                if acc is not None:
                    gp = acc + gp  # never into acc: a rule may hand one array to two parents
                grads[key] = gp if gp.dtype == dtype else gp.astype(dtype)
        if loss.key in grads:  # the sweep never reached loss
            raise UsageError("backward target was not produced on this tape")
        return [grads[p.key] if p.key in grads else np.zeros_like(p.data) for p in wrt]

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
    """A dense n-d float array, optionally tracked for gradients; ``key``
    names it on a tape."""

    __slots__ = ("data", "requires_grad", "key")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else None)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.key = next(_KEYS)

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
    a_shape, b_shape = a.shape, b.shape

    def backward(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _finish(out, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = _as_tensor(b, a)
    _check_broadcast(a, b, "mul")
    out = Tensor(a.data * b.data)
    a_shape, b_shape = a.shape, b.shape
    a_data = a.data if b.requires_grad else None  # each operand only for the other's gradient
    b_data = b.data if a.requires_grad else None

    def backward(g):
        return (None if b_data is None else _unbroadcast(g * b_data, a_shape),
                None if a_data is None else _unbroadcast(g * a_data, b_shape))

    return _finish(out, (a, b), backward)


# -- elementwise nonlinearities -----------------------------------------

def relu(a: Tensor) -> Tensor:
    y = np.maximum(a.data, 0.0)
    out = Tensor(y)
    positive = a.data > 0

    def backward(g):
        return (g * positive,)

    return _finish(out, (a,), backward)


# -- softmax ------------------------------------------------------------

def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax over the last axis."""
    y = log_softmax_np(a.data)
    out = Tensor(y)

    def backward(g):
        d = np.exp(y)
        d *= np.sum(g, axis=-1, keepdims=True)
        return (np.subtract(g, d, out=d),)

    return _finish(out, (a,), backward)


def softmax_np(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Max-subtracted softmax over the last axis of a raw array, into out
    (out=x works in place) or a new array."""
    m = x.max(axis=-1, keepdims=True)
    e = np.subtract(x, m, out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def log_softmax_np(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    z = x - m
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z


# -- binary tensor format ---------------------------------------------------
# magic "NDT1", u32 rank, u32 dims[rank], little-endian f32 payload

NDT_MAGIC = b"NDT1"
MAX_RANK = 64  # numpy's most dimensions (NPY_MAXDIMS)


def write_array(fh, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype=np.float32)
    fh.write(NDT_MAGIC)
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(arr.astype("<f4", copy=False))


def ndt_nbytes(shape) -> int:
    """Bytes of the NDT1 block of an array of this shape."""
    return 8 + 4 * len(shape) + 4 * math.prod(shape)


def read_array(fh, out: np.ndarray | None = None) -> np.ndarray:
    """The next NDT1 block of fh, read into out (a float32 array, ShapeError
    unless the block has its shape) or into a new array."""
    magic = fh.read(4)
    if magic != NDT_MAGIC:
        raise NumericError(f"bad tensor magic {magic!r}")
    try:
        (rank,) = struct.unpack("<I", fh.read(4))
        if rank > MAX_RANK:  # checked before a corrupt rank can size the read of the dims
            raise NumericError(f"tensor rank {rank} above numpy's {MAX_RANK}")
        dims = struct.unpack(f"<{rank}I", fh.read(4 * rank))
    except struct.error as exc:
        raise NumericError(f"truncated tensor header: {exc}") from exc
    if out is None:
        start = fh.tell()
        if fh.seek(0, 2) - start < 4 * math.prod(dims):  # checked before a corrupt shape can allocate
            raise NumericError("truncated tensor payload")
        fh.seek(start)
        out = np.empty(dims, dtype="<f4")
    elif dims != out.shape:
        raise ShapeError(f"block shape {dims} is not {out.shape}")
    if fh.readinto(out) != out.nbytes:
        raise NumericError("truncated tensor payload")
    return out


def save_array(path, arr: np.ndarray) -> None:
    with atomic_write(path, "wb") as fh:
        write_array(fh, arr)


def load_array(path) -> np.ndarray:
    """The one NDT1 block that is the whole file at path."""
    with open(path, "rb") as fh:
        arr = read_array(fh)
        if fh.read(1):
            raise NumericError("bytes after the tensor block")
    return arr
