"""Neural building blocks: dense, LSTM, attention, layer norm, embeddings.

A layer holds the tensors it is given: it is built from a model's flat
{name: Tensor} dict and a name prefix, reads its own tensors as
``params[f"{prefix}.w"]`` and so on, and takes its sizes from their
shapes. The names and shapes, and the rule that draws initial values,
live in ``models.tensor_shapes`` and ``models.init_tensors``.

A layer is an array forward plus one tape node: ``apply`` computes on
raw arrays, and calling the layer on Tensors runs that same code and
records it as a single node with a hand-written backward rule. The
incremental decoder (``models.IncrementalDecoder``) calls the layers'
array code, so a model's forward pass is written once.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor, sigmoid_np, softmax_np

NEG_FILL = -1e9  # pre-softmax fill for masked attention positions
LN_EPS = 1e-5  # layer-norm variance floor


class Dense:
    """Affine projection y = x W + b on the trailing dim."""

    def __init__(self, params: dict[str, Tensor], prefix: str):
        self.w, self.b = params[f"{prefix}.w"], params[f"{prefix}.b"]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """x [..., d_in] -> [..., d_out], as one 2-d product over the
        flattened leading dims."""
        d_in, d_out = self.w.shape
        if x.shape[-1] != d_in:
            raise ShapeError(f"dense input dim {x.shape[-1]} does not match weight {self.w.shape}")
        return (x.reshape(-1, d_in) @ self.w.data + self.b.data).reshape(x.shape[:-1] + (d_out,))

    def __call__(self, x: Tensor) -> Tensor:
        w, b = self.w, self.b
        out = Tensor(self.apply(x.data))

        def backward(g):
            g = g.reshape(-1, g.shape[-1])
            return ((g @ w.data.T).reshape(x.shape) if x.requires_grad else None,
                    x.data.reshape(-1, w.shape[0]).T @ g if w.requires_grad else None,
                    g.sum(axis=0) if b.requires_grad else None)

        return T._finish(out, (x, w, b), backward)


class LstmLayer:
    """Single LSTM layer; gate order i, f, g, o in the fused weight.

    ``forward`` records the whole recurrence as one tape node whose
    backward is backpropagation through time over the saved gate
    activations and cell states. Each frame takes the sigmoid
    (``tensor.sigmoid_np``, branch-free) twice, once over the contiguous
    i|f slice of the gate pre-activations and once over o, and tanh over g.
    """

    def __init__(self, params: dict[str, Tensor], prefix: str):
        self.w, self.u, self.b = (params[f"{prefix}.{n}"] for n in ("w", "u", "b"))
        self.hidden = self.u.shape[0]

    def forward(self, x: Tensor) -> Tensor:
        """Run the recurrence over x [T, B, d_in] from zero state; returns
        every frame's hidden state, [T, B, hidden]."""
        H = self.hidden
        w, u, b = self.w, self.u, self.b
        zero = np.zeros((x.shape[1], H), dtype=x.dtype)
        hs, cs, acts = [zero], [zero], []  # hs[t], cs[t]: the state frame t starts from
        for x_t in x.data:
            z = x_t @ w.data + hs[-1] @ u.data + b.data
            i_f = sigmoid_np(z[:, :2 * H])
            i, f, o = i_f[:, :H], i_f[:, H:], sigmoid_np(z[:, 3 * H:])
            g = np.tanh(z[:, 2 * H:3 * H])
            cs.append(f * cs[-1] + i * g)
            tc = np.tanh(cs[-1])
            hs.append(o * tc)
            acts.append((i, f, g, o, tc))
        out = Tensor(np.stack(hs[1:]))

        def backward(dout):
            dx = np.empty_like(x.data) if x.requires_grad else None
            dw = du = db = dz = dc_next = None
            for t in reversed(range(len(acts))):
                i, f, g, o, tc = acts[t]
                dh = dout[t] if dz is None else dout[t] + dz @ u.data.T
                dc = dh * o * (1.0 - tc * tc)
                if dc_next is not None:
                    dc = dc_next + dc
                dc_next = dc * f
                dz = np.concatenate([dc * g * i * (1.0 - i), dc * cs[t] * f * (1.0 - f),
                                     dc * i * (1.0 - g * g), dh * tc * o * (1.0 - o)], axis=1)
                if dx is not None:
                    dx[t] = dz @ w.data.T
                if w.requires_grad:
                    dw = _accumulate(dw, x.data[t].T @ dz)
                if u.requires_grad:
                    du = _accumulate(du, hs[t].T @ dz)
                if b.requires_grad:
                    db = _accumulate(db, dz.sum(axis=0))
            return dx, dw, du, db

        return T._finish(out, (x, w, u, b), backward)


def _accumulate(total, term):
    """total += term, or term itself when there is no total yet."""
    if total is None:
        return term
    total += term
    return total


class LayerNorm:
    """Per-position normalization over the trailing dim, with affine."""

    def __init__(self, params: dict[str, Tensor], prefix: str):
        self.gamma, self.beta = params[f"{prefix}.gamma"], params[f"{prefix}.beta"]

    def _forward(self, x: np.ndarray):
        """(output, normalized input xhat, 1/std), the last two being what
        the backward rule reads.

        The means are sums divided by the dim: a division is correctly
        rounded, so this equals ``np.mean`` (which divides in float64) bit
        for bit without its Python overhead."""
        n = x.shape[-1]
        mu = x.sum(axis=-1, keepdims=True) / n
        xc = x - mu
        var = (xc * xc).sum(axis=-1, keepdims=True) / n
        inv = 1.0 / np.sqrt(var + LN_EPS)
        xhat = xc * inv
        return self.gamma.data * xhat + self.beta.data, xhat, inv

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._forward(x)[0]

    def __call__(self, x: Tensor) -> Tensor:
        gamma, beta = self.gamma, self.beta
        y, xhat, inv = self._forward(x.data)
        out = Tensor(y)

        def backward(g):
            dx = dgamma = dbeta = None
            if x.requires_grad:
                dxhat = g * gamma.data
                m1 = dxhat.mean(axis=-1, keepdims=True)
                m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
                dx = inv * (dxhat - m1 - xhat * m2)
            if gamma.requires_grad:
                dgamma = (g * xhat).reshape(-1, g.shape[-1]).sum(axis=0)
            if beta.requires_grad:
                dbeta = g.reshape(-1, g.shape[-1]).sum(axis=0)
            return dx, dgamma, dbeta

        return T._finish(out, (x, gamma, beta), backward)


class Embedding:
    def __init__(self, params: dict[str, Tensor], prefix: str):
        self.table = params[f"{prefix}.table"]

    def apply(self, ids: np.ndarray) -> np.ndarray:
        """The table rows of integer ids of any shape: [..., dim]."""
        if ids.size and (ids.min() < 0 or ids.max() >= self.table.shape[0]):
            raise ShapeError("embedding id out of range")
        return self.table.data[ids]

    def __call__(self, ids: np.ndarray) -> Tensor:
        table = self.table
        ids = np.asarray(ids)
        out = Tensor(self.apply(ids))

        def backward(g):
            full = np.zeros_like(table.data)
            np.add.at(full, ids, g)
            return (full,)

        return T._finish(out, (table,), backward)


def positional_encoding(length: int, dim: int, dtype=np.float32) -> np.ndarray:
    """Sin/cos position table [length, dim], base 10000, dim even."""
    if length < 1 or dim < 1 or dim % 2 != 0:
        raise ShapeError(f"positional_encoding needs length>=1 and even dim, got ({length}, {dim})")
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(0, dim, 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, idx / dim)
    pe = np.zeros((length, dim), dtype=np.float64)
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe.astype(dtype)


class MultiHeadAttention:
    """Scaled dot-product attention with h heads and output projection.

    ``attend`` is one tape node over the projected queries, keys and
    values. ``split``, ``weights`` and ``merge`` are its array steps; the
    incremental decoder calls them on its cached keys and values.
    """

    def __init__(self, params: dict[str, Tensor], prefix: str, heads: int):
        self.wq, self.wk, self.wv, self.wo = (Dense(params, f"{prefix}.{p}") for p in ("wq", "wk", "wv", "wo"))
        self.dim = self.wq.w.shape[0]
        if self.dim % heads != 0:
            raise ShapeError(f"model dim {self.dim} not divisible by {heads} heads")
        self.heads = heads
        self.head_dim = self.dim // heads
        self.scale = 1.0 / np.sqrt(self.head_dim)

    def split(self, x: np.ndarray) -> np.ndarray:
        """[B, T, dim] -> per-head [B*h, T, head_dim]."""
        batch, t, _ = x.shape
        x = x.reshape(batch, t, self.heads, self.head_dim).transpose(0, 2, 1, 3)
        return x.reshape(batch * self.heads, t, self.head_dim)

    def merge(self, x: np.ndarray) -> np.ndarray:
        """Per-head [B*h, T, head_dim] -> [B, T, dim], the inverse of split."""
        t = x.shape[1]
        x = x.reshape(-1, self.heads, t, self.head_dim).transpose(0, 2, 1, 3)
        return x.reshape(-1, t, self.dim)

    def weights(self, qh: np.ndarray, kh: np.ndarray, fill: np.ndarray | None = None) -> np.ndarray:
        """Softmax weights [B*h, Tq, Tk] of per-head queries and keys; fill,
        NEG_FILL at a hidden key, is added to the scaled scores."""
        scores = (qh @ kh.transpose(0, 2, 1)) * qh.dtype.type(self.scale)
        if fill is not None:
            scores = scores + fill
        return softmax_np(scores)

    def attend(self, q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Attention of projected queries q [B, Tq, dim] over projected keys
        and values [B, Tk, dim], heads merged: [B, Tq, dim]. mask, [Tq, Tk]
        or [B, Tq|1, Tk], is True where a key is hidden. One tape node."""
        (batch, tq, _), tk = q.shape, k.shape[1]
        fill = None
        if mask is not None:
            if mask.shape[-1] != tk or mask.shape[-2] not in (1, tq) or mask.ndim not in (2, 3):
                raise ShapeError(f"mask shape {mask.shape} incompatible with ({tq}, {tk})")
            expand = mask if mask.ndim == 2 else mask[:, None]
            full = np.broadcast_to(expand, (batch, self.heads, tq, tk))
            fill = np.where(full.reshape(batch * self.heads, tq, tk), NEG_FILL, 0.0).astype(q.dtype)
        qh, kh, vh = self.split(q.data), self.split(k.data), self.split(v.data)
        w = self.weights(qh, kh, fill)
        out = Tensor(self.merge(w @ vh))

        def backward(g):
            g = self.split(g)
            dq = dk = dv = None
            if v.requires_grad:
                dv = self.merge(w.transpose(0, 2, 1) @ g)
            if q.requires_grad or k.requires_grad:
                # the softmax, scale and bmm rules of the generic ops, in their order and operand
                # layout, so the gradients equal those of the op chain bit for bit
                dw = g @ vh.transpose(0, 2, 1)
                ds = ((dw - np.sum(dw * w, axis=-1, keepdims=True)) * w) * q.dtype.type(self.scale)
                if q.requires_grad:
                    dq = self.merge(ds @ kh)
                if k.requires_grad:
                    dk = self.merge((qh.transpose(0, 2, 1) @ ds).transpose(0, 2, 1))
            return dq, dk, dv

        return T._finish(out, (q, k, v), backward)

    def __call__(self, q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None) -> Tensor:
        return self.wo(self.attend(self.wq(q), self.wk(k), self.wv(v), mask))


class FeedForward:
    def __init__(self, params: dict[str, Tensor], prefix: str):
        self.lin1, self.lin2 = Dense(params, f"{prefix}.lin1"), Dense(params, f"{prefix}.lin2")

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.lin2.apply(np.maximum(self.lin1.apply(x), 0.0))

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(T.relu(self.lin1(x)))


class EncoderBlock:
    """Pre-norm transformer encoder block: self-attention + feed-forward."""

    def __init__(self, params: dict[str, Tensor], prefix: str, heads: int):
        self.attn = MultiHeadAttention(params, f"{prefix}.attn", heads)
        self.ff = FeedForward(params, f"{prefix}.ff")
        self.ln1, self.ln2 = (LayerNorm(params, f"{prefix}.{n}") for n in ("ln1", "ln2"))

    def __call__(self, x: Tensor, pad_mask: np.ndarray | None = None) -> Tensor:
        h = self.ln1(x)
        x = T.add(x, self.attn(h, h, h, pad_mask))
        return T.add(x, self.ff(self.ln2(x)))


class DecoderBlock:
    """Pre-norm decoder block: causal self-attention, cross-attention, FF."""

    def __init__(self, params: dict[str, Tensor], prefix: str, heads: int):
        self.self_attn = MultiHeadAttention(params, f"{prefix}.self_attn", heads)
        self.cross_attn = MultiHeadAttention(params, f"{prefix}.cross_attn", heads)
        self.ff = FeedForward(params, f"{prefix}.ff")
        self.ln1, self.ln2, self.ln3 = (LayerNorm(params, f"{prefix}.{n}") for n in ("ln1", "ln2", "ln3"))

    def __call__(self, x: Tensor, memory: Tensor, causal: np.ndarray | None = None,
                 mem_mask: np.ndarray | None = None) -> Tensor:
        """Teacher-forced positions x [B, L, dim] attending to the encoder
        memory [B, Tenc, dim] -> [B, L, dim]."""
        h = self.ln1(x)
        x = T.add(x, self.self_attn(h, h, h, causal))
        x = T.add(x, self.cross_attn(self.ln2(x), memory, memory, mem_mask))
        return T.add(x, self.ff(self.ln3(x)))


def causal_mask(t: int) -> np.ndarray:
    """True above the diagonal: position i may attend to j <= i only."""
    return np.triu(np.ones((t, t), dtype=bool), k=1)


def key_padding_mask(lengths, t: int) -> np.ndarray:
    """[B, 1, t] True at padded key positions."""
    lengths = np.asarray(lengths)
    idx = np.arange(t)[None, :]
    return (idx >= lengths[:, None])[:, None, :]
