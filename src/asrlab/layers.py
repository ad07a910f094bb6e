"""Neural building blocks: dense, LSTM, attention, layer norm, embeddings.

A layer holds the tensors it is given: it is built from a model's flat
{name: Tensor} dict and a name prefix, reads its own tensors as
``params[f"{prefix}.w"]`` and so on, and takes its sizes from their
shapes. The names and shapes, and the rule that draws initial values,
live in ``models.tensor_shapes`` and ``models.init_tensors``.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor, sigmoid_np

NEG_FILL = -1e9  # pre-softmax fill for masked attention positions
LN_EPS = 1e-5  # layer-norm variance floor


class Dense:
    """Affine projection y = x W + b on the trailing dim."""

    def __init__(self, params: dict[str, Tensor], prefix: str):
        self.w, self.b = params[f"{prefix}.w"], params[f"{prefix}.b"]

    def __call__(self, x: Tensor) -> Tensor:
        d_in, d_out = self.w.shape
        lead = x.shape[:-1]
        flat = T.reshape(x, (-1, d_in)) if x.ndim != 2 else x
        y = T.add(T.matmul(flat, self.w), self.b)
        if x.ndim != 2:
            y = T.reshape(y, lead + (d_out,))
        return y


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

    def __call__(self, x: Tensor) -> Tensor:
        mu = x.data.mean(axis=-1, keepdims=True)
        xc = x.data - mu
        var = (xc * xc).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + LN_EPS)
        xhat = xc * inv
        out = Tensor(self.gamma.data * xhat + self.beta.data)
        gamma, beta = self.gamma, self.beta

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

    def __call__(self, ids: np.ndarray) -> Tensor:
        return T.embedding(self.table, ids)


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
    """Scaled dot-product attention with h heads and output projection."""

    def __init__(self, params: dict[str, Tensor], prefix: str, heads: int):
        self.wq, self.wk, self.wv, self.wo = (Dense(params, f"{prefix}.{p}") for p in ("wq", "wk", "wv", "wo"))
        self.dim = self.wq.w.shape[0]
        if self.dim % heads != 0:
            raise ShapeError(f"model dim {self.dim} not divisible by {heads} heads")
        self.heads = heads
        self.head_dim = self.dim // heads

    def _split(self, x: Tensor) -> Tensor:
        batch, t, _ = x.shape
        x = T.reshape(x, (batch, t, self.heads, self.head_dim))
        x = T.transpose(x, (0, 2, 1, 3))
        return T.reshape(x, (batch * self.heads, t, self.head_dim))

    def project_q(self, q: Tensor) -> Tensor:
        """Queries [B, Tq, dim] -> per-head queries [B*h, Tq, head_dim]."""
        return self._split(self.wq(q))

    def project_kv(self, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Keys and values [B, Tk, dim] -> per-head keys and values [B*h, Tk, head_dim]."""
        return self._split(self.wk(k)), self._split(self.wv(v))

    def weights(self, qh: Tensor, kh: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Softmax attention weights [B*h, Tq, Tk]; mask is True where a key is hidden."""
        batch = qh.shape[0] // self.heads
        tq, tk = qh.shape[1], kh.shape[1]
        scores = T.bmm(qh, T.transpose(kh, (0, 2, 1)))
        scores = T.mul(scores, 1.0 / np.sqrt(self.head_dim))
        if mask is not None:
            if mask.shape[-1] != tk or mask.shape[-2] not in (1, tq) or mask.ndim not in (2, 3):
                raise ShapeError(f"mask shape {mask.shape} incompatible with ({tq}, {tk})")
            expand = mask if mask.ndim == 2 else mask[:, None]
            full = np.broadcast_to(expand, (batch, self.heads, tq, tk))
            fill = np.where(full.reshape(batch * self.heads, tq, tk), NEG_FILL, 0.0)
            scores = T.add(scores, Tensor(fill.astype(scores.dtype)))
        return T.softmax(scores, axis=-1)

    def attend(self, qh: Tensor, kh: Tensor, vh: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Attention output [B, Tq, dim] from projected queries, keys and values."""
        batch = qh.shape[0] // self.heads
        tq = qh.shape[1]
        ctx = T.bmm(self.weights(qh, kh, mask), vh)
        ctx = T.reshape(ctx, (batch, self.heads, tq, self.head_dim))
        ctx = T.transpose(ctx, (0, 2, 1, 3))
        ctx = T.reshape(ctx, (batch, tq, self.dim))
        return self.wo(ctx)

    def __call__(self, q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None) -> Tensor:
        return self.attend(self.project_q(q), *self.project_kv(k, v), mask)


class FeedForward:
    def __init__(self, params: dict[str, Tensor], prefix: str):
        self.lin1, self.lin2 = Dense(params, f"{prefix}.lin1"), Dense(params, f"{prefix}.lin2")

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

    def __call__(self, x: Tensor, memory_kv: tuple[Tensor, Tensor], causal: np.ndarray | None = None,
                 mem_mask: np.ndarray | None = None, past_kv: tuple[np.ndarray, np.ndarray] | None = None):
        """Run the newest positions x [B, L, dim] through the block; returns the
        output and the self-attention keys and values of all P+L positions.

        memory_kv is ``cross_attn.project_kv`` of the memory, [B*h, Tenc, head_dim]
        each, or [h, Tenc, head_dim] of one utterance that all B rows share.
        past_kv holds the keys and values of P earlier positions, [B*h, P, head_dim].
        """
        h = self.ln1(x)
        qh = self.self_attn.project_q(h)
        kh, vh = self.self_attn.project_kv(h, h)
        if past_kv is not None:
            kh = Tensor(np.concatenate([past_kv[0], kh.data], axis=1))
            vh = Tensor(np.concatenate([past_kv[1], vh.data], axis=1))
        x = T.add(x, self.self_attn.attend(qh, kh, vh, causal))
        h = self.ln2(x)
        if memory_kv[0].shape[0] == qh.shape[0]:
            x = T.add(x, self.cross_attn.attend(self.cross_attn.project_q(h), *memory_kv, mem_mask))
        else:  # rows that share one memory go in as queries of a single batch entry
            qm = self.cross_attn.project_q(T.reshape(h, (1, -1, x.shape[-1])))
            x = T.add(x, T.reshape(self.cross_attn.attend(qm, *memory_kv, mem_mask), x.shape))
        return T.add(x, self.ff(self.ln3(x))), (kh.data, vh.data)


def causal_mask(t: int) -> np.ndarray:
    """True above the diagonal: position i may attend to j <= i only."""
    return np.triu(np.ones((t, t), dtype=bool), k=1)


def key_padding_mask(lengths, t: int) -> np.ndarray:
    """[B, 1, t] True at padded key positions."""
    lengths = np.asarray(lengths)
    idx = np.arange(t)[None, :]
    return (idx >= lengths[:, None])[:, None, :]
