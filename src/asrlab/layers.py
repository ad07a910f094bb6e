"""Neural building blocks: dense, LSTM, attention, layer norm, embeddings.

Every layer owns its parameter tensors and exposes them through
``parameters()`` as a flat {local_name: Tensor} dict; composite modules
and models prefix these through ``prefixed`` to build the
"submodule.index.param" checkpoint/freeze-policy namespace. Weights
start uniform in ±1/sqrt(fan_in); LSTM forget-gate biases start at 1.0.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor, sigmoid_np

NEG_FILL = -1e9  # pre-softmax fill for masked attention positions


def _uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def prefixed(**subs) -> dict[str, Tensor]:
    """Sub-module parameters as {"tag.name": Tensor}, in argument order.

    A list of modules under one tag expands to "tag.index.name". This is
    the naming rule that checkpoints and freeze policies key off, and
    checkpoints store tensors in this order.
    """
    out = {}
    for tag, sub in subs.items():
        entries = [(f"{tag}.{i}", m) for i, m in enumerate(sub)] if isinstance(sub, list) else [(tag, sub)]
        for prefix, module in entries:
            for name, p in module.parameters().items():
                out[f"{prefix}.{name}"] = p
    return out


class Dense:
    """Affine projection y = x W + b on the trailing dim."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, dtype=np.float32):
        self.d_in = d_in
        self.d_out = d_out
        self.w = Tensor(_uniform(rng, (d_in, d_out), d_in, dtype), requires_grad=True)
        self.b = Tensor(np.zeros(d_out, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        lead = x.shape[:-1]
        flat = T.reshape(x, (-1, self.d_in)) if x.ndim != 2 else x
        y = T.add(T.matmul(flat, self.w), self.b)
        if x.ndim != 2:
            y = T.reshape(y, lead + (self.d_out,))
        return y

    def parameters(self):
        return {"w": self.w, "b": self.b}


class LstmLayer:
    """Single LSTM layer; gate order i, f, g, o in the fused weight.

    ``forward`` records the whole recurrence as one tape node whose
    backward is backpropagation through time over the saved gate
    activations and cell states. Each frame takes the sigmoid
    (``tensor.sigmoid_np``, branch-free) twice, once over the contiguous
    i|f slice of the gate pre-activations and once over o, and tanh over g.
    """

    def __init__(self, d_in: int, hidden: int, rng: np.random.Generator, dtype=np.float32):
        self.d_in = d_in
        self.hidden = hidden
        self.w = Tensor(_uniform(rng, (d_in, 4 * hidden), d_in, dtype), requires_grad=True)
        self.u = Tensor(_uniform(rng, (hidden, 4 * hidden), hidden, dtype), requires_grad=True)
        b = np.zeros(4 * hidden, dtype=dtype)
        b[hidden:2 * hidden] = 1.0  # forget gate bias
        self.b = Tensor(b, requires_grad=True)

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

    def parameters(self):
        return {"w": self.w, "u": self.u, "b": self.b}


def _accumulate(total, term):
    """total += term, or term itself when there is no total yet."""
    if total is None:
        return term
    total += term
    return total


class LayerNorm:
    """Per-position normalization over the trailing dim, with affine."""

    def __init__(self, dim: int, dtype=np.float32, eps: float = 1e-5):
        self.dim = dim
        self.eps = eps
        self.gamma = Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        eps = self.eps
        mu = x.data.mean(axis=-1, keepdims=True)
        xc = x.data - mu
        var = (xc * xc).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
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

    def parameters(self):
        return {"gamma": self.gamma, "beta": self.beta}


class Embedding:
    def __init__(self, vocab: int, dim: int, rng: np.random.Generator, dtype=np.float32):
        self.table = Tensor(_uniform(rng, (vocab, dim), dim, dtype), requires_grad=True)

    def __call__(self, ids: np.ndarray) -> Tensor:
        return T.embedding(self.table, ids)

    def parameters(self):
        return {"table": self.table}


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

    def __init__(self, dim: int, heads: int, rng: np.random.Generator, dtype=np.float32):
        if dim % heads != 0:
            raise ShapeError(f"model dim {dim} not divisible by {heads} heads")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.wq = Dense(dim, dim, rng, dtype)
        self.wk = Dense(dim, dim, rng, dtype)
        self.wv = Dense(dim, dim, rng, dtype)
        self.wo = Dense(dim, dim, rng, dtype)

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

    def parameters(self):
        return prefixed(wq=self.wq, wk=self.wk, wv=self.wv, wo=self.wo)


class FeedForward:
    def __init__(self, dim: int, hidden: int, rng: np.random.Generator, dtype=np.float32):
        self.lin1 = Dense(dim, hidden, rng, dtype)
        self.lin2 = Dense(hidden, dim, rng, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(T.relu(self.lin1(x)))

    def parameters(self):
        return prefixed(lin1=self.lin1, lin2=self.lin2)


class EncoderBlock:
    """Pre-norm transformer encoder block: self-attention + feed-forward."""

    def __init__(self, dim: int, ff_dim: int, heads: int, rng: np.random.Generator, dtype=np.float32):
        self.attn = MultiHeadAttention(dim, heads, rng, dtype)
        self.ff = FeedForward(dim, ff_dim, rng, dtype)
        self.ln1 = LayerNorm(dim, dtype)
        self.ln2 = LayerNorm(dim, dtype)

    def __call__(self, x: Tensor, pad_mask: np.ndarray | None = None) -> Tensor:
        h = self.ln1(x)
        x = T.add(x, self.attn(h, h, h, pad_mask))
        return T.add(x, self.ff(self.ln2(x)))

    def parameters(self):
        return prefixed(attn=self.attn, ff=self.ff, ln1=self.ln1, ln2=self.ln2)


class DecoderBlock:
    """Pre-norm decoder block: causal self-attention, cross-attention, FF."""

    def __init__(self, dim: int, ff_dim: int, heads: int, rng: np.random.Generator, dtype=np.float32):
        self.self_attn = MultiHeadAttention(dim, heads, rng, dtype)
        self.cross_attn = MultiHeadAttention(dim, heads, rng, dtype)
        self.ff = FeedForward(dim, ff_dim, rng, dtype)
        self.ln1 = LayerNorm(dim, dtype)
        self.ln2 = LayerNorm(dim, dtype)
        self.ln3 = LayerNorm(dim, dtype)

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

    def parameters(self):
        return prefixed(self_attn=self.self_attn, cross_attn=self.cross_attn, ff=self.ff,
                        ln1=self.ln1, ln2=self.ln2, ln3=self.ln3)


def causal_mask(t: int) -> np.ndarray:
    """True above the diagonal: position i may attend to j <= i only."""
    return np.triu(np.ones((t, t), dtype=bool), k=1)


def key_padding_mask(lengths, t: int) -> np.ndarray:
    """[B, 1, t] True at padded key positions."""
    lengths = np.asarray(lengths)
    idx = np.arange(t)[None, :]
    return (idx >= lengths[:, None])[:, None, :]
