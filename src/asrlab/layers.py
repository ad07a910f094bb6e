"""Neural building blocks: dense, LSTM, attention, layer norm, embeddings.

A layer holds the tensors it is given: it is built from a model's flat
{name: Tensor} dict and a name prefix, reads its own tensors as
``params[f"{prefix}.w"]`` and so on, and takes its sizes from their
shapes. The names and shapes, and the rule that draws initial values,
live in ``models.tensor_shapes`` and ``models.init_tensors``.

A layer is an array forward plus one tape node: ``apply`` computes on raw
arrays, and calling the layer on Tensors runs that same code and records it
as one node with a hand-written backward rule, the generic ops' bit for bit
but for the LSTM's. The incremental decoder (``models.IncrementalDecoder``)
calls the layers' array code, so a model's forward pass is written once.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor, softmax_np

NEG_FILL = -1e9  # pre-softmax fill for masked attention positions
LN_EPS = 1e-5  # layer-norm variance floor


class Dense:
    """Affine projection y = x W + b on the trailing dim; without a
    "{prefix}.b" tensor in params it is the linear map y = x W."""

    def __init__(self, params: dict[str, Tensor], prefix: str):
        self.w, self.b = params[f"{prefix}.w"], params.get(f"{prefix}.b")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """x [..., d_in] -> [..., d_out], as one 2-d product over the
        flattened leading dims."""
        d_in, d_out = self.w.shape
        if x.shape[-1] != d_in:
            raise ShapeError(f"dense input dim {x.shape[-1]} does not match weight {self.w.shape}")
        y = x.reshape(-1, d_in) @ self.w.data
        if self.b is not None:
            y = y + self.b.data
        return y.reshape(x.shape[:-1] + (d_out,))

    def __call__(self, x: Tensor) -> Tensor:
        w, b = self.w, self.b
        out = Tensor(self.apply(x.data))
        x_shape, dx_wanted, db_wanted = x.shape, x.requires_grad, b is not None and b.requires_grad
        x_flat = x.data.reshape(-1, w.shape[0]) if w.requires_grad else None  # the input only for dW

        def backward(g):
            g = g.reshape(-1, g.shape[-1])
            grads = ((g @ w.data.T).reshape(x_shape) if dx_wanted else None,
                     None if x_flat is None else x_flat.T @ g)
            return grads if b is None else grads + (g.sum(axis=0) if db_wanted else None,)

        return T._finish(out, (x, w) if b is None else (x, w, b), backward)


class LstmLayer:
    """Single LSTM layer; gate order i, f, g, o in the fused weight.

    ``forward`` records the whole recurrence as one tape node whose backward
    is backpropagation through time. The input projection and the weight
    gradients are each one product over all frames, so the frame loops do
    only the recurrent work; each frame takes one tanh over the four gates,
    using sigmoid(z) = (1 + tanh(z/2)) / 2 with z/2 folded into W, b and U.
    """

    def __init__(self, params: dict[str, Tensor], prefix: str):
        self.w, self.u, self.b = (params[f"{prefix}.{n}"] for n in ("w", "u", "b"))
        self.hidden = self.u.shape[0]

    def forward(self, x: Tensor) -> Tensor:
        """Run the recurrence over x [T, B, d_in] from zero state; returns
        every frame's hidden state, [T, B, hidden]."""
        H = self.hidden
        w, u, b = self.w, self.u, self.b
        t_len, batch, d_in = x.shape
        scale = np.full(4 * H, 0.5, dtype=w.dtype)  # tanh(z/2) / 2 + 1/2 is sigmoid(z) for i, f, o
        scale[2 * H:3 * H] = 1.0  # and tanh(z) is g
        shift = 1.0 - scale
        gates = x.data.reshape(-1, d_in) @ w.data
        gates += b.data
        gates *= scale
        gates = gates.reshape(t_len, batch, 4 * H)
        u_half = u.data * scale
        hs, cs = np.zeros((2, t_len + 1, batch, H), dtype=gates.dtype)  # the state frame t starts from
        tcs = np.empty_like(hs[1:])  # tanh of each frame's cell state
        for t in range(t_len):
            z = gates[t]  # the input's share of the halved pre-activations, then i, f, g, o
            z += hs[t] @ u_half
            np.tanh(z, out=z)
            z *= scale
            z += shift
            np.multiply(z[:, H:2 * H], cs[t], out=cs[t + 1])
            cs[t + 1] += z[:, :H] * z[:, 2 * H:3 * H]
            np.multiply(z[:, 3 * H:], np.tanh(cs[t + 1], out=tcs[t]), out=hs[t + 1])
        out = Tensor(hs[1:])
        dx_wanted, dw_wanted, du_wanted, db_wanted = (p.requires_grad for p in (x, w, u, b))
        x_data = x.data if dw_wanted else None  # the input only for dW
        h_prev = hs[:-1] if du_wanted else None  # the states only for dU

        def backward(dout):
            i, f, g, o = (gates[..., k * H:(k + 1) * H] for k in range(4))
            # d gate / d pre-activation times what the gate multiplies: g i', c f', i g' and tanh(c) o'
            via = 1.0 - gates
            via *= gates
            dg = np.multiply(g, g, out=via[..., 2 * H:3 * H])
            np.subtract(1.0, dg, out=dg)
            via[..., :H] *= g
            via[..., H:2 * H] *= cs[:-1]
            dg *= i
            via[..., 3 * H:] *= tcs
            dc_dh = tcs * tcs
            np.subtract(1.0, dc_dh, out=dc_dh)
            dc_dh *= o
            dz = via.reshape(t_len, batch, 4, H)  # each frame's dz is written over its own factors
            dc = None
            for t in reversed(range(t_len)):
                dh = dout[t] if dc is None else dout[t] + dz[t + 1].reshape(batch, -1) @ u.data.T
                dc = dh * dc_dh[t] if dc is None else dh * dc_dh[t] + dc * f[t + 1]
                np.multiply(dz[t, :, :3], dc[:, None], out=dz[t, :, :3])
                np.multiply(dz[t, :, 3], dh, out=dz[t, :, 3])
            dz = dz.reshape(-1, 4 * H)
            return ((dz @ w.data.T).reshape(t_len, batch, d_in) if dx_wanted else None,
                    None if x_data is None else x_data.reshape(-1, d_in).T @ dz,
                    None if h_prev is None else h_prev.reshape(-1, H).T @ dz,
                    dz.sum(axis=0) if db_wanted else None)

        return T._finish(out, (x, w, u, b), backward)


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
        dx_wanted, dgamma_wanted, dbeta_wanted = x.requires_grad, gamma.requires_grad, beta.requires_grad
        inv = inv if dx_wanted else None  # each only for the gradients that read it
        xhat = xhat if dx_wanted or dgamma_wanted else None

        def backward(g):
            dx = dgamma = dbeta = None
            if dx_wanted:
                n = g.shape[-1]
                dx = g * gamma.data  # d xhat, then dx
                m1 = np.add.reduce(dx, axis=-1, keepdims=True) / n  # np.mean bit for bit, as in _forward
                prod = dx * xhat
                m2 = np.add.reduce(prod, axis=-1, keepdims=True) / n
                dx -= m1
                dx -= np.multiply(xhat, m2, out=prod)
                dx *= inv
            if dgamma_wanted:
                dgamma = (g * xhat).reshape(-1, g.shape[-1]).sum(axis=0)
            if dbeta_wanted:
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


def positional_encoding(length: int, dim: int) -> np.ndarray:
    """Sin/cos position table [length, dim] in float32, base 10000, dim even."""
    if length < 1 or dim < 1 or dim % 2 != 0:
        raise ShapeError(f"positional_encoding needs length>=1 and even dim, got ({length}, {dim})")
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(0, dim, 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, idx / dim)
    pe = np.zeros((length, dim), dtype=np.float64)
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe.astype(np.float32)


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
        NEG_FILL at a hidden key in the scores' dtype and broadcastable to
        them, is added to the scaled scores. Scaling, fill and softmax work
        in place on the one score array."""
        scores = qh @ kh.transpose(0, 2, 1)
        scores *= qh.dtype.type(self.scale)
        if fill is not None:
            scores += fill
        return softmax_np(scores, out=scores)

    def attend(self, q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Attention of projected queries q [B, Tq, dim] over projected keys
        and values [B, Tk, dim], heads merged: [B, Tq, dim]. mask, [Tq, Tk]
        or [B, Tq|1, Tk], is True where a key is hidden. One tape node."""
        (batch, tq, _), tk = q.shape, k.shape[1]
        fill = None
        if mask is not None:
            if mask.shape[-1] != tk or mask.shape[-2] not in (1, tq) or mask.ndim not in (2, 3):
                raise ShapeError(f"mask shape {mask.shape} incompatible with ({tq}, {tk})")
            # a [Tq, Tk] mask broadcasts over every head as it is; a [B, Tq|1, Tk] one is repeated per head
            hidden = mask if mask.ndim == 2 else np.repeat(mask, self.heads, axis=0)
            fill = np.where(hidden, q.dtype.type(NEG_FILL), q.dtype.type(0.0))
        qh, kh, vh = self.split(q.data), self.split(k.data), self.split(v.data)
        w = self.weights(qh, kh, fill)
        out = Tensor(self.merge(w @ vh))
        split, merge, scale = self.split, self.merge, q.dtype.type(self.scale)
        dq_wanted, dk_wanted, dv_wanted = q.requires_grad, k.requires_grad, v.requires_grad
        # each per-head operand only for the gradients that read it
        vh = vh if dq_wanted or dk_wanted else None
        kh = kh if dq_wanted else None
        qh = qh if dk_wanted else None

        def backward(g):
            g = split(g)
            dq = dk = dv = None
            if dv_wanted:
                dv = merge(w.transpose(0, 2, 1) @ g)
            if dq_wanted or dk_wanted:
                # the softmax, scale and bmm rules of the generic ops, in their order and operand
                # layout, so the gradients equal those of the op chain bit for bit
                ds = g @ vh.transpose(0, 2, 1)
                ds -= np.sum(ds * w, axis=-1, keepdims=True)
                ds *= w
                ds *= scale
                if dq_wanted:
                    dq = merge(ds @ kh)
                if dk_wanted:
                    dk = merge((qh.transpose(0, 2, 1) @ ds).transpose(0, 2, 1))
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
