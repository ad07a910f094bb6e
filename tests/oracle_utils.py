"""Independent brute-force oracles, reference loops and op chains, the
finite-difference gradient check, the checkpoint value digest and the
tracemalloc peak probe shared by test modules."""

import hashlib
import itertools
import tracemalloc

import numpy as np

from asrlab import models as M
from asrlab import signal as S
from asrlab import tensor as T
from asrlab import ttssim as TS
from asrlab.decode import Hypothesis, dedup_by_text
from asrlab.errors import ShapeError, UsageError
from asrlab.layers import NEG_FILL
from asrlab.tensor import Tensor, log_softmax_np, softmax_np


def checkpoint_digest(path) -> str:
    """sha256 of the values a checkpoint holds, whatever its file layout:
    each tensor's name, shape and little-endian float32 bytes in
    tensor_shapes order, then its step, rng state and config."""
    ckpt = M.load_checkpoint(path)
    h = hashlib.sha256()
    for name, shape in M.tensor_shapes(ckpt.config).items():
        h.update(name.encode() + repr(shape).encode() + ckpt.tensors[name].astype("<f4").tobytes())
    h.update(repr((ckpt.step, ckpt.rng_state, ckpt.config)).encode())
    return h.hexdigest()


def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc saw allocated while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def reference_init_tensors(shapes, rng) -> dict:
    """{name: float32 array} for each entry of shapes, in order, each weight
    drawn whole from rng as float64 and cast; `models.init_tensors(cfg, seed)`
    must equal this on tensor_shapes(cfg) and default_rng(seed) bit for bit."""
    out = {}
    for name, shape in shapes.items():
        if name.endswith((".w", ".u", "embed.table")):
            bound = 1.0 / np.sqrt(shape[1] if name.endswith("table") else shape[0])
            out[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        elif name.endswith(".gamma"):
            out[name] = np.ones(shape, np.float32)
        else:
            out[name] = np.zeros(shape, np.float32)
            if name.startswith("lstm.") and name.endswith(".b"):
                hidden = shape[0] // 4
                out[name][hidden:2 * hidden] = 1.0
    return out


def reference_synth(text, profile) -> np.ndarray:
    """`ttssim.synth` computed afresh per character: three sinusoids of the
    character's formants and the pitch, enveloped, then overlap-added, a
    space as a segment of zeros. synth must equal this bit for bit."""
    n_ph = int(round(TS.PHONEME_S * profile.rate_scale * S.SAMPLE_RATE))
    n_fade = int(TS.CROSSFADE_S * S.SAMPLE_RATE)
    t = np.arange(n_ph) / S.SAMPLE_RATE
    ramp_in = np.linspace(0.0, 1.0, n_fade, endpoint=False)
    envelope = np.ones(n_ph)
    envelope[:n_fade] = ramp_in
    envelope[-n_fade:] = ramp_in[::-1]

    def phoneme(ch):
        if ch == " ":
            return np.zeros(n_ph) * envelope
        idx = TS.CHARSET.index(ch)
        f1 = TS._harmonic(float(TS._F1_GRID[idx % 6]) * profile.formant_scale, profile.pitch_hz)
        f2 = TS._harmonic(float(TS._F2_GRID[idx // 6]) * profile.formant_scale, profile.pitch_hz)
        return (0.18 * np.sin(2 * np.pi * f1 * t)
                + 0.12 * np.sin(2 * np.pi * f2 * t)
                + 0.06 * np.sin(2 * np.pi * profile.pitch_hz * t)) * envelope

    hop = n_ph - n_fade
    out = np.zeros(hop * (len(text) - 1) + n_ph)
    for i, ch in enumerate(text):
        out[i * hop:i * hop + n_ph] += phoneme(ch)
    return np.clip(out, -1.0, 1.0).astype(np.float32)


def reference_frame(samples) -> np.ndarray:
    """`signal.frame` as an index gather: [frames, WIN_SAMPLES] sample
    indices, then the Hann window."""
    samples = np.asarray(samples, dtype=np.float64)
    count = 1 + (len(samples) - S.WIN_SAMPLES) // S.HOP_SAMPLES
    idx = np.arange(count)[:, None] * S.HOP_SAMPLES + np.arange(S.WIN_SAMPLES)[None, :]
    return samples[idx] * S.hann_window(S.WIN_SAMPLES)


# -- generic tape ops: the op chains below are spelled in them -------------------

def matmul(a, b):
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward(g):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return T._finish(out, (a, b), backward)


def bmm(a, b):
    """Batched matmul on [N,m,k] @ [N,k,n]."""
    if a.ndim != 3 or b.ndim != 3:
        raise ShapeError(f"bmm expects 3-d operands, got {a.shape} @ {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ShapeError(f"bmm shapes incompatible: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward(g):
        return (g @ b.data.transpose(0, 2, 1) if a.requires_grad else None,
                a.data.transpose(0, 2, 1) @ g if b.requires_grad else None)

    return T._finish(out, (a, b), backward)


def softmax(a):
    y = softmax_np(a.data)

    def backward(g):
        dot = np.sum(g * y, axis=-1, keepdims=True)
        return ((g - dot) * y,)

    return T._finish(Tensor(y), (a,), backward)


def tsum(a):
    out = Tensor(np.asarray(a.data.sum(), dtype=a.data.dtype))
    return T._finish(out, (a,), lambda g: (np.full_like(a.data, g),))


def reshape(a, shape):
    return T._finish(Tensor(a.data.reshape(shape)), (a,), lambda g: (g.reshape(a.shape),))


def transpose(a, axes):
    inv = tuple(np.argsort(axes))
    return T._finish(Tensor(a.data.transpose(axes)), (a,), lambda g: (g.transpose(inv),))


def reference_dense(dense, x):
    """`layers.Dense` spelled as the ops reshape, matmul, add (when the layer
    has a bias) and reshape; the fused node must return the same output and
    gradients bit for bit."""
    d_in, d_out = dense.w.shape
    y = matmul(x if x.ndim == 2 else reshape(x, (-1, d_in)), dense.w)
    if dense.b is not None:
        y = T.add(y, dense.b)
    return y if x.ndim == 2 else reshape(y, x.shape[:-1] + (d_out,))


def _split_heads(attn, x):
    batch, t, _ = x.shape
    x = transpose(reshape(x, (batch, t, attn.heads, attn.head_dim)), (0, 2, 1, 3))
    return reshape(x, (batch * attn.heads, t, attn.head_dim))


def reference_attention(attn, q, k, v, mask=None):
    """`MultiHeadAttention.__call__` spelled as a chain of generic tape ops,
    with the projections as `reference_dense`; the fused layer must return
    the same output and gradients bit for bit."""
    (batch, tq, _), tk = q.shape, k.shape[1]
    qh = _split_heads(attn, reference_dense(attn.wq, q))
    kh = _split_heads(attn, reference_dense(attn.wk, k))
    vh = _split_heads(attn, reference_dense(attn.wv, v))
    scores = T.mul(bmm(qh, transpose(kh, (0, 2, 1))), 1.0 / np.sqrt(attn.head_dim))
    if mask is not None:
        expand = mask if mask.ndim == 2 else mask[:, None]
        full = np.broadcast_to(expand, (batch, attn.heads, tq, tk)).reshape(batch * attn.heads, tq, tk)
        scores = T.add(scores, Tensor(np.where(full, NEG_FILL, 0.0).astype(scores.dtype)))
    ctx = bmm(softmax(scores), vh)
    ctx = transpose(reshape(ctx, (batch, attn.heads, tq, attn.head_dim)), (0, 2, 1, 3))
    return reference_dense(attn.wo, reshape(ctx, (batch, tq, attn.dim)))


def collapse(path, blank):
    return tuple(k for k, _ in itertools.groupby(path) if k != blank)


def brute_force_ctc_logp(lp, label, blank):
    """Exhaustive sum over all alignments collapsing to the label."""
    t_len = lp.shape[0]
    width = lp.shape[1]
    label = tuple(label)
    total = -np.inf
    for path in itertools.product(range(width), repeat=t_len):
        if collapse(path, blank) == label:
            total = np.logaddexp(total, sum(lp[t, path[t]] for t in range(t_len)))
    return total


def exhaustive_ctc_marginals(lp, blank):
    """Map label sequence -> exact CTC marginal log-probability."""
    t_len, width = lp.shape
    out = {}
    for path in itertools.product(range(width), repeat=t_len):
        label = collapse(path, blank)
        logp = sum(lp[t, path[t]] for t in range(t_len))
        out[label] = np.logaddexp(out.get(label, -np.inf), logp)
    return out


def reference_ctc_forward_backward(lp, label, blank):
    """CTC forward-backward of one utterance with the beta recursion written
    out as its own loop. lp is [T, V+1] log-probs of the real frames; returns
    (log p, d(-log p)/dlp), or (log p, None) when p underflows."""
    t_len = lp.shape[0]
    ext = np.empty(2 * len(label) + 1, dtype=np.int64)
    ext[0::2] = blank
    ext[1::2] = label
    s_len = len(ext)

    # skip transition s-2 -> s allowed between distinct non-blank symbols
    allow_skip = np.zeros(s_len, dtype=bool)
    if s_len > 2:
        allow_skip[2:] = (ext[2:] != blank) & (ext[2:] != ext[:-2])

    emit = lp[:, ext]  # [T, S]

    alpha = np.full((t_len, s_len), -np.inf)
    alpha[0, 0] = emit[0, 0]
    if s_len > 1:
        alpha[0, 1] = emit[0, 1]
    for t in range(1, t_len):
        prev = alpha[t - 1]
        cand = prev.copy()
        cand[1:] = np.logaddexp(cand[1:], prev[:-1])
        if s_len > 2:
            skip = np.logaddexp(cand[2:], prev[:-2])
            cand[2:] = np.where(allow_skip[2:], skip, cand[2:])
        alpha[t] = cand + emit[t]

    if s_len > 1:
        log_p = np.logaddexp(alpha[-1, -1], alpha[-1, -2])
    else:
        log_p = alpha[-1, -1]
    if not np.isfinite(log_p):
        return log_p, None

    beta = np.full((t_len, s_len), -np.inf)
    beta[-1, -1] = emit[-1, -1]
    if s_len > 1:
        beta[-1, -2] = emit[-1, -2]
    for t in range(t_len - 2, -1, -1):
        nxt = beta[t + 1]
        cand = nxt.copy()
        cand[:-1] = np.logaddexp(cand[:-1], nxt[1:])
        if s_len > 2:
            skip = np.logaddexp(cand[:-2], nxt[2:])
            cand[:-2] = np.where(allow_skip[2:], skip, cand[:-2])
        beta[t] = cand + emit[t]

    # posterior of passing through position s at frame t
    occ = alpha + beta - emit - log_p
    grad = np.zeros_like(lp)
    contrib = np.exp(occ)
    for t in range(t_len):
        np.add.at(grad[t], ext, contrib[t])
    return log_p, -grad


def reference_lattice_alpha(emit, allow_skip):
    """`losses._lattice_alpha` in log space: each frame's self, +1 and skip
    transitions as log-sum-exps. Training with it in place of the rescaled
    recursion writes the checkpoints the log-sum-exp form wrote."""
    alpha = np.full(emit.shape, -np.inf)
    alpha[0, :, :2] = emit[0, :, :2]
    skip = allow_skip[:, 3::2]
    for t in range(1, len(emit)):
        prev = alpha[t - 1]
        cand = prev.copy()
        cand[:, 1:] = np.logaddexp(cand[:, 1:], prev[:, :-1])
        cand[:, 3::2] = np.where(skip, np.logaddexp(cand[:, 3::2], prev[:, 1:-2:2]), cand[:, 3::2])
        alpha[t] = cand + emit[t]
    return alpha


def _frame(x, t):
    """x[t] of a [T, ...] tensor."""
    def backward(g):
        full = np.zeros_like(x.data)
        full[t] = g
        return (full,)
    return T._finish(Tensor(x.data[t]), (x,), backward)


def _slice_last(a, start, stop):
    def backward(g):
        full = np.zeros_like(a.data)
        full[..., start:stop] = g
        return (full,)
    return T._finish(Tensor(a.data[..., start:stop]), (a,), backward)


def reference_sigmoid(x):
    """Logistic function by masked gather and scatter, exp only ever of a
    non-positive argument."""
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


def _sigmoid(a):
    y = reference_sigmoid(a.data)
    return T._finish(Tensor(y), (a,), lambda g: (g * y * (1.0 - y),))


def _tanh(a):
    y = np.tanh(a.data)
    return T._finish(Tensor(y), (a,), lambda g: (g * (1.0 - y * y),))


def _stack0(tensors):
    return T._finish(Tensor(np.stack([t.data for t in tensors])), tuple(tensors), list)


def reference_lstm_forward(layer, x):
    """The LSTM recurrence of `layer` over x [T, B, d_in] spelled out as 17
    generic tape ops per frame; `LstmLayer.forward` must return the same
    output and gradients within a float32 or float64 tolerance."""
    H = layer.hidden
    h = Tensor(np.zeros((x.shape[1], H), dtype=x.dtype))
    c = Tensor(np.zeros((x.shape[1], H), dtype=x.dtype))
    out = []
    for t in range(x.shape[0]):
        gates = T.add(T.add(matmul(_frame(x, t), layer.w), matmul(h, layer.u)), layer.b)
        i = _sigmoid(_slice_last(gates, 0, H))
        f = _sigmoid(_slice_last(gates, H, 2 * H))
        g = _tanh(_slice_last(gates, 2 * H, 3 * H))
        o = _sigmoid(_slice_last(gates, 3 * H, 4 * H))
        c = T.add(T.mul(f, c), T.mul(i, g))
        h = T.mul(o, _tanh(c))
        out.append(h)
    return _stack0(out)


def reference_prefix_beam(log_probs, tok, beam=10):
    """CTC prefix beam search as a dict per frame with one scalar logaddexp
    per candidate; `decode.ctc_prefix_beam` must return the same n-best."""
    t_len, width = log_probs.shape
    blank = width - 1

    # prefix -> [log p ending in blank, log p ending in non-blank]
    beams = {(): [0.0, -np.inf]}
    for t in range(t_len):
        lp = log_probs[t]
        new = {}

        def slot(prefix):
            s = new.get(prefix)
            if s is None:
                s = [-np.inf, -np.inf]
                new[prefix] = s
            return s

        for prefix, (pb, pnb) in beams.items():
            p_tot = np.logaddexp(pb, pnb)
            # stay on blank
            s = slot(prefix)
            s[0] = np.logaddexp(s[0], p_tot + lp[blank])
            # repeat last symbol without a separating blank
            if prefix:
                last = prefix[-1]
                s[1] = np.logaddexp(s[1], pnb + lp[last])
            for c in range(blank):
                ext = slot(prefix + (c,))
                if prefix and c == prefix[-1]:
                    ext[1] = np.logaddexp(ext[1], pb + lp[c])
                else:
                    ext[1] = np.logaddexp(ext[1], p_tot + lp[c])
        ranked = sorted(new.items(), key=lambda kv: (-np.logaddexp(kv[1][0], kv[1][1]), kv[0]))
        beams = dict(ranked[:beam])

    hyps = [Hypothesis(prefix, tok.decode(list(prefix)), float(np.logaddexp(pb, pnb)))
            for prefix, (pb, pnb) in beams.items()]
    hyps.sort(key=lambda h: (-h.am_score, h.tokens))
    return dedup_by_text(hyps, beam)


def reference_las_beam(model, feats, tok, beam=10, max_len=60):
    """LAS beam search that re-runs `decode_logits` over every whole prefix
    at every step, against beam-tiled memory; `decode.las_beam` must return
    the same n-best."""
    memory, mem_mask = model.encode(feats[:, None, :])
    expansion_cap = 3 * beam

    active = [((model.bos_id,), 0.0)]
    finished = []
    for _step in range(max_len):
        prefixes = np.array([p for p, _ in active], dtype=np.int64)
        n_active = len(active)
        mem_b = Tensor(np.repeat(memory.data, n_active, axis=0))
        mask_b = np.repeat(mem_mask, n_active, axis=0)
        logits = model.decode_logits(mem_b, mask_b, prefixes)
        logp = log_softmax_np(logits.data[:, -1, :])
        logp[:, model.bos_id] = -np.inf  # BOS is never generated

        cand_scores = np.array([s for _, s in active])[:, None] + logp
        flat = cand_scores.reshape(-1)
        k = min(expansion_cap, flat.size)
        top = np.argpartition(flat, -k)[-k:]
        top = top[np.argsort(-flat[top], kind="stable")]

        next_active = []
        gen_len = len(active[0][0])  # BOS excluded, new token included
        for idx in top:
            if not np.isfinite(flat[idx]):
                continue
            hyp_i, token = divmod(int(idx), logp.shape[1])
            seq = active[hyp_i][0] + (token,)
            score = float(flat[idx])
            if token == model.eos_id:
                finished.append((seq, score / gen_len))
            else:
                next_active.append((seq, score))
            if len(next_active) >= beam:
                break
        if not next_active:
            break
        active = next_active

    for seq, score in active:
        if len(seq) - 1 >= max_len:
            finished.append((seq, score / (len(seq) - 1)))
    if not finished:
        finished = [(seq, score / max(1, len(seq) - 1)) for seq, score in active]

    finished.sort(key=lambda kv: (-kv[1], kv[0]))
    hyps = []
    for seq, score in finished[: 4 * beam]:
        toks = [t for t in seq[1:] if t != model.eos_id]
        hyps.append(Hypothesis(tuple(toks), tok.decode(toks), float(score)))
    return dedup_by_text(hyps, beam)


def brute_force_edit_distance(ref_words, hyp_words):
    """Exhaustive recursion, no memoization; for lengths <= 5."""
    if not ref_words:
        return len(hyp_words)
    if not hyp_words:
        return len(ref_words)
    sub = brute_force_edit_distance(ref_words[1:], hyp_words[1:]) + (ref_words[0] != hyp_words[0])
    dele = brute_force_edit_distance(ref_words[1:], hyp_words) + 1
    ins = brute_force_edit_distance(ref_words, hyp_words[1:]) + 1
    return min(sub, dele, ins)


def gradient_check(loss_fn, params, h: float = 1e-5):
    """Max relative error between tape gradients and central differences.

    loss_fn must rebuild the loss from scratch on each call; params are
    float64 leaf tensors it reads. Returns the worst relative error over
    every element of every parameter.
    """
    for p in params:
        if p.data.dtype != np.float64:
            raise UsageError("gradient_check requires float64 parameters")
    with T.Tape() as tape:
        analytic = tape.backward(loss_fn(), params)

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
