"""Sequence losses: CTC (forward-backward) and label-smoothed cross-entropy.

Both install analytic gradients as custom tape nodes, so the tape never
differentiates through the dynamic programs. All CTC recursions run in
log space with log-sum-exp; there is no probability-space fallback.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import tensor as T
from .errors import DataError, NumericError, SkippedUtteranceWarning
from .tensor import Tensor

NEG_INF = -np.inf


def _ctc_required_frames(label: np.ndarray) -> int:
    """Minimum input length admitting the label: |l| plus adjacent repeats."""
    if len(label) == 0:
        return 0
    return len(label) + int(np.sum(label[1:] == label[:-1]))


def _ctc_alpha(lp: np.ndarray, label: np.ndarray, blank: int):
    """Forward recursion over one utterance's CTC lattice, lp [T, V+1]: returns
    the blank-extended label ext [S], emissions emit [T, S] and log alpha [T, S]."""
    ext = np.full(2 * len(label) + 1, blank, dtype=np.int64)
    ext[1::2] = label
    # skip transition s-2 -> s allowed between distinct non-blank symbols
    allow_skip = np.zeros(len(ext), dtype=bool)
    allow_skip[2:] = (ext[2:] != blank) & (ext[2:] != ext[:-2])
    emit = lp[:, ext]
    alpha = np.full(emit.shape, NEG_INF)
    alpha[0, :2] = emit[0, :2]
    for t in range(1, len(lp)):
        prev = alpha[t - 1]
        cand = prev.copy()
        cand[1:] = np.logaddexp(cand[1:], prev[:-1])
        cand[2:] = np.where(allow_skip[2:], np.logaddexp(cand[2:], prev[:-2]), cand[2:])
        alpha[t] = cand + emit[t]
    return ext, emit, alpha


def _ctc_forward_backward(lp: np.ndarray, label: np.ndarray, blank: int):
    """Return (log p(label|input), dloss/dlogp) for one utterance.

    lp is [T, V+1] log-probs for the real (unpadded) frames.
    """
    ext, emit, alpha = _ctc_alpha(lp, label, blank)
    log_p = np.logaddexp(alpha[-1, -1], alpha[-1, -2]) if len(ext) > 1 else alpha[-1, -1]
    if not np.isfinite(log_p):
        return log_p, None

    # beta is the forward recursion on the time- and label-reversed lattice, read back to front
    beta = _ctc_alpha(lp[::-1], label[::-1], blank)[2][::-1, ::-1]

    # posterior of passing through position s at frame t
    occ = alpha + beta - emit - log_p
    grad = np.zeros_like(lp)
    np.add.at(grad, (np.arange(lp.shape[0])[:, None], ext), np.exp(occ))
    return log_p, -grad


def ctc_loss(log_probs: Tensor, labels, input_lengths=None) -> Tensor:
    """Token-mean negative log-likelihood over the batch, with analytic gradient.

    log_probs is [T,B,V+1] with the blank at the last index V; labels holds
    one id sequence (ids < V) per utterance and input_lengths its frame count
    (default T). Each utterance's -log p is divided by its label count plus
    one (so empty labels stay finite), then the batch is averaged.
    Utterances whose label cannot fit in their input length are skipped with
    a warning and excluded from the mean.
    """
    lp = log_probs.data
    t_max, b, width = lp.shape
    if input_lengths is None:
        input_lengths = np.full(b, t_max, dtype=np.int64)
    input_lengths = np.asarray(input_lengths, dtype=np.int64)
    if len(labels) != b or len(input_lengths) != b:
        raise DataError(f"batch size mismatch: {b} log-prob columns, {len(labels)} labels")
    if not np.all(np.isfinite(lp)):
        raise NumericError("non-finite log-probs fed to ctc_loss")
    blank = width - 1

    total = 0.0
    grad = np.zeros_like(lp)
    used = 0
    for i in range(b):
        label = np.asarray(labels[i], dtype=np.int64)
        if label.size and (label.min() < 0 or label.max() >= blank):
            raise DataError(f"label ids out of range [0,{blank}) in utterance {i}")
        t_len = int(input_lengths[i])
        if t_len < 1 or t_len > t_max:
            raise DataError(f"bad input length {t_len} for utterance {i}")
        if _ctc_required_frames(label) > t_len:
            warnings.warn(f"utterance {i}: label needs more frames than available "
                          f"({len(label)} labels, {t_len} frames); skipped", SkippedUtteranceWarning)
            continue
        log_p, g = _ctc_forward_backward(lp[:t_len, i], label, blank)
        if g is None:
            raise NumericError(f"CTC underflow for utterance {i}")
        scale = 1.0 / (len(label) + 1)
        total += -log_p * scale
        grad[:t_len, i] = g * scale
        used += 1

    if used == 0:
        raise DataError("all utterances in the batch were inadmissible for CTC")
    grad /= used
    out = Tensor(np.asarray(total / used, dtype=lp.dtype))

    def backward(g_out):
        return (g_out * grad,)

    return T._finish(out, (log_probs,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray, mask: np.ndarray | None = None,
                  smoothing: float = 0.0) -> Tensor:
    """Mean token NLL against (1-eps) one-hot + eps uniform.

    logits: [..., V]; targets: same leading shape, int ids; mask: True at
    real (non-padding) positions.
    """
    x = logits.data
    vocab = x.shape[-1]
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != x.shape[:-1]:
        raise DataError(f"target shape {targets.shape} does not match logits {x.shape}")
    if np.any(targets < 0) or np.any(targets >= vocab):
        raise DataError("target ids out of range")
    if mask is None:
        mask = np.ones(targets.shape, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    n_tok = int(mask.sum())
    if n_tok == 0:
        raise DataError("cross_entropy over an all-padding batch")

    logp = T.log_softmax_np(x, axis=-1)
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    per_tok = -(1.0 - smoothing) * picked - (smoothing / vocab) * logp.sum(axis=-1)
    loss_val = np.asarray((per_tok * mask).sum() / n_tok, dtype=x.dtype)
    out = Tensor(loss_val)

    def backward(g_out):
        probs = np.exp(logp)
        q = np.full_like(probs, smoothing / vocab)
        np.put_along_axis(q, targets[..., None], (1.0 - smoothing) + smoothing / vocab, axis=-1)
        dlogits = (probs - q) * mask[..., None] / n_tok
        return (g_out * dlogits,)

    return T._finish(out, (logits,), backward)
