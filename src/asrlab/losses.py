"""Sequence losses: CTC (forward-backward) and label-smoothed cross-entropy.

Both install analytic gradients as custom tape nodes, so the tape never
differentiates through the dynamic programs. The CTC recursion keeps log
alpha and adds each frame's transitions as probabilities rescaled by the
largest one of the frame before, not as log-sum-exps.

``ctc_loss`` runs one lattice recursion per batch (Graves et al., ICML
2006). The blank-extended labels of the admissible utterances are padded
on the right to a common length with -inf emissions, so a padded position
never feeds a real one, and no frame past an utterance's length is read
back. Beta is the same forward recursion on each utterance's time- and
label-reversed lattice (time reversed over its own frames), read back to
front; the forward and reversed lattices are stacked as [T, 2n, S] and
share one frame loop.
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


def _lattice_alpha(emit: np.ndarray, allow_skip: np.ndarray) -> np.ndarray:
    """Forward recursion over a batch of CTC lattices: log alpha [T, m, S] from
    emissions emit [T, m, S] and allow_skip [m, S], True where a position may
    also be entered from two positions back (only ever a label position, odd s).
    S is even and each lattice ends in padding, so the transitions run on the
    lattices laid end to end: one into the next lattice carries probability 0.
    A position no path reaches, or one over 745 below its lattice's largest
    log alpha, is -inf."""
    alpha = np.full(emit.shape, NEG_INF)
    alpha[0, :, :2] = emit[0, :, :2]
    m, width = allow_skip.shape
    skip = allow_skip.ravel()[3::2].astype(np.float64)
    prev = np.zeros(m * width + 2)  # two zeros, then the rescaled alpha of the previous frame
    rows = prev[2:].reshape(m, width)
    with np.errstate(divide="ignore"):  # log(0) = -inf; the loop's only op that can divide by zero
        for t in range(1, len(emit)):
            top = alpha[t - 1].max(axis=1, keepdims=True)
            np.exp(np.subtract(alpha[t - 1], top, out=rows), out=rows)
            cand = prev[2:] + prev[1:-1]
            cand[3::2] += skip * prev[3:-2:2]
            np.log(cand.reshape(m, width), out=alpha[t])
            alpha[t] += top
            alpha[t] += emit[t]
    return alpha


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
        raise DataError(f"batch size mismatch: {b} log-prob columns, {len(labels)} labels, "
                        f"{len(input_lengths)} input lengths")
    if not np.all(np.isfinite(lp)):
        raise NumericError("non-finite log-probs fed to ctc_loss")
    blank = width - 1

    cols, kept, t_lens = [], [], []
    for i in range(b):
        try:
            label = np.asarray(labels[i])
        except ValueError:  # a ragged nested sequence
            label = None
        if label is None or label.ndim != 1 or (label.size and label.dtype.kind not in "iu"):
            raise DataError(f"label of utterance {i} is not a 1-d integer sequence")
        if label.size and (label.min() < 0 or label.max() >= blank):
            raise DataError(f"label ids out of range [0,{blank}) in utterance {i}")
        t_len = int(input_lengths[i])
        if t_len < 1 or t_len > t_max:
            raise DataError(f"bad input length {t_len} for utterance {i}")
        if _ctc_required_frames(label) > t_len:
            warnings.warn(f"utterance {i}: label needs more frames than available "
                          f"({len(label)} labels, {t_len} frames); skipped", SkippedUtteranceWarning)
            continue
        cols.append(i)
        kept.append(label)
        t_lens.append(t_len)
    if not kept:
        raise DataError("all utterances in the batch were inadmissible for CTC")

    n = len(kept)
    cols, t_lens = np.array(cols), np.array(t_lens)  # batch column and frame count of each lattice
    s_lens = np.array([2 * len(label) + 1 for label in kept])
    token_mean = [1.0 / (len(label) + 1) for label in kept]
    # blank-extended labels, forward in rows :n and label-reversed in rows n:, blank-padded to an even length
    ext = np.full((2 * n, int(s_lens.max()) + 1), blank, dtype=np.int64)
    for k, label in enumerate(kept):
        ext[k, 1:2 * len(label):2] = label
        ext[n + k, 1:2 * len(label):2] = label[::-1]
    # skip transition s-2 -> s allowed between distinct non-blank symbols
    allow_skip = np.zeros(ext.shape, dtype=bool)
    allow_skip[:, 2:] = (ext[:, 2:] != blank) & (ext[:, 2:] != ext[:, :-2])
    # frame t of a reversed lattice is frame t_len-1-t; frames past t_len are never read
    frames, positions = np.arange(t_max)[:, None], np.arange(ext.shape[1])
    rev_frames = np.maximum(t_lens - 1 - frames, 0)
    time_idx = np.concatenate([np.broadcast_to(frames, (t_max, n)), rev_frames], axis=1)
    emit = np.take(lp.ravel(), ((time_idx * b + np.tile(cols, 2)) * width)[:, :, None] + ext)
    emit[:, positions >= np.tile(s_lens, 2)[:, None]] = NEG_INF
    alpha = _lattice_alpha(emit, allow_skip)

    rows = np.arange(n)
    final = alpha[t_lens - 1, rows]  # [n, S] at each utterance's last frame
    last = final[rows, s_lens - 1]
    log_p = np.where(s_lens > 1, np.logaddexp(last, final[rows, np.maximum(s_lens - 2, 0)]), last)
    if not np.all(np.isfinite(log_p)):
        raise NumericError(f"CTC underflow for utterance {cols[~np.isfinite(log_p)][0]}")

    # posterior of passing through position s at frame t, formed in the array that first holds
    # beta, the reversed lattice read back to front; padding stays -inf, as computing it would
    # give -inf - -inf
    occ = np.full((t_max, n, len(positions)), NEG_INF)
    for k, (t_len, s_len) in enumerate(zip(t_lens, s_lens)):
        occ[:t_len, k, :s_len] = alpha[t_len - 1::-1, n + k, s_len - 1::-1]
    real = (frames[:, :, None] < t_lens[:, None]) & (positions < s_lens[:, None])
    np.add(alpha[:, :n], occ, out=occ, where=real)
    np.subtract(occ, emit[:, :n], out=occ, where=real)
    np.subtract(occ, log_p[:, None], out=occ, where=real)
    del alpha, emit, real
    np.exp(occ, out=occ)
    grad = np.zeros_like(lp)
    for s in positions:  # each cell adds its terms in position order, whatever the batch
        grad[:, cols, ext[:n, s]] += occ[:, :, s]

    scale = np.zeros(b, dtype=lp.dtype)
    scale[cols] = token_mean
    grad *= -scale[:, None]  # the same bits as negating first
    lengths = np.zeros(b, dtype=np.int64)
    lengths[cols] = t_lens
    grad[frames >= lengths] = 0.0  # +0.0 past each length and for skipped utterances
    grad /= n
    total = 0.0
    for k in range(n):
        total += -log_p[k] * token_mean[k]
    out = Tensor(np.asarray(total / n, dtype=lp.dtype))

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

    logp = T.log_softmax_np(x)
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    per_tok = -(1.0 - smoothing) * picked - (smoothing / vocab) * logp.sum(axis=-1)
    loss_val = np.asarray((per_tok * mask).sum() / n_tok, dtype=x.dtype)
    out = Tensor(loss_val)

    def backward(g_out):
        d = np.exp(logp)  # the probabilities, then d logits
        q = np.full_like(d, smoothing / vocab)
        np.put_along_axis(q, targets[..., None], (1.0 - smoothing) + smoothing / vocab, axis=-1)
        d -= q
        d *= mask[..., None]
        d /= n_tok
        d *= g_out
        return (d,)

    return T._finish(out, (logits,), backward)
