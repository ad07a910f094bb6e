"""Independent brute-force oracles and reference loops shared by test modules."""

import itertools

import numpy as np

from asrlab.decode import Hypothesis, dedup_by_text
from asrlab.tensor import Tensor, log_softmax_np


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
    """CTC forward-backward with the beta recursion written out as its own
    loop; `losses._ctc_forward_backward` must return the same loss and
    gradient bit for bit. lp is [T, V+1] log-probs of the real frames."""
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
