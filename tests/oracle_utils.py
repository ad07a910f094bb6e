"""Independent brute-force oracles and reference loops shared by test modules."""

import itertools

import numpy as np

from asrlab.decode import Hypothesis, dedup_by_text


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
