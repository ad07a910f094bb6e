"""Decoders: CTC greedy/prefix beam search and LAS beam search.

N-best lists carry (token ids, text, acoustic score); the language-model
score and combined total are filled in by rescoring. The JSONL wire
format {id, hyps: [{text, am, lm?, total?}]} is the contract between
decoding, rescoring and evaluation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, UsageError
from .models import LasModel
from .tensor import Tensor, log_softmax_np
from .tokenizer import SubwordModel

LOG_ZERO = -np.inf


@dataclass
class Hypothesis:
    tokens: tuple
    text: str
    am_score: float
    lm_score: float | None = None
    total: float | None = None

    def ranking_score(self) -> float:
        return self.am_score if self.total is None else self.total


@dataclass
class NBestList:
    utt_id: str
    hyps: list[Hypothesis] = field(default_factory=list)

    def top1(self) -> Hypothesis:
        if not self.hyps:
            raise DataError(f"empty n-best list for {self.utt_id}")
        return self.hyps[0]

    def texts(self) -> list[str]:
        return [h.text for h in self.hyps]


def dedup_by_text(hyps: list[Hypothesis], limit: int) -> list[Hypothesis]:
    """Keep the best-scoring hypothesis per distinct text, order preserved."""
    seen: dict[str, Hypothesis] = {}
    for h in hyps:
        if h.text not in seen:
            seen[h.text] = h
    return list(seen.values())[:limit]


# -- CTC ------------------------------------------------------------------------

def ctc_greedy(log_probs: np.ndarray, tok: SubwordModel) -> Hypothesis:
    """Per-frame argmax, collapse repeats, drop blanks."""
    blank = log_probs.shape[-1] - 1
    best = np.argmax(log_probs, axis=-1)
    score = float(np.take_along_axis(log_probs, best[:, None], axis=-1).sum())
    tokens = []
    prev = -1
    for k in best:
        if k != prev and k != blank:
            tokens.append(int(k))
        prev = k
    return Hypothesis(tuple(tokens), tok.decode(tokens), score)


def ctc_prefix_beam(log_probs: np.ndarray, tok: SubwordModel, beam: int = 10,
                    prune_vocab: int | None = None) -> list[Hypothesis]:
    """Prefix beam search tracking (blank, non-blank) mass per prefix.

    Returns up to `beam` prefixes ranked by total log probability.
    prune_vocab limits per-frame extension candidates to the most likely
    symbols (None = exact expansion over the whole vocabulary).
    """
    if beam < 1:
        raise UsageError("beam must be >= 1")
    t_len, width = log_probs.shape
    blank = width - 1

    # prefix -> [log p ending in blank, log p ending in non-blank]
    beams: dict[tuple, list[float]] = {(): [0.0, LOG_ZERO]}
    for t in range(t_len):
        lp = log_probs[t]
        if prune_vocab is not None and prune_vocab < width - 1:
            cand = np.argpartition(lp[:blank], -prune_vocab)[-prune_vocab:]
            candidates = [int(c) for c in cand]
        else:
            candidates = range(blank)
        new: dict[tuple, list[float]] = {}

        def slot(prefix):
            s = new.get(prefix)
            if s is None:
                s = [LOG_ZERO, LOG_ZERO]
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
            for c in candidates:
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


# -- LAS -------------------------------------------------------------------------

def las_beam(model: LasModel, feats: np.ndarray, tok: SubwordModel, beam: int = 10,
             max_len: int = 60) -> list[Hypothesis]:
    """Length-normalized beam search; finished hypotheses are frozen.

    feats is a single utterance [T, D]. Each step expands at most
    3*beam candidates; scores are sums of log-softmax outputs divided by
    the generated length (EOS included, BOS excluded).
    """
    if beam < 1 or max_len < 1:
        raise UsageError("beam and max_len must be >= 1")
    memory, mem_mask = model.encode(feats[:, None, :])
    expansion_cap = 3 * beam

    active: list[tuple[tuple, float]] = [((model.bos_id,), 0.0)]
    finished: list[tuple[tuple, float]] = []
    for _step in range(max_len):
        prefixes = np.array([p for p, _ in active], dtype=np.int64)
        n_active = len(active)
        mem_b = _tile_memory(memory, n_active)
        mask_b = np.repeat(mem_mask, n_active, axis=0)
        logits = model.decode_logits(mem_b, mask_b, prefixes)
        logp = log_softmax_np(logits.data[:, -1, :])
        logp[:, model.bos_id] = LOG_ZERO  # BOS is never generated

        cand_scores = np.array([s for _, s in active])[:, None] + logp  # [n_active, V']
        flat = cand_scores.reshape(-1)
        k = min(expansion_cap, flat.size)
        top = np.argpartition(flat, -k)[-k:]
        top = top[np.argsort(-flat[top], kind="stable")]

        next_active: list[tuple[tuple, float]] = []
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

    # unfinished survivors at max_len are reported as-is (no EOS)
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


def _tile_memory(memory, n: int):
    if n == 1:
        return memory
    return Tensor(np.repeat(memory.data, n, axis=0))


# -- N-best serialization -------------------------------------------------------------

def write_nbest(path, nbests: list[NBestList]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for nb in nbests:
            row = {"id": nb.utt_id, "hyps": []}
            for h in nb.hyps:
                entry = {"text": h.text, "am": h.am_score}
                if h.lm_score is not None:
                    entry["lm"] = h.lm_score
                if h.total is not None:
                    entry["total"] = h.total
                row["hyps"].append(entry)
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_nbest(path) -> list[NBestList]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"n-best file not found: {path}")
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                hyps = [Hypothesis(tuple(), h["text"], float(h["am"]),
                                   h.get("lm"), h.get("total"))
                        for h in row["hyps"]]
                out.append(NBestList(row["id"], hyps))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise DataError(f"{path}:{lineno}: bad n-best row: {exc}") from exc
    return out
