"""Decoders: CTC greedy/prefix beam search and LAS beam search.

The CTC prefix beam scores each frame as one [n_beam, V] candidate
matrix in numpy; Python only touches the few candidates that can make
the next beam. The LAS beam encodes the utterance once and then feeds
only the newest token of each live hypothesis through the model's
incremental decoder, which caches the attention keys and values of
the memory and of the earlier positions and calls the array code of
the model's own layers: nothing in a decode touches the tape, and
decoding runs the same per-layer arithmetic as training.

N-best lists carry (token ids, text, acoustic score); the language-model
score and combined total are filled in by rescoring. The JSONL wire
format {id, hyps: [{text, am, lm?, total?}]} is the contract between
decoding, rescoring and evaluation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .errors import DataError, NumericError, ShapeError, UsageError
from .models import LasModel
from .tensor import log_softmax_np, no_tape
from .tokenizer import SubwordModel

LOG_ZERO = -np.inf


@dataclass
class Hypothesis:
    tokens: tuple
    text: str
    am_score: float
    lm_score: float | None = None
    total: float | None = None


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


def ctc_prefix_beam(log_probs: np.ndarray, tok: SubwordModel, beam: int = 10) -> list[Hypothesis]:
    """Prefix beam search tracking (blank, non-blank) mass per prefix.

    log_probs is one utterance [T, V], blank last. The live beam is a
    list of prefix tuples with float64 arrays pb / pnb: the log mass of
    each prefix on paths ending in blank / in its last symbol. Each frame
    fills an [n_beam, V] candidate matrix: cell (i, c) is prefix i
    extended by symbol c, and the blank column is prefix i itself. An
    extension by the prefix's own last symbol only continues paths that
    end in blank. When an extension is itself a beam prefix, its mass is
    folded into that prefix's cell and the extension cell is dropped.
    The next beam is the `beam` best cells ranked by (-total, prefix):
    equal totals go to the lexicographically smaller token tuple.
    Expansion is exact over the whole vocabulary. Returns up to `beam`
    hypotheses with distinct texts, best first.
    """
    if beam < 1:
        raise UsageError("beam must be >= 1")
    log_probs = np.asarray(log_probs)
    if log_probs.ndim != 2 or log_probs.shape[1] < 2:
        raise ShapeError(f"ctc_prefix_beam wants [T, V] log-probs with V >= 2, got {log_probs.shape}")
    if not np.all(np.isfinite(log_probs)):
        raise NumericError("non-finite log-probs fed to ctc_prefix_beam")
    width = log_probs.shape[1]
    blank = width - 1

    prefixes: list[tuple] = [()]
    last = np.array([-1])  # last symbol of each prefix, -1 for the empty one
    pb = np.zeros(1)
    pnb = np.full(1, LOG_ZERO)
    for lp in log_probs.astype(np.float64):
        n = len(prefixes)
        p_tot = np.logaddexp(pb, pnb)
        cand_pb = np.full((n, width), LOG_ZERO)
        cand_pb[:, blank] = p_tot + lp[blank]
        cand_pnb = p_tot[:, None] + lp
        has = np.flatnonzero(last >= 0)
        cand_pnb[has, last[has]] = pb[has] + lp[last[has]]
        cand_pnb[:, blank] = pnb + lp[last]  # the empty prefix has pnb = -inf

        row = {p: i for i, p in enumerate(prefixes)}
        child = [i for i, p in enumerate(prefixes) if p and p[:-1] in row]
        live = np.ones(n * width, dtype=bool)
        if child:
            parent = [row[prefixes[i][:-1]] for i in child]
            cols = last[child]
            cand_pnb[child, blank] = np.logaddexp(cand_pnb[child, blank], cand_pnb[parent, cols])
            live[np.array(parent) * width + cols] = False

        total = np.logaddexp(cand_pb, cand_pnb).ravel()
        ids = np.flatnonzero(live)
        cand = total[ids]
        k = min(beam, cand.size)
        kth = np.partition(cand, cand.size - k)[cand.size - k]
        ranked = []
        for x in ids[cand >= kth].tolist():  # every cell tied with the k-th is ranked
            i, c = divmod(x, width)
            ranked.append((-total[x], prefixes[i] if c == blank else prefixes[i] + (c,), x))
        ranked.sort(key=lambda r: r[:2])
        keep = np.array([x for _, _, x in ranked[:k]])
        prefixes = [p for _, p, _ in ranked[:k]]
        rows, cols = np.divmod(keep, width)
        last = np.where(cols == blank, last[rows], cols)
        pb = cand_pb.ravel()[keep]
        pnb = cand_pnb.ravel()[keep]

    scores = np.logaddexp(pb, pnb)
    hyps = [Hypothesis(p, tok.decode(list(p)), float(s)) for p, s in zip(prefixes, scores)]
    return dedup_by_text(hyps, beam)


# -- LAS -------------------------------------------------------------------------

def las_beam(model: LasModel, feats: np.ndarray, tok: SubwordModel, beam: int = 10,
             max_len: int = 60) -> list[Hypothesis]:
    """Length-normalized beam search; finished hypotheses are frozen.

    feats is a single utterance [T, D]. Each step decodes only the newest
    position of every live hypothesis through the model's incremental
    decoder, off the tape, and expands at most 3*beam candidates; scores
    are sums of log-softmax outputs divided by the generated length (EOS
    included, BOS excluded).
    """
    if beam < 1 or max_len < 1:
        raise UsageError("beam and max_len must be >= 1")
    feats = np.asarray(feats)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise ShapeError(f"las_beam wants features [T, D] with T >= 1, got {feats.shape}")
    if not np.all(np.isfinite(feats)):
        raise NumericError("non-finite features fed to las_beam")
    with no_tape():  # the incremental decoder itself never touches the tape
        decoder = model.start_decoding(*model.encode(feats[:, None, :]))
    expansion_cap = 3 * beam

    active: list[tuple[tuple, float]] = [((model.bos_id,), 0.0)]
    rows, tokens = [0], [model.bos_id]  # each live hypothesis's parent row and newest token
    finished: list[tuple[tuple, float]] = []
    for _step in range(max_len):
        logp = log_softmax_np(decoder.step(rows, tokens))
        logp[:, model.bos_id] = LOG_ZERO  # BOS is never generated

        cand_scores = np.array([s for _, s in active])[:, None] + logp  # [n_active, V']
        flat = cand_scores.reshape(-1)
        k = min(expansion_cap, flat.size)
        top = np.argpartition(flat, -k)[-k:]
        top = top[np.argsort(-flat[top], kind="stable")]

        next_active: list[tuple[tuple, float]] = []
        rows, tokens = [], []
        gen_len = len(active[0][0])  # BOS excluded, new token included
        for idx, score in zip(top.tolist(), flat[top].tolist()):
            if not math.isfinite(score):
                continue
            hyp_i, token = divmod(idx, logp.shape[1])
            seq = active[hyp_i][0] + (token,)
            if token == model.eos_id:
                finished.append((seq, score / gen_len))
            else:
                next_active.append((seq, score))
                rows.append(hyp_i)
                tokens.append(token)
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


# -- N-best serialization -------------------------------------------------------------

def write_nbest(path, nbests: list[NBestList]) -> None:
    with atomic_write(path) as fh:
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
                if not isinstance(row["id"], str):
                    raise DataError(f"utterance id {row['id']!r} is not a string")
                out.append(NBestList(row["id"], [_hypothesis(h) for h in row["hyps"]]))
            except (json.JSONDecodeError, KeyError, TypeError, DataError) as exc:
                raise DataError(f"{path}:{lineno}: bad n-best row: {exc}") from exc
    return out


def _hypothesis(entry: dict) -> Hypothesis:
    """One {text, am, lm?, total?} entry; each score present is a JSON number
    other than NaN (-inf is the score of a hypothesis with no mass)."""
    scores = (entry["am"], entry.get("lm"), entry.get("total"))
    if not isinstance(entry["text"], str) or scores[0] is None or not all(
            s is None or (type(s) in (int, float) and s == s) for s in scores):
        raise DataError(f"bad hypothesis {entry!r}")
    am, lm, total = (None if s is None else float(s) for s in scores)
    return Hypothesis((), entry["text"], am, lm, total)
