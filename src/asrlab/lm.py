"""Word n-gram language model with Witten-Bell interpolation + rescoring.

P(w|h) = lam_h * P_ML(w|h) + (1 - lam_h) * P(w|h') with
lam_h = c(h) / (c(h) + T(h)), where T(h) counts distinct continuation
types after history h. The recursion bottoms out at the maximum-
likelihood unigram over the training types (EOS included). Out-of-vocab
words score a fixed 1e-7 floor, which keeps rescoring totals finite
while leaving per-history sums at 1 within tolerance.

Scores are log10, matching conventional LM tooling.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .atomic import atomic_write
from .decode import Hypothesis, NBestList
from .errors import DataError

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
UNK_FLOOR = 1e-7
LM_VERSION = 1


class NGramLm:
    def __init__(self, order: int, counts: dict[tuple, Counter], total_unigrams: int):
        self.order = order
        self.counts = counts  # history tuple (len 0..order-1) -> Counter of next words
        self.total_unigrams = total_unigrams
        self._ctx_totals = {h: sum(c.values()) for h, c in counts.items()}
        self.vocab = sorted(counts[()].keys())

    # -- probabilities ---------------------------------------------------

    def prob(self, word: str, history: tuple) -> float:
        """Interpolated P(word | history); history uses BOS padding."""
        if word == UNK or word not in self.counts[()]:
            return UNK_FLOOR
        history = tuple(history)[-(self.order - 1):] if self.order > 1 else ()
        return self._prob(word, history)

    def _prob(self, word: str, history: tuple) -> float:
        if not history:
            return self.counts[()][word] / self.total_unigrams
        lower = self._prob(word, history[1:])
        ctx = self.counts.get(history)
        if not ctx:
            return lower
        c_h = self._ctx_totals[history]
        t_h = len(ctx)
        lam = c_h / (c_h + t_h)
        return lam * (ctx[word] / c_h) + (1.0 - lam) * lower

    def logprob(self, word: str, history: tuple) -> float:
        return math.log10(self.prob(word, history))

    def score(self, sentence: str) -> float:
        """Sum of log10 P over the words plus the closing EOS."""
        words = sentence.split()
        history = (BOS,) * (self.order - 1)
        total = 0.0
        for w in words:
            w_in = w if w in self.counts[()] else UNK
            total += self.logprob(w_in, history)
            history = history[1:] + (w_in,) if self.order > 1 else ()
        total += self.logprob(EOS, history)
        return total

    def perplexity(self, sentences) -> float:
        total = 0.0
        tokens = 0
        for s in sentences:
            total += self.score(s)
            tokens += len(s.split()) + 1  # EOS
        if tokens == 0:
            raise DataError("perplexity of an empty corpus")
        return 10.0 ** (-total / tokens)

    # -- persistence --------------------------------------------------------

    def save(self, path) -> None:
        payload = {
            "version": LM_VERSION,
            "order": self.order,
            "total_unigrams": self.total_unigrams,
            "counts": {" ".join(h): dict(c) for h, c in self.counts.items()},
        }
        with atomic_write(path, encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)

    @classmethod
    def load(cls, path) -> "NGramLm":
        path = Path(path)
        if not path.is_file():
            raise DataError(f"LM file not found or not a file: {path}")
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            if payload["version"] != LM_VERSION:
                raise DataError(f"unsupported LM version {payload['version']}")
            counts = {tuple(k.split(" ")) if k else (): Counter(v)
                      for k, v in payload["counts"].items()}
            return cls(payload["order"], counts, payload["total_unigrams"])
        except (ValueError, KeyError, TypeError, AttributeError) as exc:  # JSONDecodeError is a ValueError
            raise DataError(f"{path}: bad LM file: {exc!r}") from exc

    def dump_arpa(self) -> str:
        """ARPA-style text dump of interpolated probabilities, for inspection."""
        lines = ["\\data\\"]
        grams: dict[int, list[str]] = {}
        for h, ctx in sorted(self.counts.items()):
            n = len(h) + 1
            for w in sorted(ctx):
                lp = math.log10(self._prob(w, h))
                grams.setdefault(n, []).append(f"{lp:.6f}\t{' '.join(h + (w,))}")
        for n in sorted(grams):
            lines.append(f"ngram {n}={len(grams[n])}")
        for n in sorted(grams):
            lines.append(f"\\{n}-grams:")
            lines.extend(grams[n])
        lines.append("\\end\\")
        return "\n".join(lines)


def train_lm(corpus, order: int = 3) -> NGramLm:
    """Count BOS-padded n-grams of every order up to `order`."""
    corpus = list(corpus)
    if not corpus or order < 1:
        raise DataError("train_lm needs a non-empty corpus and order >= 1")
    counts: dict[tuple, Counter] = {(): Counter()}
    total = 0
    for sentence in corpus:
        words = sentence.split() + [EOS]
        history = (BOS,) * (order - 1)
        for w in words:
            counts[()][w] += 1
            total += 1
            for k in range(1, order):
                h = history[-k:]
                counts.setdefault(h, Counter())[w] += 1
            if order > 1:
                history = history[1:] + (w,)
    return NGramLm(order, counts, total)


# -- rescoring -------------------------------------------------------------------

@dataclass(frozen=True)
class RescoreWeights:
    lam: float = 0.0   # LM weight, >= 0
    beta: float = 0.0  # word-insertion bonus

    def __post_init__(self):
        if self.lam < 0:
            raise DataError("LM weight must be >= 0")


def rescore(nbest: NBestList, lm: NGramLm, weights: RescoreWeights) -> NBestList:
    """Re-rank by am + lam*lm_log10 + beta*word_count; stable on ties."""
    rescored = []
    for h in nbest.hyps:
        lm_score = lm.score(h.text)
        total = h.am_score + weights.lam * lm_score + weights.beta * len(h.text.split())
        rescored.append(Hypothesis(h.tokens, h.text, h.am_score, lm_score, total))
    rescored.sort(key=lambda h: -h.total)  # stable: ties keep original order
    return NBestList(nbest.utt_id, rescored)


LAMBDA_GRID = tuple(round(0.1 * i, 1) for i in range(11))
BETA_GRID = (0.0, -1.0, 1.0)


def tune_weights(dev_nbests: list[NBestList], dev_refs: dict[str, str], lm: NGramLm,
                 wer_fn) -> tuple[RescoreWeights, float]:
    """Grid-search (lam, beta) minimizing corpus WER of the re-ranked top-1.

    The identity point (0,0) is on the grid, so the selected dev WER
    never exceeds the un-rescored dev WER. wer_fn(ref, hyp) returns a
    WerBreakdown-like object with .errors and .ref_len; it is called
    once per distinct (utterance, chosen hypothesis) pair.
    """
    empty = [nb.utt_id for nb in dev_nbests if not nb.hyps]
    if not dev_nbests or empty:
        raise DataError(f"tune_weights needs a non-empty dev set of non-empty n-best lists (empty: {empty[:5]})")
    missing = [nb.utt_id for nb in dev_nbests if nb.utt_id not in dev_refs]
    if missing:
        raise DataError(f"tune_weights: no reference for {len(missing)} dev utterances, among them {missing[:3]}")
    cache = [(nb, [lm.score(h.text) for h in nb.hyps], [len(h.text.split()) for h in nb.hyps])
             for nb in dev_nbests]
    scored: dict[tuple[int, int], tuple[int, int]] = {}  # (utt, hyp) -> (errors, ref_len)
    best: tuple[RescoreWeights, float] | None = None
    for lam in LAMBDA_GRID:
        for beta in BETA_GRID:
            errors = 0
            ref_len = 0
            for u, (nb, lm_scores, wc) in enumerate(cache):
                idx = max(range(len(nb.hyps)),
                          key=lambda i: (nb.hyps[i].am_score + lam * lm_scores[i] + beta * wc[i], -i))
                if (u, idx) not in scored:
                    b = wer_fn(dev_refs[nb.utt_id], nb.hyps[idx].text)
                    scored[u, idx] = (b.errors, b.ref_len)
                e, r = scored[u, idx]
                errors += e
                ref_len += r
            w = errors / ref_len
            if best is None or w < best[1]:
                best = (RescoreWeights(lam, beta), w)
    return best
