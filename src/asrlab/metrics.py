"""Word error rate, N-best oracle WER, paired bootstrap intervals, and
evaluation reports.

WER is the word-level Levenshtein distance divided by the reference
word count; corpus WER pools edit counts over utterances (sum of errors
over sum of reference lengths) rather than averaging per-utterance
rates. Comparison is case-sensitive ASCII after single-space
normalization.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .decode import NBestList
from .errors import DataError


@dataclass
class WerBreakdown:
    substitutions: int
    deletions: int
    insertions: int
    ref_len: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer(self) -> float:
        return self.errors / self.ref_len


def wer(ref: str, hyp: str) -> WerBreakdown:
    """Minimal-edit alignment; ties prefer substitution over insert+delete."""
    r = ref.split()
    h = hyp.split()
    if not r:
        raise DataError("empty reference")
    n, m = len(r), len(h)
    dist = np.zeros((n + 1, m + 1), dtype=np.int64)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = dist[i - 1, j - 1] + (r[i - 1] != h[j - 1])
            dele = dist[i - 1, j] + 1
            ins = dist[i, j - 1] + 1
            dist[i, j] = min(sub, dele, ins)

    subs = dels = inss = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i, j] == dist[i - 1, j - 1] + (r[i - 1] != h[j - 1]):
            subs += int(r[i - 1] != h[j - 1])
            i -= 1
            j -= 1
        elif i > 0 and dist[i, j] == dist[i - 1, j] + 1:
            dels += 1
            i -= 1
        else:
            inss += 1
            j -= 1
    return WerBreakdown(subs, dels, inss, n)


class CorpusWer:
    """Pooled error counts: corpus WER = sum(S+D+I) / sum(ref words)."""

    def __init__(self):
        self.errors = 0
        self.ref_len = 0

    def add(self, b: WerBreakdown) -> None:
        self.errors += b.errors
        self.ref_len += b.ref_len

    @property
    def wer(self) -> float:
        if self.ref_len == 0:
            raise DataError("no reference words accumulated")
        return self.errors / self.ref_len


BOOTSTRAP_RESAMPLES = 10_000
BOOTSTRAP_SEED = 0
BOOTSTRAP_CHUNK = 1_000  # resamples drawn at once, so memory does not grow with BOOTSTRAP_RESAMPLES


def paired_bootstrap(refs: dict[str, str], hyps_a: dict[str, str],
                     hyps_b: dict[str, str]) -> tuple[float, tuple[float, float], float]:
    """Paired bootstrap of the corpus WER difference, system b minus system a
    (Bisani and Ney, ICASSP 2004). Each of BOOTSTRAP_RESAMPLES resamples draws
    as many utterances as there are references, with replacement, from
    default_rng(BOOTSTRAP_SEED), and pools both systems' errors over the same
    draw. Returns (the difference on the whole set, its 95% percentile
    interval, the fraction of resamples in which b has the lower WER). refs
    and both hypothesis dicts are keyed by utterance id and must hold the
    same ids."""
    if not refs or set(hyps_a) != set(refs) or set(hyps_b) != set(refs):
        raise DataError("paired bootstrap needs one hypothesis per system for each reference id")
    counts = []  # per utterance: errors of a, errors of b, reference words
    for utt_id in sorted(refs):
        a, b = wer(refs[utt_id], hyps_a[utt_id]), wer(refs[utt_id], hyps_b[utt_id])
        counts.append((a.errors, b.errors, a.ref_len))
    counts = np.array(counts, dtype=np.int64)
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    deltas = []
    for start in range(0, BOOTSTRAP_RESAMPLES, BOOTSTRAP_CHUNK):
        draws = rng.integers(0, len(counts), size=(min(BOOTSTRAP_CHUNK, BOOTSTRAP_RESAMPLES - start), len(counts)))
        errs_a, errs_b, ref_len = (counts[:, c][draws].sum(axis=1) for c in range(3))
        deltas.append((errs_b - errs_a) / ref_len)
    deltas = np.concatenate(deltas)
    total_a, total_b, total_len = counts.sum(axis=0)
    low, high = np.percentile(deltas, [2.5, 97.5])
    return float((total_b - total_a) / total_len), (float(low), float(high)), float(np.mean(deltas < 0))


def evaluate_manifest(manifest, nbests: list[NBestList], lm=None, weights=None) -> dict:
    """Three-column evaluation of an n-best file against a manifest.

    Returns {test_wer, rescored_wer?, oracle_wer, utterances}; rescoring
    applies when lm and weights are given. ids must match one-to-one.
    """
    from .lm import rescore  # local import; lm layer already imports decode

    manifest.check_unique_ids()
    refs = {utt.id: utt.text for utt in manifest}
    seen = set()
    for nb in nbests:
        if nb.utt_id in seen:
            raise DataError(f"duplicate id {nb.utt_id!r} in n-best file")
        seen.add(nb.utt_id)
    if seen != set(refs):
        missing = sorted(set(refs) ^ seen)
        raise DataError(f"manifest/n-best id mismatch, e.g. {missing[:3]}")
    for utt_id, ref in refs.items():
        if not ref.split():
            raise DataError(f"utterance {utt_id!r}: empty reference")

    top1 = CorpusWer()
    oracle = CorpusWer()
    rescored = CorpusWer() if lm is not None and weights is not None else None
    for nb in nbests:
        ref = refs[nb.utt_id]
        top1.add(wer(ref, nb.top1().text))
        best = min((wer(ref, h.text) for h in nb.hyps), key=lambda b: b.errors / b.ref_len)
        oracle.add(best)
        if rescored is not None:
            rescored.add(wer(ref, rescore(nb, lm, weights).top1().text))

    report = {
        "utterances": len(nbests),
        "test_wer": round(top1.wer, 6),
        "oracle_wer": round(oracle.wer, 6),
    }
    if rescored is not None:
        report["rescored_wer"] = round(rescored.wer, 6)
        report["rescore_weights"] = {"lam": weights.lam, "beta": weights.beta}
    return report


# -- report files --------------------------------------------------------------------

def write_report(path, report: dict) -> None:
    with atomic_write(path, encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_report(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read report {path}: {exc}") from exc
    except ValueError as exc:  # undecodable bytes or bad JSON
        raise DataError(f"{path}: not JSON: {exc}") from exc
    if not isinstance(report, dict):
        raise DataError(f"{path}: report must be a JSON object")
    return report


def format_table(variants: dict[str, dict]) -> str:
    """Aligned three-column table over model variants."""
    headers = ["Model", "Test WER", "+ LM Rescoring", "N-Best WER"]
    rows = []
    for name, rep in variants.items():
        resc = rep.get("rescored_wer")
        rows.append([
            name,
            f"{rep['test_wer']:.4f}",
            "-" if resc is None else f"{resc:.4f}",
            f"{rep['oracle_wer']:.4f}",
        ])
    widths = [max(len(headers[c]), *(len(r[c]) for r in rows)) for c in range(4)]
    lines = ["  ".join(h.ljust(widths[c]) for c, h in enumerate(headers))]
    lines.append("  ".join("-" * widths[c] for c in range(4)))
    for r in rows:
        lines.append("  ".join(r[c].ljust(widths[c]) for c in range(4)))
    return "\n".join(lines)


def write_csv(path, variants: dict[str, dict]) -> None:
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "test_wer", "rescored_wer", "oracle_wer"])
        for name, rep in variants.items():
            writer.writerow([name, rep["test_wer"], rep.get("rescored_wer", ""), rep["oracle_wer"]])
