"""Byte-pair-encoding subword model shared by every experiment.

Training greedily merges the highest-frequency adjacent symbol pair
until the vocabulary reaches the requested size, ties broken by the
lexicographically smallest pair. Words after the first in a sentence
carry a leading boundary marker symbol; the marker replaces the space,
so a sentence of N characters never encodes to more than N tokens and
decoding is an exact inverse.

Ids run 0..V-1; the CTC blank is V, outside the table.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path

from .atomic import atomic_write
from .errors import DataError

MARKER = "▁"
MODEL_VERSION = 1


def _apply_merge(symbols: list[str], pair: tuple[str, str]) -> list[str]:
    """symbols with every occurrence of pair merged into one symbol, left to right."""
    out = []
    i = 0
    while i < len(symbols):
        if i < len(symbols) - 1 and (symbols[i], symbols[i + 1]) == pair:
            out.append(pair[0] + pair[1])
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


class SubwordModel:
    """Ids index the vocabulary: the charset, the marker, then one token per
    merge, in merge order."""

    def __init__(self, charset: list[str], merges: list[tuple[str, str]]):
        self.charset = list(charset)
        self.merges = [tuple(m) for m in merges]
        self.vocab = self.charset + [MARKER] + [a + b for a, b in self.merges]
        self.token_to_id = {tok: i for i, tok in enumerate(self.vocab)}
        self.merge_rank = {pair: i for i, pair in enumerate(self.merges)}
        self._charset_set = set(self.charset)
        self._word_cache: dict[str, list[int]] = {}

    @property
    def size(self) -> int:
        return len(self.vocab)

    @property
    def blank_id(self) -> int:
        return len(self.vocab)

    # -- encoding ------------------------------------------------------

    def _merge_word(self, symbols: list[str]) -> list[str]:
        while len(symbols) > 1:
            best_rank = None
            best_pos = -1
            for i in range(len(symbols) - 1):
                rank = self.merge_rank.get((symbols[i], symbols[i + 1]))
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank = rank
                    best_pos = i
            if best_rank is None:
                break
            symbols = _apply_merge(symbols, (symbols[best_pos], symbols[best_pos + 1]))
        return symbols

    def _encode_word(self, word: str, marked: bool) -> list[int]:
        key = MARKER + word if marked else word
        cached = self._word_cache.get(key)
        if cached is None:
            symbols = ([MARKER] if marked else []) + list(word)
            cached = [self.token_to_id[s] for s in self._merge_word(symbols)]
            self._word_cache[key] = cached
        return cached

    def encode(self, text: str) -> list[int]:
        words = text.split()
        ids: list[int] = []
        for w in words:
            for ch in w:
                if ch not in self._charset_set:
                    raise DataError(f"character {ch!r} not in tokenizer charset")
        for i, w in enumerate(words):
            ids.extend(self._encode_word(w, marked=i > 0))
        return ids

    def decode(self, ids) -> str:
        toks = []
        for i in ids:
            if not 0 <= int(i) < len(self.vocab):
                raise DataError(f"token id {i} out of range [0,{len(self.vocab)})")
            toks.append(self.vocab[int(i)])
        return "".join(toks).replace(MARKER, " ").strip()

    # -- persistence -----------------------------------------------------

    def save(self, path) -> None:
        payload = {
            "version": MODEL_VERSION,
            "charset": self.charset,
            "merges": [list(m) for m in self.merges],
            "vocab": self.vocab,
        }
        with atomic_write(path, encoding="utf-8") as fh:
            json.dump(payload, fh, ensure_ascii=False)

    @classmethod
    def load(cls, path) -> "SubwordModel":
        path = Path(path)
        if not path.is_file():
            raise DataError(f"tokenizer model not found or not a file: {path}")
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            if payload["version"] != MODEL_VERSION:
                raise DataError(f"unsupported tokenizer version {payload['version']}")
            model = cls(payload["charset"], payload["merges"])
            if payload["vocab"] != model.vocab:
                raise DataError(f"{path}: stored vocab is not the charset, marker and merges the file holds")
            return model
        except (ValueError, KeyError, TypeError, AttributeError) as exc:  # JSONDecodeError is a ValueError
            raise DataError(f"{path}: bad tokenizer file: {exc!r}") from exc


def _sentence_symbol_seqs(corpus) -> Counter:
    """Counter of marked-word symbol tuples over the corpus."""
    words = Counter()
    for sentence in corpus:
        parts = sentence.split()
        for i, w in enumerate(parts):
            sym = ((MARKER,) if i > 0 else ()) + tuple(w)
            if sym:
                words[sym] += 1
    return words


def train_bpe(corpus, vocab_size: int, charset: str | None = None) -> SubwordModel:
    """Learn merges on a text corpus until the vocab reaches vocab_size.

    charset defaults to the characters seen in the corpus; pass the full
    synthesizer charset to guarantee coverage of unseen-domain text.
    Stops early (with a smaller vocab) if no pair occurs twice; callers
    read the actual size off the returned model.
    """
    corpus = list(corpus)
    seen = {ch for s in corpus for ch in s if ch != " "}
    if charset is None:
        charset = sorted(seen)
    else:
        charset = sorted(set(charset) | seen)
    if not charset:
        raise DataError("empty corpus")
    base = charset + [MARKER]
    if vocab_size < len(base):
        raise DataError(f"vocab_size {vocab_size} below base charset size {len(base)}")

    word_seqs = _sentence_symbol_seqs(corpus)
    seqs = [list(w) for w in word_seqs]
    freqs = list(word_seqs.values())
    pairs: Counter = Counter()  # pair -> occurrences over the corpus
    where: dict[tuple[str, str], set[int]] = defaultdict(set)  # pair -> words that may hold it
    for i, symbols in enumerate(seqs):
        for pair in zip(symbols, symbols[1:]):
            pairs[pair] += freqs[i]
            where[pair].add(i)
    merges: list[tuple[str, str]] = []

    while len(base) + len(merges) < vocab_size and pairs:
        top = max(pairs.values())
        if top < 2:
            break
        best = min(p for p, c in pairs.items() if c == top)
        for i in where.pop(best):  # only the words that hold best change
            symbols = seqs[i]
            for pair in zip(symbols, symbols[1:]):
                pairs[pair] -= freqs[i]
                if not pairs[pair]:
                    del pairs[pair]
            seqs[i] = symbols = _apply_merge(symbols, best)
            for pair in zip(symbols, symbols[1:]):
                pairs[pair] += freqs[i]
                where[pair].add(i)
        merges.append(best)

    return SubwordModel(charset, merges)
