"""Utterance manifests: JSONL metadata plus WAV/feature blobs on disk.

Manifest rows are {id, text, domain, speaker_id, wav, features?, duration_s}
with file paths stored relative to the manifest's directory.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import signal, tensor
from .atomic import atomic_write
from .errors import DataError


@dataclass
class Utterance:
    id: str
    text: str
    domain: str
    speaker_id: str
    wav: str
    duration_s: float
    features: str | None = None


class Manifest:
    """An ordered utterance list anchored at a root directory."""

    def __init__(self, utterances: list[Utterance], root: Path):
        self.utterances = utterances
        self.root = Path(root)

    def __len__(self):
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)

    @classmethod
    def read(cls, path) -> "Manifest":
        path = Path(path)
        if not path.exists():
            raise DataError(f"manifest not found: {path}")
        utts = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                    utts.append(Utterance(**row))
                except (json.JSONDecodeError, TypeError) as exc:
                    raise DataError(f"{path}:{lineno}: bad manifest row: {exc}") from exc
        return cls(utts, path.parent)

    def write(self, path) -> None:
        with atomic_write(path) as fh:
            for utt in self.utterances:
                row = {k: v for k, v in asdict(utt).items() if v is not None}
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    def waveform(self, utt: Utterance) -> np.ndarray:
        samples, _ = signal.read_wav(self.root / utt.wav)
        return samples

    def features(self, utt: Utterance) -> np.ndarray:
        """Load cached features, or extract from the WAV when absent."""
        if utt.features is not None:
            return tensor.load_array(self.root / utt.features)
        return signal.extract_features(self.waveform(utt))

    def check_unique_ids(self) -> None:
        seen = set()
        for utt in self.utterances:
            if utt.id in seen:
                raise DataError(f"duplicate utterance id {utt.id!r}")
            seen.add(utt.id)


def write_text_corpus(path, sentences) -> None:
    with atomic_write(path) as fh:
        for s in sentences:
            fh.write(s + "\n")


def read_text_corpus(path) -> list[str]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"text corpus not found: {path}")
    with open(path) as fh:
        return [line.strip() for line in fh if line.strip()]
