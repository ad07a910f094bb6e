"""Utterance manifests: JSONL metadata plus WAV/feature blobs on disk.

Manifest rows are {id, text, domain, speaker_id, wav, features?, duration_s}
with file paths stored relative to the manifest's directory. Every field
is a string except duration_s, a finite number; a row that breaks this, or
an utterance whose feature or WAV file cannot be read, raises DataError.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import signal, tensor
from .atomic import atomic_write
from .errors import DataError, NumericError


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
                    utt = Utterance(**json.loads(line))
                except (json.JSONDecodeError, TypeError) as exc:
                    raise DataError(f"{path}:{lineno}: bad manifest row: {exc}") from exc
                bad = [name for name in ("id", "text", "domain", "speaker_id", "wav")
                       if not isinstance(getattr(utt, name), str)]
                if utt.features is not None and not isinstance(utt.features, str):
                    bad.append("features")
                if type(utt.duration_s) not in (int, float) or not math.isfinite(utt.duration_s):
                    bad.append("duration_s")
                if bad:
                    raise DataError(f"{path}:{lineno}: utterance {utt.id!r}: bad {', '.join(bad)}")
                utts.append(utt)
        return cls(utts, path.parent)

    def write(self, path) -> None:
        with atomic_write(path) as fh:
            for utt in self.utterances:
                row = {k: v for k, v in asdict(utt).items() if v is not None}
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    def waveform(self, utt: Utterance) -> np.ndarray:
        try:
            samples, _ = signal.read_wav(self.root / utt.wav)
        except DataError as exc:
            raise DataError(f"utterance {utt.id!r}: {exc}") from exc
        return samples

    def features(self, utt: Utterance) -> np.ndarray:
        """Load cached features, or extract from the WAV when absent."""
        if utt.features is None:
            return signal.extract_features(self.waveform(utt))
        path = self.root / utt.features
        try:
            return tensor.load_array(path)
        except (OSError, NumericError) as exc:
            raise DataError(f"utterance {utt.id!r}: cannot read features {path}: {exc}") from exc

    def check_unique_ids(self) -> None:
        seen = set()
        for utt in self.utterances:
            if utt.id in seen:
                raise DataError(f"duplicate utterance id {utt.id!r}")
            seen.add(utt.id)
