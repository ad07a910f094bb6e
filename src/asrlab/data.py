"""Utterance manifests: JSONL metadata plus WAV/feature blobs on disk.

Manifest rows are {id, text, domain, speaker_id, wav, features?, duration_s}
with file paths stored relative to the manifest's directory. Every field
is a string except duration_s, a finite number; a row that breaks this, or
an utterance whose feature or WAV file cannot be read, whose WAV is not
sampled at ``signal.SAMPLE_RATE`` or whose feature array is not
[frames, dim] of finite values, raises DataError. Cached
features hold the front end's per-utterance normalized output
(``signal.extract_features``); an array whose frames do not average to
zero in every dim, such as a raw log-mel cache, raises DataError too.
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

# the largest per-dim |mean| a cached feature array may have; the front end
# leaves under 1e-6, while raw log-mel dims average far from zero
CMVN_MEAN_TOLERANCE = 1e-3


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
        if not path.is_file():
            raise DataError(f"manifest not found or not a file: {path}")
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: manifest is not UTF-8 text: {exc}") from exc
        utts = []
        for lineno, line in enumerate(lines, 1):
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
        with atomic_write(path, encoding="utf-8") as fh:
            for utt in self.utterances:
                row = {k: v for k, v in asdict(utt).items() if v is not None}
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    def waveform(self, utt: Utterance) -> np.ndarray:
        try:
            samples, rate = signal.read_wav(self.root / utt.wav)
        except DataError as exc:
            raise DataError(f"utterance {utt.id!r}: {exc}") from exc
        if rate != signal.SAMPLE_RATE:
            raise DataError(f"utterance {utt.id!r}: {utt.wav} is sampled at {rate} Hz, not {signal.SAMPLE_RATE}")
        return samples

    def features(self, utt: Utterance) -> np.ndarray:
        """Load cached features, or extract from the WAV when absent."""
        if utt.features is None:
            samples = self.waveform(utt)
            try:
                return signal.extract_features(samples)
            except DataError as exc:
                raise DataError(f"utterance {utt.id!r}: {exc}") from exc
        path = self.root / utt.features
        try:
            feats = tensor.load_array(path)
        except (OSError, NumericError) as exc:
            raise DataError(f"utterance {utt.id!r}: cannot read features {path}: {exc}") from exc
        if feats.ndim != 2 or feats.size == 0:
            raise DataError(f"utterance {utt.id!r}: features {path} have shape {feats.shape}, "
                            "not [frames, dim] with frames, dim >= 1")
        if not np.all(np.isfinite(feats)):
            raise DataError(f"utterance {utt.id!r}: features {path} hold non-finite values")
        if np.max(np.abs(feats.mean(axis=0, dtype=np.float64))) > CMVN_MEAN_TOLERANCE:
            raise DataError(f"utterance {utt.id!r}: features {path} are not normalized per utterance; "
                            "rebuild the feature cache")
        return feats

    def check_unique_ids(self) -> None:
        seen = set()
        for utt in self.utterances:
            if utt.id in seen:
                raise DataError(f"duplicate utterance id {utt.id!r}")
            seen.add(utt.id)
