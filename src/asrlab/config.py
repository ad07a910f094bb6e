"""Model/training configuration presets.

The "desk" presets are small enough to pretrain on a laptop CPU in
minutes; the "paper-shapes" presets reproduce the published layer
dimensions and exist for shape and checkpoint tests only, never for
desk-scale training. Desk models take the front end's FEATURE_DIM.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

from .atomic import atomic_write
from .errors import DataError
from .signal import FEATURE_DIM


def _check_sizes(cfg, kind: str) -> None:
    """Every model config field but `kind` is a size: a positive int."""
    if cfg.kind != kind:
        raise DataError(f"{type(cfg).__name__} needs kind {kind!r}, got {cfg.kind!r}")
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name != "kind" and (type(value) is not int or value < 1):
            raise DataError(f"{kind} config {f.name} must be a positive int, got {value!r}")


@dataclass(frozen=True)
class CtcConfig:
    kind: str = "ctc"
    feat_dim: int = FEATURE_DIM
    hidden: int = 64
    layers: int = 2
    vocab: int = 200  # CTC output width is vocab + 1 (blank last)

    def __post_init__(self):
        _check_sizes(self, "ctc")

    @property
    def output_dim(self) -> int:
        return self.vocab + 1


@dataclass(frozen=True)
class LasConfig:
    kind: str = "las"
    feat_dim: int = FEATURE_DIM
    dim: int = 64
    ff_dim: int = 128
    heads: int = 2
    enc_blocks: int = 2
    dec_blocks: int = 1
    vocab: int = 200  # BOS/EOS appended as ids vocab, vocab+1

    def __post_init__(self):
        _check_sizes(self, "las")
        if self.dim % self.heads:
            raise DataError(f"las config dim {self.dim} is not a multiple of heads {self.heads}")

    @property
    def output_dim(self) -> int:
        return self.vocab + 2


def ctc_desk(vocab: int = 200) -> CtcConfig:
    """The desk CTC shape: CtcConfig's defaults."""
    return CtcConfig(vocab=vocab)


def las_desk(vocab: int = 200) -> LasConfig:
    """The desk LAS shape: LasConfig's defaults."""
    return LasConfig(vocab=vocab)


def ctc_paper_shapes() -> CtcConfig:
    return CtcConfig(feat_dim=240, hidden=700, layers=12, vocab=5000)


def las_paper_shapes() -> LasConfig:
    # published head count and model width; head dim follows as 512/4=128
    return LasConfig(feat_dim=240, dim=512, ff_dim=2048, heads=4,
                     enc_blocks=10, dec_blocks=2, vocab=5000)


def model_config_from_dict(d: dict):
    kind = d.get("kind") if isinstance(d, dict) else None
    cls = CtcConfig if kind == "ctc" else LasConfig if kind == "las" else None
    if cls is None:
        raise DataError(f"unknown model kind {kind!r}")
    try:
        return cls(**d)
    except TypeError as exc:  # an unknown field
        raise DataError(f"bad {kind} model config: {exc}") from exc


_VALUE_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,)}  # by annotation; bools are not numbers


@dataclass
class TrainConfig:
    batch_size: int = 16
    lr: float = 1e-3
    epochs: int = 5
    seed: int = 0
    spec_augment: bool = True
    label_smoothing: float = 0.1  # LAS only

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) not in _VALUE_TYPES[f.type]:
                raise DataError(f"training config {f.name} must be {f.type}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise DataError(f"training config {f.name} must be finite, got {value!r}")
        in_range = {
            "batch_size": self.batch_size >= 1,
            "lr": self.lr >= 0,  # lr == 0 is allowed: it makes fine-tuning a provable no-op
            "epochs": self.epochs >= 0,
            "seed": self.seed >= 0,
            "label_smoothing": 0 <= self.label_smoothing <= 1,
        }
        for name, ok in in_range.items():
            if not ok:
                raise DataError(f"training config {name} out of range, got {getattr(self, name)!r}")


def pretrain_defaults(seed: int = 0, **overrides) -> TrainConfig:
    return TrainConfig(**{"lr": 1e-3, "seed": seed, **overrides})


def finetune_defaults(seed: int = 0, **overrides) -> TrainConfig:
    return TrainConfig(**{"lr": 1e-4, "seed": seed, **overrides})


def save_json_config(path, cfg) -> None:
    with atomic_write(path, encoding="utf-8") as fh:
        json.dump(asdict(cfg), fh, indent=2, sort_keys=True)


def load_json_config(path, cls):
    try:
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # undecodable bytes or bad JSON
        raise DataError(f"{path}: not JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise DataError(f"{path}: config must be a JSON object")
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise DataError(f"{path}: unknown {cls.__name__} fields {sorted(unknown)}")
    return cls(**d)
