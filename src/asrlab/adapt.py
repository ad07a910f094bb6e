"""Training and fine-tuning: Adam, freeze policies, the epoch loop.

Fine-tuning updates exactly the parameter group selected by the freeze
policy; every other tensor in the output checkpoint is bit-identical to
the input checkpoint. Dense-only works for both architectures,
decoder-only requires an encoder-decoder model, dense-plus-top-k
unfreezes the k LSTM layers nearest the output of a CTC model.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .config import TrainConfig
from .data import Manifest
from .errors import DataError, DivergenceError, SkippedUtteranceWarning, UsageError
from .losses import CtcBatch, cross_entropy, ctc_loss
from .models import Checkpoint, CtcModel, LasModel, load_checkpoint, save_checkpoint
from .signal import FeatureNormalizer, spec_augment
from .tensor import Tape
from .tokenizer import SubwordModel


@dataclass(frozen=True)
class FreezePolicy:
    variant: str  # full | dense-only | decoder-only | dense-top-k
    k: int = 0

    @classmethod
    def parse(cls, text: str) -> "FreezePolicy":
        text = text.strip().lower()
        if text in ("full", "dense-only", "decoder-only"):
            return cls(text)
        if text.startswith("dense-top"):
            try:
                return cls("dense-top-k", k=int(text.removeprefix("dense-top").lstrip("-")))
            except ValueError as exc:
                raise UsageError(f"bad policy spec {text!r}") from exc
        raise UsageError(f"unknown freeze policy {text!r}")

    def describe(self) -> str:
        return f"dense-top{self.k}" if self.variant == "dense-top-k" else self.variant

    def trainable_names(self, model) -> list[str]:
        groups = model.parameter_groups()
        if self.variant == "full":
            return groups["all"]
        if self.variant == "dense-only":
            return groups["dense"]
        if self.variant == "decoder-only":
            if "decoder" not in groups:
                raise UsageError("decoder-only fine-tuning requires an encoder-decoder model")
            return groups["decoder"]
        if self.variant == "dense-top-k":
            if not isinstance(model, CtcModel):
                raise UsageError("dense-top-k fine-tuning is defined for CTC models only")
            if self.k < 1:
                raise UsageError("dense-top-k needs k >= 1")
            return groups["dense"] + model.top_lstm_names(self.k)
        raise UsageError(f"unknown freeze policy {self.variant!r}")


# -- Adam ---------------------------------------------------------------------

class AdamState:
    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step = 0

    def slot(self, name: str, shape, dtype):
        if name not in self.m:
            self.m[name] = np.zeros(shape, dtype=dtype)
            self.v[name] = np.zeros(shape, dtype=dtype)
        return self.m[name], self.v[name]


def adam_step(params: dict, state: AdamState, cfg: TrainConfig) -> float:
    """One Adam update over {name: Tensor} with cfg's lr, betas and eps;
    grads are clipped to global norm cfg.grad_clip. Returns the global
    grad norm before clipping."""
    lr, beta1, beta2, eps = cfg.lr, cfg.beta1, cfg.beta2, cfg.eps
    grads = {}
    sq_sum = 0.0
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        grads[name] = g
        sq_sum += float(np.sum(g.astype(np.float64) ** 2))
    norm = np.sqrt(sq_sum)
    if norm > cfg.grad_clip:
        scale = cfg.grad_clip / norm
        grads = {name: g * scale for name, g in grads.items()}

    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name]
        m, v = state.slot(name, p.data.shape, p.data.dtype)
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return float(norm)


# -- data plumbing ---------------------------------------------------------------

class EncodedDataset:
    """Features and token ids for a manifest, resident in memory."""

    def __init__(self, manifest: Manifest, tok: SubwordModel):
        self.items = []
        for utt in manifest:
            feats = manifest.features(utt)
            ids = tok.encode(utt.text)
            self.items.append((feats, ids, utt.text, utt.id))
        if not self.items:
            raise DataError("empty manifest")

    def __len__(self):
        return len(self.items)

    def feature_dim(self) -> int:
        return self.items[0][0].shape[1]


def _bucket_batches(dataset: EncodedDataset, batch_size: int) -> list[list[int]]:
    """Length-sorted index buckets; batch order is shuffled per epoch."""
    order = sorted(range(len(dataset)), key=lambda i: (dataset.items[i][0].shape[0], i))
    return [order[i:i + batch_size] for i in range(0, len(order), batch_size)]


def _collate(feats_list):
    t_max = max(f.shape[0] for f in feats_list)
    batch = len(feats_list)
    dim = feats_list[0].shape[1]
    out = np.zeros((t_max, batch, dim), dtype=np.float32)
    lengths = np.zeros(batch, dtype=np.int64)
    for i, f in enumerate(feats_list):
        out[: f.shape[0], i] = f
        lengths[i] = f.shape[0]
    return out, lengths


def _las_targets(labels, bos_id, eos_id):
    l_max = max(len(l) for l in labels) + 1
    batch = len(labels)
    prefix = np.zeros((batch, l_max), dtype=np.int64)
    target = np.zeros((batch, l_max), dtype=np.int64)
    mask = np.zeros((batch, l_max), dtype=bool)
    prefix[:, 0] = bos_id
    for i, ids in enumerate(labels):
        n = len(ids)
        prefix[i, 1:n + 1] = ids
        target[i, :n] = ids
        target[i, n] = eos_id
        mask[i, : n + 1] = True
    return prefix, target, mask


def _augment(feats: np.ndarray, cfg: TrainConfig, rng: np.random.Generator) -> np.ndarray:
    t_dim, f_dim = feats.shape
    t_mask = min(cfg.sa_time_mask, t_dim - 1)
    f_mask = min(cfg.sa_freq_mask, f_dim - 1)
    return spec_augment(feats, t_mask, f_mask, cfg.sa_time_stripes, cfg.sa_freq_stripes, rng)


# -- the train loop -----------------------------------------------------------------

def train_model(model, dataset: EncodedDataset, cfg: TrainConfig, trainable: list[str],
                log_path=None) -> tuple[list[dict], dict]:
    """Adam-train the selected parameters; returns (step log, final rng state).
    A step row holds the loss, the grad norm before clipping, whether the clip
    fired, the utterances CTC skipped as inadmissible and the wall time."""
    model.set_trainable(trainable)
    params = {n: p for n, p in model.parameters().items() if n in set(trainable)}
    state = AdamState()
    rng = np.random.default_rng(cfg.seed)
    batches = _bucket_batches(dataset, cfg.batch_size)
    is_ctc = isinstance(model, CtcModel)

    log: list[dict] = []
    step = 0
    for _epoch in range(cfg.epochs):
        for bi in rng.permutation(len(batches)):
            idxs = batches[bi]
            feats_list = []
            labels = []
            for i in idxs:
                f, ids, _text, _id = dataset.items[i]
                if cfg.spec_augment:
                    f = _augment(f, cfg, rng)
                feats_list.append(f)
                labels.append(ids)
            padded, lengths = _collate(feats_list)

            t0 = time.monotonic()
            skipped = 0
            with Tape() as tape:
                if is_ctc:
                    lp = model.forward(padded)
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        loss, _ = ctc_loss(CtcBatch(lp, labels, lengths), reduction="token_mean")
                    for w in caught:
                        if issubclass(w.category, SkippedUtteranceWarning):
                            skipped += 1
                        else:
                            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
                else:
                    prefix, target, mask = _las_targets(labels, model.bos_id, model.eos_id)
                    logits = model.forward(padded, lengths, prefix)
                    loss = cross_entropy(logits, target, mask, smoothing=cfg.label_smoothing)
                loss_val = loss.item()
                if not np.isfinite(loss_val):
                    raise DivergenceError(f"non-finite loss at step {step}")
                tape.backward(loss)
            grad_norm = adam_step(params, state, cfg)
            log.append({"step": step, "loss": round(loss_val, 6), "lr": cfg.lr,
                        "grad_norm": grad_norm, "clipped": grad_norm > cfg.grad_clip,
                        "ctc_skipped": skipped, "wall_ms": round(1000 * (time.monotonic() - t0), 1)})
            step += 1

    if log_path is not None:
        with atomic_write(log_path) as fh:
            for row in log:
                fh.write(json.dumps(row) + "\n")
    return log, rng.bit_generator.state


def epoch_mean_losses(log: list[dict], steps_per_epoch: int) -> list[float]:
    if steps_per_epoch <= 0 or not log:
        return []
    vals = [row["loss"] for row in log]
    return [float(np.mean(vals[i:i + steps_per_epoch]))
            for i in range(0, len(vals), steps_per_epoch)]


def pretrain(model, manifest: Manifest, tok: SubwordModel, cfg: TrainConfig,
             out_path, log_path=None) -> list[dict]:
    """Train from scratch on a generic manifest; writes the checkpoint.

    Fits the global feature normalizer on this manifest; fine-tuning
    stages inherit it unchanged through the checkpoint.
    """
    dataset = EncodedDataset(manifest, tok)
    norm = FeatureNormalizer.fit(f for f, _, _, _ in dataset.items)
    model.set_normalizer(norm.mean, norm.std)
    log, rng_state = train_model(model, dataset, cfg, FreezePolicy("full").trainable_names(model), log_path)
    save_checkpoint(out_path, model, step=len(log), rng_state=rng_state)
    return log


def finetune(ckpt_path, manifest: Manifest, tok: SubwordModel, policy: FreezePolicy,
             cfg: TrainConfig, out_path, log_path=None) -> list[dict]:
    """Fine-tune a checkpoint under a freeze policy; frozen tensors pass
    through to the output checkpoint bit-identical."""
    ckpt = ckpt_path if isinstance(ckpt_path, Checkpoint) else load_checkpoint(ckpt_path)
    model = ckpt.build_model()
    trainable = policy.trainable_names(model)
    dataset = EncodedDataset(manifest, tok)
    if dataset.feature_dim() != model.cfg.feat_dim:
        raise DataError(f"manifest features {dataset.feature_dim()}-d, model expects {model.cfg.feat_dim}")
    log, rng_state = train_model(model, dataset, cfg, trainable, log_path)
    save_checkpoint(out_path, model, step=ckpt.step + len(log), rng_state=rng_state)
    return log
