"""Training and fine-tuning: Adam, freeze policies, the epoch loop.

Fine-tuning updates exactly the parameter group selected by the freeze
policy; every other tensor in the output checkpoint is bit-identical to
the input checkpoint. Dense-only works for both architectures,
decoder-only requires an encoder-decoder model, dense-plus-top-k
unfreezes the k LSTM layers nearest the output of a CTC model.

Each step runs the model in two halves, the encoder (``encode``) and the
head on its output (CTC ``log_probs``, LAS ``decode_logits``). Within one
``train_model`` call the encoder output of a batch is computed once and
reused on later epochs when SpecAugment is off and the output does not
require grad, i.e. no trainable tensor feeds it (dense-only, and LAS
decoder-only). It is then a pure function of the fixed, length-bucketed
batch, so reuse changes no bit. Any other run encodes on every step.
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
from .losses import cross_entropy, ctc_loss
from .models import Checkpoint, CtcModel, load_checkpoint, save_checkpoint
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
            if not 1 <= self.k <= model.cfg.layers:
                raise UsageError(f"dense-top-k needs 1 <= k <= {model.cfg.layers} (the model's LSTM layers), "
                                 f"got {self.k}")
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


def adam_step(params: dict, grads: list, state: AdamState, cfg: TrainConfig) -> float:
    """One Adam update over {name: Tensor} from this step's gradients (one
    array per parameter, in params order) with cfg's lr, betas and eps;
    grads are clipped to global norm cfg.grad_clip. Returns the global
    grad norm before clipping."""
    lr, beta1, beta2, eps = cfg.lr, cfg.beta1, cfg.beta2, cfg.eps
    norm = np.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads))
    if norm > cfg.grad_clip:
        scale = cfg.grad_clip / norm
        grads = [g * scale for g in grads]

    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for (name, p), g in zip(params.items(), grads):
        m, v = state.slot(name, p.data.shape, p.data.dtype)
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return float(norm)


# -- data plumbing ---------------------------------------------------------------

class EncodedDataset:
    """(features, token ids) of each utterance of a manifest, resident in memory."""

    def __init__(self, manifest: Manifest, tok: SubwordModel):
        self.items = [(manifest.features(utt), tok.encode(utt.text)) for utt in manifest]
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


SA_MASK = 8  # SpecAugment: widest time and frequency mask
SA_STRIPES = 1  # SpecAugment: masks per axis


def _augment(feats: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    t_dim, f_dim = feats.shape
    return spec_augment(feats, min(SA_MASK, t_dim - 1), min(SA_MASK, f_dim - 1), SA_STRIPES, SA_STRIPES, rng)


# -- the train loop -----------------------------------------------------------------

def train_model(model, dataset: EncodedDataset, cfg: TrainConfig, trainable: list[str],
                log_path=None) -> tuple[list[dict], dict]:
    """Adam-train the selected parameters; returns (step log, final rng state).
    A step row holds the loss, the grad norm before clipping, whether the clip
    fired, the utterances CTC skipped as inadmissible, whether the encoder
    output was reused, the wall time and its split into forward, loss,
    backward and optimizer time, and the real (unpadded) frames trained on
    per second of wall time."""
    model.set_trainable(trainable)
    params = {n: p for n, p in model.parameters().items() if n in set(trainable)}
    state = AdamState()
    rng = np.random.default_rng(cfg.seed)
    batches = _bucket_batches(dataset, cfg.batch_size)
    is_ctc = isinstance(model, CtcModel)
    encoded = {}  # batch index -> encoder output, kept only while it cannot change

    log: list[dict] = []
    step = 0
    for _epoch in range(cfg.epochs):
        for bi in rng.permutation(len(batches)):
            idxs = batches[bi]
            feats_list = []
            labels = []
            for i in idxs:
                f, ids = dataset.items[i]
                if cfg.spec_augment:
                    f = _augment(f, rng)
                feats_list.append(f)
                labels.append(ids)
            padded, lengths = _collate(feats_list)

            marks = [time.perf_counter()]  # step start, then the end of forward, loss, backward and optimizer
            skipped = 0
            with Tape() as tape:
                enc = encoded.get(bi)
                reused = enc is not None
                if not reused:
                    enc = (model.encode(padded),) if is_ctc else model.encode(padded, lengths)
                    if not cfg.spec_augment and not enc[0].requires_grad:
                        encoded[bi] = enc
                if is_ctc:
                    lp = model.log_probs(*enc)
                    marks.append(time.perf_counter())
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        loss = ctc_loss(lp, labels, lengths)
                    for w in caught:
                        if issubclass(w.category, SkippedUtteranceWarning):
                            skipped += 1
                        else:
                            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
                else:
                    prefix, target, mask = _las_targets(labels, model.bos_id, model.eos_id)
                    logits = model.decode_logits(*enc, prefix)
                    marks.append(time.perf_counter())
                    loss = cross_entropy(logits, target, mask, smoothing=cfg.label_smoothing)
                loss_val = loss.item()
                if not np.isfinite(loss_val):
                    raise DivergenceError(f"non-finite loss at step {step}")
                marks.append(time.perf_counter())
                grads = tape.backward(loss, params.values())
                marks.append(time.perf_counter())
            grad_norm = adam_step(params, grads, state, cfg)
            marks.append(time.perf_counter())
            # parts are differences of rounded offsets, so they add up to wall_ms
            ms = [round(1000 * (m - marks[0]), 1) for m in marks]
            row = {"step": step, "loss": round(loss_val, 6), "lr": cfg.lr,
                   "grad_norm": grad_norm, "clipped": grad_norm > cfg.grad_clip, "ctc_skipped": skipped,
                   "encoder_reused": reused,
                   "wall_ms": ms[-1], "frames_per_s": round(int(lengths.sum()) / (marks[-1] - marks[0]), 1)}
            for part, start, end in zip(("forward_ms", "loss_ms", "backward_ms", "optimizer_ms"), ms, ms[1:]):
                row[part] = round(end - start, 1)
            log.append(row)
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
    norm = FeatureNormalizer.fit(f for f, _ in dataset.items)
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
