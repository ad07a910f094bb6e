"""Which asrlab names the traced run wraps, and the per-layer metrics
computed from the spans they record.

Wrappers go on the names callers actually look up: `adapt` imports
ctc_loss, cross_entropy, spec_augment and the checkpoint functions by
name, so those are wrapped in `asrlab.adapt`; methods are wrapped on
their classes.
"""

from __future__ import annotations

import inspect
import os
import statistics

import numpy as np

from asrlab import adapt, data, decode, layers, lm, metrics, models, signal, tensor, tokenizer, ttssim
from asrlab.signal import SAMPLE_RATE

from spans import self_times, stage_of

TRAIN_STAGES = ("stage.pretrain", "stage.finetune")
STAGES = ("data", "pretrain", "tts", "finetune", "ckpt", "decode", "rescore", "eval")


def _arg(fn, name, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _audio_in(attrs, args, kwargs, result):
    attrs["audio_s"] = len(args[0]) / SAMPLE_RATE


def _audio_out(attrs, args, kwargs, result):
    attrs["audio_s"] = len(result) / SAMPLE_RATE


def _tape_nodes(attrs, args, kwargs, result):
    attrs["nodes"] = len(args[0])


def _adam_params(attrs, args, kwargs, result):
    attrs["params"] = sum(p.data.size for p in args[0].values())


def _decoder_positions(attrs, args, kwargs, result):
    prefix = np.asarray(_arg(models.LasModel.decode_logits, "prefix", args, kwargs))
    attrs["positions"] = prefix.shape[0] * prefix.shape[1]


def _nbest_fill(fn, frames: bool = False):
    def note(attrs, args, kwargs, result):
        attrs["fill"] = len(result) / _arg(fn, "beam", args, kwargs)
        if frames:
            attrs["frames"] = np.asarray(args[0]).shape[0]
    return note


def _file_bytes(fn):
    def note(attrs, args, kwargs, result):
        attrs["bytes"] = os.path.getsize(_arg(fn, "path", args, kwargs))
    return note


def install(w) -> None:
    """Call w(owner, attr, span_name, note=None, count_warnings=False) for
    every traced name; pass Tracer.wrap, and Tracer.restore() undoes it."""
    w(ttssim, "synth", "ttssim.synth", _audio_out)
    w(signal, "extract_features", "signal.extract_features", _audio_in)
    w(adapt, "spec_augment", "signal.spec_augment")
    w(data.Manifest, "features", "data.Manifest.features")
    w(tokenizer, "train_bpe", "tokenizer.train_bpe")
    w(layers.LstmLayer, "forward", "layers.LstmLayer.forward")
    w(tensor.Tape, "backward", "tensor.Tape.backward", _tape_nodes)
    w(layers.MultiHeadAttention, "__call__", "layers.MultiHeadAttention.call")
    w(adapt, "ctc_loss", "losses.ctc_loss", count_warnings=True)
    w(adapt, "cross_entropy", "losses.cross_entropy")
    w(adapt, "adam_step", "adapt.adam_step", _adam_params)
    w(models.CtcModel, "forward", "models.CtcModel.forward")
    w(models.LasModel, "encode", "models.LasModel.encode")
    w(models.LasModel, "decode_logits", "models.LasModel.decode_logits", _decoder_positions)
    w(decode, "ctc_prefix_beam", "decode.ctc_prefix_beam", _nbest_fill(decode.ctc_prefix_beam, frames=True))
    w(decode, "las_beam", "decode.las_beam", _nbest_fill(decode.las_beam))
    w(lm, "train_lm", "lm.train_lm")
    w(lm, "tune_weights", "lm.tune_weights")
    w(lm, "rescore", "lm.rescore")
    w(metrics, "wer", "metrics.wer")
    for owner in (adapt, models):
        w(owner, "save_checkpoint", "models.save_checkpoint", _file_bytes(models.save_checkpoint))
        w(owner, "load_checkpoint", "models.load_checkpoint", _file_bytes(models.load_checkpoint))
    w(models.Checkpoint, "build_model", "models.Checkpoint.build_model")


def traced_names() -> list[tuple[object, str]]:
    """(owner, attribute) pairs that install() replaces."""
    names = []
    install(lambda owner, attr, *_a, **_k: names.append((owner, attr)))
    return names


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(spans: list[dict], step_ms: list[float], overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics {name: (value, unit)} from one traced setup + iteration.

    A layer that never ran in the workload reads 0.
    """
    stage = stage_of(spans)

    def sel(name, stages=None):
        return [s for s in spans if s["name"] == name and (stages is None or stage[s["id"]] in stages)]

    def ms(name, stages=None):
        return 1000.0 * sum(s["end"] - s["start"] for s in sel(name, stages))

    def attr(name, key, stages=None):
        return sum(s["attrs"].get(key, 0) for s in sel(name, stages))

    steps = len(sel("adapt.adam_step"))
    ft_steps = len(sel("adapt.adam_step", ("stage.finetune",)))
    beams = sel("decode.ctc_prefix_beam") + sel("decode.las_beam")
    load_s = ms("models.load_checkpoint") / 1000.0
    selfs = self_times(spans)

    out = {
        "signal.extract_features.ms_per_audio_s": (
            _ratio(ms("signal.extract_features"), attr("signal.extract_features", "audio_s")), "ms/audio_s"),
        "ttssim.synth.ms_per_audio_s": (
            _ratio(ms("ttssim.synth"), attr("ttssim.synth", "audio_s")), "ms/audio_s"),
        "signal.spec_augment.ms_per_step": (_ratio(ms("signal.spec_augment"), steps), "ms/step"),
        "data.Manifest.features.ms_per_utt": (
            _ratio(ms("data.Manifest.features"), len(sel("data.Manifest.features"))), "ms/utt"),
        "tokenizer.train_bpe.s": (ms("tokenizer.train_bpe") / 1000.0, "s"),
        "layers.LstmLayer.forward.ms_per_step": (
            _ratio(ms("layers.LstmLayer.forward", TRAIN_STAGES), steps), "ms/step"),
        "tensor.Tape.backward.ms_per_step": (_ratio(ms("tensor.Tape.backward"), steps), "ms/step"),
        "tensor.tape_nodes_per_step": (
            _ratio(attr("tensor.Tape.backward", "nodes"), len(sel("tensor.Tape.backward"))), "count"),
        "layers.MultiHeadAttention.call.ms_per_step": (
            _ratio(ms("layers.MultiHeadAttention.call", TRAIN_STAGES), steps), "ms/step"),
        "losses.ctc_loss.ms_per_step": (_ratio(ms("losses.ctc_loss"), steps), "ms/step"),
        "losses.ctc_loss.inadmissible": (attr("losses.ctc_loss", "warnings"), "count"),
        "losses.cross_entropy.ms_per_step": (_ratio(ms("losses.cross_entropy"), steps), "ms/step"),
        "adapt.adam_step.ms_per_step": (_ratio(ms("adapt.adam_step"), steps), "ms/step"),
        "adapt.adam_step.params": (
            _ratio(attr("adapt.adam_step", "params", ("stage.finetune",)), ft_steps), "count"),
        "adapt.train_model.step_ms_p50": (statistics.median(step_ms) if step_ms else 0.0, "ms"),
        "models.CtcModel.forward.calls": (len(sel("models.CtcModel.forward", ("stage.finetune",))), "count"),
        "models.CtcModel.forward.ms": (ms("models.CtcModel.forward", ("stage.finetune",)), "ms"),
        "models.LasModel.encode.ms": (ms("models.LasModel.encode"), "ms"),
        "models.LasModel.decode_logits.positions": (
            attr("models.LasModel.decode_logits", "positions", ("stage.decode",)), "count"),
        "decode.ctc_prefix_beam.ms_per_frame": (
            _ratio(ms("decode.ctc_prefix_beam"), attr("decode.ctc_prefix_beam", "frames")), "ms/frame"),
        "decode.las_beam.ms_per_utt": (
            _ratio(ms("decode.las_beam"), len(sel("decode.las_beam"))), "ms/utt"),
        "decode.nbest_fill": (_ratio(sum(s["attrs"]["fill"] for s in beams), len(beams)), "ratio"),
        "lm.train_lm.ms": (ms("lm.train_lm"), "ms"),
        "lm.tune_weights.ms": (ms("lm.tune_weights"), "ms"),
        "lm.rescore.ms": (ms("lm.rescore"), "ms"),
        "metrics.wer.calls": (len(sel("metrics.wer")), "count"),
        "metrics.wer.ms": (ms("metrics.wer"), "ms"),
        "models.save_checkpoint.ms": (ms("models.save_checkpoint"), "ms"),
        "models.save_checkpoint.bytes": (attr("models.save_checkpoint", "bytes"), "bytes"),
        "models.load_checkpoint.ms": (ms("models.load_checkpoint"), "ms"),
        "models.load_checkpoint.mb_per_s": (
            _ratio(attr("models.load_checkpoint", "bytes") / 1e6, load_s), "MB/s"),
        "models.Checkpoint.build_model.ms": (ms("models.Checkpoint.build_model"), "ms"),
    }
    for name in STAGES:
        out[f"stage.{name}.self_s"] = (
            sum(selfs[s["id"]] for s in sel(f"stage.{name}")), "s")
    out["trace.overhead"] = (overhead, "ratio")
    return out
