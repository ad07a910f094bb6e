import json
import re
import warnings
import weakref

import numpy as np
import pytest

from asrlab import adapt as A
from asrlab import config as C
from asrlab import decode as D
from asrlab import layers as L
from asrlab import losses as LS
from asrlab import models as M
from asrlab import signal as S
from asrlab import ttssim
from asrlab.data import Manifest
from asrlab.errors import DataError, DivergenceError, UsageError
from asrlab.losses import ctc_loss
from asrlab.tensor import Tensor, load_array, save_array
from asrlab.tokenizer import train_bpe
from oracle_utils import (checkpoint_digest, reference_attention, reference_dense, reference_lattice_alpha,
                          reference_lstm_forward)


# -- freeze policies -----------------------------------------------------------

def test_policy_parsing():
    assert A.FreezePolicy.parse("dense-only").variant == "dense-only"
    assert A.FreezePolicy.parse("full").variant == "full"
    p = A.FreezePolicy.parse("dense-top1")
    assert p.variant == "dense-top-k" and p.k == 1
    assert A.FreezePolicy.parse("dense-top-2").k == 2
    with pytest.raises(UsageError):
        A.FreezePolicy.parse("everything")
    with pytest.raises(UsageError):
        A.FreezePolicy.parse("dense-topx")


def test_decoder_only_rejected_on_ctc():
    model = M.build_model(C.CtcConfig(feat_dim=6, hidden=8, layers=2, vocab=5))
    with pytest.raises(UsageError):
        A.FreezePolicy.parse("decoder-only").trainable_names(model)


def test_dense_top_k_rejected_on_las():
    model = M.build_model(C.LasConfig(feat_dim=6, dim=8, ff_dim=16, heads=2,
                                   enc_blocks=1, dec_blocks=1, vocab=5))
    with pytest.raises(UsageError):
        A.FreezePolicy.parse("dense-top1").trainable_names(model)


def test_policy_group_selection():
    model = M.build_model(C.CtcConfig(feat_dim=6, hidden=8, layers=3, vocab=5))
    assert set(A.FreezePolicy.parse("dense-only").trainable_names(model)) == {"dense.w", "dense.b"}
    top1 = set(A.FreezePolicy.parse("dense-top1").trainable_names(model))
    assert top1 == {"dense.w", "dense.b", "lstm.2.w", "lstm.2.u", "lstm.2.b"}


def test_dense_top_k_beyond_the_model_layers_rejected():
    model = M.build_model(C.CtcConfig(feat_dim=6, hidden=8, layers=2, vocab=5))
    top2 = A.FreezePolicy.parse("dense-top2").trainable_names(model)
    assert top2 == [f"lstm.{i}.{n}" for i in (0, 1) for n in "wub"] + ["dense.w", "dense.b"]
    with pytest.raises(UsageError, match="k <= 2"):
        A.FreezePolicy.parse("dense-top3").trainable_names(model)


# -- config presets ----------------------------------------------------------------

def test_train_presets_take_overrides():
    assert C.pretrain_defaults().lr == 1e-3 and C.finetune_defaults().lr == 1e-4
    cfg = C.finetune_defaults(seed=3, lr=5e-4, epochs=2)
    assert (cfg.lr, cfg.seed, cfg.epochs) == (5e-4, 3, 2)
    assert C.pretrain_defaults(lr=0.0).lr == 0.0


def test_desk_models_take_the_front_end_width():
    wave = ttssim.synth("call home")
    assert C.CtcConfig().feat_dim == C.LasConfig().feat_dim == S.extract_features(wave).shape[1]
    assert C.ctc_desk().feat_dim == C.las_desk().feat_dim == S.FEATURE_DIM


def test_missing_json_train_config_raises_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read config"):
        C.load_json_config(tmp_path / "absent.json", C.TrainConfig)


def test_json_train_config_round_trips(tmp_path):
    cfg = C.finetune_defaults(seed=3, epochs=2, spec_augment=False)
    C.save_json_config(tmp_path / "train.json", cfg)
    assert C.load_json_config(tmp_path / "train.json", C.TrainConfig) == cfg


@pytest.mark.parametrize("text", [
    '{"lrr": 0.001}',
    '{"batch_size": "16"}',
    '{"epochs": 2.5}',
    '{"lr": true}',
    '{"spec_augment": 1}',
    '{"seed": null}',
    '{"seed": -1}',
    '[16]',
    '{"lr": ',
    '{"lr": NaN}',
    # fields TrainConfig no longer has: a file naming one is refused as unknown
    '{"grad_clip": Infinity}',
    '{"beta1": 1.0}',
    '{"beta2": 1.0}',
    '{"beta1": -0.1}',
    '{"eps": -1.0}',
    '{"label_smoothing": 2.0}',
], ids=["unknown-key", "int-as-string", "int-as-float", "float-as-bool", "bool-as-int", "null", "negative-seed",
        "not-an-object", "not-json", "nan-lr", "infinite-grad-clip", "beta1-one", "beta2-one", "negative-beta1",
        "negative-eps", "label-smoothing-above-one"])
def test_json_train_config_bad_fields_raise_data_error(tmp_path, text):
    path = tmp_path / "train.json"
    path.write_text(text)
    with pytest.raises(DataError) as err:
        C.load_json_config(path, C.TrainConfig)
    if text.endswith("}"):  # a one-field object: the error names the field
        assert next(iter(json.loads(text))) in str(err.value)


# -- Adam -----------------------------------------------------------------------

def test_adam_zero_grads_no_update():
    p = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    state = A.AdamState({"p": p})
    before = p.data.copy()
    A.adam_step({"p": p}, [np.zeros(2, dtype=np.float32)], state, C.TrainConfig(lr=0.1))
    assert np.array_equal(p.data, before)
    assert state.step == 1
    assert np.all(state.m["p"] == 0) and np.all(state.v["p"] == 0)


def test_adam_first_step_is_minus_lr():
    p = Tensor(np.array([0.0], dtype=np.float64), requires_grad=True)
    state = A.AdamState({"p": p})
    assert A.adam_step({"p": p}, [np.array([1.0])], state, C.TrainConfig(lr=0.01)) == 1.0
    # bias-corrected m/sqrt(v) is 1 at step 1, so the move is ~ -lr
    assert np.isclose(p.data[0], -0.01, rtol=1e-6)


def test_adam_global_norm_clip(monkeypatch):
    monkeypatch.setattr(A, "GRAD_CLIP", 1.0)
    p = Tensor(np.zeros(4, dtype=np.float64), requires_grad=True)
    grad = np.full(4, 5.0)  # norm 10
    state = A.AdamState({"p": p})
    norm = A.adam_step({"p": p}, [grad], state, C.TrainConfig(lr=1.0))
    assert norm == 10.0  # reported before clipping
    # effective grad g = 0.5: m = (1 - beta1) g, v = (1 - beta2) g^2, update ~ -lr * sign(g)
    assert np.allclose(state.m["p"], 0.1 * 0.5)
    assert np.allclose(state.v["p"], 0.001 * 0.25)
    assert np.allclose(p.data, -1.0)


# -- training loops ---------------------------------------------------------------

def _tiny_setup(tmp_path, n=24, domain=ttssim.GENERIC):
    man = ttssim.build_dataset(domain, n, tmp_path / "data", seed=0,
                               speakers="single", noise=False)
    corpus = [u.text for u in man]
    tok = train_bpe(corpus, 60, charset=ttssim.CHARSET)
    return man, tok


def _tiny_cfg(**kw):
    defaults = dict(batch_size=8, epochs=1, seed=1, spec_augment=False)
    defaults.update(kw)
    return C.TrainConfig(**defaults)


def test_pretrain_loss_decreases(tmp_path):
    man, tok = _tiny_setup(tmp_path)
    model = M.build_model(C.CtcConfig(feat_dim=60, hidden=32, layers=1, vocab=tok.size), seed=1)
    log = A.pretrain(model, man, tok, _tiny_cfg(epochs=3, lr=3e-3), tmp_path / "m.ckpt",
                     log_path=tmp_path / "log.jsonl")
    per_epoch = A.epoch_mean_losses(log, steps_per_epoch=3)
    assert per_epoch[-1] < per_epoch[0]
    assert (tmp_path / "log.jsonl").exists()


@pytest.mark.parametrize("grad_clip", [1e-6, 1e6])
def test_step_log_reports_grad_norm_clip_and_ctc_skips(grad_clip, monkeypatch):
    monkeypatch.setattr(A, "GRAD_CLIP", grad_clip)
    rng = np.random.default_rng(0)
    items = [(rng.normal(size=(t, 6)).astype(np.float32), ids) for t, ids in [(8, [0, 1]), (3, [0, 1, 2, 3, 4]), (9, [2])]]
    model = M.build_model(C.CtcConfig(feat_dim=6, hidden=4, layers=1, vocab=5), seed=0)
    cfg = _tiny_cfg(epochs=2)
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        log, _ = A.train_model(model, items, cfg, list(model.parameters()))
    assert escaped == []  # the inadmissible utterance is counted, not warned about
    assert [row["ctc_skipped"] for row in log] == [1, 1]
    for row in log:
        assert row["grad_norm"] > 0.0
        assert row["clipped"] is (grad_clip < 1.0)

    # any other warning raised inside the loss still reaches the caller
    def noisy_loss(*args, **kwargs):
        warnings.warn("lattice underflow", RuntimeWarning)
        return ctc_loss(*args, **kwargs)

    monkeypatch.setattr(A, "ctc_loss", noisy_loss)
    with pytest.warns(RuntimeWarning, match="lattice underflow"):
        log, _ = A.train_model(model, items, cfg, list(model.parameters()))
    assert [row["ctc_skipped"] for row in log] == [1, 1]


@pytest.mark.parametrize("family", ["ctc", "las"])
def test_a_non_finite_tensor_fails_training_with_divergence_error_naming_the_step(family):
    rng = np.random.default_rng(0)
    items = [(rng.normal(size=(t, 6)).astype(np.float32), ids) for t, ids in [(8, [0, 1]), (9, [2, 3, 1])]]
    model = _MODELS[family]()
    model.parameters()["dense.w"].data[0, 0] = np.nan
    with pytest.raises(DivergenceError, match="non-finite loss at step 0"):
        A.train_model(model, items, _tiny_cfg(), list(model.parameters()))


def _with_key_biases(shapes):
    """tensor_shapes with a bias after each attention key weight, as the
    version 2 checkpoint layout had."""
    out = {}
    for name, shape in shapes.items():
        out[name] = shape
        if name.endswith(".wk.w"):
            out[name[:-1] + "b"] = shape[1:]
    return out


def test_attention_key_biases_change_no_decoder_logit(monkeypatch):
    """A LAS model trained with key-projection biases gives the same decoder
    logits without them, to 1e-5 absolute. Softmax ignores q.b, a shift
    shared by every key of a query; only float32 rounding differs (2.6e-6
    measured on a las_desk model pretrained by the version 2 code)."""
    cfg = C.LasConfig(feat_dim=6, dim=16, ff_dim=32, heads=2, enc_blocks=2, dec_blocks=2, vocab=5)
    shapes = M.tensor_shapes
    monkeypatch.setattr(M, "tensor_shapes", lambda cfg: _with_key_biases(shapes(cfg)))
    biased = M.build_model(cfg, seed=3)
    rng = np.random.default_rng(1)
    items = [(rng.normal(size=(t, 6)).astype(np.float32), list(rng.integers(0, 5, size=n)))
             for t, n in [(8, 2), (9, 3), (12, 4), (7, 1)]]
    A.train_model(biased, items, _tiny_cfg(batch_size=2, epochs=3, lr=1e-2), list(biased.parameters()))
    keys = [name for name in biased.parameters() if name.endswith(".wk.b")]
    assert len(keys) == 2 + 2 * 2
    for name in keys:  # far larger than training makes them, so that the test sees any effect
        biased.parameters()[name].data += rng.normal(scale=0.5, size=16).astype(np.float32)
    monkeypatch.undo()
    plain = M.LasModel(cfg, {name: biased.named_tensors()[name] for name in M.tensor_shapes(cfg)})
    feats = rng.normal(size=(10, 3, 6)).astype(np.float32)
    lengths = np.array([10, 7, 4])
    prefix = np.concatenate([np.full((3, 1), plain.bos_id), rng.integers(0, 5, size=(3, 6))], axis=1)
    want = biased.decode_logits(*biased.encode(feats, lengths), prefix).data
    got = plain.decode_logits(*plain.encode(feats, lengths), prefix).data
    assert np.max(np.abs(got - want)) <= 1e-5


@pytest.mark.parametrize("make_model", [
    lambda: M.build_model(C.CtcConfig(feat_dim=6, hidden=8, layers=2, vocab=5), seed=0),
    lambda: M.build_model(C.LasConfig(feat_dim=6, dim=8, ff_dim=16, heads=2,
                                   enc_blocks=1, dec_blocks=1, vocab=5), seed=0),
], ids=["ctc", "las"])
def test_step_gradient_is_this_steps_gradient_only(make_model):
    # Adam must see the gradient of the current step alone: step 2 of a run
    # equals step 1 of a fresh run started from the weights after step 1
    rng = np.random.default_rng(0)
    items = [(rng.normal(size=(t, 6)).astype(np.float32), ids) for t, ids in [(8, [0, 1]), (9, [2, 3, 1])]]
    model = make_model()
    two_steps, _ = A.train_model(model, items, _tiny_cfg(epochs=2), list(model.parameters()))
    model = make_model()
    A.train_model(model, items, _tiny_cfg(epochs=1), list(model.parameters()))
    fresh, _ = A.train_model(model, items, _tiny_cfg(epochs=1, lr=0.0), list(model.parameters()))
    assert len(two_steps) == 2 and len(fresh) == 1
    assert two_steps[1]["grad_norm"] == fresh[0]["grad_norm"]


@pytest.mark.parametrize("family", ["ctc", "las"])
def test_a_steps_gradients_are_freed_before_the_next_forward(monkeypatch, family):
    rng = np.random.default_rng(0)
    items = [(rng.normal(size=(t, 6)).astype(np.float32), ids) for t, ids in [(8, [0, 1]), (9, [2, 3, 1])]]
    model = _MODELS[family]()
    adam_step, encode = A.adam_step, model.encode
    grads, alive = [], []  # weak references to every step's gradients; how many live as each forward starts

    def weakly_kept(params, step_grads, *args):
        grads.extend(weakref.ref(g) for g in step_grads)
        return adam_step(params, step_grads, *args)

    def counted(*args):
        alive.append(sum(ref() is not None for ref in grads))
        return encode(*args)

    monkeypatch.setattr(A, "adam_step", weakly_kept)
    monkeypatch.setattr(model, "encode", counted)
    cfg = _tiny_cfg(batch_size=1, epochs=2, spec_augment=True)  # SpecAugment on: every step encodes
    log, _ = A.train_model(model, items, cfg, list(model.parameters()))
    assert len(log) == len(alive) == 4
    assert len(grads) == 4 * len(model.parameters())
    assert alive == [0, 0, 0, 0]


@pytest.mark.parametrize("make_model", [
    lambda: M.build_model(C.CtcConfig(feat_dim=6, hidden=8, layers=2, vocab=5), seed=0),
    lambda: M.build_model(C.LasConfig(feat_dim=6, dim=8, ff_dim=16, heads=2,
                                   enc_blocks=1, dec_blocks=1, vocab=5), seed=0),
], ids=["ctc", "las"])
def test_step_log_splits_wall_time_and_counts_real_frames(make_model):
    rng = np.random.default_rng(0)
    lengths = (8, 5, 9)  # one batch per step: 22 real frames, 27 with padding
    items = [(rng.normal(size=(t, 6)).astype(np.float32), ids) for t, ids in zip(lengths, ([0, 1], [2], [2, 3, 1]))]
    model = make_model()
    log, _ = A.train_model(model, items, _tiny_cfg(epochs=3), list(model.parameters()))
    parts = ("forward_ms", "loss_ms", "backward_ms", "optimizer_ms")
    assert len(log) == 3
    for row in log:
        assert all(row[part] >= 0.0 for part in parts)
        assert sum(row[part] for part in parts) <= row["wall_ms"] + 1e-9  # each rounded to 0.1 ms
        frames = row["frames_per_s"] * row["wall_ms"] / 1000
        assert frames == pytest.approx(sum(lengths), rel=0.06 / row["wall_ms"] + 1e-6)


_MODELS = {
    "ctc": lambda: M.build_model(C.CtcConfig(feat_dim=6, hidden=8, layers=2, vocab=5), seed=0),
    "las": lambda: M.build_model(C.LasConfig(feat_dim=6, dim=8, ff_dim=16, heads=2,
                                          enc_blocks=1, dec_blocks=1, vocab=5), seed=0),
}


@pytest.mark.parametrize("family, policy, spec_augment, reuses", [
    ("ctc", "dense-only", False, True),
    ("las", "decoder-only", False, True),
    ("las", "dense-only", False, True),
    ("ctc", "dense-top1", False, False),
    ("ctc", "full", False, False),
    ("ctc", "dense-only", True, False),
    ("las", "decoder-only", True, False),
])
def test_frozen_encoder_output_is_reused_without_changing_a_bit(tmp_path, monkeypatch, family, policy,
                                                                spec_augment, reuses):
    rng = np.random.default_rng(0)
    items = [(rng.normal(size=(t, 6)).astype(np.float32), ids)
             for t, ids in [(8, [0, 1]), (5, [2]), (9, [2, 3, 1]), (7, [4, 0]), (6, [1]), (10, [3, 3])]]
    cfg = _tiny_cfg(batch_size=2, epochs=3, lr=1e-2, spec_augment=spec_augment)  # 3 batches, 9 steps
    cls = type(_MODELS[family]())
    encode, calls = cls.encode, []

    def counted(self, *args):
        calls.append(args)
        return encode(self, *args)

    def never_reused(self, *args):  # an output that requires grad is never kept
        out = counted(self, *args)
        enc, rest = (out[0], out[1:]) if isinstance(out, tuple) else (out, None)
        if not enc.requires_grad:  # frozen encoder: a copy that requires grad gets the same gradients
            enc = Tensor(enc.data.copy(), requires_grad=True)
        return enc if rest is None else (enc,) + rest

    def run(tag, patch):
        monkeypatch.setattr(cls, "encode", patch)
        calls.clear()
        model = _MODELS[family]()
        log, _ = A.train_model(model, items, cfg, A.FreezePolicy.parse(policy).trainable_names(model))
        M.save_checkpoint(tmp_path / f"{tag}.ckpt", model)
        return log, len(calls), (tmp_path / f"{tag}.ckpt").read_bytes()

    log, encodes, ckpt = run("cached", counted)
    ref_log, ref_encodes, ref_ckpt = run("uncached", never_reused)
    assert ckpt == ref_ckpt
    assert [row["loss"] for row in log] == [row["loss"] for row in ref_log]
    assert len(log) == ref_encodes == 9
    assert encodes == (3 if reuses else 9)
    assert [row["encoder_reused"] for row in log] == [reuses and row["step"] >= 3 for row in log]
    assert not any(row["encoder_reused"] for row in ref_log)


def test_training_a_model_built_from_a_checkpoint_leaves_the_checkpoint_as_read(tmp_path):
    M.save_checkpoint(tmp_path / "m.ckpt", _MODELS["ctc"]())
    ckpt = M.load_checkpoint(tmp_path / "m.ckpt")
    read = {name: arr.copy() for name, arr in ckpt.tensors.items()}
    model = ckpt.build_model()
    rng = np.random.default_rng(0)
    items = [(rng.normal(size=(t, 6)).astype(np.float32), ids) for t, ids in [(8, [0, 1]), (9, [2, 3, 1])]]
    A.train_model(model, items, _tiny_cfg(epochs=2, lr=1e-2), list(model.parameters()))
    trained = model.named_tensors()
    assert all(not np.array_equal(trained[n], read[n]) for n in model.parameters())  # training moved every parameter
    assert all(ckpt.tensors[n].tobytes() == read[n].tobytes() for n in read)


def test_dense_only_training_copies_only_the_dense_tensors_of_a_checkpoint(tmp_path):
    M.save_checkpoint(tmp_path / "m.ckpt", _MODELS["ctc"]())
    ckpt = M.load_checkpoint(tmp_path / "m.ckpt")
    model = ckpt.build_model()
    rng = np.random.default_rng(0)
    items = [(rng.normal(size=(t, 6)).astype(np.float32), ids) for t, ids in [(8, [0, 1]), (9, [2, 3, 1])]]
    A.train_model(model, items, _tiny_cfg(epochs=2, lr=1e-2), A.FreezePolicy("dense-only").trainable_names(model))
    shared = {name for name, arr in model.named_tensors().items() if np.shares_memory(arr, ckpt.tensors[name])}
    assert shared == {name for name in ckpt.tensors if not name.startswith("dense.")}


def test_pretrain_deterministic_checkpoints(tmp_path):
    man, tok = _tiny_setup(tmp_path, n=16)
    cfg = _tiny_cfg(epochs=1, spec_augment=True)
    for tag in ("a", "b"):
        model = M.build_model(C.CtcConfig(feat_dim=60, hidden=16, layers=1, vocab=tok.size), seed=cfg.seed)
        A.pretrain(model, man, tok, cfg, tmp_path / f"{tag}.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_zero_epochs_checkpoint_equals_init(tmp_path):
    man, tok = _tiny_setup(tmp_path, n=8)
    model = M.build_model(C.CtcConfig(feat_dim=60, hidden=16, layers=1, vocab=tok.size), seed=5)
    init = {k: v.copy() for k, v in model.named_tensors().items()}
    A.pretrain(model, man, tok, _tiny_cfg(epochs=0), tmp_path / "m.ckpt")
    ckpt = M.load_checkpoint(tmp_path / "m.ckpt")
    for name, arr in init.items():
        assert np.array_equal(arr, ckpt.tensors[name]), name


def _pretrained_ctc(tmp_path, man, tok):
    model = M.build_model(C.CtcConfig(feat_dim=60, hidden=16, layers=2, vocab=tok.size), seed=2)
    A.pretrain(model, man, tok, _tiny_cfg(), tmp_path / "pre.ckpt")
    return tmp_path / "pre.ckpt"


def test_dense_only_finetune_freezes_complement_ctc(tmp_path):
    man, tok = _tiny_setup(tmp_path)
    pre = _pretrained_ctc(tmp_path, man, tok)
    A.finetune(pre, man, tok, A.FreezePolicy.parse("dense-only"),
               _tiny_cfg(lr=1e-3), tmp_path / "ft.ckpt")
    before = M.load_checkpoint(pre).tensors
    after = M.load_checkpoint(tmp_path / "ft.ckpt").tensors
    changed = {n for n in before if not np.array_equal(before[n], after[n])}
    assert changed == {"dense.w", "dense.b"}


def test_dense_top1_finetune_changes_dense_plus_top_lstm(tmp_path):
    man, tok = _tiny_setup(tmp_path)
    pre = _pretrained_ctc(tmp_path, man, tok)
    A.finetune(pre, man, tok, A.FreezePolicy.parse("dense-top1"),
               _tiny_cfg(lr=1e-3), tmp_path / "ft.ckpt")
    before = M.load_checkpoint(pre).tensors
    after = M.load_checkpoint(tmp_path / "ft.ckpt").tensors
    changed = {n for n in before if not np.array_equal(before[n], after[n])}
    assert changed == {"dense.w", "dense.b", "lstm.1.w", "lstm.1.u", "lstm.1.b"}


def _trained_checkpoints(tmp_path, man, tok, family, tag):
    """Paths of the checkpoints of a seeded model pretrained with SpecAugment
    on, then of its fine-tune: a 2-decoder-block LAS model fine-tuned
    decoder-only, or a 2-layer CTC model fine-tuned dense-top1."""
    pre, ft = tmp_path / f"{tag}-pre.ckpt", tmp_path / f"{tag}-ft.ckpt"
    if family == "las":
        cfg, seed, policy = C.LasConfig(feat_dim=60, dim=16, ff_dim=32, heads=2, enc_blocks=1, dec_blocks=2,
                                        vocab=tok.size), 3, "decoder-only"
    else:
        cfg, seed, policy = C.CtcConfig(feat_dim=60, hidden=16, layers=2, vocab=tok.size), 2, "dense-top1"
    A.pretrain(M.build_model(cfg, seed=seed), man, tok, _tiny_cfg(spec_augment=True), pre)
    A.finetune(pre, man, tok, A.FreezePolicy.parse(policy), _tiny_cfg(lr=1e-3), ft)
    return pre, ft


def _trained_checkpoint_bytes(tmp_path, man, tok, family, tag):
    return [path.read_bytes() for path in _trained_checkpoints(tmp_path, man, tok, family, tag)]


def test_fused_lstm_writes_the_checkpoints_of_the_per_frame_tape(tmp_path, monkeypatch):
    """With the per-frame LSTM tape and the log-sum-exp CTC recursion in
    place, training writes the checkpoints it wrote before the fused layer
    and the rescaled recursion; with them, every tensor lies within 1e-6 of
    its largest magnitude of those."""
    man, tok = _tiny_setup(tmp_path, n=16)
    fused = [M.load_checkpoint(path).tensors for path in _trained_checkpoints(tmp_path, man, tok, "ctc", "fused")]
    monkeypatch.setattr(L.LstmLayer, "forward", reference_lstm_forward)
    monkeypatch.setattr(LS, "_lattice_alpha", reference_lattice_alpha)
    per_frame = _trained_checkpoints(tmp_path, man, tok, "ctc", "per-frame")
    assert [checkpoint_digest(path) for path in per_frame] == [
        "26268e16c46e205ad044ef4da2275050f4a1d67a1b345df223aca7aa1e245784",
        "5181c562aa46ff854cd7e0cbd3f50b7c578a883153f84405206e6e51b16e46d7"]
    for tensors, path in zip(fused, per_frame):
        for name, want in M.load_checkpoint(path).tensors.items():
            assert np.abs(tensors[name] - want).max() <= 1e-6 * np.abs(want).max(), name


def test_fused_dense_and_attention_write_the_checkpoints_of_the_op_chain(tmp_path, monkeypatch):
    man, tok = _tiny_setup(tmp_path, n=16)
    fused = _trained_checkpoint_bytes(tmp_path, man, tok, "las", "fused")
    monkeypatch.setattr(L.Dense, "__call__", reference_dense)
    monkeypatch.setattr(L.MultiHeadAttention, "__call__", reference_attention)
    assert _trained_checkpoint_bytes(tmp_path, man, tok, "las", "op-chain") == fused


def test_trained_checkpoints_are_pinned(tmp_path):
    """The value digest of each checkpoint that a few seeded training steps
    write. A change of one ulp in any forward or backward rule changes
    these; the frozen-tensor and loss tests cannot see it. Like the decoding
    digests, they hold for numpy's own OpenBLAS build."""
    man, tok = _tiny_setup(tmp_path, n=16)
    digests = [checkpoint_digest(path)
               for family in ("las", "ctc") for path in _trained_checkpoints(tmp_path, man, tok, family, family)]
    assert digests == ["61ddb8fcf1a400e34b087fbbb54a9da22d5af95bff0b0f28c99f0ca97aa283ce",
                       "f401dc99e3ab6d95af6d659f335f28fc7071102e45c4f49f1f7799af3de8a9fb",
                       "dbf266afb557431aa8a881abb2357e5f6716eca8d2e0449d046d92e29231feb2",
                       "ffdbf444d3b6e2342cd80d51d16feb52e411868fe5484b6752bbf06aa5bbb050"]


def test_finetune_lr_zero_is_identity(tmp_path):
    man, tok = _tiny_setup(tmp_path, n=8)
    pre = _pretrained_ctc(tmp_path, man, tok)
    A.finetune(pre, man, tok, A.FreezePolicy.parse("dense-only"),
               _tiny_cfg(lr=0.0), tmp_path / "ft.ckpt")
    before = M.load_checkpoint(pre).tensors
    after = M.load_checkpoint(tmp_path / "ft.ckpt").tensors
    assert all(np.array_equal(before[n], after[n]) for n in before)


def test_dense_only_finetune_freezes_complement_las(tmp_path):
    man, tok = _tiny_setup(tmp_path, n=16)
    model = M.build_model(C.LasConfig(feat_dim=60, dim=16, ff_dim=32, heads=2,
                                   enc_blocks=1, dec_blocks=1, vocab=tok.size), seed=3)
    A.pretrain(model, man, tok, _tiny_cfg(), tmp_path / "pre.ckpt")

    for policy in ("dense-only", "decoder-only"):
        A.finetune(tmp_path / "pre.ckpt", man, tok, A.FreezePolicy.parse(policy),
                   _tiny_cfg(lr=1e-3), tmp_path / f"{policy}.ckpt")
        before = M.load_checkpoint(tmp_path / "pre.ckpt").tensors
        after = M.load_checkpoint(tmp_path / f"{policy}.ckpt").tensors
        changed = {n for n in before if not np.array_equal(before[n], after[n])}
        assert changed <= set(A.FreezePolicy.parse(policy).trainable_names(model)), policy
        assert "dense.w" in changed, policy
        if policy == "decoder-only":
            assert not any(n.startswith(("encoder.", "enc_norm.", "input_proj.")) for n in changed)


@pytest.mark.parametrize("edit", [lambda f: f[:, :59], lambda f: f[:, 0]], ids=["59-dim", "1-d"])
def test_a_bad_feature_array_fails_pretrain_and_finetune_with_data_error(tmp_path, edit):
    man, tok = _tiny_setup(tmp_path, n=4)
    bad = man.utterances[2]
    path = man.root / bad.features
    save_array(path, np.ascontiguousarray(edit(load_array(path))))
    M.save_checkpoint(tmp_path / "pre.ckpt", M.build_model(C.CtcConfig(feat_dim=60, hidden=8, layers=1,
                                                                       vocab=tok.size), seed=1))
    model = M.load_checkpoint(tmp_path / "pre.ckpt").build_model()
    with pytest.raises(DataError, match=f"utterance {re.escape(repr(bad.id))}"):
        A.pretrain(model, man, tok, _tiny_cfg(), tmp_path / "m.ckpt")
    with pytest.raises(DataError, match=f"utterance {re.escape(repr(bad.id))}"):
        A.finetune(tmp_path / "pre.ckpt", man, tok, A.FreezePolicy.parse("dense-only"), _tiny_cfg(),
                   tmp_path / "ft.ckpt")


@pytest.mark.parametrize("family", ["ctc", "las"])
@pytest.mark.parametrize("spec_augment", [True, False], ids=["specaug", "no-specaug"])
def test_a_zero_frame_feature_cache_fails_training_with_data_error_naming_the_utterance(tmp_path, family,
                                                                                      spec_augment):
    man, tok = _tiny_setup(tmp_path, n=3, domain=ttssim.ADDRESS)
    bad = man.utterances[1]
    save_array(man.root / bad.features, np.zeros((0, S.FEATURE_DIM), dtype=np.float32))
    cfg = (C.CtcConfig(hidden=8, layers=1, vocab=tok.size) if family == "ctc" else
           C.LasConfig(dim=8, ff_dim=16, heads=2, enc_blocks=1, dec_blocks=1, vocab=tok.size))
    with pytest.raises(DataError, match=f"utterance {re.escape(repr(bad.id))}: .* with frames, dim >= 1"):
        A.pretrain(M.build_model(cfg, seed=1), man, tok, _tiny_cfg(spec_augment=spec_augment),
                   tmp_path / "m.ckpt")


@pytest.mark.parametrize("stage", ["finetune", "pretrain"])
def test_finetune_feature_dim_mismatch(tmp_path, stage):
    man, tok = _tiny_setup(tmp_path, n=8)
    model = M.build_model(C.CtcConfig(feat_dim=30, hidden=8, layers=1, vocab=tok.size), seed=1)
    M.save_checkpoint(tmp_path / "bad.ckpt", model)
    with pytest.raises(DataError, match=f"utterance {re.escape(repr(man.utterances[0].id))}: 60-d features, "
                                        "the model expects 30"):
        if stage == "pretrain":
            A.pretrain(model, man, tok, _tiny_cfg(), tmp_path / "out.ckpt")
        else:
            A.finetune(tmp_path / "bad.ckpt", man, tok, A.FreezePolicy.parse("dense-only"),
                       _tiny_cfg(), tmp_path / "out.ckpt")


# -- training-run oracles ------------------------------------------------------------

@pytest.mark.parametrize("layers", [1, 2])
def test_ctc_overfit_single_utterance_greedy_recovers_transcript(tmp_path, layers):
    text = "open the window"
    man = ttssim.build_dataset(ttssim.GENERIC, 1, tmp_path / "one", seed=0,
                               speakers="single", noise=False, texts=[text])
    tok = train_bpe([text], 30)
    model = M.build_model(C.CtcConfig(feat_dim=60, hidden=32, layers=layers, vocab=tok.size), seed=4)
    cfg = C.TrainConfig(batch_size=1, epochs=200, lr=3e-3, seed=4, spec_augment=False)
    A.pretrain(model, man, tok, cfg, tmp_path / "m.ckpt")
    feats = man.features(man.utterances[0])
    hyp = D.ctc_greedy(model.log_probs_single(feats), tok)
    assert hyp.text == text


def test_las_overfit_single_utterance_beam1_recovers_transcript(tmp_path):
    text = "close the door"
    man = ttssim.build_dataset(ttssim.GENERIC, 1, tmp_path / "one", seed=0,
                               speakers="single", noise=False, texts=[text])
    tok = train_bpe([text], 30)
    model = M.build_model(C.LasConfig(feat_dim=60, dim=32, ff_dim=64, heads=2,
                                   enc_blocks=1, dec_blocks=1, vocab=tok.size), seed=5)
    cfg = C.TrainConfig(batch_size=1, epochs=800, lr=2e-4, seed=5,
                        spec_augment=False, label_smoothing=0.0)
    A.pretrain(model, man, tok, cfg, tmp_path / "m.ckpt")
    feats = man.features(man.utterances[0])
    hyps = D.las_beam(model, feats, tok, beam=1, max_len=30)
    assert hyps[0].text == text
