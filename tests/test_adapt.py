import hashlib
import warnings

import numpy as np
import pytest

from asrlab import adapt as A
from asrlab import config as C
from asrlab import decode as D
from asrlab import layers as L
from asrlab import models as M
from asrlab import ttssim
from asrlab.data import Manifest
from asrlab.errors import DataError, UsageError
from asrlab.losses import ctc_loss
from asrlab.tensor import Tensor
from asrlab.tokenizer import train_bpe
from oracle_utils import reference_attention, reference_dense, reference_lstm_forward


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
    assert top2 == ["dense.w", "dense.b"] + [f"lstm.{i}.{n}" for i in (0, 1) for n in "wub"]
    with pytest.raises(UsageError, match="k <= 2"):
        A.FreezePolicy.parse("dense-top3").trainable_names(model)


# -- config presets ----------------------------------------------------------------

def test_train_presets_take_overrides():
    assert C.pretrain_defaults().lr == 1e-3 and C.finetune_defaults().lr == 1e-4
    cfg = C.finetune_defaults(seed=3, lr=5e-4, epochs=2)
    assert (cfg.lr, cfg.seed, cfg.epochs) == (5e-4, 3, 2)
    assert C.pretrain_defaults(lr=0.0).lr == 0.0


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
    '[16]',
    '{"lr": ',
], ids=["unknown-key", "int-as-string", "int-as-float", "float-as-bool", "bool-as-int", "null",
        "not-an-object", "not-json"])
def test_json_train_config_bad_fields_raise_data_error(tmp_path, text):
    path = tmp_path / "train.json"
    path.write_text(text)
    with pytest.raises(DataError):
        C.load_json_config(path, C.TrainConfig)


# -- Adam -----------------------------------------------------------------------

def test_adam_zero_grads_no_update():
    p = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    state = A.AdamState()
    before = p.data.copy()
    A.adam_step({"p": p}, [np.zeros(2, dtype=np.float32)], state, C.TrainConfig(lr=0.1))
    assert np.array_equal(p.data, before)
    assert state.step == 1
    assert np.all(state.m["p"] == 0) and np.all(state.v["p"] == 0)


def test_adam_first_step_is_minus_lr():
    p = Tensor(np.array([0.0], dtype=np.float64), requires_grad=True)
    state = A.AdamState()
    assert A.adam_step({"p": p}, [np.array([1.0])], state, C.TrainConfig(lr=0.01, grad_clip=100.0)) == 1.0
    # bias-corrected m/sqrt(v) is 1 at step 1, so the move is ~ -lr
    assert np.isclose(p.data[0], -0.01, rtol=1e-6)


def test_adam_global_norm_clip():
    p = Tensor(np.zeros(4, dtype=np.float64), requires_grad=True)
    grad = np.full(4, 5.0)  # norm 10
    state = A.AdamState()
    norm = A.adam_step({"p": p}, [grad], state, C.TrainConfig(lr=1.0, beta1=0.0, beta2=0.0, eps=0.0, grad_clip=1.0))
    assert norm == 10.0  # reported before clipping
    # effective grad scaled by 0.1 -> m = g, v = g^2, update = -lr * sign(g)
    assert np.allclose(state.m["p"], 0.5)


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


class _Items:
    """A dataset of given (feats, ids) items."""

    def __init__(self, items):
        self.items = items

    def __len__(self):
        return len(self.items)


@pytest.mark.parametrize("grad_clip", [1e-6, 1e6])
def test_step_log_reports_grad_norm_clip_and_ctc_skips(grad_clip, monkeypatch):
    rng = np.random.default_rng(0)
    items = [(rng.normal(size=(t, 6)).astype(np.float32), ids) for t, ids in [(8, [0, 1]), (3, [0, 1, 2, 3, 4]), (9, [2])]]
    model = M.build_model(C.CtcConfig(feat_dim=6, hidden=4, layers=1, vocab=5), seed=0)
    cfg = _tiny_cfg(epochs=2, grad_clip=grad_clip)
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        log, _ = A.train_model(model, _Items(items), cfg, list(model.parameters()))
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
        log, _ = A.train_model(model, _Items(items), cfg, list(model.parameters()))
    assert [row["ctc_skipped"] for row in log] == [1, 1]


@pytest.mark.parametrize("make_model", [
    lambda: M.build_model(C.CtcConfig(feat_dim=6, hidden=8, layers=2, vocab=5), seed=0),
    lambda: M.build_model(C.LasConfig(feat_dim=6, dim=8, ff_dim=16, heads=2,
                                   enc_blocks=1, dec_blocks=1, vocab=5), seed=0),
], ids=["ctc", "las"])
def test_step_gradient_is_this_steps_gradient_only(make_model):
    # Adam must see the gradient of the current step alone: step 2 of a run
    # equals step 1 of a fresh run started from the weights after step 1
    rng = np.random.default_rng(0)
    items = _Items([(rng.normal(size=(t, 6)).astype(np.float32), ids) for t, ids in [(8, [0, 1]), (9, [2, 3, 1])]])
    model = make_model()
    two_steps, _ = A.train_model(model, items, _tiny_cfg(epochs=2), list(model.parameters()))
    model = make_model()
    A.train_model(model, items, _tiny_cfg(epochs=1), list(model.parameters()))
    fresh, _ = A.train_model(model, items, _tiny_cfg(epochs=1, lr=0.0), list(model.parameters()))
    assert len(two_steps) == 2 and len(fresh) == 1
    assert two_steps[1]["grad_norm"] == fresh[0]["grad_norm"]


@pytest.mark.parametrize("make_model", [
    lambda: M.build_model(C.CtcConfig(feat_dim=6, hidden=8, layers=2, vocab=5), seed=0),
    lambda: M.build_model(C.LasConfig(feat_dim=6, dim=8, ff_dim=16, heads=2,
                                   enc_blocks=1, dec_blocks=1, vocab=5), seed=0),
], ids=["ctc", "las"])
def test_step_log_splits_wall_time_and_counts_real_frames(make_model):
    rng = np.random.default_rng(0)
    lengths = (8, 5, 9)  # one batch per step: 22 real frames, 27 with padding
    items = _Items([(rng.normal(size=(t, 6)).astype(np.float32), ids) for t, ids in zip(lengths, ([0, 1], [2], [2, 3, 1]))])
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
    items = _Items([(rng.normal(size=(t, 6)).astype(np.float32), ids)
                    for t, ids in [(8, [0, 1]), (5, [2]), (9, [2, 3, 1]), (7, [4, 0]), (6, [1]), (10, [3, 3])]])
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
    items = _Items([(rng.normal(size=(t, 6)).astype(np.float32), ids) for t, ids in [(8, [0, 1]), (9, [2, 3, 1])]])
    A.train_model(model, items, _tiny_cfg(epochs=2, lr=1e-2), list(model.parameters()))
    trained = model.named_tensors()
    assert all(not np.array_equal(trained[n], read[n]) for n in model.parameters())  # training moved every parameter
    assert all(ckpt.tensors[n].tobytes() == read[n].tobytes() for n in read)


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
        if name.startswith("norm."):
            continue  # normalizer is fitted before training begins
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
    """Bytes of a seeded model pretrained with SpecAugment on, then of its
    fine-tune: a 2-decoder-block LAS model fine-tuned decoder-only, or a
    2-layer CTC model fine-tuned dense-top1."""
    pre, ft = tmp_path / f"{tag}-pre.ckpt", tmp_path / f"{tag}-ft.ckpt"
    if family == "las":
        cfg, seed, policy = C.LasConfig(feat_dim=60, dim=16, ff_dim=32, heads=2, enc_blocks=1, dec_blocks=2,
                                        vocab=tok.size), 3, "decoder-only"
    else:
        cfg, seed, policy = C.CtcConfig(feat_dim=60, hidden=16, layers=2, vocab=tok.size), 2, "dense-top1"
    A.pretrain(M.build_model(cfg, seed=seed), man, tok, _tiny_cfg(spec_augment=True), pre)
    A.finetune(pre, man, tok, A.FreezePolicy.parse(policy), _tiny_cfg(lr=1e-3), ft)
    return pre.read_bytes(), ft.read_bytes()


def test_fused_lstm_writes_the_checkpoints_of_the_per_frame_tape(tmp_path, monkeypatch):
    man, tok = _tiny_setup(tmp_path, n=16)
    fused = _trained_checkpoints(tmp_path, man, tok, "ctc", "fused")
    monkeypatch.setattr(L.LstmLayer, "forward", reference_lstm_forward)
    assert _trained_checkpoints(tmp_path, man, tok, "ctc", "per-frame") == fused


def test_fused_dense_and_attention_write_the_checkpoints_of_the_op_chain(tmp_path, monkeypatch):
    man, tok = _tiny_setup(tmp_path, n=16)
    fused = _trained_checkpoints(tmp_path, man, tok, "las", "fused")
    monkeypatch.setattr(L.Dense, "__call__", reference_dense)
    monkeypatch.setattr(L.MultiHeadAttention, "__call__", reference_attention)
    assert _trained_checkpoints(tmp_path, man, tok, "las", "op-chain") == fused


def test_trained_checkpoints_are_pinned(tmp_path):
    """The sha256 of each checkpoint that a few seeded training steps write.
    A change of one ulp in any forward or backward rule changes these; the
    frozen-tensor and loss tests cannot see it. Like the decoding digests,
    they hold for numpy's own OpenBLAS build."""
    man, tok = _tiny_setup(tmp_path, n=16)
    digests = [hashlib.sha256(b).hexdigest()
               for family in ("las", "ctc") for b in _trained_checkpoints(tmp_path, man, tok, family, family)]
    assert digests == ["cb5efd1955b45a513f7234d488bd9ca6a89dea24e08996c6a841e1f05b85840e",
                       "9f620ad4d7ad543bfed95df629d7d3be98f5b4cebfb088cf10b210fc7257cf2e",
                       "067c080589f7aaab5a96a42fb563da47e077421ab29adc65600e8a3cab8b1c5a",
                       "97869b0f3117015d8a896cd0514669b32a2b720bf65b6700eca425810921ff25"]


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
    groups = model.parameter_groups()

    for policy, group in (("dense-only", "dense"), ("decoder-only", "decoder")):
        A.finetune(tmp_path / "pre.ckpt", man, tok, A.FreezePolicy.parse(policy),
                   _tiny_cfg(lr=1e-3), tmp_path / f"{policy}.ckpt")
        before = M.load_checkpoint(tmp_path / "pre.ckpt").tensors
        after = M.load_checkpoint(tmp_path / f"{policy}.ckpt").tensors
        changed = {n for n in before if not np.array_equal(before[n], after[n])}
        assert changed <= set(groups[group]), policy
        assert "dense.w" in changed, policy
        if policy == "decoder-only":
            assert not any(n.startswith(("encoder.", "enc_norm.", "input_proj.")) for n in changed)


def test_finetune_feature_dim_mismatch(tmp_path):
    man, tok = _tiny_setup(tmp_path, n=8)
    model = M.build_model(C.CtcConfig(feat_dim=30, hidden=8, layers=1, vocab=tok.size), seed=1)
    M.save_checkpoint(tmp_path / "bad.ckpt", model)
    with pytest.raises(DataError):
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
