import numpy as np
import pytest

from asrlab import adapt as A
from asrlab import config as C
from asrlab import decode as D
from asrlab import models as M
from asrlab import ttssim
from asrlab.data import Manifest
from asrlab.errors import DataError, UsageError
from asrlab.tensor import Tensor
from asrlab.tokenizer import train_bpe


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
    model = M.CtcModel(C.CtcConfig(feat_dim=6, hidden=8, layers=2, vocab=5))
    with pytest.raises(UsageError):
        A.FreezePolicy.parse("decoder-only").trainable_names(model)


def test_dense_top_k_rejected_on_las():
    model = M.LasModel(C.LasConfig(feat_dim=6, dim=8, ff_dim=16, heads=2,
                                   enc_blocks=1, dec_blocks=1, vocab=5))
    with pytest.raises(UsageError):
        A.FreezePolicy.parse("dense-top1").trainable_names(model)


def test_policy_group_selection():
    model = M.CtcModel(C.CtcConfig(feat_dim=6, hidden=8, layers=3, vocab=5))
    assert set(A.FreezePolicy.parse("dense-only").trainable_names(model)) == {"dense.w", "dense.b"}
    top1 = set(A.FreezePolicy.parse("dense-top1").trainable_names(model))
    assert top1 == {"dense.w", "dense.b", "lstm.2.w", "lstm.2.u", "lstm.2.b"}


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
    state = A.AdamState(["p"])
    before = p.data.copy()
    A.adam_step({"p": p}, state, C.TrainConfig(lr=0.1))
    assert np.array_equal(p.data, before)
    assert state.step == 1
    assert np.all(state.m["p"] == 0) and np.all(state.v["p"] == 0)


def test_adam_first_step_is_minus_lr():
    p = Tensor(np.array([0.0], dtype=np.float64), requires_grad=True)
    p.grad = np.array([1.0])
    state = A.AdamState(["p"])
    A.adam_step({"p": p}, state, C.TrainConfig(lr=0.01, grad_clip=100.0))
    # bias-corrected m/sqrt(v) is 1 at step 1, so the move is ~ -lr
    assert np.isclose(p.data[0], -0.01, rtol=1e-6)


def test_adam_global_norm_clip():
    p = Tensor(np.zeros(4, dtype=np.float64), requires_grad=True)
    p.grad = np.full(4, 5.0)  # norm 10
    state = A.AdamState(["p"])
    A.adam_step({"p": p}, state, C.TrainConfig(lr=1.0, beta1=0.0, beta2=0.0, eps=0.0, grad_clip=1.0))
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
    model = M.CtcModel(C.CtcConfig(feat_dim=60, hidden=32, layers=1, vocab=tok.size), seed=1)
    log = A.pretrain(model, man, tok, _tiny_cfg(epochs=3, lr=3e-3), tmp_path / "m.ckpt",
                     log_path=tmp_path / "log.jsonl")
    per_epoch = A.epoch_mean_losses(log, steps_per_epoch=3)
    assert per_epoch[-1] < per_epoch[0]
    assert (tmp_path / "log.jsonl").exists()


def test_pretrain_deterministic_checkpoints(tmp_path):
    man, tok = _tiny_setup(tmp_path, n=16)
    cfg = _tiny_cfg(epochs=1, spec_augment=True)
    for tag in ("a", "b"):
        model = M.CtcModel(C.CtcConfig(feat_dim=60, hidden=16, layers=1, vocab=tok.size), seed=cfg.seed)
        A.pretrain(model, man, tok, cfg, tmp_path / f"{tag}.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_zero_epochs_checkpoint_equals_init(tmp_path):
    man, tok = _tiny_setup(tmp_path, n=8)
    model = M.CtcModel(C.CtcConfig(feat_dim=60, hidden=16, layers=1, vocab=tok.size), seed=5)
    init = {k: v.copy() for k, v in model.named_tensors().items()}
    A.pretrain(model, man, tok, _tiny_cfg(epochs=0), tmp_path / "m.ckpt")
    ckpt = M.load_checkpoint(tmp_path / "m.ckpt")
    for name, arr in init.items():
        if name.startswith("norm."):
            continue  # normalizer is fitted before training begins
        assert np.array_equal(arr, ckpt.tensors[name]), name


def _pretrained_ctc(tmp_path, man, tok):
    model = M.CtcModel(C.CtcConfig(feat_dim=60, hidden=16, layers=2, vocab=tok.size), seed=2)
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
    model = M.LasModel(C.LasConfig(feat_dim=60, dim=16, ff_dim=32, heads=2,
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
    model = M.CtcModel(C.CtcConfig(feat_dim=30, hidden=8, layers=1, vocab=tok.size), seed=1)
    M.save_checkpoint(tmp_path / "bad.ckpt", model)
    with pytest.raises(DataError):
        A.finetune(tmp_path / "bad.ckpt", man, tok, A.FreezePolicy.parse("dense-only"),
                   _tiny_cfg(), tmp_path / "out.ckpt")


# -- training-run oracles ------------------------------------------------------------

def test_ctc_overfit_single_utterance_greedy_recovers_transcript(tmp_path):
    text = "open the window"
    man = ttssim.build_dataset(ttssim.GENERIC, 1, tmp_path / "one", seed=0,
                               speakers="single", noise=False, texts=[text])
    tok = train_bpe([text], 30)
    model = M.CtcModel(C.CtcConfig(feat_dim=60, hidden=32, layers=1, vocab=tok.size), seed=4)
    cfg = C.TrainConfig(batch_size=1, epochs=200, lr=3e-3, seed=4, spec_augment=False)
    A.pretrain(model, man, tok, cfg, tmp_path / "m.ckpt")
    feats = man.features(man.utterances[0])
    lp = model.log_probs_single(model_feats_normed(feats))
    hyp = D.ctc_greedy(lp, tok)
    assert hyp.text == text


def model_feats_normed(feats):
    # forward() normalizes internally; passthrough helper for clarity
    return feats


def test_las_overfit_single_utterance_beam1_recovers_transcript(tmp_path):
    text = "close the door"
    man = ttssim.build_dataset(ttssim.GENERIC, 1, tmp_path / "one", seed=0,
                               speakers="single", noise=False, texts=[text])
    tok = train_bpe([text], 30)
    model = M.LasModel(C.LasConfig(feat_dim=60, dim=32, ff_dim=64, heads=2,
                                   enc_blocks=1, dec_blocks=1, vocab=tok.size), seed=5)
    cfg = C.TrainConfig(batch_size=1, epochs=800, lr=2e-4, seed=5,
                        spec_augment=False, label_smoothing=0.0)
    A.pretrain(model, man, tok, cfg, tmp_path / "m.ckpt")
    feats = man.features(man.utterances[0])
    hyps = D.las_beam(model, feats, tok, beam=1, max_len=30)
    assert hyps[0].text == text
