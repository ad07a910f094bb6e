import hashlib
import json
import struct

import numpy as np
import pytest

from asrlab import config as C
from asrlab import models as M
from asrlab.errors import DataError, ShapeError
from asrlab.losses import cross_entropy, ctc_loss
from asrlab.tensor import Tape


def small_ctc(seed=0):
    return M.build_model(C.CtcConfig(feat_dim=6, hidden=8, layers=2, vocab=5), seed=seed)


def small_las(seed=0):
    return M.build_model(C.LasConfig(feat_dim=6, dim=8, ff_dim=16, heads=2,
                                  enc_blocks=2, dec_blocks=1, vocab=5), seed=seed)


def test_zero_init_ctc_gives_uniform_distribution():
    model = small_ctc()
    for p in model.parameters().values():
        p.data[:] = 0.0
    feats = np.random.default_rng(0).normal(size=(4, 2, 6)).astype(np.float32)
    lp = model.forward(feats)
    assert np.allclose(lp.data, -np.log(6), atol=1e-6)


def test_ctc_forward_shape():
    model = small_ctc()
    for t_len, batch in ((3, 1), (7, 4)):
        feats = np.zeros((t_len, batch, 6), dtype=np.float32)
        assert model.forward(feats).shape == (t_len, batch, 6)


def test_ctc_forward_dim_mismatch():
    model = small_ctc()
    with pytest.raises(ShapeError):
        model.forward(np.zeros((3, 1, 9), dtype=np.float32))


def test_ctc_forward_deterministic():
    model = small_ctc(seed=3)
    feats = np.random.default_rng(1).normal(size=(5, 2, 6)).astype(np.float32)
    a = model.forward(feats).data
    b = model.forward(feats).data
    assert np.array_equal(a, b)


def test_ctc_step_tape_size_does_not_grow_with_frames():
    # each LSTM layer is one tape node, not a handful of nodes per frame
    model = M.build_model(C.ctc_desk(), seed=0)
    rng = np.random.default_rng(4)
    sizes = []
    for t_len in (20, 70):
        feats = rng.normal(size=(t_len, 16, model.cfg.feat_dim)).astype(np.float32)
        with Tape() as tape:
            ctc_loss(model.forward(feats), [[1, 2, 3]] * 16)
        sizes.append(len(tape))
    assert sizes[0] == sizes[1]


def test_las_step_tape_size_is_fixed():
    # each Dense, LayerNorm and attention is one tape node, whatever the frame count and prefix length
    model = M.build_model(C.las_desk(), seed=0)
    rng = np.random.default_rng(5)
    sizes = []
    for t_len in (20, 70):
        for length in (3, 9):
            feats = rng.normal(size=(t_len, 4, model.cfg.feat_dim)).astype(np.float32)
            prefix = rng.integers(0, model.cfg.vocab, size=(4, length))
            prefix[:, 0] = model.bos_id
            with Tape() as tape:
                cross_entropy(model.decode_logits(*model.encode(feats), prefix), np.roll(prefix, -1, axis=1))
            sizes.append(len(tape))
    assert sizes == [53] * 4


def test_las_forward_shapes_and_bos_check():
    model = small_las()
    feats = np.random.default_rng(2).normal(size=(6, 2, 6)).astype(np.float32)
    prefix = np.full((2, 4), 1, dtype=np.int64)
    prefix[:, 0] = model.bos_id
    logits = model.decode_logits(*model.encode(feats), prefix)
    assert logits.shape == (2, 4, 7)  # vocab 5 + BOS + EOS
    with pytest.raises(DataError):
        model.decode_logits(*model.encode(feats), np.ones((2, 4), dtype=np.int64))


def test_las_step0_logits_ignore_later_prefix_tokens():
    model = small_las(seed=5)
    feats = np.random.default_rng(3).normal(size=(5, 1, 6)).astype(np.float32)
    p1 = np.array([[model.bos_id, 0, 1]])
    p2 = np.array([[model.bos_id, 3, 4]])
    memory, pad = model.encode(feats)
    l1 = model.decode_logits(memory, pad, p1).data
    l2 = model.decode_logits(memory, pad, p2).data
    assert np.allclose(l1[0, 0], l2[0, 0], atol=1e-12)
    assert not np.allclose(l1[0, 1], l2[0, 1])


def test_parameter_groups_nesting():
    ctc = small_ctc()
    g = ctc.parameter_groups()
    assert set(g["dense"]) == {"dense.w", "dense.b"}
    assert set(g["dense"]) < set(g["all"])

    las = small_las()
    g = las.parameter_groups()
    assert set(g["dense"]) < set(g["decoder"]) < set(g["all"])
    assert "embed.table" in g["decoder"]
    assert all(n.startswith(("decoder.", "dec_norm.", "embed.", "dense.")) for n in g["decoder"])


ATTN = ["wq.w", "wq.b", "wk.w", "wk.b", "wv.w", "wv.b", "wo.w", "wo.b"]
FF = ["ff.lin1.w", "ff.lin1.b", "ff.lin2.w", "ff.lin2.b"]


def test_parameter_names_and_order_are_pinned():
    # checkpoints store tensors in this order; freeze policies select by these names
    assert list(small_ctc().parameters()) == [
        "lstm.0.w", "lstm.0.u", "lstm.0.b", "lstm.1.w", "lstm.1.u", "lstm.1.b", "dense.w", "dense.b"]
    enc = [f"attn.{n}" for n in ATTN] + FF + ["ln1.gamma", "ln1.beta", "ln2.gamma", "ln2.beta"]
    dec = ([f"self_attn.{n}" for n in ATTN] + [f"cross_attn.{n}" for n in ATTN] + FF
           + ["ln1.gamma", "ln1.beta", "ln2.gamma", "ln2.beta", "ln3.gamma", "ln3.beta"])
    assert list(small_las().parameters()) == (
        ["input_proj.w", "input_proj.b"]
        + [f"encoder.{i}.{n}" for i in range(2) for n in enc]
        + ["enc_norm.gamma", "enc_norm.beta", "embed.table"]
        + [f"decoder.0.{n}" for n in dec]
        + ["dec_norm.gamma", "dec_norm.beta", "dense.w", "dense.b"])


def test_top_lstm_names():
    ctc = small_ctc()
    top1 = ctc.top_lstm_names(1)
    assert top1 == ["lstm.1.w", "lstm.1.u", "lstm.1.b"]


def test_checkpoint_round_trip_bit_identical(tmp_path):
    model = small_ctc(seed=7)
    model.set_normalizer(np.full(6, 2.0, np.float32), np.full(6, 3.0, np.float32))
    path = tmp_path / "m.ckpt"
    M.save_checkpoint(path, model, step=42, rng_state={"x": 1})
    ckpt = M.load_checkpoint(path)
    assert ckpt.step == 42
    assert ckpt.rng_state == {"x": 1}
    for name, arr in model.named_tensors().items():
        assert np.array_equal(arr, ckpt.tensors[name]), name
    rebuilt = ckpt.build_model()
    for name, arr in rebuilt.named_tensors().items():
        assert np.array_equal(arr, model.named_tensors()[name]), name


def test_checkpoint_truncated_and_bad_magic(tmp_path):
    model = small_ctc()
    path = tmp_path / "m.ckpt"
    M.save_checkpoint(path, model)
    raw = path.read_bytes()
    trunc = tmp_path / "t.ckpt"
    trunc.write_bytes(raw[: len(raw) // 3])
    with pytest.raises(DataError):
        M.load_checkpoint(trunc)
    bad = tmp_path / "b.ckpt"
    bad.write_bytes(b"WHAT" + raw[4:])
    with pytest.raises(DataError):
        M.load_checkpoint(bad)


def _move_dense_w(new_offset):
    """Corrupt the index entry of dense.w: new_offset(offset, index_pos)."""
    def corrupt(raw):
        (index_pos,) = struct.unpack("<Q", raw[-8:])
        index = json.loads(raw[index_pos:-8])
        index["dense.w"] = new_offset(index["dense.w"], index_pos)
        return raw[:index_pos] + json.dumps(index).encode() + raw[-8:]
    return corrupt


def _edit_model_config(**changes):
    """Corrupt header config values, keeping the header's byte length."""
    def corrupt(raw):
        (header_len,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + header_len])
        header["model"].update(changes)
        edited = json.dumps(header, separators=(",", ":")).encode()
        assert len(edited) <= header_len
        return raw[:12] + edited.ljust(header_len) + raw[12 + header_len:]
    return corrupt


@pytest.mark.parametrize("model, corrupt", [
    (small_ctc, _move_dense_w(lambda off, end: end + 4)),
    (small_ctc, _move_dense_w(lambda off, end: -4)),
    (small_ctc, _move_dense_w(lambda off, end: str(off))),
    (small_ctc, _move_dense_w(lambda off, end: float(off))),
    (small_ctc, _move_dense_w(lambda off, end: off + 4)),
    (small_ctc, lambda raw: raw.replace(b'"layers"', b'"layerz"', 1)),
    (small_ctc, _edit_model_config(hidden=0)),
    (small_ctc, _edit_model_config(layers=-1)),
    (small_las, _edit_model_config(dim=64, heads=3)),
    (small_ctc, _edit_model_config(vocab="200")),
], ids=["offset-past-blocks", "offset-negative", "offset-string", "offset-float",
        "offset-mid-block", "unknown-config-field", "hidden-zero", "layers-negative",
        "heads-not-dividing-dim", "vocab-string"])
def test_checkpoint_corruption_raises_data_error(tmp_path, model, corrupt):
    path = tmp_path / "m.ckpt"
    M.save_checkpoint(path, model())
    raw = path.read_bytes()
    path.write_bytes(corrupt(raw))
    assert path.read_bytes() != raw
    with pytest.raises(DataError):
        M.load_checkpoint(path)


@pytest.mark.parametrize("cfg", [
    C.ctc_desk(), C.CtcConfig(feat_dim=7, hidden=5, layers=3, vocab=4), C.las_desk(),
    C.LasConfig(feat_dim=7, dim=12, ff_dim=5, heads=3, enc_blocks=3, dec_blocks=2, vocab=4),
], ids=["ctc-desk", "ctc-odd", "las-desk", "las-odd"])
def test_tensor_shapes_name_every_tensor_of_the_built_model(cfg):
    # a listed name that no layer reads would get an all-zero gradient from a full-policy loss
    # (attention key biases get rounding-level gradients only: softmax ignores a shift shared by all keys)
    model = M.build_model(cfg)
    params = model.parameters()
    assert list(params) + ["norm.mean", "norm.std"] == list(M.tensor_shapes(cfg))
    feats = np.random.default_rng(0).normal(size=(12, 2, cfg.feat_dim)).astype(np.float32)
    with Tape() as tape:
        if cfg.kind == "ctc":
            loss = ctc_loss(model.forward(feats), [[1, 2], [3]])
        else:
            prefix = np.array([[model.bos_id, 1, 2], [model.bos_id, 3, 0]])
            target = np.array([[1, 2, model.eos_id], [3, 0, model.eos_id]])
            loss = cross_entropy(model.decode_logits(*model.encode(feats, np.array([12, 9])), prefix), target)
        grads = tape.backward(loss, params.values())
    assert [name for name, g in zip(params, grads) if not np.any(g)] == []


@pytest.mark.parametrize("preset, digest", [
    (C.ctc_desk, "5bcb3bb9d9e8784ae020cdd28d8493afdafc3489d7634489d9fbf04ef072234e"),
    (C.las_desk, "e321bdecb2bfc85c8566eda58c58935453ce31132879073a1d04585de88c57cf"),
], ids=["ctc-desk", "las-desk"])
def test_seeded_initialization_is_pinned(tmp_path, preset, digest):
    # the bytes of a seed-0 desk checkpoint: initial values, their draw order and the file layout
    M.save_checkpoint(tmp_path / "init.ckpt", M.build_model(preset(), seed=0))
    assert hashlib.sha256((tmp_path / "init.ckpt").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("change", [{"layers": 9}, {"hidden": 32}], ids=["layers-2-to-9", "hidden-64-to-32"])
def test_checkpoint_header_not_matching_its_tensors_fails_at_load(tmp_path, monkeypatch, change):
    path = tmp_path / "desk.ckpt"
    M.save_checkpoint(path, M.build_model(C.ctc_desk()))
    path.write_bytes(_edit_model_config(**change)(path.read_bytes()))

    def build_nothing(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(M, "build_model", build_nothing)
    monkeypatch.setattr(M.CtcModel, "__init__", build_nothing)
    with pytest.raises(DataError, match="header's ctc config"):
        M.load_checkpoint(path)


def test_model_config_values_checked_on_construction():
    for preset in (C.ctc_desk, C.las_desk, C.ctc_paper_shapes, C.las_paper_shapes):
        preset()
    for bad in ({"hidden": True}, {"feat_dim": 6.0}, {"kind": "las"}):
        with pytest.raises(DataError):
            C.CtcConfig(**bad)


def test_paper_preset_ctc_dense_shape(tmp_path):
    model = M.build_model(C.ctc_paper_shapes(), seed=0)
    assert len(model.lstms) == 12
    path = tmp_path / "paper.ckpt"
    M.save_checkpoint(path, model)
    ckpt = M.load_checkpoint(path)
    assert ckpt.tensors["dense.w"].shape == (700, 5001)
    assert ckpt.tensors["dense.b"].shape == (5001,)


def test_paper_preset_las_shapes():
    model = M.build_model(C.las_paper_shapes(), seed=0)
    assert len(model.encoder) == 10
    assert len(model.decoder) == 2
    params = model.parameters()
    assert params["dense.w"].shape == (512, 5002)  # 5000 subwords + BOS/EOS
    assert params["encoder.0.attn.wq.w"].shape == (512, 512)
    assert model.cfg.ff_dim == 2048 and model.cfg.heads == 4
