import hashlib
import io
import json
import struct
import threading

import numpy as np
import pytest

from asrlab import adapt as A
from asrlab import config as C
from asrlab import models as M
from asrlab import tensor as T
from asrlab.errors import DataError, ShapeError, UsageError
from asrlab.losses import cross_entropy, ctc_loss
from asrlab.tensor import Tape, Tensor
from oracle_utils import checkpoint_digest, reference_init_tensors, traced_peak


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


@pytest.mark.parametrize("shape", [(0, 1, 6), (3, 0, 6), (5, 6), (2, 1, 1, 6)],
                         ids=["no-frames", "no-utterances", "2-d", "4-d"])
def test_ctc_encode_rejects_features_not_t_b_d(shape):
    with pytest.raises(ShapeError, match=r"\[T>=1, B>=1, 6\]"):
        small_ctc().encode(np.zeros(shape, dtype=np.float32))


@pytest.mark.parametrize("shape", [(0, 1, 6), (3, 0, 6), (5, 6), (2, 1, 1, 6)],
                         ids=["no-frames", "no-utterances", "2-d", "4-d"])
def test_las_encode_rejects_features_not_t_b_d(shape):
    with pytest.raises(ShapeError, match=r"LAS features must be \[T>=1, B>=1, 6\]"):
        small_las().encode(np.zeros(shape, dtype=np.float32))


@pytest.mark.parametrize("shape", [(0, 6), (6,), (3, 1, 6)], ids=["no-frames", "1-d", "3-d"])
def test_ctc_log_probs_single_rejects_features_not_t_d(shape):
    with pytest.raises(ShapeError, match="CTC features must be"):
        small_ctc().log_probs_single(np.zeros(shape, dtype=np.float32))


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


def _desk_step_loss(model, rng, batch=4, t_len=30, length=6):
    """The loss of one training step of a desk model on a seeded padded batch."""
    feats = rng.normal(size=(t_len, batch, model.cfg.feat_dim)).astype(np.float32)
    lengths = np.linspace(t_len, t_len // 2, batch).astype(np.int64)
    if model.cfg.kind == "ctc":
        return ctc_loss(model.forward(feats), [[1, 2, 3]] * batch, lengths)
    prefix = rng.integers(0, model.cfg.vocab, size=(batch, length))
    prefix[:, 0] = model.bos_id
    return cross_entropy(model.decode_logits(*model.encode(feats, lengths), prefix), np.roll(prefix, -1, axis=1))


def _tensors_held(tape) -> list:
    """Every Tensor that a tape's nodes or the closure cells of their backward
    rules reference, looking one level into tuples and lists."""
    held = []
    for node in tape._nodes:
        for obj in (*node, *(cell.cell_contents for cell in node[-1].__closure__ or ())):
            held += [x for x in (obj if isinstance(obj, (tuple, list)) else (obj,)) if isinstance(x, Tensor)]
    return held


@pytest.mark.parametrize("preset", [C.ctc_desk, C.las_desk], ids=["ctc-desk", "las-desk"])
def test_a_step_tape_holds_no_tensor_but_the_parameters(preset):
    model = M.build_model(preset(), seed=0)
    with Tape() as tape:
        _desk_step_loss(model, np.random.default_rng(6))
    params = {id(p) for p in model.parameters().values()}
    assert len(tape) > 3
    assert [t.shape for t in _tensors_held(tape) if id(t) not in params] == []


@pytest.mark.parametrize("preset", [C.ctc_desk, C.las_desk], ids=["ctc-desk", "las-desk"])
def test_a_second_backward_over_a_step_tape_gives_the_same_bits(preset):
    # backward rules work in arrays of their own: one that wrote into a captured array or into
    # its incoming gradient would change what the second pass reads
    model = M.build_model(preset(), seed=0)
    params = list(model.parameters().values())
    with Tape() as tape:
        loss = _desk_step_loss(model, np.random.default_rng(8))
        first = tape.backward(loss, params)
        second = tape.backward(loss, params)
    assert any(np.any(g != 0) for g in first)
    for a, b in zip(first, second):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_las_desk_step_traced_peak_is_bounded():
    # forward, loss and backward over 16 utterances of up to 120 frames: 35.7 MiB traced when the
    # tape held every output and parent Tensor and the rules captured whole Tensors, 23.0 MiB since
    model = M.build_model(C.las_desk(), seed=0)

    def step():
        with Tape() as tape:
            loss = _desk_step_loss(model, np.random.default_rng(7), batch=16, t_len=120, length=14)
            return tape.backward(loss, list(model.parameters().values()))

    grads, peak = traced_peak(step)
    assert all(np.isfinite(g).all() for g in grads)
    assert peak < 26 * 2**20, peak / 2**20


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


def trainable(model, policy):
    return set(A.FreezePolicy.parse(policy).trainable_names(model))


def test_parameter_groups_nesting():
    ctc = small_ctc()
    assert trainable(ctc, "dense-only") == {"dense.w", "dense.b"}
    assert trainable(ctc, "dense-only") < trainable(ctc, "dense-top1") < trainable(ctc, "full")
    assert A.FreezePolicy.parse("full").trainable_names(ctc) == list(ctc.parameters())

    las = small_las()
    dense, decoder, full = (trainable(las, p) for p in ("dense-only", "decoder-only", "full"))
    assert dense == {"dense.w", "dense.b"}
    assert dense < decoder < full == set(las.parameters())
    assert "embed.table" in decoder
    assert all(n.startswith(("decoder.", "dec_norm.", "embed.", "dense.")) for n in decoder)


ATTN = ["wq.w", "wq.b", "wk.w", "wv.w", "wv.b", "wo.w", "wo.b"]
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
    top1 = trainable(ctc, "dense-top1") - trainable(ctc, "dense-only")
    assert top1 == {"lstm.1.w", "lstm.1.u", "lstm.1.b"}


@pytest.mark.parametrize("preset", [C.ctc_desk, C.las_desk], ids=["ctc-desk", "las-desk"])
def test_every_tensor_of_a_model_is_a_parameter(preset):
    # nothing a model holds is a fitted buffer: the full policy trains every tensor a checkpoint stores
    cfg = preset()
    model = M.build_model(cfg)
    assert A.FreezePolicy("full").trainable_names(model) == list(M.tensor_shapes(cfg))


def test_checkpoint_round_trip_bit_identical(tmp_path):
    model = small_ctc(seed=7)
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


def test_checkpoint_tensors_are_read_only(tmp_path):
    path = tmp_path / "m.ckpt"
    M.save_checkpoint(path, small_ctc())
    ckpt = M.load_checkpoint(path)
    assert not any(arr.flags.writeable for arr in ckpt.tensors.values())
    with pytest.raises(ValueError, match="read-only"):
        ckpt.tensors["dense.w"][0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        ckpt.build_model().parameters()["lstm.0.w"].data += 1.0


def test_checkpoint_tensors_are_views_of_one_read_only_block(tmp_path):
    path = tmp_path / "m.ckpt"
    M.save_checkpoint(path, small_las())
    ckpt = M.load_checkpoint(path)
    block = ckpt.tensors["dense.w"].base
    assert not block.flags.writeable
    assert block.size == sum(arr.size for arr in ckpt.tensors.values())
    for arr in ckpt.tensors.values():
        assert arr.base is block
        with pytest.raises(ValueError):
            arr.flags.writeable = True


def test_building_a_model_from_a_checkpoint_copies_no_tensor(tmp_path):
    path = tmp_path / "m.ckpt"
    M.save_checkpoint(path, M.build_model(C.ctc_desk(), seed=0))
    ckpt = M.load_checkpoint(path)
    tensor_bytes = sum(arr.nbytes for arr in ckpt.tensors.values())
    model, peak = traced_peak(ckpt.build_model)
    assert tensor_bytes > 300_000
    assert peak < 0.05 * tensor_bytes, (peak, tensor_bytes)
    assert all(arr is ckpt.tensors[name] for name, arr in model.named_tensors().items())


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


def test_checkpoint_with_a_corrupt_tensor_rank_raises_data_error_without_a_large_allocation(tmp_path):
    path = tmp_path / "m.ckpt"
    M.save_checkpoint(path, small_ctc())
    raw = bytearray(path.read_bytes())
    (header_len,) = struct.unpack("<I", raw[8:12])
    rank_at = 12 + header_len + 4  # past the first block's magic
    raw[rank_at:rank_at + 4] = struct.pack("<I", 2 ** 28)  # dims of 1 GiB
    path.write_bytes(raw)

    def load():
        with pytest.raises(DataError, match="corrupt checkpoint"):
            M.load_checkpoint(path)
    _, peak = traced_peak(load)
    assert peak < 2 ** 20, peak


def _block_offsets(raw):
    """Name -> byte offset of each tensor block of a checkpoint file."""
    (header_len,) = struct.unpack("<I", raw[8:12])
    cfg = C.model_config_from_dict(json.loads(raw[12:12 + header_len])["model"])
    fh = io.BytesIO(raw)
    fh.seek(12 + header_len)
    offsets = {}
    for name in M.tensor_shapes(cfg):
        offsets[name] = fh.tell()
        T.read_array(fh)
    return offsets


def _swap_dense_w_dims(raw):
    """dense.w's block claims the transposed shape: same byte count, a shape the header disagrees with."""
    offset = _block_offsets(raw)["dense.w"] + 8  # past the block's magic and rank
    rows, cols = struct.unpack("<2I", raw[offset:offset + 8])
    return raw[:offset] + struct.pack("<2I", cols, rows) + raw[offset + 8:]


def _as_version(raw, version):
    """raw with its two version fields set to version, keeping the header's byte length."""
    current = f'"version": {M.CKPT_VERSION}'.encode()
    return raw[:4] + struct.pack("<I", version) + raw[8:].replace(current, f'"version": {version}'.encode(), 1)


def _as_version_1(raw):
    """The same tensors in the version 1 layout: the blocks followed by a
    JSON name -> offset index and the u64 offset of that index."""
    index = json.dumps(_block_offsets(raw), sort_keys=True).encode()
    v1 = _as_version(raw, 1)
    return v1 + index + struct.pack("<Q", len(v1))


def _as_version_2(raw):
    """The same tensors in the version 2 layout: the blocks followed by the
    global normalizer's "norm.mean" and "norm.std" blocks."""
    (header_len,) = struct.unpack("<I", raw[8:12])
    feat_dim = json.loads(raw[12:12 + header_len])["model"]["feat_dim"]
    norm = io.BytesIO()
    T.write_array(norm, np.zeros(feat_dim, np.float32))
    T.write_array(norm, np.ones(feat_dim, np.float32))
    return _as_version(raw, 2) + norm.getvalue()


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


@pytest.mark.parametrize("model, corrupt, message", [
    (small_ctc, lambda raw: raw + b"\0", "bytes after the last tensor"),
    (small_las, _swap_dense_w_dims, "shape"),
    (small_ctc, lambda raw: raw[:-3], "corrupt checkpoint"),
    (small_ctc, _as_version_1, "unsupported checkpoint version 1"),
    (small_ctc, _as_version_2, "unsupported checkpoint version 2"),
    (small_ctc, lambda raw: raw.replace(b'"layers"', b'"layerz"', 1), None),
    (small_ctc, _edit_model_config(hidden=0), None),
    (small_ctc, _edit_model_config(layers=-1), None),
    (small_las, _edit_model_config(dim=64, heads=3), None),
    (small_ctc, _edit_model_config(vocab="200"), None),
    (small_ctc, _edit_model_config(hidden=10**6), "needs"),
], ids=["bytes-after-last-tensor", "block-shape-disagrees-with-header", "cut-mid-block", "version-1", "version-2",
        "unknown-config-field", "hidden-zero", "layers-negative",
        "heads-not-dividing-dim", "vocab-string", "config-larger-than-file"])
def test_checkpoint_corruption_raises_data_error(tmp_path, model, corrupt, message):
    path = tmp_path / "m.ckpt"
    M.save_checkpoint(path, model())
    raw = path.read_bytes()
    path.write_bytes(corrupt(raw))
    assert path.read_bytes() != raw
    with pytest.raises(DataError, match=message):
        M.load_checkpoint(path)


@pytest.mark.parametrize("cfg", [
    C.ctc_desk(), C.CtcConfig(feat_dim=7, hidden=5, layers=3, vocab=4), C.las_desk(),
    C.LasConfig(feat_dim=7, dim=12, ff_dim=5, heads=3, enc_blocks=3, dec_blocks=2, vocab=4),
], ids=["ctc-desk", "ctc-odd", "las-desk", "las-odd"])
def test_tensor_shapes_name_every_tensor_of_the_built_model(cfg):
    # a listed name that no layer reads would get an all-zero gradient from a full-policy loss
    model = M.build_model(cfg)
    params = model.parameters()
    assert list(params) == list(M.tensor_shapes(cfg))
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
    (C.ctc_desk, "48c8d9429ef0d514237790599fea067072808c46b78db0c955008b27192ed900"),
    (C.las_desk, "d5edd8a5825dc0835cb236d0f28d2f3b5fc76c925cb039db937b759e308e515a"),
], ids=["ctc-desk", "las-desk"])
def test_seeded_initialization_is_pinned(tmp_path, preset, digest):
    # the values of a seed-0 desk checkpoint: initial values, their draw order, names and shapes
    M.save_checkpoint(tmp_path / "init.ckpt", M.build_model(preset(), seed=0))
    assert checkpoint_digest(tmp_path / "init.ckpt") == digest


# tensors of several draw chunks each, with the cut between the two threads' halves inside lstm.1.u
SPAN_CUT = C.CtcConfig(feat_dim=40, hidden=300, layers=3, vocab=999)


@pytest.mark.parametrize("cfg", [
    C.ctc_desk(), C.CtcConfig(feat_dim=7, hidden=5, layers=3, vocab=4), C.las_desk(),
    C.LasConfig(feat_dim=7, dim=12, ff_dim=5, heads=3, enc_blocks=3, dec_blocks=2, vocab=4),
    SPAN_CUT, C.ctc_paper_shapes(), C.las_paper_shapes(),
], ids=["ctc-desk", "ctc-odd", "las-desk", "las-odd", "span-cut", "ctc-paper", "las-paper"])
def test_init_tensors_equal_one_sequential_draw(cfg):
    got = M.init_tensors(cfg, seed=3)
    want = reference_init_tensors(M.tensor_shapes(cfg), np.random.default_rng(3))
    assert list(got) == list(want)
    for name, arr in want.items():
        assert got[name].dtype == np.float32 and got[name].shape == arr.shape, name
        assert got[name].tobytes() == arr.tobytes(), name


def test_span_cut_config_draws_on_two_threads_and_cuts_inside_a_tensor():
    sizes = [int(np.prod(s)) for n, s in M.tensor_shapes(SPAN_CUT).items() if n.endswith((".w", ".u"))]
    total = sum(sizes)
    assert total >= M.THREADED_DRAW_CHUNKS * M.DRAW_CHUNK
    assert total // 2 not in np.cumsum(sizes)


def test_a_failed_second_half_raises_on_the_calling_thread(monkeypatch):
    draw_span = M._draw_span

    def fail_second_half(draws, seed, start, stop):
        if start > 0:
            raise MemoryError("no room for the buffer")
        draw_span(draws, seed, start, stop)

    monkeypatch.setattr(M, "_draw_span", fail_second_half)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="no room"):
        M.init_tensors(SPAN_CUT)
    assert threading.active_count() == before


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None], ids=["negative", "float", "bool", "str", "none"])
def test_bad_seed_raises_usage_error(seed):
    with pytest.raises(UsageError, match="seed"):
        M.init_tensors(C.ctc_desk(), seed)
    with pytest.raises(UsageError, match="seed"):
        M.build_model(C.las_desk(), seed)


def test_numpy_int_seed_draws_as_the_int():
    assert M.init_tensors(C.ctc_desk(), np.int64(5))["lstm.0.w"].tobytes() == \
        M.init_tensors(C.ctc_desk(), 5)["lstm.0.w"].tobytes()


def test_paper_shape_draw_holds_no_more_than_its_tensors():
    # two 512 kB fill buffers; drawing each weight whole in float64 first would add its largest draw, 20 MB
    tensors, peak = traced_peak(lambda: M.init_tensors(C.las_paper_shapes(), seed=1))
    tensor_bytes = sum(arr.nbytes for arr in tensors.values())
    assert peak - tensor_bytes < 4 * 2**20, (peak, tensor_bytes)


@pytest.mark.parametrize("preset", [C.ctc_desk, C.ctc_paper_shapes], ids=["desk", "paper"])
def test_build_model_leaves_no_thread_running(preset):
    before = threading.active_count()
    M.build_model(preset(), seed=2)
    assert threading.active_count() == before


def test_checkpoint_file_layout_is_pinned(tmp_path):
    # the bytes of a seed-0 desk checkpoint: a layout change shows here while the value digests hold
    M.save_checkpoint(tmp_path / "init.ckpt", M.build_model(C.ctc_desk(), seed=0))
    assert hashlib.sha256((tmp_path / "init.ckpt").read_bytes()).hexdigest() == "e9bb6c02937377033a9e19787f4bb71876d348a6b053f5797319a21e07923fca"


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
