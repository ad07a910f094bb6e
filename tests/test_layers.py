import numpy as np
import pytest

from asrlab import config as C
from asrlab import layers as L
from asrlab import models as M
from asrlab import tensor as T
from asrlab.errors import ShapeError
from asrlab.tensor import Tape, Tensor
from oracle_utils import (gradient_check, reference_attention, reference_dense, reference_init_tensors,
                          reference_lstm_forward, traced_peak, tsum)


def drawn(cfg, prefix, rng, dtype=np.float64):
    """{name: Tensor} of the tensors of cfg's model under prefix, drawn from
    rng by the models' initializer rule in tensor_shapes order."""
    shapes = {n: s for n, s in M.tensor_shapes(cfg).items() if n.startswith(prefix + ".")}
    return {n: Tensor(a.astype(dtype), requires_grad=True) for n, a in reference_init_tensors(shapes, rng).items()}


def make_lstm(d_in, hidden, rng, dtype=np.float64):
    cfg = C.CtcConfig(feat_dim=int(d_in), hidden=int(hidden), layers=1, vocab=1)
    return L.LstmLayer(drawn(cfg, "lstm.0", rng, dtype), "lstm.0")


def las_tensors(prefix, dim, heads, rng, ff_dim=1, dtype=np.float64):
    cfg = C.LasConfig(feat_dim=1, dim=dim, ff_dim=ff_dim, heads=heads, enc_blocks=1, dec_blocks=1, vocab=1)
    return drawn(cfg, prefix, rng, dtype)


def make_mha(dim, heads, rng, dtype=np.float64):
    return L.MultiHeadAttention(las_tensors("encoder.0.attn", dim, heads, rng, dtype=dtype), "encoder.0.attn", heads)


def test_lstm_zero_weights_zero_input_gives_zero_output():
    layer = make_lstm(2, 3, np.random.default_rng(0))
    for p in (layer.w, layer.u, layer.b):
        p.data[:] = 0.0
    out = layer.forward(Tensor(np.zeros((4, 1, 2))))
    # all gates at 0.5/0 -> c stays 0 -> h = o*tanh(0) = 0
    assert np.allclose(out.data, 0.0)


def test_lstm_matches_hand_rolled_recurrence():
    layer = make_lstm(1, 1, np.random.default_rng(0))
    wi, wf, wg, wo = 0.5, -0.3, 0.8, 0.2
    ui, uf, ug, uo = 0.1, 0.4, -0.2, 0.7
    bi, bf, bg, bo = 0.05, 1.0, -0.1, 0.3
    layer.w.data[:] = np.array([[wi, wf, wg, wo]])
    layer.u.data[:] = np.array([[ui, uf, ug, uo]])
    layer.b.data[:] = np.array([bi, bf, bg, bo])

    x_seq = [0.7, -1.2]
    out = layer.forward(Tensor(np.array(x_seq).reshape(2, 1, 1)))

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    h = c = 0.0
    expected = []
    for x in x_seq:
        i = sig(wi * x + ui * h + bi)
        f = sig(wf * x + uf * h + bf)
        g = np.tanh(wg * x + ug * h + bg)
        o = sig(wo * x + uo * h + bo)
        c = f * c + i * g
        h = o * np.tanh(c)
        expected.append(h)

    got = out.data[:, 0, 0]
    assert np.allclose(got, expected, atol=1e-6)


def test_lstm_gradients_match_finite_differences():
    layer = make_lstm(2, 3, np.random.default_rng(1))
    x = Tensor(np.random.default_rng(2).normal(size=(4, 2, 2)), requires_grad=True)

    def loss():
        return tsum(layer.forward(x))

    params = [x, layer.w, layer.u, layer.b]
    assert gradient_check(loss, params) <= 1e-3


def test_lstm_forward_shape():
    layer = make_lstm(3, 5, np.random.default_rng(3), np.float32)
    x = np.random.default_rng(4).normal(size=(6, 2, 3)).astype(np.float32)
    out = layer.forward(Tensor(x))
    assert out.shape == (6, 2, 5)
    assert out.dtype == np.float32


def test_lstm_backward_holds_the_gate_array_once():
    """The traced peak of one backward through a [96, 16, 64] float32 layer,
    in units of its [T, B, 4H] gate array: the gate factors are formed in
    place and each frame's dz is written over its own factors. 3.07 when the
    factors took a temporary and dz an array of its own, 1.82 since."""
    t_len, batch, d_in, hidden = 96, 16, 60, 64
    rng = np.random.default_rng(0)
    layer = make_lstm(d_in, hidden, rng, np.float32)
    x = Tensor(rng.normal(size=(t_len, batch, d_in)).astype(np.float32), requires_grad=True)
    with Tape() as tape:
        loss = tsum(layer.forward(x))
        grads, peak = traced_peak(lambda: tape.backward(loss, [x, layer.w, layer.u, layer.b]))
    assert all(np.isfinite(g).all() for g in grads)
    gate_bytes = t_len * batch * 4 * hidden * 4
    assert peak < 2.2 * gate_bytes, peak / gate_bytes


def _outputs_and_grads(call, layer_params, inputs, out_weight):
    """The output of call(*inputs) and the gradients of sum(out * out_weight)
    with respect to every input and layer tensor."""
    with Tape() as tape:
        out = call(*inputs)
        loss = tsum(T.mul(out, Tensor(out_weight)))
        return [out.data] + tape.backward(loss, inputs + layer_params)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lstm_layer_matches_per_frame_tape(dtype):
    """The fused layer against the per-frame tape, which adds the input and
    recurrent products in another order and takes the sigmoid directly: the
    output and each gradient lie within tol times max(max |reference|, 1)."""
    tol = 1e-5 if dtype == np.float32 else 1e-12
    rng = np.random.default_rng(11)
    for case in range(160):
        t_len, batch = (1, 1) if case < 8 else (rng.integers(1, 9), rng.integers(1, 5))
        d_in, hidden = rng.integers(1, 6), rng.integers(1, 6)
        layer = make_lstm(d_in, hidden, rng, dtype)
        if case % 3 == 0:  # pre-activations in the tens: many gates round to exactly 1.0
            for p in (layer.w, layer.u, layer.b):
                p.data *= 30.0
        x_data = rng.normal(size=(t_len, batch, d_in)).astype(dtype)
        out_weight = rng.normal(size=(t_len, batch, hidden)).astype(dtype)
        out_weight[rng.random(t_len) < 0.3] = 0.0  # frames the loss ignores, like padding
        x, params = Tensor(x_data, requires_grad=case % 4 != 1), [layer.w, layer.u, layer.b]
        fused = _outputs_and_grads(layer.forward, params, [x], out_weight)
        per_frame = _outputs_and_grads(lambda x: reference_lstm_forward(layer, x), params, [x], out_weight)
        for name, a, b in zip(("out", "x", "w", "u", "b"), fused, per_frame):
            bound = tol * max(float(np.abs(b).max()), 1.0)
            assert a.dtype == b.dtype and np.abs(a - b).max() <= bound, (case, name)


def test_dense_forward_and_gradient():
    rng = np.random.default_rng(5)
    dense = L.Dense(drawn(C.CtcConfig(hidden=3, vocab=1), "dense", rng), "dense")
    x = Tensor(rng.normal(size=(4, 3)), dtype=np.float64)
    err = gradient_check(lambda: tsum(T.mul(dense(x), dense(x))), [dense.w, dense.b])
    assert err <= 1e-3
    with pytest.raises(ShapeError):
        dense(Tensor(np.zeros((4, 5))))


def _freeze_some(tensors, rng):
    """Freeze each tensor with chance 0.3, keeping one of them trainable."""
    trainable = rng.random(len(tensors)) < 0.7
    trainable[rng.integers(len(tensors))] = True
    for t, keep in zip(tensors, trainable):
        t.requires_grad = bool(keep)


def _assert_same_bits(fused, chain, case):
    for i, (a, b) in enumerate(zip(fused, chain, strict=True)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), (case, i)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_dense_matches_the_op_chain_bit_for_bit(dtype):
    rng = np.random.default_rng(15)
    for case in range(60):
        d_in, d_out = (int(n) for n in rng.integers(1, 9, size=2))
        tensors = {"dense.w": Tensor(rng.normal(size=(d_in, d_out)).astype(dtype), requires_grad=True),
                   "dense.b": Tensor(rng.normal(size=d_out).astype(dtype), requires_grad=True)}
        if case % 4 == 3:  # no bias, like the attention key projections
            del tensors["dense.b"]
        dense = L.Dense(tensors, "dense")
        params = list(tensors.values())
        lead = tuple(int(n) for n in rng.integers(1, 5, size=int(rng.integers(1, 4))))
        x = Tensor(rng.normal(size=lead + (d_in,)).astype(dtype), requires_grad=True)
        _freeze_some([x] + params, rng)
        out_weight = rng.normal(size=lead + (d_out,)).astype(dtype)
        fused = _outputs_and_grads(dense, params, [x], out_weight)
        chain = _outputs_and_grads(lambda x: reference_dense(dense, x), params, [x], out_weight)
        _assert_same_bits(fused, chain, case)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_attention_matches_the_op_chain_bit_for_bit(dtype):
    rng = np.random.default_rng(16)
    for case in range(120):
        heads = int(rng.integers(1, 4))
        dim = heads * int(rng.integers(1, 5))
        batch, tq, tk = (int(n) for n in rng.integers(1, 6, size=3))
        attn = make_mha(dim, heads, rng, dtype)
        params = [t for d in (attn.wq, attn.wk, attn.wv, attn.wo) for t in (d.w, d.b) if t is not None]
        q = Tensor(rng.normal(size=(batch, tq, dim)).astype(dtype), requires_grad=True)
        if case % 3 == 0:  # self-attention: one input feeds all three projections
            tk, inputs, mask = tq, [q, q, q], L.causal_mask(tq)
        else:
            kv = Tensor(rng.normal(size=(batch, tk, dim)).astype(dtype), requires_grad=True)
            inputs = [q, kv, kv] if case % 3 == 1 else [q, kv, Tensor(rng.normal(size=kv.shape).astype(dtype))]
            mask = L.key_padding_mask(rng.integers(1, tk + 1, size=batch), tk) if case % 2 else None
        if case >= 8:
            _freeze_some(params + inputs, rng)
        out_weight = rng.normal(size=(batch, tq, dim)).astype(dtype)
        fused = _outputs_and_grads(lambda *x: attn(*x, mask), params, inputs, out_weight)
        chain = _outputs_and_grads(lambda *x: reference_attention(attn, *x, mask), params, inputs, out_weight)
        _assert_same_bits(fused, chain, case)


def attention_weights(attn, x, mask=None):
    fill = None if mask is None else np.where(mask, L.NEG_FILL, 0.0)
    return attn.weights(attn.split(attn.wq.apply(x.data)), attn.split(attn.wk.apply(x.data)), fill)


def test_mha_single_position_softmax_is_identity_path():
    rng = np.random.default_rng(6)
    attn = make_mha(4, 2, rng)
    x = Tensor(rng.normal(size=(1, 1, 4)), dtype=np.float64)
    out = attn(x, x, x)
    # with a single key the attention weight is exactly 1
    assert np.allclose(attention_weights(attn, x), 1.0)
    v = attn.wv(x)
    expected = attn.wo(v)
    assert np.allclose(out.data, expected.data, atol=1e-12)


def test_causal_mask_first_row_attends_only_to_itself():
    rng = np.random.default_rng(7)
    attn = make_mha(4, 1, rng)
    x = Tensor(rng.normal(size=(1, 3, 4)), dtype=np.float64)
    row0 = attention_weights(attn, x, L.causal_mask(3))[:, 0, :]
    assert np.allclose(row0, [[1.0, 0.0, 0.0]], atol=1e-12)


def test_mha_two_token_single_head_matches_hand_computation():
    rng = np.random.default_rng(8)
    attn = make_mha(2, 1, rng)
    x_data = np.array([[[0.3, -0.5], [1.1, 0.4]]])
    x = Tensor(x_data, dtype=np.float64)
    out = attn(x, x, x)

    def affine(lin, v):
        return v @ lin.w.data + lin.b.data

    q = affine(attn.wq, x_data[0])
    k = x_data[0] @ attn.wk.w.data  # keys take no bias
    v = affine(attn.wv, x_data[0])
    scores = q @ k.T / np.sqrt(2.0)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    expected = affine(attn.wo, w @ v)
    assert np.allclose(out.data[0], expected, atol=1e-5)


def test_mha_mask_shape_mismatch():
    rng = np.random.default_rng(9)
    attn = make_mha(4, 2, rng, np.float32)
    x = Tensor(np.zeros((1, 3, 4), dtype=np.float32))
    with pytest.raises(ShapeError):
        attn(x, x, x, np.zeros((2, 2), dtype=bool))


def test_attention_weights_sum_to_one_over_unmasked_keys():
    rng = np.random.default_rng(10)
    attn = make_mha(8, 2, rng)
    x = Tensor(rng.normal(size=(2, 5, 8)), dtype=np.float64)
    w = attention_weights(attn, x, L.causal_mask(5))
    assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-6)
    causal = L.causal_mask(5)
    assert np.all(w[:, causal] < 1e-8)


def test_positional_encoding_values_and_range():
    pe = L.positional_encoding(4, 6)
    assert pe.dtype == np.float32
    assert np.array_equal(pe[0], [0, 1, 0, 1, 0, 1])
    assert pe[1, 0] == np.float32(np.sin(1.0))
    rng = np.random.default_rng(11)
    for _ in range(5):
        t = int(rng.integers(1, 50))
        d = int(rng.integers(1, 20)) * 2
        p = L.positional_encoding(t, d)
        assert np.all(p <= 1.0) and np.all(p >= -1.0)
    with pytest.raises(ShapeError):
        L.positional_encoding(3, 5)


def test_layer_norm_gradients():
    rng = np.random.default_rng(12)
    ln = L.LayerNorm(las_tensors("enc_norm", 4, 1, rng), "enc_norm")  # ones and zeros: no draws
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.normal(size=(3, 4)), dtype=np.float64)
    params = [x, ln.gamma, ln.beta]
    err = gradient_check(lambda: tsum(T.mul(ln(x), w)), params)
    assert err <= 1e-3


def test_encoder_block_gradients():
    rng = np.random.default_rng(13)
    params = las_tensors("encoder.0", 4, 2, rng, ff_dim=8)
    block = L.EncoderBlock(params, "encoder.0", 2)
    x = Tensor(rng.normal(size=(1, 3, 4)), dtype=np.float64)
    params = list(params.values())
    err = gradient_check(lambda: tsum(T.mul(block(x), block(x))), params)
    assert err <= 1e-3


def test_decoder_block_gradients_and_causality():
    rng = np.random.default_rng(14)
    params = las_tensors("decoder.0", 4, 2, rng, ff_dim=8)
    block = L.DecoderBlock(params, "decoder.0", 2)
    x = Tensor(rng.normal(size=(1, 3, 4)), dtype=np.float64)
    mem = Tensor(rng.normal(size=(1, 4, 4)), dtype=np.float64)
    params = list(params.values())
    err = gradient_check(lambda: tsum(T.mul(block(x, mem, L.causal_mask(3)), 1.0)), params)
    assert err <= 1e-3

    # changing a future input must not affect earlier positions
    out1 = block(x, mem, L.causal_mask(3)).data.copy()
    x2_data = x.data.copy()
    x2_data[0, 2] += 5.0
    out2 = block(Tensor(x2_data, dtype=np.float64), mem, L.causal_mask(3)).data
    assert np.allclose(out1[0, :2], out2[0, :2], atol=1e-12)
    assert not np.allclose(out1[0, 2], out2[0, 2])


def test_key_padding_mask():
    m = L.key_padding_mask([2, 3], 4)
    assert m.shape == (2, 1, 4)
    assert m[0, 0].tolist() == [False, False, True, True]
    assert m[1, 0].tolist() == [False, False, False, True]
