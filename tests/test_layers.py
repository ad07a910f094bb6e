import numpy as np
import pytest

from asrlab import layers as L
from asrlab import tensor as T
from asrlab.errors import ShapeError
from asrlab.tensor import Tensor


def make_lstm(d_in, hidden, seed=0, dtype=np.float64):
    return L.LstmLayer(d_in, hidden, np.random.default_rng(seed), dtype=dtype)


def test_lstm_zero_weights_zero_input_gives_zero_output():
    layer = make_lstm(2, 3)
    for p in layer.parameters().values():
        p.data[:] = 0.0
    xs = [Tensor(np.zeros((1, 2))) for _ in range(4)]
    out = layer.forward(xs)
    # all gates at 0.5/0 -> c stays 0 -> h = o*tanh(0) = 0
    for h in out:
        assert np.allclose(h.data, 0.0)


def test_lstm_matches_hand_rolled_recurrence():
    layer = make_lstm(1, 1)
    wi, wf, wg, wo = 0.5, -0.3, 0.8, 0.2
    ui, uf, ug, uo = 0.1, 0.4, -0.2, 0.7
    bi, bf, bg, bo = 0.05, 1.0, -0.1, 0.3
    layer.w.data[:] = np.array([[wi, wf, wg, wo]])
    layer.u.data[:] = np.array([[ui, uf, ug, uo]])
    layer.b.data[:] = np.array([bi, bf, bg, bo])

    x_seq = [0.7, -1.2]
    out = layer.forward([Tensor(np.array([[v]])) for v in x_seq])

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

    got = [float(t.data[0, 0]) for t in out]
    assert np.allclose(got, expected, atol=1e-6)


def test_lstm_gradients_match_finite_differences():
    layer = make_lstm(2, 3, seed=1)
    xs_data = np.random.default_rng(2).normal(size=(4, 2, 2))

    def loss():
        xs = [Tensor(xs_data[t]) for t in range(4)]
        return T.tsum(T.stack0(layer.forward(xs)))

    params = list(layer.parameters().values())
    assert T.gradient_check(loss, params) <= 1e-3


def test_lstm_forward_shape():
    layer = L.LstmLayer(3, 5, np.random.default_rng(3))
    x = np.random.default_rng(4).normal(size=(6, 2, 3)).astype(np.float32)
    out = layer.forward([Tensor(x[t]) for t in range(6)])
    assert [h.shape for h in out] == [(2, 5)] * 6
    assert T.stack0(out).dtype == np.float32


def test_dense_forward_and_gradient():
    rng = np.random.default_rng(5)
    dense = L.Dense(3, 2, rng, dtype=np.float64)
    x = Tensor(rng.normal(size=(4, 3)), dtype=np.float64)
    err = T.gradient_check(lambda: T.tsum(T.mul(dense(x), dense(x))), list(dense.parameters().values()))
    assert err <= 1e-3


def attention_weights(attn, x, mask=None):
    return attn.weights(attn.project_q(x), attn.project_kv(x, x)[0], mask).data


def test_mha_single_position_softmax_is_identity_path():
    rng = np.random.default_rng(6)
    attn = L.MultiHeadAttention(4, 2, rng, dtype=np.float64)
    x = Tensor(rng.normal(size=(1, 1, 4)), dtype=np.float64)
    out = attn(x, x, x)
    # with a single key the attention weight is exactly 1
    assert np.allclose(attention_weights(attn, x), 1.0)
    v = attn.wv(x)
    expected = attn.wo(v)
    assert np.allclose(out.data, expected.data, atol=1e-12)


def test_causal_mask_first_row_attends_only_to_itself():
    rng = np.random.default_rng(7)
    attn = L.MultiHeadAttention(4, 1, rng, dtype=np.float64)
    x = Tensor(rng.normal(size=(1, 3, 4)), dtype=np.float64)
    row0 = attention_weights(attn, x, L.causal_mask(3))[:, 0, :]
    assert np.allclose(row0, [[1.0, 0.0, 0.0]], atol=1e-12)


def test_mha_two_token_single_head_matches_hand_computation():
    rng = np.random.default_rng(8)
    attn = L.MultiHeadAttention(2, 1, rng, dtype=np.float64)
    x_data = np.array([[[0.3, -0.5], [1.1, 0.4]]])
    x = Tensor(x_data, dtype=np.float64)
    out = attn(x, x, x)

    def affine(lin, v):
        return v @ lin.w.data + lin.b.data

    q = affine(attn.wq, x_data[0])
    k = affine(attn.wk, x_data[0])
    v = affine(attn.wv, x_data[0])
    scores = q @ k.T / np.sqrt(2.0)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    expected = affine(attn.wo, w @ v)
    assert np.allclose(out.data[0], expected, atol=1e-5)


def test_mha_mask_shape_mismatch():
    rng = np.random.default_rng(9)
    attn = L.MultiHeadAttention(4, 2, rng)
    x = Tensor(np.zeros((1, 3, 4), dtype=np.float32))
    with pytest.raises(ShapeError):
        attn(x, x, x, np.zeros((2, 2), dtype=bool))


def test_attention_weights_sum_to_one_over_unmasked_keys():
    rng = np.random.default_rng(10)
    attn = L.MultiHeadAttention(8, 2, rng, dtype=np.float64)
    x = Tensor(rng.normal(size=(2, 5, 8)), dtype=np.float64)
    w = attention_weights(attn, x, L.causal_mask(5))
    assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-6)
    causal = L.causal_mask(5)
    assert np.all(w[:, causal] < 1e-8)


def test_positional_encoding_values_and_range():
    pe = L.positional_encoding(4, 6, dtype=np.float64)
    assert np.allclose(pe[0], [0, 1, 0, 1, 0, 1])
    assert np.isclose(pe[1, 0], np.sin(1.0))
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
    ln = L.LayerNorm(4, dtype=np.float64)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.normal(size=(3, 4)), dtype=np.float64)
    params = [x, ln.gamma, ln.beta]
    err = T.gradient_check(lambda: T.tsum(T.mul(ln(x), w)), params)
    assert err <= 1e-3


def test_encoder_block_gradients():
    rng = np.random.default_rng(13)
    block = L.EncoderBlock(4, 8, 2, rng, dtype=np.float64)
    x = Tensor(rng.normal(size=(1, 3, 4)), dtype=np.float64)
    params = list(block.parameters().values())
    err = T.gradient_check(lambda: T.tsum(T.mul(block(x), block(x))), params)
    assert err <= 1e-3


def test_decoder_block_gradients_and_causality():
    rng = np.random.default_rng(14)
    block = L.DecoderBlock(4, 8, 2, rng, dtype=np.float64)
    x = Tensor(rng.normal(size=(1, 3, 4)), dtype=np.float64)
    mem = Tensor(rng.normal(size=(1, 4, 4)), dtype=np.float64)
    params = list(block.parameters().values())
    err = T.gradient_check(
        lambda: T.tsum(T.mul(block(x, block.cross_attn.project_kv(mem, mem), L.causal_mask(3))[0], 1.0)), params)
    assert err <= 1e-3

    # changing a future input must not affect earlier positions
    mem_kv = block.cross_attn.project_kv(mem, mem)
    out1 = block(x, mem_kv, L.causal_mask(3))[0].data.copy()
    x2_data = x.data.copy()
    x2_data[0, 2] += 5.0
    out2 = block(Tensor(x2_data, dtype=np.float64), mem_kv, L.causal_mask(3))[0].data
    assert np.allclose(out1[0, :2], out2[0, :2], atol=1e-12)
    assert not np.allclose(out1[0, 2], out2[0, 2])


def test_key_padding_mask():
    m = L.key_padding_mask([2, 3], 4)
    assert m.shape == (2, 1, 4)
    assert m[0, 0].tolist() == [False, False, True, True]
    assert m[1, 0].tolist() == [False, False, False, True]
