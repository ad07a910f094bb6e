import gc
import io
import warnings
import weakref

import numpy as np
import pytest

from asrlab import tensor as T
from asrlab.errors import NumericError, ShapeError, UsageError
from asrlab.tensor import Tape, Tensor
from oracle_utils import gradient_check, reference_sigmoid


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(a, b)
    assert np.allclose(out.data, [[1, 2], [3, 4]])


def test_matmul_hand():
    out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert np.allclose(out.data, [[11.0]])


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_gradient_matches_finite_difference():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True, dtype=np.float64)
    err = gradient_check(lambda: T.tsum(T.matmul(a, b)), [a, b])
    assert err <= 1e-4


def test_elementwise_gradients():
    rng = np.random.default_rng(1)
    x = Tensor(rng.uniform(0.1, 2.0, size=(3, 3)), requires_grad=True, dtype=np.float64)
    for op in (T.relu, T.softmax, T.log_softmax):
        err = gradient_check(lambda op=op: T.tsum(op(x)), [x])
        assert err <= 1e-4, op.__name__


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_np_matches_masked_form_bit_for_bit(dtype):
    rng = np.random.default_rng(2)
    special = np.array([0.0, -0.0, 1e4, -1e4, 1e-30, -1e-30, 1e-7, -1e-7, 88.5, -88.5, 745.0, -745.0])
    gates = rng.normal(scale=30.0, size=(16, 256)).astype(dtype)
    inputs = [special.astype(dtype), rng.normal(scale=1e-6, size=500).astype(dtype),
              gates, gates[:, :128], gates[:, 192:]]  # the LSTM passes strided gate slices
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for x in inputs:
            y = T.sigmoid_np(x)
            assert y.dtype == dtype and y.tobytes() == reference_sigmoid(x).tobytes()


def test_broadcast_add_mul_row_and_scalar():
    rng = np.random.default_rng(2)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True, dtype=np.float64)
    row = Tensor(rng.normal(size=3), requires_grad=True, dtype=np.float64)

    err = gradient_check(lambda: T.tsum(T.add(a, row)), [a, row])
    assert err <= 1e-4
    err = gradient_check(lambda: T.tsum(T.mul(a, row)), [a, row])
    assert err <= 1e-4
    err = gradient_check(lambda: T.tsum(T.mul(a, 0.7)), [a])
    assert err <= 1e-4

    with pytest.raises(ShapeError):
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


def test_softmax_symmetry_and_stability():
    assert np.allclose(T.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])
    out = T.softmax(Tensor([1000.0, 1000.0]))
    assert np.all(np.isfinite(out.data))
    assert np.allclose(out.data, [0.5, 0.5])


def test_log_softmax_formula():
    x = np.array([1.0, 2.0, 3.0])
    got = T.log_softmax(Tensor(x, dtype=np.float64)).data
    z = np.log(np.exp(1.0) + np.exp(2.0) + np.exp(3.0))
    assert np.allclose(got, x - z, atol=1e-12)


def test_softmax_rows_sum_to_one_and_exp_recovers():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(scale=5.0, size=(6, 9)))
    s = T.softmax(x, axis=-1)
    assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-6)
    ls = T.log_softmax(x, axis=-1)
    assert np.allclose(np.exp(ls.data), s.data, atol=1e-6)


def test_softmax_log_softmax_gradients():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(2, 5)), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.normal(size=(2, 5)), dtype=np.float64)
    err = gradient_check(lambda: T.tsum(T.mul(T.softmax(x), w)), [x])
    assert err <= 1e-4
    err = gradient_check(lambda: T.tsum(T.mul(T.log_softmax(x), w)), [x])
    assert err <= 1e-4


def test_backward_sum_gives_ones():
    w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        (grad,) = tape.backward(T.tsum(w), [w])
    assert np.allclose(grad, np.ones((2, 3)))


def test_backward_quadratic_gives_2w():
    w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        (grad,) = tape.backward(T.tsum(T.mul(w, w)), [w])
    assert np.allclose(grad, 2 * w.data)


def test_backward_on_detached_tensor_is_usage_error():
    w = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        with pytest.raises(UsageError):
            tape.backward(w, [w])


def test_backward_requires_scalar():
    w = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        out = T.mul(w, 2.0)
        with pytest.raises(UsageError):
            tape.backward(out, [w])


def test_backward_carries_nothing_over():
    w = Tensor(np.ones(3), requires_grad=True)
    frozen = Tensor(np.ones(3))
    with Tape() as tape:
        loss = T.tsum(T.mul(w, 3.0))
        first = tape.backward(loss, [w, frozen])
        second = tape.backward(loss, [w, frozen])
    assert np.allclose(first[0], 3.0)
    assert np.array_equal(first[0], second[0])  # a second pass does not add to the first
    assert np.array_equal(first[1], np.zeros(3)) and np.array_equal(second[1], np.zeros(3))


def _mlp_loss(params, x):
    w1, b1, w2, b2, w3, b3 = params
    h = T.softmax(T.add(T.matmul(x, w1), b1))
    h = T.log_softmax(T.add(T.matmul(h, w2), b2))
    out = T.add(T.matmul(h, w3), b3)
    return T.tsum(T.mul(out, out))


def test_random_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(4, 5)), dtype=np.float64)
    params = [
        Tensor(rng.normal(scale=0.5, size=(5, 6)), requires_grad=True, dtype=np.float64),
        Tensor(rng.normal(scale=0.1, size=6), requires_grad=True, dtype=np.float64),
        Tensor(rng.normal(scale=0.5, size=(6, 4)), requires_grad=True, dtype=np.float64),
        Tensor(rng.normal(scale=0.1, size=4), requires_grad=True, dtype=np.float64),
        Tensor(rng.normal(scale=0.5, size=(4, 2)), requires_grad=True, dtype=np.float64),
        Tensor(rng.normal(scale=0.1, size=2), requires_grad=True, dtype=np.float64),
    ]
    err = gradient_check(lambda: _mlp_loss(params, x), params)
    assert err <= 1e-3


def test_backward_is_deterministic():
    rng = np.random.default_rng(6)
    w = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 8)))

    def run():
        with Tape() as tape:
            h = T.log_softmax(T.softmax(T.matmul(x, w)))
            (grad,) = tape.backward(T.tsum(T.mul(h, h)), [w])
        return grad

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_shape_ops_gradients():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64)

    def f():
        y = T.transpose(x, (1, 0, 2))
        y = T.reshape(y, (3, 2, 4))
        y = T.transpose(y, (1, 0, 2))
        return T.tsum(T.mul(y, w))

    assert gradient_check(f, [x]) <= 1e-4


def test_bmm_gradients():
    rng = np.random.default_rng(8)
    a = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True, dtype=np.float64)
    b = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True, dtype=np.float64)
    err = gradient_check(lambda: T.tsum(T.bmm(a, b)), [a, b])
    assert err <= 1e-4


@pytest.mark.parametrize("op, shapes", [(T.matmul, ((3, 4), (4, 2))), (T.bmm, ((2, 3, 4), (2, 4, 5)))],
                         ids=["matmul", "bmm"])
def test_matmul_and_bmm_skip_the_gradient_of_a_frozen_operand(op, shapes):
    rng = np.random.default_rng(11)
    for a_grad, b_grad in ((False, True), (True, False), (True, True)):
        a = Tensor(rng.normal(size=shapes[0]), requires_grad=a_grad)
        b = Tensor(rng.normal(size=shapes[1]), requires_grad=b_grad)
        with Tape() as tape:
            out = op(a, b)
        (_, _, backward), = tape._nodes
        ga, gb = backward(np.ones(out.shape))
        assert (ga is not None, gb is not None) == (a_grad, b_grad)


def test_embedding_gradient():
    rng = np.random.default_rng(9)
    table = Tensor(rng.normal(size=(5, 3)), requires_grad=True, dtype=np.float64)
    ids = np.array([[0, 2], [2, 4]])
    err = gradient_check(lambda: T.tsum(T.mul(T.embedding(table, ids), T.embedding(table, ids))), [table])
    assert err <= 1e-4
    with pytest.raises(ShapeError):
        T.embedding(table, np.array([7]))


def test_ndt_round_trip_and_truncation():
    rng = np.random.default_rng(10)
    arr = rng.normal(size=(3, 4, 5)).astype(np.float32)
    buf = io.BytesIO()
    T.write_array(buf, arr)
    buf.seek(0)
    back = T.read_array(buf)
    assert back.dtype == np.float32
    assert np.array_equal(arr, back)

    raw = buf.getvalue()
    with pytest.raises(NumericError):
        T.read_array(io.BytesIO(raw[: len(raw) // 2]))
    with pytest.raises(NumericError):
        T.read_array(io.BytesIO(b"XXXX" + raw[4:]))
    # a corrupt shape far larger than the payload is truncation, not an allocation
    huge = T.NDT_MAGIC + np.array([2, 2**31, 2**31], dtype="<u4").tobytes() + raw[20:]
    with pytest.raises(NumericError, match="truncated"):
        T.read_array(io.BytesIO(huge))


def test_inference_without_tape_records_nothing():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    out = T.matmul(Tensor(np.ones((2, 2))), w)
    assert not out.requires_grad  # nothing recorded outside a tape


def test_step_activations_are_freed_without_the_cycle_collector():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    gc.disable()
    try:
        with Tape() as tape:
            h = T.relu(T.matmul(Tensor(np.ones((2, 2))), w))
            activation = weakref.ref(h.data)
            out = T.tsum(h)
            tape.backward(out, [w])
        del h, out, tape
        assert activation() is None
    finally:
        gc.enable()


def test_no_tape_records_nothing_inside_a_live_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        with T.no_tape():
            T.mul(x, 2.0)
        assert len(tape) == 0
        y = T.tsum(T.mul(x, 2.0))
        assert len(tape) == 2
        assert np.array_equal(tape.backward(y, [x])[0], [2.0, 2.0, 2.0])
