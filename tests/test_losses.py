import numpy as np
import pytest

from asrlab import losses as LS
from asrlab import tensor as T
from asrlab.errors import DataError
from asrlab.losses import CtcBatch, cross_entropy, ctc_loss
from asrlab.tensor import Tape, Tensor
from oracle_utils import brute_force_ctc_logp, reference_ctc_forward_backward


def uniform_logprobs(t_len, width, dtype=np.float64):
    return np.full((t_len, 1, width), -np.log(width), dtype=dtype)


def test_ctc_two_frame_uniform_hand_value():
    # T=2, V=1: alignments aa, a-, -a collapse to "a"; each path has p=0.25
    lp = Tensor(uniform_logprobs(2, 2))
    loss, _ = ctc_loss(CtcBatch(lp, [[0]]))
    assert np.isclose(loss.item(), -np.log(0.75), atol=1e-12)


def test_ctc_empty_label_is_all_blank_path():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(3, 1, 4))
    lp = Tensor(T.log_softmax_np(logits, axis=-1))
    loss, _ = ctc_loss(CtcBatch(lp, [[]]))
    expected = -lp.data[:, 0, 3].sum()
    assert np.isclose(loss.item(), expected, atol=1e-12)


def test_ctc_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 200:
        t_len = int(rng.integers(1, 7))
        vocab = int(rng.integers(1, 4))
        lab_len = int(rng.integers(0, 4))
        label = rng.integers(0, vocab, size=lab_len).tolist()
        if LS._ctc_required_frames(np.asarray(label)) > t_len:
            continue
        logits = rng.normal(scale=2.0, size=(t_len, 1, vocab + 1))
        lp = T.log_softmax_np(logits, axis=-1)
        loss, _ = ctc_loss(CtcBatch(Tensor(lp), [label]))
        expected = -brute_force_ctc_logp(lp[:, 0], label, vocab)
        assert np.isclose(loss.item(), expected, rtol=1e-6, atol=1e-9), (t_len, vocab, label)
        checked += 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ctc_forward_backward_matches_reference_bit_for_bit(dtype):
    rng = np.random.default_rng(5)
    finite = 0
    for _ in range(400):
        t_len = int(rng.integers(1, 13))
        width = int(rng.integers(2, 7))
        label = []
        for _ in range(int(rng.integers(0, t_len + 1))):
            repeat = label and rng.random() < 0.3
            label.append(label[-1] if repeat else int(rng.integers(0, width - 1)))
        label = np.asarray(label, dtype=np.int64)
        lp = T.log_softmax_np(rng.normal(scale=2.0, size=(t_len, width)), axis=-1).astype(dtype)
        log_p, grad = LS._ctc_forward_backward(lp, label, width - 1)
        ref_p, ref_grad = reference_ctc_forward_backward(lp, label, width - 1)
        assert np.array_equal(log_p, ref_p), (t_len, width, label)
        if ref_grad is None:
            assert grad is None
            continue
        assert grad.dtype == ref_grad.dtype == dtype
        assert np.array_equal(grad, ref_grad), (t_len, width, label)
        finite += 1
    assert finite > 200


def test_ctc_batch_mean_and_lengths():
    rng = np.random.default_rng(2)
    lp = T.log_softmax_np(rng.normal(size=(5, 2, 3)), axis=-1)
    single0 = ctc_loss(CtcBatch(Tensor(lp[:4, :1]), [[0]], [4]))[0].item()
    single1 = ctc_loss(CtcBatch(Tensor(lp[:, 1:]), [[1, 0]], [5]))[0].item()
    batched = ctc_loss(CtcBatch(Tensor(lp), [[0], [1, 0]], [4, 5]))[0].item()
    assert np.isclose(batched, 0.5 * (single0 + single1), atol=1e-12)


def test_ctc_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 2, 4)), requires_grad=True, dtype=np.float64)

    def loss():
        lp = T.log_softmax(x, axis=-1)
        out, _ = ctc_loss(CtcBatch(lp, [[0, 1], [2]], [4, 3]))
        return out

    assert T.gradient_check(loss, [x]) <= 1e-3


def test_ctc_analytic_gradient_returned():
    rng = np.random.default_rng(4)
    lp_data = T.log_softmax_np(rng.normal(size=(3, 1, 3)), axis=-1)
    lp = Tensor(lp_data, requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        loss, grad = ctc_loss(CtcBatch(lp, [[0]]))
        tape.backward(loss)
    assert np.allclose(lp.grad, grad)
    # occupancy rows of -grad sum to one over the vocabulary
    assert np.allclose(-grad.sum(axis=-1), 1.0, atol=1e-9)


def test_ctc_skips_inadmissible_utterance_with_warning():
    lp = Tensor(uniform_logprobs(2, 3))
    lp2 = Tensor(np.repeat(uniform_logprobs(2, 3), 2, axis=1))
    with pytest.warns(UserWarning):
        loss, _ = ctc_loss(CtcBatch(lp2, [[0, 0], [1]], [2, 2]))
    only_valid, _ = ctc_loss(CtcBatch(lp, [[1]]))
    assert np.isclose(loss.item(), only_valid.item())
    with pytest.warns(UserWarning), pytest.raises(DataError):
        ctc_loss(CtcBatch(lp, [[0, 0]], [2]))


def test_ctc_label_out_of_range():
    lp = Tensor(uniform_logprobs(2, 3))
    with pytest.raises(DataError):
        ctc_loss(CtcBatch(lp, [[2]]))  # 2 is the blank id


def test_ctc_loss_nonnegative_and_decreases_when_overfitting():
    rng = np.random.default_rng(5)
    logits = Tensor(rng.normal(scale=0.1, size=(6, 1, 4)), requires_grad=True, dtype=np.float64)
    label = [[0, 2, 1]]
    losses = []
    for _ in range(50):
        logits.zero_grad()
        with Tape() as tape:
            lp = T.log_softmax(logits, axis=-1)
            loss, _ = ctc_loss(CtcBatch(lp, label))
            tape.backward(loss)
        losses.append(loss.item())
        logits.data -= 2.0 * logits.grad
    assert all(v >= 0 for v in losses)
    assert losses[-1] < losses[0]
    increases = sum(1 for a, b in zip(losses, losses[1:]) if b > a + 1e-9)
    assert increases == 0


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((2, 3, 4)))
    targets = np.zeros((2, 3), dtype=np.int64)
    loss = cross_entropy(logits, targets)
    assert np.isclose(loss.item(), np.log(4.0), atol=1e-6)


def test_cross_entropy_perfect_logits_approaches_zero():
    logits_data = np.full((1, 2, 3), -50.0)
    logits_data[0, 0, 1] = 50.0
    logits_data[0, 1, 2] = 50.0
    loss = cross_entropy(Tensor(logits_data), np.array([[1, 2]]))
    assert loss.item() < 1e-6


def test_cross_entropy_label_smoothing_hand_formula():
    logits_data = np.array([[[0.4, -0.7]]])
    target = np.array([[0]])
    eps = 0.1
    logp = T.log_softmax_np(logits_data, axis=-1)
    expected = -((1 - eps) * logp[0, 0, 0] + (eps / 2) * logp[0, 0].sum())
    loss = cross_entropy(Tensor(logits_data, dtype=np.float64), target, smoothing=eps)
    assert np.isclose(loss.item(), expected, atol=1e-9)


def test_cross_entropy_mask_and_all_padding_error():
    rng = np.random.default_rng(6)
    logits = Tensor(rng.normal(size=(2, 2, 5)))
    targets = np.array([[1, 2], [3, 4]])
    mask = np.array([[True, False], [True, True]])
    loss = cross_entropy(logits, targets, mask)
    assert np.isfinite(loss.item())
    with pytest.raises(DataError):
        cross_entropy(logits, targets, np.zeros_like(mask))


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(2, 2, 4)), requires_grad=True, dtype=np.float64)
    targets = np.array([[0, 3], [2, 1]])
    mask = np.array([[True, True], [True, False]])
    for eps in (0.0, 0.1):
        err = T.gradient_check(lambda: cross_entropy(x, targets, mask, smoothing=eps), [x])
        assert err <= 1e-3
