import numpy as np
import pytest

from asrlab import losses as LS
from asrlab import tensor as T
from asrlab.errors import DataError, NumericError, SkippedUtteranceWarning
from asrlab.losses import cross_entropy, ctc_loss
from asrlab.tensor import Tape, Tensor
from oracle_utils import brute_force_ctc_logp, gradient_check, reference_ctc_forward_backward, traced_peak


def uniform_logprobs(t_len, width, dtype=np.float64):
    return np.full((t_len, 1, width), -np.log(width), dtype=dtype)


def test_ctc_two_frame_uniform_hand_value():
    # T=2, V=1: alignments aa, a-, -a collapse to "a"; each path has p=0.25
    lp = Tensor(uniform_logprobs(2, 2))
    loss = ctc_loss(lp, [[0]])
    assert np.isclose(loss.item(), -np.log(0.75) / 2, atol=1e-12)  # token mean: / (|l| + 1)


def test_ctc_empty_label_is_all_blank_path():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(3, 1, 4))
    lp = Tensor(T.log_softmax_np(logits))
    loss = ctc_loss(lp, [[]])
    expected = -lp.data[:, 0, 3].sum()  # token mean divides by |l| + 1 = 1
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
        lp = T.log_softmax_np(logits)
        loss = ctc_loss(Tensor(lp), [label])
        expected = -brute_force_ctc_logp(lp[:, 0], label, vocab) / (len(label) + 1)
        assert np.isclose(loss.item(), expected, rtol=1e-6, atol=1e-9), (t_len, vocab, label)
        checked += 1


def _reference_ctc_batch(lp, labels, lengths):
    """ctc_loss composed from the per-utterance reference in the same float
    ops: -log p / (|l|+1) and its gradient per admissible utterance, then the
    batch mean."""
    total, used, grad = 0.0, 0, np.zeros_like(lp)
    for i, label in enumerate(labels):
        label, t_len = np.asarray(label, dtype=np.int64), int(lengths[i])
        if LS._ctc_required_frames(label) > t_len:
            continue
        log_p, g = reference_ctc_forward_backward(lp[:t_len, i], label, lp.shape[2] - 1)
        scale = 1.0 / (len(label) + 1)
        total += -log_p * scale
        grad[:t_len, i] = g * scale
        used += 1
    grad /= used
    return np.asarray(total / used, dtype=lp.dtype), grad


def _ctc_loss_and_grad(lp, labels, lengths):
    x = Tensor(lp, requires_grad=True, dtype=lp.dtype)
    with Tape() as tape:
        loss = ctc_loss(x, labels, lengths)
        (grad,) = tape.backward(loss, [x])
    return loss.data, grad


def _assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b) and a.tobytes() == b.tobytes()  # the bytes tell -0.0 from +0.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ctc_forward_backward_matches_reference(dtype):
    """The batched loss against the per-utterance log-sum-exp reference: bit
    for bit in float32, and within 1e-12 (loss relative, gradient absolute)
    in float64, where the rescaled recursion rounds differently."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        batch, t_max, width = int(rng.integers(1, 7)), int(rng.integers(1, 13)), int(rng.integers(2, 7))
        lengths = rng.integers(1, t_max + 1, size=batch)
        lengths[rng.integers(batch)] = t_max
        labels = []
        for t_len in lengths:
            label = []
            for _ in range(int(rng.integers(0, t_len + 1))):  # empty labels included
                repeat = label and rng.random() < 0.3
                label.append(label[-1] if repeat else int(rng.integers(0, width - 1)))
            while LS._ctc_required_frames(np.asarray(label)) > t_len:
                label.pop()
            labels.append(label)
        # about a third of the utterances saturate: logits x30 make one symbol near certain per frame
        sharpness = np.where(rng.random(batch) < 1 / 3, 30.0, 2.0)[None, :, None]
        lp = T.log_softmax_np(rng.normal(size=(t_max, batch, width)) * sharpness).astype(dtype)
        loss, grad = _ctc_loss_and_grad(lp, labels, lengths)
        ref_loss, ref_grad = _reference_ctc_batch(lp, labels, lengths)
        if dtype == np.float32:
            _assert_same_bits(loss, ref_loss)
            _assert_same_bits(grad, ref_grad)
        else:
            assert loss.dtype == ref_loss.dtype and grad.dtype == ref_grad.dtype
            assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
            assert np.abs(grad - ref_grad).max() <= 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ctc_inadmissible_utterance_mid_batch_changes_no_other_bit(dtype):
    rng = np.random.default_rng(6)
    lp = T.log_softmax_np(rng.normal(scale=2.0, size=(7, 3, 4))).astype(dtype)
    labels, lengths = [[0, 1, 1], [2, 2, 2], [1]], [7, 4, 5]  # [2, 2, 2] needs 5 frames
    with pytest.warns(SkippedUtteranceWarning):
        loss, grad = _ctc_loss_and_grad(lp, labels, lengths)
    _assert_same_bits(grad[:, 1], np.zeros_like(grad[:, 1]))
    keep = [0, 2]
    kept_loss, kept_grad = _ctc_loss_and_grad(lp[:, keep], [labels[i] for i in keep], [lengths[i] for i in keep])
    _assert_same_bits(loss, kept_loss)
    _assert_same_bits(grad[:, keep], kept_grad)
    _assert_same_bits(loss, _reference_ctc_batch(lp, labels, lengths)[0])


def test_ctc_batch_mean_and_lengths():
    rng = np.random.default_rng(2)
    lp = T.log_softmax_np(rng.normal(size=(5, 2, 3)))
    single0 = ctc_loss(Tensor(lp[:4, :1]), [[0]], [4]).item()
    single1 = ctc_loss(Tensor(lp[:, 1:]), [[1, 0]], [5]).item()
    batched = ctc_loss(Tensor(lp), [[0], [1, 0]], [4, 5]).item()
    assert np.isclose(batched, 0.5 * (single0 + single1), atol=1e-12)


def test_ctc_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 2, 4)), requires_grad=True, dtype=np.float64)

    def loss():
        lp = T.log_softmax(x)
        return ctc_loss(lp, [[0, 1], [2]], [4, 3])

    assert gradient_check(loss, [x]) <= 1e-3


def test_ctc_loss_holds_each_lattice_array_once():
    """The traced peak of one call on [96, 16, 201] float32 log-probs with
    labels of 10 to 29 tokens, in units of the log-prob array: beta is read
    into the array that becomes the occupancy, exponentiated in place, and the
    lattice arrays go as soon as it is formed. 4.75 when beta, its int64
    gather index, the occupancy and its exponential were arrays of their
    own, 2.57 since."""
    t_len, batch, width = 96, 16, 201
    rng = np.random.default_rng(0)
    lp = Tensor(T.log_softmax_np(rng.normal(size=(t_len, batch, width))).astype(np.float32), requires_grad=True)
    labels = [rng.integers(0, width - 1, size=int(n)) for n in rng.integers(10, 30, size=batch)]
    loss, peak = traced_peak(lambda: ctc_loss(lp, labels))
    assert np.isfinite(loss.item())
    assert peak < 3.2 * lp.data.nbytes, peak / lp.data.nbytes


def test_ctc_analytic_gradient_returned():
    rng = np.random.default_rng(4)
    lp_data = T.log_softmax_np(rng.normal(size=(3, 1, 3)))
    lp = Tensor(lp_data, requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        (grad,) = tape.backward(ctc_loss(lp, [[0]]), [lp])
    _, ref_grad = reference_ctc_forward_backward(lp_data[:, 0], np.array([0]), 2)
    assert np.allclose(grad[:, 0], ref_grad / 2)  # token mean: / (|l| + 1)
    # occupancy rows of -grad sum to one over the vocabulary, before the token mean
    assert np.allclose(-grad.sum(axis=-1) * 2, 1.0, atol=1e-9)


def test_ctc_skips_inadmissible_utterance_with_warning():
    lp = Tensor(uniform_logprobs(2, 3))
    lp2 = Tensor(np.repeat(uniform_logprobs(2, 3), 2, axis=1))
    with pytest.warns(UserWarning):
        loss = ctc_loss(lp2, [[0, 0], [1]], [2, 2])
    only_valid = ctc_loss(lp, [[1]])
    assert np.isclose(loss.item(), only_valid.item())
    with pytest.warns(UserWarning), pytest.raises(DataError):
        ctc_loss(lp, [[0, 0]], [2])


def test_ctc_label_out_of_range():
    lp = Tensor(uniform_logprobs(2, 3))
    with pytest.raises(DataError):
        ctc_loss(lp, [[2]])  # 2 is the blank id


@pytest.mark.parametrize("labels,lengths,match", [
    ([[0]], None, "1 labels"),
    ([[0], [1]], [2], "1 input lengths"),
    ([[0], [1]], [0, 2], "bad input length 0"),
    ([[0], [1]], [2, 3], "bad input length 3"),
    ([[0], [0.5, 1.0]], [2, 2], "utterance 1 is not a 1-d integer"),
    ([[0, [1]], [1]], [2, 2], "utterance 0 is not a 1-d integer"),
    ([[[0], [1]], [1]], [2, 2], "utterance 0 is not a 1-d integer"),
    ([[0], 1], [2, 2], "utterance 1 is not a 1-d integer"),
], ids=["too-few-labels", "too-few-lengths", "zero-length", "length-past-end",
        "float-label", "ragged-label", "2-d-label", "scalar-label"])
def test_ctc_rejects_bad_batch(labels, lengths, match):
    lp = Tensor(np.repeat(uniform_logprobs(2, 3), 2, axis=1))
    with pytest.raises(DataError, match=match):
        ctc_loss(lp, labels, lengths)


def test_ctc_rejects_non_finite_log_probs():
    lp = uniform_logprobs(2, 3)
    lp[1, 0, 0] = np.nan
    with pytest.raises(NumericError):
        ctc_loss(Tensor(lp), [[0]])


def test_ctc_loss_nonnegative_and_decreases_when_overfitting():
    rng = np.random.default_rng(5)
    logits = Tensor(rng.normal(scale=0.1, size=(6, 1, 4)), requires_grad=True, dtype=np.float64)
    label = [[0, 2, 1]]
    losses = []
    for _ in range(50):
        with Tape() as tape:
            loss = ctc_loss(T.log_softmax(logits), label)
            (grad,) = tape.backward(loss, [logits])
        losses.append(loss.item())
        logits.data -= 2.0 * grad
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
    logp = T.log_softmax_np(logits_data)
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
        err = gradient_check(lambda: cross_entropy(x, targets, mask, smoothing=eps), [x])
        assert err <= 1e-3
