import numpy as np
import pytest

from asrlab import signal as S
from asrlab.errors import DataError, ShapeError
from asrlab.ttssim import NoiseSpec, degrade, synth
from oracle_utils import reference_frame


def naive_dft(x):
    """O(n^2) reference DFT over the last axis, independent of numpy's FFT."""
    x = np.asarray(x, dtype=np.complex128)
    k = np.arange(x.shape[-1])
    return x @ np.exp(-2j * np.pi * np.outer(k, k) / len(k))  # the DFT matrix is symmetric


def test_frame_count_boundary():
    assert S.frame(np.zeros(320)).shape[0] == 1
    assert S.frame(np.zeros(480)).shape[0] == 2
    assert S.frame(np.zeros(16000)).shape[0] == 1 + (16000 - 320) // 160


def test_frame_overlap_is_ten_ms():
    w = np.arange(640, dtype=np.float64)
    frames = S.frame(w)
    win = S.hann_window(320)
    # frame 1 starts at sample 160 -> 160-sample (10 ms) overlap with frame 0
    assert np.allclose(frames[1], w[160:480] * win)


@pytest.mark.parametrize("extra", [0, 1, S.HOP_SAMPLES - 1, S.HOP_SAMPLES, 16000])
def test_frame_equals_index_gather(extra):
    w = np.random.default_rng(extra).uniform(-1.0, 1.0, S.WIN_SAMPLES + extra).astype(np.float32)
    assert S.frame(w).tobytes() == reference_frame(w).tobytes()


def test_frame_too_short():
    with pytest.raises(DataError):
        S.frame(np.zeros(100))


def one_sided_power(x, n_fft):
    """Reference power spectrum: naive DFT of the zero-padded rows."""
    x = np.atleast_2d(x)
    padded = np.zeros((x.shape[0], n_fft))
    padded[:, : x.shape[1]] = x
    return np.abs(naive_dft(padded)[:, : n_fft // 2 + 1]) ** 2


def test_fft_impulse():
    # a unit impulse anywhere in a frame has a flat unit spectrum: |exp(-2 pi i k n / N_FFT)|^2 = 1
    for length, at in ((1, 0), (S.WIN_SAMPLES, 0), (S.WIN_SAMPLES, 37), (S.N_FFT, S.N_FFT - 1)):
        x = np.zeros(length)
        x[at] = 1.0
        assert np.allclose(S.power_spectrum(x), np.ones((1, S.N_FFT // 2 + 1)), atol=1e-12)


def test_fft_constant_input():
    c = 0.37
    out = S.power_spectrum(np.full(512, c))[0]
    assert np.isclose(out[0], (512 * c) ** 2, rtol=1e-12)
    assert np.allclose(out[1:], 0.0, atol=1e-9)


def test_fft_matches_naive_dft():
    rng = np.random.default_rng(0)
    for n in (1, 2, 48, 64, S.WIN_SAMPLES, S.N_FFT):  # frames zero-padded to N_FFT
        x = rng.normal(size=n)
        got = S.power_spectrum(x)
        # |X_k|^2 <= n * sum(x^2), so this bound is relative to the largest possible bin
        assert np.max(np.abs(got - one_sided_power(x, S.N_FFT))) <= 1e-9 * n * np.sum(x ** 2)


def test_fft_batched_rows_match_single():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, S.WIN_SAMPLES))
    got = S.power_spectrum(x)
    for i in range(5):
        assert np.allclose(got[i], S.power_spectrum(x[i])[0], atol=1e-12)


def test_power_spectrum_frame_longer_than_fft_rejected():
    with pytest.raises(ShapeError):
        S.power_spectrum(np.zeros((2, 513)))


def test_parseval():
    rng = np.random.default_rng(2)
    x = rng.normal(size=512)
    p = S.power_spectrum(x)[0]
    # one-sided: interior bins stand for a conjugate pair, DC and Nyquist for themselves
    lhs = (p[0] + p[-1] + 2.0 * np.sum(p[1:-1])) / 512
    rhs = np.sum(x ** 2)
    assert abs(lhs - rhs) <= 1e-9 * rhs


def test_mel_scale_known_point():
    assert abs(S.hz_to_mel(700.0) - 781.17) <= 0.01


def test_logmel_zero_spectrum_floor():
    out = S.logmel(np.zeros(S.N_FFT // 2 + 1))
    assert np.allclose(out, np.log(1e-10))


def test_mel_filterbank_rows():
    fb = S.mel_filterbank()
    assert fb.shape == (S.MEL_BINS, S.N_FFT // 2 + 1) == (20, 257)
    assert np.all(fb >= 0)
    assert np.all(fb.sum(axis=1) > 0)


def test_stack_shapes_and_padding():
    assert (S.STACK_K, S.STACK_STRIDE) == (3, 3)
    f = np.arange(3 * 80, dtype=np.float64).reshape(3, 80)
    out = S.stack(f)
    assert out.shape == (1, 240)
    assert np.allclose(out[0], f.reshape(-1))

    f4 = np.arange(4 * 2, dtype=np.float64).reshape(4, 2)
    out = S.stack(f4)
    assert out.shape == (2, 6)
    # second window starts at frame 3 and repeats the final frame twice
    assert np.allclose(out[1], np.concatenate([f4[3], f4[3], f4[3]]))


def reference_spec_augment(feats, rng):
    """SpecAugment with its widths written out: SA_STRIPES time stripes of
    width 0..min(SA_MASK, T - 1), then as many frequency stripes of width
    0..min(SA_MASK, F - 1), each at a uniform start, filled with the mean."""
    t_dim, f_dim = feats.shape
    t_mask, f_mask = min(S.SA_MASK, t_dim - 1), min(S.SA_MASK, f_dim - 1)
    out = feats.copy()
    for _ in range(S.SA_STRIPES):
        w = int(rng.integers(0, t_mask + 1))
        if w:
            start = int(rng.integers(0, t_dim - w + 1))
            out[start:start + w, :] = feats.mean()
    for _ in range(S.SA_STRIPES):
        w = int(rng.integers(0, f_mask + 1))
        if w:
            start = int(rng.integers(0, f_dim - w + 1))
            out[:, start:start + w] = feats.mean()
    return out


# shapes with at most SA_MASK frames or dims clamp the mask to dim - 1
SA_SHAPES = [(1, 1), (1, S.FEATURE_DIM), (2, S.FEATURE_DIM), (S.SA_MASK, S.FEATURE_DIM),
             (S.SA_MASK + 1, S.FEATURE_DIM), (40, S.FEATURE_DIM), (30, 2), (30, S.SA_MASK), (5, 3)]


@pytest.mark.parametrize("shape", SA_SHAPES, ids=[f"{t}x{d}" for t, d in SA_SHAPES])
def test_spec_augment_matches_reference(shape):
    f = np.random.default_rng(7).normal(size=shape).astype(np.float32)
    for seed in range(30):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = S.spec_augment(f, rng)
        assert got.dtype == f.dtype
        assert got.tobytes() == reference_spec_augment(f, ref_rng).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state  # same draws, in the same order


def test_spec_augment_zero_widths_identity():
    # one frame of one dim: both masks clamp to width 0
    f = np.array([[0.3]])
    assert np.array_equal(S.spec_augment(f, np.random.default_rng(3)), f)


def test_spec_augment_single_time_stripe():
    assert S.SA_STRIPES == 1
    for t_dim in (2, S.SA_MASK, 20):
        f = np.random.default_rng(t_dim).normal(size=(t_dim, 6))
        widths = set()
        for seed in range(40):
            out = S.spec_augment(f, np.random.default_rng(seed))
            rows = np.nonzero(np.all(out == f.mean(), axis=1))[0]  # time-masked rows
            if len(rows):
                assert np.all(np.diff(rows) == 1)  # one contiguous stripe
            # outside the time stripe only whole columns (the frequency stripe) change
            keep = np.setdiff1d(np.arange(t_dim), rows)
            changed = out[keep] != f[keep]
            assert np.array_equal(changed, np.broadcast_to(changed.any(axis=0), changed.shape))
            widths.add(len(rows))
        assert max(widths) == min(S.SA_MASK, t_dim - 1)  # never the whole utterance


def test_spec_augment_masked_fraction_bound():
    t_dim, f_dim = 20, 10
    f = np.random.default_rng(5).normal(size=(t_dim, f_dim))
    bound = S.SA_STRIPES * (min(S.SA_MASK, t_dim - 1) / t_dim + min(S.SA_MASK, f_dim - 1) / f_dim)
    fractions = []
    for seed in range(1000):
        out = S.spec_augment(f, np.random.default_rng(seed))
        fractions.append(np.mean(out != f))
    assert np.mean(fractions) <= bound * 1.1


@pytest.mark.parametrize("shape", [(0, S.FEATURE_DIM), (5, 0)], ids=["no-frames", "no-dims"])
def test_spec_augment_rejects_empty_features(shape):
    with pytest.raises(DataError, match="SpecAugment needs features"):
        S.spec_augment(np.zeros(shape, dtype=np.float32), np.random.default_rng(0))


def test_extract_features_deterministic_and_shapes():
    rng = np.random.default_rng(6)
    w = rng.uniform(-0.5, 0.5, size=8000).astype(np.float32)
    f1 = S.extract_features(w)
    f2 = S.extract_features(w)
    assert np.array_equal(f1, f2)
    n_frames = 1 + (8000 - 320) // 160
    assert f1.shape == (int(np.ceil(n_frames / S.STACK_STRIDE)), S.FEATURE_DIM)
    assert S.FEATURE_DIM == S.MEL_BINS * S.STACK_K == 60
    assert f1.dtype == np.float32


def test_extract_features_matches_naive_dft_front_end():
    """Feature tolerance: 1e-5 absolute against a naive-DFT front-end."""
    rng = np.random.default_rng(9)
    waves = [synth("turn left at main street"),
             rng.uniform(-0.5, 0.5, size=6000).astype(np.float32)]
    fb = S.mel_filterbank()
    for w in waves:
        power = one_sided_power(S.frame(w), S.N_FFT)
        stacked = S.stack(np.log(power @ fb.T + S.LOG_FLOOR))
        want = (stacked - stacked.mean(axis=0)) / stacked.std(axis=0)
        got = S.extract_features(w)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-5


def _clean_and_noisy(text, seed):
    clean = synth(text)
    return clean, degrade(clean, NoiseSpec(), np.random.default_rng(seed))


def test_extract_features_are_cmvn_normalized_per_utterance():
    # per dimension over one utterance's frames: zero mean and unit population std
    for wave in _clean_and_noisy("turn left at main street", 3):
        feats = S.extract_features(wave).astype(np.float64)
        assert np.max(np.abs(feats.mean(axis=0))) <= 1e-6
        assert np.max(np.abs(feats.std(axis=0) - 1.0)) <= 1e-5


def test_silent_waveform_gives_finite_zero_features():
    for n in (8000, 16000, 33333):
        feats = S.extract_features(np.zeros(n, dtype=np.float32))
        assert feats.dtype == np.float32 and np.all(np.isfinite(feats))
        assert np.all(feats == 0.0)


def test_cmvn_features_pool_to_zero_mean_unit_std():
    # what a global normalizer fitted on CMVN features would hold: nothing to undo
    texts = ["open the window", "call home", "set a timer for ten minutes", "play some music",
             "navigate to one two three oak avenue", "what is the weather"]
    waves = [w for i, text in enumerate(texts) for w in _clean_and_noisy(text, i)]
    pooled = np.concatenate([S.extract_features(w) for w in waves]).astype(np.float64)
    assert np.max(np.abs(pooled.mean(axis=0))) <= 1e-6
    assert np.max(np.abs(pooled.std(axis=0) - 1.0)) <= 1e-6


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    w = rng.uniform(-0.9, 0.9, size=4000).astype(np.float32)
    path = tmp_path / "x.wav"
    S.write_wav(path, w)
    back, rate = S.read_wav(path)
    assert rate == 16000
    assert back.shape == w.shape
    assert np.max(np.abs(back - w)) <= 1.0 / 32767.0
