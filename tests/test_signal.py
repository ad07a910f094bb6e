import numpy as np
import pytest

from asrlab import signal as S
from asrlab.errors import DataError, ShapeError
from asrlab.ttssim import synth


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
    assert np.allclose(S.power_spectrum(np.array([1.0, 0.0, 0.0, 0.0]), n_fft=4), 1.0, atol=1e-12)
    # a one-sample frame zero-padded to the front-end's FFT size stays flat
    assert np.allclose(S.power_spectrum(np.array([1.0])), np.ones((1, 257)), atol=1e-12)


def test_fft_constant_input():
    c = 0.37
    out = S.power_spectrum(np.full(512, c))[0]
    assert np.isclose(out[0], (512 * c) ** 2, rtol=1e-12)
    assert np.allclose(out[1:], 0.0, atol=1e-9)


def test_fft_matches_naive_dft():
    rng = np.random.default_rng(0)
    for n, n_fft in ((2, 2), (8, 8), (64, 64), (512, 512), (320, 512), (48, 48)):
        x = rng.normal(size=n)
        got = S.power_spectrum(x, n_fft=n_fft)
        # |X_k|^2 <= n * sum(x^2), so this bound is relative to the largest possible bin
        assert np.max(np.abs(got - one_sided_power(x, n_fft))) <= 1e-9 * n * np.sum(x ** 2)


def test_fft_batched_rows_match_single():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 128))
    got = S.power_spectrum(x, n_fft=128)
    for i in range(5):
        assert np.allclose(got[i], S.power_spectrum(x[i], n_fft=128)[0], atol=1e-12)


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
    fb = S.mel_filterbank(20)
    out = S.logmel(np.zeros(257), fb)
    assert np.allclose(out, np.log(1e-10))


def test_mel_filterbank_rows():
    fb = S.mel_filterbank(20)
    assert fb.shape == (20, 257)
    assert np.all(fb >= 0)
    assert np.all(fb.sum(axis=1) > 0)
    with pytest.raises(ShapeError):
        S.mel_filterbank(1)


def test_stack_shapes_and_padding():
    f = np.arange(3 * 80, dtype=np.float64).reshape(3, 80)
    out = S.stack(f, 3, 3)
    assert out.shape == (1, 240)
    assert np.allclose(out[0], f.reshape(-1))

    f4 = np.arange(4 * 2, dtype=np.float64).reshape(4, 2)
    out = S.stack(f4, 3, 3)
    assert out.shape == (2, 6)
    # second window starts at frame 3 and repeats the final frame twice
    assert np.allclose(out[1], np.concatenate([f4[3], f4[3], f4[3]]))

    assert np.array_equal(S.stack(f4, 1, 1), f4)


def test_spec_augment_zero_widths_identity():
    rng = np.random.default_rng(3)
    f = np.random.default_rng(4).normal(size=(10, 6))
    out = S.spec_augment(f, 0, 0, 2, 2, rng)
    assert np.array_equal(out, f)


def test_spec_augment_single_time_stripe():
    f = np.arange(40, dtype=np.float64).reshape(10, 4)
    for seed in range(20):
        out = S.spec_augment(f, 2, 0, 1, 0, np.random.default_rng(seed))
        changed = np.nonzero(np.any(out != f, axis=1))[0]
        if len(changed) == 0:
            continue  # width 0 drawn
        assert len(changed) <= 2
        assert np.all(np.diff(changed) == 1)  # contiguous stripe
        assert np.allclose(out[changed], f.mean())
        untouched = np.setdiff1d(np.arange(10), changed)
        assert np.array_equal(out[untouched], f[untouched])
        break
    else:
        pytest.fail("no non-empty mask drawn in 20 seeds")


def test_spec_augment_masked_fraction_bound():
    f = np.random.default_rng(5).normal(size=(20, 10))
    t_mask, f_mask, n_t, n_f = 4, 2, 2, 1
    bound = n_t * t_mask / 20 + n_f * f_mask / 10
    fractions = []
    for seed in range(1000):
        out = S.spec_augment(f, t_mask, f_mask, n_t, n_f, np.random.default_rng(seed))
        fractions.append(np.mean(out != f))
    assert np.mean(fractions) <= bound * 1.1


def test_extract_features_deterministic_and_shapes():
    rng = np.random.default_rng(6)
    w = rng.uniform(-0.5, 0.5, size=8000).astype(np.float32)
    cfg = S.FrontendConfig(mel_bins=20)
    f1 = S.extract_features(w, cfg)
    f2 = S.extract_features(w, cfg)
    assert np.array_equal(f1, f2)
    n_frames = 1 + (8000 - 320) // 160
    assert f1.shape == (int(np.ceil(n_frames / 3)), 60)
    assert f1.dtype == np.float32


@pytest.mark.parametrize("mel_bins", [20, 80])
def test_extract_features_matches_naive_dft_front_end(mel_bins):
    """Feature tolerance: 1e-5 absolute against a naive-DFT front-end."""
    rng = np.random.default_rng(9)
    waves = [synth("turn left at main street"),
             rng.uniform(-0.5, 0.5, size=6000).astype(np.float32)]
    cfg = S.FrontendConfig(mel_bins=mel_bins)
    fb = S.mel_filterbank(mel_bins)
    for w in waves:
        power = one_sided_power(S.frame(w), S.N_FFT)
        want = S.stack(np.log(power @ fb.T + S.LOG_FLOOR), cfg.stack_k, cfg.stack_stride)
        got = S.extract_features(w, cfg)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-5


def test_feature_normalizer():
    rng = np.random.default_rng(7)
    mats = [rng.normal(loc=3.0, scale=2.0, size=(50, 4)) for _ in range(10)]
    norm = S.FeatureNormalizer.fit(mats)
    normed = np.concatenate([(m - norm.mean) / norm.std for m in mats])
    assert np.allclose(normed.mean(axis=0), 0.0, atol=1e-3)
    assert np.allclose(normed.std(axis=0), 1.0, atol=1e-3)
    with pytest.raises(DataError):
        S.FeatureNormalizer.fit([])


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    w = rng.uniform(-0.9, 0.9, size=4000).astype(np.float32)
    path = tmp_path / "x.wav"
    S.write_wav(path, w)
    back, rate = S.read_wav(path)
    assert rate == 16000
    assert back.shape == w.shape
    assert np.max(np.abs(back - w)) <= 1.0 / 32767.0
