"""Waveform front-end: framing, FFT, log-mel features, spec-augment.

The pipeline is 16 kHz audio -> 20 ms Hann frames with 10 ms hop ->
one-sided power spectrum of numpy's 512-point real FFT (frames
zero-padded) -> triangular mel filterbank (HTK mel scale, 0-8 kHz) ->
log -> stacking of 3 consecutive frames with a time stride of 3. Desk
default is 20 mel bins (60-dim stacked features); the paper-shape
preset uses 80 (240-dim).
"""

from __future__ import annotations

import wave as _wave
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .errors import DataError, ShapeError

SAMPLE_RATE = 16000
WIN_SAMPLES = 320   # 20 ms
HOP_SAMPLES = 160   # 10 ms
N_FFT = 512
LOG_FLOOR = 1e-10


# -- framing -----------------------------------------------------------------

def hann_window(n: int) -> np.ndarray:
    return (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)).astype(np.float64)


def frame(samples: np.ndarray, win: int = WIN_SAMPLES, hop: int = HOP_SAMPLES) -> np.ndarray:
    """Slice a waveform into overlapping windowed frames [N, win]."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1 or len(samples) < win:
        raise DataError(f"waveform too short to frame: {samples.shape} < {win} samples")
    count = 1 + (len(samples) - win) // hop
    idx = np.arange(count)[:, None] * hop + np.arange(win)[None, :]
    return samples[idx] * hann_window(win)


# -- power spectrum ------------------------------------------------------------

def power_spectrum(frames: np.ndarray, n_fft: int = N_FFT) -> np.ndarray:
    """One-sided |FFT|^2 of zero-padded frames: [N, n_fft//2 + 1]."""
    frames = np.atleast_2d(frames)
    if frames.shape[-1] > n_fft:  # rfft would silently truncate
        raise ShapeError(f"frame longer than FFT size: {frames.shape[-1]} > {n_fft}")
    spec = np.fft.rfft(frames, n=n_fft)
    return spec.real ** 2 + spec.imag ** 2


# -- mel filterbank -------------------------------------------------------------

def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (np.power(10.0, np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(mel_bins: int, n_fft: int = N_FFT, sample_rate: int = SAMPLE_RATE,
                   f_min: float = 0.0, f_max: float = 8000.0) -> np.ndarray:
    """Triangular filters [mel_bins, n_fft//2 + 1], HTK mel spacing."""
    if mel_bins < 2:
        raise ShapeError(f"mel_bins must be >= 2, got {mel_bins}")
    edges = mel_to_hz(np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), mel_bins + 2))
    freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    fb = np.zeros((mel_bins, len(freqs)))
    for m in range(mel_bins):
        left, center, right = edges[m], edges[m + 1], edges[m + 2]
        rising = (freqs - left) / max(center - left, 1e-12)
        falling = (right - freqs) / max(right - center, 1e-12)
        fb[m] = np.maximum(0.0, np.minimum(rising, falling))
    return fb


def logmel(power: np.ndarray, filterbank: np.ndarray) -> np.ndarray:
    """log(mel energies + floor); power is [..., n_fft//2+1]."""
    return np.log(power @ filterbank.T + LOG_FLOOR)


# -- frame stacking --------------------------------------------------------------

def stack(features: np.ndarray, k: int = 3, stride: int = 3) -> np.ndarray:
    """Concatenate k consecutive frames, downsampling time by stride.

    The last window is right-padded by repeating the final frame.
    """
    if k < 1 or stride < 1:
        raise ShapeError(f"stack needs k,stride >= 1, got ({k}, {stride})")
    n, m = features.shape
    count = int(np.ceil(n / stride))
    idx = np.arange(count)[:, None] * stride + np.arange(k)[None, :]
    idx = np.minimum(idx, n - 1)
    return features[idx].reshape(count, k * m)


# -- spec-augment ------------------------------------------------------------------

def spec_augment(feats: np.ndarray, t_mask: int, f_mask: int, n_t: int, n_f: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Mask random time/frequency stripes with the per-utterance mean."""
    t_dim, f_dim = feats.shape
    if t_mask >= t_dim or f_mask >= f_dim:
        raise DataError(f"mask widths ({t_mask},{f_mask}) must be smaller than dims ({t_dim},{f_dim})")
    out = feats.copy()
    fill = feats.mean()
    for _ in range(n_t):
        w = int(rng.integers(0, t_mask + 1))
        if w:
            s = int(rng.integers(0, t_dim - w + 1))
            out[s:s + w, :] = fill
    for _ in range(n_f):
        w = int(rng.integers(0, f_mask + 1))
        if w:
            s = int(rng.integers(0, f_dim - w + 1))
            out[:, s:s + w] = fill
    return out


# -- end-to-end front-end -------------------------------------------------------------

@dataclass(frozen=True)
class FrontendConfig:
    mel_bins: int = 20
    stack_k: int = 3
    stack_stride: int = 3

    @property
    def feature_dim(self) -> int:
        return self.mel_bins * self.stack_k


_FBANK_CACHE: dict[int, np.ndarray] = {}


def extract_features(samples: np.ndarray, cfg: FrontendConfig = FrontendConfig()) -> np.ndarray:
    """Waveform -> stacked log-mel FeatureMatrix [frames, mel_bins*stack_k]."""
    fb = _FBANK_CACHE.get(cfg.mel_bins)
    if fb is None:
        fb = mel_filterbank(cfg.mel_bins)
        _FBANK_CACHE[cfg.mel_bins] = fb
    frames = frame(samples)
    mels = logmel(power_spectrum(frames), fb)
    feats = stack(mels, cfg.stack_k, cfg.stack_stride)
    if not np.all(np.isfinite(feats)):
        raise DataError("non-finite features produced")
    return feats.astype(np.float32)


class FeatureNormalizer:
    """Global per-dimension mean/variance normalization."""

    def __init__(self, mean: np.ndarray, std: np.ndarray):
        self.mean = np.asarray(mean, dtype=np.float32)
        self.std = np.asarray(std, dtype=np.float32)

    @classmethod
    def fit(cls, feature_matrices) -> "FeatureNormalizer":
        total = None
        total_sq = None
        count = 0
        for f in feature_matrices:
            f = np.asarray(f, dtype=np.float64)
            if total is None:
                total = f.sum(axis=0)
                total_sq = (f * f).sum(axis=0)
            else:
                total += f.sum(axis=0)
                total_sq += (f * f).sum(axis=0)
            count += f.shape[0]
        if count == 0:
            raise DataError("cannot fit a normalizer on zero frames")
        mean = total / count
        var = np.maximum(total_sq / count - mean * mean, 1e-10)
        return cls(mean, np.sqrt(var))


# -- WAV files (16-bit PCM mono RIFF) ----------------------------------------------------

def write_wav(path, samples: np.ndarray, sample_rate: int = SAMPLE_RATE) -> None:
    samples = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = np.round(samples * 32767.0).astype("<i2")
    with atomic_write(path, "wb") as raw, _wave.open(raw, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(pcm.tobytes())


def read_wav(path) -> tuple[np.ndarray, int]:
    try:
        with _wave.open(str(path), "rb") as fh:
            if fh.getnchannels() != 1 or fh.getsampwidth() != 2:
                raise DataError(f"{path}: expected 16-bit mono PCM")
            rate = fh.getframerate()
            pcm = np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2")
    except (OSError, EOFError, _wave.Error) as exc:
        raise DataError(f"{path}: not a readable WAV file: {exc}") from exc
    return (pcm.astype(np.float32) / 32767.0), rate
