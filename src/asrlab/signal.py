"""Waveform front-end: framing, FFT, log-mel features, SpecAugment.

The pipeline is 16 kHz audio -> 20 ms Hann frames with 10 ms hop ->
one-sided power spectrum of numpy's 512-point real FFT (frames
zero-padded) -> 20-bin triangular mel filterbank (HTK mel scale, 0-8 kHz)
-> log -> stacking of 3 consecutive frames with a time stride of 3 ->
per-utterance CMVN: FEATURE_DIM = 60 features, the desk models' input.
Each stage takes only its data: the sizes, and the policy of SpecAugment
(training-time masking of the features), are module constants.
"""

from __future__ import annotations

import wave as _wave

import numpy as np

from .atomic import atomic_write
from .errors import DataError, ShapeError

SAMPLE_RATE = 16000
WIN_SAMPLES = 320   # 20 ms
HOP_SAMPLES = 160   # 10 ms
N_FFT = 512
LOG_FLOOR = 1e-10
MEL_BINS = 20
STACK_K = 3        # frames per stack
STACK_STRIDE = 3   # time downsampling of the stacks
FEATURE_DIM = MEL_BINS * STACK_K
SA_MASK = 8        # SpecAugment: widest time and frequency mask
SA_STRIPES = 1     # SpecAugment: masks per axis


# -- framing -----------------------------------------------------------------

def hann_window(n: int) -> np.ndarray:
    return (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)).astype(np.float64)


def frame(samples: np.ndarray) -> np.ndarray:
    """Slice a waveform into overlapping windowed frames [N, WIN_SAMPLES]."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1 or len(samples) < WIN_SAMPLES:
        raise DataError(f"waveform too short to frame: {samples.shape} < {WIN_SAMPLES} samples")
    frames = np.lib.stride_tricks.sliding_window_view(samples, WIN_SAMPLES)[::HOP_SAMPLES]
    return frames * hann_window(WIN_SAMPLES)


# -- power spectrum ------------------------------------------------------------

def power_spectrum(frames: np.ndarray) -> np.ndarray:
    """One-sided |FFT|^2 of frames zero-padded to N_FFT: [N, N_FFT//2 + 1]."""
    frames = np.atleast_2d(frames)
    if frames.shape[-1] > N_FFT:  # rfft would silently truncate
        raise ShapeError(f"frame longer than FFT size: {frames.shape[-1]} > {N_FFT}")
    spec = np.fft.rfft(frames, n=N_FFT)
    return spec.real ** 2 + spec.imag ** 2


# -- mel filterbank -------------------------------------------------------------

def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (np.power(10.0, np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank() -> np.ndarray:
    """Triangular filters [MEL_BINS, N_FFT//2 + 1] over 0 to SAMPLE_RATE/2, HTK mel spacing."""
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(SAMPLE_RATE / 2), MEL_BINS + 2))
    freqs = np.arange(N_FFT // 2 + 1) * (SAMPLE_RATE / N_FFT)
    fb = np.zeros((MEL_BINS, len(freqs)))
    for m in range(MEL_BINS):
        left, center, right = edges[m], edges[m + 1], edges[m + 2]
        rising = (freqs - left) / max(center - left, 1e-12)
        falling = (right - freqs) / max(right - center, 1e-12)
        fb[m] = np.maximum(0.0, np.minimum(rising, falling))
    return fb


_FILTERBANK = mel_filterbank()


def logmel(power: np.ndarray) -> np.ndarray:
    """log(mel energies + floor); power is [..., N_FFT//2+1]."""
    return np.log(power @ _FILTERBANK.T + LOG_FLOOR)


# -- frame stacking --------------------------------------------------------------

def stack(features: np.ndarray) -> np.ndarray:
    """Concatenate STACK_K consecutive frames, downsampling time by STACK_STRIDE.

    The last window is right-padded by repeating the final frame.
    """
    n, m = features.shape
    count = int(np.ceil(n / STACK_STRIDE))
    idx = np.arange(count)[:, None] * STACK_STRIDE + np.arange(STACK_K)[None, :]
    idx = np.minimum(idx, n - 1)
    return features[idx].reshape(count, STACK_K * m)


# -- spec-augment ------------------------------------------------------------------

def spec_augment(feats: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """SpecAugment's time and frequency masks (Park et al., Interspeech 2019):
    SA_STRIPES time stripes, then SA_STRIPES frequency stripes, each of a
    width drawn from 0 to min(SA_MASK, dim - 1) and filled with the
    utterance's mean, so no axis is ever masked whole."""
    if min(feats.shape) < 1:
        raise DataError(f"SpecAugment needs features with frames and dims, got {feats.shape}")
    out = feats.copy()
    fill = feats.mean()
    for view in (out, out.T):  # rows of out.T are the frequency dims
        dim = len(view)
        for _ in range(SA_STRIPES):
            w = int(rng.integers(0, min(SA_MASK, dim - 1) + 1))
            if w:
                s = int(rng.integers(0, dim - w + 1))
                view[s:s + w] = fill
    return out


# -- end-to-end front-end -------------------------------------------------------------

def cmvn(feats: np.ndarray) -> np.ndarray:
    """Cepstral mean and variance normalization of one utterance (Viikki and
    Laurila, Speech Communication 1998): each dim of feats [frames, dim] gets
    zero mean and unit population std over the frames, the variance floored
    at 1e-10. Any pool of such utterances has zero mean and unit variance
    too, so a model needs no feature statistics of its own. Shifting by the
    first frame first makes a constant dim (silence) exactly zero."""
    shifted = feats - feats[0]
    centered = shifted - shifted.mean(axis=0)
    return centered / np.sqrt(np.maximum((centered * centered).mean(axis=0), 1e-10))


def extract_features(samples: np.ndarray) -> np.ndarray:
    """Waveform -> stacked log-mel FeatureMatrix [frames, FEATURE_DIM],
    normalized per utterance (``cmvn``)."""
    feats = stack(logmel(power_spectrum(frame(samples))))
    if not np.all(np.isfinite(feats)):
        raise DataError("non-finite features produced")
    return cmvn(feats).astype(np.float32)


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
