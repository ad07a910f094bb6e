import json
import struct

import numpy as np
import pytest

from asrlab import signal, tensor
from asrlab.data import Manifest
from asrlab.errors import DataError
from oracle_utils import traced_peak

GOOD = {"id": "u1", "text": "hi there", "domain": "generic", "speaker_id": "s0", "wav": "u1.wav",
        "duration_s": 1.5}


def _manifest(tmp_path, **change):
    """A one-row manifest: GOOD with the given fields changed."""
    (tmp_path / "manifest.jsonl").write_text(json.dumps({**GOOD, **change}) + "\n")
    return tmp_path / "manifest.jsonl"


@pytest.mark.parametrize("change", [
    {"id": 1},
    {"text": 5},
    {"domain": None},
    {"speaker_id": ["s0"]},
    {"wav": 3},
    {"duration_s": "x"},
    {"duration_s": True},
    {"duration_s": float("nan")},
    {"duration_s": float("inf")},
    {"features": 3},
], ids=["id", "text", "domain", "speaker_id", "wav", "duration-string", "duration-bool", "duration-nan",
        "duration-inf", "features"])
def test_manifest_row_with_a_bad_field_raises_data_error(tmp_path, change):
    (field, value), = change.items()
    utt_id = value if field == "id" else "u1"
    with pytest.raises(DataError, match=f"manifest.jsonl:1: utterance {utt_id!r}: bad {field}"):
        Manifest.read(_manifest(tmp_path, **change))


def test_manifest_that_is_not_utf8_raises_data_error(tmp_path):
    (tmp_path / "manifest.jsonl").write_bytes(b'{"id": "\xff"}\n')
    with pytest.raises(DataError, match="manifest.jsonl: manifest is not UTF-8 text"):
        Manifest.read(tmp_path / "manifest.jsonl")


def test_manifest_row_with_good_fields_reads(tmp_path):
    for change in ({}, {"duration_s": 2}, {"features": "u1.ndt"}):
        (utt,) = Manifest.read(_manifest(tmp_path, **change))
        assert utt.id == "u1" and utt.duration_s == change.get("duration_s", 1.5)
        assert utt.features == change.get("features")


def test_missing_feature_file_raises_data_error_naming_the_utterance(tmp_path):
    man = Manifest.read(_manifest(tmp_path, features="absent.ndt"))
    with pytest.raises(DataError, match="utterance 'u1'"):
        man.features(man.utterances[0])
    (tmp_path / "absent.ndt").write_bytes(b"NDT1\x01")  # truncated
    with pytest.raises(DataError, match="utterance 'u1'"):
        man.features(man.utterances[0])
    tensor.save_array(tmp_path / "absent.ndt", np.zeros((3, 2), dtype=np.float32))
    with open(tmp_path / "absent.ndt", "ab") as fh:
        fh.write(b"\0" * 4)
    with pytest.raises(DataError, match="utterance 'u1': .* bytes after the tensor block"):
        man.features(man.utterances[0])


def test_feature_file_with_a_corrupt_rank_raises_data_error_without_a_large_allocation(tmp_path):
    tensor.save_array(tmp_path / "u1.ndt", np.zeros((3, 2), dtype=np.float32))
    raw = bytearray((tmp_path / "u1.ndt").read_bytes())
    raw[4:8] = struct.pack("<I", 2 ** 28)  # dims of 1 GiB
    (tmp_path / "u1.ndt").write_bytes(raw)
    man = Manifest.read(_manifest(tmp_path, features="u1.ndt"))

    def load():
        with pytest.raises(DataError, match="utterance 'u1'"):
            man.features(man.utterances[0])
    _, peak = traced_peak(load)
    assert peak < 2 ** 20, peak


@pytest.mark.parametrize("shape", [(5,), (4, 3, 2), (0, 60), (5, 0)], ids=["1-d", "3-d", "no-frames", "no-dims"])
def test_feature_array_that_is_not_frames_by_dim_raises_data_error_naming_the_utterance(tmp_path, shape):
    tensor.save_array(tmp_path / "u1.ndt", np.zeros(shape, dtype=np.float32))
    man = Manifest.read(_manifest(tmp_path, features="u1.ndt"))
    with pytest.raises(DataError, match=r"utterance 'u1': .* not \[frames, dim\]"):
        man.features(man.utterances[0])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
def test_feature_array_with_a_non_finite_value_raises_data_error_naming_the_utterance(tmp_path, value):
    feats = np.zeros((4, 3), dtype=np.float32)
    feats[2, 1] = value
    tensor.save_array(tmp_path / "u1.ndt", feats)
    man = Manifest.read(_manifest(tmp_path, features="u1.ndt"))
    with pytest.raises(DataError, match="utterance 'u1': .* non-finite"):
        man.features(man.utterances[0])


def test_raw_log_mel_feature_cache_raises_data_error_and_a_normalized_one_loads(tmp_path):
    # a cache written before the front end normalized per utterance holds stacked log-mels
    wave = 0.1 * np.random.default_rng(0).standard_normal(8000)
    raw = signal.stack(signal.logmel(signal.power_spectrum(signal.frame(wave))))
    tensor.save_array(tmp_path / "u1.ndt", raw.astype(np.float32))
    man = Manifest.read(_manifest(tmp_path, features="u1.ndt"))
    with pytest.raises(DataError, match="utterance 'u1': .* not normalized per utterance"):
        man.features(man.utterances[0])
    tensor.save_array(tmp_path / "u1.ndt", signal.extract_features(wave))
    np.testing.assert_array_equal(man.features(man.utterances[0]), signal.extract_features(wave))


@pytest.mark.parametrize("content", [None, b"", b"not a wav file at all"], ids=["missing", "empty", "not-riff"])
def test_unreadable_wav_raises_data_error_naming_the_utterance(tmp_path, content):
    if content is not None:
        (tmp_path / "u1.wav").write_bytes(content)
    man = Manifest.read(_manifest(tmp_path))
    with pytest.raises(DataError, match="utterance 'u1'"):
        man.features(man.utterances[0])
    with pytest.raises(DataError, match="u1.wav"):
        signal.read_wav(tmp_path / "u1.wav")


def test_wav_at_another_sample_rate_raises_data_error_naming_the_utterance_and_the_rate(tmp_path):
    signal.write_wav(tmp_path / "u1.wav", np.zeros(8000, dtype=np.float32), sample_rate=8000)
    man = Manifest.read(_manifest(tmp_path))
    with pytest.raises(DataError, match="utterance 'u1': u1.wav is sampled at 8000 Hz"):
        man.features(man.utterances[0])


def test_wav_too_short_to_frame_raises_data_error_naming_the_utterance(tmp_path):
    signal.write_wav(tmp_path / "u7.wav", np.zeros(100, dtype=np.float32))
    man = Manifest.read(_manifest(tmp_path, id="u7", wav="u7.wav"))
    with pytest.raises(DataError, match=r"utterance 'u7': waveform too short to frame: \(100,\)"):
        man.features(man.utterances[0])


def test_wav_features_are_extracted_when_no_feature_file_is_listed(tmp_path):
    wave = np.random.default_rng(0).uniform(-0.5, 0.5, size=8000).astype(np.float32)
    signal.write_wav(tmp_path / "u1.wav", wave)
    man = Manifest.read(_manifest(tmp_path))
    samples, _ = signal.read_wav(tmp_path / "u1.wav")
    assert np.array_equal(man.features(man.utterances[0]), signal.extract_features(samples))
