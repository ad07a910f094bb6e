import json

import numpy as np
import pytest

from asrlab import signal
from asrlab.data import Manifest
from asrlab.errors import DataError

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


@pytest.mark.parametrize("content", [None, b"", b"not a wav file at all"], ids=["missing", "empty", "not-riff"])
def test_unreadable_wav_raises_data_error_naming_the_utterance(tmp_path, content):
    if content is not None:
        (tmp_path / "u1.wav").write_bytes(content)
    man = Manifest.read(_manifest(tmp_path))
    with pytest.raises(DataError, match="utterance 'u1'"):
        man.features(man.utterances[0])
    with pytest.raises(DataError, match="u1.wav"):
        signal.read_wav(tmp_path / "u1.wav")


def test_wav_features_are_extracted_when_no_feature_file_is_listed(tmp_path):
    wave = np.random.default_rng(0).uniform(-0.5, 0.5, size=8000).astype(np.float32)
    signal.write_wav(tmp_path / "u1.wav", wave)
    man = Manifest.read(_manifest(tmp_path))
    samples, _ = signal.read_wav(tmp_path / "u1.wav")
    assert np.array_equal(man.features(man.utterances[0]), signal.extract_features(samples))
