import hashlib

import numpy as np
import pytest

from asrlab import signal as S
from asrlab import ttssim as TS
from asrlab.data import Manifest
from asrlab.errors import DataError
from asrlab.tensor import save_array
from oracle_utils import reference_synth


def test_sample_text_address_shape():
    texts = TS.sample_text(TS.ADDRESS, 50, seed=0)
    for t in texts:
        words = t.split(" ")
        assert 5 <= len(words) <= 9, t
        assert t == t.lower()
        assert all(all(c in TS.CHARSET for c in w) for w in words), t


def test_sample_text_deterministic():
    a = TS.sample_text(TS.GENERIC, 30, seed=7)
    b = TS.sample_text(TS.GENERIC, 30, seed=7)
    assert a == b
    c = TS.sample_text(TS.GENERIC, 30, seed=8)
    assert a != c


def test_lexicon_overlap_below_forty_percent():
    assert TS.lexicon_overlap(TS.ADDRESS, TS.GENERIC) < 0.4
    assert TS.lexicon_overlap(TS.VOICESEARCH, TS.GENERIC) < 0.4


def test_synth_duration():
    w = TS.synth("abcde")  # 5 phonemes at rate 1.0
    dur = len(w) / S.SAMPLE_RATE
    assert abs(dur - 5 * TS.PHONEME_S) <= 5 * TS.CROSSFADE_S


def test_synth_deterministic():
    a = TS.synth("main street", TS.TTS1)
    b = TS.synth("main street", TS.TTS1)
    assert np.array_equal(a, b)


def test_synth_rejects_bad_input():
    with pytest.raises(DataError):
        TS.synth("")
    with pytest.raises(DataError):
        TS.synth("café")


def test_characters_spectrally_distinguishable():
    bins = {}
    for ch in ("a", "c", "e", "7"):
        w = TS.synth(ch * 3)
        mels = S.logmel(S.power_spectrum(S.frame(w)))  # before CMVN
        bins[ch] = int(np.argmax(mels[len(mels) // 2]))
    assert len(set(bins.values())) == len(bins), bins


def test_degrade_disabled_is_identity():
    w = TS.synth("hello")
    out = TS.degrade(w, None, np.random.default_rng(0))
    assert out is w


def test_degrade_hits_sampled_snr():
    w = TS.synth("measuring noise level")
    ns = TS.NoiseSpec(gain_min=1.0, gain_max=1.0)
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        out = TS.degrade(w, ns, rng)
        # replay the same draws to recover the sampled target
        rng2 = np.random.default_rng(seed)
        target = rng2.uniform(ns.snr_db_min, ns.snr_db_max)
        noise = out.astype(np.float64) - w
        got = 10 * np.log10(np.sum(w.astype(np.float64) ** 2) / np.sum(noise ** 2))
        assert abs(got - target) <= 1.0


def test_degrade_output_clipped():
    w = (0.95 * np.ones(8000)).astype(np.float32)
    ns = TS.NoiseSpec(snr_db_min=0.0, snr_db_max=0.0)
    out = TS.degrade(w, ns, np.random.default_rng(1))
    assert np.all(out <= 1.0) and np.all(out >= -1.0)


def test_build_dataset_single_clean(tmp_path):
    man = TS.build_dataset(TS.ADDRESS, 4, tmp_path / "d", seed=0, speakers="single", noise=False)
    assert len(man) == 4
    assert all(u.speaker_id == "tts-1" for u in man)
    assert all(u.domain == "address" for u in man)
    # clean single-speaker data is exactly the deterministic synth output
    u = man.utterances[0]
    wav = man.waveform(u)
    ref = TS.synth(u.text, TS.TTS1)
    assert np.max(np.abs(wav - ref)) <= 1.0 / 32767.0
    feats = man.features(u)
    assert feats.shape[1] == 60


def test_build_dataset_multi_noisy_distinct_profiles(tmp_path):
    n = 20
    man = TS.build_dataset(TS.GENERIC, n, tmp_path / "d", seed=1, speakers="multi", noise=True)
    speakers = {u.speaker_id for u in man}
    assert len(speakers) >= 0.9 * n


def test_build_dataset_empty(tmp_path):
    man = TS.build_dataset(TS.GENERIC, 0, tmp_path / "d", seed=2)
    assert len(man) == 0
    reread = Manifest.read(tmp_path / "d" / "manifest.jsonl")
    assert len(reread) == 0


def test_manifest_round_trip(tmp_path):
    man = TS.build_dataset(TS.VOICESEARCH, 3, tmp_path / "d", seed=3)
    reread = Manifest.read(tmp_path / "d" / "manifest.jsonl")
    assert [u.__dict__ for u in reread] == [u.__dict__ for u in man]
    reread.check_unique_ids()


_VOICES = [TS.TTS1,
           TS.SpeakerProfile(pitch_hz=91.3, formant_scale=0.9, rate_scale=0.8, seed=1, name="slow"),
           TS.SpeakerProfile(pitch_hz=247.5, formant_scale=1.1, rate_scale=1.2, seed=2, name="fast")]


@pytest.mark.parametrize("profile", _VOICES, ids=[v.name for v in _VOICES])
@pytest.mark.parametrize("text", [TS.CHARSET, "z", "aaa  bb a", " lead and trail ", "0 0 0", " "],
                         ids=["charset", "one-char", "repeats", "edge-spaces", "digits", "space"])
def test_synth_equals_per_character_synthesis(profile, text):
    assert TS.synth(text, profile).tobytes() == reference_synth(text, profile).tobytes()


def test_synth_equals_per_character_synthesis_on_sampled_voices():
    rng = np.random.default_rng(5)
    for text in TS.sample_text(TS.ADDRESS, 8, seed=6):
        profile = TS.sample_profile(rng, "spk")
        assert TS.synth(text, profile).tobytes() == reference_synth(text, profile).tobytes(), (text, profile)


@pytest.mark.parametrize("speakers", ["single", "multi"])
def test_build_dataset_writes_the_bytes_of_uncached_synthesis(tmp_path, speakers):
    n, seed = 5, 4
    man = TS.build_dataset(TS.ADDRESS, n, tmp_path / "d", seed=seed, speakers=speakers, noise=False)
    mix_seeds = np.random.SeedSequence([seed, 1]).spawn(n)
    for i, u in enumerate(man):
        profile = (TS.TTS1 if speakers == "single"
                   else TS.sample_profile(np.random.default_rng(mix_seeds[i]), u.speaker_id))
        wave = reference_synth(u.text, profile)
        S.write_wav(tmp_path / "ref.wav", wave)
        save_array(tmp_path / "ref.ndt", S.extract_features(wave))
        assert (tmp_path / "ref.wav").read_bytes() == (tmp_path / "d" / u.wav).read_bytes(), u.id
        assert (tmp_path / "ref.ndt").read_bytes() == (tmp_path / "d" / u.features).read_bytes(), u.id


def test_cached_voice_tones_are_read_only():
    voice = TS._voice(TS.TTS1)
    assert TS._voice(TS.TTS1) is voice
    for arr in voice:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0
    wave = TS.synth("ab a", TS.TTS1)
    assert not any(np.shares_memory(wave, arr) for arr in voice)
    wave[:] = 0.0  # the output is the caller's own array
    assert TS.synth("ab a", TS.TTS1).any()


@pytest.mark.parametrize("grammar, n, seed, speakers, noise, digest", [
    (TS.GENERIC, 6, 11, "multi", True, "321ac7dd5f1df51992393945ea76539c6f22b40eae0a24181857a42735fc917e"),
    (TS.ADDRESS, 6, 12, "single", False, "04cd494e7998ad699c819fb3b951d391fe797face9fd84bb85fcaa202d43a0fd"),
    (TS.VOICESEARCH, 6, 13, "multi", False, "5d6c9a07ac4051e8fd29213a63677ad50c3b6fc05fd25e49bc7a7d00d72deab1"),
], ids=["generic-multi-noisy", "address-single", "voicesearch-multi"])
def test_build_dataset_bytes_are_pinned(tmp_path, grammar, n, seed, speakers, noise, digest):
    man = TS.build_dataset(grammar, n, tmp_path / "d", seed=seed, speakers=speakers, noise=noise)
    h = hashlib.sha256()
    for u in man:
        h.update((tmp_path / "d" / u.wav).read_bytes())
        h.update((tmp_path / "d" / u.features).read_bytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("grammar, seed, digest", [
    (TS.GENERIC, 21, "23f628a62b8d52b2826eb8fd1c9233f4c1252aded56e0457da538b7a151ab16e"),
    (TS.ADDRESS, 22, "72f36d1531fad4e27047906ef4a080d53d8e27875e0fd8a57052e7ecb66f261a"),
    (TS.VOICESEARCH, 23, "7403a6c56fd7e50feb7410985e46bfa3008f84ed0f533bd893a0418b212e2881"),
], ids=["generic", "address", "voicesearch"])
def test_sample_text_is_pinned(grammar, seed, digest):
    texts = TS.sample_text(grammar, 500, seed)
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == digest


def test_build_dataset_with_a_bad_text_writes_no_file(tmp_path):
    out = tmp_path / "d"
    (out / "wav").mkdir(parents=True)
    with pytest.raises(DataError, match="'X'"):
        TS.build_dataset(TS.ADDRESS, 3, out, seed=0, texts=["main road", "oak lane", "flat X"])
    assert not any((out / "wav").iterdir())
    assert not any((out / "feat").glob("*"))
    assert not (out / "manifest.jsonl").exists()
