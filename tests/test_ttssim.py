import numpy as np
import pytest

from asrlab import signal as S
from asrlab import ttssim as TS
from asrlab.data import Manifest
from asrlab.errors import DataError
from asrlab.tensor import save_array


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
        mels = S.logmel(S.power_spectrum(S.frame(w)), S.mel_filterbank(20))  # before CMVN
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


@pytest.mark.parametrize("speakers", ["single", "multi"])
def test_build_dataset_writes_the_bytes_of_uncached_synthesis(tmp_path, speakers, monkeypatch):
    n, seed = 5, 4
    man = TS.build_dataset(TS.ADDRESS, n, tmp_path / "d", seed=seed, speakers=speakers, noise=False)
    monkeypatch.setattr(TS, "_phoneme", TS._phoneme.__wrapped__)  # every segment computed afresh
    mix_seeds = np.random.SeedSequence([seed, 1]).spawn(n)
    for i, u in enumerate(man):
        profile = (TS.TTS1 if speakers == "single"
                   else TS.sample_profile(np.random.default_rng(mix_seeds[i]), u.speaker_id))
        wave = TS.synth(u.text, profile)
        S.write_wav(tmp_path / "ref.wav", wave)
        save_array(tmp_path / "ref.ndt", S.extract_features(wave, S.FrontendConfig()))
        assert (tmp_path / "ref.wav").read_bytes() == (tmp_path / "d" / u.wav).read_bytes(), u.id
        assert (tmp_path / "ref.ndt").read_bytes() == (tmp_path / "d" / u.features).read_bytes(), u.id


def test_cached_phoneme_segments_are_read_only():
    wave = TS.synth("ab a", TS.TTS1)
    seg = TS._phoneme("a", TS.TTS1)
    assert TS._phoneme("a", TS.TTS1) is seg
    assert not seg.flags.writeable
    with pytest.raises(ValueError):
        seg[0] = 1.0
    wave[:] = 0.0  # the output is the caller's own array
    assert TS.synth("ab a", TS.TTS1).any()
