"""Deterministic text-to-speech stand-in plus domain text grammars.

Speech is synthesized per character: each supported character maps to a
pair of formant sinusoids snapped to harmonics of the speaker's pitch,
80 ms per phoneme (scaled by speaking rate) with 10 ms linear
cross-fades between neighbours. The single-speaker profile "tts-1" is a
repo-wide constant; multi-speaker sets sample a fresh profile per
utterance. Noise injection mixes white Gaussian noise at a sampled SNR.

A character's first formant takes one of 6 levels and its second one of
6, and the pitch tone is the same for every character, so 13 sinusoids
give every segment of a voice. They are computed once per voice and kept
read-only in a small cache; ``synth`` sums each distinct character's
segment from them once per call.

Three word grammars (generic / address / voicesearch) generate the text
corpora; the target-domain lexicons are mostly disjoint from the generic
one, which is what makes the adaptation experiments meaningful.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import signal
from .data import Manifest, Utterance
from .errors import DataError
from .signal import SAMPLE_RATE
from .tensor import save_array

CHARSET = "abcdefghijklmnopqrstuvwxyz0123456789"
PHONEME_S = 0.08
CROSSFADE_S = 0.01


@dataclass(frozen=True)
class SpeakerProfile:
    pitch_hz: float
    formant_scale: float
    rate_scale: float
    seed: int = 0
    name: str = "spk"


# the one fixed voice used for all clean adaptation data
TTS1 = SpeakerProfile(pitch_hz=150.0, formant_scale=1.0, rate_scale=1.0, seed=0, name="tts-1")


def sample_profile(rng: np.random.Generator, name: str) -> SpeakerProfile:
    return SpeakerProfile(
        pitch_hz=float(rng.uniform(90.0, 250.0)),
        formant_scale=float(rng.uniform(0.9, 1.1)),
        rate_scale=float(rng.uniform(0.8, 1.2)),
        seed=int(rng.integers(0, 2**31 - 1)),
        name=name,
    )


# -- formant synthesis ---------------------------------------------------------

# grid gaps exceed the max pitch (250 Hz) even after 0.9x formant scaling,
# so adjacent levels never snap to the same harmonic for any speaker
_F1_GRID = np.array([300.0, 580.0, 860.0, 1140.0, 1420.0, 1700.0])
_F2_GRID = np.array([2100.0, 2466.0, 2878.0, 3341.0, 3861.0, 4447.0])


def _harmonic(freq: float, pitch: float) -> float:
    return max(1.0, round(freq / pitch)) * pitch


class _Voice(NamedTuple):
    f1: np.ndarray        # [6, n_ph] first-formant tone at each _F1_GRID level
    f2: np.ndarray        # [6, n_ph] second-formant tone at each _F2_GRID level
    pitch: np.ndarray     # [n_ph] the pitch tone, shared by every character
    envelope: np.ndarray  # [n_ph] linear fade in and out over CROSSFADE_S


@functools.lru_cache(maxsize=2)
def _voice(profile: SpeakerProfile) -> _Voice:
    """The tones and envelope of one voice, formants snapped to harmonics of
    its pitch; read-only because the cache hands them to every caller."""
    n_ph = int(round(PHONEME_S * profile.rate_scale * SAMPLE_RATE))
    n_fade = int(CROSSFADE_S * SAMPLE_RATE)
    t = np.arange(n_ph) / SAMPLE_RATE

    def tone(amp: float, freq: float) -> np.ndarray:
        return amp * np.sin(2 * np.pi * freq * t)

    def formant_tones(amp: float, grid: np.ndarray) -> np.ndarray:
        return np.stack([tone(amp, _harmonic(float(f) * profile.formant_scale, profile.pitch_hz))
                         for f in grid])

    ramp_in = np.linspace(0.0, 1.0, n_fade, endpoint=False)
    envelope = np.ones(n_ph)
    envelope[:n_fade] = ramp_in
    envelope[-n_fade:] = ramp_in[::-1]
    voice = _Voice(formant_tones(0.18, _F1_GRID), formant_tones(0.12, _F2_GRID),
                   tone(0.06, profile.pitch_hz), envelope)
    for arr in voice:
        arr.flags.writeable = False
    return voice


def _check_text(text: str) -> None:
    if not text:
        raise DataError("cannot synthesize empty text")
    for ch in text:
        if ch != " " and ch not in CHARSET:
            raise DataError(f"unsupported character {ch!r}")


def synth(text: str, profile: SpeakerProfile = TTS1) -> np.ndarray:
    """Render text to a 16 kHz waveform, deterministic in (text, profile)."""
    _check_text(text)
    voice = _voice(profile)
    n_ph = len(voice.envelope)
    hop = n_ph - int(CROSSFADE_S * SAMPLE_RATE)

    segments = {}
    for ch in set(text) - {" "}:
        k = CHARSET.index(ch)
        segments[ch] = (voice.f1[k % 6] + voice.f2[k // 6] + voice.pitch) * voice.envelope

    # overlap-add adjacent phonemes across the fade region; a space adds
    # nothing, as out never holds -0.0 for a zero segment to turn into +0.0
    out = np.zeros(hop * (len(text) - 1) + n_ph)
    for i, ch in enumerate(text):
        if ch != " ":
            out[i * hop:i * hop + n_ph] += segments[ch]
    return np.clip(out, -1.0, 1.0).astype(np.float32)


# -- noise injection ------------------------------------------------------------

@dataclass(frozen=True)
class NoiseSpec:
    snr_db_min: float = 5.0
    snr_db_max: float = 20.0
    gain_min: float = 0.5
    gain_max: float = 1.0

    def __post_init__(self):
        if self.snr_db_min > self.snr_db_max:
            raise DataError("invalid SNR range")


def degrade(wave: np.ndarray, ns: NoiseSpec | None, rng: np.random.Generator) -> np.ndarray:
    """Additive white noise at a sampled SNR plus a random gain."""
    if ns is None:
        return wave
    snr_db = rng.uniform(ns.snr_db_min, ns.snr_db_max)
    gain = rng.uniform(ns.gain_min, ns.gain_max)
    rms = np.sqrt(np.mean(np.square(wave, dtype=np.float64)))
    noise_std = rms * 10.0 ** (-snr_db / 20.0)
    noisy = wave + rng.normal(0.0, noise_std, size=len(wave))
    return np.clip(gain * noisy, -1.0, 1.0).astype(np.float32)


# -- domain grammars ---------------------------------------------------------------

class DomainGrammar:
    """Template grammar over slot word lists, with numeric slots."""

    def __init__(self, name: str, templates: list[list[str]], slots: dict[str, list[str]]):
        self.name = name
        self.templates = templates
        self.slots = slots

    def lexicon(self) -> set[str]:
        words = set()
        for wl in self.slots.values():
            words.update(wl)
        for tpl in self.templates:
            words.update(w for w in tpl if not w.startswith("<"))
        return words

    def _fill(self, token: str, rng: np.random.Generator) -> str:
        if token == "<housenum>":
            return str(rng.integers(1, 400))
        if token == "<pincode>":
            return "".join(str(d) for d in rng.integers(0, 10, size=6))
        if token == "<smallnum>":
            return str(rng.integers(1, 100))
        if token.startswith("<"):
            words = self.slots[token[1:-1]]
            return words[int(rng.integers(0, len(words)))]
        return token

    def sample_one(self, rng: np.random.Generator) -> str:
        tpl = self.templates[rng.integers(0, len(self.templates))]
        return " ".join(self._fill(tok, rng) for tok in tpl)


def sample_text(grammar: DomainGrammar, n: int, seed: int) -> list[str]:
    """n transcripts, deterministic in (grammar, n prefix, seed)."""
    if n < 1:
        raise DataError("sample_text needs n >= 1")
    children = np.random.SeedSequence([seed]).spawn(n)
    return [grammar.sample_one(np.random.default_rng(c)) for c in children]


_GENERIC_SLOTS = {
    "verb": ["play", "open", "close", "read", "write", "find", "show", "tell", "start",
             "stop", "turn", "bring", "take", "make", "keep", "hold", "move", "call",
             "send", "give", "watch", "clean", "share", "remember", "visit"],
    "adj": ["big", "small", "red", "blue", "green", "bright", "dark", "quiet", "loud",
            "warm", "cold", "new", "old", "fast", "slow", "happy", "simple", "heavy",
            "gentle", "busy", "empty", "full", "soft", "sweet", "fresh"],
    "noun": ["music", "book", "door", "window", "light", "story", "letter", "table",
             "chair", "garden", "kitchen", "river", "mountain", "morning", "evening",
             "coffee", "water", "bread", "friend", "family", "picture", "song", "movie",
             "game", "phone", "computer", "weather", "summer", "winter", "train",
             "house", "school", "teacher", "doctor", "market", "city", "village",
             "child", "people", "paper", "money", "basket", "lamp", "mirror", "clock",
             "garden", "forest", "island", "bridge", "valley"],
    "adv": ["please", "now", "today", "tomorrow", "again", "slowly", "quickly",
            "carefully", "together", "outside", "inside", "here", "there", "soon"],
    "det": ["the", "a", "my", "your", "this", "that", "every", "some", "another", "our"],
    "num": ["one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten"],
}

_GENERIC_TEMPLATES = [
    ["<adv>", "<verb>", "<det>", "<adj>", "<noun>"],
    ["<verb>", "<det>", "<noun>", "<adv>"],
    ["the", "<adj>", "<noun>", "is", "very", "<adj>"],
    ["i", "want", "to", "<verb>", "<det>", "<noun>"],
    ["<verb>", "the", "<noun>", "in", "the", "<noun>"],
    ["my", "<noun>", "is", "<adj>", "and", "<adj>"],
    ["we", "<verb>", "<num>", "<adj>", "<noun>", "<adv>"],
    ["tell", "me", "about", "the", "<adj>", "<noun>"],
    ["read", "chapter", "<smallnum>", "of", "the", "<noun>"],
    ["the", "train", "leaves", "at", "<smallnum>", "today"],
]

_ADDRESS_SLOTS = {
    "street": ["maple", "oak", "cedar", "willow", "juniper", "birch", "aspen", "laurel",
               "magnolia", "sycamore", "rosewood", "teak", "neem", "banyan", "ashok",
               "gandhi", "nehru", "patel", "tilak", "subhash", "lake", "temple", "fort",
               "ring", "canal", "hill", "spring"],
    "stype": ["street", "road", "lane", "avenue", "marg", "nagar", "colony", "layout",
              "crossing", "enclave", "extension", "chowk"],
    "city": ["riverton", "lakeview", "greenfield", "ashpur", "devipura", "rampur",
             "kotagiri", "shantipur", "indragarh", "malvani", "ganganagar", "jayanti",
             "sundarpur", "bhimtal", "chandpur", "kavery", "meghala", "tarapur",
             "vikaspuri", "haripur"],
    "unit": ["apartment", "flat", "floor", "house", "plot", "building", "tower", "wing",
             "block", "sector", "phase", "villa"],
    "rel": ["near", "opposite", "behind", "beside"],
    "poi": ["hospital", "bank", "station", "mandir", "masjid", "church", "bazaar",
            "complex", "mall", "park", "stand", "depot", "gate", "crossing"],
}

_ADDRESS_TEMPLATES = [
    ["<housenum>", "<street>", "<stype>", "<unit>", "<smallnum>", "<city>", "<pincode>"],
    ["<unit>", "<smallnum>", "<housenum>", "<street>", "<stype>", "<city>"],
    ["plot", "<housenum>", "sector", "<smallnum>", "<city>", "<pincode>"],
    ["<rel>", "<street>", "<poi>", "<street>", "<stype>", "<city>"],
    ["<housenum>", "<street>", "<stype>", "<rel>", "<poi>", "<city>", "<pincode>"],
    ["flat", "<smallnum>", "<unit>", "<smallnum>", "<street>", "<stype>", "<city>"],
    ["house", "<housenum>", "<street>", "<stype>", "<city>", "district", "<city>", "<pincode>"],
    ["<unit>", "<smallnum>", "<poi>", "<stype>", "<rel>", "<poi>", "<city>"],
]

_VOICESEARCH_SLOTS = {
    "action": ["buy", "order", "search", "get", "compare", "browse"],
    "product": ["shirt", "shoes", "saree", "kurta", "jeans", "watch", "headphones",
                "charger", "mixer", "grinder", "mobile", "laptop", "television",
                "refrigerator", "mattress", "blanket", "helmet", "backpack", "sandals",
                "tshirt", "earbuds", "cooker", "bottle", "trimmer", "speaker"],
    "attr": ["cotton", "leather", "wireless", "bluetooth", "waterproof", "stainless",
             "wooden", "plastic", "steel", "silk", "denim", "portable"],
    "color": ["black", "white", "pink", "purple", "golden", "silver", "maroon", "navy"],
    "qual": ["cheap", "best", "latest", "branded", "original", "discount", "premium",
             "trending", "popular"],
    "size": ["small", "medium", "large", "extra"],
}

_VOICESEARCH_TEMPLATES = [
    ["<action>", "<attr>", "<product>", "under", "<smallnum>", "rupees"],
    ["show", "me", "<qual>", "<color>", "<product>"],
    ["<action>", "<color>", "<attr>", "<product>"],
    ["<qual>", "<product>", "for", "men"],
    ["<qual>", "<product>", "for", "women"],
    ["<action>", "<product>", "<size>", "size"],
    ["<color>", "<product>", "with", "<qual>", "offer"],
    ["<attr>", "<product>", "price", "below", "<smallnum>"],
]

GENERIC = DomainGrammar("generic", _GENERIC_TEMPLATES, _GENERIC_SLOTS)
ADDRESS = DomainGrammar("address", _ADDRESS_TEMPLATES, _ADDRESS_SLOTS)
VOICESEARCH = DomainGrammar("voicesearch", _VOICESEARCH_TEMPLATES, _VOICESEARCH_SLOTS)

GRAMMARS = {"generic": GENERIC, "address": ADDRESS, "voicesearch": VOICESEARCH}


def lexicon_overlap(a: DomainGrammar, b: DomainGrammar) -> float:
    """Fraction of a's lexicon that also appears in b's."""
    la = a.lexicon()
    return len(la & b.lexicon()) / len(la)


# -- dataset construction -----------------------------------------------------------

def build_dataset(grammar: DomainGrammar, n: int, out_dir, seed: int,
                  speakers: str = "single", noise: bool = False,
                  texts: list[str] | None = None) -> Manifest:
    """Synthesize a manifest of n utterances with WAVs and cached features,
    normalized per utterance by the front end. Caches written before the
    front end normalized must be rebuilt: Manifest.features rejects them.

    speakers: "single" uses the fixed tts-1 profile for every utterance;
    "multi" samples a fresh profile per utterance. noise=True mixes in
    white noise at 5-20 dB SNR (the "real-world" test-set style).
    """
    if speakers not in ("single", "multi"):
        raise DataError(f"unknown speakers mode {speakers!r}")
    if texts is None:
        texts = sample_text(grammar, n, seed) if n > 0 else []
    elif len(texts) != n:
        raise DataError(f"got {len(texts)} texts for n={n}")
    for text in texts:  # before any file is written, so a bad text leaves no partial dataset
        _check_text(text)

    out_dir = Path(out_dir)
    (out_dir / "wav").mkdir(parents=True, exist_ok=True)
    (out_dir / "feat").mkdir(parents=True, exist_ok=True)
    noise_spec = NoiseSpec() if noise else None

    utts = []
    mix_seeds = np.random.SeedSequence([seed, 1]).spawn(max(n, 1))
    for i, text in enumerate(texts):
        rng = np.random.default_rng(mix_seeds[i])
        if speakers == "single":
            profile = TTS1
        else:
            profile = sample_profile(rng, name=f"spk-{i:05d}")
        wave = synth(text, profile)
        wave = degrade(wave, noise_spec, rng)
        feats = signal.extract_features(wave)

        utt_id = f"{grammar.name}-{i:05d}"
        wav_rel = f"wav/{utt_id}.wav"
        feat_rel = f"feat/{utt_id}.ndt"
        signal.write_wav(out_dir / wav_rel, wave)
        save_array(out_dir / feat_rel, feats)
        utts.append(Utterance(
            id=utt_id, text=text, domain=grammar.name, speaker_id=profile.name,
            wav=wav_rel, features=feat_rel, duration_s=round(len(wave) / SAMPLE_RATE, 4),
        ))

    manifest = Manifest(utts, out_dir)
    manifest.write(out_dir / "manifest.jsonl")
    return manifest
