"""The benchmark's workloads, driven from outside through the asrlab API.

ctc_recipe and las_recipe run the paper's five steps at desk scale:
pretrain on multi-speaker noisy generic speech, synthesize
target-domain adaptation speech with the single TTS voice, fine-tune
under a freeze policy, decode N-best lists and tune LM rescoring weights
on dev, then evaluate on a multi-speaker noisy test set. paper_ckpt_io
saves, loads and rebuilds the paper-shape models.

Every asrlab callable is looked up through its module at call time, so
that the traced run's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import math
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from asrlab import adapt, config, data, decode, lm, metrics, models, tokenizer, ttssim


@dataclass(frozen=True)
class Size:
    n_generic: int      # pretraining utterances
    dev_s: float        # dev speech in seconds (LM weight tuning)
    test_s: float       # test speech in seconds
    n_tts: int          # synthesized adaptation utterances
    n_lm: int           # target-domain LM sentences
    vocab: int          # BPE vocabulary
    pre_epochs: int
    ft_epochs: int
    beam: int
    setup_repeats: int  # setups per run; setup_s is their median
    ckpt_repeats: int   # checkpoint saves (and desk loads) per iteration; medians reported
    paper_shapes: bool  # paper_ckpt_io at paper shape (else desk shape)


SIZES = {
    "full": Size(n_generic=64, dev_s=10.0, test_s=16.0, n_tts=32, n_lm=400, vocab=200,
                 pre_epochs=3, ft_epochs=3, beam=8, setup_repeats=3, ckpt_repeats=5, paper_shapes=True),
    "smoke": Size(n_generic=8, dev_s=2.0, test_s=2.0, n_tts=4, n_lm=40, vocab=60,
                  pre_epochs=1, ft_epochs=1, beam=2, setup_repeats=1, ckpt_repeats=1, paper_shapes=False),
}

PRETRAIN_LR = 1e-3
FINETUNE_LR = 1e-4
LM_ORDER = 3


def sub_seeds(seed: int) -> dict[str, int]:
    """Independent seeds for each generated input, all derived from one."""
    names = ("generic", "dev", "test", "lm", "tts", "model", "train")
    state = np.random.SeedSequence(seed).generate_state(len(names))
    return {n: int(s) for n, s in zip(names, state)}


class Checks:
    """Named correctness checks; any failure makes the run incorrect."""

    def __init__(self):
        self.failures: list[str] = []
        self.passed = 0

    def require(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(np.ascontiguousarray(a).view(np.uint8),
                               np.ascontiguousarray(b).view(np.uint8)))


@contextmanager
def stage(rec, stage_s: dict, name: str):
    t0 = time.perf_counter()
    with rec.span(f"stage.{name}"):
        yield
    stage_s[name] = stage_s.get(name, 0.0) + time.perf_counter() - t0


def _frames(manifest) -> int:
    return sum(manifest.features(u).shape[0] for u in manifest)


def _speech_set(grammar, seconds: float, root: Path, seed: int):
    """Multi-speaker noisy utterances from a seeded pool whose total audio
    is closest to `seconds`: every seed then decodes about the same amount
    of speech. Utterances last over 1.5 s, so the pool holds enough."""
    pool = ttssim.build_dataset(grammar, math.ceil(seconds / 1.5) + 2, root, seed,
                                speakers="multi", noise=True)
    subsets = {0: ()}  # total centiseconds -> first subset (pool indices) reaching it
    for i, utt in enumerate(pool):
        cs = round(100 * utt.duration_s)
        for total, picked in list(subsets.items()):
            subsets.setdefault(total + cs, picked + (i,))
    target = round(100 * seconds)
    best = min(subsets, key=lambda total: (abs(total - target), total))
    return data.Manifest([pool.utterances[i] for i in subsets[best]], pool.root)


def _ctc_inadmissible(manifest, tok) -> int:
    """Utterances whose labels plus adjacent repeats need more frames than
    they have; train_model silences the warning CTC gives for them."""
    bad = 0
    for u in manifest:
        ids = np.asarray(tok.encode(u.text))
        need = len(ids) + int(np.sum(ids[1:] == ids[:-1]))
        bad += need > manifest.features(u).shape[0]
    return bad


# -- recipes ---------------------------------------------------------------------

@dataclass(frozen=True)
class Recipe:
    kind: str                    # ctc | las
    domain: str                  # target-domain grammar name
    policy: str                  # freeze policy for fine-tuning
    finetune_spec_augment: bool


@dataclass
class RecipeInputs:
    generic: object  # Manifest
    dev: object
    test: object
    lm_text: list
    tok: object      # SubwordModel
    generic_frames: int


class RecipeWorkload:
    min_iterations = 2  # the second repeat checks determinism

    def __init__(self, recipe: Recipe, size: Size, seed: int):
        self.recipe = recipe
        self.size = size
        self.seeds = sub_seeds(seed)
        self.grammar = ttssim.GRAMMARS[recipe.domain]
        self.first: dict | None = None

    def setup(self, root: Path) -> RecipeInputs:
        """The inputs the paper takes as given: speech, dev/test sets, BPE, LM text."""
        s, n = self.seeds, self.size
        generic = ttssim.build_dataset(ttssim.GENERIC, n.n_generic, root / "generic", s["generic"],
                                       speakers="multi", noise=True)
        dev = _speech_set(self.grammar, n.dev_s, root / "dev", s["dev"])
        test = _speech_set(self.grammar, n.test_s, root / "test", s["test"])
        lm_text = ttssim.sample_text(self.grammar, n.n_lm, s["lm"])
        tok = tokenizer.train_bpe([u.text for u in generic] + lm_text, n.vocab, charset=ttssim.CHARSET)
        return RecipeInputs(generic, dev, test, lm_text, tok, _frames(generic))

    def _model_config(self, vocab: int):
        return config.ctc_desk(vocab=vocab) if self.recipe.kind == "ctc" else config.las_desk(vocab=vocab)

    def _decode(self, model, manifest, tok) -> tuple[list, list[float]]:
        nbests, latencies = [], []
        for utt in manifest:
            feats = manifest.features(utt)
            t0 = time.perf_counter()
            if self.recipe.kind == "ctc":
                hyps = decode.ctc_prefix_beam(model.log_probs_single(feats), tok, beam=self.size.beam)
            else:
                hyps = decode.las_beam(model, feats, tok, beam=self.size.beam)
            latencies.append(time.perf_counter() - t0)
            nbests.append(decode.NBestList(utt.id, hyps))
        return nbests, latencies

    def iterate(self, inp: RecipeInputs, root: Path, rec, checks: Checks) -> dict:
        r, n, s = self.recipe, self.size, self.seeds
        tok = inp.tok
        st: dict[str, float] = {}

        # 1. pretrain on generic speech, SpecAugment on
        with stage(rec, st, "pretrain"):
            model = models.build_model(self._model_config(tok.size), seed=s["model"])
            # TrainConfig is built directly: pretrain_defaults(lr=...) raises TypeError
            pre_cfg = config.TrainConfig(lr=PRETRAIN_LR, epochs=n.pre_epochs, seed=s["train"],
                                         spec_augment=True)
            pre_log = adapt.pretrain(model, inp.generic, tok, pre_cfg, root / "pre.ckpt")

        # 2. single-voice TTS adaptation data
        with stage(rec, st, "tts"):
            tts = ttssim.build_dataset(self.grammar, n.n_tts, root / "tts", s["tts"])
        tts_audio_s = sum(u.duration_s for u in tts)
        tts_frames = _frames(tts)

        # 3. fine-tune under the freeze policy
        policy = adapt.FreezePolicy.parse(r.policy)
        with stage(rec, st, "finetune"):
            ft_cfg = config.TrainConfig(lr=FINETUNE_LR, epochs=n.ft_epochs, seed=s["train"],
                                        spec_augment=r.finetune_spec_augment)
            ft_log = adapt.finetune(root / "pre.ckpt", tts, tok, policy, ft_cfg, root / "ft.ckpt")

        # checkpoints: frozen tensors pass through, a re-save is byte-identical
        with stage(rec, st, "ckpt"):
            pre = models.load_checkpoint(root / "pre.ckpt")
            load_times, save_times = [], []
            for _ in range(n.ckpt_repeats):
                t0 = time.perf_counter()
                ft = models.load_checkpoint(root / "ft.ckpt")
                load_times.append(time.perf_counter() - t0)
            model = ft.build_model()
            for _ in range(n.ckpt_repeats):
                t0 = time.perf_counter()
                models.save_checkpoint(root / "resave.ckpt", model, step=ft.step, rng_state=ft.rng_state)
                save_times.append(time.perf_counter() - t0)
        trainable = set(policy.trainable_names(model))
        frozen = [k for k in pre.tensors if k not in trainable]
        checks.require(all(same_bits(pre.tensors[k], ft.tensors[k]) for k in frozen),
                       f"{r.policy}: frozen tensors bit-identical between input and output checkpoints")
        checks.require(any(not same_bits(pre.tensors[k], ft.tensors[k]) for k in trainable),
                       f"{r.policy}: fine-tuning changed a trainable tensor")
        checks.require((root / "resave.ckpt").read_bytes() == (root / "ft.ckpt").read_bytes(),
                       "desk checkpoint save->load->save is byte-identical")

        # 4. N-best decoding, LM weights tuned on dev
        with stage(rec, st, "decode"):
            dev_nb, dev_lat = self._decode(model, inp.dev, tok)
            test_nb, test_lat = self._decode(model, inp.test, tok)
        for nb in dev_nb + test_nb:
            scores = [h.am_score for h in nb.hyps]
            checks.require(len(nb.hyps) > 0, f"{nb.utt_id}: n-best list non-empty")
            checks.require(len(set(nb.texts())) == len(nb.hyps), f"{nb.utt_id}: n-best texts distinct")
            checks.require(all(a >= b for a, b in zip(scores, scores[1:])), f"{nb.utt_id}: n-best sorted by score")
        dev_refs = {u.id: u.text for u in inp.dev}
        with stage(rec, st, "rescore"):
            lmodel = lm.train_lm(inp.lm_text, order=LM_ORDER)
            weights, dev_tuned = lm.tune_weights(dev_nb, dev_refs, lmodel, metrics.wer)
        dev_top1 = metrics.CorpusWer()
        for nb in dev_nb:
            dev_top1.add(metrics.wer(dev_refs[nb.utt_id], nb.top1().text))
        checks.require(dev_tuned <= dev_top1.wer, "tuned rescoring weights do not raise dev WER")

        # 5. the paper's three WER columns on test
        with stage(rec, st, "eval"):
            report = metrics.evaluate_manifest(inp.test, test_nb, lmodel, weights)

        pre_loss = adapt.epoch_mean_losses(pre_log, len(pre_log) // n.pre_epochs)[-1]
        ft_loss = adapt.epoch_mean_losses(ft_log, len(ft_log) // n.ft_epochs)[-1]
        losses = [row["loss"] for row in pre_log + ft_log]
        checks.require(all(np.isfinite(losses)), "training losses finite")

        signature = {"pretrain_losses": [row["loss"] for row in pre_log],
                     "finetune_losses": [row["loss"] for row in ft_log],
                     "wer": [report["test_wer"], report["rescored_wer"], report["oracle_wer"]]}
        if self.first is None:
            self.first = signature
        else:
            checks.require(signature == self.first, "a repeat with the same seed gives identical losses and WERs")

        inadmissible = 0
        if r.kind == "ctc":
            inadmissible = (_ctc_inadmissible(inp.generic, tok) * n.pre_epochs
                            + _ctc_inadmissible(tts, tok) * n.ft_epochs)
        return {
            "stage_s": st,
            "pretrain_frames_per_s": inp.generic_frames * n.pre_epochs / st["pretrain"],
            "finetune_frames_per_s": tts_frames * n.ft_epochs / st["finetune"],
            "tts_audio_s_per_s": tts_audio_s / st["tts"],
            "decode_latency_s": dev_lat + test_lat,
            "pretrain_loss": pre_loss,
            "finetune_loss": ft_loss,
            "test_wer": report["test_wer"],
            "rescored_wer": report["rescored_wer"],
            "oracle_wer": report["oracle_wer"],
            "rescore_weights": report["rescore_weights"],
            "ckpt_save_s": statistics.median(save_times),
            "ckpt_load_s": statistics.median(load_times),
            "step_ms": [row["wall_ms"] for row in pre_log + ft_log],
            # ops: utterance presentations in training plus utterances decoded
            "attempted": n.n_generic * n.pre_epochs + n.n_tts * n.ft_epochs + len(inp.dev) + len(inp.test),
            "failed": inadmissible,
        }


# -- paper-shape checkpoint I/O ------------------------------------------------------

class CheckpointWorkload:
    min_iterations = 1

    def __init__(self, size: Size, seed: int):
        self.size = size
        self.seeds = sub_seeds(seed)

    def setup(self, root: Path) -> list:
        if self.size.paper_shapes:
            cfgs = (config.ctc_paper_shapes(), config.las_paper_shapes())
        else:
            cfgs = (config.ctc_desk(), config.las_desk())
        return [models.build_model(c, seed=self.seeds["model"]) for c in cfgs]

    def iterate(self, built: list, root: Path, rec, checks: Checks) -> dict:
        st: dict[str, float] = {}
        root.mkdir(parents=True, exist_ok=True)
        paths = [root / f"{m.cfg.kind}.ckpt" for m in built]
        failed = 0
        with stage(rec, st, "ckpt"):
            save_times = []
            for _ in range(self.size.ckpt_repeats):  # loads take seconds: one each
                t0 = time.perf_counter()
                for m, p in zip(built, paths):
                    models.save_checkpoint(p, m)
                save_times.append(time.perf_counter() - t0)
            load_s = 0.0
            for m, p in zip(built, paths):
                t0 = time.perf_counter()
                ckpt = models.load_checkpoint(p)
                load_s += time.perf_counter() - t0
                rebuilt = ckpt.build_model()
                want = m.named_tensors()
                ok = (set(ckpt.tensors) == set(want)
                      and all(same_bits(ckpt.tensors[k], v) for k, v in want.items())
                      and all(same_bits(v, want[k]) for k, v in rebuilt.named_tensors().items()))
                checks.require(ok, f"{m.cfg.kind}: paper-shape save->load round trip is bit-identical")
                failed += not ok
                del ckpt, rebuilt
        return {
            "stage_s": st,
            "ckpt_save_s": statistics.median(save_times),
            "ckpt_load_s": load_s,
            "attempted": len(built) * (self.size.ckpt_repeats + 2),  # saves, loads, rebuilds
            "failed": failed,
        }


RECIPES = {
    "ctc_recipe": Recipe("ctc", "address", "dense-only", finetune_spec_augment=False),
    "las_recipe": Recipe("las", "voicesearch", "decoder-only", finetune_spec_augment=True),
}
WORKLOADS = ("ctc_recipe", "las_recipe", "paper_ckpt_io")


def make_workload(name: str, size: Size, seed: int):
    if name in RECIPES:
        return RecipeWorkload(RECIPES[name], size, seed)
    if name == "paper_ckpt_io":
        return CheckpointWorkload(size, seed)
    raise ValueError(f"unknown workload {name!r}")


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
