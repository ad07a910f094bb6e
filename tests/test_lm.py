import re

import numpy as np
import pytest

from asrlab import lm as LM
from asrlab import ttssim
from asrlab.decode import Hypothesis, NBestList
from asrlab.errors import DataError
from asrlab.metrics import wer


def test_witten_bell_hand_value():
    model = LM.train_lm(["a b a b"], order=2)
    # lam_a = 2/(2+1); P_uni(b) = 2/5 over {a,b,EOS} with 5 tokens
    assert np.isclose(model.prob("b", ("a",)), 0.8, atol=1e-9)


def test_unseen_history_backs_off_fully():
    model = LM.train_lm(["a b a b"], order=2)
    # unseen history: lambda is 0, so the estimate falls through to the unigram
    assert np.isclose(model.prob("a", ("zzz",)), model.counts[()]["a"] / model.total_unigrams, atol=1e-12)


def test_distribution_sums_to_one_over_vocab():
    model = LM.train_lm(["a b a b", "b c a"], order=3)
    for hist in (("a",), ("b", "a"), (LM.BOS, LM.BOS), ("a", "b")):
        total = sum(model.prob(w, hist) for w in model.vocab)  # vocab includes EOS
        total += model.prob(LM.UNK, hist)
        assert abs(total - 1.0) <= 1e-6, hist


def test_empty_sentence_scores_eos_only():
    model = LM.train_lm(["a b", "b"], order=3)
    assert np.isclose(model.score(""), model.logprob(LM.EOS, (LM.BOS, LM.BOS)))


def test_score_is_order_sensitive():
    model = LM.train_lm(["a b", "a b", "a c"], order=2)
    assert model.score("a b") != model.score("b a")


def test_training_sentence_beats_substituted_variant():
    model = LM.train_lm(["the cat sat on the mat"], order=3)
    assert model.score("the cat sat on the mat") >= model.score("the cat sat on the hat")


def test_oov_floor_keeps_scores_finite():
    model = LM.train_lm(["a b a b"], order=3)
    s = model.score("a qqq b")
    assert np.isfinite(s)
    assert model.prob("qqq", ("a",)) == LM.UNK_FLOOR


def test_save_load_and_arpa_dump(tmp_path):
    corpus = ttssim.sample_text(ttssim.ADDRESS, 100, seed=0)
    model = LM.train_lm(corpus, order=3)
    model.save(tmp_path / "lm.json")
    back = LM.NGramLm.load(tmp_path / "lm.json")
    for s in corpus[:10]:
        assert np.isclose(back.score(s), model.score(s), atol=1e-12)
    arpa = model.dump_arpa()
    assert arpa.startswith("\\data\\")
    assert "\\1-grams:" in arpa and "\\3-grams:" in arpa and arpa.endswith("\\end\\")


@pytest.mark.parametrize("text", ['{"version": 1, "order": ', '[1, 2]', '{"version": 1, "order": 2, "counts": {}}'],
                         ids=["not-json", "json-list", "missing-field"])
def test_lm_load_bad_file_raises_data_error(tmp_path, text):
    (tmp_path / "lm.json").write_text(text)
    with pytest.raises(DataError):
        LM.NGramLm.load(tmp_path / "lm.json")


def test_domain_lms_differ_on_address_text():
    addr_train = ttssim.sample_text(ttssim.ADDRESS, 400, seed=1)
    gen_train = ttssim.sample_text(ttssim.GENERIC, 400, seed=2)
    addr_dev = ttssim.sample_text(ttssim.ADDRESS, 100, seed=3)
    addr_lm = LM.train_lm(addr_train, order=3)
    gen_lm = LM.train_lm(gen_train, order=3)
    assert addr_lm.perplexity(addr_dev) < gen_lm.perplexity(addr_dev)


def _nbest(utt, pairs):
    return NBestList(utt, [Hypothesis((), text, am) for text, am in pairs])


def test_rescore_identity_when_weights_zero():
    model = LM.train_lm(["a b"], order=2)
    nb = _nbest("u", [("a b", -1.0), ("b a", -2.0), ("a", -3.0)])
    out = LM.rescore(nb, model, LM.RescoreWeights(0.0, 0.0))
    assert out.texts() == nb.texts()
    assert all(h.total is not None and h.lm_score is not None for h in out.hyps)


def test_rescore_arithmetic_example():
    class StubLm:
        def __init__(self, table):
            self.table = table

        def score(self, text):
            return self.table[text]

    nb = _nbest("u", [("x", -1.0), ("y", -2.0)])
    out = LM.rescore(nb, StubLm({"x": -5.0, "y": -1.0}), LM.RescoreWeights(1.0, 0.0))
    assert [h.total for h in out.hyps] == [-3.0, -6.0]
    assert out.top1().text == "y"


def test_rescore_stable_on_ties():
    model = LM.train_lm(["a"], order=2)
    nb = _nbest("u", [("a", -1.0), ("a a", -1.0)])
    out = LM.rescore(nb, model, LM.RescoreWeights(0.0, 0.0))
    assert out.texts() == ["a", "a a"]


def test_tune_weights_never_worse_than_identity():
    corpus = ttssim.sample_text(ttssim.ADDRESS, 300, seed=4)
    model = LM.train_lm(corpus, order=3)
    refs = {"u0": "plot 12 sector 4 riverton 482001", "u1": "14 maple street flat 7 lakeview"}
    nbests = [
        _nbest("u0", [("plot 12 sector 4 riverton 482001", -4.0),
                      ("plot twelve sector riverton", -3.9)]),
        _nbest("u1", [("14 maple street flat 7 lakeview", -5.0),
                      ("14 maple road flat 7 lakeview", -4.8)]),
    ]
    weights, dev_wer = LM.tune_weights(nbests, refs, model, wer)

    identity = LM.RescoreWeights(0.0, 0.0)
    errors = sum(wer(refs[nb.utt_id], LM.rescore(nb, model, identity).top1().text).errors
                 for nb in nbests)
    ref_len = sum(len(refs[nb.utt_id].split()) for nb in nbests)
    assert dev_wer <= errors / ref_len + 1e-12


def test_tune_weights_scores_each_chosen_hypothesis_once():
    corpus = ttssim.sample_text(ttssim.ADDRESS, 300, seed=4)
    model = LM.train_lm(corpus, order=3)
    rng = np.random.default_rng(7)
    nbests, refs = [], {}
    for u, ref in enumerate(ttssim.sample_text(ttssim.ADDRESS, 12, seed=9)):
        words = ref.split()
        hyps = []
        for _ in range(5):
            w = list(words)
            for _ in range(int(rng.integers(0, 3))):
                j = int(rng.integers(0, len(w)))
                w[j] = str(rng.choice(["street", "road", "7", "lakeview", "plot"]))
            # word errors buy acoustic score, so only the LM can pick the reference
            edits = sum(a != b for a, b in zip(w, words))
            hyps.append(Hypothesis((), " ".join(w), float(rng.normal(-5.0 + 0.5 * edits, 0.5))))
        hyps.sort(key=lambda h: -h.am_score)
        nbests.append(NBestList(f"u{u}", hyps))
        refs[f"u{u}"] = ref
    calls = []

    def counting_wer(ref, hyp):
        calls.append((ref, hyp))
        return wer(ref, hyp)

    weights, dev_wer = LM.tune_weights(nbests, refs, model, counting_wer)
    assert len(calls) <= sum(len(nb.hyps) for nb in nbests)  # 60; one call per grid point was 396
    # the search itself is unchanged: same pick and WER as scoring at every grid point
    assert weights == LM.RescoreWeights(1.0, 0.0)
    assert dev_wer == 15 / 82


@pytest.mark.parametrize("nbests", [[], [NBestList("u0", [])]], ids=["empty-dev-set", "empty-nbest-list"])
def test_tune_weights_empty_input_raises_data_error(nbests):
    model = LM.train_lm(["a b"], order=2)
    with pytest.raises(DataError):
        LM.tune_weights(nbests, {"u0": "a b"}, model, wer)


def test_tune_weights_without_a_reference_raises_data_error_naming_the_first_three():
    model = LM.train_lm(["a b"], order=2)
    nbests = [_nbest(f"u{i}", [("a b", -1.0)]) for i in range(5)]
    calls = []
    with pytest.raises(DataError, match=re.escape("no reference for 4 dev utterances, among them ['u1', 'u2', 'u3']")):
        LM.tune_weights(nbests, {"u0": "a b"}, model, lambda ref, hyp: calls.append(ref))
    assert calls == []  # raised before the grid search scored anything


def test_rescore_weights_validation():
    with pytest.raises(DataError):
        LM.RescoreWeights(-0.5, 0.0)
