import itertools

import numpy as np
import pytest
from oracle_utils import brute_force_edit_distance

from asrlab import metrics as MT
from asrlab.decode import Hypothesis, NBestList
from asrlab.errors import DataError


def test_wer_identity():
    b = MT.wer("a b c", "a b c")
    assert b.wer == 0.0
    assert (b.substitutions, b.deletions, b.insertions) == (0, 0, 0)


def test_wer_single_substitution():
    b = MT.wer("a b c", "a x c")
    assert np.isclose(b.wer, 1 / 3)
    assert (b.substitutions, b.deletions, b.insertions) == (1, 0, 0)


def test_wer_empty_hypothesis_all_deletions():
    b = MT.wer("a b c", "")
    assert b.wer == 1.0
    assert b.deletions == 3


def test_wer_empty_reference_rejected():
    with pytest.raises(DataError):
        MT.wer("", "a b")


def test_wer_ties_prefer_substitution():
    b = MT.wer("a", "b")
    assert (b.substitutions, b.deletions, b.insertions) == (1, 0, 0)


def test_wer_matches_brute_force_edit_distance():
    words = ["w0", "w1", "w2"]
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, 6))
        ref = [words[i] for i in rng.integers(0, 3, size=n)]
        hyp = [words[i] for i in rng.integers(0, 3, size=m)]
        got = MT.wer(" ".join(ref), " ".join(hyp))
        assert got.errors == brute_force_edit_distance(ref, hyp)


def test_wer_bounds():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, 6))
        ref = " ".join(str(i) for i in rng.integers(0, 4, size=n))
        hyp = " ".join(str(i) for i in rng.integers(0, 4, size=m))
        assert MT.wer(ref, hyp).wer <= max(n, m) / n


def _nb(utt, texts_scores):
    return NBestList(utt, [Hypothesis((), t, s) for t, s in texts_scores])


def test_oracle_wer_is_min():
    # evaluate_manifest's oracle_wer column pools each utterance's best hypothesis
    man = _manifest([("u", "a b c")])
    rep = MT.evaluate_manifest(man, [_nb("u", [("a x c", -1.0), ("a b c", -2.0), ("x b c", -3.0)])])
    assert np.isclose(rep["oracle_wer"], 0.0)
    assert rep["oracle_wer"] <= rep["test_wer"]
    rep = MT.evaluate_manifest(man, [_nb("u", [("a x c", -1.0)])])
    assert np.isclose(rep["oracle_wer"], MT.wer("a b c", "a x c").wer)
    assert rep["oracle_wer"] == rep["test_wer"]
    with pytest.raises(DataError, match="empty n-best list for u"):
        MT.evaluate_manifest(man, [_nb("u", [])])


def test_corpus_pooled_wer():
    c = MT.CorpusWer()
    c.add(MT.wer("a b c", "a x c"))  # 1 error / 3
    c.add(MT.wer("a b", "a b"))      # 0 / 2
    assert np.isclose(c.wer, 0.2)


def _manifest(rows):
    from asrlab.data import Manifest, Utterance
    return Manifest([Utterance(id=i, text=t, domain="d", speaker_id="s", wav="w", duration_s=1.0)
                     for i, t in rows], root=".")


def test_evaluate_manifest_basic_and_id_checks():
    man = _manifest([("u1", "a b c"), ("u2", "a b")])
    nbests = [_nb("u1", [("a x c", -1.0), ("a b c", -2.0)]),
              _nb("u2", [("a b", -1.0)])]
    rep = MT.evaluate_manifest(man, nbests)
    assert np.isclose(rep["test_wer"], 0.2)
    assert np.isclose(rep["oracle_wer"], 0.0)
    assert rep["utterances"] == 2

    with pytest.raises(DataError):
        MT.evaluate_manifest(man, nbests[:1])
    with pytest.raises(DataError):
        MT.evaluate_manifest(man, nbests + [_nb("u1", [("a", -1.0)])])
    dup = _manifest([("u1", "a"), ("u1", "b")])
    with pytest.raises(DataError):
        MT.evaluate_manifest(dup, nbests)


def test_evaluate_manifest_names_the_row_with_an_empty_reference():
    man = _manifest([("u1", "a b"), ("u9", "")])
    nbests = [_nb("u1", [("a b", -1.0)]), _nb("u9", [("a", -1.0)])]
    with pytest.raises(DataError, match="utterance 'u9': empty reference"):
        MT.evaluate_manifest(man, nbests)


def test_evaluate_manifest_identity_weights_match_plain():
    from asrlab.lm import RescoreWeights, train_lm
    man = _manifest([("u1", "a b c"), ("u2", "a b")])
    nbests = [_nb("u1", [("a x c", -1.0), ("a b c", -2.0)]),
              _nb("u2", [("a b", -1.0)])]
    lm = train_lm(["a b c", "a b"], order=3)
    rep = MT.evaluate_manifest(man, nbests, lm=lm, weights=RescoreWeights(0.0, 0.0))
    assert rep["rescored_wer"] == rep["test_wer"]


def test_report_round_trip(tmp_path):
    report = {"variants": {"CTC-Gen": {"test_wer": 0.5, "oracle_wer": 0.25}},
              "domain": "address", "seed": 3}
    path = tmp_path / "report.json"
    MT.write_report(path, report)
    assert MT.read_report(path) == report


@pytest.mark.parametrize("content", [None, '{"test_wer": ', b"\xff\xfe", "[0.5]"],
                         ids=["missing", "not-json", "not-utf8", "not-an-object"])
def test_unreadable_report_raises_data_error(tmp_path, content):
    path = tmp_path / "report.json"
    if isinstance(content, str):
        path.write_text(content)
    elif content is not None:
        path.write_bytes(content)
    with pytest.raises(DataError, match="report"):
        MT.read_report(path)


def test_format_table_and_csv(tmp_path):
    variants = {
        "CTC-Gen": {"test_wer": 0.71, "rescored_wer": 0.64, "oracle_wer": 0.51},
        "CTC-Dense": {"test_wer": 0.40, "rescored_wer": 0.38, "oracle_wer": 0.29},
    }
    table = MT.format_table(variants)
    lines = table.splitlines()
    assert lines[0].split() == ["Model", "Test", "WER", "+", "LM", "Rescoring", "N-Best", "WER"]
    assert "CTC-Gen" in lines[2] and "0.7100" in lines[2]
    MT.write_csv(tmp_path / "r.csv", variants)
    text = (tmp_path / "r.csv").read_text()
    assert "CTC-Dense,0.4,0.38,0.29" in text


# -- paired bootstrap ---------------------------------------------------------------

REFS = {"u1": "a", "u2": "b c d"}


def test_paired_bootstrap_of_identical_hypotheses_is_zero():
    hyps = {"u1": "a x", "u2": "b d"}
    assert MT.paired_bootstrap(REFS, hyps, dict(hyps)) == (0.0, (0.0, 0.0), 0.0)


def test_paired_bootstrap_is_reproducible_under_a_seed():
    a, b = {"u1": "a", "u2": "x c d"}, {"u1": "z", "u2": "b c d"}
    assert MT.paired_bootstrap(REFS, a, b) == MT.paired_bootstrap(REFS, a, b)


@pytest.mark.parametrize("chunk", [7, MT.BOOTSTRAP_RESAMPLES], ids=["uneven-chunks", "one-chunk"])
def test_paired_bootstrap_does_not_depend_on_its_chunk_size(monkeypatch, chunk):
    rng = np.random.default_rng(3)
    words = "a b c d e".split()
    refs = {f"u{i}": " ".join(rng.choice(words, size=4)) for i in range(30)}
    a = {k: " ".join(rng.choice(words, size=4)) for k in refs}
    b = {k: " ".join(rng.choice(words, size=3)) for k in refs}
    expected = MT.paired_bootstrap(refs, a, b)
    monkeypatch.setattr(MT, "BOOTSTRAP_CHUNK", chunk)
    assert MT.paired_bootstrap(refs, a, b) == expected


def test_paired_bootstrap_hand_computed_case():
    # a errs once on u2 (3 words), b once on u1 (1 word): the pooled difference is (1 - 1) / 4 = 0.
    # A draw of two utterances is {u1, u1} with chance 1/4 (delta (2 - 0) / 2 = 1), {u2, u2} with
    # chance 1/4 (delta (0 - 2) / 6 = -1/3) and one of each otherwise (delta 0), so the 95%
    # interval is [-1/3, 1] and b is better in about a quarter of the draws.
    delta, (low, high), b_better = MT.paired_bootstrap(REFS, {"u1": "a", "u2": "x c d"},
                                                       {"u1": "z", "u2": "b c d"})
    assert delta == 0.0
    assert (low, high) == (-1 / 3, 1.0)
    assert abs(b_better - 0.25) <= 0.02


@pytest.mark.parametrize("hyps_a, hyps_b", [
    ({"u1": "a"}, {"u1": "a", "u2": "b c d"}),
    ({"u1": "a", "u2": "b c d"}, {"u1": "a", "u3": "b c d"}),
    ({"u1": "a", "u2": "b c d", "u3": "e"}, {"u1": "a", "u2": "b c d", "u3": "e"}),
], ids=["missing-in-a", "other-id-in-b", "extra-in-both"])
def test_paired_bootstrap_with_mismatched_ids_raises_data_error(hyps_a, hyps_b):
    with pytest.raises(DataError):
        MT.paired_bootstrap(REFS, hyps_a, hyps_b)
