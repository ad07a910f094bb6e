import hashlib
import json

import numpy as np
import pytest

from asrlab import ttssim
from asrlab.errors import DataError
from asrlab.tokenizer import MARKER, SubwordModel, train_bpe


def test_first_merge_on_low_corpus():
    model = train_bpe(["low", "low", "lower"], vocab_size=8)
    assert model.merges[0] == ("l", "o")


def test_encode_after_lo_merge():
    model = train_bpe(["low", "low", "lower"], vocab_size=7)
    # base is {e,l,o,r,w,MARKER} = 6 symbols, so one merge: ("l","o")
    assert model.merges == [("l", "o")]
    ids = model.encode("low")
    assert [model.vocab[i] for i in ids] == ["lo", "w"]


def test_vocab_equals_charset_gives_char_model():
    model = train_bpe(["abc cba"], vocab_size=4)  # charset a,b,c + marker
    assert model.merges == []
    assert model.size == 4
    ids = model.encode("abc cba")
    assert [model.vocab[i] for i in ids] == ["a", "b", "c", MARKER, "c", "b", "a"]


def test_vocab_too_small_rejected():
    with pytest.raises(DataError):
        train_bpe(["abc"], vocab_size=2)


def test_retrain_is_deterministic():
    corpus = ttssim.sample_text(ttssim.GENERIC, 200, seed=3)
    m1 = train_bpe(corpus, 120)
    m2 = train_bpe(corpus, 120)
    assert m1.merges == m2.merges
    assert m1.vocab == m2.vocab


def test_merges_on_a_seeded_corpus_are_pinned():
    """The merges and vocab learnt at vocab 200 on a seeded generic plus
    address corpus, hashed."""
    corpus = ttssim.sample_text(ttssim.GENERIC, 300, seed=41) + ttssim.sample_text(ttssim.ADDRESS, 300, seed=42)
    model = train_bpe(corpus, 200, charset=ttssim.CHARSET)
    assert model.size == 200
    payload = json.dumps([model.merges, model.vocab], ensure_ascii=False).encode()
    assert hashlib.sha256(payload).hexdigest() == "ac75e3b3163d2c974f294465a4cdb8c50208327a959f7f09f5420b11a5697666"


def test_round_trip_identity():
    assert train_bpe(["main street"], 16).decode(
        train_bpe(["main street"], 16).encode("main street")) == "main street"


def test_round_trip_on_grammar_sentences():
    corpus = ttssim.sample_text(ttssim.GENERIC, 400, seed=4)
    model = train_bpe(corpus, 150, charset=ttssim.CHARSET)
    for gram, seed in ((ttssim.GENERIC, 5), (ttssim.ADDRESS, 6), (ttssim.VOICESEARCH, 7)):
        for text in ttssim.sample_text(gram, 300, seed=seed):
            assert model.decode(model.encode(text)) == text


def test_token_count_bounded_by_char_count():
    corpus = ttssim.sample_text(ttssim.GENERIC, 300, seed=8)
    model = train_bpe(corpus, 150, charset=ttssim.CHARSET)
    for text in corpus + ttssim.sample_text(ttssim.ADDRESS, 100, seed=9):
        assert len(model.encode(text)) <= len(text)


def test_single_known_char_is_one_id():
    model = train_bpe(["abc"], vocab_size=4)
    assert len(model.encode("a")) == 1


def test_out_of_charset_and_bad_ids():
    model = train_bpe(["abc"], vocab_size=4)
    with pytest.raises(DataError):
        model.encode("xyz")
    with pytest.raises(DataError):
        model.decode([99])


def test_save_load_identical_encodings(tmp_path):
    corpus = ttssim.sample_text(ttssim.ADDRESS, 200, seed=10)
    model = train_bpe(corpus, 140)
    model.save(tmp_path / "bpe.json")
    back = SubwordModel.load(tmp_path / "bpe.json")
    assert back.vocab == model.vocab
    assert back.merges == model.merges
    rng = np.random.default_rng(11)
    for text in ttssim.sample_text(ttssim.ADDRESS, 50, seed=int(rng.integers(1 << 30))):
        assert back.encode(text) == model.encode(text)


@pytest.mark.parametrize("text", ['{"version": 1, "charset": ', '["a", "b"]', '{"version": 1, "charset": ["a"], "vocab": ["a"]}',
                                  '{"version": 1, "charset": ["a", "b"], "merges": [["a", "b"]], '
                                  '"vocab": ["b", "a", "\\u2581", "ab"]}'],
                         ids=["not-json", "json-list", "missing-field", "swapped-vocab"])
def test_load_bad_file_raises_data_error(tmp_path, text):
    (tmp_path / "bpe.json").write_text(text)
    with pytest.raises(DataError):
        SubwordModel.load(tmp_path / "bpe.json")


def test_blank_id_outside_table():
    model = train_bpe(["abc"], vocab_size=4)
    assert model.blank_id == model.size == 4
