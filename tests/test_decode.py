import numpy as np
import pytest
from oracle_utils import exhaustive_ctc_marginals, reference_las_beam, reference_prefix_beam

from asrlab import config as C
from asrlab import decode as D
from asrlab import models as M
from asrlab import tensor as T
from asrlab import ttssim
from asrlab.errors import DataError, NumericError, ShapeError, UsageError
from asrlab.tokenizer import train_bpe


def char_tok():
    # char model over {a, b}: ids a=0, b=1, marker=2; CTC blank = 3
    return train_bpe(["ab ba"], vocab_size=3)


def lp_from_argmax_pattern(pattern, width):
    out = np.full((len(pattern), width), np.log(0.1 / (width - 1)))
    for t, k in enumerate(pattern):
        out[t, k] = np.log(0.9)
    return out


def test_ctc_greedy_collapse_rule():
    tok = char_tok()
    blank = tok.blank_id
    lp = lp_from_argmax_pattern([0, 0, blank, 1, 1], blank + 1)
    hyp = D.ctc_greedy(lp, tok)
    assert hyp.text == "ab"
    assert hyp.tokens == (0, 1)
    assert np.isclose(hyp.am_score, 5 * np.log(0.9))


def test_ctc_greedy_all_blank_is_empty():
    tok = char_tok()
    lp = lp_from_argmax_pattern([3, 3, 3], 4)
    hyp = D.ctc_greedy(lp, tok)
    assert hyp.text == ""
    assert hyp.tokens == ()


def test_prefix_beam_matches_exhaustive_marginal_argmax():
    tok = char_tok()
    rng = np.random.default_rng(0)
    for trial in range(20):
        t_len = int(rng.integers(2, 4))
        lp = T.log_softmax_np(rng.normal(scale=1.5, size=(t_len, 3)), axis=-1)
        marginals = exhaustive_ctc_marginals(lp, blank=2)
        # tokens {a}, blank=... width 3 means vocab {a,b}? width=3 -> 2 symbols + blank
        best_label = max(marginals, key=lambda k: (marginals[k], k))
        hyps = D.ctc_prefix_beam(lp, tok, beam=32)
        assert hyps[0].tokens == best_label, trial
        assert np.isclose(hyps[0].am_score, marginals[best_label], atol=1e-9)


def test_prefix_beam_top1_at_least_greedy_path_score():
    tok = char_tok()
    rng = np.random.default_rng(1)
    for _ in range(50):
        t_len = int(rng.integers(2, 9))
        lp = T.log_softmax_np(rng.normal(scale=2.0, size=(t_len, 4)), axis=-1)
        greedy = D.ctc_greedy(lp, tok)
        hyps = D.ctc_prefix_beam(lp, tok, beam=10)
        assert hyps[0].am_score >= greedy.am_score - 1e-9


def test_prefix_beam_wider_never_worse():
    tok = char_tok()
    rng = np.random.default_rng(2)
    for _ in range(10):
        lp = T.log_softmax_np(rng.normal(scale=2.0, size=(8, 4)), axis=-1)
        scores = [D.ctc_prefix_beam(lp, tok, beam=b)[0].am_score for b in (1, 2, 4, 8, 16)]
        assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:])), scores


def test_prefix_beam_no_duplicate_texts():
    tok = char_tok()
    rng = np.random.default_rng(3)
    lp = T.log_softmax_np(rng.normal(size=(10, 4)), axis=-1)
    hyps = D.ctc_prefix_beam(lp, tok, beam=10)
    texts = [h.text for h in hyps]
    assert len(texts) == len(set(texts))
    with pytest.raises(UsageError):
        D.ctc_prefix_beam(lp, tok, beam=0)


def assert_same_nbest(got, want):
    assert [(h.tokens, h.text) for h in got] == [(h.tokens, h.text) for h in want]
    assert np.allclose([h.am_score for h in got], [h.am_score for h in want], rtol=0, atol=1e-9)


def test_prefix_beam_matches_reference_on_small_vocab():
    tok = train_bpe(["ab ba cd dc"], vocab_size=5)  # ids 0-4, so every width up to 5 decodes
    rng = np.random.default_rng(4)
    for width in (3, 4, 5):
        for t_len in range(1, 10):
            lp = T.log_softmax_np(rng.normal(scale=2.0, size=(t_len, width)), axis=-1)
            # rounded log-probs give equal totals, which the prefix order must break
            for case in (lp, np.round(lp, 1)):
                for beam in (1, 2, 4, 10, 32):
                    assert_same_nbest(D.ctc_prefix_beam(case, tok, beam=beam),
                                      reference_prefix_beam(case, tok, beam=beam))


def test_prefix_beam_matches_reference_at_desk_shape():
    tok = train_bpe(ttssim.sample_text(ttssim.ADDRESS, 300, seed=0), vocab_size=200,
                    charset=ttssim.CHARSET)
    rng = np.random.default_rng(5)
    for t_len in (60, 140):
        logits = rng.normal(scale=2.0, size=(t_len, 201))
        logits[np.arange(t_len), rng.integers(0, 201, size=t_len)] += 8.0  # peaked, like a trained model
        lp = T.log_softmax_np(logits.astype(np.float32), axis=-1)
        assert lp.dtype == np.float32
        assert_same_nbest(D.ctc_prefix_beam(lp, tok, beam=8), reference_prefix_beam(lp, tok, beam=8))


@pytest.mark.parametrize("log_probs, error", [
    (np.zeros(4), ShapeError),
    (np.zeros((2, 3, 4)), ShapeError),
    (np.zeros((3, 1)), ShapeError),
    (np.array([[0.0, np.nan, 0.0, 0.0]]), NumericError),
    (np.array([[0.0, 0.0, np.inf, 0.0]]), NumericError),
    (np.array([[-np.inf, 0.0, 0.0, 0.0]]), NumericError),
], ids=["1d", "3d", "width-1", "nan", "inf", "neg-inf"])
def test_prefix_beam_rejects_bad_log_probs(log_probs, error):
    with pytest.raises(error):
        D.ctc_prefix_beam(log_probs, char_tok())


def test_prefix_beam_zero_frames_is_empty_hypothesis():
    hyps = D.ctc_prefix_beam(np.zeros((0, 4)), char_tok(), beam=4)
    assert [(h.tokens, h.text, h.am_score) for h in hyps] == [((), "", 0.0)]


class _ToyLas:
    """Hand-scripted decoder: step probs make greedy miss the best path."""

    bos_id = 2
    eos_id = 3

    def __init__(self):
        # P(token | BOS): a=0.6, b=0.4
        self.step1 = np.log(np.array([0.6, 0.4, 1e-9, 1e-9]))
        # P(. | a): eos=0.4 best; P(. | b): eos=0.9
        self.after = {0: np.log(np.array([0.3, 0.3, 1e-9, 0.4])),
                      1: np.log(np.array([0.05, 0.05, 1e-9, 0.9]))}

    def encode(self, feats):
        return T.Tensor(np.zeros((1, 1, 1), dtype=np.float32)), np.zeros((1, 1, 1), dtype=bool)

    def start_decoding(self, memory, mem_mask):
        return self

    def step(self, rows, tokens):
        return np.array([self.step1 if t == self.bos_id else self.after[t] for t in tokens])


def test_las_beam_finds_sequence_greedy_misses():
    tok = char_tok()
    model = _ToyLas()
    feats = np.zeros((3, 1), dtype=np.float32)
    greedy = D.las_beam(model, feats, tok, beam=1, max_len=3)
    wide = D.las_beam(model, feats, tok, beam=2, max_len=3)
    assert greedy[0].text == "a"   # 0.6 then 0.4
    assert wide[0].text == "b"     # 0.4 * 0.9 beats 0.6 * 0.4
    assert wide[0].am_score > greedy[0].am_score


def test_las_beam_wider_never_worse():
    tok = char_tok()
    model = _ToyLas()
    feats = np.zeros((3, 1), dtype=np.float32)
    scores = [D.las_beam(model, feats, tok, beam=b, max_len=3)[0].am_score for b in (1, 2, 4)]
    assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))


def test_las_beam_hyps_end_with_eos_or_max_len():
    tok = char_tok()

    class NeverEos(_ToyLas):
        def step(self, rows, tokens):
            out = np.full((len(tokens), 4), np.log(1e-9))
            out[:, 0] = np.log(0.6)
            out[:, 1] = np.log(0.4)
            return out

    hyps = D.las_beam(NeverEos(), np.zeros((3, 1), np.float32), tok, beam=2, max_len=4)
    assert all(len(h.tokens) == 4 for h in hyps)  # max_len reached, no EOS


def small_las(seed, dec_blocks=2):
    cfg = C.LasConfig(feat_dim=6, dim=8, ff_dim=16, heads=2, enc_blocks=1, dec_blocks=dec_blocks, vocab=5)
    return M.build_model(cfg, seed=seed)


def test_incremental_decoder_matches_decode_logits_on_reordered_prefixes():
    model = small_las(0)
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(9, 1, 6)).astype(np.float32)
    memory, mem_mask = model.encode(feats, lengths=np.array([7]))  # two padded memory frames
    decoder = model.start_decoding(memory, mem_mask)
    prefixes = np.full((1, 1), model.bos_id)
    rows, tokens = [0], [model.bos_id]
    checked = 0
    for pos in range(515):
        logits = decoder.step(rows, tokens)
        if pos < 6 or pos >= 510:  # 510-514 run past the 512-row position table
            n = len(prefixes)
            want = model.decode_logits(T.Tensor(np.repeat(memory.data, n, axis=0)),
                                       np.repeat(mem_mask, n, axis=0), prefixes).data[:, -1]
            assert logits.shape == want.shape
            assert np.max(np.abs(logits - want)) <= 1e-5, pos
            checked += 1
        n_next = int(rng.integers(1, 5))
        rows = rng.integers(0, len(prefixes), size=n_next)
        tokens = rng.integers(0, model.cfg.vocab, size=n_next)
        prefixes = np.concatenate([prefixes[rows], tokens[:, None]], axis=1)
    assert checked == 11
    assert model._pe.shape[0] > 512


def test_las_beam_matches_reference_on_random_models():
    tok = train_bpe(["ab ba cd dc"], vocab_size=5)
    rng = np.random.default_rng(7)
    for seed in range(6):
        model = small_las(seed, dec_blocks=1 + seed % 2)
        feats = rng.normal(size=(int(rng.integers(1, 12)), 6)).astype(np.float32)
        for beam, max_len in ((1, 8), (3, 12), (8, 20)):
            got = D.las_beam(model, feats, tok, beam=beam, max_len=max_len)
            want = reference_las_beam(model, feats, tok, beam=beam, max_len=max_len)
            assert [(h.tokens, h.text) for h in got] == [(h.tokens, h.text) for h in want], (seed, beam)
            assert np.allclose([h.am_score for h in got], [h.am_score for h in want], rtol=0, atol=1e-5)


@pytest.mark.parametrize("feats, error", [
    (np.zeros(6, np.float32), ShapeError),
    (np.zeros((4, 1, 6), np.float32), ShapeError),
    (np.zeros((0, 6), np.float32), ShapeError),
    (np.full((4, 6), np.nan, np.float32), NumericError),
    (np.array([[0.0] * 5 + [np.inf]] * 3, np.float32), NumericError),
], ids=["1d", "3d", "zero-frames", "nan", "inf"])
def test_las_beam_rejects_bad_features(feats, error):
    with pytest.raises(error):
        D.las_beam(small_las(0), feats, char_tok(), beam=2, max_len=4)


def test_nbest_serialization_round_trip(tmp_path):
    nb = [
        D.NBestList("u1", [D.Hypothesis((0,), "a", -1.5, -2.0, -3.5),
                           D.Hypothesis((1,), "b", -2.5)]),
        D.NBestList("u2", [D.Hypothesis((), "", -0.25)]),
    ]
    path = tmp_path / "nbest.jsonl"
    D.write_nbest(path, nb)
    back = D.read_nbest(path)
    assert [b.utt_id for b in back] == ["u1", "u2"]
    assert back[0].hyps[0].text == "a"
    assert back[0].hyps[0].lm_score == -2.0
    assert back[0].hyps[0].total == -3.5
    assert back[0].hyps[1].lm_score is None
    assert [h.am_score for h in back[0].hyps] == [-1.5, -2.5]


@pytest.mark.parametrize("row", [
    '{"id": "u2", "hyps": [{"text": "a", "am": "x"}]}',
    '{"id": "u2", "hyps": [{"text": "a", "am": true}]}',
    '{"id": "u2", "hyps": [{"text": 5, "am": -1.0}]}',
    '{"id": "u2", "hyps": [{"text": "a", "am": NaN}]}',
    '{"id": "u2", "hyps": [{"text": "a", "am": null}]}',
    '{"id": "u2", "hyps": [{"text": "a", "am": -1.0, "lm": "x"}]}',
    '{"id": "u2", "hyps": [{"text": "a", "am": -1.0, "total": NaN}]}',
    '{"id": "u2", "hyps": ["a"]}',
    '{"id": 2, "hyps": [{"text": "a", "am": -1.0}]}',
], ids=["am-string", "am-bool", "text-number", "am-nan", "am-null", "lm-string", "total-nan", "not-an-object",
        "id-number"])
def test_read_nbest_bad_row_raises_data_error(tmp_path, row):
    path = tmp_path / "nbest.jsonl"
    path.write_text('{"id": "u1", "hyps": [{"text": "b", "am": -0.5}]}\n' + row + "\n")
    with pytest.raises(DataError, match=":2: bad n-best row"):
        D.read_nbest(path)


def test_read_nbest_keeps_a_hypothesis_with_no_mass(tmp_path):
    path = tmp_path / "nbest.jsonl"
    D.write_nbest(path, [D.NBestList("u1", [D.Hypothesis((), "a", -1.0), D.Hypothesis((), "b", -np.inf)])])
    assert [h.am_score for h in D.read_nbest(path)[0].hyps] == [-1.0, -np.inf]
