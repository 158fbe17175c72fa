import math

import numpy as np
import pytest

from synthnotes.corpus import Corpus, EON_TOKEN, Note, UNK_TOKEN
from synthnotes.lm import UniformModel, perplexity, train_bigram, train_unigram
from synthnotes.neural import LstmLmConfig, train_lstm_lm


def corpus_of(*token_lists, role="train"):
    notes = tuple(Note(f"n{i}", (tuple(toks),)) for i, toks in enumerate(token_lists))
    return Corpus(notes, role)


class TestUnigram:
    def test_lidstone_formula(self):
        model = train_unigram(corpus_of(["a", "a", "a", "b"]), ("a", "b"))
        assert math.exp(model.sequence_log_probs([0])[0]) == pytest.approx(4 / 6, abs=1e-12)

    def test_unseen_token_smoothed(self):
        model = train_unigram(corpus_of(["a"] * 4), ("a", "b"))
        assert math.exp(model.sequence_log_probs([1])[0]) == pytest.approx(1 / 6, abs=1e-12)

    def test_distribution_sums_to_one(self):
        model = train_unigram(corpus_of(["a", "b", "b"]), ("a", "b", "c"))
        dist, _ = model.step(np.array([0]), model.start_state(1))
        assert dist[0].sum() == pytest.approx(1.0, abs=1e-9)

    def test_out_of_vocab_id_rejected(self):
        model = train_unigram(corpus_of(["a"]), ("a",))
        for ids in ([5], [0, -1]):
            with pytest.raises(ValueError):
                model.sequence_log_probs(ids)

    def test_context_independence_exact(self):
        model = train_unigram(corpus_of(["a", "b", "a"]), ("a", "b"))
        assert model.sequence_log_probs([0, 1])[1] == model.sequence_log_probs([1, 0, 1, 1])[3]
        dists, _ = model.step(np.array([0, 1]), None)
        assert np.array_equal(dists[0], dists[1])


class TestBigram:
    def test_conditional_formula(self):
        model = train_bigram(corpus_of(["a", "b", "a", "b"]), ("a", "b"))
        assert model.step(np.array([0]), None)[0][0, 1] == pytest.approx(3 / 4, abs=1e-12)
        assert model.sequence_log_probs([0, 1])[1] == pytest.approx(math.log(3 / 4), abs=1e-12)

    def test_unseen_context_uniform(self):
        model = train_bigram(corpus_of(["a", "a"]), ("a", "b"))
        np.testing.assert_allclose(model.step(np.array([1]), None)[0], [[0.5, 0.5]],
                                   atol=1e-12)
        # without an end-of-note token the note start is an unseen context
        assert model.sequence_log_probs([1])[0] == pytest.approx(math.log(0.5), abs=1e-12)

    def test_rows_normalize(self):
        model = train_bigram(corpus_of(["a", "b", "b", "a"], ["b", "a"]), ("a", "b"))
        for row in model.step(np.array([0, 1]), None)[0]:
            assert row.sum() == pytest.approx(1.0, abs=1e-9)


class TestPerplexity:
    def test_uniform_model(self):
        model = UniformModel([f"t{i}" for i in range(10)])
        corpus = corpus_of(["t0", "t3", "t9"], ["t1"])
        assert perplexity(model, corpus) == pytest.approx(10.0, abs=1e-9)

    def test_hand_computed_unigram(self):
        train = corpus_of(["a", "b"], ["b", "b"])
        model = train_unigram(train, ("a", "b"))
        assert perplexity(model, corpus_of(["b", "b"])) == pytest.approx(1.5, abs=1e-12)

    def test_deterministic_single_token_language(self):
        train = corpus_of(["a"] * 50)
        model = train_unigram(train, ("a",))
        assert perplexity(model, train) == pytest.approx(1.0, abs=1e-12)

    def test_empty_corpus_rejected(self):
        model = UniformModel(("a",))
        with pytest.raises(ValueError):
            perplexity(model, Corpus((), "valid"))


def lstm_model(vocab):
    config = LstmLmConfig(hidden_size=8, layers=2, epochs=2, seed=4, initial_lr=1.0,
                          batch_size=2, bptt=10)
    train = corpus_of(["a", "b", "b", "c"], ["c", "a"], ["b", "c", "a", "a"])
    return train_lstm_lm(train, train, vocab, config)


class TestContract:
    @pytest.mark.parametrize("factory", [
        lambda v: UniformModel(v),
        lambda v: train_unigram(corpus_of(["a", "b", "b", "c"]), v),
        lambda v: train_bigram(corpus_of(["a", "b", "b", "c"], ["c", "a"]), v),
        lstm_model,
    ])
    def test_normalization_and_positivity(self, factory):
        """step walks normalized, positive distributions from the note start,
        sequence_log_probs is the log of those distributions along ids, and
        ids outside the token space are rejected."""
        model = factory((EON_TOKEN, "a", "b", "c"))
        rng = np.random.default_rng(17)
        for _ in range(20):
            ids = [int(i) for i in rng.integers(1, 4, size=rng.integers(0, 8))]
            state = model.start_state(1)
            walked = []
            for prev, tok in zip([model.eon_id] + ids, ids + [None]):
                dists, state = model.step(np.array([prev]), state)
                assert dists.shape == (1, model.vocab_size)
                dist = dists[0]
                assert dist.sum() == pytest.approx(1.0, abs=1e-9)
                assert np.all(dist > 0)
                if tok is not None:
                    walked.append(math.log(dist[tok]))
            scored = model.sequence_log_probs(ids)
            assert scored.shape == (len(ids),)
            np.testing.assert_allclose(scored, walked, rtol=0, atol=1e-10)
        for ids in ([4], [1, -1]):
            with pytest.raises(ValueError):
                model.sequence_log_probs(ids)

    @pytest.mark.parametrize("factory", [
        lambda v: UniformModel(v),
        lambda v: train_unigram(corpus_of(["a", "b", "b", "c"]), v),
        lambda v: train_bigram(corpus_of(["a", "b", "b", "c"], ["c", "a"]), v),
    ])
    def test_batched_rows_equal_lone_steps_exactly(self, factory):
        model = factory((EON_TOKEN, "a", "b", "c"))
        ids = np.array([2, 0, 3, 2, 1])
        dists, _ = model.step(ids, model.start_state(len(ids)))
        assert dists.shape == (len(ids), model.vocab_size)
        for row, i in zip(dists, ids):
            assert np.array_equal(row, model.step(np.array([i]), model.start_state(1))[0][0])

    def test_eon_counted_in_stream(self):
        model = train_unigram(corpus_of(["a", "a", "a"]), (UNK_TOKEN, EON_TOKEN, "a"))
        # leading <eon> plus one per note
        assert model.counts[model.eon_id] == 2
        assert model.total == 5
