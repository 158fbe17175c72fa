import math

import numpy as np
import pytest

from synthnotes.corpus import Corpus, EON_TOKEN, Note, UNK_TOKEN, read_corpus, write_corpus
from synthnotes.generation import GenerationConfig, generate_corpus, sample_from_distribution
from synthnotes.lm import LanguageModel, train_unigram


class CycleModel(LanguageModel):
    """Deterministic scripted model: emits w0..w9 then the end-of-note token."""

    def __init__(self):
        tokens = tuple(f"w{i}" for i in range(10)) + (EON_TOKEN,)
        super().__init__(tokens)

    def step(self, ids, state):
        nxt = np.where(ids == self.eon_id, 0, ids + 1)
        dists = np.full((len(ids), self.vocab_size), 1e-12)
        dists[np.arange(len(ids)), nxt] = 1.0
        return dists / dists.sum(axis=1, keepdims=True), None


def unigram_fixture():
    corpus = Corpus((
        Note("n0", (("a", "a", "b", "."),)),
        Note("n1", (("b", "c", "."),)),
    ), "train")
    return train_unigram(corpus, (UNK_TOKEN, EON_TOKEN, "a", "b", "c", "."))


def draw(dist, temperature, rng) -> int:
    """One draw from a one-row call of the row-wise sampler."""
    ids = sample_from_distribution(np.asarray(dist)[None, :], temperature, rng)
    assert ids.shape == (1,)
    return int(ids[0])


class TestSampling:
    def test_temperature_zero_is_argmax_with_low_id_ties(self):
        rng = np.random.default_rng(0)
        assert draw(np.array([0.2, 0.4, 0.4]), 0.0, rng) == 1
        model = unigram_fixture()
        dist = model.step(np.array([model.eon_id]), model.start_state(1))[0][0]
        best = int(np.argmax(dist))
        for _ in range(5):
            assert draw(dist, 0.0, rng) == best

    def test_fixed_seed_reproducible(self):
        model = unigram_fixture()
        dist = model.step(np.array([model.eon_id]), model.start_state(1))[0][0]
        draws1 = [draw(dist, 1.0, np.random.default_rng(4)) for _ in range(1)]
        draws2 = [draw(dist, 1.0, np.random.default_rng(4)) for _ in range(1)]
        rng1, rng2 = np.random.default_rng(4), np.random.default_rng(4)
        seq1 = [draw(dist, 1.0, rng1) for _ in range(50)]
        seq2 = [draw(dist, 1.0, rng2) for _ in range(50)]
        assert seq1 == seq2 and draws1 == draws2

    def test_binomial_bound_on_fair_coin(self):
        rng = np.random.default_rng(123)
        dist = np.array([0.5, 0.5])
        ones = sum(draw(dist, 1.0, rng) for _ in range(10_000))
        assert abs(ones - 5000) <= 200

    def test_temperature_sharpens(self):
        rng = np.random.default_rng(7)
        dist = np.array([0.8, 0.2])
        cold = [draw(dist, 0.1, rng) for _ in range(300)]
        assert sum(cold) < 5  # nearly deterministic at low temperature

    def test_one_row_call_is_the_scalar_inverse_cdf_draw(self):
        dist = np.random.default_rng(5).random(40)
        dist /= dist.sum()
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(200):
            cdf = np.cumsum(dist)
            expected = int(np.searchsorted(cdf, ref.random() * cdf[-1], side="right"))
            assert draw(dist, 1.0, rng) == expected

    def test_rows_sample_independently(self):
        dists = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5],
                          [0.2, 0.4, 0.4]])
        rng = np.random.default_rng(3)
        for _ in range(50):
            ids = sample_from_distribution(dists, 1.0, rng)
            assert ids.shape == (4,)
            assert ids[0] == 0 and ids[1] == 2 and ids[2] in (1, 2)
        np.testing.assert_array_equal(sample_from_distribution(dists, 0.0, rng),
                                      [0, 2, 1, 1])

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            GenerationConfig(target_word_count=10, temperature=-0.5)

    @pytest.mark.parametrize("temperature", [math.nan, math.inf])
    def test_non_finite_temperature_rejected(self, temperature):
        with pytest.raises(ValueError, match="finite"):
            GenerationConfig(target_word_count=10, temperature=temperature)


class TestGenerateCorpus:
    def test_deterministic_cycle_model_hits_exact_target(self):
        corpus = generate_corpus(CycleModel(), GenerationConfig(
            target_word_count=100, temperature=0.0, seed=0))
        assert corpus.word_count == 100
        assert len(corpus) == 10

    def test_same_seed_byte_identical_file(self, tmp_path):
        model = unigram_fixture()
        config = GenerationConfig(target_word_count=200, seed=11)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_corpus(generate_corpus(model, config), a)
        write_corpus(generate_corpus(model, config), b)
        assert a.read_bytes() == b.read_bytes()

    def test_output_roundtrips_and_stays_in_vocab(self, tmp_path):
        model = unigram_fixture()
        corpus = generate_corpus(model, GenerationConfig(target_word_count=300, seed=3))
        assert corpus.word_count >= 300
        path = tmp_path / "gen.txt"
        write_corpus(corpus, path)
        back = read_corpus(path)
        assert [n.sentences for n in back] == [n.sentences for n in corpus]
        vocab_tokens = set(model.tokens)
        for note in corpus:
            assert note.word_count > 0
            assert all(tok in vocab_tokens for tok in note.tokens)

    def test_model_unchanged_by_generation(self):
        model = unigram_fixture()
        before = model.counts.copy()
        generate_corpus(model, GenerationConfig(target_word_count=100, seed=1))
        assert np.array_equal(model.counts, before)

    def test_max_note_length_forces_boundaries(self):
        corpus = Corpus((Note("n0", (("a", "a", "a", "b"),)),), "train")
        model = train_unigram(corpus, ("a", "b", EON_TOKEN))  # eon never sampled often
        config = GenerationConfig(target_word_count=50, seed=2, max_note_length=7)
        out = generate_corpus(model, config)
        assert all(n.word_count <= 7 for n in out)
        assert 50 <= out.word_count <= 50 + 7

    def test_missing_eon_rejected(self):
        corpus = Corpus((Note("n0", (("a",),)),), "train")
        model = train_unigram(corpus, ("a", "b"))
        with pytest.raises(ValueError):
            generate_corpus(model, GenerationConfig(target_word_count=5))

    def test_unigram_frequencies_match_model(self):
        # realistic note lengths keep the end-of-note probability small, so
        # empty-note suppression cannot distort the comparison
        rng = np.random.default_rng(0)
        words = ["a", "b", "c", "d", "e"]
        notes = tuple(
            Note(f"n{i}", (tuple(rng.choice(words, size=30)),)) for i in range(40)
        )
        model = train_unigram(Corpus(notes, "train"), (EON_TOKEN, *words))
        corpus = generate_corpus(model, GenerationConfig(target_word_count=1_000_000, seed=8))
        counts = np.zeros(model.vocab_size)
        for note in corpus:
            for tok in note.tokens:
                counts[model.token_id(tok)] += 1
        counts[model.eon_id] = len(corpus)
        freq = counts / counts.sum()
        target = np.exp(model._log_probs)
        assert np.abs(freq - target).sum() < 0.02


class TestStreams:
    @pytest.mark.parametrize("target", [1, 37])
    def test_stop_rule_bounds_and_emission_order(self, tmp_path, target):
        model = unigram_fixture()
        config = GenerationConfig(target_word_count=target, seed=5, max_note_length=6)
        corpus = generate_corpus(model, config)
        assert target <= corpus.word_count <= target + config.max_note_length
        assert all(note.word_count > 0 for note in corpus)
        assert [note.id for note in corpus] == [f"gen-{i:05d}" for i in range(len(corpus))]
        # the stop comes at the first note that reaches the target
        assert corpus.word_count - corpus.notes[-1].word_count < target
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_corpus(corpus, a)
        write_corpus(generate_corpus(model, config), b)
        assert a.read_bytes() == b.read_bytes()
