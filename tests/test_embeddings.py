import numpy as np
import pytest
from scipy.special import expit as sigmoid

from synthnotes.corpus import Corpus, Note
from synthnotes.embeddings import (
    INITIAL_LR,
    EmbeddingSet,
    SgnsConfig,
    SimilarityBenchmark,
    cosine,
    evaluate_similarity,
    extract_window_pairs,
    read_benchmark,
    read_embeddings,
    train_sgns,
    write_benchmark,
    write_embeddings,
    _noise_cdf,
    _sgd_pass,
)


def sgns_pair_loss(center: np.ndarray, context: np.ndarray, negatives: np.ndarray):
    """Loss and gradients of one (center, context, negatives) triple:
    -log s(c.o) - sum_n log s(-c.n). Returns (loss, d_center, d_context, d_negatives)."""
    pos = float(sigmoid(center @ context))
    negs = sigmoid(negatives @ center)
    loss = -np.log(pos) - float(np.sum(np.log(1.0 - negs)))
    d_center = (pos - 1.0) * context + negs @ negatives
    d_context = (pos - 1.0) * center
    d_negatives = negs[:, None] * center[None, :]
    return loss, d_center, d_context, d_negatives


def emb_from(vectors: dict) -> EmbeddingSet:
    words = tuple(vectors)
    return EmbeddingSet(words=words, matrix=np.array([vectors[w] for w in words], dtype=float))


class TestWindowsAndLoss:
    def test_window_one_pairs(self):
        assert extract_window_pairs(["a", "b", "c"], 1) == [
            ("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")]

    def test_window_clipped_at_edges(self):
        pairs = extract_window_pairs(["a", "b"], 5)
        assert pairs == [("a", "b"), ("b", "a")]

    def test_pair_loss_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        center = rng.standard_normal(8)
        context = rng.standard_normal(8)
        negatives = rng.standard_normal((4, 8))
        _, d_center, d_context, d_negs = sgns_pair_loss(center, context, negatives)
        eps = 1e-6

        def loss(c=center, o=context, n=negatives):
            return sgns_pair_loss(c, o, n)[0]

        for vec, grad in ((center, d_center), (context, d_context)):
            for i in range(len(vec)):
                orig = vec[i]
                vec[i] = orig + eps
                hi = loss()
                vec[i] = orig - eps
                lo = loss()
                vec[i] = orig
                numeric = (hi - lo) / (2 * eps)
                assert abs(numeric - grad[i]) / max(abs(numeric), abs(grad[i]), 1e-6) < 1e-4
        for j in range(negatives.shape[0]):
            for i in range(negatives.shape[1]):
                orig = negatives[j, i]
                negatives[j, i] = orig + eps
                hi = loss()
                negatives[j, i] = orig - eps
                lo = loss()
                negatives[j, i] = orig
                numeric = (hi - lo) / (2 * eps)
                assert abs(numeric - d_negs[j, i]) / max(abs(numeric), abs(d_negs[j, i]), 1e-6) < 1e-4

    def test_noise_cdf_ends_at_one(self):
        # ten equal weights sum to 0.9999999999999999 in float64
        cdf = _noise_cdf(np.ones(10), 0.75)
        assert cdf[-1] == 1.0
        assert np.searchsorted(cdf, np.nextafter(1.0, 0), side="right") < len(cdf)
        np.testing.assert_array_equal(cdf[:-1], np.cumsum(np.full(10, 0.1))[:-1])

    def test_sgd_pass_applies_pair_gradients(self):
        """One training batch moves every row by -lr times the sum of its
        pair gradients, all taken at the pre-batch weights."""
        rng = np.random.default_rng(8)
        w_in = rng.standard_normal((7, 6)) * 0.5
        w_out = rng.standard_normal((7, 6)) * 0.5
        # center 0 and the (0, 1) pair repeat, so duplicate rows must accumulate
        centers = np.array([0, 0, 2, 3, 0])
        contexts = np.array([1, 1, 1, 4, 2])
        # the context words 1, 2 and 4 have no noise mass: no negative collides
        noise = np.array([1.0, 0.0, 0.0, 2.0, 0.0, 1.0, 3.0])
        cdf = np.cumsum(noise / noise.sum())
        config = SgnsConfig(dim=6, negatives=3)
        new_in, new_out = w_in.copy(), w_out.copy()
        seen = _sgd_pass(new_in, new_out, centers, contexts, cdf, config,
                         np.random.default_rng(5), seen=0, total_visits=100)
        assert seen == len(centers)

        # the pass draws the batch's negatives from the noise cdf with its rng
        negs = np.searchsorted(cdf, np.random.default_rng(5).random((len(centers), 3)),
                               side="right")
        lr = INITIAL_LR  # the first batch of the decay
        want_in, want_out = w_in.copy(), w_out.copy()
        for c, o, n in zip(centers, contexts, negs):
            _, d_center, d_context, d_negs = sgns_pair_loss(w_in[c], w_out[o], w_out[n])
            want_in[c] -= lr * d_center
            want_out[o] -= lr * d_context
            for row, grad in zip(n, d_negs):
                want_out[row] -= lr * grad
        np.testing.assert_allclose(new_in, want_in, rtol=0, atol=1e-12)
        np.testing.assert_allclose(new_out, want_out, rtol=0, atol=1e-12)

    def test_sgd_pass_collided_repeated_and_untouched_rows(self):
        """Collided negatives are skipped, a negative drawn twice by one pair
        moves its row twice, and rows no pair touches keep their bits."""
        rng = np.random.default_rng(4)
        w_in = rng.standard_normal((8, 5)) * 0.5
        w_out = rng.standard_normal((8, 5)) * 0.5
        centers = np.array([0, 2, 0, 4, 2])
        contexts = np.array([1, 3, 1, 5, 3])
        # all noise mass sits on the context words 1, 3 and 5: four negatives
        # from three words repeat one, and a draw of the pair's context collides
        noise = np.array([0.0, 2.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0])
        cdf = np.cumsum(noise / noise.sum())
        config = SgnsConfig(dim=5, negatives=4)
        new_in, new_out = w_in.copy(), w_out.copy()
        _sgd_pass(new_in, new_out, centers, contexts, cdf, config,
                  np.random.default_rng(6), seen=0, total_visits=100)

        negs = np.searchsorted(cdf, np.random.default_rng(6).random((len(centers), 4)),
                               side="right")
        assert (negs == contexts[:, None]).any()
        assert all(len(set(row)) < len(row) for row in negs)
        lr = INITIAL_LR  # the first batch of the decay
        want_in, want_out = w_in.copy(), w_out.copy()
        for c, o, n in zip(centers, contexts, negs):
            n = n[n != o]
            _, d_center, d_context, d_negs = sgns_pair_loss(w_in[c], w_out[o], w_out[n])
            want_in[c] -= lr * d_center
            want_out[o] -= lr * d_context
            for row, grad in zip(n, d_negs):
                want_out[row] -= lr * grad
        np.testing.assert_allclose(new_in, want_in, rtol=0, atol=1e-12)
        np.testing.assert_allclose(new_out, want_out, rtol=0, atol=1e-12)
        untouched_in = [1, 3, 5, 6, 7]
        untouched_out = [0, 2, 4, 6, 7]
        assert not np.isin(untouched_out, negs).any()
        assert np.array_equal(new_in[untouched_in], w_in[untouched_in])
        assert np.array_equal(new_out[untouched_out], w_out[untouched_out])


class TestConfig:
    @pytest.mark.parametrize("field, value", [("min_count", 0)])
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(ValueError):
            SgnsConfig(**{field: value})


class TestCosine:
    def test_identities(self):
        v = np.array([0.3, -1.2, 4.0])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)
        assert cosine(v, -v) == pytest.approx(-1.0, abs=1e-12)
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == pytest.approx(0.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(3), np.ones(3))


class TestEvaluateSimilarity:
    def angled(self, cos_values):
        """Embeddings giving pairs (q, p_i) the requested cosine values."""
        vectors = {"q": np.array([1.0, 0.0])}
        for i, c in enumerate(cos_values):
            vectors[f"p{i}"] = np.array([c, float(np.sqrt(1.0 - c * c))])
        return emb_from(vectors)

    def bench(self, gold):
        return SimilarityBenchmark("t", tuple(
            ("q", f"p{i}", g) for i, g in enumerate(gold)))

    def counts(self, emb):
        return {w: 100 for w in emb.words}

    def test_identical_ranking_is_one(self):
        emb = self.angled([0.1, 0.5, 0.9])
        rho, used = evaluate_similarity(emb, self.bench([1.0, 2.0, 3.0]), 1, self.counts(emb))
        assert rho == pytest.approx(1.0, abs=1e-9)
        assert used == 3

    def test_reversed_ranking_is_minus_one(self):
        emb = self.angled([0.9, 0.5, 0.1])
        rho, _ = evaluate_similarity(emb, self.bench([1.0, 2.0, 3.0]), 1, self.counts(emb))
        assert rho == pytest.approx(-1.0, abs=1e-9)

    def test_one_swap_of_three_is_half(self):
        emb = self.angled([0.2, 0.1, 0.3])
        rho, _ = evaluate_similarity(emb, self.bench([1.0, 2.0, 3.0]), 1, self.counts(emb))
        assert rho == pytest.approx(0.5, abs=1e-9)

    def test_monotone_transform_invariance(self):
        emb = self.angled([0.15, 0.4, 0.8, 0.6])
        gold = [1.0, 2.0, 4.0, 3.0]
        rho1, _ = evaluate_similarity(emb, self.bench(gold), 1, self.counts(emb))
        rho2, _ = evaluate_similarity(emb, self.bench([g ** 3 for g in gold]), 1, self.counts(emb))
        assert rho1 == pytest.approx(rho2, abs=1e-12)

    def test_min_count_filter_shrinks_pairs(self):
        emb = self.angled([0.1, 0.5, 0.9, 0.7, 0.3])
        counts = {"q": 100, "p0": 100, "p1": 50, "p2": 60, "p3": 5, "p4": 40}
        bench = self.bench([1.0, 2.0, 3.0, 4.0, 5.0])
        _, used_all = evaluate_similarity(emb, bench, 1, counts)
        _, used_50 = evaluate_similarity(emb, bench, 50, counts)
        _, used_40 = evaluate_similarity(emb, bench, 40, counts)
        assert used_all == 5
        assert used_50 == 3
        assert used_40 == 4

    def test_too_few_pairs_rejected(self):
        emb = self.angled([0.1, 0.5])
        with pytest.raises(ValueError):
            evaluate_similarity(emb, self.bench([1.0, 2.0]), 1, self.counts(emb))

    def test_pair_order_does_not_matter(self):
        emb = self.angled([0.1, 0.5, 0.9])
        fwd = self.bench([1.0, 2.0, 3.0])
        rev = SimilarityBenchmark("t", tuple(reversed(fwd.pairs)))
        counts = self.counts(emb)
        assert evaluate_similarity(emb, fwd, 1, counts)[0] == pytest.approx(
            evaluate_similarity(emb, rev, 1, counts)[0], abs=1e-12)


def slot_corpus(seed=0, n_sentences=400):
    """Template sentences where iced/cold substitute freely in one slot."""
    rng = np.random.default_rng(seed)
    drinks = ["iced", "cold"]
    foods = ["warm", "hot"]
    notes = []
    for i in range(n_sentences):
        drink = drinks[int(rng.integers(0, 2))]
        food = foods[int(rng.integers(0, 2))]
        sent = ("she", "drank", drink, "tea", "and", "ate", food, "bread", ".")
        notes.append(Note(f"n{i}", (sent,)))
    return Corpus(tuple(notes), "train")


class TestTrainSgns:
    def config(self, **kw):
        base = dict(dim=24, window=2, negatives=5, iterations=4, min_count=2, seed=0)
        base.update(kw)
        return SgnsConfig(**base)

    def test_interchangeable_words_end_up_close(self):
        emb = train_sgns(slot_corpus(), self.config())
        rng = np.random.default_rng(1)
        words = list(emb.words)
        random_sims = []
        for _ in range(200):
            a, b = rng.choice(len(words), size=2, replace=False)
            random_sims.append(cosine(emb.vector(words[a]), emb.vector(words[b])))
        threshold = np.quantile(random_sims, 0.95)
        assert cosine(emb.vector("iced"), emb.vector("cold")) > threshold
        assert cosine(emb.vector("warm"), emb.vector("hot")) > threshold

    def test_deterministic_under_seed(self):
        a = train_sgns(slot_corpus(), self.config())
        b = train_sgns(slot_corpus(), self.config())
        assert np.array_equal(a.matrix, b.matrix)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_sgns(Corpus((), "train"), self.config())

    def test_min_count_gates_vocabulary(self):
        emb = train_sgns(slot_corpus(n_sentences=50), self.config(min_count=20))
        assert "she" in emb
        assert all(np.isfinite(emb.matrix).all() for _ in [0])


class TestFiles:
    def test_embedding_file_roundtrip(self, tmp_path):
        emb = emb_from({"a": [0.125, -3.5], "b": [1e-9, 2.0]})
        path = tmp_path / "emb.txt"
        write_embeddings(emb, path)
        back = read_embeddings(path)
        assert back.words == emb.words
        assert np.array_equal(back.matrix, emb.matrix)

    def test_benchmark_roundtrip_and_validation(self, tmp_path):
        bench = SimilarityBenchmark("b", (("x", "y", 4.0), ("x", "z", 1.0)))
        path = tmp_path / "bench.csv"
        write_benchmark(bench, path)
        assert read_benchmark(path).pairs == bench.pairs
        path.write_text("wrong,header,here\nx,y,1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_benchmark(path)

    def test_benchmark_row_without_score_names_file_and_line(self, tmp_path):
        path = tmp_path / "bench.csv"
        path.write_text("word1,word2,score\nx,y,1\n\npain,ache\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"bench.csv: line 4: expected 3 fields, got 2"):
            read_benchmark(path)

    def test_embedding_file_short_of_its_count_names_file_and_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("3 2\na 0.5 1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"emb.txt: line 3: expected a word and 2 values"):
            read_embeddings(path)

    def test_duplicate_pairs_rejected(self):
        with pytest.raises(ValueError):
            SimilarityBenchmark("b", (("x", "y", 4.0), ("y", "x", 1.0)))
