import hashlib

import numpy as np
import pytest

from synthnotes.corpus import Corpus, Note
from synthnotes.embeddings import EmbeddingSet
from synthnotes.utility import (
    CasePair,
    NLI_LABELS,
    NliConfig,
    NliExample,
    TruecaserConfig,
    evaluate_nli,
    evaluate_truecase,
    make_case_pairs,
    read_nli_jsonl,
    train_nli_bow,
    train_truecaser,
    word_case_f1,
    write_nli_jsonl,
)


def random_embeddings(words, dim=16, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingSet(words=tuple(words), matrix=rng.standard_normal((len(words), dim)))


def linear_rule_dataset(emb, n, seed):
    """Labels decided by a fixed linear rule on the summed vectors."""
    rng = np.random.default_rng(seed)
    words = list(emb.words)
    w = np.concatenate([emb.vector(words[0]), -emb.vector(words[1])])
    examples = []
    while len(examples) < n:
        p = tuple(rng.choice(words, size=4))
        h = tuple(rng.choice(words, size=3))
        feats = np.concatenate([sum(emb.vector(t) for t in p), sum(emb.vector(t) for t in h)])
        score = float(feats @ w)
        if score > 6.0:
            label = NLI_LABELS[0]
        elif score < -6.0:
            label = NLI_LABELS[1]
        elif abs(score) < 3.0:
            label = NLI_LABELS[2]
        else:
            continue  # margin between classes keeps the rule cleanly learnable
        examples.append(NliExample(premise=p, hypothesis=h, label=label))
    return examples


class TestNli:
    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            NliExample(premise=("a",), hypothesis=("b",), label="maybe")

    def test_probabilities_sum_to_one(self):
        emb = random_embeddings(["a", "b", "c"])
        data = [NliExample(("a", "b"), ("c",), "neutral"),
                NliExample(("b",), ("a", "c"), "entailment"),
                NliExample(("c",), ("a",), "contradiction")]
        clf = train_nli_bow(data, emb, NliConfig(epochs=3, seed=0))
        assert clf.predict_proba(data[0]).sum() == pytest.approx(1.0, abs=1e-9)

    def test_embeddings_frozen_during_training(self):
        emb = random_embeddings(["a", "b", "c", "d"])
        digest = hashlib.sha256(emb.matrix.tobytes()).hexdigest()
        data = linear_rule_dataset(emb, 120, seed=1)
        train_nli_bow(data, emb, NliConfig(epochs=10, seed=0))
        assert hashlib.sha256(emb.matrix.tobytes()).hexdigest() == digest

    def test_learns_linearly_separable_rule(self):
        emb = random_embeddings(list("abcdefgh"), dim=12, seed=5)
        train = linear_rule_dataset(emb, 500, seed=2)
        test = linear_rule_dataset(emb, 200, seed=3)
        clf = train_nli_bow(train, emb, NliConfig(epochs=120, lr=0.1, seed=0))
        assert evaluate_nli(clf, test) >= 0.95

    def test_uninformative_features_hit_chance_level(self):
        emb = random_embeddings(list("abcd"), seed=9)
        rng = np.random.default_rng(11)
        def random_batch(n, seed_offset):
            rng2 = np.random.default_rng(100 + seed_offset)
            return [NliExample(tuple(rng2.choice(emb.words, 3)),
                               tuple(rng2.choice(emb.words, 3)),
                               NLI_LABELS[i % 3]) for i in range(n)]
        clf = train_nli_bow(random_batch(300, 0), emb, NliConfig(epochs=5, seed=0))
        acc = evaluate_nli(clf, random_batch(300, 1))
        assert abs(acc - 1 / 3) <= 0.11

    def test_accuracy_invariant_to_order(self):
        emb = random_embeddings(list("abcdefgh"), dim=12, seed=5)
        test = linear_rule_dataset(emb, 90, seed=3)
        clf = train_nli_bow(linear_rule_dataset(emb, 200, seed=2), emb,
                            NliConfig(epochs=20, seed=0))
        assert evaluate_nli(clf, test) == evaluate_nli(clf, list(reversed(test)))

    @pytest.mark.parametrize("field", ["hidden", "epochs"])
    def test_config_sizes_checked(self, field):
        with pytest.raises(ValueError, match=field):
            NliConfig(**{field: 0})

    def test_empty_test_rejected(self):
        emb = random_embeddings(["a"])
        clf = train_nli_bow([NliExample(("a",), ("a",), "neutral")], emb,
                            NliConfig(epochs=1, seed=0))
        with pytest.raises(ValueError):
            evaluate_nli(clf, [])

    def test_jsonl_roundtrip(self, tmp_path):
        data = [NliExample(("a", "b"), ("c",), "entailment")]
        path = tmp_path / "nli.jsonl"
        write_nli_jsonl(data, path)
        assert read_nli_jsonl(path) == data

    @pytest.mark.parametrize("record", ['{"premise": "a b", "label": "neutral"}',
                                        '["a b", "c", "neutral"]'],
                             ids=["no-hypothesis", "list"])
    def test_malformed_jsonl_record_names_file_and_line(self, tmp_path, record):
        path = tmp_path / "nli.jsonl"
        write_nli_jsonl([NliExample(("a",), ("b",), "neutral")], path)
        path.write_text(path.read_text(encoding="utf-8") + "\n" + record + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=r"nli.jsonl: line 3: expected an object"):
            read_nli_jsonl(path)


class TestCaseF1:
    def test_hand_case(self):
        f1 = word_case_f1([("John", "saw", "Mary")], [("john", "saw", "Mary")])
        assert f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_perfect_prediction(self):
        assert word_case_f1([("Dr", "Chen", ".")], [("Dr", "Chen", ".")]) == 1.0

    def test_all_lowercase_both_sides(self):
        assert word_case_f1([("all", "lower", ".")], [("all", "lower", ".")]) == 1.0

    def test_zero_when_no_true_positive(self):
        assert word_case_f1([("John",)], [("john",)]) == 0.0
        assert word_case_f1([("john",)], [("John",)]) == 0.0

    def test_wrong_surface_not_counted(self):
        # uppercase present but surface mismatch (e.g. wrong letter cased)
        assert word_case_f1([("MacDonald",)], [("Macdonald",)]) == 0.0

    def test_alignment_required(self):
        with pytest.raises(ValueError):
            word_case_f1([("a", "b")], [("a",)])


def cased_corpus(n=60, seed=0):
    rng = np.random.default_rng(seed)
    names = ["Alice", "Bob", "Carol"]
    notes = []
    for i in range(n):
        name = names[int(rng.integers(0, 3))]
        sent1 = ("Patient", name, "was", "seen", "today", ".")
        sent2 = ("the", "visit", "went", "well", ".")
        notes.append(Note(f"n{i}", (sent1, sent2)))
    return Corpus(tuple(notes), "train")


class TestTruecaser:
    def test_memorizes_small_corpus(self):
        corpus = cased_corpus(50)
        caser = train_truecaser(corpus, TruecaserConfig(hidden=32, emb_dim=12,
                                                        epochs=40, lr=2.0,
                                                        batch_size=4, seed=1))
        pairs = make_case_pairs(corpus)
        assert evaluate_truecase(caser, pairs) >= 0.99

    def test_output_is_case_only_transform(self):
        corpus = cased_corpus(30)
        caser = train_truecaser(corpus, TruecaserConfig(hidden=16, emb_dim=8,
                                                        epochs=2, seed=0))
        lowered = ("patient", "alice", "was", "seen", ".", "x9-z")
        restored = caser.truecase_tokens(lowered)
        assert tuple(t.lower() for t in restored) == lowered
        assert len(restored) == len(lowered)

    def test_deterministic_under_seed(self):
        corpus = cased_corpus(20)
        config = TruecaserConfig(hidden=16, emb_dim=8, epochs=2, seed=7)
        a = train_truecaser(corpus, config)
        b = train_truecaser(corpus, config)
        lowered = ("patient", "bob", "was", "seen", ".")
        assert a.truecase_tokens(lowered) == b.truecase_tokens(lowered)

    def test_case_pair_invariant(self):
        with pytest.raises(ValueError):
            CasePair(cased=("Hi",), lowered=("hello",))
        with pytest.raises(ValueError):
            CasePair(cased=("Hi", "there"), lowered=("hi",))

    @pytest.mark.parametrize("field", ["hidden", "emb_dim", "epochs", "batch_size",
                                       "max_sentences"])
    def test_config_sizes_checked(self, field):
        with pytest.raises(ValueError, match=field):
            TruecaserConfig(**{field: 0})

    def test_empty_training_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_truecaser(Corpus((), "train"), TruecaserConfig())
