import functools
import json
import math

import numpy as np
import pytest

from synthnotes.corpus import Corpus, Note
from synthnotes.lm import LanguageModel, UniformModel, train_unigram
from synthnotes.privacy import (
    NotePrivacyRecord,
    PrivacyConfig,
    PrivacyReport,
    analyze_report,
    s_pdtp_note,
    json_text,
    s_pdtp_score,
)

LN_4_3 = math.log(4.0 / 3.0)


def two_note_corpus():
    return Corpus((
        Note("c1", (("a", "b"),)),
        Note("c2", (("b", "b"),)),
    ), "train")


def log_probs(model, note):
    return model.sequence_log_probs(model.encode_note(note))


class CountingModel(LanguageModel):
    """A model that records the notes of each scoring call in `calls`."""

    def __init__(self, inner, calls):
        super().__init__(inner.tokens)
        self.inner, self.calls = inner, calls

    def notes_log_probs(self, notes_ids):
        self.calls.append([list(ids) for ids in notes_ids])
        return self.inner.notes_log_probs(notes_ids)


class TestSPdtpNote:
    def test_identical_models_score_zero(self):
        note = two_note_corpus().notes[0]
        lp = log_probs(UniformModel(("a", "b")), note)
        record = s_pdtp_note(lp, lp, note)
        assert record.s_pdtp == 0.0
        assert record.sign == "tie"

    def test_hand_oracle_first_note(self):
        corpus = two_note_corpus()
        full = train_unigram(corpus, ("a", "b"))
        loo = train_unigram(corpus.without_note("c1"), ("a", "b"))
        note = corpus.notes[0]
        record = s_pdtp_note(log_probs(full, note), log_probs(loo, note), note)
        assert record.s_pdtp == pytest.approx(LN_4_3, abs=1e-12)
        assert record.token == "a"
        assert record.sign == "positive"

    def test_hand_oracle_second_note(self):
        corpus = two_note_corpus()
        full = train_unigram(corpus, ("a", "b"))
        loo = train_unigram(corpus.without_note("c2"), ("a", "b"))
        note = corpus.notes[1]
        record = s_pdtp_note(log_probs(full, note), log_probs(loo, note), note)
        assert record.s_pdtp == pytest.approx(LN_4_3, abs=1e-12)
        assert record.sign == "positive"

    def test_symmetry_under_model_swap(self):
        corpus = two_note_corpus()
        note = corpus.notes[0]
        lp_full = log_probs(train_unigram(corpus, ("a", "b")), note)
        lp_loo = log_probs(train_unigram(corpus.without_note("c1"), ("a", "b")), note)
        a = s_pdtp_note(lp_full, lp_loo, note)
        b = s_pdtp_note(lp_loo, lp_full, note)
        assert a.s_pdtp == b.s_pdtp


class TestSPdtpScore:
    def test_two_note_aggregate(self):
        corpus = two_note_corpus()
        config = PrivacyConfig(trainer=lambda c: train_unigram(c, ("a", "b")),
                               sample_size=2, seed=0)
        report = s_pdtp_score(corpus, config)
        assert report.aggregate == pytest.approx(LN_4_3, abs=1e-12)
        assert report.sign_positive_fraction == 1.0

    def test_constant_trainer_scores_zero(self):
        corpus = two_note_corpus()
        config = PrivacyConfig(trainer=lambda c: UniformModel(("a", "b")),
                               sample_size=2, seed=0)
        assert s_pdtp_score(corpus, config).aggregate == 0.0

    def test_vocabulary_mismatch_rejected(self):
        corpus = two_note_corpus()

        def trainer(c):  # fold models get another token tuple
            return UniformModel(("a", "b") if len(c) == len(corpus) else ("a", "c"))

        with pytest.raises(ValueError, match="same vocabulary"):
            s_pdtp_score(corpus, PrivacyConfig(trainer=trainer, sample_size=2))

    def test_full_model_scores_the_sample_in_one_call(self):
        rng = np.random.default_rng(11)
        corpus = Corpus(tuple(
            Note(f"n{i}", (tuple(rng.choice(["a", "b", "c"], size=3 + i % 4)),))
            for i in range(9)), "train")
        vocab = ("a", "b", "c")
        full_calls, loo_calls = [], {}

        def trainer(c):
            if len(c) == len(corpus):
                return CountingModel(train_unigram(c, vocab), full_calls)
            (left_out,) = {n.id for n in corpus} - {n.id for n in c}
            return CountingModel(train_unigram(c, vocab), loo_calls.setdefault(left_out, []))

        report = s_pdtp_score(corpus, PrivacyConfig(trainer=trainer, sample_size=5, seed=2))
        sampled = [r.note_id for r in report.records]
        order = [n.id for n in corpus]
        assert sorted(sampled, key=order.index) == sampled  # sample order is corpus order
        ids = {n.id: [vocab.index(t) for t in n.tokens] for n in corpus}
        assert full_calls == [[ids[i] for i in sampled]]
        assert loo_calls == {i: [[ids[i]]] for i in sampled}

    def test_sample_size_validation(self):
        corpus = two_note_corpus()
        with pytest.raises(ValueError):
            s_pdtp_score(corpus, PrivacyConfig(trainer=lambda c: None, sample_size=3))
        with pytest.raises(ValueError):
            s_pdtp_score(Corpus((corpus.notes[0],), "train"),
                         PrivacyConfig(trainer=lambda c: None, sample_size=1))

    def test_trainer_failure_names_the_fold(self):
        corpus = two_note_corpus()

        def flaky(c):
            if len(c) == 1 and c.notes[0].id == "c2":
                raise RuntimeError("boom")
            return train_unigram(c, ("a", "b"))

        with pytest.raises(RuntimeError, match="c1"):
            s_pdtp_score(corpus, PrivacyConfig(trainer=flaky, sample_size=2, seed=0))

    def test_deterministic_reports(self):
        rng = np.random.default_rng(5)
        notes = tuple(
            Note(f"n{i}", (tuple(rng.choice(["a", "b", "c"], size=4)),))
            for i in range(8)
        )
        corpus = Corpus(notes, "train")
        vocab = ("a", "b", "c")
        config = PrivacyConfig(trainer=lambda c: train_unigram(c, vocab),
                               sample_size=4, seed=13)
        a = s_pdtp_score(corpus, config)
        b = s_pdtp_score(corpus, config)
        assert a.as_dict() == b.as_dict()

    def test_parallel_folds_match_serial(self):
        rng = np.random.default_rng(5)
        notes = tuple(
            Note(f"n{i}", (tuple(rng.choice(["a", "b", "c"], size=5)),))
            for i in range(10)
        )
        corpus = Corpus(notes, "train")
        from synthnotes.corpus import Vocabulary
        vocab = Vocabulary(tokens=("<unk>", "a", "b", "c"))
        trainer = functools.partial(train_unigram, vocab=vocab)  # picklable for the pool
        serial = s_pdtp_score(corpus, PrivacyConfig(
            trainer=trainer, sample_size=4, seed=3, jobs=1))
        parallel = s_pdtp_score(corpus, PrivacyConfig(
            trainer=trainer, sample_size=4, seed=3, jobs=3))
        assert serial.as_dict() == parallel.as_dict()

    def test_closed_form_oracle_random_corpora(self):
        # independent oracle: unigram S-PDTP from raw counts only
        rng = np.random.default_rng(99)
        alphabet = ["a", "b", "c", "d", "e"]
        for trial in range(5):
            n_notes = int(rng.integers(3, 16))
            notes = tuple(
                Note(f"n{i}", (tuple(rng.choice(alphabet, size=rng.integers(1, 9))),))
                for i in range(n_notes)
            )
            corpus = Corpus(notes, "train")
            config = PrivacyConfig(trainer=lambda c: train_unigram(c, alphabet),
                                   sample_size=n_notes, seed=int(rng.integers(1e6)))
            report = s_pdtp_score(corpus, config)
            for record in report.records:
                note = next(n for n in notes if n.id == record.note_id)
                expected = oracle_unigram_spdtp(corpus, note, alphabet)
                assert record.s_pdtp == pytest.approx(expected, abs=1e-9)


def oracle_unigram_spdtp(corpus, note, alphabet):
    """Closed-form unigram leave-one-out score straight from raw counts."""
    from collections import Counter
    full_counts = Counter(t for n in corpus for t in n.tokens)
    note_counts = Counter(note.tokens)
    n_full = sum(full_counts.values())
    n_loo = n_full - sum(note_counts.values())
    v = len(alphabet)
    best = 0.0
    for tok in set(note.tokens):
        p_full = (full_counts[tok] + 1) / (n_full + v)
        p_loo = (full_counts[tok] - note_counts[tok] + 1) / (n_loo + v)
        best = max(best, abs(math.log(p_full) - math.log(p_loo)))
    return best


class TestAnalyze:
    def test_two_note_oracle_analysis(self):
        corpus = two_note_corpus()
        config = PrivacyConfig(trainer=lambda c: train_unigram(c, ("a", "b")),
                               sample_size=2, seed=0)
        analysis = analyze_report(s_pdtp_score(corpus, config))
        assert analysis.sign_positive_fraction == 1.0
        assert analysis.ties == 0
        # both scores equal ln(4/3) up to rounding, so compare per note
        assert {r.note_id: r.token for r in analysis.entries} == {"c1": "a", "c2": "b"}

    def test_ties_excluded_from_fraction(self):
        records = (
            NotePrivacyRecord("a", 0.5, 0, "positive", "x", (), -1.0, -1.5),
            NotePrivacyRecord("b", 0.0, 0, "tie", "y", (), -1.0, -1.0),
            NotePrivacyRecord("c", 0.2, 0, "negative", "z", (), -1.5, -1.3),
        )
        report = PrivacyReport(records=records, aggregate=0.2333,
                               sign_positive_fraction=None)
        analysis = analyze_report(report)
        assert analysis.sign_positive_fraction == pytest.approx(0.5)
        assert analysis.ties == 1
        assert analysis.entries[0].s_pdtp == 0.5  # sorted descending

    def test_all_ties_yield_no_fraction(self):
        corpus = two_note_corpus()
        config = PrivacyConfig(trainer=lambda c: UniformModel(("a", "b")),
                               sample_size=2, seed=0)
        analysis = analyze_report(s_pdtp_score(corpus, config))
        assert analysis.sign_positive_fraction is None

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError):
            analyze_report(PrivacyReport(records=(), aggregate=0.0,
                                         sign_positive_fraction=None))


class TestReportIO:
    def test_json_roundtrip(self, tmp_path):
        corpus = two_note_corpus()
        config = PrivacyConfig(trainer=lambda c: train_unigram(c, ("a", "b")),
                               sample_size=2, seed=0, trainer_label="unigram")
        report = s_pdtp_score(corpus, config)
        path = tmp_path / "report.json"
        path.write_text(json_text(report.as_dict()), encoding="utf-8")
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["aggregate"] == report.aggregate
        assert data["config"]["trainer"] == "unigram"
        assert len(data["records"]) == 2
        assert "tool_version" in data and "config_hash" in data

    def test_render_mentions_fraction(self):
        corpus = two_note_corpus()
        config = PrivacyConfig(trainer=lambda c: train_unigram(c, ("a", "b")),
                               sample_size=2, seed=0)
        text = s_pdtp_score(corpus, config).render()
        assert "sign-positive fraction" in text
