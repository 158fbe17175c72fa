import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synthnotes.corpus import (
    Corpus,
    CorpusStats,
    EmptyNoteError,
    EON_TOKEN,
    Note,
    UNK_TOKEN,
    Vocabulary,
    apply_unk,
    build_vocabulary,
    compute_stats,
    normalize_raw_note,
    read_corpus,
    read_raw_corpus,
    read_vocab,
    split_corpus,
    tokenize_line,
    write_corpus,
    write_vocab,
)


def corpus_of(*token_lists, role="train"):
    notes = tuple(Note(f"n{i}", (tuple(toks),)) for i, toks in enumerate(token_lists))
    return Corpus(notes, role)


class TestNormalize:
    def test_sentence_split_on_terminal_punctuation(self):
        note = normalize_raw_note("He was stable .\nDischarged home .")
        assert note.sentences == (("He", "was", "stable", "."), ("Discharged", "home", "."))

    def test_merge_wrapped_line(self):
        note = normalize_raw_note("He was\nstable .")
        assert note.sentences == (("He", "was", "stable", "."),)

    def test_punctuation_tokens_preserved(self):
        note = normalize_raw_note("Allergies : none")
        assert note.sentences == (("Allergies", ":", "none"),)

    def test_merge_requires_lowercase_or_digit_start(self):
        note = normalize_raw_note("Total dose\nFive mg")
        assert len(note.sentences) == 2

    def test_digit_start_merges(self):
        note = normalize_raw_note("Dose was\n5 mg")
        assert note.sentences == (("Dose", "was", "5", "mg"),)

    def test_colon_line_end_keeps_break(self):
        note = normalize_raw_note("MEDICATIONS :\n1 . Aspirin 81 mg .")
        assert note.sentences[0] == ("MEDICATIONS", ":")

    def test_empty_input_raises(self):
        with pytest.raises(EmptyNoteError):
            normalize_raw_note("  \n \n")

    def test_edge_punctuation_peeled(self):
        assert tokenize_line('"(see)." ok') == ['"', "(", "see", ")", ".", '"', "ok"]
        assert tokenize_line("mg/dl 3.5") == ["mg/dl", "3.5"]

    def test_idempotent_on_normalized_text(self):
        raw = ("ADMISSION :\nMr Smith , record 4 1 , was admitted\n"
               "to Mercy General on day 3 .\nThe patient reported pain . then improved .")
        note = normalize_raw_note(raw)
        text = "\n".join(" ".join(s) for s in note.sentences)
        assert normalize_raw_note(text).sentences == note.sentences

    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=120))
    def test_idempotence_property(self, raw):
        try:
            note = normalize_raw_note(raw)
        except EmptyNoteError:
            return
        text = "\n".join(" ".join(s) for s in note.sentences)
        assert normalize_raw_note(text).sentences == note.sentences


class TestVocabulary:
    def test_min_count_rule(self):
        corpus = corpus_of(["a"] * 5 + ["b"] * 2)
        vocab = build_vocabulary(corpus, min_count=3)
        assert "a" in vocab and "b" not in vocab and UNK_TOKEN in vocab
        assert set(vocab.tokens) == {UNK_TOKEN, EON_TOKEN, "a"}

    def test_min_count_one_keeps_singletons(self):
        vocab = build_vocabulary(corpus_of(["a"]), min_count=1)
        assert "a" in vocab

    def test_min_count_zero_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary(corpus_of(["a"]), min_count=0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary(Corpus((), "train"), min_count=3)

    def test_ids_dense_and_stable(self):
        vocab = build_vocabulary(corpus_of(["b", "b", "b", "a", "a", "a", "a"]), min_count=3)
        assert vocab.tokens.index("a") < vocab.tokens.index("b")  # higher count first

    def test_unk_must_be_entry(self):
        with pytest.raises(ValueError):
            Vocabulary(tokens=("a", "b"))

    def test_io_roundtrip(self, tmp_path):
        vocab = build_vocabulary(corpus_of(["a"] * 4, ["b"] * 3), min_count=3)
        path = tmp_path / "vocab.tsv"
        write_vocab(vocab, path)
        back = read_vocab(path)
        assert back.tokens == vocab.tokens
        assert back.counts == vocab.counts
        assert back.min_count == vocab.min_count


class TestApplyUnk:
    def test_replacement(self):
        vocab = build_vocabulary(corpus_of(["a", "a", "a"]), min_count=3)
        out = apply_unk(corpus_of(["a", "b"]), vocab)
        assert out.notes[0].tokens == ["a", UNK_TOKEN]

    def test_identity_when_in_vocab(self):
        corpus = corpus_of(["a", "a", "a"])
        vocab = build_vocabulary(corpus, min_count=1)
        assert apply_unk(corpus, vocab).notes[0].tokens == corpus.notes[0].tokens

    def test_empty_corpus(self):
        vocab = build_vocabulary(corpus_of(["a", "a", "a"]), min_count=3)
        assert len(apply_unk(Corpus((), "valid"), vocab)) == 0

    def test_word_counts_preserved(self):
        vocab = build_vocabulary(corpus_of(["a", "a", "a"]), min_count=3)
        corpus = corpus_of(["a", "b", "c", "d"])
        assert apply_unk(corpus, vocab).word_count == corpus.word_count

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", "c", "zz"]), min_size=1, max_size=30))
    def test_everything_in_vocab_afterwards(self, tokens):
        vocab = build_vocabulary(corpus_of(["a", "a", "a", "b", "b", "b"]), min_count=3)
        out = apply_unk(corpus_of(tokens), vocab)
        assert all(t in vocab for t in out.notes[0].tokens)


class TestStats:
    def test_oov_rate(self):
        vocab = build_vocabulary(corpus_of(["a"] * 10), min_count=3)
        train = apply_unk(corpus_of(["a"] * 10), vocab)
        valid = apply_unk(corpus_of(["a"] * 9 + ["x"]), vocab)
        test = apply_unk(corpus_of(["a"] * 9 + ["y"]), vocab)
        stats = compute_stats(train, valid, test, vocab)
        assert stats.oov_rate == pytest.approx(0.10)
        assert stats.note_counts == (1, 1, 1)
        assert stats.word_counts == (10, 10, 10)

    def test_word_count_matches_note_sum(self):
        rng = np.random.default_rng(0)
        notes = [["a"] * int(rng.integers(1, 9)) for _ in range(12)]
        corpus = corpus_of(*notes)
        vocab = build_vocabulary(corpus, min_count=1)
        stats = compute_stats(corpus, corpus, corpus, vocab)
        assert stats.word_counts[0] == sum(len(n) for n in notes)

    def test_empty_split_rejected(self):
        vocab = build_vocabulary(corpus_of(["a", "a", "a"]), min_count=3)
        c = apply_unk(corpus_of(["a"]), vocab)
        with pytest.raises(ValueError):
            compute_stats(c, Corpus((), "valid"), c, vocab)

    def test_not_unk_applied_rejected(self):
        vocab = build_vocabulary(corpus_of(["a", "a", "a"]), min_count=3)
        dirty = corpus_of(["zz"])
        with pytest.raises(ValueError):
            compute_stats(corpus_of(["a"]), dirty, dirty, vocab)

    def test_render_shape(self):
        vocab = build_vocabulary(corpus_of(["a", "a", "a"]), min_count=3)
        c = apply_unk(corpus_of(["a"]), vocab)
        text = compute_stats(c, c, c, vocab).render()
        assert "Train" in text and "OOV" in text


class TestSplit:
    def make(self, n):
        return corpus_of(*[["tok"] * 3 for _ in range(n)])

    def test_sizes_and_determinism(self):
        corpus = self.make(10)
        a = split_corpus(corpus, (0.8, 0.1, 0.1), seed=7)
        b = split_corpus(corpus, (0.8, 0.1, 0.1), seed=7)
        assert tuple(len(s) for s in a) == (8, 1, 1)
        assert [n.id for n in a[0]] == [n.id for n in b[0]]

    def test_disjoint_exhaustive(self):
        corpus = self.make(23)
        train, valid, test = split_corpus(corpus, (0.6, 0.2, 0.2), seed=3)
        ids = [n.id for split in (train, valid, test) for n in split]
        assert sorted(ids) == sorted(n.id for n in corpus)

    def test_all_train(self):
        train, valid, test = split_corpus(self.make(5), (1.0, 0.0, 0.0), seed=1)
        assert (len(train), len(valid), len(test)) == (5, 0, 0)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            split_corpus(self.make(5), (0.6, 0.2, 0.1), seed=1)

    @pytest.mark.parametrize("fractions", [(0.5, 0.5), (0.7, 0.1, 0.1, 0.1)])
    def test_three_fractions_required(self, fractions):
        with pytest.raises(ValueError, match="three values"):
            split_corpus(self.make(10), fractions, seed=1)


class TestSerialization:
    def test_write_read_roundtrip(self, tmp_path):
        corpus = Corpus((
            Note("n0", (("He", "was", "stable", "."), ("Discharged", "."))),
            Note("n1", (("Allergies", ":", "none"),)),
        ), "train")
        path = tmp_path / "c.txt"
        write_corpus(corpus, path)
        back = read_corpus(path)
        assert [n.sentences for n in back] == [n.sentences for n in corpus]

    def test_canonical_file_byte_identical(self, tmp_path):
        path = tmp_path / "c.txt"
        write_corpus(corpus_of(["a", "b", "."], ["c", "."]), path)
        original = path.read_bytes()
        write_corpus(read_corpus(path), path)
        assert path.read_bytes() == original

    def test_raw_reading_skips_empty_blocks(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("one line .\n\n\n\nsecond note\nhere .\n", encoding="utf-8")
        corpus = read_raw_corpus(path)
        assert len(corpus) == 2
        assert corpus.notes[1].tokens == ["second", "note", "here", "."]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Corpus((Note("x", (("a",),)), Note("x", (("b",),))), "train")

    def test_note_invariants(self):
        with pytest.raises(ValueError):
            Note("n", (("a b",),))
        with pytest.raises(ValueError):
            Note("n", ((),))
