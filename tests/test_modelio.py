import numpy as np
import pytest

from synthnotes.corpus import Corpus, EON_TOKEN, Note, UNK_TOKEN, Vocabulary
from synthnotes.lm import perplexity, train_bigram, train_unigram
from synthnotes.modelio import MAGIC, ModelFormatError, load_model, model_bytes, save_model
from synthnotes.neural import LstmLmConfig, train_lstm_lm


def fixture_corpus():
    return Corpus((
        Note("n0", (("a", "b", "a", "."),)),
        Note("n1", (("b", "c", "."),)),
    ), "train")


def fixture_vocab():
    return Vocabulary(tokens=(UNK_TOKEN, EON_TOKEN, "a", "b", "c", "."))


class TestRoundtrip:
    def test_unigram(self, tmp_path):
        model = train_unigram(fixture_corpus(), fixture_vocab())
        path = tmp_path / "m.ptlm"
        save_model(model, path)
        back = load_model(path)
        assert back.tokens == model.tokens
        np.testing.assert_array_equal(back.counts, model.counts)
        assert back.total == model.total
        np.testing.assert_allclose(back.sequence_log_probs([2, 3]),
                                   model.sequence_log_probs([2, 3]), atol=0)

    def test_bigram(self, tmp_path):
        model = train_bigram(fixture_corpus(), fixture_vocab())
        path = tmp_path / "m.ptlm"
        save_model(model, path)
        back = load_model(path)
        ctx = np.arange(len(model.tokens))
        np.testing.assert_array_equal(back.step(ctx, None)[0], model.step(ctx, None)[0])
        ids = [2, 3, 2, 5, 4]
        np.testing.assert_array_equal(back.sequence_log_probs(ids), model.sequence_log_probs(ids))

    def test_lstm(self, tmp_path):
        config = LstmLmConfig(hidden_size=8, layers=2, epochs=2, seed=1,
                              initial_lr=1.0, batch_size=2, bptt=5)
        model = train_lstm_lm(fixture_corpus(), fixture_corpus(), fixture_vocab(), config)
        path = tmp_path / "m.ptlm"
        save_model(model, path)
        back = load_model(path)
        assert back.config == config
        assert back.params.out_w is None
        ids = [2, 3, 2]
        np.testing.assert_array_equal(back.sequence_log_probs(ids),
                                      model.sequence_log_probs(ids))

    def test_float32_lstm_reloads_exactly(self, tmp_path):
        config = LstmLmConfig(hidden_size=8, layers=2, epochs=2, seed=1, initial_lr=1.0,
                              batch_size=2, bptt=5, dtype="float32")
        corpus = fixture_corpus()
        model = train_lstm_lm(corpus, corpus, fixture_vocab(), config)
        path = tmp_path / "m.ptlm"
        save_model(model, path)
        back = load_model(path)
        for (name, arr), (_, orig) in zip(back.params.named_arrays(),
                                          model.params.named_arrays()):
            assert arr.dtype == np.float32, name
            assert np.array_equal(arr, orig), name
        assert perplexity(back, corpus) == perplexity(model, corpus)

    def test_bytes_are_stable(self):
        model = train_unigram(fixture_corpus(), fixture_vocab())
        assert model_bytes(model) == model_bytes(model)
        assert model_bytes(model)[:4] == MAGIC


class TestValidation:
    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ptlm"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = train_unigram(fixture_corpus(), fixture_vocab())
        blob = model_bytes(model)
        path = tmp_path / "cut.ptlm"
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_unknown_version_rejected(self, tmp_path):
        model = train_unigram(fixture_corpus(), fixture_vocab())
        blob = bytearray(model_bytes(model))
        blob[4] = 99
        path = tmp_path / "v99.ptlm"
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError):
            load_model(path)
