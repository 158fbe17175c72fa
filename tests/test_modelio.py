import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest

from synthnotes.corpus import Corpus, EON_TOKEN, Note, UNK_TOKEN, Vocabulary
from synthnotes.lm import UniformModel, perplexity, train_bigram, train_unigram
from synthnotes.modelio import MAGIC, ModelFormatError, load_model, model_bytes, save_model
from synthnotes.neural import LstmLmConfig, train_lstm_lm


def fixture_corpus():
    return Corpus((
        Note("n0", (("a", "b", "a", "."),)),
        Note("n1", (("b", "c", "."),)),
    ), "train")


def fixture_vocab():
    return Vocabulary(tokens=(UNK_TOKEN, EON_TOKEN, "a", "b", "c", "."))


def small_lstm():
    config = LstmLmConfig(hidden_size=8, layers=1, epochs=1, seed=1, initial_lr=1.0,
                          batch_size=2, bptt=5)
    return train_lstm_lm(fixture_corpus(), fixture_corpus(), fixture_vocab(), config)


def with_config_record(blob: bytes, config, record: dict) -> bytes:
    """`blob` with the LSTM config record of `config` replaced by `record`."""
    def packed(rec):
        raw = json.dumps(rec, sort_keys=True).encode("utf-8")
        return struct.pack("<I", len(raw)) + raw

    old = packed(dataclasses.asdict(config))
    assert blob.count(old) == 1
    return blob.replace(old, packed(record))


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

    @pytest.mark.parametrize("trainer, digest", [
        (train_unigram, "fc7a9cc432a7b9d8806b9b99ad6259f6abf74e11635008f5c2855f82868016ae"),
        (train_bigram, "44484acb05c9b6cbe52116debbc86776c336e42f674de675a813467114db903f"),
    ], ids=["unigram", "bigram"])
    def test_count_model_bytes_are_pinned(self, trainer, digest):
        model = trainer(fixture_corpus(), fixture_vocab())
        assert hashlib.sha256(model_bytes(model)).hexdigest() == digest

    def test_bytes_are_stable(self):
        model = train_unigram(fixture_corpus(), fixture_vocab())
        assert model_bytes(model) == model_bytes(model)
        assert model_bytes(model)[:4] == MAGIC


@pytest.mark.parametrize("factory", [
    UniformModel,
    lambda v: train_unigram(fixture_corpus(), v),
    lambda v: train_bigram(fixture_corpus(), v),
], ids=["uniform", "unigram", "bigram"])
def test_count_models_score_the_log_of_their_step_rows(factory):
    """Scoring equals, bit for bit, the log of the step rows walked along
    [eon] + ids."""
    model = factory(fixture_vocab())
    ids = [2, 3, 2, 5, 4, 5, 0]
    walked = []
    for prev, tok in zip([model.eon_id] + ids, ids):
        walked.append(np.log(model.step(np.array([prev]), None)[0][0, tok]))
    np.testing.assert_allclose(model.sequence_log_probs(ids), walked, rtol=0, atol=0)


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

    def test_head_not_matching_config_rejected(self, tmp_path):
        model = small_lstm()
        model.config = dataclasses.replace(model.config, tied_embeddings=False)  # no out_w
        path = tmp_path / "m.ptlm"
        save_model(model, path)
        with pytest.raises(ModelFormatError, match="tensors do not match"):
            load_model(path)

    @pytest.mark.parametrize("entry", [{"bogus": 1}, {"layers": "1"}, {"dropout": 1.5},
                                       [1], "x", None],
                             ids=["unknown-key", "mistyped", "out-of-range",
                                  "list", "string", "null"])
    def test_bad_lstm_config_record_rejected(self, tmp_path, entry):
        model = small_lstm()
        # a dict entry edits the real record; any other JSON value replaces it
        record = ({**dataclasses.asdict(model.config), **entry} if isinstance(entry, dict)
                  else entry)
        path = tmp_path / "m.ptlm"
        path.write_bytes(with_config_record(model_bytes(model), model.config, record))
        with pytest.raises(ModelFormatError, match="bad LSTM config record"):
            load_model(path)

    @pytest.mark.parametrize("name,renamed", [(b"out_b", b"out_x"), (b"l0.wx", b"l0.wy")])
    def test_renamed_tensor_rejected(self, tmp_path, name, renamed):
        blob = model_bytes(small_lstm())
        assert blob.count(struct.pack("<H", 5) + name) == 1
        path = tmp_path / "m.ptlm"
        path.write_bytes(blob.replace(struct.pack("<H", 5) + name,
                                      struct.pack("<H", 5) + renamed))
        with pytest.raises(ModelFormatError, match="tensor"):
            load_model(path)

    @pytest.mark.parametrize("factory", [
        lambda: train_unigram(fixture_corpus(), fixture_vocab()),
        lambda: train_bigram(fixture_corpus(), fixture_vocab()),
        small_lstm,
    ], ids=["unigram", "bigram", "lstm"])
    def test_trailing_bytes_rejected(self, tmp_path, factory):
        path = tmp_path / "m.ptlm"
        path.write_bytes(model_bytes(factory()) + b"\x00")
        with pytest.raises(ModelFormatError, match="1 bytes after the last block"):
            load_model(path)


def test_record_with_retired_training_keys_loads(tmp_path):
    """An LSTM file written while grad_clip, min_lr and min_improvement were
    config fields loads, drops them, and scores as the model it was saved from."""
    model = small_lstm()
    record = {**dataclasses.asdict(model.config),
              "grad_clip": 0.25, "min_lr": 0.1, "min_improvement": 0.1}
    path = tmp_path / "old.ptlm"
    path.write_bytes(with_config_record(model_bytes(model), model.config, record))
    back = load_model(path)
    assert back.config == model.config
    assert model_bytes(back) == model_bytes(model)
    assert perplexity(back, fixture_corpus()) == perplexity(model, fixture_corpus())
