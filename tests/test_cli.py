import dataclasses
import json
import logging
import os
import struct

import numpy as np
import pytest

from synthnotes import cli, corpus as corpus_mod, experiment, lm, modelio
from synthnotes.cli import EXIT_CONFIG, EXIT_OK, EXIT_STAGE, main
from synthnotes.embeddings import SgnsConfig, read_embeddings, train_sgns
from synthnotes.generation import GenerationConfig, generate_corpus
from synthnotes.privacy import json_text
from synthnotes.utility import (NliConfig, TruecaserConfig, evaluate_nli, evaluate_truecase,
                                make_case_pairs, read_nli_jsonl, train_nli_bow,
                                train_truecaser)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main(list(argv))


class TestPipeline:
    def test_template_preprocess_stats(self, workdir, capsys):
        assert run("template", "--seed", "1", "--notes", "40", "--outdir", "t") == EXIT_OK
        assert run("preprocess", "--input", "t/notes.txt", "--outdir", "c",
                   "--seed", "2", "--min-count", "2") == EXIT_OK
        assert run("stats", "--train", "c/train.txt", "--valid", "c/valid.txt",
                   "--test", "c/test.txt", "--vocab", "c/vocab.tsv") == EXIT_OK
        out = capsys.readouterr().out
        assert "Vocab" in out and "OOV" in out

    def test_preprocess_fractions(self, workdir, capsys):
        run("template", "--seed", "1", "--notes", "40", "--outdir", "t")
        assert run("preprocess", "--input", "t/notes.txt", "--outdir", "c", "--seed", "2",
                   "--min-count", "2", "--fractions", "0.6,0.2,0.2") == EXIT_OK
        assert [len(corpus_mod.read_corpus(f"c/{role}.txt"))
                for role in ("train", "valid", "test")] == [24, 8, 8]
        for fractions in ("0.5,0.5", "0.7,0.1,0.1,0.1"):
            assert run("preprocess", "--input", "t/notes.txt", "--outdir", "c2",
                       "--fractions", fractions) == EXIT_CONFIG
            assert not (workdir / "c2").exists()

    def test_privacy_jobs_match_serial(self, workdir, capsys):
        run("template", "--seed", "1", "--notes", "40", "--outdir", "t")
        run("preprocess", "--input", "t/notes.txt", "--outdir", "c",
            "--seed", "2", "--min-count", "2")
        for jobs in ("1", "2"):
            assert run("privacy", "--kind", "unigram", "--train", "c/train.txt",
                       "--vocab", "c/vocab.tsv", "--sample-size", "4", "--seed", "3",
                       "--jobs", jobs, "--out", f"priv{jobs}.json") == EXIT_OK
        assert (workdir / "priv1.json").read_bytes() == (workdir / "priv2.json").read_bytes()

    def test_report_renders_saved_report(self, workdir, capsys):
        report = experiment.ExperimentReport(
            rows=(experiment.ReportRow("real", None, None, None, 0.855, 0.5, 0.9, 0.95),
                  experiment.ReportRow("lstm", 0.5, 12.25, 1.4, 0.3, None, 0.8, 0.4)),
            stats={"vocab": 10}, config={"seed": 1}, artifacts={"lstm-d0.5": {}})
        (workdir / "report.json").write_text(json_text(report.as_dict()), encoding="utf-8")
        assert run("report", "--report", "report.json") == EXIT_OK
        assert capsys.readouterr().out == report.render() + "\n"

    def test_eval_nli_reads_embeddings_file(self, workdir, capsys):
        run("template", "--seed", "1", "--notes", "60", "--outdir", "t")
        run("preprocess", "--input", "t/notes.txt", "--outdir", "c",
            "--seed", "2", "--min-count", "2")
        assert run("eval-sim", "--corpus", "c/train.txt", "--benchmark",
                   "t/benchmark_sim.csv", "--min-count", "1", "--dim", "16",
                   "--iterations", "1", "--negatives", "3", "--seed", "1",
                   "--embeddings", "emb.txt") == EXIT_OK
        capsys.readouterr()
        assert run("eval-nli", "--train", "t/nli_train.jsonl", "--test", "t/nli_test.jsonl",
                   "--embeddings", "emb.txt", "--epochs", "2", "--seed", "1") == EXIT_OK
        clf = train_nli_bow(read_nli_jsonl("t/nli_train.jsonl"), read_embeddings("emb.txt"),
                            NliConfig(epochs=2, seed=1))
        accuracy = evaluate_nli(clf, read_nli_jsonl("t/nli_test.jsonl"))
        assert capsys.readouterr().out == f"accuracy {accuracy:.4f}\n"

    def test_train_generate_perplexity_privacy(self, workdir, capsys):
        run("template", "--seed", "1", "--notes", "40", "--outdir", "t")
        run("preprocess", "--input", "t/notes.txt", "--outdir", "c",
            "--seed", "2", "--min-count", "2")
        assert run("train-lm", "--kind", "unigram", "--train", "c/train.txt",
                   "--vocab", "c/vocab.tsv", "--out", "uni.ptlm") == EXIT_OK
        assert run("perplexity", "--model", "uni.ptlm", "--corpus", "c/valid.txt") == EXIT_OK
        ppl = float(capsys.readouterr().out.strip().splitlines()[-1])
        assert ppl > 1.0
        assert run("generate", "--model", "uni.ptlm", "--out", "synth.txt",
                   "--target-words", "300", "--temperature", "0.5", "--seed", "5",
                   "--max-note-len", "40") == EXIT_OK
        expected = generate_corpus(modelio.load_model("uni.ptlm"), GenerationConfig(
            300, temperature=0.5, seed=5, max_note_length=40))
        written = (workdir / "synth.txt").read_bytes()
        assert written == corpus_mod.corpus_text(expected).encode()
        assert run("generate", "--model", "uni.ptlm", "--out", "default.txt",
                   "--target-words", "300") == EXIT_OK
        assert (workdir / "default.txt").read_bytes() != written
        assert run("privacy", "--kind", "unigram", "--train", "c/train.txt",
                   "--vocab", "c/vocab.tsv", "--sample-size", "3", "--seed", "4",
                   "--analyze", "--out", "priv.json") == EXIT_OK
        data = json.loads((workdir / "priv.json").read_text())
        assert data["aggregate"] >= 0.0
        assert len(data["records"]) == 3

    def test_bigram_train_perplexity_generate(self, workdir, capsys):
        run("template", "--seed", "1", "--notes", "40", "--outdir", "t")
        run("preprocess", "--input", "t/notes.txt", "--outdir", "c",
            "--seed", "2", "--min-count", "2")
        assert run("train-lm", "--kind", "bigram", "--train", "c/train.txt",
                   "--vocab", "c/vocab.tsv", "--out", "bi.ptlm") == EXIT_OK
        assert run("perplexity", "--model", "bi.ptlm", "--corpus", "c/valid.txt") == EXIT_OK
        ppl = float(capsys.readouterr().out.strip().splitlines()[-1])
        vocab = corpus_mod.read_vocab("c/vocab.tsv")
        model = lm.train_bigram(corpus_mod.read_corpus("c/train.txt"), vocab)
        assert ppl == pytest.approx(lm.perplexity(model, corpus_mod.read_corpus("c/valid.txt")),
                                    abs=1e-6)
        assert run("generate", "--model", "bi.ptlm", "--out", "synth.txt",
                   "--target-words", "300", "--seed", "5") == EXIT_OK
        synth = corpus_mod.read_corpus("synth.txt")
        assert synth.word_count >= 300
        assert all(tok in vocab.tokens for note in synth for tok in note.tokens)

    def test_train_lm_logs_each_epoch_once(self, workdir, caplog):
        run("template", "--seed", "1", "--notes", "40", "--outdir", "t")
        run("preprocess", "--input", "t/notes.txt", "--outdir", "c",
            "--seed", "2", "--min-count", "2")
        caplog.set_level(logging.INFO)
        assert run("-v", "train-lm", "--kind", "lstm", "--train", "c/train.txt",
                   "--valid", "c/valid.txt", "--vocab", "c/vocab.tsv", "--out", "m.ptlm",
                   "--hidden", "6", "--layers", "1", "--epochs", "2", "--bptt", "12",
                   "--batch-size", "3") == EXIT_OK
        epochs = [r.getMessage() for r in caplog.records if r.getMessage().startswith("epoch ")]
        assert [m.split(":")[0] for m in epochs] == ["epoch 1", "epoch 2"]

    def test_lstm_flags_train_and_privacy(self, workdir, capsys):
        run("template", "--seed", "1", "--notes", "40", "--outdir", "t")
        run("preprocess", "--input", "t/notes.txt", "--outdir", "c",
            "--seed", "2", "--min-count", "2")
        data = ("--train", "c/train.txt", "--vocab", "c/vocab.tsv")
        flags = ("--hidden", "6", "--layers", "1", "--dropout", "0.25", "--epochs", "2",
                 "--lr", "1.5", "--lr-policy", "medtext103", "--bptt", "12",
                 "--batch-size", "3", "--seed", "7")
        assert run("train-lm", "--kind", "lstm", *data, "--out", "m.ptlm", *flags) == EXIT_CONFIG
        assert run("train-lm", "--kind", "lstm", *data, "--valid", "c/valid.txt",
                   "--out", "m.ptlm", *flags) == EXIT_OK
        config = modelio.load_model("m.ptlm").config
        assert (config.hidden_size, config.layers, config.dropout, config.epochs,
                config.initial_lr, config.lr_decay_policy, config.bptt, config.batch_size,
                config.seed) == (6, 1, 0.25, 2, 1.5, "medtext103", 12, 3, 7)
        assert run("privacy", "--kind", "lstm", *data, "--valid", "c/valid.txt",
                   "--sample-size", "2", "--out", "priv.json", *flags) == EXIT_OK
        assert json.loads((workdir / "priv.json").read_text())["config"]["trainer"] == "lstm"

    def test_eval_sim_embeddings_file(self, workdir, capsys):
        run("template", "--seed", "1", "--notes", "60", "--outdir", "t")
        run("preprocess", "--input", "t/notes.txt", "--outdir", "c",
            "--seed", "2", "--min-count", "2")
        capsys.readouterr()

        def eval_sim(seed, *extra):
            assert run("eval-sim", "--corpus", "c/train.txt", "--benchmark",
                       "t/benchmark_sim.csv", "--min-count", "1", "--dim", "16",
                       "--iterations", "1", "--negatives", "3", "--seed", seed,
                       "--embeddings", "emb.txt", *extra) == EXIT_OK
            return capsys.readouterr().out, (workdir / "emb.txt").read_bytes()

        written = eval_sim("1")
        # an existing file is reused: another seed changes neither score nor file
        assert eval_sim("2") == written
        out, retrained = eval_sim("2", "--retrain")
        assert retrained != written[1]
        assert "spearman" in out

    def test_eval_sim_window_and_train_min_count_reach_sgns(self, workdir, capsys):
        run("template", "--seed", "1", "--notes", "60", "--outdir", "t")
        run("preprocess", "--input", "t/notes.txt", "--outdir", "c",
            "--seed", "2", "--min-count", "2")
        assert run("eval-sim", "--corpus", "c/train.txt", "--benchmark",
                   "t/benchmark_sim.csv", "--min-count", "1", "--dim", "16",
                   "--iterations", "1", "--negatives", "3", "--seed", "1",
                   "--window", "2", "--train-min-count", "3",
                   "--embeddings", "emb.txt") == EXIT_OK
        written = read_embeddings("emb.txt")
        train = corpus_mod.read_corpus("c/train.txt", "train")
        base = dict(dim=16, iterations=1, negatives=3, seed=1)
        expected = train_sgns(train, SgnsConfig(window=2, min_count=3, **base))
        defaults = train_sgns(train, SgnsConfig(**base))
        assert written.words == expected.words
        assert np.array_equal(written.matrix, expected.matrix)
        assert (written.words != defaults.words
                or not np.array_equal(written.matrix, defaults.matrix))

    def test_eval_commands(self, workdir, capsys):
        run("template", "--seed", "1", "--notes", "60", "--outdir", "t")
        run("preprocess", "--input", "t/notes.txt", "--outdir", "c",
            "--seed", "2", "--min-count", "2")
        assert run("eval-sim", "--corpus", "c/train.txt", "--benchmark",
                   "t/benchmark_sim.csv", "--min-count", "1", "--dim", "16",
                   "--iterations", "1", "--negatives", "3", "--seed", "1") == EXIT_OK
        assert "spearman" in capsys.readouterr().out
        assert run("eval-nli", "--train", "t/nli_train.jsonl", "--test", "t/nli_test.jsonl",
                   "--corpus", "c/train.txt", "--dim", "16", "--epochs", "2",
                   "--seed", "1") == EXIT_OK
        assert "accuracy" in capsys.readouterr().out

    def test_eval_case_command(self, workdir, capsys):
        run("template", "--seed", "1", "--notes", "30", "--outdir", "t")
        run("preprocess", "--input", "t/notes.txt", "--outdir", "c", "--seed", "2",
            "--min-count", "2")
        capsys.readouterr()
        assert run("eval-case", "--train", "c/train.txt", "--test-cased", "c/test.cased.txt",
                   "--hidden", "12", "--epochs", "1", "--seed", "0") == EXIT_OK
        caser = train_truecaser(corpus_mod.read_corpus("c/train.txt"),
                                TruecaserConfig(hidden=12, epochs=1, seed=0))
        f1 = evaluate_truecase(caser, make_case_pairs(corpus_mod.read_corpus("c/test.cased.txt")))
        assert capsys.readouterr().out == f"case F1 {f1:.4f}\n"

    def test_eval_flags_reach_their_configs(self, workdir, monkeypatch):
        run("template", "--seed", "1", "--notes", "30", "--outdir", "t")
        run("preprocess", "--input", "t/notes.txt", "--outdir", "c", "--seed", "2",
            "--min-count", "2")
        configs = {}

        class Reached(Exception):
            pass

        def recorder(name, result=None):
            def record(*args):
                configs[name] = args[-1]
                if result is None:
                    raise Reached
                return result
            return record

        monkeypatch.setattr(cli, "train_sgns", recorder("sgns", result="embeddings"))
        monkeypatch.setattr(cli, "train_nli_bow", recorder("nli"))
        monkeypatch.setattr(cli, "train_truecaser", recorder("truecase"))
        with pytest.raises(Reached):
            run("eval-nli", "--train", "t/nli_train.jsonl", "--test", "t/nli_test.jsonl",
                "--corpus", "c/train.txt", "--dim", "16", "--epochs", "2", "--seed", "5")
        with pytest.raises(Reached):
            run("eval-case", "--train", "c/train.txt", "--test-cased", "c/test.cased.txt",
                "--hidden", "12", "--epochs", "3", "--seed", "6", "--max-sentences", "40")
        assert configs == {"sgns": SgnsConfig(dim=16, seed=5), "nli": NliConfig(epochs=2, seed=5),
                           "truecase": TruecaserConfig(hidden=12, epochs=3, seed=6,
                                                       max_sentences=40)}


class TestExitCodes:
    def test_unknown_flag_is_config_error(self, workdir, capsys):
        assert run("perplexity", "--bogus", "x") == EXIT_CONFIG

    def test_missing_file_is_config_error(self, workdir, capsys):
        assert run("perplexity", "--model", "missing.ptlm", "--corpus", "nope.txt") == EXIT_CONFIG

    def test_malformed_model_file_is_config_error(self, workdir, capsys):
        run("template", "--seed", "1", "--notes", "40", "--outdir", "t")
        run("preprocess", "--input", "t/notes.txt", "--outdir", "c", "--seed", "2",
            "--min-count", "2")
        assert run("train-lm", "--kind", "unigram", "--train", "c/train.txt",
                   "--vocab", "c/vocab.tsv", "--out", "uni.ptlm") == EXIT_OK
        (workdir / "bad.ptlm").write_bytes((workdir / "uni.ptlm").read_bytes() + b"\x00")
        capsys.readouterr()
        assert run("perplexity", "--model", "bad.ptlm", "--corpus", "c/valid.txt") == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        # an LSTM config record that is JSON but not an object
        assert run("train-lm", "--kind", "lstm", "--train", "c/train.txt", "--valid",
                   "c/valid.txt", "--vocab", "c/vocab.tsv", "--out", "lstm.ptlm",
                   "--hidden", "4", "--layers", "1", "--epochs", "1") == EXIT_OK
        record = json.dumps(dataclasses.asdict(modelio.load_model("lstm.ptlm").config),
                            sort_keys=True).encode("utf-8")
        blob = (workdir / "lstm.ptlm").read_bytes()
        assert blob.count(record) == 1
        (workdir / "bad.ptlm").write_bytes(
            blob.replace(struct.pack("<I", len(record)) + record, struct.pack("<I", 3) + b"[1]"))
        capsys.readouterr()
        assert run("perplexity", "--model", "bad.ptlm", "--corpus", "c/valid.txt") == EXIT_CONFIG
        assert "bad.ptlm: bad LSTM config record: not a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("data,message", [
        ([], "not an object with rows, stats and config"),
        ({"rows": [{"model": "real", "bogus": 1}], "stats": {}, "config": {}},
         "a row's keys are not"),
    ], ids=["list", "unknown-row-key"])
    def test_malformed_report_names_its_file(self, workdir, capsys, data, message):
        (workdir / "report.json").write_text(json.dumps(data), encoding="utf-8")
        assert run("report", "--report", "report.json") == EXIT_CONFIG
        assert f"report.json: {message}" in capsys.readouterr().err

    def test_experiment_missing_config_file(self, workdir, capsys):
        assert run("experiment", "--config", "nope.ini") == EXIT_CONFIG

    def test_experiment_bad_config_key(self, workdir, capsys):
        (workdir / "bad.ini").write_text("[experiment]\nbogus_key = 1\n")
        assert run("experiment", "--config", "bad.ini") == EXIT_CONFIG

    def test_experiment_bad_component_value_writes_nothing(self, workdir, capsys):
        # small stages, so that a late check would fail fast after writing
        (workdir / "bad.ini").write_text(
            "[data]\ntemplate_notes = 40\n[experiment]\noutput_dir = out\n"
            "grid = lstm:0.0\n[embeddings]\ndim = 8\niterations = 1\n"
            "eval_min_count = 1\n[nli]\nepochs = 1\n[truecase]\nepochs = 1\n"
            "max_sentences = 20\n[lstm]\npolicy = bogus\n")
        assert run("experiment", "--config", "bad.ini") == EXIT_CONFIG
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("data", "split_fractions", "0.5,0.5"),
        ("data", "split_fractions", "0.7,0.1,0.1,0.1"),
        ("data", "split_fractions", "0.9,0.1,0.0"),
        ("experiment", "jobs", "0"),
        ("truecase", "batch", "0"),
        ("nli", "epochs", "0"),
        ("experiment", "grid", "unigram, lstm:1.5"),
        ("generation", "temperature", "nan"),
        ("generation", "max_note_length", "0"),
        ("embeddings", "train_min_count", "0"),
    ])
    def test_experiment_bad_value_checked_before_any_stage(self, workdir, capsys,
                                                            section, key, value):
        sections = {"data": {"template_notes": "40"},
                    "experiment": {"output_dir": "out", "grid": "unigram"},
                    "embeddings": {"dim": "8", "iterations": "1", "eval_min_count": "1"},
                    "nli": {"epochs": "1"}, "truecase": {"epochs": "1", "max_sentences": "20"}}
        sections.setdefault(section, {})[key] = value
        (workdir / "bad.ini").write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for name, keys in sections.items()))
        assert run("experiment", "--config", "bad.ini") == EXIT_CONFIG
        assert not (workdir / "out").exists()

    def test_split_emptied_by_rounding_writes_no_cell_output(self, workdir, capsys):
        # 4 notes at 0.8/0.1/0.1 round to 3/0/1: an empty valid split
        (workdir / "exp.ini").write_text("[data]\ntemplate_notes = 4\nmin_count = 1\n"
                                         "[experiment]\noutput_dir = out\ngrid = unigram\n")
        assert run("experiment", "--config", "exp.ini") == EXIT_STAGE
        assert "stage 'stats' failed: empty valid split" in capsys.readouterr().err
        assert not any((workdir / "out" / sub).exists()
                       for sub in ("models", "synthetic", "privacy"))

    def test_jobs_below_one_rejected(self, workdir, capsys):
        (workdir / "exp.ini").write_text("[data]\ntemplate_notes = 40\n"
                                         "[experiment]\noutput_dir = out\ngrid = unigram\n")
        assert run("experiment", "--config", "exp.ini", "--jobs", "-1") == EXIT_CONFIG
        assert not (workdir / "out").exists()
        run("template", "--seed", "1", "--notes", "20", "--outdir", "t")
        run("preprocess", "--input", "t/notes.txt", "--outdir", "c", "--min-count", "2")
        capsys.readouterr()
        assert run("privacy", "--kind", "unigram", "--train", "c/train.txt",
                   "--vocab", "c/vocab.tsv", "--sample-size", "2", "--jobs", "0",
                   "--out", "priv.json") == EXIT_CONFIG
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not (workdir / "priv.json").exists()

    def test_version_and_help(self, workdir, capsys):
        with pytest.raises(SystemExit):
            run("--version")
        assert "synthnotes" in capsys.readouterr().out


class TestOutdirOverride:
    def test_env_var_redirects_output(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("SYNTHNOTES_OUTDIR", str(workdir / "override"))
        assert run("template", "--seed", "3", "--notes", "5", "--outdir", "ignored") == EXIT_OK
        assert (workdir / "override" / "notes.txt").exists()
        assert not (workdir / "ignored").exists()
