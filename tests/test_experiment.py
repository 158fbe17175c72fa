import configparser
import json
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest

from synthnotes import cli
from synthnotes.embeddings import SgnsConfig
from synthnotes.experiment import (
    _COMPONENTS,
    _INI_TABLE,
    _PATH_FIELDS,
    ExperimentConfig,
    derive_seed,
    parse_cell,
    read_experiment_config,
    run_experiment,
)
from synthnotes.neural import LstmLmConfig
from synthnotes.utility import NliConfig, TruecaserConfig

SMALL_CONFIG = dict(
    template_notes=60,
    grid=("unigram", "lstm:0.0"),
    lstm=LstmLmConfig(hidden_size=8, epochs=2, initial_lr=1.0, batch_size=4, bptt=20),
    privacy_sample_size=2,
    sgns=SgnsConfig(dim=12, iterations=1, negatives=3),
    emb_eval_min_count=3,
    nli=NliConfig(epochs=2),
    truecase=TruecaserConfig(hidden=8, emb_dim=6, epochs=1, max_sentences=150),
    seed=5,
)

INI_KEYS = [(section, key) for section, keys in _INI_TABLE.items() for key in keys]


def small_config(outdir, **overrides):
    params = dict(SMALL_CONFIG)
    params.update(overrides)
    return ExperimentConfig(output_dir=str(outdir), **params)


class TestSeedDerivation:
    def test_stage_names_get_distinct_seeds(self):
        assert derive_seed(1, "train:a") != derive_seed(1, "train:b")
        assert derive_seed(1, "train:a") == derive_seed(1, "train:a")
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_parse_cell(self):
        assert parse_cell("unigram") == ("unigram", None)
        assert parse_cell("lstm:0.5") == ("lstm", 0.5)
        with pytest.raises(ValueError):
            parse_cell("transformer")


class TestConfigFile:
    def test_ini_reading(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("""
[experiment]
seed = 9
grid = unigram, lstm:0.3
output_dir = out

[lstm]
hidden = 16
epochs = 3

[privacy]
sample_size = 4

[embeddings]
dim = 32

[truecase]
max_sentences = 100

[generation]
temperature = 0.9
""")
        config = read_experiment_config(path)
        assert config.seed == 9
        assert config.grid == ("unigram", "lstm:0.3")
        assert config.lstm.hidden_size == 16
        assert config.lstm.epochs == 3
        assert config.privacy_sample_size == 4
        assert config.sgns.dim == 32
        assert config.truecase.max_sentences == 100
        assert config.generation.temperature == pytest.approx(0.9)

    @pytest.mark.parametrize("section,key", INI_KEYS)
    def test_every_key_sets_its_field(self, tmp_path, section, key):
        component, name = _INI_TABLE[section][key]
        defaults = ExperimentConfig()
        target = defaults if component is None else getattr(defaults, component)
        default = getattr(target, name)
        raw, value = {"grid": ("bigram", ("bigram",)),
                      "split_fractions": ("0.7,0.2,0.1", (0.7, 0.2, 0.1)),
                      "lr_decay_policy": ("medtext103", "medtext103"),
                      "dtype": ("float32", "float32")}.get(name, (None, None))
        if raw is None and isinstance(default, (int, float)):
            raw, value = str(default + 1), default + 1
        elif raw is None:
            raw = value = "elsewhere.txt"
        assert value != default
        path = tmp_path / "exp.ini"
        path.write_text(f"[{section}]\n{key} = {raw}\n")
        changed = replace(target, **{name: value})
        want = changed if component is None else replace(defaults, **{component: changed})
        assert read_experiment_config(path) == want

    def test_readme_block_shows_defaults(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(block)
        parser = configparser.ConfigParser()
        parser.read(path)
        assert sorted((s, k) for s in parser.sections() for k in parser[s]) == sorted(INI_KEYS)
        config = read_experiment_config(path)
        paths = {name: getattr(config, name) for name in _PATH_FIELDS}
        assert all(paths.values())
        assert config == replace(ExperimentConfig(), **paths)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[lstm]\nwidth = 2\n")
        with pytest.raises(ValueError):
            read_experiment_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[models]\nhidden = 2\n")
        with pytest.raises(ValueError):
            read_experiment_config(path)

    def test_missing_paths_rejected(self):
        config = ExperimentConfig(raw_corpus="does-not-exist.txt")
        with pytest.raises(FileNotFoundError):
            config.validate()

    def test_echo_leaves_out_values_the_run_sets(self):
        echo = ExperimentConfig(jobs=3, output_dir="elsewhere").echo()
        assert "jobs" not in echo and "output_dir" not in echo
        lstm = asdict(ExperimentConfig().lstm)
        del lstm["seed"], lstm["dropout"]
        assert echo["lstm"] == lstm
        for component in ("sgns", "nli", "truecase"):
            assert "seed" not in echo[component]
        assert echo["generation"] == {"temperature": 1.0, "max_note_length": 2000}
        assert echo["grid"] == ("unigram", "lstm:0.0", "lstm:0.5")
        json.dumps(echo)

    def test_every_component_field_has_a_caller(self):
        """A component config field exists only where a caller sets it: an
        INI key, a CLI flag, or the run itself (stage seeds, the grid cell's
        dropout, the train split's word count). A value only tests set is a
        module constant instead."""
        set_by = {entry for keys in _INI_TABLE.values() for entry in keys.values()}
        flag_tables = {"lstm": [cli._LSTM_FLAGS], "sgns": [cli._SGNS_FLAGS, cli._NLI_SGNS_FLAGS],
                       "nli": [cli._NLI_FLAGS], "truecase": [cli._CASE_FLAGS]}
        set_by |= {(component, name) for component, tables in flag_tables.items()
                   for table in tables for name in table.values()}
        set_by |= {(component, name) for component in _COMPONENTS
                   for name in ("seed", "dropout", "target_word_count")}
        # perfbench's paper-shape workload passes tied_embeddings
        set_by.add(("lstm", "tied_embeddings"))
        defaults = ExperimentConfig()
        unset = [(component, f.name) for component in _COMPONENTS
                 for f in fields(getattr(defaults, component))
                 if (component, f.name) not in set_by]
        assert unset == []


class TestRunExperiment:
    def test_row_structure(self, tmp_path):
        report = run_experiment(small_config(tmp_path / "out"))
        assert [r.model for r in report.rows] == ["real", "unigram", "lstm"]
        baseline = report.rows[0]
        assert baseline.perplexity is None and baseline.privacy is None
        assert baseline.case is not None and baseline.similarity is not None
        for row in report.rows[1:]:
            assert row.perplexity > 0
            assert row.privacy >= 0
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "report.txt").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        run_experiment(small_config(tmp_path / "a"))
        run_experiment(small_config(tmp_path / "b", jobs=2))
        blob_a = (tmp_path / "a" / "report.json").read_bytes()
        assert (tmp_path / "b" / "report.json").read_bytes() == blob_a
        run_experiment(small_config(tmp_path / "a"))
        assert (tmp_path / "a" / "report.json").read_bytes() == blob_a

    def test_synthetic_word_count_matches_train(self, tmp_path):
        outdir = tmp_path / "out"
        config = small_config(outdir)
        report = run_experiment(config)
        from synthnotes.corpus import read_corpus, read_raw_corpus, split_corpus
        full = read_raw_corpus(outdir / "template" / "notes.txt")
        train, _, _ = split_corpus(full, config.split_fractions, derive_seed(config.seed, "split"))
        for label, paths in report.artifacts.items():
            synth = read_corpus(outdir / "synthetic" / paths["synthetic"])
            assert (train.word_count <= synth.word_count
                    <= train.word_count + config.generation.max_note_length)

    def test_saved_lstm_reproduces_report_perplexity(self, tmp_path):
        """A reloaded model scores afresh, so this checks the perplexity the
        run took from training validation against an independent recompute."""
        outdir = tmp_path / "out"
        config = small_config(outdir, grid=("lstm:0.0", "lstm:0.5"))
        run_experiment(config)
        from synthnotes import corpus as corpus_mod, lm, modelio
        full = corpus_mod.read_raw_corpus(outdir / "template" / "notes.txt")
        train, valid, _ = corpus_mod.split_corpus(full, config.split_fractions,
                                                  derive_seed(config.seed, "split"))
        valid = corpus_mod.apply_unk(valid, corpus_mod.build_vocabulary(train, config.min_count))
        report = json.loads((outdir / "report.json").read_text())
        rows = [row for row in report["rows"] if row["model"] == "lstm"]
        assert [row["dropout"] for row in rows] == [0.0, 0.5]
        for row in rows:
            paths = report["artifacts"][f"lstm-d{row['dropout']:g}"]
            model = modelio.load_model(outdir / "models" / paths["model"])
            assert lm.perplexity(model, valid) == row["perplexity"]

    def test_render_table(self, tmp_path):
        report = run_experiment(small_config(tmp_path / "out"))
        text = report.render()
        assert "perplexity" in text and "privacy" in text and "real" in text
