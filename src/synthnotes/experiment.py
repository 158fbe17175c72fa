"""Experiment orchestration: preprocess a corpus, train a grid of note
generation models, generate synthetic corpora, audit privacy leakage, run
the utility benchmarks on real vs synthetic text, and emit one report row
per grid cell plus a real-corpus baseline row.

Every stage's randomness is derived from one global seed mixed with the
stage name, so any stage is independently re-runnable; artifacts are
written under content-addressed names; reruns with the same config are
byte-identical regardless of the worker-pool size.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import __version__, corpus as corpus_mod, lm, modelio, privacy as privacy_mod
from .embeddings import SgnsConfig, read_benchmark, train_sgns, evaluate_similarity
from .generation import GenerationConfig, generate_corpus
from .neural import LstmLmConfig, train_lstm_lm
from .template import write_template_bundle
from .utility import (
    NliConfig,
    TruecaserConfig,
    evaluate_nli,
    evaluate_truecase,
    make_case_pairs,
    read_nli_jsonl,
    train_nli_bow,
    train_truecaser,
)

log = logging.getLogger(__name__)


def derive_seed(global_seed: int, stage: str) -> int:
    """Stable per-stage seed: the stage name hashed into the global seed."""
    blob = f"{global_seed}:{stage}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little") >> 1


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage and cell identity."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


@dataclass(frozen=True)
class ExperimentConfig:
    # data: either a raw corpus file or a seeded template bundle
    raw_corpus: str | None = None
    template_notes: int = 1000
    output_dir: str = "experiment-out"
    seed: int = 1
    split_fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    min_count: int = 3

    # model grid: "unigram", "bigram" or "lstm:<dropout>"
    grid: tuple[str, ...] = ("unigram", "lstm:0.0", "lstm:0.5")

    # desk-scale LSTM trainer (module defaults keep the full-scale values)
    lstm_hidden: int = 48
    lstm_layers: int = 2
    lstm_epochs: int = 20
    lstm_lr: float = 6.0
    lstm_policy: str = "medtext2"
    lstm_bptt: int = 35
    lstm_batch: int = 20
    lstm_dtype: str = "float64"

    privacy_sample_size: int = 10

    emb_dim: int = 100
    emb_window: int = 5
    emb_negatives: int = 10
    emb_iterations: int = 3
    emb_train_min_count: int = 5
    emb_eval_min_count: int = 20
    benchmark_sim: str | None = None
    benchmark_rel: str | None = None

    nli_train: str | None = None
    nli_test: str | None = None
    nli_epochs: int = 30
    nli_hidden: int = 128
    nli_lr: float = 0.05

    case_hidden: int = 48
    case_emb_dim: int = 16
    case_epochs: int = 8
    case_lr: float = 2.0
    case_batch: int = 8
    case_max_sentences: int = 2500

    gen_temperature: float = 1.0
    gen_max_note_length: int = 2000

    jobs: int = 1

    def validate(self) -> None:
        for label, path in (("raw_corpus", self.raw_corpus),
                            ("benchmark_sim", self.benchmark_sim),
                            ("benchmark_rel", self.benchmark_rel),
                            ("nli_train", self.nli_train),
                            ("nli_test", self.nli_test)):
            if path is not None and not Path(path).exists():
                raise FileNotFoundError(f"{label} path {path!r} does not exist")
        for cell in self.grid:
            parse_cell(cell)
        if not 1 <= self.privacy_sample_size:
            raise ValueError("privacy_sample_size must be >= 1")

    def echo(self) -> dict:
        """Config as written into reports; worker count and output location
        are execution details, not experiment identity, and are left out so
        reruns compare byte-identical."""
        out = {}
        for key, value in self.__dict__.items():
            if key in ("jobs", "output_dir"):
                continue
            out[key] = list(value) if isinstance(value, tuple) else value
        return out


def parse_cell(cell: str) -> tuple[str, float | None]:
    if cell == "unigram" or cell == "bigram":
        return cell, None
    if cell.startswith("lstm:"):
        return "lstm", float(cell.split(":", 1)[1])
    raise ValueError(f"unknown grid cell {cell!r}; expected unigram, bigram or lstm:<dropout>")


_INI_SECTIONS = {
    "data": ("raw_corpus", "template_notes", "split_fractions", "min_count"),
    "experiment": ("seed", "grid", "output_dir", "jobs"),
    "lstm": ("lstm_hidden", "lstm_layers", "lstm_epochs", "lstm_lr", "lstm_policy",
             "lstm_bptt", "lstm_batch", "lstm_dtype"),
    "privacy": ("privacy_sample_size",),
    "embeddings": ("emb_dim", "emb_window", "emb_negatives", "emb_iterations",
                   "emb_train_min_count", "emb_eval_min_count"),
    "benchmarks": ("benchmark_sim", "benchmark_rel"),
    "nli": ("nli_train", "nli_test", "nli_epochs", "nli_hidden", "nli_lr"),
    "truecase": ("case_hidden", "case_emb_dim", "case_epochs", "case_lr",
                 "case_batch", "case_max_sentences"),
    "generation": ("gen_temperature", "gen_max_note_length"),
}
def _ini_aliases() -> dict:
    """Config keys drop their section prefix inside the matching section,
    e.g. [lstm] hidden = 32 maps to lstm_hidden."""
    prefixed = {"lstm": "lstm_", "embeddings": "emb_", "nli": "nli_",
                "truecase": "case_", "generation": "gen_", "privacy": "privacy_",
                "benchmarks": "benchmark_"}
    aliases: dict = {}
    for section, keys in _INI_SECTIONS.items():
        prefix = prefixed.get(section, "")
        aliases[section] = {}
        for key in keys:
            short = key[len(prefix):] if prefix and key.startswith(prefix) else key
            aliases[section][short] = key
    return aliases


_INI_KEY_ALIASES = _ini_aliases()


def read_experiment_config(path: str | Path) -> ExperimentConfig:
    """INI-style key=value config; sections and keys as documented in the
    README. Unknown sections or keys are rejected."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file {path!r} not found")
    defaults = ExperimentConfig()
    values: dict = {}
    for section in parser.sections():
        if section not in _INI_KEY_ALIASES:
            raise ValueError(f"unknown config section [{section}]")
        aliases = _INI_KEY_ALIASES[section]
        for key, raw in parser.items(section):
            if key not in aliases:
                raise ValueError(f"unknown key {key!r} in section [{section}]")
            name = aliases[key]
            current = getattr(defaults, name)
            if name == "grid":
                values[name] = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
            elif name == "split_fractions":
                values[name] = tuple(float(tok) for tok in raw.split(","))
            elif isinstance(current, bool):
                values[name] = parser.getboolean(section, key)
            elif isinstance(current, int) and not isinstance(current, bool):
                values[name] = int(raw)
            elif isinstance(current, float):
                values[name] = float(raw)
            else:
                values[name] = raw
    config = replace(defaults, **values)
    return config


@dataclass(frozen=True)
class ReportRow:
    model: str
    dropout: float | None
    perplexity: float | None
    privacy: float | None
    similarity: float | None
    relatedness: float | None
    nli: float | None
    case: float | None

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ReportRow, ...]
    stats: dict
    config: dict
    artifacts: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "tool_version": __version__,
            "config": self.config,
            "stats": self.stats,
            "rows": [r.as_dict() for r in self.rows],
            "artifacts": self.artifacts,
        }

    def render(self) -> str:
        def fmt(v, spec=".3f"):
            return "n/a" if v is None else format(v, spec)

        header = (f"{'model':<10s} {'dropout':>8s} {'perplexity':>11s} {'privacy':>9s} "
                  f"{'similarity':>11s} {'relatedness':>12s} {'nli':>7s} {'case':>7s}")
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.model:<10s} {fmt(r.dropout, '.1f'):>8s} {fmt(r.perplexity, '.2f'):>11s} "
                f"{fmt(r.privacy):>9s} {fmt(r.similarity):>11s} {fmt(r.relatedness):>12s} "
                f"{fmt(r.nli):>7s} {fmt(r.case):>7s}")
        return "\n".join(lines)


def write_report(report: ExperimentReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def read_report(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


class LstmTrainer:
    """Deterministic corpus -> LSTM model procedure with a fixed seed and a
    fixed validation corpus (shared across leave-one-out folds)."""

    def __init__(self, vocab, valid, config: LstmLmConfig):
        self.vocab = vocab
        self.valid = valid
        self.config = config

    def __call__(self, corpus):
        return train_lstm_lm(corpus, self.valid, self.vocab, self.config)


def _content_name(directory: Path, stem: str, suffix: str, blob: bytes) -> Path:
    digest = hashlib.sha256(blob).hexdigest()[:12]
    return directory / f"{stem}-{digest}{suffix}"


def _cell_label(kind: str, dropout: float | None) -> str:
    return kind if dropout is None else f"{kind}-d{dropout:g}"


def _run_stage(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, exc) from exc


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    config.validate()
    outdir = Path(config.output_dir)
    for sub in ("models", "synthetic", "privacy"):
        (outdir / sub).mkdir(parents=True, exist_ok=True)
    artifacts: dict = {}

    # ---- data stage -------------------------------------------------------
    if config.raw_corpus is not None:
        raw_path = Path(config.raw_corpus)
        bench_sim_path = config.benchmark_sim
        bench_rel_path = config.benchmark_rel
        nli_train_path = config.nli_train
        nli_test_path = config.nli_test
    else:
        bundle = _run_stage("template", write_template_bundle,
                            derive_seed(config.seed, "template"),
                            config.template_notes, outdir / "template")
        raw_path = bundle.raw_corpus
        bench_sim_path = config.benchmark_sim or bundle.benchmark_sim
        bench_rel_path = config.benchmark_rel or bundle.benchmark_rel
        nli_train_path = config.nli_train or bundle.nli_train
        nli_test_path = config.nli_test or bundle.nli_test

    def prepare():
        full = corpus_mod.read_raw_corpus(raw_path)
        train, valid, test = corpus_mod.split_corpus(
            full, config.split_fractions, derive_seed(config.seed, "split"))
        vocab = corpus_mod.build_vocabulary(train, config.min_count)
        return (vocab, corpus_mod.apply_unk(train, vocab),
                corpus_mod.apply_unk(valid, vocab), corpus_mod.apply_unk(test, vocab))

    vocab, train_u, valid_u, test_u = _run_stage("preprocess", prepare)
    stats = _run_stage("stats", corpus_mod.compute_stats, train_u, valid_u, test_u, vocab)
    log.info("corpus ready: %s", stats.as_dict())

    bench_sim = read_benchmark(bench_sim_path, "similarity") if bench_sim_path else None
    bench_rel = read_benchmark(bench_rel_path, "relatedness") if bench_rel_path else None
    nli_train_data = read_nli_jsonl(nli_train_path) if nli_train_path else None
    nli_test_data = read_nli_jsonl(nli_test_path) if nli_test_path else None
    real_case_pairs = make_case_pairs(test_u)

    def utility_columns(source: corpus_mod.Corpus, label: str):
        """similarity/relatedness/nli/case columns for models trained only
        on `source`; evaluation material always comes from the real splits.
        The provenance guard keeps real and synthetic cells from leaking
        into each other's training data."""
        if (label == "real") != (source is train_u):
            raise StageError(f"provenance:{label}",
                             ValueError("utility training source does not match cell"))
        emb = _run_stage(f"embeddings:{label}", train_sgns, source, SgnsConfig(
            dim=config.emb_dim, window=config.emb_window,
            negatives=config.emb_negatives, iterations=config.emb_iterations,
            min_count=config.emb_train_min_count,
            seed=derive_seed(config.seed, f"embeddings:{label}")))
        emb = replace(emb, config={**emb.config, "source": label})
        counts = source.token_counts()
        sim = rel = None
        if bench_sim is not None:
            sim, _ = _run_stage(f"eval-sim:{label}", evaluate_similarity,
                                emb, bench_sim, config.emb_eval_min_count, counts)
        if bench_rel is not None:
            rel, _ = _run_stage(f"eval-rel:{label}", evaluate_similarity,
                                emb, bench_rel, config.emb_eval_min_count, counts)
        nli_acc = None
        if nli_train_data is not None and nli_test_data is not None:
            nli_cfg = NliConfig(hidden=config.nli_hidden, lr=config.nli_lr,
                                epochs=config.nli_epochs,
                                seed=derive_seed(config.seed, f"nli:{label}"))
            clf = _run_stage(f"train-nli:{label}", train_nli_bow, nli_train_data, emb, nli_cfg)
            nli_acc = _run_stage(f"eval-nli:{label}", evaluate_nli, clf, nli_test_data)
        case_cfg = TruecaserConfig(hidden=config.case_hidden, emb_dim=config.case_emb_dim,
                                   epochs=config.case_epochs, lr=config.case_lr,
                                   batch_size=config.case_batch,
                                   max_sentences=config.case_max_sentences,
                                   seed=derive_seed(config.seed, f"truecase:{label}"))
        caser = _run_stage(f"train-case:{label}", train_truecaser, source, case_cfg)
        case_f1 = _run_stage(f"eval-case:{label}", evaluate_truecase, caser, real_case_pairs)
        return sim, rel, nli_acc, case_f1

    sim, rel, nli_acc, case_f1 = utility_columns(train_u, "real")
    rows = [ReportRow(model="real", dropout=None, perplexity=None, privacy=None,
                      similarity=sim, relatedness=rel, nli=nli_acc, case=case_f1)]

    for cell in config.grid:
        kind, dropout = parse_cell(cell)
        label = _cell_label(kind, dropout)
        if kind == "unigram":
            trainer = functools.partial(lm.train_unigram, vocab=vocab)
        elif kind == "bigram":
            trainer = functools.partial(lm.train_bigram, vocab=vocab)
        else:
            lstm_cfg = LstmLmConfig(
                hidden_size=config.lstm_hidden, layers=config.lstm_layers,
                dropout=dropout, initial_lr=config.lstm_lr,
                lr_decay_policy=config.lstm_policy, epochs=config.lstm_epochs,
                bptt=config.lstm_bptt, batch_size=config.lstm_batch,
                dtype=config.lstm_dtype,
                seed=derive_seed(config.seed, f"train:{label}"))
            trainer = LstmTrainer(vocab, valid_u, lstm_cfg)

        model = _run_stage(f"train-lm:{label}", trainer, train_u)
        blob = modelio.model_bytes(model)
        model_path = _content_name(outdir / "models", label, ".ptlm", blob)
        model_path.write_bytes(blob)

        ppl = _run_stage(f"perplexity:{label}", lm.perplexity, model, valid_u)

        gen_cfg = GenerationConfig(
            target_word_count=train_u.word_count,
            temperature=config.gen_temperature,
            seed=derive_seed(config.seed, f"generate:{label}"),
            max_note_length=config.gen_max_note_length)
        synth = _run_stage(f"generate:{label}", generate_corpus, model, gen_cfg)
        synth_blob = "\n\n".join(corpus_mod.note_text(n) for n in synth.notes) + "\n"
        synth_path = _content_name(outdir / "synthetic", label, ".txt",
                                   synth_blob.encode())
        synth_path.write_text(synth_blob, encoding="utf-8")

        privacy_cfg = privacy_mod.PrivacyConfig(
            trainer=trainer, sample_size=config.privacy_sample_size,
            seed=derive_seed(config.seed, "privacy-sample"),
            jobs=config.jobs, trainer_label=label)
        privacy_report = _run_stage(f"privacy:{label}", privacy_mod.s_pdtp_score,
                                    train_u, privacy_cfg, model)
        priv_blob = json.dumps(privacy_report.as_dict(), indent=2, sort_keys=True) + "\n"
        priv_path = _content_name(outdir / "privacy", label, ".json", priv_blob.encode())
        priv_path.write_text(priv_blob, encoding="utf-8")

        sim, rel, nli_acc, case_f1 = utility_columns(synth, label)
        rows.append(ReportRow(model=kind, dropout=dropout, perplexity=ppl,
                              privacy=privacy_report.aggregate, similarity=sim,
                              relatedness=rel, nli=nli_acc, case=case_f1))
        artifacts[label] = {
            "model": model_path.name,
            "synthetic": synth_path.name,
            "privacy": priv_path.name,
        }
        log.info("cell %s done: ppl %.3f privacy %.4f", label, ppl, privacy_report.aggregate)

    report = ExperimentReport(rows=tuple(rows), stats=stats.as_dict(),
                              config=config.echo(), artifacts=artifacts)
    write_report(report, outdir / "report.json")
    (outdir / "report.txt").write_text(report.render() + "\n", encoding="utf-8")
    return report
