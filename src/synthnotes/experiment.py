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
import logging
from dataclasses import asdict, dataclass, field, replace
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


_COMPONENTS = ("lstm", "sgns", "nli", "truecase", "generation")
# input files; without a raw corpus, a template bundle supplies any left unset
_PATH_FIELDS = ("raw_corpus", "benchmark_sim", "benchmark_rel", "nli_train", "nli_test")


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

    # one config per component at desk scale (the module defaults keep the
    # full-scale values); run_experiment sets every seed, the LSTM dropout and
    # the generation target (the train split's word count)
    lstm: LstmLmConfig = LstmLmConfig(hidden_size=48, initial_lr=6.0)
    sgns: SgnsConfig = SgnsConfig(dim=100, iterations=3)
    nli: NliConfig = NliConfig()
    truecase: TruecaserConfig = TruecaserConfig(hidden=48, emb_dim=16, max_sentences=2500)
    generation: GenerationConfig = GenerationConfig(target_word_count=1)

    privacy_sample_size: int = 10

    emb_eval_min_count: int = 20
    benchmark_sim: str | None = None
    benchmark_rel: str | None = None

    nli_train: str | None = None
    nli_test: str | None = None

    jobs: int = 1

    def validate(self) -> None:
        for name in _PATH_FIELDS:
            path = getattr(self, name)
            if path is not None and not Path(path).exists():
                raise FileNotFoundError(f"{name} path {path!r} does not exist")
        for cell in self.grid:
            kind, dropout = parse_cell(cell)
            if kind == "lstm":
                replace(self.lstm, dropout=dropout)  # the LSTM config's own checks
        corpus_mod.check_fractions(self.split_fractions)
        if min(self.split_fractions) == 0:
            raise ValueError(f"the experiment needs all three splits, so every split "
                             f"fraction must be positive, got {self.split_fractions}")
        if not 1 <= self.privacy_sample_size:
            raise ValueError("privacy_sample_size must be >= 1")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    def echo(self) -> dict:
        """Config as written into reports. Worker count and output location
        are execution details, not experiment identity, and are left out so
        reruns compare byte-identical; the component seeds, the LSTM dropout
        and the generation target are left out because the run sets them per
        stage and cell."""
        out = asdict(self)
        del out["jobs"], out["output_dir"], out["lstm"]["dropout"]
        del out["generation"]["target_word_count"]
        for component in _COMPONENTS:
            del out[component]["seed"]
        return out


def parse_cell(cell: str) -> tuple[str, float | None]:
    if cell == "unigram" or cell == "bigram":
        return cell, None
    if cell.startswith("lstm:"):
        return "lstm", float(cell.split(":", 1)[1])
    raise ValueError(f"unknown grid cell {cell!r}; expected unigram, bigram or lstm:<dropout>")


def _keys(component: str | None, *same: str, **renamed: str) -> dict:
    table = {key: (component, key) for key in same}
    table.update((key, (component, name)) for key, name in renamed.items())
    return table


# INI section -> key -> (ExperimentConfig component, or None for the
# experiment itself, and the field the key sets there)
_INI_TABLE = {
    "data": _keys(None, "raw_corpus", "template_notes", "split_fractions", "min_count"),
    "experiment": _keys(None, "seed", "grid", "output_dir", "jobs"),
    "lstm": _keys("lstm", "layers", "epochs", "bptt", "dtype", hidden="hidden_size",
                  lr="initial_lr", policy="lr_decay_policy", batch="batch_size"),
    "privacy": _keys(None, sample_size="privacy_sample_size"),
    "embeddings": {**_keys("sgns", "dim", "window", "negatives", "iterations",
                           train_min_count="min_count"),
                   **_keys(None, eval_min_count="emb_eval_min_count")},
    "benchmarks": _keys(None, sim="benchmark_sim", rel="benchmark_rel"),
    "nli": {**_keys(None, train="nli_train", test="nli_test"),
            **_keys("nli", "epochs", "hidden", "lr")},
    "truecase": _keys("truecase", "hidden", "emb_dim", "epochs", "lr", "max_sentences",
                      batch="batch_size"),
    "generation": _keys("generation", "temperature", "max_note_length"),
}


def _parse_value(name: str, raw: str, current):
    """An INI value, parsed by the type of the field's default."""
    if name == "grid":
        return tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    if name == "split_fractions":
        return tuple(float(tok) for tok in raw.split(","))
    if isinstance(current, (int, float)):
        return type(current)(raw)
    return raw


def read_experiment_config(path: str | Path) -> ExperimentConfig:
    """INI-style key=value config; sections and keys as documented in the
    README. Unknown sections or keys are rejected, and each component
    config is built here, so its own checks reject bad values at once."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    if not parser.read(path):
        raise FileNotFoundError(f"config file {path!r} not found")
    defaults = ExperimentConfig()
    values: dict = {component: {} for component in (None, *_COMPONENTS)}
    for section in parser.sections():
        if section not in _INI_TABLE:
            raise ValueError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _INI_TABLE[section]:
                raise ValueError(f"unknown key {key!r} in section [{section}]")
            component, name = _INI_TABLE[section][key]
            target = defaults if component is None else getattr(defaults, component)
            values[component][name] = _parse_value(name, raw, getattr(target, name))
    components = {c: replace(getattr(defaults, c), **values[c]) for c in _COMPONENTS}
    return replace(defaults, **values[None], **components)


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


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ReportRow, ...]
    stats: dict
    config: dict
    artifacts: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"tool_version": __version__, **asdict(self)}

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


class LstmTrainer:
    """Deterministic corpus -> LSTM model procedure with a fixed seed and a
    fixed validation corpus (shared across leave-one-out folds)."""

    def __init__(self, vocab, valid, config: LstmLmConfig):
        self.vocab = vocab
        self.valid = valid
        self.config = config

    def __call__(self, corpus):
        return train_lstm_lm(corpus, self.valid, self.vocab, self.config)


def make_trainer(kind: str, vocab, valid=None, lstm_config: LstmLmConfig | None = None):
    """The corpus -> model procedure of a "unigram", "bigram" or "lstm"
    cell; only the LSTM uses the validation corpus and the config."""
    if kind == "unigram":
        return functools.partial(lm.train_unigram, vocab=vocab)
    if kind == "bigram":
        return functools.partial(lm.train_bigram, vocab=vocab)
    return LstmTrainer(vocab, valid, lstm_config)


def _write_artifact(directory: Path, stem: str, suffix: str, blob: bytes) -> str:
    """Write `blob` under a name holding its content digest; return the name."""
    path = directory / f"{stem}-{hashlib.sha256(blob).hexdigest()[:12]}{suffix}"
    path.write_bytes(blob)
    return path.name


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
    artifacts: dict = {}

    # ---- data stage -------------------------------------------------------
    paths = {name: getattr(config, name) for name in _PATH_FIELDS}
    if config.raw_corpus is None:
        bundle = _run_stage("template", write_template_bundle,
                            derive_seed(config.seed, "template"),
                            config.template_notes, outdir / "template")
        paths = {name: path or getattr(bundle, name) for name, path in paths.items()}

    def prepare():
        full = corpus_mod.read_raw_corpus(paths["raw_corpus"])
        train, valid, test = corpus_mod.split_corpus(
            full, config.split_fractions, derive_seed(config.seed, "split"))
        vocab = corpus_mod.build_vocabulary(train, config.min_count)
        return (vocab, corpus_mod.apply_unk(train, vocab),
                corpus_mod.apply_unk(valid, vocab), corpus_mod.apply_unk(test, vocab))

    vocab, train_u, valid_u, test_u = _run_stage("preprocess", prepare)
    stats = _run_stage("stats", corpus_mod.compute_stats, train_u, valid_u, test_u, vocab)
    log.info("corpus ready: %s", stats.as_dict())
    for sub in ("models", "synthetic", "privacy"):
        (outdir / sub).mkdir(parents=True, exist_ok=True)

    def read_input(name, reader, *args):
        return reader(paths[name], *args) if paths[name] else None

    bench_sim = read_input("benchmark_sim", read_benchmark, "similarity")
    bench_rel = read_input("benchmark_rel", read_benchmark, "relatedness")
    nli_train_data = read_input("nli_train", read_nli_jsonl)
    nli_test_data = read_input("nli_test", read_nli_jsonl)
    real_case_pairs = make_case_pairs(test_u)

    def utility_columns(source: corpus_mod.Corpus, label: str):
        """similarity/relatedness/nli/case columns for models trained only
        on `source`; evaluation material always comes from the real splits.
        The provenance guard keeps real and synthetic cells from leaking
        into each other's training data."""
        if (label == "real") != (source is train_u):
            raise StageError(f"provenance:{label}",
                             ValueError("utility training source does not match cell"))
        emb = _run_stage(f"embeddings:{label}", train_sgns, source, replace(
            config.sgns, seed=derive_seed(config.seed, f"embeddings:{label}")))
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
            nli_cfg = replace(config.nli, seed=derive_seed(config.seed, f"nli:{label}"))
            clf = _run_stage(f"train-nli:{label}", train_nli_bow, nli_train_data, emb, nli_cfg)
            nli_acc = _run_stage(f"eval-nli:{label}", evaluate_nli, clf, nli_test_data)
        case_cfg = replace(config.truecase, seed=derive_seed(config.seed, f"truecase:{label}"))
        caser = _run_stage(f"train-case:{label}", train_truecaser, source, case_cfg)
        case_f1 = _run_stage(f"eval-case:{label}", evaluate_truecase, caser, real_case_pairs)
        return sim, rel, nli_acc, case_f1

    sim, rel, nli_acc, case_f1 = utility_columns(train_u, "real")
    rows = [ReportRow(model="real", dropout=None, perplexity=None, privacy=None,
                      similarity=sim, relatedness=rel, nli=nli_acc, case=case_f1)]

    for cell in config.grid:
        kind, dropout = parse_cell(cell)
        label = _cell_label(kind, dropout)
        lstm_cfg = replace(config.lstm, dropout=dropout, seed=derive_seed(
            config.seed, f"train:{label}")) if kind == "lstm" else None
        trainer = make_trainer(kind, vocab, valid_u, lstm_cfg)

        model = _run_stage(f"train-lm:{label}", trainer, train_u)
        model_name = _write_artifact(outdir / "models", label, ".ptlm",
                                     modelio.model_bytes(model))

        ppl = _run_stage(f"perplexity:{label}", lm.perplexity, model, valid_u)

        gen_cfg = replace(config.generation, target_word_count=train_u.word_count,
                          seed=derive_seed(config.seed, f"generate:{label}"))
        synth = _run_stage(f"generate:{label}", generate_corpus, model, gen_cfg)
        synth_name = _write_artifact(outdir / "synthetic", label, ".txt",
                                     corpus_mod.corpus_text(synth).encode())

        privacy_cfg = privacy_mod.PrivacyConfig(
            trainer=trainer, sample_size=config.privacy_sample_size,
            seed=derive_seed(config.seed, "privacy-sample"),
            jobs=config.jobs, trainer_label=label)
        privacy_report = _run_stage(f"privacy:{label}", privacy_mod.s_pdtp_score,
                                    train_u, privacy_cfg, model)
        privacy_name = _write_artifact(outdir / "privacy", label, ".json",
                                       privacy_mod.json_text(privacy_report.as_dict()).encode())

        sim, rel, nli_acc, case_f1 = utility_columns(synth, label)
        rows.append(ReportRow(model=kind, dropout=dropout, perplexity=ppl,
                              privacy=privacy_report.aggregate, similarity=sim,
                              relatedness=rel, nli=nli_acc, case=case_f1))
        artifacts[label] = {"model": model_name, "synthetic": synth_name,
                            "privacy": privacy_name}
        log.info("cell %s done: ppl %.3f privacy %.4f", label, ppl, privacy_report.aggregate)

    report = ExperimentReport(rows=tuple(rows), stats=stats.as_dict(),
                              config=config.echo(), artifacts=artifacts)
    (outdir / "report.json").write_text(privacy_mod.json_text(report.as_dict()),
                                        encoding="utf-8")
    (outdir / "report.txt").write_text(report.render() + "\n", encoding="utf-8")
    return report
