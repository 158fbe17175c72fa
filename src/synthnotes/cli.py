"""Command-line interface.

Subcommands: preprocess, stats, train-lm, perplexity, generate, privacy,
eval-sim, eval-nli, eval-case, template, experiment, report.

Exit codes: 0 success, 1 configuration/usage error, 2 stage failure.
SYNTHNOTES_OUTDIR overrides any output-directory argument.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__, corpus as corpus_mod, lm, modelio
from .embeddings import (
    SgnsConfig,
    evaluate_similarity,
    read_benchmark,
    read_embeddings,
    train_sgns,
    write_embeddings,
)
from .experiment import (
    ExperimentReport,
    ReportRow,
    make_trainer,
    read_experiment_config,
    run_experiment,
)
from .generation import GenerationConfig, generate_corpus
from .neural import LstmLmConfig
from .neural.language_model import LR_POLICIES
from .privacy import PrivacyConfig, analyze_report, json_text, s_pdtp_score
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

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_STAGE = 2


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems are configuration errors (exit 1), not crashes
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _outdir(path: str) -> Path:
    return Path(os.environ.get("SYNTHNOTES_OUTDIR", path))


# flag destination -> config field; each flag's default is the config's own
_LSTM_FLAGS = {"hidden": "hidden_size", "layers": "layers", "dropout": "dropout",
               "epochs": "epochs", "lr": "initial_lr", "lr_policy": "lr_decay_policy",
               "bptt": "bptt", "batch_size": "batch_size"}
_SGNS_FLAGS = {"dim": "dim", "window": "window", "negatives": "negatives",
               "iterations": "iterations", "train_min_count": "min_count"}
_NLI_SGNS_FLAGS = {"dim": "dim"}
_NLI_FLAGS = {"epochs": "epochs"}
# --seed sits among the truecaser flags in eval-case's --help
_CASE_FLAGS = {"hidden": "hidden", "epochs": "epochs", "seed": "seed",
               "max_sentences": "max_sentences"}


def _add_config_flags(p: argparse.ArgumentParser, flags: dict, config_class) -> None:
    defaults = config_class()
    for dest, name in flags.items():
        flag, default = "--" + dest.replace("_", "-"), getattr(defaults, name)
        if name == "lr_decay_policy":
            p.add_argument(flag, choices=LR_POLICIES, default=default)
        else:  # a None default (max_sentences) stands for an unset int
            p.add_argument(flag, type=int if default is None else type(default),
                           default=default)


def _flag_config(args, flags: dict, config_class):
    """The config the flags in `flags` describe, seeded with --seed."""
    return config_class(**{"seed": args.seed, **{name: getattr(args, dest)
                                                 for dest, name in flags.items()}})


def _trainer(args, vocab):
    """The --kind trainer; --valid and the LSTM flags are read only for lstm."""
    if args.kind != "lstm":
        return make_trainer(args.kind, vocab)
    if not args.valid:
        raise ConfigError("--valid is required for LSTM training")
    valid = corpus_mod.read_corpus(args.valid, "valid")
    return make_trainer("lstm", vocab, valid, _flag_config(args, _LSTM_FLAGS, LstmLmConfig))


def cmd_template(args) -> int:
    outdir = _outdir(args.outdir)
    bundle = write_template_bundle(args.seed, args.notes, outdir)
    for name, path in vars(bundle).items():
        print(f"{name}: {path}")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    full = corpus_mod.read_raw_corpus(args.input)
    fractions = tuple(float(tok) for tok in args.fractions.split(","))
    train, valid, test = corpus_mod.split_corpus(full, fractions, args.seed)
    outdir = _outdir(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    vocab = corpus_mod.build_vocabulary(train, args.min_count)
    for split in (train, valid, test):
        unked = corpus_mod.apply_unk(split, vocab)
        corpus_mod.write_corpus(unked, outdir / f"{split.role}.txt")
    corpus_mod.write_vocab(vocab, outdir / "vocab.tsv")
    # the test split before unk keeps every cased token for eval-case --test-cased
    corpus_mod.write_corpus(test, outdir / "test.cased.txt")
    print(f"wrote train/valid/test splits and vocab ({len(vocab)} entries) to {outdir}")
    return EXIT_OK


def cmd_stats(args) -> int:
    train = corpus_mod.read_corpus(args.train, "train")
    valid = corpus_mod.read_corpus(args.valid, "valid")
    test = corpus_mod.read_corpus(args.test, "test")
    vocab = corpus_mod.read_vocab(args.vocab)
    print(corpus_mod.compute_stats(train, valid, test, vocab).render())
    return EXIT_OK


def cmd_train_lm(args) -> int:
    train = corpus_mod.read_corpus(args.train, "train")
    vocab = corpus_mod.read_vocab(args.vocab)
    model = _trainer(args, vocab)(train)
    modelio.save_model(model, args.out)
    print(f"saved {args.kind} model to {args.out}")
    return EXIT_OK


def cmd_perplexity(args) -> int:
    model = modelio.load_model(args.model)
    corpus = corpus_mod.read_corpus(args.corpus)
    print(f"{lm.perplexity(model, corpus):.6f}")
    return EXIT_OK


def cmd_generate(args) -> int:
    model = modelio.load_model(args.model)
    config = GenerationConfig(target_word_count=args.target_words,
                              temperature=args.temperature, seed=args.seed,
                              max_note_length=args.max_note_len)
    synth = generate_corpus(model, config)
    corpus_mod.write_corpus(synth, args.out)
    print(f"generated {len(synth)} notes, {synth.word_count} words -> {args.out}")
    return EXIT_OK


def cmd_privacy(args) -> int:
    train = corpus_mod.read_corpus(args.train, "train")
    vocab = corpus_mod.read_vocab(args.vocab)
    config = PrivacyConfig(trainer=_trainer(args, vocab), sample_size=args.sample_size,
                           seed=args.seed, jobs=args.jobs, trainer_label=args.kind)
    report = s_pdtp_score(train, config)
    print(report.render())
    if args.analyze:
        print(analyze_report(report).render())
    if args.out:
        Path(args.out).write_text(json_text(report.as_dict()), encoding="utf-8")
        print(f"report written to {args.out}")
    return EXIT_OK


def cmd_eval_sim(args) -> int:
    corpus = corpus_mod.read_corpus(args.corpus, "train")
    config = _flag_config(args, _SGNS_FLAGS, SgnsConfig)
    if args.embeddings and Path(args.embeddings).exists() and not args.retrain:
        emb = read_embeddings(args.embeddings)
    else:
        emb = train_sgns(corpus, config)
        if args.embeddings:
            write_embeddings(emb, args.embeddings)
    bench = read_benchmark(args.benchmark)
    rho, used = evaluate_similarity(emb, bench, args.min_count, corpus.token_counts())
    print(f"spearman {rho:.4f} over {used} pairs")
    return EXIT_OK


def cmd_eval_nli(args) -> int:
    if args.embeddings:
        emb = read_embeddings(args.embeddings)
    else:
        if not args.corpus:
            raise ConfigError("--embeddings or --corpus is required")
        corpus = corpus_mod.read_corpus(args.corpus, "train")
        emb = train_sgns(corpus, _flag_config(args, _NLI_SGNS_FLAGS, SgnsConfig))
    train_data = read_nli_jsonl(args.train)
    test_data = read_nli_jsonl(args.test)
    clf = train_nli_bow(train_data, emb, _flag_config(args, _NLI_FLAGS, NliConfig))
    print(f"accuracy {evaluate_nli(clf, test_data):.4f}")
    return EXIT_OK


def cmd_eval_case(args) -> int:
    train = corpus_mod.read_corpus(args.train, "train")
    pairs = make_case_pairs(corpus_mod.read_corpus(args.test_cased, "test"))
    caser = train_truecaser(train, _flag_config(args, _CASE_FLAGS, TruecaserConfig))
    print(f"case F1 {evaluate_truecase(caser, pairs):.4f}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    config = read_experiment_config(args.config)
    if args.jobs is not None:
        config = dataclasses.replace(config, jobs=args.jobs)
    config = dataclasses.replace(config, output_dir=str(_outdir(config.output_dir)))
    report = run_experiment(config)
    print(report.render())
    print(f"report written to {Path(config.output_dir) / 'report.json'}")
    return EXIT_OK


def cmd_report(args) -> int:
    data = json.loads(Path(args.report).read_text(encoding="utf-8"))
    if not (isinstance(data, dict) and {"rows", "stats", "config"} <= data.keys()
            and isinstance(data["rows"], list)):
        raise ValueError(f"{args.report}: not an object with rows, stats and config")
    fields = {f.name for f in dataclasses.fields(ReportRow)}
    if not all(isinstance(row, dict) and row.keys() == fields for row in data["rows"]):
        raise ValueError(f"{args.report}: a row's keys are not {', '.join(sorted(fields))}")
    rows = tuple(ReportRow(**row) for row in data["rows"])
    report = ExperimentReport(rows=rows, stats=data["stats"], config=data["config"],
                              artifacts=data.get("artifacts", {}))
    print(report.render())
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="synthnotes", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"synthnotes {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("template", help="write a seeded template corpus bundle")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--notes", type=int, default=1000)
    p.add_argument("--outdir", default="template-out")
    p.set_defaults(fn=cmd_template)

    p = sub.add_parser("preprocess", help="normalize, split and unk-replace a raw corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--outdir", default="corpus-out")
    p.add_argument("--fractions", default="0.8,0.1,0.1")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--min-count", type=int, default=3)
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("stats", help="dataset statistics table")
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--vocab", required=True)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("train-lm", help="train a language model")
    p.add_argument("--kind", choices=("unigram", "bigram", "lstm"), required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--valid")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_config_flags(p, _LSTM_FLAGS, LstmLmConfig)
    p.set_defaults(fn=cmd_train_lm)

    p = sub.add_parser("perplexity", help="perplexity of a model on a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.set_defaults(fn=cmd_perplexity)

    p = sub.add_parser("generate", help="sample a synthetic corpus from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--target-words", type=int, required=True)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-note-len", type=int, default=2000)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("privacy", help="leave-one-out privacy score of a trainer")
    p.add_argument("--kind", choices=("unigram", "bigram", "lstm"), required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--valid")
    p.add_argument("--vocab", required=True)
    p.add_argument("--sample-size", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--analyze", action="store_true", help="print the argmax-token analysis")
    p.add_argument("--out")
    _add_config_flags(p, _LSTM_FLAGS, LstmLmConfig)
    p.set_defaults(fn=cmd_privacy)

    p = sub.add_parser("eval-sim", help="train embeddings and score a word-pair benchmark")
    p.add_argument("--corpus", required=True)
    p.add_argument("--benchmark", required=True)
    p.add_argument("--min-count", type=int, default=20, help="pair filter on corpus counts")
    _add_config_flags(p, _SGNS_FLAGS, SgnsConfig)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--embeddings", help="embedding file to reuse or write")
    p.add_argument("--retrain", action="store_true")
    p.set_defaults(fn=cmd_eval_sim)

    p = sub.add_parser("eval-nli", help="train the frozen-embedding NLI classifier")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--embeddings")
    p.add_argument("--corpus")
    _add_config_flags(p, _NLI_SGNS_FLAGS, SgnsConfig)
    _add_config_flags(p, _NLI_FLAGS, NliConfig)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_eval_nli)

    p = sub.add_parser("eval-case", help="train a truecaser and score case restoration")
    p.add_argument("--train", required=True)
    p.add_argument("--test-cased", required=True)
    _add_config_flags(p, _CASE_FLAGS, TruecaserConfig)
    p.set_defaults(fn=cmd_eval_case)

    p = sub.add_parser("experiment", help="run the full grid experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("report", help="render a saved experiment report")
    p.add_argument("--report", required=True)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                            format="%(levelname)s %(name)s: %(message)s")
        return args.fn(args)
    except (FileNotFoundError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:  # StageError and DivergenceError among them
        print(f"stage failure: {exc}", file=sys.stderr)
        return EXIT_STAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
