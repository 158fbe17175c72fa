"""The four workloads of the synthnotes benchmark.

A workload has three parts:

- ``setup(seed, workdir)`` builds its inputs from the seed: the desk-scale
  template bundle (1000 notes, so the vocabulary is the desk one, about
  493 tokens at min_count 3), the program's own preprocessing, and the
  fixed-size slices and configs the operation uses. It is timed as
  ``setup_s``.
- ``call(state)`` is the operation the benchmark times and repeats. It
  makes only program calls, resolved through the program's modules at call
  time so that the traced run's wrappers see them.
- ``check(state, raw)`` turns the operation's output into an
  :class:`Outcome`: deterministic output values, exact work counts,
  throughputs and the correctness checks. It is not timed.

Slices keep one operation at seconds, not minutes: the desk run's stages
take minutes each at full size and the benchmark repeats each operation
within one run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from synthnotes import (corpus, embeddings, experiment, generation, lm, modelio, privacy,
                        template, utility)
from synthnotes.neural import language_model

DESK_NOTES = 1000
SPLIT = (0.8, 0.1, 0.1)
MIN_COUNT = 3

# Each desk-shape workload is a slice of the desk run (the DESK_CONFIG of
# acceptance criterion 5: 800 train notes, 100 valid, 100 test). A slice
# keeps the desk's per-note settings and the desk's ratios between the
# parts of a stage, so each layer keeps its desk share of the stage.

# audit: the full model plus K leave-one-out retrains, as the desk's
# train-lm and privacy stages (K=5); validated every epoch on valid notes
# in the desk's 1:8 valid:train ratio. Epochs are cut from 20 to 1: each
# epoch is the same work, and shorter operations give more samples a run.
AUDIT_NOTES = 40
AUDIT_VALID = AUDIT_NOTES // 8
AUDIT_FOLDS = 5
AUDIT_EPOCHS = 1

# synth: a desk LSTM cell generates as many words as the train split has
# (about 8 per valid token) and scores the valid split; the desk grid has
# two LSTM cells to one unigram cell, so the unigram samples half as many.
SYNTH_NOTES = 60
SYNTH_VALID = 10  # about 1000 tokens
SYNTH_EPOCHS = 2
GEN_WORDS = 8000
GEN_UNIGRAM_WORDS = GEN_WORDS // 2
GEN_MAX_NOTE = 400

# utility: one fifth of the desk's real-corpus row. SGNS keeps the desk's
# 3 iterations over a fifth of the train notes; the truecaser keeps 8
# epochs over a fifth of the desk's 2500-sentence cap and is scored on a
# fifth of the test notes; NLI keeps its data and a fifth of its 30 epochs;
# the similarity min_count is a fifth of the desk's 20. At a tenth the
# truecaser restored no capital on some seeds (F1 0), failing the F1 floor.
UTIL_FRACTION = 0.2
UTIL_NOTES = round(800 * UTIL_FRACTION)
CASE_TEST_NOTES = round(100 * UTIL_FRACTION)
SGNS_ITERATIONS = 3
CASE_EPOCHS = 8
CASE_SENTENCES = round(2500 * UTIL_FRACTION)
NLI_EPOCHS = round(30 * UTIL_FRACTION)
EVAL_MIN_COUNT = round(20 * UTIL_FRACTION)

PAPER_NOTES = 7  # about 700 tokens: one 35-step chunk at batch 20
PAPER_VALID = 2

# quality floors: a model left at its initial, near-uniform output has a
# perplexity near the vocabulary size, random embeddings a rho near 0
# (about 0.15 wide over some 40 pairs), a constant NLI guess an accuracy of
# 1/3 and a truecaser that restores no capital an F1 of 0; over 30 to 40
# random seeds the benchmark's models sit at 0.2 V to 0.55 V, rho 0.86,
# accuracy 0.68 to 0.84 and F1 0.17 to 0.51
PPL_FLOOR_OF_VOCAB = 0.75
RHO_FLOOR = 0.5
NLI_FLOOR = 0.5


def stage_seed(seed: int, stage: str) -> int:
    """Per-stage seed: the stage name hashed into the workload seed."""
    digest = hashlib.sha256(f"{seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def prepare(seed: int, workdir: Path) -> SimpleNamespace:
    """Desk template bundle plus preprocessing, as the experiment's data stage."""
    bundle = template.write_template_bundle(stage_seed(seed, "template"), DESK_NOTES,
                                            workdir / "bundle")
    full = corpus.read_raw_corpus(bundle.raw_corpus)
    train, valid, test = corpus.split_corpus(full, SPLIT, stage_seed(seed, "split"))
    vocab = corpus.build_vocabulary(train, MIN_COUNT)
    return SimpleNamespace(bundle=bundle, vocab=vocab,
                           train=corpus.apply_unk(train, vocab),
                           valid=corpus.apply_unk(valid, vocab),
                           test=corpus.apply_unk(test, vocab))


def head(c: corpus.Corpus, n: int) -> corpus.Corpus:
    return corpus.Corpus(c.notes[:n], c.role)


def desk_lstm(seed: int, dropout: float, epochs: int) -> language_model.LstmLmConfig:
    """The experiment's desk-shape LSTM (DESK_CONFIG of acceptance criterion 5)."""
    return language_model.LstmLmConfig(
        hidden_size=48, layers=2, dropout=dropout, initial_lr=6.0,
        lr_decay_policy="medtext2", epochs=epochs, bptt=35, batch_size=20,
        dtype="float32", seed=seed)


def lm_work(model, corpora, config) -> tuple[int, int]:
    """Exact (tokens trained, BPTT chunks) of training `config` on each corpus."""
    tokens = chunks = 0
    for c in corpora:
        rows = language_model.batchify(model.corpus_stream(c), config.batch_size).shape[0]
        tokens += (rows - 1) * config.batch_size * config.epochs
        chunks += math.ceil((rows - 1) / config.bptt) * config.epochs
    return tokens, chunks


@dataclass
class Outcome:
    """One operation's result, as the benchmark reports and checks it."""

    values: dict  # deterministic outputs; identical on every repeat of a seed
    counts: dict  # exact work counts
    metrics: dict  # the workload's own metrics: throughputs of its phases, quality
    failures: list = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        if not ok:
            self.failures.append(name)

    def digest(self) -> str:
        blob = json.dumps({"values": self.values, "counts": self.counts}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def _finite(x) -> bool:
    return isinstance(x, float) and math.isfinite(x)


def check_perplexity(out: Outcome, model, ppl) -> None:
    out.check(f"valid perplexity finite and below {PPL_FLOOR_OF_VOCAB} x vocabulary size",
              _finite(ppl) and 1.0 < ppl < PPL_FLOOR_OF_VOCAB * len(model.tokens))


# ---- audit ----------------------------------------------------------------

def setup_audit(seed: int, workdir: Path) -> SimpleNamespace:
    data = prepare(seed, workdir)
    valid = head(data.valid, AUDIT_VALID)
    trainer = experiment.LstmTrainer(
        data.vocab, valid, desk_lstm(stage_seed(seed, "audit-train"), 0.5, AUDIT_EPOCHS))
    return SimpleNamespace(
        corpus=head(data.train, AUDIT_NOTES), valid=valid, trainer=trainer,
        config=privacy.PrivacyConfig(trainer=trainer, sample_size=AUDIT_FOLDS,
                                     seed=stage_seed(seed, "audit-sample")))


def call_audit(s) -> dict:
    t0 = perf_counter()
    model = s.trainer(s.corpus)
    report = privacy.s_pdtp_score(s.corpus, s.config, model)
    t1 = perf_counter()
    return {"model": model, "report": report, "ppl": lm.perplexity(model, s.valid),
            "audit_s": t1 - t0}


def check_audit(s, raw: dict) -> Outcome:
    report = raw["report"]
    records = report.records
    folds = [s.corpus.without_note(r.note_id) for r in records]
    tokens, chunks = lm_work(raw["model"], [s.corpus] + folds, s.trainer.config)
    out = Outcome(
        values={"valid_ppl": raw["ppl"], "aggregate": report.aggregate,
                "s_pdtp": [r.s_pdtp for r in records]},
        counts={"lm_tokens_trained": tokens, "bptt_chunks": chunks, "folds": len(records),
                "notes": len(s.corpus)},
        metrics={"lm_train_tok_per_s": tokens / raw["audit_s"], "valid_ppl": raw["ppl"]})
    out.check("fold count equals K",
              len({r.note_id for r in records}) == len(records) == AUDIT_FOLDS)
    for r in records:
        out.check(f"s_pdtp of {r.note_id} finite and >= 0", _finite(r.s_pdtp) and r.s_pdtp >= 0)
        out.check(f"s_pdtp of {r.note_id} equals |full - loo|",
                  math.isclose(r.s_pdtp, abs(r.full_log_prob - r.loo_log_prob),
                               rel_tol=1e-12, abs_tol=1e-15))
    check_perplexity(out, raw["model"], raw["ppl"])
    return out


# ---- synth ----------------------------------------------------------------

def setup_synth(seed: int, workdir: Path) -> SimpleNamespace:
    data = prepare(seed, workdir)
    train = head(data.train, SYNTH_NOTES)
    valid = head(data.valid, SYNTH_VALID)
    lstm = language_model.train_lstm_lm(
        train, valid, data.vocab, desk_lstm(stage_seed(seed, "synth-train"), 0.0, SYNTH_EPOCHS))
    valid_ids = [lstm.encode_note(n) for n in valid]
    # the in-memory model's per-note log-probs, in padded batches, for the
    # reload check
    _, _, lp_memory = language_model.batched_note_nll(lstm.params, valid_ids, lstm.eon_id)
    generate = {"lstm": GEN_WORDS, "unigram": GEN_UNIGRAM_WORDS}
    return SimpleNamespace(
        lstm=lstm, unigram=lm.train_unigram(train, data.vocab), valid=valid,
        valid_ids=valid_ids, lp_memory=lp_memory, generate=generate,
        gen={kind: generation.GenerationConfig(
            target_word_count=words, seed=stage_seed(seed, f"synth-generate-{kind}"),
            max_note_length=GEN_MAX_NOTE) for kind, words in generate.items()},
        model_path=workdir / "lstm.ptlm")


def call_synth(s) -> dict:
    t0 = perf_counter()
    gen_lstm = generation.generate_corpus(s.lstm, s.gen["lstm"])
    t1 = perf_counter()
    gen_unigram = generation.generate_corpus(s.unigram, s.gen["unigram"])
    blob = modelio.model_bytes(s.lstm)
    s.model_path.write_bytes(blob)
    reloaded = modelio.load_model(s.model_path)
    t2 = perf_counter()
    ppl = lm.perplexity(reloaded, s.valid)
    t3 = perf_counter()
    return {"gen": {"lstm": gen_lstm, "unigram": gen_unigram}, "bytes": len(blob),
            "reloaded": reloaded, "ppl": ppl, "gen_lstm_s": t1 - t0, "score_s": t3 - t2}


def check_synth(s, raw: dict) -> Outcome:
    gens = raw["gen"]
    scored = sum(len(ids) for ids in s.valid_ids)
    out = Outcome(
        values={"valid_ppl": raw["ppl"],
                "generated_sha256": {k: hashlib.sha256(
                    "\n\n".join(corpus.note_text(n) for n in g.notes).encode()).hexdigest()
                    for k, g in gens.items()}},
        counts={"tokens_generated": {k: g.word_count for k, g in gens.items()},
                "notes_generated": {k: len(g) for k, g in gens.items()},
                "tokens_scored": scored, "model_bytes": raw["bytes"]},
        metrics={"gen_tok_per_s": gens["lstm"].word_count / raw["gen_lstm_s"],
                 "score_tok_per_s": scored / raw["score_s"], "valid_ppl": raw["ppl"]})
    for kind, g in gens.items():
        target = s.generate[kind]
        out.check(f"{kind} word count in [target, target + max_note_length]",
                  target <= g.word_count <= target + GEN_MAX_NOTE)
        out.check(f"{kind} notes non-empty", all(n.word_count > 0 for n in g.notes))
    # the artifact stores float64; the in-memory model computes in its own dtype
    tol = 1e3 * np.finfo(s.lstm.config.np_dtype).eps
    worst = max(float(np.max(np.abs(raw["reloaded"].sequence_log_probs(ids) - lp)))
                for ids, lp in zip(s.valid_ids, s.lp_memory))
    out.check("reloaded log-probs match in-memory ones", worst <= tol)
    check_perplexity(out, s.lstm, raw["ppl"])
    return out


# ---- utility --------------------------------------------------------------

def setup_utility(seed: int, workdir: Path) -> SimpleNamespace:
    data = prepare(seed, workdir)
    source = head(data.train, UTIL_NOTES)
    case_pairs = utility.make_case_pairs(head(data.test, CASE_TEST_NOTES))
    return SimpleNamespace(
        source=source, counts=source.token_counts(),
        sgns=embeddings.SgnsConfig(dim=100, window=5, negatives=10, iterations=SGNS_ITERATIONS,
                                   min_count=5, seed=stage_seed(seed, "embeddings")),
        bench_sim=embeddings.read_benchmark(data.bundle.benchmark_sim, "similarity"),
        bench_rel=embeddings.read_benchmark(data.bundle.benchmark_rel, "relatedness"),
        nli_train=utility.read_nli_jsonl(data.bundle.nli_train),
        nli_test=utility.read_nli_jsonl(data.bundle.nli_test),
        nli=utility.NliConfig(hidden=128, lr=0.05, epochs=NLI_EPOCHS,
                              seed=stage_seed(seed, "nli")),
        case=utility.TruecaserConfig(hidden=48, emb_dim=16, epochs=CASE_EPOCHS, lr=2.0,
                                     batch_size=8, max_sentences=CASE_SENTENCES,
                                     seed=stage_seed(seed, "truecase")),
        case_pairs=case_pairs,
        case_chars=sum(len(" ".join(p.lowered)) for p in case_pairs))


def call_utility(s) -> dict:
    emb = embeddings.train_sgns(s.source, s.sgns)
    sim, n_sim = embeddings.evaluate_similarity(emb, s.bench_sim, EVAL_MIN_COUNT, s.counts)
    rel, n_rel = embeddings.evaluate_similarity(emb, s.bench_rel, EVAL_MIN_COUNT, s.counts)
    clf = utility.train_nli_bow(s.nli_train, emb, s.nli)
    acc = utility.evaluate_nli(clf, s.nli_test)
    caser = utility.train_truecaser(s.source, s.case)
    t0 = perf_counter()
    f1 = utility.evaluate_truecase(caser, s.case_pairs)
    t1 = perf_counter()
    return {"sim": sim, "rel": rel, "n_sim": n_sim, "n_rel": n_rel, "nli": acc, "case": f1,
            "case_eval_s": t1 - t0}


def check_utility(s, raw: dict) -> Outcome:
    values = {"sim_rho": raw["sim"], "rel_rho": raw["rel"], "nli_acc": raw["nli"],
              "case_f1": raw["case"]}
    out = Outcome(
        values=values,
        counts={"source_tokens": s.source.word_count, "sim_pairs": raw["n_sim"],
                "rel_pairs": raw["n_rel"], "case_chars_evaluated": s.case_chars},
        metrics={**values, "case_eval_chars_per_s": s.case_chars / raw["case_eval_s"]})
    for name in ("sim_rho", "rel_rho"):
        out.check(f"{name} in ({RHO_FLOOR}, 1]",
                  _finite(values[name]) and RHO_FLOOR < values[name] <= 1.0)
    out.check(f"nli_acc in ({NLI_FLOOR}, 1]",
              _finite(values["nli_acc"]) and NLI_FLOOR < values["nli_acc"] <= 1.0)
    out.check("case_f1 in (0, 1]", _finite(values["case_f1"]) and 0.0 < values["case_f1"] <= 1.0)
    return out


# ---- paper-shape ----------------------------------------------------------

def setup_paper(seed: int, workdir: Path) -> SimpleNamespace:
    data = prepare(seed, workdir)
    return SimpleNamespace(
        train=head(data.train, PAPER_NOTES), valid=head(data.valid, PAPER_VALID),
        vocab=data.vocab,
        config=language_model.LstmLmConfig(
            hidden_size=650, layers=2, dropout=0.5, initial_lr=20.0, epochs=1, bptt=35,
            batch_size=20, tied_embeddings=True, dtype="float64",
            seed=stage_seed(seed, "paper-train")))


def call_paper(s) -> dict:
    t0 = perf_counter()
    model = language_model.train_lstm_lm(s.train, s.valid, s.vocab, s.config)
    t1 = perf_counter()
    return {"model": model, "ppl": lm.perplexity(model, s.valid), "train_s": t1 - t0}


def check_paper(s, raw: dict) -> Outcome:
    tokens, chunks = lm_work(raw["model"], [s.train], s.config)
    ppl = raw["ppl"]
    out = Outcome(values={"valid_ppl": ppl},
                  counts={"lm_tokens_trained": tokens, "bptt_chunks": chunks},
                  metrics={"lm_train_tok_per_s": tokens / raw["train_s"], "valid_ppl": ppl})
    check_perplexity(out, raw["model"], ppl)
    out.check("one epoch of history", len(raw["model"].history) == 1)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    call: object
    check: object
    # parts of run.ReferenceKernel the operation's time is rescaled by,
    # weighted by the kinds of code it runs (shares from the traced run)
    reference: dict
    # the same for the set-up: the preprocessing is pure Python
    setup_reference: dict = field(default_factory=lambda: {"python": 1.0})


WORKLOADS = {w.name: w for w in (
    # per-timestep LSTM training: tiny products and elementwise calls, bound
    # by the interpreter's call overhead
    Workload("audit", setup_audit, call_audit, check_audit, {"small": 0.7, "python": 0.3}),
    # the same in batch-1 steps and sampling; set-up also trains the LSTM
    # it samples from, about half its time
    Workload("synth", setup_synth, call_synth, check_synth, {"small": 0.7, "python": 0.3},
             {"python": 0.5, "small": 0.5}),
    # SGNS scatter-adds, then the tiny-shape tagger
    Workload("utility", setup_utility, call_utility, check_utility,
             {"scatter": 0.6, "small": 0.4}),
    # GEMM-bound
    Workload("paper-shape", setup_paper, call_paper, check_paper, {"gemm_f64_650": 1.0}),
)}
