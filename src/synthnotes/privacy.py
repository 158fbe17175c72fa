"""Leave-one-out privacy auditing of note-generation models.

The sequential score of a note is the largest absolute difference in
conditional next-token log-probability between the model trained on the
full corpus and the model retrained without that note, taken over the
note's positions with the context restricted to the note itself. The
corpus-level score is the sample mean over a seeded sample of notes; a
higher score means a higher expected leakage risk.
"""

from __future__ import annotations

import collections
import concurrent.futures
import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import __version__
from .corpus import Corpus, Note
from .lm import LanguageModel

CONTEXT_WINDOW = 5  # tokens of left context kept in per-note records


@dataclass(frozen=True)
class PrivacyConfig:
    trainer: Callable[[Corpus], LanguageModel]
    sample_size: int = 30
    seed: int = 0
    jobs: int = 1
    trainer_label: str = ""

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    def echo(self) -> dict:
        return {
            "sample_size": self.sample_size,
            "seed": self.seed,
            "trainer": self.trainer_label or getattr(self.trainer, "__name__", "trainer"),
        }


@dataclass(frozen=True)
class NotePrivacyRecord:
    note_id: str
    s_pdtp: float
    position: int  # argmax token index within the note, 0-based
    sign: str  # "positive" when the full model scores higher at the argmax
    token: str
    context: tuple[str, ...]
    full_log_prob: float
    loo_log_prob: float


@dataclass(frozen=True)
class PrivacyReport:
    records: tuple[NotePrivacyRecord, ...]
    aggregate: float
    sign_positive_fraction: float | None
    config: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"tool_version": __version__, "config_hash": _config_hash(self.config),
                **asdict(self)}

    def render(self) -> str:
        lines = [
            f"{'note':<12s} {'s_pdtp':>10s} {'pos':>5s} {'sign':>8s}  token (context)",
        ]
        for r in sorted(self.records, key=lambda r: -r.s_pdtp):
            ctx = " ".join(r.context)
            lines.append(
                f"{r.note_id:<12s} {r.s_pdtp:>10.5f} {r.position:>5d} {r.sign:>8s}  "
                f"{r.token} ({ctx})")
        frac = "n/a" if self.sign_positive_fraction is None else f"{self.sign_positive_fraction:.3f}"
        lines.append(f"aggregate s_pdtp: {self.aggregate:.5f}   sign-positive fraction: {frac}")
        return "\n".join(lines)


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _sign_tally(records) -> tuple[collections.Counter, float | None]:
    """Count the records' signs; the positive fraction excludes ties."""
    signs = collections.Counter(r.sign for r in records)
    decided = signs["positive"] + signs["negative"]
    return signs, (signs["positive"] / decided if decided else None)


def s_pdtp_note(lp_full: np.ndarray, lp_loo: np.ndarray, note: Note) -> NotePrivacyRecord:
    """One note's record from its per-position log-probs under the full and
    the leave-one-out model; the context at each position is the note's own
    prefix."""
    diff = lp_full - lp_loo
    j = int(np.argmax(np.abs(diff)))
    sign = "positive" if diff[j] > 0 else "negative" if diff[j] < 0 else "tie"
    tokens = note.tokens
    return NotePrivacyRecord(
        note_id=note.id,
        s_pdtp=float(abs(diff[j])),
        position=j,
        sign=sign,
        token=tokens[j],
        context=tuple(tokens[max(0, j - CONTEXT_WINDOW) : j]),
        full_log_prob=float(lp_full[j]),
        loo_log_prob=float(lp_loo[j]),
    )


def _loo_record(trainer, corpus: Corpus, note: Note, tokens, lp_full) -> NotePrivacyRecord:
    """One fold: train without `note`, score it, compare with `lp_full`."""
    try:
        model_loo = trainer(corpus.without_note(note.id))
    except Exception as exc:
        raise RuntimeError(f"trainer failed on leave-one-out fold for note {note.id!r}") from exc
    if model_loo.tokens != tokens:
        raise ValueError("full and leave-one-out models must share the same vocabulary")
    return s_pdtp_note(lp_full, model_loo.sequence_log_probs(model_loo.encode_note(note)), note)


def s_pdtp_score(corpus: Corpus, config: PrivacyConfig,
                 model_full: LanguageModel | None = None) -> PrivacyReport:
    """Sample notes, score them under the full model in one call, retrain one
    leave-one-out model per note, and aggregate into the expected-risk estimate.

    `model_full` short-circuits the full-corpus training when the caller
    already holds the (deterministic) trainer's output for this corpus.
    """
    if len(corpus) < 2:
        raise ValueError("need at least two notes to leave one out")
    if not 1 <= config.sample_size <= len(corpus):
        raise ValueError(
            f"sample_size must be in [1, {len(corpus)}], got {config.sample_size}")
    rng = np.random.default_rng(config.seed)
    picked = sorted(rng.choice(len(corpus), size=config.sample_size, replace=False))
    notes = [corpus.notes[i] for i in picked]

    if model_full is None:
        try:
            model_full = config.trainer(corpus)
        except Exception as exc:
            raise RuntimeError("trainer failed on the full corpus") from exc
    lp_full = model_full.notes_log_probs([model_full.encode_note(n) for n in notes])

    # a fold carries its note's full-model log-probs, so the pool pickles no model
    folds = [(config.trainer, corpus, note, model_full.tokens, lp)
             for note, lp in zip(notes, lp_full)]
    if config.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.jobs) as pool:
            records = list(pool.map(_loo_record, *zip(*folds)))
    else:
        records = [_loo_record(*fold) for fold in folds]

    return PrivacyReport(
        records=tuple(records),
        aggregate=float(np.mean([r.s_pdtp for r in records])),
        sign_positive_fraction=_sign_tally(records)[1],
        config=config.echo(),
    )


@dataclass(frozen=True)
class PrivacyAnalysis:
    """Diagnostic view: which tokens produce the maximal differences."""

    sign_positive_fraction: float | None
    positives: int
    negatives: int
    ties: int
    entries: tuple[NotePrivacyRecord, ...]  # sorted by s_pdtp, descending

    def render(self) -> str:
        frac = "n/a" if self.sign_positive_fraction is None else f"{self.sign_positive_fraction:.3f}"
        lines = [
            f"sign-positive fraction: {frac} "
            f"({self.positives} positive, {self.negatives} negative, {self.ties} ties)",
            f"{'s_pdtp':>10s} {'sign':>8s}  argmax token (left context)",
        ]
        for r in self.entries:
            lines.append(f"{r.s_pdtp:>10.5f} {r.sign:>8s}  {r.token!r} ({' '.join(r.context)})")
        return "\n".join(lines)


def analyze_report(report: PrivacyReport) -> PrivacyAnalysis:
    if not report.records:
        raise ValueError("cannot analyze an empty privacy report")
    signs, fraction = _sign_tally(report.records)
    return PrivacyAnalysis(
        sign_positive_fraction=fraction,
        positives=signs["positive"],
        negatives=signs["negative"],
        ties=signs["tie"],
        entries=tuple(sorted(report.records, key=lambda r: (-r.s_pdtp, r.note_id))),
    )


def json_text(obj) -> str:
    """The JSON format of every report artifact."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
