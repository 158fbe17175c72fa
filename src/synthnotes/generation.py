"""Synthetic corpus generation by ancestral sampling from a language model.

The model emits one unbroken token stream; the end-of-note token closes the
current note and maps back to a blank line in the canonical corpus format.
Generation stops at the first note boundary at or after the target word
count, so the output word count lands in [target, target + max_note_length].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, EON_TOKEN, Note, split_sentences
from .lm import LanguageModel


@dataclass(frozen=True)
class GenerationConfig:
    target_word_count: int
    temperature: float = 1.0
    seed: int = 0
    max_note_length: int = 2000

    def __post_init__(self):
        if self.target_word_count < 1:
            raise ValueError("target_word_count must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if self.max_note_length < 1:
            raise ValueError("max_note_length must be >= 1")


def sample_from_distribution(dist: np.ndarray, temperature: float,
                             rng: np.random.Generator) -> int:
    """Draw a token id; temperature 0 is argmax with ties broken by lowest id."""
    if temperature == 0.0:
        return int(np.argmax(dist))
    if temperature != 1.0:
        logits = np.log(dist) / temperature
        logits -= logits.max()
        dist = np.exp(logits)
        dist /= dist.sum()
    cdf = np.cumsum(dist)
    return int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))


def generate_corpus(model: LanguageModel, config: GenerationConfig,
                    id_prefix: str = "gen") -> Corpus:
    """Sample a synthetic corpus; the model is consumed read-only."""
    if model.eon_id is None:
        raise ValueError(
            f"model vocabulary lacks the {EON_TOKEN!r} end-of-note token")
    rng = np.random.default_rng(config.seed)
    eon = model.eon_id
    notes: list[Note] = []
    current: list[str] = []
    words = 0

    def close_note():
        notes.append(Note(f"{id_prefix}-{len(notes):05d}",
                          tuple(split_sentences(current))))
        current.clear()

    state = model.start_state()
    prev = eon
    while True:
        dist, state = model.step(prev, state)
        tok = sample_from_distribution(dist, config.temperature, rng)
        if tok == eon:
            prev = eon
            if not current:
                continue  # never emit an empty note
            close_note()
            if words >= config.target_word_count:
                break
            continue
        current.append(model.tokens[tok])
        words += 1
        if len(current) >= config.max_note_length:
            # force-close degenerate notes; the stream resumes at a boundary
            prev = eon
            close_note()
            if words >= config.target_word_count:
                break
        else:
            prev = tok
    return Corpus(tuple(notes), role="train")
