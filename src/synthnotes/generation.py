"""Synthetic corpus generation by ancestral sampling from a language model.

STREAMS samplers run in lockstep. In each, the end-of-note token closes the
note (a blank line in the corpus format) and starts a fresh context. Notes
are emitted in (step, stream) order until the word count reaches the target,
landing in [target, target + max_note_length]; notes still open are dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, EON_TOKEN, Note, split_sentences
from .lm import LanguageModel

# the stop drops up to STREAMS - 1 open notes, long ones more often; in benchmark
# `synth`, run_s at 32 streams was within 12% of 16, and 64 streams were slower
STREAMS = 16


@dataclass(frozen=True)
class GenerationConfig:
    target_word_count: int
    temperature: float = 1.0
    seed: int = 0
    max_note_length: int = 2000

    def __post_init__(self):
        if self.target_word_count < 1:
            raise ValueError("target_word_count must be >= 1")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if self.max_note_length < 1:
            raise ValueError("max_note_length must be >= 1")


def sample_from_distribution(dists: np.ndarray, temperature: float,
                             rng: np.random.Generator) -> np.ndarray:
    """Draw one token id per row of dists (n, V) by inverse CDF; temperature
    0 is a row-wise argmax with ties broken by lowest id."""
    if temperature == 0.0:
        return np.argmax(dists, axis=1)
    if temperature != 1.0:
        logits = np.log(dists) / temperature
        logits -= logits.max(axis=1, keepdims=True)
        dists = np.exp(logits)
        dists /= dists.sum(axis=1, keepdims=True)
    cdf = np.cumsum(dists, axis=1)
    u = rng.random(len(cdf)) * cdf[:, -1]
    return (cdf <= u[:, None]).sum(axis=1)  # searchsorted(side="right") per row


def generate_corpus(model: LanguageModel, config: GenerationConfig) -> Corpus:
    """Sample a synthetic corpus; the model is consumed read-only."""
    if model.eon_id is None:
        raise ValueError(
            f"model vocabulary lacks the {EON_TOKEN!r} end-of-note token")
    rng = np.random.default_rng(config.seed)
    eon = model.eon_id
    notes: list[Note] = []
    open_notes: list[list[str]] = [[] for _ in range(STREAMS)]
    words = 0
    state = model.start_state(STREAMS)
    prev = np.full(STREAMS, eon)
    while True:
        dists, state = model.step(prev, state)
        prev = sample_from_distribution(dists, config.temperature, rng)
        for stream, tok in enumerate(prev.tolist()):
            current = open_notes[stream]
            if tok != eon:
                current.append(model.tokens[tok])
                if len(current) < config.max_note_length:
                    continue
                prev[stream] = eon  # force-close a degenerate note at a boundary
            elif not current:
                continue  # never emit an empty note
            notes.append(Note(f"gen-{len(notes):05d}", tuple(split_sentences(current))))
            words += len(current)
            if words >= config.target_word_count:
                return Corpus(tuple(notes), role="train")
            open_notes[stream] = []
