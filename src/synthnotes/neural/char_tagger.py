"""Character-level recurrent tagger: one label distribution per input
character. Reuses the LSTM stack with an untied two-class head; its one
consumer is letter-case restoration (`utility.train_truecaser`), whose
config it reads."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import core

log = logging.getLogger(__name__)

N_CLASSES = 2
LAYERS = 1  # recurrent layers under the two-class head
GRAD_CLIP = 1.0  # global gradient-norm bound per training step


@dataclass(frozen=True)
class TruecaserConfig:
    hidden: int = 64
    emb_dim: int = 24
    epochs: int = 8
    lr: float = 2.0
    batch_size: int = 8
    seed: int = 0
    max_sentences: int | None = None  # seeded subsample cap for large corpora

    def __post_init__(self):
        if min(self.hidden, self.emb_dim, self.epochs, self.batch_size) < 1:
            raise ValueError("hidden, emb_dim, epochs and batch_size must be >= 1")
        if self.max_sentences is not None and self.max_sentences < 1:
            raise ValueError("max_sentences must be None or >= 1")


class CharTagger:
    def __init__(self, params: core.StackParams):
        self.params = params

    def label_distributions(self, ids: list[int]) -> np.ndarray:
        """Per-position label probabilities, shape (len(ids), N_CLASSES)."""
        if len(ids) == 0:
            return np.zeros((0, N_CLASSES))
        x = np.asarray(ids, dtype=np.int64).reshape(-1, 1)
        logits, _, _ = core.stack_forward(self.params, x, core.zero_state(self.params, 1))
        return core.softmax(logits[:, 0, :])

    def predict(self, ids: list[int]) -> np.ndarray:
        return self.label_distributions(ids).argmax(axis=1)


def train_char_classifier(sequences: list[list[int]], labels: list[list[int]],
                          n_symbols: int, config: TruecaserConfig) -> CharTagger:
    """Train a per-character tagger on aligned (sequence, label) pairs.

    Sequences are padded into batches with a loss mask; recurrent state
    resets at every sequence start, so position 0 marks a sequence start.
    """
    if len(sequences) != len(labels):
        raise ValueError("sequences and labels are not parallel")
    pairs = [(s, l) for s, l in zip(sequences, labels) if len(s)]
    for s, l in pairs:
        if len(s) != len(l):
            raise ValueError("sequence/label length mismatch")
    if not pairs:
        raise ValueError("no non-empty training sequences")

    rng = np.random.default_rng(config.seed)
    params = core.init_stack(rng, n_symbols, config.emb_dim, config.hidden,
                             LAYERS, out_dim=N_CLASSES, tied=False)
    lr = config.lr
    best = math.inf
    work: dict = {}  # the last step's arrays, see core.train_step
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(pairs))
        epoch_loss = 0.0
        epoch_chars = 0
        for lo in range(0, len(order), config.batch_size):
            batch = [pairs[i] for i in order[lo : lo + config.batch_size]]
            x, mask = core.pad_columns([b[0] for b in batch])
            y, _ = core.pad_columns([b[1] for b in batch])
            loss, _ = core.train_step(params, x, y, core.zero_state(params, x.shape[1]), lr,
                                      GRAD_CLIP, f"in the tagger at epoch {epoch}",
                                      work, mask=mask)
            n = int(mask.sum())
            epoch_loss += loss * n
            epoch_chars += n
        mean_loss = epoch_loss / epoch_chars
        if mean_loss < best:
            best = mean_loss
        else:
            lr /= 4.0
        log.info("tagger epoch %d: loss %.4f, lr %.3g", epoch, mean_loss, lr)
    return CharTagger(params)
