"""Character-level recurrent tagger: one label distribution per input
character. Reuses the LSTM stack with an untied classification head; the
letter-case restoration task is its main consumer."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import core
from .language_model import check_divergence

log = logging.getLogger(__name__)


@dataclass
class CharTaggerConfig:
    hidden: int = 64
    emb_dim: int = 24
    layers: int = 1
    n_classes: int = 2
    dropout: float = 0.0
    lr: float = 2.0
    epochs: int = 10
    batch_size: int = 32
    grad_clip: float = 1.0
    seed: int = 0
    dtype: str = "float64"

    def __post_init__(self):
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.n_classes < 2:
            raise ValueError("need at least two label classes")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


class CharTagger:
    def __init__(self, n_symbols: int, config: CharTaggerConfig, params: core.StackParams):
        self.n_symbols = n_symbols
        self.config = config
        self.params = params

    def label_distributions(self, ids: list[int]) -> np.ndarray:
        """Per-position label probabilities, shape (len(ids), n_classes)."""
        if len(ids) == 0:
            return np.zeros((0, self.config.n_classes))
        x = np.asarray(ids, dtype=np.int64).reshape(-1, 1)
        logits, _, _ = core.stack_forward(self.params, x, core.zero_state(self.params, 1))
        return core.softmax(logits[:, 0, :])

    def predict(self, ids: list[int]) -> np.ndarray:
        return self.label_distributions(ids).argmax(axis=1)


def _pad_batch(seqs, labels, dtype=np.int64):
    steps = max(len(s) for s in seqs)
    width = len(seqs)
    x = np.zeros((steps, width), dtype=dtype)
    y = np.zeros((steps, width), dtype=dtype)
    mask = np.zeros((steps, width), dtype=bool)
    for j, (s, l) in enumerate(zip(seqs, labels)):
        x[: len(s), j] = s
        y[: len(s), j] = l
        mask[: len(s), j] = True
    return x, y, mask


def train_char_classifier(sequences: list[list[int]], labels: list[list[int]],
                          n_symbols: int, config: CharTaggerConfig) -> CharTagger:
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
                             config.layers, out_dim=config.n_classes, tied=False,
                             dtype=config.np_dtype)
    lr = config.lr
    best = math.inf
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(pairs))
        epoch_loss = 0.0
        epoch_chars = 0
        for lo in range(0, len(order), config.batch_size):
            batch = [pairs[i] for i in order[lo : lo + config.batch_size]]
            x, y, mask = _pad_batch([b[0] for b in batch], [b[1] for b in batch])
            masks = core.make_dropout_masks(rng, config.dropout, x.shape[0], x.shape[1], params)
            logits, _, cache = core.stack_forward(params, x, core.zero_state(params, x.shape[1]),
                                                  masks, want_cache=True)
            loss, dlogits = core.xent_loss(logits, y, mask)
            grads = core.stack_backward(params, cache, dlogits)
            norm = core.clip_gradients(grads, config.grad_clip)
            check_divergence(loss, norm, f"in the tagger at epoch {epoch}")
            core.sgd_step(params, grads, lr)
            n = int(mask.sum())
            epoch_loss += loss * n
            epoch_chars += n
        mean_loss = epoch_loss / epoch_chars
        if mean_loss < best:
            best = mean_loss
        else:
            lr /= 4.0
        log.info("tagger epoch %d: loss %.4f, lr %.3g", epoch, mean_loss, lr)
    return CharTagger(n_symbols, config, params)
