"""Word-level LSTM language model: config, model wrapper and trainer.

Training follows the classic recipe: the corpus is concatenated into one
token stream with an end-of-note token closing every note, folded into
batch_size parallel streams, and optimized by truncated BPTT with
gradient-clipped SGD under one of two plateau learning-rate policies.

The trained model keeps the per-note validation log-probs of the parameters
it keeps, from the training pass that chose them, and hands them back when
the same parameters score the same notes, so the validation split is scored
once. A model reloaded from its file keeps nothing and recomputes.

Besides the live parameters, training holds one copy of them at most: the
kept parameters, filled in place at each improving check. The last check,
on the final epoch's last chunk, keeps the live parameters themselves. One
set of gradients exists at a time, because `core.train_step` lends each
step the previous step's gradient arrays through its `work` dict.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ..corpus import Corpus, EON_TOKEN
from ..lm import LanguageModel
from . import core

log = logging.getLogger(__name__)

LR_POLICIES = ("medtext2", "medtext103")
DTYPES = ("float32", "float64")
GRAD_CLIP = 0.25  # global gradient-norm clip of every step
MIN_LR = 0.1  # medtext103's lr floor
MIN_IMPROVEMENT = 0.1  # the valid-NLL gain since the last medtext103 check that keeps the lr


@dataclass(frozen=True)
class LstmLmConfig:
    hidden_size: int = 650
    layers: int = 2
    dropout: float = 0.0
    initial_lr: float = 20.0
    lr_decay_policy: str = "medtext2"
    epochs: int = 20
    bptt: int = 35
    batch_size: int = 20
    tied_embeddings: bool = True
    seed: int = 0
    # "float64" is the conformance dtype. A generation step at 16 streams
    # (model step plus sampling) took 9.0 us per token in float32 against
    # 12.9 us in float64 (H=48, V=493, one BLAS thread, 2-core Xeon)
    dtype: str = "float64"

    def __post_init__(self):
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.lr_decay_policy not in LR_POLICIES:
            raise ValueError(f"unknown lr policy {self.lr_decay_policy!r}")
        if self.layers < 1 or self.hidden_size < 1 or self.epochs < 1:
            raise ValueError("layers, hidden_size and epochs must be >= 1")
        if self.bptt < 1 or self.batch_size < 1:
            raise ValueError("bptt and batch_size must be >= 1")
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {DTYPES}, got {self.dtype!r}")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


class LstmLmModel(LanguageModel):
    """Trained LSTM language model over a token space containing <eon>."""

    def __init__(self, vocab, config: LstmLmConfig, params: core.StackParams):
        super().__init__(vocab)
        if self.eon_id is None:
            raise ValueError(f"LSTM language models need the {EON_TOKEN!r} token in the vocabulary")
        self.config = config
        self.params = params
        self.history: list[dict] = []
        # (valid ids, params, per-note log-probs) of the kept training pass
        self._kept_valid: tuple | None = None

    def start_state(self, n: int):
        return core.zero_state(self.params, n)

    def step(self, ids, state):
        # a note boundary gives its stream a fresh context, as in training
        return core.lstm_step(self.params, ids, state, ids == self.eon_id)

    def notes_log_probs(self, notes_ids) -> list[np.ndarray]:
        checked = [self._checked_ids(ids).tolist() for ids in notes_ids]
        if self._kept_valid is not None:
            valid_ids, params, log_probs = self._kept_valid
            if params is self.params and checked == valid_ids:
                return [lp.copy() for lp in log_probs]
        return batched_note_nll(self.params, checked, self.eon_id)[2]


def batchify(stream: list[int], batch_size: int) -> np.ndarray:
    """Fold a token stream into batch_size parallel columns, shape (L, B)."""
    usable = (len(stream) // batch_size) * batch_size
    if usable // batch_size < 2:
        raise ValueError(
            f"stream of {len(stream)} tokens is too short for batch size {batch_size}")
    data = np.asarray(stream[:usable], dtype=np.int64)
    return data.reshape(batch_size, -1).T


def bptt_chunks(data: np.ndarray, bptt: int):
    for start in range(0, data.shape[0] - 1, bptt):
        steps = min(bptt, data.shape[0] - 1 - start)
        yield data[start : start + steps], data[start + 1 : start + 1 + steps]


NOTE_BATCH = 64  # notes per padded forward pass


def batched_note_nll(params: core.StackParams, notes_ids: list[list[int]], eon_id: int):
    """Per-note NLL with state reset at every note start.

    The recurrence is seeded by the end-of-note token from a zero state, so
    position i is conditioned on exactly the note's own first i-1 tokens.
    Returns (total nll, token count, per-note float64 log-prob arrays); the
    total sums the notes in order in float64, as `lm.perplexity` does.
    """
    per_note: list[np.ndarray] = []
    for lo in range(0, len(notes_ids), NOTE_BATCH):
        group = notes_ids[lo : lo + NOTE_BATCH]
        x, _ = core.pad_columns([[eon_id, *ids[:-1]] for ids in group])
        y, _ = core.pad_columns(group)
        logits, _, _ = core.stack_forward(params, x, core.zero_state(params, len(group)))
        lp = np.take_along_axis(core.log_softmax(logits), y[..., None], axis=2)[..., 0]
        per_note.extend(lp[: len(ids), j].astype(np.float64) for j, ids in enumerate(group))
    total = -sum(float(np.sum(lp)) for lp in per_note)
    return total, sum(len(ids) for ids in notes_ids), per_note


def train_lstm_lm(train: Corpus, valid: Corpus, vocab, config: LstmLmConfig) -> LstmLmModel:
    """Train on the eon-joined train stream; keep the parameters from the
    validation check with the best per-note loss, read-only, together with
    that check's per-note log-probs. When no check improves (a non-finite
    valid loss), the initial parameters are kept."""
    model = LstmLmModel(vocab, config, params=None)  # validates the token space
    n_vocab = model.vocab_size

    def init_params(rng: np.random.Generator) -> core.StackParams:
        return core.init_stack(
            rng, n_vocab, config.hidden_size, config.hidden_size, config.layers,
            out_dim=None if config.tied_embeddings else n_vocab,
            tied=config.tied_embeddings, dtype=config.np_dtype,
        )

    rng = np.random.default_rng(config.seed)
    params = model.params = init_params(rng)

    stream = model.corpus_stream(train)
    data = batchify(stream, config.batch_size)
    valid_ids = [model.encode_note(n) for n in valid]
    if not valid_ids:
        raise ValueError("validation corpus is empty")

    lr = config.initial_lr
    best_nll = math.inf
    best_params = best_log_probs = None
    chunks = list(bptt_chunks(data, config.bptt))
    check_every = max(1, len(chunks) // 40)  # medtext103 validates ~40x per epoch
    last_check_nll = math.inf
    work: dict = {}  # the last step's arrays, see core.train_step

    def validate(final: bool) -> tuple[float, bool]:
        """Valid NLL of the live parameters; keep them and their per-note
        log-probs when it is the best so far. The `final` check, the last
        epoch's last chunk, keeps the live parameters; any other fills the
        one kept copy."""
        nonlocal best_nll, best_params, best_log_probs
        total, count, log_probs = batched_note_nll(params, valid_ids, model.eon_id)
        nll = total / count
        improved = nll < best_nll
        if improved:
            best_nll, best_log_probs = nll, log_probs
            if final:
                best_params = params
            elif best_params is None:
                best_params = params.copy()
            else:
                for (_, kept), (_, live) in zip(best_params.named_arrays(),
                                                params.named_arrays()):
                    np.copyto(kept, live)
        return nll, improved

    for epoch in range(1, config.epochs + 1):
        state = core.zero_state(params, config.batch_size)
        epoch_loss = 0.0
        epoch_positions = 0
        for chunk_idx, (x, y) in enumerate(chunks):
            masks = core.make_dropout_masks(rng, config.dropout, x.shape[0],
                                            config.batch_size, params)
            loss, state = core.train_step(params, x, y, state, lr, GRAD_CLIP,
                                          f"at epoch {epoch}, chunk {chunk_idx}", work,
                                          masks, reset_mask=(x == model.eon_id))
            epoch_loss += loss * x.size
            epoch_positions += x.size

            # a medtext103 check and the epoch's end share one validation
            check = config.lr_decay_policy == "medtext103" and (chunk_idx + 1) % check_every == 0
            last = chunk_idx == len(chunks) - 1
            if check or last:
                valid_nll, improved = validate(final=last and epoch == config.epochs)
            if check:
                if last_check_nll - valid_nll < MIN_IMPROVEMENT:
                    lr = max(lr / 1.2, MIN_LR)
                last_check_nll = valid_nll

        if not improved and config.lr_decay_policy == "medtext2":
            lr = lr / 4.0
        train_nll = epoch_loss / max(epoch_positions, 1)
        model.history.append({
            "epoch": epoch,
            "lr": lr,
            "train_ppl": math.exp(train_nll),
            "valid_ppl": math.exp(valid_nll),
        })
        log.info("epoch %d: train ppl %.3f, valid ppl %.3f, lr %.4g",
                 epoch, math.exp(train_nll), math.exp(valid_nll), lr)

    if best_params is None:
        # init_stack is the seeded generator's first consumer, so these are
        # the initial parameters bit for bit
        best_params = init_params(np.random.default_rng(config.seed))
    # read-only, so the kept log-probs cannot go stale under an in-place write
    for _, arr in best_params.named_arrays():
        arr.flags.writeable = False
    model.params = best_params
    if best_log_probs is not None:
        model._kept_valid = (valid_ids, best_params, best_log_probs)
    return model
