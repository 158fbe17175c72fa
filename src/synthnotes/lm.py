"""Language-model contract, count-based baseline models and perplexity.

A language model is anything exposing natural-log next-token probabilities
over a fixed, ordered token space. The token space is either a
:class:`~synthnotes.corpus.Vocabulary` or a plain ordered token sequence;
when it contains the reserved end-of-note token, note boundaries take part
in the model's token stream.
"""

from __future__ import annotations

import math

import numpy as np

from .corpus import Corpus, EON_TOKEN, Note, Vocabulary


def token_space(vocab) -> tuple[str, ...]:
    """Normalize a Vocabulary or token sequence to an ordered token tuple."""
    if isinstance(vocab, Vocabulary):
        return vocab.tokens
    return tuple(vocab)


class LanguageModel:
    """Base contract over a fixed token space, in natural-log probabilities.

    A model answers exactly three questions:

    - :meth:`start_state` -- the state of ``n`` streams before any token
      (``None`` for models without a recurrent state);
    - :meth:`step` -- consume ``ids`` (n,), one token per stream, and return
      the (n, V) next-token distributions and the new state; sampling walks it;
    - :meth:`sequence_log_probs` -- per-position ``log p(w_i | w_1..i-1)``
      for one note, scored from a fresh note start; perplexity and the
      privacy audit use this.

    A note starts from the end-of-note id (an unseen context when the token
    space lacks it), and a stream fed that id starts a fresh note. So scoring
    ``ids`` equals the log of the :meth:`step` rows walked along
    ``[eon_id] + ids``, and each row of a step equals its stream stepped alone.
    """

    def __init__(self, vocab):
        self.tokens: tuple[str, ...] = token_space(vocab)
        self._ids = {tok: i for i, tok in enumerate(self.tokens)}
        self.eon_id = self._ids.get(EON_TOKEN)

    @property
    def vocab_size(self) -> int:
        return len(self.tokens)

    def token_id(self, token: str) -> int:
        return self._ids[token]

    def start_state(self, n: int):
        return None

    def step(self, ids: np.ndarray, state):
        """Consume one token per stream, ids (n,); return the next-token
        distributions (n, V) and the new state."""
        raise NotImplementedError

    def sequence_log_probs(self, ids) -> np.ndarray:
        """Per-position log p(w_i | w_1..i-1) with the context restricted to
        the given sequence (fresh state at position 0); ids outside the
        token space raise ValueError."""
        raise NotImplementedError

    def _checked_ids(self, ids) -> np.ndarray:
        arr = np.asarray(ids, dtype=np.int64)
        if arr.size and not (arr.min() >= 0 and arr.max() < self.vocab_size):
            raise ValueError(f"token ids outside vocabulary of size {self.vocab_size}")
        return arr

    def encode_note(self, note: Note) -> list[int]:
        return [self._ids[tok] for tok in note.tokens]

    def note_stream(self, note: Note) -> list[int]:
        """Token ids of a note as they appear in the training stream: the
        note's tokens, terminated by the end-of-note id when present."""
        ids = self.encode_note(note)
        if self.eon_id is not None:
            ids.append(self.eon_id)
        return ids

    def corpus_stream(self, corpus: Corpus) -> list[int]:
        """Training stream: a leading end-of-note id (so a fresh state sees
        the same boundary token that seeds note scoring and generation),
        then each note's tokens terminated by the end-of-note id. Token
        spaces without the end-of-note token yield the bare concatenation."""
        stream: list[int] = [] if self.eon_id is None else [self.eon_id]
        for note in corpus:
            stream.extend(self.note_stream(note))
        return stream


class UniformModel(LanguageModel):
    """Data-independent uniform distribution; the trivial zero-leakage model."""

    def train(self, corpus: Corpus) -> "UniformModel":
        return self

    def step(self, ids, state=None):
        return np.full((len(ids), self.vocab_size), 1.0 / self.vocab_size), None

    def sequence_log_probs(self, ids) -> np.ndarray:
        return np.full(len(self._checked_ids(ids)), -math.log(self.vocab_size))


class UnigramModel(LanguageModel):
    """Context-independent Lidstone(+1) unigram model:
    p(u) = (count(u) + 1) / (N + |V|)."""

    def __init__(self, vocab):
        super().__init__(vocab)
        self.counts = np.zeros(self.vocab_size, dtype=np.int64)
        self.total = 0
        self._log_probs = self._smoothed_log_probs()

    def _smoothed_log_probs(self) -> np.ndarray:
        return np.log((self.counts + 1.0) / (self.total + self.vocab_size))

    def train(self, corpus: Corpus) -> "UnigramModel":
        counts = np.zeros(self.vocab_size, dtype=np.int64)
        stream = self.corpus_stream(corpus)
        for i in stream:
            counts[i] += 1
        self.counts = counts
        self.total = len(stream)
        self._log_probs = self._smoothed_log_probs()
        return self

    def sequence_log_probs(self, ids) -> np.ndarray:
        return self._log_probs[self._checked_ids(ids)]

    def step(self, ids, state=None):
        return np.broadcast_to(np.exp(self._log_probs), (len(ids), self.vocab_size)), None


class BigramModel(LanguageModel):
    """Add-1 conditional bigram, p(v|u) = (count(u,v)+1) / (count(u,.)+|V|).

    A cheap mid-tier test model; unseen contexts fall back to the uniform
    add-1 distribution. The context at a note start is the end-of-note id
    when the token space has one, otherwise an unseen pseudo-context.
    """

    def __init__(self, vocab):
        super().__init__(vocab)
        self._rows: dict[int, dict[int, int]] = {}
        self._row_totals: dict[int, int] = {}

    def train(self, corpus: Corpus) -> "BigramModel":
        rows: dict[int, dict[int, int]] = {}
        totals: dict[int, int] = {}
        for note in corpus:
            ids = self.note_stream(note)
            prev = self.eon_id
            for cur in ids:
                if prev is not None:
                    row = rows.setdefault(prev, {})
                    row[cur] = row.get(cur, 0) + 1
                    totals[prev] = totals.get(prev, 0) + 1
                prev = cur
        self._rows = rows
        self._row_totals = totals
        return self

    def step(self, ids, state=None):
        dists = np.ones((len(ids), self.vocab_size))
        for r, token_id in enumerate(ids.tolist()):
            for tok, c in self._rows.get(token_id, {}).items():
                dists[r, tok] += c
            dists[r] /= self._row_totals.get(token_id, 0) + self.vocab_size
        return dists, None

    def sequence_log_probs(self, ids) -> np.ndarray:
        probs = np.empty(len(ids))
        prev = self.eon_id
        for i, tok in enumerate(self._checked_ids(ids).tolist()):
            count = self._rows.get(prev, {}).get(tok, 0)
            probs[i] = (1 + count) / (self._row_totals.get(prev, 0) + self.vocab_size)
            prev = tok
        return np.log(probs)


def train_unigram(corpus: Corpus, vocab) -> UnigramModel:
    return UnigramModel(vocab).train(corpus)


def train_bigram(corpus: Corpus, vocab) -> BigramModel:
    return BigramModel(vocab).train(corpus)


def perplexity(model: LanguageModel, corpus: Corpus) -> float:
    """exp of mean negative log-likelihood per token, scoring each note with
    a fresh context (no state crosses note boundaries). End-of-note stream
    positions are not scored; only the notes' own tokens count."""
    total_lp = 0.0
    n = 0
    for note in corpus:
        ids = model.encode_note(note)
        lps = model.sequence_log_probs(ids)
        if not np.all(np.isfinite(lps)):
            raise ValueError(f"non-finite log-probability scoring note {note.id!r}")
        total_lp += float(np.sum(lps))
        n += len(ids)
    if n == 0:
        raise ValueError("cannot compute perplexity of an empty corpus")
    return math.exp(-total_lp / n)
