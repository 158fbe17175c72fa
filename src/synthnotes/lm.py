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
    - :meth:`notes_log_probs` -- per-position ``log p(w_i | w_1..i-1)`` in
      float64 for each note of a list, each scored from a fresh note start;
      perplexity and the privacy audit use this. The caller owns the returned
      arrays. A model may return values it already holds for the same notes
      and parameters, such as a trained LSTM's kept validation pass, but
      never values its scoring would not compute.

    A note starts from the end-of-note id (an unseen context when the token
    space lacks it), and a stream fed that id starts a fresh note. So scoring
    ``ids`` equals the log of the :meth:`step` rows walked along
    ``[eon_id] + ids``, each row of a step equals its stream stepped alone,
    and each note of a list scores as it does alone.
    """

    def __init__(self, vocab):
        self.tokens: tuple[str, ...] = token_space(vocab)
        self._ids = {tok: i for i, tok in enumerate(self.tokens)}
        self.eon_id = self._ids.get(EON_TOKEN)

    @property
    def vocab_size(self) -> int:
        return len(self.tokens)

    def start_state(self, n: int):
        return None

    def step(self, ids: np.ndarray, state):
        """Consume one token per stream, ids (n,); return the next-token
        distributions (n, V) and the new state."""
        raise NotImplementedError

    def notes_log_probs(self, notes_ids) -> list[np.ndarray]:
        """Per-position log p(w_i | w_1..i-1) of each note from a fresh state;
        ids outside the token space raise ValueError. Here each note is one
        step whose streams are fed the previous token, which holds for any
        model without a recurrent state."""
        start = -1 if self.eon_id is None else self.eon_id  # -1: an unseen context
        out = []
        for ids in map(self._checked_ids, notes_ids):
            probs, _ = self.step(np.concatenate(([start], ids))[:-1], self.start_state(len(ids)))
            out.append(np.log(probs[np.arange(len(ids)), ids]))
        return out

    def sequence_log_probs(self, ids) -> np.ndarray:
        """:meth:`notes_log_probs` of the one note `ids`."""
        return self.notes_log_probs([ids])[0]

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

    def step(self, ids, state=None):
        return np.full((len(ids), self.vocab_size), 1.0 / self.vocab_size), None


class UnigramModel(LanguageModel):
    """Context-independent Lidstone(+1) unigram model over token `counts`:
    p(u) = (count(u) + 1) / (N + |V|)."""

    def __init__(self, vocab, counts):
        super().__init__(vocab)
        self.counts = np.asarray(counts, dtype=np.int64)
        self.total = int(self.counts.sum())
        self.probs = (self.counts + 1.0) / (self.total + self.vocab_size)

    def step(self, ids, state=None):
        return np.broadcast_to(self.probs, (len(ids), self.vocab_size)), None


class BigramModel(LanguageModel):
    """Add-1 conditional bigram, p(v|u) = (count(u,v)+1) / (count(u,.)+|V|),
    over `rows`: context id -> {next id: count}.

    A cheap mid-tier test model; unseen contexts fall back to the uniform
    add-1 distribution. The context at a note start is the end-of-note id
    when the token space has one, otherwise an unseen pseudo-context.
    """

    _UNSEEN = (np.zeros(0, dtype=np.int64), np.zeros(0))  # a context with no successors

    def __init__(self, vocab, rows: dict[int, dict[int, int]]):
        super().__init__(vocab)
        self.rows = rows
        self._successors = {ctx: (np.fromiter(row, np.int64), np.fromiter(row.values(), np.float64))
                            for ctx, row in rows.items()}

    def step(self, ids, state=None):
        # one leading empty pair keeps the concatenations defined at zero streams
        found = [self._UNSEEN] + [self._successors.get(i, self._UNSEEN) for i in ids.tolist()]
        succ, counts = (np.concatenate(parts) for parts in zip(*found))
        dists = np.ones((len(ids), self.vocab_size))
        dists[np.repeat(np.arange(len(ids)), [len(s) for s, _ in found[1:]]), succ] += counts
        # integer-valued rows, so each sum is exactly count(u,.) + |V|
        return dists / dists.sum(axis=1, keepdims=True), None


def train_unigram(corpus: Corpus, vocab) -> UnigramModel:
    """Token counts over the corpus training stream."""
    encoder = LanguageModel(vocab)
    stream = np.asarray(encoder.corpus_stream(corpus), dtype=np.int64)
    return UnigramModel(vocab, np.bincount(stream, minlength=encoder.vocab_size))


def train_bigram(corpus: Corpus, vocab) -> BigramModel:
    """Successor counts within each note's stream, from its start context."""
    encoder = LanguageModel(vocab)
    rows: dict[int, dict[int, int]] = {}
    for note in corpus:
        prev = encoder.eon_id
        for cur in encoder.note_stream(note):
            if prev is not None:
                row = rows.setdefault(prev, {})
                row[cur] = row.get(cur, 0) + 1
            prev = cur
    return BigramModel(vocab, rows)


def perplexity(model: LanguageModel, corpus: Corpus) -> float:
    """exp of mean negative log-likelihood per token, scoring each note with
    a fresh context (no state crosses note boundaries). End-of-note stream
    positions are not scored; only the notes' own tokens count."""
    notes_ids = [model.encode_note(note) for note in corpus]
    total_lp = 0.0
    for note, lps in zip(corpus, model.notes_log_probs(notes_ids)):
        if not np.all(np.isfinite(lps)):
            raise ValueError(f"non-finite log-probability scoring note {note.id!r}")
        total_lp += float(np.sum(lps))
    n = sum(len(ids) for ids in notes_ids)
    if n == 0:
        raise ValueError("cannot compute perplexity of an empty corpus")
    return math.exp(-total_lp / n)
