"""Note corpora: normalization, tokenization, vocabularies, unk replacement,
splits and dataset statistics.

A corpus is an ordered collection of notes; a note is an ordered list of
sentences, each a list of whitespace-free tokens. The canonical on-disk
format is plain UTF-8 text, one sentence per line, tokens joined by single
spaces, notes separated by exactly one blank line.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

UNK_TOKEN = "<unk>"
EON_TOKEN = "<eon>"

# characters peeled off token edges during tokenization
_EDGE_PUNCT = set('.,:;!?()[]"\'')
# line endings that block merging with the following line
_HARD_LINE_END = (".", "!", "?", ":")
# tokens that terminate a sentence
_SENT_END = {".", "!", "?"}


class EmptyNoteError(ValueError):
    """Raised when a raw note normalizes to no tokens at all."""


@dataclass(frozen=True)
class Note:
    """One privacy record: an id plus tokenized sentences."""

    id: str
    sentences: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.sentences:
            raise ValueError(f"note {self.id!r} has no sentences")
        for sent in self.sentences:
            if not sent:
                raise ValueError(f"note {self.id!r} contains an empty sentence")
            for tok in sent:
                if not tok or any(ch.isspace() for ch in tok):
                    raise ValueError(f"bad token {tok!r} in note {self.id!r}")

    @property
    def tokens(self) -> list[str]:
        return [tok for sent in self.sentences for tok in sent]

    @property
    def word_count(self) -> int:
        return sum(len(sent) for sent in self.sentences)


@dataclass(frozen=True)
class Corpus:
    """An ordered, duplicate-free collection of notes with a role tag."""

    notes: tuple[Note, ...]
    role: str = "train"

    def __post_init__(self):
        ids = [n.id for n in self.notes]
        if len(set(ids)) != len(ids):
            dupes = [i for i, c in collections.Counter(ids).items() if c > 1]
            raise ValueError(f"duplicate note ids in corpus: {dupes[:5]}")

    def __len__(self) -> int:
        return len(self.notes)

    def __iter__(self):
        return iter(self.notes)

    @property
    def word_count(self) -> int:
        return sum(n.word_count for n in self.notes)

    def token_counts(self) -> collections.Counter:
        counts = collections.Counter()
        for note in self.notes:
            counts.update(note.tokens)
        return counts

    def without_note(self, note_id: str) -> "Corpus":
        kept = tuple(n for n in self.notes if n.id != note_id)
        if len(kept) == len(self.notes):
            raise KeyError(f"no note with id {note_id!r}")
        return Corpus(kept, self.role)


@dataclass(frozen=True)
class Vocabulary:
    """Token <-> dense-id bijection with source counts, fixed after build.

    Ids are dense 0..len-1. The unk token is always an entry; vocabularies
    built by :func:`build_vocabulary` also reserve the end-of-note token
    used by language-model token streams.
    """

    tokens: tuple[str, ...]
    counts: dict = field(default_factory=dict)
    unk_token: ClassVar[str] = UNK_TOKEN
    min_count: int = 1
    _ids: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.unk_token not in self.tokens:
            raise ValueError("unk token must be a vocabulary entry")
        ids = {tok: i for i, tok in enumerate(self.tokens)}
        if len(ids) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")
        object.__setattr__(self, "_ids", ids)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids


def _tokenize_chunk(chunk: str) -> list[str]:
    """Split a whitespace-free chunk, peeling edge punctuation into tokens."""
    lead = []
    while chunk and chunk[0] in _EDGE_PUNCT:
        lead.append(chunk[0])
        chunk = chunk[1:]
    trail = []
    while chunk and chunk[-1] in _EDGE_PUNCT:
        trail.append(chunk[-1])
        chunk = chunk[:-1]
    middle = [chunk] if chunk else []
    return lead + middle + trail[::-1]


def tokenize_line(line: str) -> list[str]:
    tokens = []
    for chunk in line.split():
        tokens.extend(_tokenize_chunk(chunk))
    return tokens


def _merge_lines(lines: list[str]) -> list[str]:
    """Undo arbitrary formatting line breaks inside a note.

    A break is replaced by a space when the line does not end in a hard
    terminator (. ! ? :) and the next line starts with a lowercase letter
    or a digit; otherwise it is kept as a sentence boundary.
    """
    merged: list[str] = []
    current = None
    for line in lines:
        if current is None:
            current = line
            continue
        if not current.endswith(_HARD_LINE_END) and (line[0].islower() or line[0].isdigit()):
            current = current + " " + line
        else:
            merged.append(current)
            current = line
    if current is not None:
        merged.append(current)
    return merged


def split_sentences(tokens: list[str]) -> list[tuple[str, ...]]:
    """Group a flat token list into sentences, closing at . ! ? tokens."""
    sentences: list[tuple[str, ...]] = []
    current: list[str] = []
    for tok in tokens:
        current.append(tok)
        if tok in _SENT_END:
            sentences.append(tuple(current))
            current = []
    if current:
        sentences.append(tuple(current))
    return sentences


def normalize_raw_note(raw: str, note_id: str = "note") -> Note:
    """Normalize raw multi-line note text into a tokenized Note.

    Deterministic: merges formatting line breaks, then splits sentences at
    terminal-punctuation tokens and kept line breaks, then tokenizes.
    Raises :class:`EmptyNoteError` when nothing survives normalization.
    """
    lines = [ln.strip() for ln in raw.split("\n")]
    lines = [ln for ln in lines if ln]
    sentences: list[tuple[str, ...]] = []
    for line in _merge_lines(lines):
        sentences.extend(split_sentences(tokenize_line(line)))
    if not sentences:
        raise EmptyNoteError("note is empty after normalization")
    return Note(note_id, tuple(sentences))


def build_vocabulary(train: Corpus, min_count: int = 3) -> Vocabulary:
    """Vocabulary over the train split: every token with count >= min_count,
    plus the reserved unk and end-of-note entries (ids 0 and 1)."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    if len(train) == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    counts = train.token_counts()
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_count and tok not in (UNK_TOKEN, EON_TOKEN)),
        key=lambda tok: (-counts[tok], tok),
    )
    tokens = (UNK_TOKEN, EON_TOKEN, *kept)
    return Vocabulary(tokens=tokens, counts=dict(counts), min_count=min_count)


def apply_unk(corpus: Corpus, vocab: Vocabulary) -> Corpus:
    """Replace every out-of-vocabulary token with the unk token."""
    notes = []
    for note in corpus.notes:
        sentences = tuple(
            tuple(tok if tok in vocab else vocab.unk_token for tok in sent)
            for sent in note.sentences
        )
        notes.append(Note(note.id, sentences))
    return Corpus(tuple(notes), corpus.role)


@dataclass(frozen=True)
class CorpusStats:
    """Dataset statistics in the train/valid/test shape."""

    note_counts: tuple[int, int, int]
    word_counts: tuple[int, int, int]
    vocab_size: int
    oov_rate: float

    def as_dict(self) -> dict:
        return {
            "notes": {"train": self.note_counts[0], "valid": self.note_counts[1], "test": self.note_counts[2]},
            "words": {"train": self.word_counts[0], "valid": self.word_counts[1], "test": self.word_counts[2]},
            "vocab": self.vocab_size,
            "oov_rate": self.oov_rate,
        }

    def render(self) -> str:
        lines = [
            f"{'':8s}{'Train':>12s}{'Valid':>12s}{'Test':>12s}",
            f"{'Notes':8s}{self.note_counts[0]:>12,d}{self.note_counts[1]:>12,d}{self.note_counts[2]:>12,d}",
            f"{'Words':8s}{self.word_counts[0]:>12,d}{self.word_counts[1]:>12,d}{self.word_counts[2]:>12,d}",
            f"{'Vocab':8s}{self.vocab_size:>12,d}",
            f"{'OOV':8s}{self.oov_rate:>11.1%}",
        ]
        return "\n".join(lines)


def compute_stats(train: Corpus, valid: Corpus, test: Corpus, vocab: Vocabulary) -> CorpusStats:
    """Exact corpus statistics; OOV rate is the unk fraction over the
    unk-applied valid+test tokens."""
    for split in (train, valid, test):
        if len(split) == 0:
            raise ValueError(f"empty {split.role} split")
    unk = 0
    total = 0
    for split in (valid, test):
        for note in split:
            for tok in note.tokens:
                if tok not in vocab:
                    raise ValueError(f"token {tok!r} in {split.role} split is not unk-applied")
                total += 1
                if tok == vocab.unk_token:
                    unk += 1
    return CorpusStats(
        note_counts=(len(train), len(valid), len(test)),
        word_counts=(train.word_count, valid.word_count, test.word_count),
        vocab_size=len(vocab),
        oov_rate=unk / total,
    )


def check_fractions(fractions: tuple[float, ...]) -> None:
    """Split fractions are three non-negative values (train, valid, test)
    summing to 1."""
    if len(fractions) != 3:
        raise ValueError(f"split fractions need three values (train, valid, test), "
                         f"got {len(fractions)}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {fractions}")
    if any(f < 0 for f in fractions):
        raise ValueError("fractions must be non-negative")


def split_corpus(
    corpus: Corpus, fractions: tuple[float, float, float], seed: int
) -> tuple[Corpus, Corpus, Corpus]:
    """Disjoint, exhaustive train/valid/test split, deterministic under seed.

    Notes keep their ids and their original relative order within each split.
    """
    check_fractions(fractions)
    n = len(corpus)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = int(round(fractions[0] * n))
    n_valid = int(round(fractions[1] * n))
    n_train = min(n_train, n)
    n_valid = min(n_valid, n - n_train)
    picks = (
        sorted(order[:n_train]),
        sorted(order[n_train : n_train + n_valid]),
        sorted(order[n_train + n_valid :]),
    )
    roles = ("train", "valid", "test")
    return tuple(
        Corpus(tuple(corpus.notes[i] for i in idx), role) for idx, role in zip(picks, roles)
    )


def note_text(note: Note) -> str:
    return "\n".join(" ".join(sent) for sent in note.sentences)


def corpus_text(corpus: Corpus) -> str:
    """The canonical format: one sentence per line, blank line between notes."""
    return "\n\n".join(note_text(note) for note in corpus.notes) + "\n"


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    Path(path).write_text(corpus_text(corpus), encoding="utf-8")


def read_corpus(path: str | Path, role: str = "train") -> Corpus:
    """Read a canonical corpus file; ids are positional (note-00000, ...)."""
    text = Path(path).read_text(encoding="utf-8")
    notes = []
    for i, block in enumerate(text.strip("\n").split("\n\n")):
        sentences = tuple(tuple(line.split(" ")) for line in block.split("\n") if line)
        notes.append(Note(f"note-{i:05d}", sentences))
    if not notes:
        raise ValueError(f"no notes in {path}")
    return Corpus(tuple(notes), role)


def read_raw_corpus(path: str | Path) -> Corpus:
    """Read a raw note file (blank-line note delimiting, arbitrary internal
    line structure) and normalize every note; empty notes are skipped."""
    text = Path(path).read_text(encoding="utf-8")
    blocks = []
    current: list[str] = []
    for line in text.split("\n"):
        if line.strip():
            current.append(line)
        elif current:
            blocks.append("\n".join(current))
            current = []
    if current:
        blocks.append("\n".join(current))
    notes = []
    for block in blocks:
        try:
            note = normalize_raw_note(block, note_id=f"note-{len(notes):05d}")
        except EmptyNoteError:
            continue
        notes.append(note)
    if not notes:
        raise ValueError(f"no usable notes in {path}")
    return Corpus(tuple(notes))


def write_vocab(vocab: Vocabulary, path: str | Path) -> None:
    """Token per line in id order, tab-separated from its train count."""
    lines = [f"#synthnotes-vocab min_count={vocab.min_count}"]
    for tok in vocab.tokens:
        lines.append(f"{tok}\t{vocab.counts.get(tok, 0)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_vocab(path: str | Path) -> Vocabulary:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("#synthnotes-vocab"):
        raise ValueError(f"{path}: not a vocabulary file")
    min_count = int(lines[0].rsplit("=", 1)[1])
    tokens = []
    counts = {}
    for line in lines[1:]:
        if not line:
            continue
        tok, _, count = line.partition("\t")
        tokens.append(tok)
        if int(count) > 0:
            counts[tok] = int(count)
    return Vocabulary(tokens=tuple(tokens), counts=counts, min_count=min_count)

