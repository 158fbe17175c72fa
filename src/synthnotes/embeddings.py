"""Skip-gram negative-sampling word embeddings and the word-pair
similarity/relatedness evaluation (Spearman correlation of cosine scores
against gold ratings)."""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import expit as sigmoid
from scipy.stats import spearmanr

from .corpus import Corpus

# the word2vec recipe (Mikolov et al. 2013): the learning rate decays linearly
# from INITIAL_LR to the MIN_LR floor, and negatives are drawn from unigram
# counts raised to NOISE_POWER; pairs train BATCH_PAIRS at a time
INITIAL_LR = 0.025
MIN_LR = 1e-4
NOISE_POWER = 0.75
BATCH_PAIRS = 512


@dataclass(frozen=True)
class SgnsConfig:
    dim: int = 300
    window: int = 5
    negatives: int = 10
    iterations: int = 10
    min_count: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1 or self.window < 1 or self.iterations < 1:
            raise ValueError("dim, window and iterations must be >= 1")
        if self.negatives < 1 or self.min_count < 1:
            raise ValueError("negatives and min_count must be >= 1")


@dataclass(frozen=True)
class EmbeddingSet:
    words: tuple[str, ...]
    matrix: np.ndarray  # (len(words), dim)
    config: dict = field(default_factory=dict)
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.matrix.shape[0] != len(self.words):
            raise ValueError("embedding matrix row count != word count")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("non-finite embedding values")
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(self.words)})

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def __len__(self) -> int:
        return len(self.words)

    def vector(self, word: str) -> np.ndarray:
        return self.matrix[self._index[word]]


def extract_window_pairs(tokens: list, window: int) -> list[tuple]:
    """(center, context) pairs within a symmetric fixed window, in order."""
    pairs = []
    n = len(tokens)
    for i in range(n):
        for j in range(max(0, i - window), min(n, i + window + 1)):
            if j != i:
                pairs.append((tokens[i], tokens[j]))
    return pairs


def _noise_cdf(counts: np.ndarray, power: float) -> np.ndarray:
    weights = counts.astype(np.float64) ** power
    cdf = np.cumsum(weights / weights.sum())
    # the rounded sum can end below 1, and a draw in that gap would index past
    # the last word; pinning the end moves no other draw
    cdf[-1] = 1.0
    return cdf


def _sgd_pass(w_in, w_out, centers, contexts, cdf, config: SgnsConfig,
              rng: np.random.Generator, seen: int, total_visits: int) -> int:
    """One pass over the given pairs, updating w_in/w_out in place. A batch
    reads all its rows before it writes any, so every update in a batch is
    taken at the pre-batch weights."""
    for lo in range(0, len(centers), BATCH_PAIRS):
        c = centers[lo : lo + BATCH_PAIRS]
        o = contexts[lo : lo + BATCH_PAIRS]
        b = len(c)
        lr = max(MIN_LR, INITIAL_LR * (1.0 - seen / total_visits))
        seen += b

        negs = np.searchsorted(cdf, rng.random((b, config.negatives)), side="right")
        targets = np.concatenate([o[:, None], negs], axis=1)  # (B, 1+k)
        labels = np.zeros((b, 1 + config.negatives))
        labels[:, 0] = 1.0
        live = np.ones_like(labels)
        live[:, 1:] = negs != o[:, None]  # skip collided negatives

        l1 = w_in[c]  # (B, D)
        l2 = w_out[targets]  # (B, 1+k, D)
        scores = np.einsum("bd,bkd->bk", l1, l2)
        g = (labels - sigmoid(scores)) * live * lr
        _scatter_add(w_out, targets, g, l1)
        _scatter_add(w_in, c[:, None], np.ones((b, 1)), np.einsum("bk,bkd->bd", g, l2))
    return seen


def _scatter_add(w, rows, weights, x) -> None:
    """w[rows[b, k]] += weights[b, k] * x[b] for every (b, k), a row's repeats
    summed before the add, as one sparse (touched rows, B) @ (B, D) product.
    Only the rows the batch touches are read and written."""
    touched = np.zeros(len(w), dtype=bool)
    touched[rows] = True
    slot = np.cumsum(touched) - 1
    b, k = rows.shape
    scatter = csr_matrix((weights.ravel(), slot[rows].ravel(), np.arange(0, b * k + 1, k)),
                         shape=(b, slot[-1] + 1)).T
    w[touched] += scatter @ x


def train_sgns(corpus: Corpus, config: SgnsConfig = SgnsConfig()) -> EmbeddingSet:
    """Train skip-gram negative-sampling embeddings on a corpus.

    Single-threaded and deterministic under the config seed. Windows are
    fixed-width, extracted per sentence after dropping words under the
    training min_count; the learning rate decays linearly over all pair
    visits. Negatives are drawn from the unigram distribution raised to
    NOISE_POWER; a negative that collides with the true context word is
    skipped.
    """
    if len(corpus) == 0 or corpus.word_count == 0:
        raise ValueError("cannot train embeddings on an empty corpus")
    counts = corpus.token_counts()
    words = sorted((w for w, c in counts.items() if c >= config.min_count),
                   key=lambda w: (-counts[w], w))
    if not words:
        raise ValueError(f"no word reaches the embedding min_count {config.min_count}")
    index = {w: i for i, w in enumerate(words)}
    freq = np.array([counts[w] for w in words], dtype=np.int64)

    centers: list[int] = []
    contexts: list[int] = []
    for note in corpus:
        for sent in note.sentences:
            ids = [index[t] for t in sent if t in index]
            for c, o in extract_window_pairs(ids, config.window):
                centers.append(c)
                contexts.append(o)
    if not centers:
        raise ValueError("no usable training pairs (corpus too sparse)")
    centers = np.asarray(centers, dtype=np.int64)
    contexts = np.asarray(contexts, dtype=np.int64)

    rng = np.random.default_rng(config.seed)
    n_words = len(words)
    w_in = rng.uniform(-0.5 / config.dim, 0.5 / config.dim, size=(n_words, config.dim))
    w_out = np.zeros((n_words, config.dim))
    cdf = _noise_cdf(freq, NOISE_POWER)

    total_visits = config.iterations * len(centers)
    seen = 0
    for _ in range(config.iterations):
        seen = _sgd_pass(w_in, w_out, centers, contexts, cdf, config, rng,
                         seen, total_visits)

    return EmbeddingSet(
        words=tuple(words),
        matrix=w_in,
        config=asdict(config),
    )


def cosine(v1: np.ndarray, v2: np.ndarray) -> float:
    n1 = float(np.linalg.norm(v1))
    n2 = float(np.linalg.norm(v2))
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("cosine similarity of a zero vector is undefined")
    return float(np.dot(v1, v2) / (n1 * n2))


@dataclass(frozen=True)
class SimilarityBenchmark:
    name: str
    pairs: tuple[tuple[str, str, float], ...]

    def __post_init__(self):
        seen = set()
        for w1, w2, _ in self.pairs:
            key = frozenset((w1, w2))
            if key in seen:
                raise ValueError(f"duplicate benchmark pair {w1!r}/{w2!r}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.pairs)


def evaluate_similarity(emb: EmbeddingSet, bench: SimilarityBenchmark,
                        min_count: int, counts) -> tuple[float, int]:
    """Spearman correlation (average ranks on ties) between gold scores and
    embedding cosine scores, over pairs whose words both reach min_count in
    the embeddings' training corpus."""
    gold = []
    predicted = []
    for w1, w2, score in bench.pairs:
        if counts.get(w1, 0) < min_count or counts.get(w2, 0) < min_count:
            continue
        if w1 not in emb or w2 not in emb:
            continue
        gold.append(score)
        predicted.append(cosine(emb.vector(w1), emb.vector(w2)))
    if len(gold) < 3:
        raise ValueError(
            f"only {len(gold)} usable pairs in benchmark {bench.name!r}; need at least 3")
    rho = spearmanr(gold, predicted).statistic
    return float(rho), len(gold)


def read_benchmark(path: str | Path, name: str | None = None) -> SimilarityBenchmark:
    """CSV with header word1,word2,score."""
    path = Path(path)
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["word1", "word2", "score"]:
            raise ValueError(f"{path}: expected header 'word1,word2,score'")
        pairs = []
        for row in filter(None, reader):  # skips blank lines
            if len(row) != 3:
                raise ValueError(f"{path}: line {reader.line_num}: expected 3 fields, "
                                 f"got {len(row)}")
            pairs.append((row[0], row[1], float(row[2])))
    return SimilarityBenchmark(name or path.stem, tuple(pairs))


def write_benchmark(bench: SimilarityBenchmark, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word1", "word2", "score"])
        for w1, w2, score in bench.pairs:
            writer.writerow([w1, w2, score])


def write_embeddings(emb: EmbeddingSet, path: str | Path) -> None:
    """word2vec-style text format: '<count> <dim>' then one word per line."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"{len(emb)} {emb.dim}\n")
        for word, row in zip(emb.words, emb.matrix):
            fh.write(word + " " + " ".join(repr(float(v)) for v in row) + "\n")


def read_embeddings(path: str | Path) -> EmbeddingSet:
    with Path(path).open(encoding="utf-8") as fh:
        count, dim = map(int, fh.readline().split())
        words = []
        rows = np.empty((count, dim))
        for i in range(count):
            parts = fh.readline().split()
            if len(parts) != dim + 1:
                raise ValueError(f"{path}: line {i + 2}: expected a word and {dim} values")
            words.append(parts[0])
            rows[i] = [float(v) for v in parts[1:]]
    return EmbeddingSet(words=tuple(words), matrix=rows)
