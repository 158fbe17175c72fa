"""Downstream utility benchmarks: a sum-of-words NLI classifier over frozen
pre-trained embeddings, and letter-case restoration scored by word-level F1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus
from .embeddings import EmbeddingSet
from .neural import CharTagger, TruecaserConfig, train_char_classifier
from .neural.core import softmax

NLI_LABELS = ("entailment", "contradiction", "neutral")
NLI_BATCH = 32  # examples per SGD step of the classifier head


@dataclass(frozen=True)
class NliExample:
    premise: tuple[str, ...]
    hypothesis: tuple[str, ...]
    label: str

    def __post_init__(self):
        if self.label not in NLI_LABELS:
            raise ValueError(f"label {self.label!r} not in {NLI_LABELS}")


@dataclass(frozen=True)
class NliConfig:
    hidden: int = 128
    lr: float = 0.05
    epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        if min(self.hidden, self.epochs) < 1:
            raise ValueError("hidden and epochs must be >= 1")


class NliBowClassifier:
    """Sum-of-words classifier: features are [sum(p); sum(h); p-h; p*h] of
    the frozen embedding sums, followed by one tanh hidden layer and a
    3-way softmax."""

    def __init__(self, emb: EmbeddingSet, config: NliConfig):
        self.emb = emb
        self.config = config
        d = 4 * emb.dim
        rng = np.random.default_rng(config.seed)
        self.w1 = rng.uniform(-0.1, 0.1, size=(d, config.hidden))
        self.b1 = np.zeros(config.hidden)
        self.w2 = rng.uniform(-0.1, 0.1, size=(config.hidden, len(NLI_LABELS)))
        self.b2 = np.zeros(len(NLI_LABELS))
        self.feat_mean = np.zeros(d)
        self.feat_scale = np.ones(d)

    def _sum(self, tokens) -> np.ndarray:
        total = np.zeros(self.emb.dim)
        for tok in tokens:
            if tok in self.emb:
                total += self.emb.vector(tok)
        return total

    def featurize(self, premise, hypothesis) -> np.ndarray:
        p = self._sum(premise)
        h = self._sum(hypothesis)
        return np.concatenate([p, h, p - h, p * h])

    def _forward(self, feats: np.ndarray):
        z1 = feats @ self.w1 + self.b1
        a1 = np.tanh(z1)
        return a1, softmax(a1 @ self.w2 + self.b2)

    def predict_proba(self, example: NliExample) -> np.ndarray:
        feats = (self.featurize(example.premise, example.hypothesis) - self.feat_mean) / self.feat_scale
        _, probs = self._forward(feats[None, :])
        return probs[0]

    def predict(self, example: NliExample) -> str:
        return NLI_LABELS[int(np.argmax(self.predict_proba(example)))]


def train_nli_bow(train: list[NliExample], emb: EmbeddingSet,
                  config: NliConfig = NliConfig()) -> NliBowClassifier:
    """Train the classifier head; the embeddings themselves stay frozen."""
    if not train:
        raise ValueError("empty NLI training set")
    clf = NliBowClassifier(emb, config)
    feats = np.stack([clf.featurize(ex.premise, ex.hypothesis) for ex in train])
    labels = np.array([NLI_LABELS.index(ex.label) for ex in train])
    clf.feat_mean = feats.mean(axis=0)
    clf.feat_scale = np.maximum(feats.std(axis=0), 1e-8)
    feats = (feats - clf.feat_mean) / clf.feat_scale

    rng = np.random.default_rng(config.seed)
    n = len(train)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, NLI_BATCH):
            idx = order[lo : lo + NLI_BATCH]
            x = feats[idx]
            y = labels[idx]
            a1, probs = clf._forward(x)
            d_logits = probs
            d_logits[np.arange(len(idx)), y] -= 1.0
            d_logits /= len(idx)
            d_w2 = a1.T @ d_logits
            d_b2 = d_logits.sum(axis=0)
            d_a1 = d_logits @ clf.w2.T
            d_z1 = d_a1 * (1.0 - a1 * a1)
            d_w1 = x.T @ d_z1
            d_b1 = d_z1.sum(axis=0)
            clf.w2 -= config.lr * d_w2
            clf.b2 -= config.lr * d_b2
            clf.w1 -= config.lr * d_w1
            clf.b1 -= config.lr * d_b1
    return clf


def evaluate_nli(clf: NliBowClassifier, test: list[NliExample]) -> float:
    if not test:
        raise ValueError("empty NLI test set")
    correct = sum(1 for ex in test if clf.predict(ex) == ex.label)
    return correct / len(test)


def read_nli_jsonl(path: str | Path) -> list[NliExample]:
    """JSON-lines with fields premise, hypothesis, label."""
    examples = []
    for n, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        obj = json.loads(line)
        if not (isinstance(obj, dict) and all(isinstance(obj.get(k), str)
                                              for k in ("premise", "hypothesis", "label"))):
            raise ValueError(f"{path}: line {n}: expected an object with string "
                             "premise, hypothesis and label")
        examples.append(NliExample(
            premise=tuple(obj["premise"].split()),
            hypothesis=tuple(obj["hypothesis"].split()),
            label=obj["label"],
        ))
    if not examples:
        raise ValueError(f"no NLI examples in {path}")
    return examples


def write_nli_jsonl(examples: list[NliExample], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps({
                "premise": " ".join(ex.premise),
                "hypothesis": " ".join(ex.hypothesis),
                "label": ex.label,
            }) + "\n")


# ---------------------------------------------------------------------------
# letter-case restoration


@dataclass(frozen=True)
class CasePair:
    cased: tuple[str, ...]
    lowered: tuple[str, ...]

    def __post_init__(self):
        if len(self.cased) != len(self.lowered):
            raise ValueError("case pair is not token-aligned")
        for c, l in zip(self.cased, self.lowered):
            if c.lower() != l:
                raise ValueError(f"{l!r} is not the lowercase of {c!r}")


class Truecaser:
    """Character-level case restorer; a trained tagger plus its alphabet."""

    UNK = 0

    def __init__(self, tagger: CharTagger, alphabet: dict[str, int]):
        self.tagger = tagger
        self.alphabet = alphabet

    def _encode(self, text: str) -> list[int]:
        return [self.alphabet.get(ch, self.UNK) for ch in text]

    def truecase_tokens(self, lowered: tuple[str, ...]) -> tuple[str, ...]:
        """Restore case; only alphabetic characters may change, so token
        boundaries and non-letter characters are preserved exactly."""
        text = " ".join(lowered)
        if not text:
            return tuple(lowered)
        pred = self.tagger.predict(self._encode(text))
        out = []
        for ch, up in zip(text, pred):
            upper = ch.upper()
            out.append(upper if up == 1 and ch.isalpha() and len(upper) == 1 else ch)
        return tuple("".join(out).split(" "))


def _sentence_char_data(tokens: tuple[str, ...]):
    text = " ".join(tokens)
    lowered = []
    labels = []
    for ch in text:
        low = ch.lower()
        lowered.append(low if len(low) == 1 else ch)
        labels.append(1 if ch.isupper() else 0)
    return "".join(lowered), labels


def make_case_pairs(corpus: Corpus) -> list[CasePair]:
    """One pair per sentence: the original tokens and their lowercase form."""
    pairs = []
    for note in corpus:
        for sent in note.sentences:
            pairs.append(CasePair(cased=sent, lowered=tuple(t.lower() for t in sent)))
    return pairs


def train_truecaser(train: Corpus, config: TruecaserConfig = TruecaserConfig()) -> Truecaser:
    """Train on (cased, lowered) parallel text derived from a case-preserving
    corpus; the model tags each character as lower/upper."""
    sentences = [sent for note in train for sent in note.sentences]
    if not sentences:
        raise ValueError("empty truecaser training corpus")
    if config.max_sentences is not None and len(sentences) > config.max_sentences:
        rng = np.random.default_rng(config.seed)
        keep = sorted(rng.choice(len(sentences), size=config.max_sentences, replace=False))
        sentences = [sentences[i] for i in keep]

    texts = []
    labels = []
    chars = set()
    for sent in sentences:
        lowered, labs = _sentence_char_data(sent)
        texts.append(lowered)
        labels.append(labs)
        chars.update(lowered)
    alphabet = {ch: i + 1 for i, ch in enumerate(sorted(chars))}  # 0 is unk

    sequences = [[alphabet[ch] for ch in text] for text in texts]
    tagger = train_char_classifier(sequences, labels, len(alphabet) + 1, config)
    return Truecaser(tagger, alphabet)


def _has_upper(token: str) -> bool:
    return any(ch.isupper() for ch in token)


def word_case_f1(gold: list[tuple[str, ...]], predicted: list[tuple[str, ...]]) -> float:
    """Word-level F1 where a positive is a token with at least one uppercase
    character and a true positive is an exact surface match of a positive
    gold token; 1.0 when neither side has positives."""
    tp = 0
    gold_pos = 0
    pred_pos = 0
    for g_toks, p_toks in zip(gold, predicted):
        if len(g_toks) != len(p_toks):
            raise ValueError("gold/predicted token sequences are not aligned")
        for g, p in zip(g_toks, p_toks):
            g_up = _has_upper(g)
            p_up = _has_upper(p)
            gold_pos += g_up
            pred_pos += p_up
            if g_up and p_up and g == p:
                tp += 1
    if gold_pos == 0 and pred_pos == 0:
        return 1.0
    if tp == 0:
        return 0.0
    precision = tp / pred_pos
    recall = tp / gold_pos
    return 2.0 * precision * recall / (precision + recall)


def evaluate_truecase(caser: Truecaser, pairs: list[CasePair]) -> float:
    if not pairs:
        raise ValueError("empty truecasing test set")
    predicted = [caser.truecase_tokens(pair.lowered) for pair in pairs]
    return word_case_f1([pair.cased for pair in pairs], predicted)
