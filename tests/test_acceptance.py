"""Acceptance suite: every exit criterion runs here at its stated tolerance
and prints one PASS/FAIL line (run with -s or -rA to see them)."""

import json
import math
import time
from collections import Counter

import numpy as np
import pytest

from synthnotes import cli, lm
from synthnotes.corpus import (
    Corpus,
    EON_TOKEN,
    Note,
    UNK_TOKEN,
    Vocabulary,
    apply_unk,
    build_vocabulary,
)
from synthnotes.embeddings import (
    EmbeddingSet,
    SgnsConfig,
    SimilarityBenchmark,
    cosine,
    evaluate_similarity,
)
from synthnotes.experiment import ExperimentConfig, run_experiment
from synthnotes.neural import LstmLmConfig, core, train_lstm_lm
from synthnotes.privacy import PrivacyConfig, analyze_report, s_pdtp_score
from synthnotes.utility import NliConfig, TruecaserConfig, word_case_f1


def verdict(name: str, condition: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if condition else 'FAIL'} {detail}".rstrip())
    assert condition, f"{name} failed: {detail}"


# -----------------------------------------------------------------------
# criterion 1: unigram leave-one-out pipeline vs closed-form oracle


def closed_form_unigram_spdtp(corpus: Corpus, note: Note, vocab: Vocabulary) -> float:
    """Independent computation from raw counts only.

    Mirrors the documented stream convention: one leading end-of-note token
    plus one per note; out-of-vocabulary tokens count as unk.
    """
    def mapped(tokens):
        return [t if t in vocab else vocab.unk_token for t in tokens]

    counts = Counter()
    for n in corpus:
        counts.update(mapped(n.tokens))
    n_notes = len(corpus)
    has_eon = EON_TOKEN in vocab
    note_tokens = Counter(mapped(note.tokens))
    n_full = sum(counts.values()) + (n_notes + 1 if has_eon else 0)
    n_loo = n_full - sum(note_tokens.values()) - (1 if has_eon else 0)
    v = len(vocab)
    best = 0.0
    for tok, k in note_tokens.items():
        c_full = counts[tok] + (0 if tok != EON_TOKEN else 0)
        p_full = (c_full + 1) / (n_full + v)
        p_loo = (c_full - k + 1) / (n_loo + v)
        best = max(best, abs(math.log(p_full) - math.log(p_loo)))
    return best


def test_criterion_1_unigram_loo_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20240131)
    alphabet = [f"w{i}" for i in range(12)]
    checked = 0
    for trial in range(20):
        n_notes = int(rng.integers(4, 51))
        notes = tuple(
            Note(f"n{i}", (tuple(rng.choice(alphabet, size=int(rng.integers(2, 12)))),))
            for i in range(n_notes)
        )
        corpus = Corpus(notes, "train")
        vocab = build_vocabulary(corpus, min_count=2)
        unked = apply_unk(corpus, vocab)
        config = PrivacyConfig(trainer=lambda c: lm.train_unigram(c, vocab),
                               sample_size=min(30, n_notes), seed=int(rng.integers(1 << 30)))
        report = s_pdtp_score(unked, config)
        for record in report.records:
            note = next(n for n in unked if n.id == record.note_id)
            expected = closed_form_unigram_spdtp(unked, note, vocab)
            assert record.s_pdtp == pytest.approx(expected, abs=1e-9)
            checked += 1

    # the hand-derived two-note case over the bare {a, b} token space
    corpus = Corpus((Note("c1", (("a", "b"),)), Note("c2", (("b", "b"),))), "train")
    report = s_pdtp_score(corpus, PrivacyConfig(
        trainer=lambda c: lm.train_unigram(c, ("a", "b")), sample_size=2, seed=0))
    assert report.aggregate == pytest.approx(math.log(4 / 3), abs=1e-9)

    elapsed = time.perf_counter() - start
    verdict("1", elapsed < 5.0,
            f"({checked} folds + hand case agree within 1e-9 in {elapsed:.2f}s)")


# -----------------------------------------------------------------------
# criterion 2: data-independent trainer scores exactly zero


def test_criterion_2_data_independent_zero():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    notes = tuple(
        Note(f"n{i}", (tuple(rng.choice(["a", "b", "c"], size=6)),)) for i in range(12)
    )
    config = PrivacyConfig(trainer=lambda c: lm.UniformModel(("a", "b", "c")),
                           sample_size=10, seed=1)
    report = s_pdtp_score(Corpus(notes, "train"), config)
    elapsed = time.perf_counter() - start
    verdict("2", report.aggregate == 0.0 and elapsed < 1.0,
            f"(aggregate {report.aggregate!r} in {elapsed:.2f}s)")


# -----------------------------------------------------------------------
# criterion 3: LSTM gradients vs central finite differences


def test_criterion_3_lstm_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    vocab_size, hidden, layers, steps, batch = 12, 8, 2, 7, 3
    params = core.init_stack(rng, vocab_size, hidden, hidden, layers,
                             tied=True, init_scale=0.8)
    x = rng.integers(0, vocab_size, size=(steps, batch))
    y = rng.integers(0, vocab_size, size=(steps, batch))
    state = core.zero_state(params, batch)

    def loss_fn():
        logits, _, _ = core.stack_forward(params, x, state)
        return core.xent_loss(logits, y)[0]

    logits, _, cache = core.stack_forward(params, x, state, want_cache=True)
    _, dlogits = core.xent_loss(logits, y)
    grads = core.stack_backward(params, cache, dlogits)

    eps = 1e-5
    coord_rng = np.random.default_rng(7)
    named_p = params.named_arrays()
    named_g = grads.named_arrays()
    worst = 0.0
    for _ in range(100):
        gi = coord_rng.integers(0, len(named_p))
        arr = named_p[gi][1]
        garr = named_g[gi][1]
        idx = np.unravel_index(coord_rng.integers(0, arr.size), arr.shape)
        orig = arr[idx]
        arr[idx] = orig + eps
        hi = loss_fn()
        arr[idx] = orig - eps
        lo = loss_fn()
        arr[idx] = orig
        numeric = (hi - lo) / (2 * eps)
        analytic = garr[idx]
        worst = max(worst, abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6))
    elapsed = time.perf_counter() - start
    verdict("3", worst < 1e-4 and elapsed < 30.0,
            f"(max relative error {worst:.3g} over 100 coordinates in {elapsed:.1f}s)")


# -----------------------------------------------------------------------
# criterion 4: memorization sanity plus the unigram closed form


def test_criterion_4_memorization_sanity():
    start = time.perf_counter()
    sentence = tuple(f"w{i}" for i in range(9)) + (".",)
    corpus = Corpus(tuple(Note(f"n{i}", (sentence,)) for i in range(20)), "train")
    vocab = Vocabulary(tokens=(UNK_TOKEN, EON_TOKEN) + sentence, counts={}, min_count=1)
    config = LstmLmConfig(hidden_size=32, layers=2, dropout=0.0, epochs=200, seed=3,
                          initial_lr=2.0, batch_size=2, bptt=10,
                          lr_decay_policy="medtext2")
    model = train_lstm_lm(corpus, corpus, vocab, config)
    lstm_ppl = lm.perplexity(model, corpus)

    unigram = lm.train_unigram(corpus, vocab)
    unigram_ppl = lm.perplexity(unigram, corpus)
    # closed form: each word appears 20 times; the stream adds 21 eon tokens
    n_stream = 200 + 21
    v = len(vocab)
    per_word = (20 + 1) / (n_stream + v)
    expected = 1.0 / per_word
    elapsed = time.perf_counter() - start
    verdict("4", lstm_ppl < 1.3 and abs(unigram_ppl - expected) < 1e-6 and elapsed < 120.0,
            f"(lstm ppl {lstm_ppl:.4f}, unigram ppl {unigram_ppl:.6f} vs closed form "
            f"{expected:.6f}, {elapsed:.0f}s)")


# -----------------------------------------------------------------------
# criterion 5: desk-scale grid experiment on the template corpus


DESK_CONFIG = dict(
    template_notes=1000,
    grid=("unigram", "lstm:0.0", "lstm:0.5"),
    seed=11,
    lstm=LstmLmConfig(hidden_size=48, layers=2, epochs=20, initial_lr=6.0,
                      lr_decay_policy="medtext2", dtype="float32"),
    privacy_sample_size=5,
    sgns=SgnsConfig(dim=100, window=5, negatives=10, iterations=3),
    emb_eval_min_count=20,
    nli=NliConfig(epochs=30),
    truecase=TruecaserConfig(hidden=48, emb_dim=16, epochs=8, batch_size=8,
                             max_sentences=2500),
)


@pytest.fixture(scope="module")
def desk_experiment(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("desk")
    config = ExperimentConfig(output_dir=str(outdir), **DESK_CONFIG)
    start = time.perf_counter()
    report = run_experiment(config)
    return report, time.perf_counter() - start


def _row(report, model, dropout=None):
    return next(r for r in report.rows if r.model == model and r.dropout == dropout)


def test_criterion_5a_lstm_beats_unigram_perplexity(desk_experiment):
    report, _ = desk_experiment
    unigram = _row(report, "unigram")
    lstm_rows = [r for r in report.rows if r.model == "lstm"]
    ok = all(r.perplexity < unigram.perplexity for r in lstm_rows)
    verdict("5a", ok, f"(lstm {[round(r.perplexity, 2) for r in lstm_rows]} vs "
                      f"unigram {unigram.perplexity:.2f})")


def test_criterion_5b_unigram_has_lowest_privacy_risk(desk_experiment):
    report, _ = desk_experiment
    unigram = _row(report, "unigram")
    lstm_rows = [r for r in report.rows if r.model == "lstm"]
    ok = all(unigram.privacy < r.privacy for r in lstm_rows)
    verdict("5b", ok, f"(unigram {unigram.privacy:.3f} vs "
                      f"lstm {[round(r.privacy, 3) for r in lstm_rows]})")


def test_criterion_5c_dropout_does_not_hurt_privacy(desk_experiment):
    report, _ = desk_experiment
    ok = _row(report, "lstm", 0.5).privacy <= _row(report, "lstm", 0.0).privacy
    verdict("5c", ok, f"(d=0.5 {_row(report, 'lstm', 0.5).privacy:.3f} <= "
                      f"d=0.0 {_row(report, 'lstm', 0.0).privacy:.3f})")


def test_criterion_5d_real_similarity_beats_unigram_synthetic(desk_experiment):
    report, _ = desk_experiment
    real = _row(report, "real")
    unigram = _row(report, "unigram")
    ok = real.similarity > unigram.similarity + 0.1
    verdict("5d", ok, f"(real {real.similarity:.3f} vs unigram-synthetic "
                      f"{unigram.similarity:.3f})")


def test_criterion_5e_real_truecasing_beats_unigram_synthetic(desk_experiment):
    report, _ = desk_experiment
    ok = _row(report, "real").case > _row(report, "unigram").case
    verdict("5e", ok, f"(real {_row(report, 'real').case:.3f} vs unigram-synthetic "
                      f"{_row(report, 'unigram').case:.3f})")


def test_criterion_5_runtime(desk_experiment):
    _, elapsed = desk_experiment
    verdict("5-runtime", elapsed < 15 * 60, f"({elapsed / 60:.1f} min)")


# -----------------------------------------------------------------------
# criterion 6: metric unit oracles


def test_criterion_6_metric_unit_oracles():
    def angled(cos_values):
        vectors = {"q": np.array([1.0, 0.0])}
        for i, c in enumerate(cos_values):
            vectors[f"p{i}"] = np.array([c, math.sqrt(1.0 - c * c)])
        words = tuple(vectors)
        return EmbeddingSet(words=words, matrix=np.array([vectors[w] for w in words]))

    def rho(cos_values, gold):
        emb = angled(cos_values)
        bench = SimilarityBenchmark("t", tuple(("q", f"p{i}", g) for i, g in enumerate(gold)))
        return evaluate_similarity(emb, bench, 1, {w: 99 for w in emb.words})[0]

    ok = True
    ok &= abs(rho([0.1, 0.5, 0.9], [1.0, 2.0, 3.0]) - 1.0) < 1e-9
    ok &= abs(rho([0.9, 0.5, 0.1], [1.0, 2.0, 3.0]) + 1.0) < 1e-9
    ok &= abs(rho([0.2, 0.1, 0.3], [1.0, 2.0, 3.0]) - 0.5) < 1e-9

    f1 = word_case_f1([("John", "saw", "Mary")], [("john", "saw", "Mary")])
    ok &= abs(f1 - 2 / 3) < 1e-9

    v = np.array([0.3, -1.2, 4.0])
    ok &= abs(cosine(v, v) - 1.0) < 1e-9
    ok &= abs(cosine(v, -v) + 1.0) < 1e-9
    ok &= abs(cosine(np.array([2.0, 0.0]), np.array([0.0, 0.5]))) < 1e-9

    uniform = lm.UniformModel([f"t{i}" for i in range(17)])
    corpus = Corpus((Note("n", (("t0", "t4", "t16"),)),), "valid")
    ok &= abs(lm.perplexity(uniform, corpus) - 17.0) < 1e-9

    verdict("6", bool(ok), "(spearman, case F1, cosine and perplexity identities)")


# -----------------------------------------------------------------------
# criterion 7: experiment determinism across reruns and worker counts


def test_criterion_7_experiment_determinism(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("""
[data]
template_notes = 80

[experiment]
seed = 5
grid = unigram, lstm:0.0

[lstm]
hidden = 8
epochs = 2
lr = 1.0
batch = 4
bptt = 20

[privacy]
sample_size = 3

[embeddings]
dim = 12
iterations = 1
negatives = 3
eval_min_count = 3

[nli]
epochs = 2

[truecase]
hidden = 8
emb_dim = 6
epochs = 1
max_sentences = 120
""")
    import os

    reports = {}
    for run_name, jobs in (("first", "1"), ("again", "1"), ("parallel", "4")):
        outdir = tmp_path / ("out-" + run_name)
        os.environ["SYNTHNOTES_OUTDIR"] = str(outdir)
        try:
            assert cli.main(["experiment", "--config", str(ini), "--jobs", jobs]) == 0
        finally:
            del os.environ["SYNTHNOTES_OUTDIR"]
        reports[run_name] = (outdir / "report.json").read_bytes()
    ok = reports["first"] == reports["again"] == reports["parallel"]
    verdict("7", ok, f"({len(reports['first'])} byte reports identical across "
                     f"rerun and --jobs 1/4)")


# -----------------------------------------------------------------------
# criterion 8: analysis fidelity on the hand oracle


def test_criterion_8_analysis_fidelity():
    corpus = Corpus((Note("c1", (("a", "b"),)), Note("c2", (("b", "b"),))), "train")
    report = s_pdtp_score(corpus, PrivacyConfig(
        trainer=lambda c: lm.train_unigram(c, ("a", "b")), sample_size=2, seed=0))
    analysis = analyze_report(report)
    tokens = {r.note_id: r.token for r in analysis.entries}
    ok = (analysis.sign_positive_fraction == 1.0
          and tokens == {"c1": "a", "c2": "b"}
          and analysis.ties == 0)
    verdict("8", ok, f"(sign-positive fraction {analysis.sign_positive_fraction}, "
                     f"argmax tokens {tokens})")
