import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

from synthnotes.corpus import Corpus, EON_TOKEN, Note, UNK_TOKEN, Vocabulary
from synthnotes import lm, modelio
from synthnotes.neural import language_model
from synthnotes.neural import (
    DivergenceError,
    LstmLmConfig,
    TruecaserConfig,
    batched_note_nll,
    batchify,
    core,
    train_char_classifier,
    train_lstm_lm,
)


def tiny_setup(seed=42, init_scale=0.8, tied=True, steps=7, batch=3, vocab=12, hidden=8):
    rng = np.random.default_rng(seed)
    params = core.init_stack(rng, vocab, hidden, hidden, 2, tied=tied,
                             out_dim=None if tied else vocab, init_scale=init_scale)
    x = rng.integers(0, vocab, size=(steps, batch))
    y = rng.integers(0, vocab, size=(steps, batch))
    return rng, params, x, y


def finite_difference_check(params, loss_fn, grads, n_coords, seed=7, eps=1e-5, floor=1e-6):
    """Max relative error between analytic gradients and central differences
    over randomly chosen parameter coordinates."""
    rng = np.random.default_rng(seed)
    named_p = params.named_arrays()
    named_g = grads.named_arrays()
    worst = 0.0
    for _ in range(n_coords):
        gi = rng.integers(0, len(named_p))
        arr = named_p[gi][1]
        garr = named_g[gi][1]
        idx = np.unravel_index(rng.integers(0, arr.size), arr.shape)
        orig = arr[idx]
        arr[idx] = orig + eps
        hi = loss_fn()
        arr[idx] = orig - eps
        lo = loss_fn()
        arr[idx] = orig
        numeric = (hi - lo) / (2 * eps)
        analytic = garr[idx]
        worst = max(worst, abs(numeric - analytic) / max(abs(numeric), abs(analytic), floor))
    return worst


def reference_forward(params, x_ids, state, masks=None, reset_mask=None):
    """Per-timestep float64 reference: logistic gates, one step at a time.
    Returns (logits, final_state, cache dict)."""
    steps, batch = x_ids.shape
    hidden = params.layers[0].wh.shape[0]
    keep = None if reset_mask is None else 1.0 - reset_mask.astype(float)[:, :, None]
    cache = {"x_ids": x_ids, "masks": masks, "keep": keep, "h0": [s[0] for s in state],
             "c0": [s[1] for s in state], "inputs": [], "gates": [], "cells": [],
             "tanh_c": [], "hiddens": []}
    layer_in = params.emb[x_ids]
    if masks is not None:
        layer_in = layer_in * masks[0]
    new_state = []
    for li, layer in enumerate(params.layers):
        h, c = state[li]
        gates = np.empty((4, steps, batch, hidden))
        cs, tcs, hs = (np.empty((steps, batch, hidden)) for _ in range(3))
        x_proj = (layer_in.reshape(steps * batch, -1) @ layer.wx).reshape(steps, batch, -1) + layer.b
        for t in range(steps):
            if keep is not None:
                h = h * keep[t]
                c = c * keep[t]
            z = x_proj[t] + h @ layer.wh
            i = expit(z[:, :hidden])
            f = expit(z[:, hidden:2 * hidden])
            g = np.tanh(z[:, 2 * hidden:3 * hidden])
            o = expit(z[:, 3 * hidden:])
            c = f * c + i * g
            tc = np.tanh(c)
            h = o * tc
            gates[:, t] = i, f, g, o
            cs[t], tcs[t], hs[t] = c, tc, h
        new_state.append((h, c))
        for key, val in (("inputs", layer_in), ("gates", gates), ("cells", cs),
                         ("tanh_c", tcs), ("hiddens", hs)):
            cache[key].append(val)
        layer_in = hs if masks is None else hs * masks[li + 1]
    cache["top"] = layer_in
    out_w = params.emb.T if params.tied else params.out_w
    logits = (layer_in.reshape(steps * batch, -1) @ out_w + params.out_b).reshape(steps, batch, -1)
    return logits, new_state, cache


def reference_backward(params, cache, dlogits):
    """Per-timestep float64 reference: every product inside the reverse
    loop, embedding rows scattered with np.add.at."""
    steps, batch, _ = dlogits.shape
    hidden = params.layers[0].wh.shape[0]
    keep = cache["keep"]
    grads = {name: np.zeros_like(arr) for name, arr in params.named_arrays()}
    out_w = params.emb.T if params.tied else params.out_w
    dl_flat = dlogits.reshape(steps * batch, -1)
    d_out_w = cache["top"].reshape(steps * batch, -1).T @ dl_flat
    grads["out_b"] += dl_flat.sum(axis=0)
    grads["emb" if params.tied else "out_w"] += d_out_w.T if params.tied else d_out_w
    d_layer_out = (dl_flat @ out_w.T).reshape(steps, batch, -1)
    if cache["masks"] is not None:
        d_layer_out = d_layer_out * cache["masks"][len(params.layers)]
    for li in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[li]
        i_g, f_g, g_g, o_g = cache["gates"][li]
        d_x_in = np.empty_like(cache["inputs"][li])
        dh_next = np.zeros((batch, hidden))
        dc_next = np.zeros((batch, hidden))
        for t in range(steps - 1, -1, -1):
            dh = d_layer_out[t] + dh_next
            i, f, g, o = i_g[t], f_g[t], g_g[t], o_g[t]
            tc = cache["tanh_c"][li][t]
            c_prev = cache["cells"][li][t - 1] if t > 0 else cache["c0"][li]
            h_prev = cache["hiddens"][li][t - 1] if t > 0 else cache["h0"][li]
            if keep is not None:
                c_prev = c_prev * keep[t]
                h_prev = h_prev * keep[t]
            dc = dh * o * (1.0 - tc * tc) + dc_next
            dz = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                                 dc * i * (1.0 - g * g), dh * tc * o * (1.0 - o)], axis=1)
            grads[f"l{li}.wx"] += cache["inputs"][li][t].T @ dz
            grads[f"l{li}.wh"] += h_prev.T @ dz
            grads[f"l{li}.b"] += dz.sum(axis=0)
            d_x_in[t] = dz @ layer.wx.T
            dc_next = dc * f
            dh_next = dz @ layer.wh.T
            if keep is not None:
                dc_next = dc_next * keep[t]
                dh_next = dh_next * keep[t]
        d_layer_out = d_x_in
        if cache["masks"] is not None:
            d_layer_out = d_layer_out * cache["masks"][li]
    np.add.at(grads["emb"], cache["x_ids"].reshape(-1), d_layer_out.reshape(steps * batch, -1))
    return grads


def reference_xent(logits, targets, mask=None):
    """Softmax, then log of the target probability; mean over the mask."""
    probs = core.softmax(logits).reshape(-1, logits.shape[-1])
    rows = np.arange(probs.shape[0])
    tflat = targets.reshape(-1)
    mflat = np.ones(rows.size, dtype=bool) if mask is None else mask.reshape(-1)
    positions = int(mflat.sum())
    lp = np.log(probs[rows, tflat])
    probs[rows, tflat] -= 1.0
    probs[~mflat] = 0.0
    return -float(lp[mflat].sum()) / positions, (probs / positions).reshape(logits.shape)


def assert_rel_close(actual, expected, rtol=1e-12):
    """Max abs difference within rtol of the reference array's max abs value."""
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert actual.shape == expected.shape
    assert float(np.max(np.abs(actual - expected))) <= rtol * scale


KERNEL_CASES = {
    "tied": dict(tied=True),
    "untied": dict(tied=False),
    "dropout-resets": dict(tied=True, dropout=0.3, resets=0.25),
    "carried-state-resets": dict(tied=False, carried=True, resets=0.2),
    "all-features": dict(tied=True, carried=True, dropout=0.4, resets=0.3),
    "single-step": dict(tied=True, steps=1, batch=1, carried=True),
    "tagger": dict(tied=False, steps=13, batch=8, vocab=30, out_dim=2, hidden=10, layers=1,
                   dropout=0.2, mask=True),
}


@pytest.fixture
def batch_row_memory(monkeypatch):
    """Every hidden size runs the recurrence in batch-row memory."""
    monkeypatch.setattr(core, "BATCH_ROW_MIN_HIDDEN", 0)


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_in_batch_row_memory_matches_reference(case, batch_row_memory):
    test_kernel_matches_per_timestep_reference(case)


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_matches_per_timestep_reference(case):
    opts = dict(tied=True, steps=7, batch=3, vocab=12, hidden=8, layers=2, out_dim=None,
                carried=False, dropout=0.0, resets=0.0, mask=False)
    opts.update(KERNEL_CASES[case])
    rng = np.random.default_rng(sorted(KERNEL_CASES).index(case))
    steps, batch, hidden = opts["steps"], opts["batch"], opts["hidden"]
    out_dim = opts["out_dim"] or opts["vocab"]
    params = core.init_stack(rng, opts["vocab"], hidden, hidden, opts["layers"],
                             out_dim=None if opts["tied"] else out_dim, tied=opts["tied"],
                             init_scale=0.8)
    x = rng.integers(0, opts["vocab"], size=(steps, batch))
    y = rng.integers(0, out_dim, size=(steps, batch))
    if opts["carried"]:
        state = [(rng.standard_normal((batch, hidden)) * 0.5,
                  rng.standard_normal((batch, hidden)) * 0.5) for _ in range(opts["layers"])]
    else:
        state = core.zero_state(params, batch)
    masks = core.make_dropout_masks(rng, opts["dropout"], steps, batch, params)
    reset = rng.random((steps, batch)) < opts["resets"] if opts["resets"] else None
    mask = rng.random((steps, batch)) < 0.7 if opts["mask"] else None

    ref_logits, ref_state, ref_cache = reference_forward(params, x, state, masks, reset)
    logits, new_state, cache = core.stack_forward(params, x, state, masks, want_cache=True,
                                                  reset_mask=reset)
    eval_logits, eval_state, none = core.stack_forward(params, x, state, masks,
                                                       reset_mask=reset)
    assert none is None
    assert_rel_close(logits, ref_logits)
    assert np.array_equal(eval_logits, logits)
    for (h, c), (rh, rc), (eh, ec) in zip(new_state, ref_state, eval_state):
        assert_rel_close(h, rh)
        assert_rel_close(c, rc)
        assert np.array_equal(eh, h) and np.array_equal(ec, c)

    ref_loss, ref_dlogits = reference_xent(ref_logits, y, mask)
    loss, dlogits = core.xent_loss(logits, y, mask)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert_rel_close(dlogits, ref_dlogits)

    ref_grads = reference_backward(params, ref_cache, ref_dlogits)
    grads = core.stack_backward(params, cache, ref_dlogits)
    named = grads.named_arrays()
    assert [name for name, _ in named] == list(ref_grads)
    for name, arr in named:
        assert arr.dtype == np.float64, name
        assert_rel_close(arr, ref_grads[name])

    # written into a lent gradient set: the same bits, in the lent arrays
    lent = grads.copy()
    for _, arr in lent.named_arrays():
        arr.fill(np.nan)
    into = core.stack_backward(params, cache, ref_dlogits, out=lent)
    for (name, arr), (_, lent_arr), (_, want) in zip(into.named_arrays(), lent.named_arrays(),
                                                     named):
        assert np.array_equal(arr, want), name
        assert (arr is lent_arr) == (name != "emb"), name


class TestForward:
    def test_zero_weights_give_uniform(self):
        _, params, x, _ = tiny_setup()
        for _, arr in params.named_arrays():
            arr[...] = 0.0
        logits, _, _ = core.stack_forward(params, x, core.zero_state(params, x.shape[1]))
        probs = core.softmax(logits)
        np.testing.assert_allclose(probs, 1.0 / 12, atol=1e-12)

    def test_eval_deterministic(self):
        _, params, x, _ = tiny_setup()
        state = core.zero_state(params, x.shape[1])
        a, _, _ = core.stack_forward(params, x, state)
        b, _, _ = core.stack_forward(params, x, state)
        assert np.array_equal(a, b)

    def test_distributions_normalize_on_random_weights(self):
        rng, params, _, _ = tiny_setup(seed=3)
        for _ in range(20):
            x = rng.integers(0, 12, size=(5, 4))
            logits, _, _ = core.stack_forward(params, x, core.zero_state(params, 4))
            sums = core.softmax(logits).sum(axis=-1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_dimension_mismatch_rejected(self):
        _, params, _, _ = tiny_setup()
        with pytest.raises(ValueError):
            core.stack_forward(params, np.zeros(5, dtype=int), core.zero_state(params, 1))

    def test_batched_note_nll_matches_notes_scored_alone(self):
        rng, params, _, _ = tiny_setup(seed=13)
        eon = 0
        notes = [rng.integers(1, 12, size=n).tolist() for n in (5, 1, 9, 3, 1, 7)]
        total, count, per_note = batched_note_nll(params, notes, eon)
        for ids, lp in zip(notes, per_note):
            # reference: one-stream steps from a zero state, seeded by <eon>
            state, token, expected = core.zero_state(params, 1), eon, []
            for target in ids:
                probs, state = core.lstm_step(params, np.array([token]), state,
                                              np.array([False]))
                expected.append(np.log(probs[0, target]))
                token = target
            np.testing.assert_allclose(lp, expected, rtol=0, atol=1e-12)
        assert count == sum(len(ids) for ids in notes)
        assert total == pytest.approx(-sum(lp.sum() for lp in per_note), abs=1e-12)

    def test_batched_note_nll_in_batch_row_memory(self, batch_row_memory):
        self.test_batched_note_nll_matches_notes_scored_alone()

    def test_batched_step_rows_in_batch_row_memory(self, batch_row_memory):
        self.test_batched_step_rows_equal_streams_stepped_alone()

    def test_batched_step_rows_equal_streams_stepped_alone(self):
        rng, params, _, _ = tiny_setup(seed=21, init_scale=0.5)
        model = language_model.LstmLmModel((EON_TOKEN, *(f"w{i}" for i in range(11))),
                                           LstmLmConfig(hidden_size=8), params)
        eon, streams, steps = model.eon_id, 4, 20
        feed = rng.integers(1, 12, size=(steps, streams))
        feed[0] = eon
        # each column is fed <eon> at its own steps
        for t, j in ((3, 0), (5, 2), (8, 1), (8, 3), (12, 0), (17, 2)):
            feed[t, j] = eon
        first = model.step(np.array([eon]), model.start_state(1))[0][0]
        state = model.start_state(streams)
        alone = [model.start_state(1) for _ in range(streams)]
        for t in range(steps):
            dists, state = model.step(feed[t], state)
            assert dists.shape == (streams, model.vocab_size)
            for j in range(streams):
                row, alone[j] = model.step(feed[t, j:j + 1], alone[j])
                np.testing.assert_allclose(dists[j], row[0], rtol=0, atol=1e-12)
                if feed[t, j] == eon:
                    np.testing.assert_allclose(dists[j], first, rtol=0, atol=1e-12)


def run_in_memory_order(monkeypatch, min_hidden, params, x, y, state, masks, reset):
    """Logits, final states and gradients of a training pass, plus the
    inference pass's logits and final states, with the batch-row threshold
    at min_hidden; the caller's state arrays must come back unchanged."""
    monkeypatch.setattr(core, "BATCH_ROW_MIN_HIDDEN", min_hidden)
    before = [a.copy() for pair in state for a in pair]
    logits, new_state, cache = core.stack_forward(params, x, state, masks, want_cache=True,
                                                  reset_mask=reset)
    eval_logits, eval_state, _ = core.stack_forward(params, x, state, reset_mask=reset)
    _, dlogits = core.xent_loss(logits, y)
    grads = core.stack_backward(params, cache, dlogits)
    assert all(np.array_equal(a, b) for a, b in zip(before, (b for pair in state for b in pair)))
    forward = [logits, eval_logits, *(a for pair in new_state + eval_state for a in pair)]
    return cache.batch_rows, forward, [arr for _, arr in grads.named_arrays()]


def memory_order_case(hidden, dtype, batch, steps=4, vocab=30, seed=5):
    rng = np.random.default_rng(seed)
    params = core.init_stack(rng, vocab, hidden, hidden, 2, dtype=dtype)
    x = rng.integers(0, vocab, size=(steps, batch))
    y = rng.integers(0, vocab, size=(steps, batch))
    state = [tuple((rng.standard_normal((batch, hidden)) * 0.5).astype(dtype) for _ in "hc")
             for _ in range(2)]
    masks = core.make_dropout_masks(rng, 0.5, steps, batch, params)
    reset = rng.random((steps, batch)) < 0.3
    reset[1, 0] = True
    return params, x, y, state, masks, reset


@pytest.mark.parametrize("hidden", [core.BATCH_ROW_MIN_HIDDEN, 650])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("batch", [1, 3])
def test_memory_orders_bit_identical_from_threshold(monkeypatch, hidden, dtype, batch):
    case = memory_order_case(hidden, dtype, batch)
    chosen = run_in_memory_order(monkeypatch, core.BATCH_ROW_MIN_HIDDEN, *case)
    gate_rows = run_in_memory_order(monkeypatch, math.inf, *case)
    assert chosen[0] and not gate_rows[0]
    for got, want in zip(chosen[1] + chosen[2], gate_rows[1] + gate_rows[2]):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_memory_orders_small_hidden(monkeypatch):
    # below the threshold the backward product `wh @ dz[t]` takes another
    # BLAS path in batch-row memory, so gradients may differ in the last bit
    case = memory_order_case(48, np.float64, 20)
    chosen = run_in_memory_order(monkeypatch, core.BATCH_ROW_MIN_HIDDEN, *case)
    batch_rows = run_in_memory_order(monkeypatch, 0, *case)
    assert not chosen[0] and batch_rows[0]
    for got, want in zip(batch_rows[1], chosen[1]):
        assert np.array_equal(got, want)
    for got, want in zip(batch_rows[2], chosen[2]):
        assert_rel_close(got, want)


class TestGradients:
    def test_against_finite_differences(self):
        _, params, x, y = tiny_setup()
        state = core.zero_state(params, x.shape[1])

        def loss_fn():
            logits, _, _ = core.stack_forward(params, x, state)
            return core.xent_loss(logits, y)[0]

        logits, _, cache = core.stack_forward(params, x, state, want_cache=True)
        _, dlogits = core.xent_loss(logits, y)
        grads = core.stack_backward(params, cache, dlogits)
        assert finite_difference_check(params, loss_fn, grads, 60) < 1e-4

    def test_with_dropout_masks_and_resets(self):
        rng, params, x, y = tiny_setup(seed=11)
        state = [(rng.standard_normal((3, 8)) * 0.3, rng.standard_normal((3, 8)) * 0.3)
                 for _ in range(2)]
        masks = core.make_dropout_masks(rng, 0.3, 7, 3, params)
        reset = rng.random((7, 3)) < 0.25

        def loss_fn():
            logits, _, _ = core.stack_forward(params, x, state, masks, reset_mask=reset)
            return core.xent_loss(logits, y)[0]

        logits, _, cache = core.stack_forward(params, x, state, masks,
                                              want_cache=True, reset_mask=reset)
        _, dlogits = core.xent_loss(logits, y)
        grads = core.stack_backward(params, cache, dlogits)
        assert finite_difference_check(params, loss_fn, grads, 60) < 1e-4

    def test_untied_head(self):
        _, params, x, y = tiny_setup(tied=False)
        state = core.zero_state(params, x.shape[1])

        def loss_fn():
            logits, _, _ = core.stack_forward(params, x, state)
            return core.xent_loss(logits, y)[0]

        logits, _, cache = core.stack_forward(params, x, state, want_cache=True)
        _, dlogits = core.xent_loss(logits, y)
        grads = core.stack_backward(params, cache, dlogits)
        assert finite_difference_check(params, loss_fn, grads, 60) < 1e-4

    def test_masked_positions_get_zero_gradient(self):
        _, params, x, y = tiny_setup()
        logits, _, _ = core.stack_forward(params, x, core.zero_state(params, 3))
        mask = np.zeros(x.shape, dtype=bool)
        loss, dlogits = core.xent_loss(logits, y, mask)
        assert loss == 0.0
        assert not dlogits.any()

    def test_descent_for_small_enough_lr(self):
        _, params, x, y = tiny_setup(seed=5)
        state = core.zero_state(params, 3)
        logits, _, cache = core.stack_forward(params, x, state, want_cache=True)
        loss0, dlogits = core.xent_loss(logits, y)
        grads = core.stack_backward(params, cache, dlogits)
        decreased = False
        for lr in (1.0, 0.1, 0.01, 0.001):
            trial = params.copy()
            core.sgd_step(trial, grads, lr)
            logits, _, _ = core.stack_forward(trial, x, state)
            if core.xent_loss(logits, y)[0] < loss0:
                decreased = True
                break
        assert decreased

    def test_clipping_bounds_global_norm(self):
        _, params, x, y = tiny_setup(seed=9, init_scale=2.0)
        logits, _, cache = core.stack_forward(params, x, core.zero_state(params, 3),
                                              want_cache=True)
        _, dlogits = core.xent_loss(logits, y)
        grads = core.stack_backward(params, cache, dlogits)
        core.clip_gradients(grads, 0.25)
        assert core.global_norm(grads) <= 0.25 + 1e-12

    def test_inverted_dropout_expectation(self):
        rng, params, x, _ = tiny_setup(seed=21)
        state = core.zero_state(params, 3)
        plain, _, _ = core.stack_forward(params, x, state)
        acc = np.zeros_like(plain)
        n = 400
        for _ in range(n):
            masks = core.make_dropout_masks(rng, 0.3, 7, 3, params)
            out, _, _ = core.stack_forward(params, x, state, masks)
            acc += out
        # evaluation output approximates the mean training-mode output
        assert np.mean(np.abs(acc / n - plain)) < 0.05


def repeated_sentence_corpus(n_notes=20):
    sent = tuple(f"w{i}" for i in range(9)) + (".",)
    notes = tuple(Note(f"n{i}", (sent,)) for i in range(n_notes))
    vocab = Vocabulary(tokens=(UNK_TOKEN, EON_TOKEN) + sent, counts={}, min_count=1)
    return Corpus(notes, "train"), vocab


def random_valid_corpus(vocab, n_notes=70, seed=8):
    """Notes of 1 to 11 random words, so they fill padded groups unevenly."""
    rng = np.random.default_rng(seed)
    words = vocab.tokens[2:]
    return Corpus(tuple(Note(f"v{i}", (tuple(rng.choice(words, size=rng.integers(1, 12))),))
                        for i in range(n_notes)), "valid")


class TestTrainLstm:
    def test_same_seed_identical_parameters(self):
        corpus, vocab = repeated_sentence_corpus()
        config = LstmLmConfig(hidden_size=8, layers=2, epochs=3, seed=12,
                              initial_lr=1.0, batch_size=2, bptt=10)
        a = train_lstm_lm(corpus, corpus, vocab, config)
        b = train_lstm_lm(corpus, corpus, vocab, config)
        for (_, pa), (_, pb) in zip(a.params.named_arrays(), b.params.named_arrays()):
            assert np.array_equal(pa, pb)

    def test_dropout_one_rejected(self):
        with pytest.raises(ValueError):
            LstmLmConfig(dropout=1.0)

    def test_unknown_dtype_rejected(self):
        assert LstmLmConfig(dtype="float32").np_dtype is np.float32
        assert LstmLmConfig(dtype="float64").np_dtype is np.float64
        with pytest.raises(ValueError, match="dtype"):
            LstmLmConfig(dtype="flaot32")

    def test_tied_embedding_is_single_storage(self):
        corpus, vocab = repeated_sentence_corpus()
        config = LstmLmConfig(hidden_size=8, layers=2, epochs=1, seed=0,
                              initial_lr=0.5, batch_size=2, bptt=10)
        model = train_lstm_lm(corpus, corpus, vocab, config)
        assert model.params.out_w is None

    def test_divergence_reported_with_location(self, monkeypatch):
        corpus, vocab = repeated_sentence_corpus()
        monkeypatch.setattr(language_model, "GRAD_CLIP", 1e18)
        config = LstmLmConfig(hidden_size=8, layers=2, epochs=2, seed=0,
                              initial_lr=1e18, batch_size=2, bptt=10)
        with pytest.raises(DivergenceError, match="epoch"):
            train_lstm_lm(corpus, corpus, vocab, config)

    def test_medtext103_lr_floor_and_check_count(self, monkeypatch):
        corpus, vocab = repeated_sentence_corpus()
        lrs = []
        valid_calls = []
        sgd_step, note_nll = core.sgd_step, language_model.batched_note_nll

        def recording_step(params, grads, lr):
            lrs.append(lr)
            sgd_step(params, grads, lr)

        def counting_valid(*args):
            valid_calls.append(len(lrs))
            return note_nll(*args)

        monkeypatch.setattr(core, "sgd_step", recording_step)
        monkeypatch.setattr(language_model, "batched_note_nll", counting_valid)
        epochs = 2
        # MIN_IMPROVEMENT above any achievable gain: every check decays the lr
        monkeypatch.setattr(language_model, "MIN_LR", 0.5)
        monkeypatch.setattr(language_model, "MIN_IMPROVEMENT", 1e9)
        config = LstmLmConfig(hidden_size=4, layers=1, epochs=epochs, seed=3, initial_lr=1.0,
                              batch_size=2, bptt=1, lr_decay_policy="medtext103")
        model = train_lstm_lm(corpus, corpus, vocab, config)
        n_chunks = len(lrs) // epochs
        assert n_chunks > 80  # so that checks are spaced more than one chunk apart
        check_every = n_chunks // 40
        assert check_every == 2
        # n_chunks // check_every in-epoch checks plus one at each epoch end
        assert len(valid_calls) == epochs * (n_chunks // check_every + 1)
        assert valid_calls[0] == check_every
        assert min(lrs) == language_model.MIN_LR
        assert lrs[-1] == language_model.MIN_LR
        assert all(h["lr"] >= language_model.MIN_LR for h in model.history)

    def test_medtext103_epoch_end_reuses_last_chunk_check(self, monkeypatch):
        """A check on an epoch's last chunk serves as the epoch-end check too:
        no step runs between them, so the parameters are scored once."""
        corpus, vocab = repeated_sentence_corpus()
        nlls = []
        note_nll = language_model.batched_note_nll

        def recording_valid(*args):
            total, count, log_probs = note_nll(*args)
            nlls.append(total / count)
            return total, count, log_probs

        monkeypatch.setattr(language_model, "batched_note_nll", recording_valid)
        config = LstmLmConfig(hidden_size=4, layers=1, epochs=2, seed=3, initial_lr=1.0,
                              batch_size=2, bptt=10, lr_decay_policy="medtext103")
        model = train_lstm_lm(corpus, corpus, vocab, config)
        # 11 chunks an epoch, each one checked (check_every 1), and no extra
        # pass at either epoch end
        assert len(nlls) == 22
        lr, last_nll, epoch_ends = config.initial_lr, math.inf, []
        for i, nll in enumerate(nlls):
            if last_nll - nll < language_model.MIN_IMPROVEMENT:
                lr = max(lr / 1.2, language_model.MIN_LR)
            last_nll = nll
            if i % 11 == 10:
                epoch_ends.append({"lr": lr, "valid_ppl": math.exp(nll)})
        assert [{k: h[k] for k in ("lr", "valid_ppl")} for h in model.history] == epoch_ends

    def test_parameters_copied_at_most_once(self, monkeypatch):
        """Training keeps one copy of the parameters at most, filled in place
        at each improving check, and none when only the last check improves."""
        corpus, vocab = repeated_sentence_corpus()
        valid = random_valid_corpus(vocab)
        copies = []
        stack_copy = core.StackParams.copy

        def counting_copy(params):
            copies.append(params)
            return stack_copy(params)

        monkeypatch.setattr(core.StackParams, "copy", counting_copy)

        def train(epochs):
            copies.clear()
            config = LstmLmConfig(hidden_size=8, layers=2, epochs=epochs, seed=0,
                                  initial_lr=3.0, batch_size=2, bptt=10)
            model = train_lstm_lm(corpus, valid, vocab, config)
            return len(copies), model

        assert train(1)[0] == 0
        n_copies, three = train(3)
        ppls = [h["valid_ppl"] for h in three.history]
        assert ppls[0] > ppls[1] > ppls[2]  # every epoch improves
        assert n_copies == 1
        # the fourth epoch does not improve: the copy holds the third's parameters
        n_copies, four = train(4)
        assert four.history[:3] == three.history and four.history[3]["valid_ppl"] > ppls[2]
        assert n_copies == 1
        for (_, kept), (_, third) in zip(four.params.named_arrays(), three.params.named_arrays()):
            assert np.array_equal(kept, third)

    def test_no_improving_check_keeps_initial_parameters(self, monkeypatch):
        corpus, vocab = repeated_sentence_corpus()
        note_nll = language_model.batched_note_nll

        def nan_total(*args):
            _, count, log_probs = note_nll(*args)
            return math.nan, count, log_probs

        monkeypatch.setattr(language_model, "batched_note_nll", nan_total)
        config = LstmLmConfig(hidden_size=8, layers=2, epochs=2, seed=4, initial_lr=1.0,
                              batch_size=2, bptt=10)
        model = train_lstm_lm(corpus, corpus, vocab, config)
        initial = core.init_stack(np.random.default_rng(config.seed), model.vocab_size, 8, 8, 2)
        assert model._kept_valid is None
        for (_, kept), (_, init) in zip(model.params.named_arrays(), initial.named_arrays()):
            assert np.array_equal(kept, init)
            assert not kept.flags.writeable

    def test_training_memory_peak(self):
        """A one-epoch training holds the live parameters and one gradient set,
        and no kept copy: its traced peak stays within three times the
        parameter bytes (4.1 times when the set-up and the check each copied
        the parameters and two gradient sets overlapped)."""
        corpus, vocab = repeated_sentence_corpus()
        config = LstmLmConfig(hidden_size=256, layers=2, epochs=1, seed=0, initial_lr=1.0,
                              batch_size=2, bptt=10)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            model = train_lstm_lm(corpus, corpus, vocab, config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        param_bytes = sum(arr.nbytes for _, arr in model.params.named_arrays())
        assert peak <= 3 * param_bytes

    def test_history_and_lr_policy(self):
        corpus, vocab = repeated_sentence_corpus()
        config = LstmLmConfig(hidden_size=8, layers=2, epochs=6, seed=1,
                              initial_lr=2.0, batch_size=2, bptt=10,
                              lr_decay_policy="medtext2")
        model = train_lstm_lm(corpus, corpus, vocab, config)
        lrs = [h["lr"] for h in model.history]
        assert len(lrs) == 6
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))  # non-increasing
        for a, b in zip(lrs, lrs[1:]):
            assert b == a or b == pytest.approx(a / 4.0)

    def test_validation_loss_is_reported_perplexity(self):
        """Training validation and lm.perplexity are one computation: the
        same float64 note-order sum, in float32 too."""
        corpus, vocab = repeated_sentence_corpus()
        valid = random_valid_corpus(vocab)
        config = LstmLmConfig(hidden_size=8, layers=2, epochs=3, seed=2, initial_lr=1.0,
                              batch_size=2, bptt=10, dtype="float32")
        model = train_lstm_lm(corpus, valid, vocab, config)
        ids = [model.encode_note(note) for note in valid]
        ppl = lm.perplexity(model, valid)
        total, count, _ = batched_note_nll(model.params, ids, model.eon_id)
        assert math.exp(total / count) == ppl
        assert min(h["valid_ppl"] for h in model.history) == ppl

    @pytest.mark.parametrize("dtype", language_model.DTYPES)
    @pytest.mark.parametrize("policy", language_model.LR_POLICIES)
    def test_kept_validation_pass_is_reused(self, policy, dtype, tmp_path, monkeypatch):
        """The trained model hands back its kept validation log-probs for the
        validation notes under the kept parameters, and recomputes otherwise."""
        corpus, vocab = repeated_sentence_corpus()
        valid = random_valid_corpus(vocab)
        config = LstmLmConfig(hidden_size=8, layers=2, epochs=3, seed=5, initial_lr=1.0,
                              batch_size=2, bptt=10, lr_decay_policy=policy, dtype=dtype)
        model = train_lstm_lm(corpus, valid, vocab, config)
        modelio.save_model(model, tmp_path / "lm.ptlm")
        reloaded = modelio.load_model(tmp_path / "lm.ptlm")

        calls = []
        note_nll = language_model.batched_note_nll

        def counting(*args):
            calls.append(len(args[1]))
            return note_nll(*args)

        monkeypatch.setattr(language_model, "batched_note_nll", counting)

        def calls_made(fn, *args):
            calls.clear()
            result = fn(*args)
            return len(calls), result

        n, ppl = calls_made(lm.perplexity, model, valid)
        assert n == 0
        assert calls_made(lm.perplexity, reloaded, valid) == (1, ppl)
        for other in (corpus, Corpus(valid.notes[::-1], "valid"),
                      Corpus(valid.notes[1:], "valid")):
            assert calls_made(lm.perplexity, model, other)[0] == 1

        # a caller writing into the returned arrays leaves the next result alone
        ids = [model.encode_note(note) for note in valid]
        first = model.notes_log_probs(ids)
        expected = [lp.copy() for lp in first]
        for lp in first:
            lp[:] = 0.0
        assert all(np.array_equal(a, b) for a, b in zip(model.notes_log_probs(ids), expected))
        # the kept parameters are read-only; new ones are scored afresh
        with pytest.raises(ValueError):
            model.params.emb[0, 0] = 0.0
        model.params = model.params.copy()
        assert calls_made(lm.perplexity, model, valid)[0] == 1

    def test_batchify_rejects_tiny_streams(self):
        with pytest.raises(ValueError):
            batchify([1, 2, 3], batch_size=4)


class TestCharTagger:
    def test_memorizes_single_pair(self):
        seq = [1, 2, 3, 4, 2, 1, 5, 3]
        labels = [0, 1, 0, 1, 1, 0, 0, 1]
        config = TruecaserConfig(hidden=24, emb_dim=8, epochs=150, lr=1.0,
                                 batch_size=1, seed=2)
        tagger = train_char_classifier([seq], [labels], n_symbols=6, config=config)
        assert list(tagger.predict(seq)) == labels

    def test_distributions_sum_to_one(self):
        config = TruecaserConfig(hidden=8, emb_dim=4, epochs=2, seed=0)
        tagger = train_char_classifier([[1, 2, 1]], [[0, 1, 0]], n_symbols=3, config=config)
        dist = tagger.label_distributions([1, 2, 2, 1])
        np.testing.assert_allclose(dist.sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic_under_seed(self):
        config = TruecaserConfig(hidden=8, emb_dim=4, epochs=3, seed=6)
        a = train_char_classifier([[1, 2, 1]], [[0, 1, 0]], n_symbols=3, config=config)
        b = train_char_classifier([[1, 2, 1]], [[0, 1, 0]], n_symbols=3, config=config)
        for (_, pa), (_, pb) in zip(a.params.named_arrays(), b.params.named_arrays()):
            assert np.array_equal(pa, pb)

    def test_divergence_reported(self):
        seqs = [[1, 2, 3, 4, 2, 1], [3, 3, 1, 2]] * 4
        labels = [[0, 1, 0, 1, 1, 0], [1, 0, 0, 1]] * 4
        config = TruecaserConfig(hidden=8, emb_dim=4, epochs=4, lr=1e18, batch_size=2,
                                 seed=0)
        with pytest.raises(DivergenceError, match="epoch"):
            train_char_classifier(seqs, labels, n_symbols=5, config=config)

    def test_misaligned_labels_rejected(self):
        config = TruecaserConfig(hidden=8, emb_dim=4, epochs=1, seed=0)
        with pytest.raises(ValueError):
            train_char_classifier([[1, 2]], [[0]], n_symbols=3, config=config)
