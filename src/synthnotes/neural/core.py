"""Minimal numerical core: a multi-layer LSTM stack with an embedding input,
a softmax head (optionally tied to the embedding), inverted dropout, manual
reverse-mode gradients, global-norm clipping, SGD, and the one training step
that the word language model and the character tagger share.

Everything is float64 by default; float32 is available behind the `dtype`
argument, conformance tests run in float64. Gate order in the
packed weight matrices is [input, forget, cell, output].

The kernel is shaped by its per-call cost at small sizes (T=35, B=20,
H=48): there, time goes to numpy calls, not arithmetic.

- **Gate-row shapes, two memory orders.** The recurrence runs on
  transposed per-step blocks, (H, B) states and a (4H, B) gate block, so
  every gate is a row block and the per-step code is one code for both
  orders. The order of the (T, rows, B) step arrays is chosen once per
  call, from the hidden size alone:
  - Below `BATCH_ROW_MIN_HIDDEN` they are C-ordered ("gate-row memory").
    A step is call-bound there, and every gate is contiguous, so each
    per-step call is a plain elementwise call over contiguous memory.
    Each layer transposes its input projection and the gradient of its
    output into this order once per chunk.
  - From it on, a step is bound by its products, and the same shapes are
    transposed views of C-ordered (T, B, rows) arrays ("batch-row
    memory"). numpy then writes the recurrent product as h_rows @ wh, its
    fast orientation (1.58 against 2.24 ms at H=650, B=20, float64, one
    BLAS thread), and the projection, the hidden states, the output
    gradient and dz need no transposing copy.
  Inputs, outputs and weight gradients keep the (T, B, features) layout.
  Without a cache, batch-row memory reuses one gate, cell and tanh(c)
  block per layer across the steps. From the threshold up, the two orders
  give bit-identical logits and states, and bit-identical gradients for
  chunks of two or more steps. Where BLAS is handed differently laid out
  operands, gradients can differ in the last bit: below the threshold in
  the backward product `wh @ dz[t]` (hence no lower threshold), and in a
  one-step chunk, where gate-row memory leaves dz transposed.
- **One activation call per step.** All four gates come from a single
  `tanh` over the packed pre-activation block, through the identity
  sigmoid(z) = 0.5 * tanh(z / 2) + 0.5: the block is scaled by
  [1/2, 1/2, 1, 1/2] per gate before the `tanh`, then scaled again and
  shifted by [1/2, 1/2, 0, 1/2]. Halving is exact in binary floating
  point, so a sigmoid gate differs from a direct logistic only by the
  rounding of `tanh` and of the final add.
- **Only the recurrence stays in the reverse loop.** Every factor of the
  gate gradients that does not depend on the carried (dh, dc) is computed
  for all T steps at once before the loop: the gate derivatives, the
  previous cell and hidden states with the reset factor `keep` applied,
  o * (1 - tanh(c)^2) and f * keep. The loop only fills the gate-gradient
  buffer `dz`, in place over the gate-derivative factors, and makes the
  one product that feeds the next step back, `wh @ dz[t]`. The weight,
  bias and input gradients are then one product (or sum) each per layer
  over the whole chunk, and the embedding gradient one sparse one-hot
  product.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import sparse


class LayerParams:
    """Weights of one LSTM layer: wx (D,4H), wh (H,4H), b (4H,)."""

    __slots__ = ("wx", "wh", "b")

    def __init__(self, wx, wh, b):
        self.wx = wx
        self.wh = wh
        self.b = b


class StackParams:
    """Parameters of the full stack.

    `out_w` is None when the output projection is tied to the embedding,
    in which case logits use the transpose view of `emb` (single storage).
    """

    __slots__ = ("emb", "layers", "out_w", "out_b")

    def __init__(self, emb, layers, out_w, out_b):
        self.emb = emb
        self.layers = layers
        self.out_w = out_w
        self.out_b = out_b

    @property
    def tied(self) -> bool:
        return self.out_w is None

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Fixed-order (name, array) pairs; the serialization order."""
        pairs = [("emb", self.emb)]
        for i, layer in enumerate(self.layers):
            pairs += [(f"l{i}.wx", layer.wx), (f"l{i}.wh", layer.wh), (f"l{i}.b", layer.b)]
        if self.out_w is not None:
            pairs.append(("out_w", self.out_w))
        pairs.append(("out_b", self.out_b))
        return pairs

    @classmethod
    def from_named_arrays(cls, pairs) -> "StackParams":
        """The inverse of named_arrays; a missing out_w means a tied head."""
        arrays = dict(pairs)
        layers = []
        while f"l{len(layers)}.wx" in arrays:
            prefix = f"l{len(layers)}."
            layers.append(LayerParams(*(arrays[prefix + n] for n in ("wx", "wh", "b"))))
        return cls(arrays["emb"], layers, arrays.get("out_w"), arrays["out_b"])

    def copy(self) -> "StackParams":
        return StackParams(
            self.emb.copy(),
            [LayerParams(l.wx.copy(), l.wh.copy(), l.b.copy()) for l in self.layers],
            None if self.out_w is None else self.out_w.copy(),
            self.out_b.copy(),
        )


def init_stack(rng: np.random.Generator, vocab_in: int, emb_dim: int, hidden: int,
               layers: int, out_dim: int | None = None, tied: bool = True,
               init_scale: float = 0.1, dtype=np.float64) -> StackParams:
    """Uniform [-init_scale, init_scale] weights, zero biases.

    Tied mode requires emb_dim == hidden and projects onto the input space.
    """
    if tied and emb_dim != hidden:
        raise ValueError("tied embeddings force embedding dim == hidden size")

    def uni(*shape):
        return rng.uniform(-init_scale, init_scale, size=shape).astype(dtype, copy=False)

    emb = uni(vocab_in, emb_dim)
    layer_params = []
    d_in = emb_dim
    for _ in range(layers):
        layer_params.append(LayerParams(uni(d_in, 4 * hidden), uni(hidden, 4 * hidden),
                                        np.zeros(4 * hidden, dtype=dtype)))
        d_in = hidden
    if tied:
        out_w = None
        out_b = np.zeros(vocab_in, dtype=dtype)
    else:
        if out_dim is None:
            raise ValueError("out_dim required for an untied head")
        out_w = uni(hidden, out_dim)
        out_b = np.zeros(out_dim, dtype=dtype)
    return StackParams(emb, layer_params, out_w, out_b)


def zero_state(params: StackParams, batch: int) -> list[tuple[np.ndarray, np.ndarray]]:
    hidden = params.layers[0].wh.shape[0]
    dtype = params.emb.dtype
    return [(np.zeros((batch, hidden), dtype=dtype), np.zeros((batch, hidden), dtype=dtype))
            for _ in params.layers]


def make_dropout_masks(rng: np.random.Generator, p: float, steps: int, batch: int,
                       params: StackParams) -> list[np.ndarray] | None:
    """Inverted-dropout masks for every site: embedding output, between
    layers, and before the output projection. None when p == 0."""
    if p == 0.0:
        return None
    dims = [params.emb.shape[1]] + [l.wh.shape[0] for l in params.layers]
    keep = 1.0 - p
    return [
        (rng.random((steps, batch, d)) < keep).astype(params.emb.dtype) / keep
        for d in dims
    ]


# hidden size from which the recurrence's step blocks are held in batch-row
# memory (see the module docstring). The lowest size where both orders gave
# bit-identical gradients (192 did not); from it on, float64 training steps
# measured at parity or faster and inference about a fifth faster (one BLAS
# thread, crossover table in CHANGES.md)
BATCH_ROW_MIN_HIDDEN = 256


def _step_blocks(lead: tuple, rows: int, batch: int, dtype, batch_rows: bool) -> np.ndarray:
    """An empty (*lead, rows, B) array of per-step blocks: C-ordered, or in
    batch-row memory the transposed view of a C-ordered (*lead, B, rows)."""
    if batch_rows:
        return np.empty((*lead, batch, rows), dtype=dtype).swapaxes(-1, -2)
    return np.empty((*lead, rows, batch), dtype=dtype)


@functools.lru_cache(maxsize=64)
def _gate_affine(dtype: np.dtype, hidden: int, batch: int,
                 batch_rows: bool) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (4H, B) scale and shift of the sigmoid-via-tanh identity:
    [1/2, 1/2, 1, 1/2] and [1/2, 1/2, 0, 1/2] per gate-row block, in the
    step blocks' memory order. Full-size, because a broadcast operand costs
    more per call than the arithmetic."""
    def rows(values):
        arr = _step_blocks((), 4 * hidden, batch, dtype, batch_rows)
        arr[...] = np.repeat(np.array(values, dtype=dtype), hidden)[:, None]
        arr.flags.writeable = False
        return arr
    return rows([0.5, 0.5, 1.0, 0.5]), rows([0.5, 0.5, 0.0, 0.5])


class ForwardCache:
    """Intermediates retained by the training-mode forward pass. Arrays
    marked gate-row are (T, rows, B), in batch-row memory when `batch_rows`
    is set; the others are C-ordered (T, B, features)."""

    __slots__ = ("x_ids", "inputs", "acts", "cells", "tanh_c", "hiddens",
                 "h0", "c0", "masks", "top", "keep_rows", "reset_steps", "batch_rows")

    def __init__(self):
        self.inputs = []   # per layer: (T,B,D) dropped input fed to the layer
        self.acts = []     # per layer: gate-row (T,4H,B) activations [i, f, g, o]
        self.cells = []    # per layer: gate-row (T,H,B)
        self.tanh_c = []   # per layer: gate-row (T,H,B)
        self.hiddens = []  # per layer: (T,B,H)


def stack_forward(params: StackParams, x_ids: np.ndarray, state,
                  masks: list[np.ndarray] | None = None, want_cache: bool = False,
                  reset_mask: np.ndarray | None = None):
    """Run the stack over x_ids of shape (T, B).

    Returns (logits (T,B,V), final_state, cache-or-None). `masks` enables
    training-mode dropout; evaluation passes None and needs no rescaling.
    `reset_mask` (T,B) zeroes the carried state entering the marked steps,
    so a note-boundary input predicts its successor from a fresh state,
    exactly as per-note scoring and generation do.
    """
    x_ids = np.asarray(x_ids)
    if x_ids.ndim != 2:
        raise ValueError(f"expected (steps, batch) token ids, got shape {x_ids.shape}")
    steps, batch = x_ids.shape
    hidden = params.layers[0].wh.shape[0]
    dtype = params.emb.dtype
    batch_rows = hidden >= BATCH_ROW_MIN_HIDDEN
    scale, shift = _gate_affine(dtype, hidden, batch, batch_rows)
    keep_rows = None  # also for a mask without marks: most generation steps reset no stream
    reset_steps = frozenset()
    if reset_mask is not None and reset_mask.any():
        keep_rows = _step_blocks((steps,), hidden, batch, dtype, batch_rows)
        keep_rows[...] = 1.0 - reset_mask.astype(dtype)[:, None, :]
        # keep is all ones at the other steps, where its product is skipped
        reset_steps = frozenset(np.flatnonzero(reset_mask.any(axis=1)).tolist())

    cache = ForwardCache() if want_cache else None
    if want_cache:
        cache.x_ids = x_ids
        cache.masks = masks
        cache.keep_rows = keep_rows
        cache.reset_steps = reset_steps
        cache.batch_rows = batch_rows
        cache.h0 = [s[0] for s in state]
        cache.c0 = [s[1] for s in state]

    layer_in = params.emb[x_ids]  # (T,B,E)
    if masks is not None:
        layer_in = layer_in * masks[0]
    new_state = []
    for li, layer in enumerate(params.layers):
        h, c = state[li][0].T, state[li][1].T  # gate-row (H,B)
        hs = _step_blocks((steps,), hidden, batch, dtype, batch_rows)
        acts = cs = tcs = None
        if want_cache or batch_rows:
            # the cache keeps every step's blocks; batch-row inference reuses
            # one of each, where numpy would allocate C-ordered ones
            acts, cs, tcs = (_step_blocks((steps if want_cache else 1,), rows, batch, dtype,
                                          batch_rows)
                             for rows in (4 * hidden, hidden, hidden))
        x_proj = layer_in.reshape(steps * batch, -1) @ layer.wx
        x_proj += layer.b
        x_proj = x_proj.reshape(steps, batch, -1).transpose(0, 2, 1)
        if not batch_rows:
            x_proj = np.ascontiguousarray(x_proj)
        wh_t = layer.wh.T
        for t in range(steps):
            j = t if want_cache else 0
            if t in reset_steps:
                h = h * keep_rows[t]
                c = c * keep_rows[t]
            a = np.matmul(wh_t, h, out=None if acts is None else acts[j])
            a += x_proj[t]
            a *= scale
            np.tanh(a, out=a)
            a *= scale
            a += shift  # a = [i, f, g, o]
            c = np.multiply(a[hidden:2 * hidden], c, out=None if cs is None else cs[j])
            c += a[:hidden] * a[2 * hidden:3 * hidden]
            h = np.multiply(a[3 * hidden:], np.tanh(c, out=None if tcs is None else tcs[j]),
                            out=hs[t])
        new_state.append((h.T, c.T))
        hs = hs.transpose(0, 2, 1)  # (T,B,H)
        if want_cache:
            cache.inputs.append(layer_in)
            cache.acts.append(acts)
            cache.cells.append(cs)
            cache.tanh_c.append(tcs)
            cache.hiddens.append(hs)
        layer_in = np.ascontiguousarray(hs) if masks is None else hs * masks[li + 1]

    if want_cache:
        cache.top = layer_in
    out_w = params.emb.T if params.tied else params.out_w
    flat_top = layer_in.reshape(steps * batch, -1)
    logits = (flat_top @ out_w + params.out_b).reshape(steps, batch, -1)
    return logits, new_state, cache


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def xent_loss(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray | None = None):
    """Mean cross-entropy over the (step, batch) positions selected by mask
    (all of them when mask is None).

    Returns (loss, dlogits) with dlogits already scaled by 1/positions.
    Computed as a log-sum-exp: the loss stays finite for any finite logits,
    and non-finite logits give a non-finite loss.
    """
    steps, batch, n_out = logits.shape
    if steps == 0:
        return 0.0, np.zeros_like(logits)
    flat = logits.reshape(-1, n_out)
    rows = np.arange(flat.shape[0])
    tflat = targets.reshape(-1)
    if mask is None:
        positions = flat.shape[0]
        weight = 1.0 / positions
    else:
        mflat = mask.reshape(-1)
        positions = int(mflat.sum())
        if positions == 0:
            return 0.0, np.zeros_like(logits)
        weight = mflat.astype(flat.dtype)
        weight /= positions
    e = flat - flat.max(axis=1, keepdims=True)
    nll = -e[rows, tflat]
    np.exp(e, out=e)
    sums = e.sum(axis=1)
    nll += np.log(sums)
    loss = float(nll.sum() if mask is None else nll[mflat].sum()) / positions
    # softmax minus one-hot, times each position's weight, in one pass
    e *= (weight / sums)[:, None]
    e[rows, tflat] -= weight
    return loss, e.reshape(steps, batch, n_out)


def stack_backward(params: StackParams, cache: ForwardCache, dlogits: np.ndarray,
                   out: StackParams | None = None) -> StackParams:
    """Gradients for every parameter from a cached training forward pass.

    Truncated BPTT: the chunk's initial state is treated as constant. With
    `out`, gradients shaped like `params`, the layer and head gradients are
    written into its arrays by the same products and sums; the embedding
    gradient is always a new array.
    """
    steps, batch, _ = dlogits.shape
    n = steps * batch
    hidden = params.layers[0].wh.shape[0]
    dtype = params.emb.dtype
    keep_rows = cache.keep_rows
    batch_rows = cache.batch_rows
    if out is None:  # None as an `out=` argument allocates
        out = StackParams(None, [LayerParams(None, None, None)] * len(params.layers),
                          None, None)

    out_w = params.emb.T if params.tied else params.out_w
    dl_flat = dlogits.reshape(n, -1)
    d_out_w = np.matmul(cache.top.reshape(n, -1).T, dl_flat, out=out.out_w)  # (H, V)
    d_out_b = dl_flat.sum(axis=0, out=out.out_b)
    d_layer_out = (dl_flat @ out_w.T).reshape(steps, batch, -1)
    if cache.masks is not None:
        d_layer_out *= cache.masks[len(params.layers)]

    layer_grads = [None] * len(params.layers)
    for li in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[li]
        acts = cache.acts[li]
        tanh_c = cache.tanh_c[li]
        i, f, g, o = (acts[:, k * hidden:(k + 1) * hidden] for k in range(4))
        c_prev = _step_blocks((steps,), hidden, batch, dtype, batch_rows)
        c_prev[0] = cache.c0[li].T
        c_prev[1:] = cache.cells[li][:-1]
        h_prev = np.concatenate([cache.h0[li][None], cache.hiddens[li][:-1]])
        f_keep = f
        if keep_rows is not None:
            c_prev *= keep_rows
            h_prev *= keep_rows.transpose(0, 2, 1)
            f_keep = f * keep_rows

        # off the recurrence: dz = [dc*g, dc*c_prev, dc*i, dh*tanh_c] * act'
        acts4 = acts.reshape(steps, 4, hidden, batch)
        local = acts4 * (1.0 - acts4)  # sigmoid' on i, f, o
        np.subtract(1.0, g * g, out=local[:, 2])  # tanh' on g
        for k, factor in enumerate((g, c_prev, i, tanh_c)):
            local[:, k] *= factor
        o_dtanh = o * (1.0 - tanh_c * tanh_c)
        d_out = d_layer_out.transpose(0, 2, 1)
        if not batch_rows:
            d_out = np.ascontiguousarray(d_out)

        dz = local  # each step's gate gradients overwrite its factors
        dh_next = np.zeros_like(d_out[0])  # in the step blocks' memory order
        dc_next = np.zeros_like(dh_next)
        for t in range(steps - 1, -1, -1):
            dh = d_out[t] + dh_next
            dc = dh * o_dtanh[t]
            dc += dc_next
            np.multiply(local[t, :3], dc, out=dz[t, :3])
            np.multiply(local[t, 3], dh, out=dz[t, 3])
            dc_next = dc * f_keep[t]
            dh_next = layer.wh @ dz[t].reshape(4 * hidden, batch)
            if t in cache.reset_steps:
                dh_next *= keep_rows[t]

        # free the other gate-row buffers before the products: at H=650
        # each is as large as a weight gradient
        del local, c_prev, f_keep, o_dtanh, d_out
        dz = dz.reshape(steps, 4 * hidden, batch).transpose(0, 2, 1).reshape(n, 4 * hidden)
        dst = out.layers[li]
        layer_grads[li] = LayerParams(np.matmul(cache.inputs[li].reshape(n, -1).T, dz, out=dst.wx),
                                      np.matmul(h_prev.reshape(n, hidden).T, dz, out=dst.wh),
                                      dz.sum(axis=0, out=dst.b))
        d_layer_out = (dz @ layer.wx.T).reshape(steps, batch, -1)
        if cache.masks is not None:
            d_layer_out *= cache.masks[li]

    # embedding-lookup gradient: d_layer_out is now the grad wrt the looked-up
    # rows; a one-hot (vocab, positions) matrix sums them per token id
    onehot = sparse.csc_matrix((np.ones(n, dtype=dtype), cache.x_ids.reshape(-1),
                                np.arange(n + 1)), shape=(params.emb.shape[0], n))
    d_emb = onehot @ d_layer_out.reshape(n, -1)
    if params.tied:
        d_emb += d_out_w.T
        d_out_w = None
    return StackParams(d_emb, layer_grads, d_out_w, d_out_b)


def global_norm(grads: StackParams) -> float:
    total = 0.0
    for _, arr in grads.named_arrays():
        total += float(np.sum(arr * arr))
    return float(np.sqrt(total))


def clip_gradients(grads: StackParams, max_norm: float) -> float:
    """Scale all gradients so the global norm is at most max_norm.
    Returns the pre-clip norm."""
    norm = global_norm(grads)
    if norm > max_norm:
        scale = max_norm / norm
        for _, arr in grads.named_arrays():
            arr *= scale
    return norm


def sgd_step(params: StackParams, grads: StackParams, lr: float) -> None:
    for (_, p), (_, g) in zip(params.named_arrays(), grads.named_arrays()):
        p -= lr * g


class DivergenceError(RuntimeError):
    """Training perplexity or gradient norm became non-finite."""


# the largest mean loss whose perplexity exp(loss) is a finite float
MAX_LOSS = math.log(np.finfo(np.float64).max)


def check_divergence(loss: float, grad_norm: float, where: str) -> None:
    """Raise DivergenceError unless exp(loss) and grad_norm are finite.

    The log-sum-exp loss stays finite for finite logits, so a diverged
    model can show a huge but finite loss; its perplexity overflows."""
    if not (loss <= MAX_LOSS and math.isfinite(grad_norm)):
        raise DivergenceError(f"non-finite perplexity or gradient norm {where} "
                              f"(loss {loss:.4g}, gradient norm {grad_norm:.4g})")


def train_step(params: StackParams, x: np.ndarray, y: np.ndarray, state, lr: float,
               grad_clip: float, where: str, work: dict,
               masks: list[np.ndarray] | None = None, mask: np.ndarray | None = None,
               reset_mask: np.ndarray | None = None):
    """One clipped SGD step on the mean cross-entropy of (x, y) from `state`.

    `masks` are the dropout masks, `mask` selects the scored positions and
    `reset_mask` marks note starts, as in stack_forward and xent_loss.
    Raises DivergenceError, naming `where`, before a diverged update.
    Returns (loss, final state).

    `work` is a dict the caller keeps across its steps. Each of the step's
    arrays replaces its predecessor there as soon as it exists, so the
    allocator reuses the previous step's memory. Freed all at once at
    return instead, that memory went back to the system and every step
    faulted it in again: up to 25% more time per step at desk shape
    (H=48, float32, 2-core Xeon). The previous step's gradients are not
    replaced but overwritten: `work` lends their arrays to stack_backward,
    so one set of gradients exists at a time."""
    logits, state, cache = stack_forward(params, x, state, masks, want_cache=True,
                                         reset_mask=reset_mask)
    work.update(logits=logits, cache=cache)
    loss, dlogits = xent_loss(logits, y, mask)
    work["dlogits"] = dlogits
    grads = work["grads"] = stack_backward(params, cache, dlogits, work.get("grads"))
    check_divergence(loss, clip_gradients(grads, grad_clip), where)
    sgd_step(params, grads, lr)
    return loss, state


def pad_columns(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Zero-pad id sequences into the columns of a (T, B) int64 array, T
    the longest length; the (T, B) bool mask marks the real positions."""
    lengths = [len(s) for s in seqs]
    ids = np.zeros((max(lengths), len(seqs)), dtype=np.int64)
    mask = np.zeros(ids.shape, dtype=bool)
    for j, (seq, n) in enumerate(zip(seqs, lengths)):
        ids[:n, j] = seq
        mask[:n, j] = True
    return ids, mask


def lstm_step(params: StackParams, ids: np.ndarray, state, reset: np.ndarray):
    """One evaluation step of n streams, ids and reset (n,): a stream marked
    in reset starts from a zero state. Returns (probs (n, V), state)."""
    logits, new_state, _ = stack_forward(params, ids[None, :], state,
                                         reset_mask=reset[None, :])
    return softmax(logits[0]), new_state
