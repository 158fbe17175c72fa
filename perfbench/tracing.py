"""Spans around synthnotes' public entry points, for the traced run.

The tracer replaces each target function by a timing wrapper in every
namespace where a synthnotes module resolves the name (a function imported
with ``from .x import f`` lives in several module dicts; a method lives in
its class), so calls between the program's own modules are traced too.
Spans are kept in memory, one list per span ``[name, start, end, parent,
child_s, work]``, and summarised into per-layer metrics when the run ends.

Each timed operation and each set-up repetition is a root span opened by
the benchmark. Layer metrics are per root: per operation for the program's
layers, per set-up for ``template`` and ``corpus``, which run only there.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

SETUP_LAYERS = ("template", "corpus")

# (layer, function, stats); "full" adds the call-duration percentiles to
# calls and self time, for the functions called many times per operation
TARGETS = (
    ("template", "write_template_bundle", "basic"),
    ("corpus", "read_raw_corpus", "basic"),
    ("corpus", "split_corpus", "basic"),
    ("corpus", "build_vocabulary", "basic"),
    ("corpus", "apply_unk", "basic"),
    ("neural.core", "stack_forward", "full"),
    ("neural.core", "stack_backward", "full"),
    ("neural.core", "xent_loss", "full"),
    ("neural.core", "clip_gradients", "full"),
    ("neural.core", "sgd_step", "full"),
    ("neural.core", "lstm_step", "full"),
    ("neural.language_model", "train_lstm_lm", "basic"),
    ("neural.language_model", "batched_note_nll", "full"),
    ("neural.char_tagger", "train_char_classifier", "basic"),
    ("neural.char_tagger", "CharTagger.predict", "full"),
    ("generation", "generate_corpus", "basic"),
    ("generation", "sample_from_distribution", "full"),
    ("privacy", "s_pdtp_note", "full"),
    ("embeddings", "train_sgns", "basic"),
    ("embeddings", "extract_window_pairs", "basic"),
    ("embeddings", "evaluate_similarity", "basic"),
    ("utility", "train_nli_bow", "basic"),
    ("utility", "evaluate_nli", "basic"),
    ("utility", "train_truecaser", "basic"),
    ("utility", "evaluate_truecase", "basic"),
    ("modelio", "model_bytes", "basic"),
    ("modelio", "load_model", "basic"),
    ("lm", "perplexity", "basic"),
)

LM_TRAIN = "neural.language_model.train_lstm_lm"
TAGGER_TRAIN = "neural.char_tagger.train_char_classifier"
SGNS_TRAIN = "embeddings.train_sgns"

# exact work counts and the throughputs derived from them:
# (metric, unit, function whose total span time divides the count, rate unit)
WORK = (
    (f"{LM_TRAIN}.tokens", "tok", LM_TRAIN, "tok/s"),
    (f"{LM_TRAIN}.bptt_chunks", "count", None, None),
    (f"{TAGGER_TRAIN}.chars", "char", TAGGER_TRAIN, "char/s"),
    ("neural.char_tagger.CharTagger.predict.chars", "char",
     "neural.char_tagger.CharTagger.predict", "char/s"),
    ("neural.language_model.batched_note_nll.tokens", "tok",
     "neural.language_model.batched_note_nll", "tok/s"),
    ("generation.generate_corpus.tokens", "tok", "generation.generate_corpus", "tok/s"),
    (f"{SGNS_TRAIN}.pairs", "pair", SGNS_TRAIN, "pair/s"),
    ("modelio.model_bytes.bytes", "B", None, None),
    ("modelio.load_model.bytes", "B", None, None),
    ("neural.core.stack_forward.gflop_computed", "GFLOP", "neural.core.stack_forward",
     "GFLOP/s"),
    ("neural.core.stack_backward.gflop_computed", "GFLOP", "neural.core.stack_backward",
     "GFLOP/s"),
)

RUN_METRICS = (
    ("trace.run_s_untraced", "s"),
    ("trace.run_s_traced", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.uncovered_frac", "frac"),
    ("trace.outputs_identical", "count"),
    ("trace.spans_per_op", "count"),
)


def _rate_name(metric: str, unit: str) -> str:
    base = metric.rsplit(".", 1)[0]
    suffix = {"tok/s": "tok_per_s", "char/s": "chars_per_s", "pair/s": "pairs_per_s",
              "GFLOP/s": "gflop_per_s_computed"}[unit]
    return f"{base}.{suffix}"


def metric_specs() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in reporting order."""
    specs = []
    for layer, fn, stats in TARGETS:
        name = f"{layer}.{fn}"
        specs += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        if stats == "full":
            specs += [(f"{name}.us_p50", "us"), (f"{name}.us_p99", "us")]
    for metric, unit, per, rate_unit in WORK:
        specs.append((metric, unit))
        if per is not None:
            specs.append((_rate_name(metric, rate_unit), rate_unit))
    return specs + list(RUN_METRICS)


def gemm_flops(params, steps: int, batch: int) -> int:
    """Multiply-add FLOPs of the stack's matrix products for one forward
    pass over (steps, batch); the backward pass does twice as many."""
    hidden = params.layers[0].wh.shape[0]
    n_out = params.emb.shape[0] if params.out_w is None else params.out_w.shape[1]
    total = 2 * steps * batch * hidden * n_out
    for layer in params.layers:
        total += 2 * steps * batch * (layer.wx.shape[0] + hidden) * 4 * hidden
    return total


def _positions(args, kwargs) -> int:
    targets = args[1]
    mask = args[2] if len(args) > 2 else kwargs.get("mask")
    return int(targets.size if mask is None else mask.sum())


# work recorded on a span from the call's arguments and result
COUNTERS = {
    "neural.core.stack_forward":
        lambda a, k, r: gemm_flops(a[0], *np.shape(a[1])),
    "neural.core.stack_backward":
        lambda a, k, r: 2 * gemm_flops(a[0], *a[2].shape[:2]),
    "neural.core.xent_loss": lambda a, k, r: _positions(a, k),
    "neural.language_model.batched_note_nll": lambda a, k, r: r[1],
    # pairs visited = window pairs extracted under the call x its iterations
    SGNS_TRAIN: lambda a, k, r: r.config["iterations"],
    "embeddings.extract_window_pairs": lambda a, k, r: len(r),
    "neural.char_tagger.CharTagger.predict": lambda a, k, r: len(a[1]),
    "generation.generate_corpus": lambda a, k, r: r.word_count,
    "modelio.model_bytes": lambda a, k, r: len(r),
    "modelio.load_model": lambda a, k, r: Path(a[0]).stat().st_size,
}


class Tracer:
    """In-memory span recorder that installs and removes its wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        span = [name, perf_counter(), 0.0, parent, 0.0, 0]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span: list) -> None:
        span[2] = perf_counter()
        self._open.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    @contextmanager
    def root(self, name: str):
        if self._open:
            raise RuntimeError("root spans do not nest")
        span = self._begin(name)
        try:
            yield
        finally:
            self._end(span)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if not self._open:  # outside the benchmark's operations and set-ups
                return fn(*args, **kwargs)
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "synthnotes" or key.startswith("synthnotes.")]
        for layer, fn, _ in TARGETS:
            module = importlib.import_module(f"synthnotes.{layer}")
            name = f"{layer}.{fn}"
            if "." in fn:
                cls_name, meth = fn.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, fn)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start and end (s), parent index."""
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, _, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

    def summarize(self) -> tuple[dict, list[str]]:
        """Per-layer metrics and the names of counts that differ between
        roots of one kind (an exact count repeats on every operation)."""
        roots = []
        root_of = []
        for i, (_, _, _, parent, _, _) in enumerate(self.spans):
            root_of.append(i if parent < 0 else root_of[parent])
            if parent < 0:
                roots.append(i)
        kinds = {k: [r for r in roots if self.spans[r][0] == k] for k in ("op", "setup")}
        by_fn = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                by_fn[span[0]].append(i)

        def scope(name):
            return "setup" if name.split(".")[0] in SETUP_LAYERS else "op"

        def in_scope(name):
            wanted = set(kinds[scope(name)])
            return [i for i in by_fn.get(name, ()) if root_of[i] in wanted]

        metrics: dict = {}
        uneven: list[str] = []

        def per_root(name, label, idx, value_of):
            """Total of value_of over idx, per root of the name's scope,
            checking that the per-root totals agree exactly."""
            n = max(len(kinds[scope(name)]), 1)
            totals = Counter()
            for i in idx:
                totals[root_of[i]] += value_of(i)
            if len({totals[r] for r in kinds[scope(name)]}) > 1:
                uneven.append(label)
            return sum(totals.values()) / n

        duration = {}
        for layer, fn, stats in TARGETS:
            name = f"{layer}.{fn}"
            idx = in_scope(name)
            n = max(len(kinds[scope(name)]), 1)
            metrics[f"{name}.calls"] = per_root(name, f"{name}.calls", idx, lambda i: 1)
            metrics[f"{name}.self_s"] = sum(
                self.spans[i][2] - self.spans[i][1] - self.spans[i][4] for i in idx) / n
            durs = [self.spans[i][2] - self.spans[i][1] for i in idx]
            duration[name] = sum(durs) / n
            if stats == "full":
                us = np.asarray(durs) * 1e6
                metrics[f"{name}.us_p50"] = float(np.percentile(us, 50)) if durs else 0.0
                metrics[f"{name}.us_p99"] = float(np.percentile(us, 99)) if durs else 0.0

        def nearest(i, names):
            """The nearest span above span i named in `names`, or -1."""
            j = self.spans[i][3]
            while j >= 0 and self.spans[j][0] not in names:
                j = self.spans[j][3]
            return j

        # training positions belong to the nearest training call above them
        trained = {LM_TRAIN: [], TAGGER_TRAIN: []}
        for i in in_scope("neural.core.xent_loss"):
            j = nearest(i, trained)
            if j >= 0:
                trained[self.spans[j][0]].append(i)
        sgns_pairs = [i for i in in_scope("embeddings.extract_window_pairs")
                      if nearest(i, (SGNS_TRAIN,)) >= 0]

        work = {
            f"{LM_TRAIN}.tokens": (LM_TRAIN, trained[LM_TRAIN], lambda i: self.spans[i][5]),
            f"{LM_TRAIN}.bptt_chunks": (LM_TRAIN, trained[LM_TRAIN], lambda i: 1),
            f"{TAGGER_TRAIN}.chars": (TAGGER_TRAIN, trained[TAGGER_TRAIN],
                                      lambda i: self.spans[i][5]),
            f"{SGNS_TRAIN}.pairs": (SGNS_TRAIN, sgns_pairs, lambda i: (
                self.spans[i][5] * self.spans[nearest(i, (SGNS_TRAIN,))][5])),
        }
        for metric, unit, per, rate_unit in WORK:
            if metric in work:
                owner, idx, value_of = work[metric]
                value = per_root(owner, metric, idx, value_of)
            else:
                fn = metric.rsplit(".", 1)[0]
                value = per_root(fn, metric, in_scope(fn), lambda i: self.spans[i][5])
            if unit == "GFLOP":
                value /= 1e9
            metrics[metric] = value
            if per is not None:
                metrics[_rate_name(metric, rate_unit)] = (
                    value / duration[per] if duration[per] > 0 else 0.0)

        ops = set(kinds["op"])
        op_total = sum(self.spans[r][2] - self.spans[r][1] for r in ops)
        op_covered = sum(self.spans[r][4] for r in ops)
        metrics["trace.uncovered_frac"] = (op_total - op_covered) / op_total if op_total else 0.0
        metrics["trace.spans_per_op"] = per_root(
            "op", "trace.spans_per_op",
            [i for i in range(len(self.spans)) if root_of[i] in ops and i not in ops],
            lambda i: 1)
        return metrics, uneven
