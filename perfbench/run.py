"""Benchmark runner for synthnotes: one workload, one seed, one run.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 25 --trace 0

Run from the root of a source tree; the program is imported from ``src/``.
The run sets up the workload's inputs from the seed several times, then
repeats the workload's operation in a closed loop (one at a time) until
``--seconds`` have passed, checking every operation's output.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a run whose
operations alternate between untraced and traced. The line before it holds
the detail: environment, quartiles, sample count, exact work counts, and
the workload's own throughput and quality metrics. Spans, the detail and
the result are also written under ``.perfbench/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

# one BLAS thread: the program is single-process and this must hold before
# numpy loads its BLAS
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 5

# The machine is shared: its speed drifts within seconds, and not alike for
# all kinds of code (a neighbour's memory traffic slows scatter-adds twice
# as much as pure Python). So each operation and each set-up is timed
# between two passes of a reference kernel that does not touch the
# program, with one part per kind of code, and rescaled by the kernel's
# speed against NOMINAL_S, about the parts' median seconds on the 2-core
# Xeon the baseline was recorded on. The workload's weights (workloads.py)
# give the share of each kind of code in its operation and in its set-up.
# run_s and setup_s are thus seconds at the nominal speed; the raw seconds
# are in the detail.
NOMINAL_S = {"small": 0.0055, "gemm_f64_650": 0.0090, "scatter": 0.0100, "python": 0.0130}
# the kernel runs for at least this share of the time it rescales
REF_SHARE = 0.05

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        maps = Path("/proc/self/maps").read_text().split("\n")
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD of the source tree when it is a git checkout, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


class ReferenceKernel:
    """Fixed work that does not touch the program, one part per kind of
    code the workloads run: tiny float64 products and elementwise calls (the
    per-timestep LSTM at desk shape, the tagger, generation), float64
    products with the paper-shape (650, 2600) recurrent weight, an
    ``np.add.at`` scatter (SGNS) and a pure-Python token loop
    (preprocessing, featurising, set-up). Tiny float32 products are left
    out: their speed differs by up to 2x from one process to the next,
    which would add noise instead of cancelling it."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        xs = rng.random((20, 96))
        ws = rng.random((96, 192))
        h = rng.random((20, 650))
        wh = rng.random((650, 2600))
        table = np.zeros((500, 100))
        rows = rng.integers(0, 500, size=2000)
        grads = rng.random((2000, 100))
        words = [f"w{i % 300}" for i in range(12000)]

        def small_calls():
            for _ in range(150):
                z = xs @ ws
                np.tanh(z[:, :48])
                1.0 / (1.0 + np.exp(-z[:, 48:]))

        def python_loop():
            for _ in range(8):
                counts: dict = {}
                for word in words:
                    counts[word] = counts.get(word, 0) + len(word.upper())

        self.parts = {
            "small": small_calls,
            "gemm_f64_650": lambda: [h @ wh for _ in range(4)],
            "scatter": lambda: [np.add.at(table, rows, grads) for _ in range(4)],
            "python": python_loop,
        }
        self.samples: list[dict] = []
        self.speed(dict.fromkeys(self.parts, 1.0))  # warms caches; not kept
        self.samples.clear()

    def speed(self, weights: dict, seconds: float = 0.0) -> float:
        """The machine's slowdown against NOMINAL_S (1 at the nominal
        speed), from passes over the weighted parts that last `seconds` and
        at least one pass. Every pass is kept."""
        slowdowns = []
        start = perf_counter()
        while not slowdowns or perf_counter() - start < seconds:
            times = {}
            for name in weights:
                t0 = perf_counter()
                self.parts[name]()
                times[name] = perf_counter() - t0
            self.samples.append(times)
            slowdowns.append(sum(w * times[name] / NOMINAL_S[name]
                                 for name, w in weights.items()) / sum(weights.values()))
        return statistics.fmean(slowdowns)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run(workload_name: str, seed: int, seconds: float, trace: bool):
    """One benchmark run. Returns (result, detail) as printed."""
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[workload_name]
    workdir = OUT / workload_name
    workdir.mkdir(parents=True, exist_ok=True)
    ref = ReferenceKernel()
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        # each set-up starts from a collected heap
        setup_s, setup_nominal = [], []
        state = None
        before = ref.speed(wl.setup_reference)
        for _ in range(SETUP_REPS):
            state = None
            gc.collect()
            with tracer.root("setup") if tracer else nullcontext():
                t0 = perf_counter()
                state = wl.setup(seed, workdir)
                setup_s.append(perf_counter() - t0)
            after = ref.speed(wl.setup_reference, REF_SHARE * setup_s[-1])
            setup_nominal.append(setup_s[-1] / ((before + after) / 2))
            before = after
        gc.collect()

        samples = {False: [], True: []}
        nominal = []  # untraced operation seconds at the nominal speed
        plain = []  # outcomes of the checked untraced operations
        digests = set()
        failures = set()
        failed = 0
        deadline = perf_counter() + seconds
        attempted = 0
        before = ref.speed(wl.reference)
        while True:
            traced = trace and attempted % 2 == 1
            attempted += 1
            with tracer.root("op") if traced else nullcontext():
                t0 = perf_counter()
                try:
                    raw = wl.call(state)
                except Exception:  # a failed operation is counted, not fatal
                    traceback.print_exc()
                    raw = None
                elapsed = perf_counter() - t0
            after = ref.speed(wl.reference, REF_SHARE * elapsed)
            samples[traced].append(elapsed)
            if not traced:
                nominal.append(elapsed / ((before + after) / 2))
            before = after
            if raw is None:
                op_failures = ["operation raised"]
            else:
                outcome = wl.check(state, raw)
                if not traced:
                    plain.append(outcome)
                digests.add(outcome.digest())
                op_failures = list(outcome.failures)
                if len(digests) > 1:
                    op_failures.append("outputs differ between operations of the seed")
            if op_failures:
                failed += 1
                failures.update(op_failures)
            if perf_counter() >= deadline and (not trace or attempted >= 2):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    first = plain[0] if plain else None
    q1, med, q3 = quartiles(samples[False])
    detail = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "run_s_raw": {"median": med, "q1": q1, "q3": q3, "samples": len(samples[False]),
                      "all": samples[False]},
        "run_s": nominal,
        "setup_s_raw": setup_s,
        "setup_s": setup_nominal,
        "ref_s": ref.samples,
        "failures": sorted(failures),
        "values": first.values if first else None,
        "counts": first.counts if first else None,
        "metrics": {k: statistics.median(o.metrics[k] for o in plain)
                    for k in (first.metrics if first else ())},
    }
    if trace:
        layer, uneven = tracer.summarize()
        if uneven:
            failed += 1
            detail["failures"].append(f"work counts differ between operations: {uneven}")
        untraced = statistics.median(samples[False])
        traced_s = statistics.median(samples[True])
        layer.update({
            "trace.run_s_untraced": untraced,
            "trace.run_s_traced": traced_s,
            "trace.overhead_frac": traced_s / untraced - 1.0,
            "trace.outputs_identical": int(len(digests) == 1),
        })
        units = dict(tracing.metric_specs())
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in units.items()}
        # each layer's self time as a share of the traced operation
        detail["self_share"] = {name[:-len(".self_s")]: layer[name] / traced_s
                                for name in units if name.endswith(".self_s")
                                and not name.startswith(tracing.SETUP_LAYERS)}
        detail["trace_ops"] = len(samples[True])
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{workload_name}.jsonl")
    else:
        values = {
            "run_s": statistics.median(nominal),
            "setup_s": statistics.median(setup_nominal),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    detail["failed_frac"] = failed / attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "synthnotes" / "__init__.py").is_file():
        print(f"perfbench: no synthnotes package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"result": result, "detail": detail}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
