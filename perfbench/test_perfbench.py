"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

They check that exact work counts repeat between runs of a seed, that the
traced run leaves the program's outputs unchanged, that the quality floors
fail a broken model, that the metric lists match BENCHMARK.json, and that
a tree without the program fails cleanly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXACT_UNITS = {"count", "tok", "char", "pair", "B", "GFLOP"}


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.metric_specs()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_and_tracing_keeps_outputs(workload, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    runs = [run.run(workload, seed=3, seconds=0.01, trace=True) for _ in range(2)]
    for result, detail in runs:
        assert result["correct"], detail["failures"]
        assert result["failed"] == 0
        assert result["metrics"]["trace.outputs_identical"]["value"] == 1
    (first, first_detail), (second, second_detail) = runs
    assert first_detail["counts"] == second_detail["counts"]
    exact = {name for name, unit in tracing.metric_specs() if unit in EXACT_UNITS}
    for name in exact:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_quality_floors_fail_a_broken_model():
    model = SimpleNamespace(tokens=tuple(f"w{i}" for i in range(480)))
    for ppl, ok in ((150.0, True), (470.0, False), (float("nan"), False)):
        out = workloads.Outcome({}, {}, {})
        workloads.check_perplexity(out, model, ppl)
        assert not out.failures == ok, ppl

    state = SimpleNamespace(source=SimpleNamespace(word_count=1), case_chars=1)
    raw = {"sim": 0.86, "rel": 0.82, "nli": 0.67, "case": 0.2, "n_sim": 40, "n_rel": 30,
           "case_eval_s": 1.0}
    assert workloads.check_utility(state, raw).failures == []
    # random embeddings, a constant NLI guess, a truecaser that restores nothing
    broken = {**raw, "sim": 0.1, "rel": -0.05, "nli": 1 / 3, "case": 0.0}
    assert len(workloads.check_utility(state, broken).failures) == 4


def test_tree_without_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
