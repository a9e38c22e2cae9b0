"""Harness tests for the benchmark, at the tiny size.

They run every workload untraced and traced, and check three things. Every
metric named in BENCHMARK.json is printed with its unit. Two runs of one seed
agree on digests and counts. A lost binding is reported, not zeroed.
"""
from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3
WORKLOAD_NAMES = ("train_items_per_s", "train_first_epoch_s", "corrupt_sentences_per_s",
                  "prep_pairs_per_s")


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def _report(workload: str, trace: int) -> dict:
    path = bench.WORKDIR / f"{workload}-s{SEED}-t{trace}-tiny" / "report.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def untraced():
    proc = _bench("--workload", "all", "--seed", str(SEED), "--seconds", "0", "--size", "tiny")
    return proc, {w: _report(w, 0) for w in WORKLOADS}


@pytest.fixture(scope="module")
def traced(untraced):
    proc = _bench("--workload", "all", "--seed", str(SEED), "--size", "tiny", "--trace", "1")
    return proc, {w: _report(w, 1) for w in WORKLOADS}


def test_every_end_to_end_metric_is_printed_with_its_unit(untraced):
    proc, _ = untraced
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    *report, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in WORKLOADS:
        for name, unit in bench.END_TO_END:
            entry = result["metrics"][f"{workload}.{name}"]
            assert entry["unit"] == unit and entry["value"] > 0, (workload, name)
    text = "\n".join(report)
    assert all(name in text for name in WORKLOAD_NAMES)
    assert "FAIL" not in text and text.count(": PASS") >= 3 * 3


def test_every_per_layer_metric_is_printed_with_its_unit(traced):
    proc, _ = traced
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    for workload in WORKLOADS:
        for name, unit, _ in tracer.metric_spec():
            assert result["metrics"][f"{workload}.{name}"]["unit"] == unit, (workload, name)
    metric = lambda workload, name: result["metrics"][f"{workload}.{name}"]["value"]  # noqa: E731
    assert metric("train", "training.batches") > 0 and metric("train", "autodiff.graph_nodes_per_item") > 0
    assert metric("corrupt", "generation.decode_steps") > 0 and metric("corrupt", "intervention.positions") > 0
    assert metric("prep", "corpus.align_calls") > 0 and metric("prep", "evaluation.cer_s") > 0
    assert metric("prep", "model.forward_s") == 0 and metric("prep", "training.batches") == 0


def test_runs_of_one_seed_share_digests_and_counts(untraced, traced):
    for workload in WORKLOADS:
        timed, fixed = untraced[1][workload], traced[1][workload]
        assert timed["input_digest"] == fixed["input_digest"]
        assert timed["output_digest"] == fixed["output_digest"] != ""
        assert timed["counts"] == fixed["counts"]
        assert timed["source_digest"] == fixed["source_digest"]


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.metric_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("kind", sorted(reference.TASKS))
def test_reference_sampler_samples_a_pass_and_restores_the_signal(kind):
    before = signal.getsignal(signal.SIGALRM)
    sampler = reference.Sampler(kind)
    with sampler:
        end = time.perf_counter() + 3.5 * reference.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 2 and all(t > 0 for t in sampler.samples)
    assert sampler.spent >= sum(sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_missing_binding_is_named_and_nothing_stays_rebound():
    sys.path.insert(0, str(ROOT / "src"))
    from asrnoise import training

    original = training._loss_graph
    lost = ("model.forward", "asrnoise.training", "_no_such_loss_graph", None, None)
    with pytest.raises(tracer.MissingBindingError, match=r"asrnoise\.training\._no_such_loss_graph"):
        tracer.Tracer("test", tracer.BINDINGS + (lost,)).install()
    assert training._loss_graph is original


def _copy_checkout(dest: Path) -> None:
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


def test_traced_run_exits_nonzero_when_a_wrapped_name_is_gone(tmp_path):
    _copy_checkout(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    training_py = tmp_path / "src" / "asrnoise" / "training.py"
    training_py.write_text(training_py.read_text(encoding="utf-8").replace("_Adam", "_RenamedAdam"),
                           encoding="utf-8")
    proc = _bench("--workload", "train", "--seed", "1", "--size", "tiny", "--trace", "1", cwd=tmp_path)
    assert proc.returncode == 3
    assert "asrnoise.training._Adam.step (span training.optimizer)" in proc.stdout + proc.stderr
    assert '"metrics"' not in proc.stdout


def test_no_source_tree_exits_nonzero_without_a_result(tmp_path):
    _copy_checkout(tmp_path)
    proc = _bench("--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
