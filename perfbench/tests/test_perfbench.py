"""Tests of the benchmark itself: generators, span arithmetic, smoke runs."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import javagen  # noqa: E402
import tracing  # noqa: E402
from workloads import _tree_digest as _digest  # noqa: E402
from hiercomment import corpus as C  # noqa: E402
from hiercomment.cli import _vocab_sequences  # noqa: E402
from hiercomment import model as M  # noqa: E402
from hiercomment.text import build_vocab  # noqa: E402


def _inputs(tree):
    examples = C.filter_examples(C.mine_tree(tree))
    return [M.ExampleInputs.from_example(ex, "first") for ex in examples]


# generators -------------------------------------------------------------------

def test_tree_is_deterministic_per_seed_and_hits_its_sizes(tmp_path):
    spec = javagen.SMOKE
    a = javagen.write_tree(str(tmp_path / "a"), spec, seed=3)
    javagen.write_tree(str(tmp_path / "b"), spec, seed=3)
    javagen.write_tree(str(tmp_path / "c"), spec, seed=4)
    assert _digest(tmp_path / "a") == _digest(tmp_path / "b")
    assert _digest(tmp_path / "a") != _digest(tmp_path / "c")
    per_project = spec.hierarchies_per_project * 5 + spec.malformed_per_project
    assert a.java_files == spec.projects * per_project
    assert a.malformed_files == spec.projects * spec.malformed_per_project
    diagnostics = []
    pairs = C.mine_tree(str(tmp_path / "a"), diagnostics)
    assert len(pairs) == a.expected_pairs
    assert sum(d["kind"] == "parse" for d in diagnostics) == a.malformed_files


def test_paper_pool_gives_exactly_ten_thousand_tokens_and_source_oov(tmp_path):
    javagen.write_tree(str(tmp_path / "t"), javagen.PAPER_DIMS, seed=1)
    inputs = _inputs(str(tmp_path / "t"))
    vocab = build_vocab(_vocab_sequences(inputs), cap=10000 - 4, min_freq=2)
    assert len(vocab) == 10000
    source = [t for ex in inputs for t in ex.method_tokens]
    assert any(t not in vocab for t in source)


def test_corpus_scale_train_split_exceeds_the_ppmi_cap(tmp_path):
    javagen.write_tree(str(tmp_path / "t"), javagen.CORPUS_SCALE, seed=1)
    examples = C.filter_examples(C.mine_tree(str(tmp_path / "t")))
    train = C.partition_by_project(examples, seed=1).train
    inputs = [M.ExampleInputs.from_example(ex, "first") for ex in train]
    assert len({t for s in _vocab_sequences(inputs) for t in s}) > 5000


# span arithmetic --------------------------------------------------------------

def test_self_time_on_a_hand_built_span_tree():
    #  root 0..10 holds a 1..4, b 5..6 and c 8..9; a holds d 2..3;
    #  leaf calls add 0.5 s inside root and 0.25 s inside a
    spans = [[0, "root", 0.0, 10.0, -1], [1, "a", 1.0, 4.0, 0], [2, "b", 5.0, 6.0, 0],
             [3, "c", 8.0, 9.0, 0], [4, "d", 2.0, 3.0, 1]]
    selfs = tracing.self_times(spans, {0: 0.5, 1: 0.25})
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 0.5)
    assert selfs[1] == pytest.approx(3.0 - 1.0 - 0.25)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)
    assert tracing.busy_time(spans + [[5, "a", 6.5, 7.5, 0]], "a") == pytest.approx(4.0)


def test_percentile_report_needs_ten_samples_beyond_the_tail():
    assert tracing.percentile_report([1.0, 2.0, 3.0])["tail"] is None
    assert tracing.percentile_report([float(i) for i in range(40)])["tail"] == {
        "percentile": 75.0, "value": 29.0}
    rep = tracing.percentile_report([float(i) for i in range(100)])
    assert rep["tail"] == {"percentile": 90.0, "value": 89.0}
    assert rep["p50"] == pytest.approx(49.5) and rep["count"] == 100


def test_install_patches_every_binding_and_uninstall_restores_them():
    from hiercomment import cli, model, tensor, training, text
    before = (training.encode_source, cli.build_vocab, model.tokenize, tensor.matmul,
              tensor.Tensor.backward)
    tracer = tracing.Tracer("t")
    tracer.install()
    try:
        assert training.encode_source is model.encode_source is not before[0]
        assert cli.build_vocab is text.build_vocab is not before[1]
        assert model.tokenize is text.tokenize is not before[2]
        tensor.matmul(tensor.parameter([[1.0]]), tensor.const([[2.0]]))
    finally:
        tracer.uninstall()
    assert (training.encode_source, cli.build_vocab, model.tokenize, tensor.matmul,
            tensor.Tensor.backward) == before
    assert tracer.leaf_calls["tensor.matmul"] == 1
    assert tracer.counts["tensor.ops.calls"] == 1


# the command contract -----------------------------------------------------------

def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", ["toy-pipeline", "paper-dims", "corpus-scale"])
def test_smoke_run_passes_every_output_check(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "2", "--seconds", "0",
                "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced_run_reports_every_per_layer_metric():
    proc = _run(ROOT, "--workload", "toy-pipeline", "--seed", "2", "--seconds", "0",
                "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["tensor.ops.calls"] > 0
    assert metrics["model.beam_search.step_fn_calls"] > 0
    # only the commands are traced: the output checks decode two examples
    # and read and write examples themselves, and none of that is counted
    traced = json.loads(proc.stdout.strip().splitlines()[-2])["passes"][1]
    assert metrics["model.encode_source.calls"] == traced["test_examples"] + traced[
        "epochs"] * (traced["train_examples"] + traced["valid_examples"])
    with open(os.path.join(ROOT, ".bench_out", "trace-toy-pipeline-seed2.json"),
              encoding="utf-8") as fh:
        trace = json.load(fh)
    names = {s["id"]: s["name"] for s in trace["spans"]}
    parents = {s["id"]: s["parent"] for s in trace["spans"]}
    assert all(names[i].startswith("cli.") for i, p in parents.items() if p == -1)
    assert "-1" not in trace["leaf_seconds_by_parent"]
    for i in names:   # no target runs inside itself, so busy time is a plain sum
        p = parents[i]
        while p != -1:
            assert names[p] != names[i]
            p = parents[p]


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _run(str(tmp_path), "--workload", "toy-pipeline", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
