"""The benchmark's own tests, on corpora small enough for the test run.

Each workload, traced and untraced, must print every metric
``BENCHMARK.json`` declares, with its unit, and fail nothing.  The
negative tests show that the checks can fail.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run, traced, workloads
from perfbench.workloads import AVP_CHAIN, SYN_CHAINS, SYN_TOPICS, Corpus

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 5
SMALL = {
    "record": Corpus("avp-interference", 2, 1.0, (AVP_CHAIN,), AVP_CHAIN),
    "resynth": Corpus("syn", 2, 1.0, SYN_CHAINS, SYN_TOPICS, seeded_load=True),
    "live": Corpus("avp", 12, 1.0, (AVP_CHAIN,), AVP_CHAIN),
}


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(traced, "COUNTERS_DIR", str(tmp_path / "counters"))
    for name, corpus in SMALL.items():
        monkeypatch.setitem(workloads.CORPORA, name, corpus)
    return tmp_path


def _run(capsys, workload, trace=0):
    code = run.main(
        ["--workload", workload, "--seed", str(SEED), "--seconds", "0.01",
         "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_printed_with_its_unit(small, capsys, workload, trace):
    code, lines, result = _run(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    for name, unit in declared.items():
        assert any(
            line.split()[0] == name and line.endswith(f" {unit}")
            for line in lines[:-1]
        ), name


def test_corrupted_segment_pushed_in_live_fails(small, capsys, monkeypatch):
    record_segments = workloads.record_segments

    def corrupted(corpus, seed, directory):
        segments, events = record_segments(corpus, seed, directory)
        run_id, data, count = segments[3]
        segments[3] = (run_id, data[: len(data) // 2], count)
        return segments, events

    monkeypatch.setattr(workloads, "record_segments", corrupted)
    code, _lines, result = _run(capsys, "live")
    assert code == 0
    assert not result["correct"] and result["failed"] > 0


def test_tampered_digest_fails(small, capsys, monkeypatch):
    reference_for = workloads.reference_for

    def tampered(*args):
        reference = reference_for(*args)
        return {**reference, "model": {**reference["model"], "dot": "0" * 64}}

    monkeypatch.setattr(workloads, "reference_for", tampered)
    code, _lines, result = _run(capsys, "resynth")
    assert code == 0
    assert not result["correct"] and result["failed"] > 0


def test_counter_drift_fails(small, capsys):
    code, _lines, first = _run(capsys, "resynth", trace=1)
    assert code == 0 and first["correct"]
    (path,) = (small / "counters").iterdir()
    counters = json.loads(path.read_text())
    counters["core.vertices"] += 1
    path.write_text(json.dumps(counters))
    code, _lines, second = _run(capsys, "resynth", trace=1)
    assert code == 0
    assert not second["correct"] and second["failed"] > 0


def test_committed_output_count_drift_fails(small, capsys, monkeypatch):
    reference_for = traced.reference_for

    def with_counters(*args):
        return {**reference_for(*args), "counters": {"core.vertices": -1}}

    monkeypatch.setattr(traced, "reference_for", with_counters)
    code, _lines, result = _run(capsys, "resynth", trace=1)
    assert code == 0
    assert not result["correct"] and result["failed"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "record",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
