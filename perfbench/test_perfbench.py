"""Self-tests of the benchmark, on shrunken workloads.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_program()
import workloads  # noqa: E402  (needs the sources on sys.path first)

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = workloads.catalog(tiny=True)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    path = tmp_path_factory.mktemp("ref") / "reference.json"
    assert run.main(["--record", "--reference", str(path)], TINY) == 0
    return path


def bench(capsys, reference, workload, trace):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds",
                     "0.2", "--trace", str(trace), "--reference",
                     str(reference)], TINY)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_catalog_matches_benchmark_json():
    assert sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"])
    assert sorted(workloads.catalog()) == sorted(TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_prints_the_declared_metrics(capsys, reference, workload,
                                              trace):
    code, result = bench(capsys, reference, workload, trace)
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_counts_repeat_exactly(capsys, reference, workload):
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] in ("count", "B/robot-step")]
    counts += ["vm.budget_fill", "network.delivery_ratio"]
    first = bench(capsys, reference, workload, 1)[1]["metrics"]
    second = bench(capsys, reference, workload, 1)[1]["metrics"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_corrupted_reference_is_a_failure(capsys, reference, tmp_path):
    data = json.loads(reference.read_text())
    for record in data["gradient-1k"].values():
        record["digest"] = "0" * 32
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, result = bench(capsys, bad, "gradient-1k", 0)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
