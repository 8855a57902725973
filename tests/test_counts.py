"""notes/counts.py: the deterministic counts of the benchmark workloads."""

import importlib.util
import sys
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "notes" / "counts.py"
_spec = importlib.util.spec_from_file_location("counts", PATH)
counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(counts)

# seed 5; the fuel figures recorded in ROADMAP.md and BENCH_14.json
SEMANTIC = {
    "gradient-1k": (936_775, 6_000, "1898706a706b60a78abbd505c0dc8f01"
                    "b36f5e0fac3a284d82867acb74bb463f"),
    "barrier-200": (60_781, 2_600, "de73c7e23eac3f9bb6b9eb0fe46b81ac"
                    "f652130dd580b79df9ce14bb0916bae9"),
    "segregation-100": (1_501_832, 2_000, "e003bf0c62e71d80333d35daa054d910"
                        "0061f38ff1fc3e748e3c7acb0ea5f70c"),
    "sweep-small": (175_198, 4_280, "6604c6a29e2783b1e2074884470a4abd"
                    "6cf78119fc8e9bb89df5023730d53bc8"),
}


@pytest.mark.parametrize("name", list(SEMANTIC))
def test_untraced_pass_keeps_the_recorded_fuel_figures(name):
    row = counts.counts(counts.workloads.catalog()[name], 5)
    assert (row["instructions"], row["robot_steps"],
            row["fuel_sha256"]) == SEMANTIC[name]
    assert row["skipped"] == row["vstig_msgs"] - row["merges"]


def test_both_passes_restore_every_patched_name(monkeypatch):
    seen = []  # (owner, name, value before the patch)
    patched = counts.patched

    def recording(*patches):
        seen.extend((owner, name, getattr(owner, name))
                    for owner, name, _ in patches)
        return patched(*patches)

    monkeypatch.setattr(counts, "patched", recording)
    tracer = sys.gettrace()
    for workload in counts.workloads.catalog(tiny=True).values():
        counts.counts(workload, 5)
        # the first pass translated the scripts; the traced pass must
        # still see them translated, or it counts nothing
        assert counts.traced(workload, 5)["fuel_tests"] > 0
    assert len({(id(owner), name) for owner, name, _ in seen}) == 8
    assert all(getattr(owner, name) is value for owner, name, value in seen)
    assert sys.gettrace() is tracer


def test_script_entries_count_each_host_entry_into_the_script():
    # a barrier robot's script is entered by its top level and `init` once
    # and by `step` each step, with no callbacks between
    workload = counts.workloads.catalog(tiny=True)["barrier-200"]
    steps = counts.counts(workload, 5)["robot_steps"]
    assert counts.traced(workload, 5)["script_entries"] \
        == steps + 2 * workload.n
    # segregation's step enters through swarm exec and reduce callbacks too
    workload = counts.workloads.catalog(tiny=True)["segregation-100"]
    steps = counts.counts(workload, 5)["robot_steps"]
    assert counts.traced(workload, 5)["script_entries"] \
        > steps + 2 * workload.n


def test_a_row_depends_only_on_its_workload_and_seed():
    # each unit compiles, links and translates its scripts before its gc
    # window opens, so a cold process counts seeds in either order alike
    for workload in counts.workloads.catalog(tiny=True).values():
        rows = {}
        for order in ((5, 11), (11, 5)):
            counts.experiments._linked.cache_clear()
            for seed in order:
                rows.setdefault(seed, []).append(
                    counts.counts(workload, seed))
        assert all(first == second for first, second in rows.values())
