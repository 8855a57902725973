"""Per-step digests of the six bundled behaviours against recorded values.

Each behaviour runs for 10 steps with N=12, seeds 1-2 and P in {0, 0.5}.
Every step is reduced to one digest of the readouts, each robot's outbox
bytes, its actuation snapshot and its fault, if any.  The recorded digests
in tests/data/vm_golden.json pin the exact behaviour of the interpreter,
so changes to the dispatch loop are checked step by step, independently
of the benchmark.

Regenerate only for a change that is meant to alter behaviour:

    PYTHONPATH=src python tests/test_vm_golden.py > tests/data/vm_golden.json
"""

import dataclasses
import hashlib
import json
import pathlib
from unittest import mock

import pytest

from swarmlang import behaviors, sim
from swarmlang.vm import Vm

GOLDEN = pathlib.Path(__file__).parent / "data" / "vm_golden.json"
N, STEPS, SEEDS, PROBS = 12, 10, (1, 2), (0.0, 0.5)


def _bundled_with_goto(name):
    # formation and segregation have no readout: goto's actuation is output
    return sim.Experiment(
        name=name, sources=[(f"{name}.swl", behaviors.load_script(name))],
        readout="id", convergence="none", bindings=("goto",))


BEHAVIOURS = {
    "consensus": sim.build_consensus,
    "gradient": sim.build_gradient,
    "barrier": sim.build_barrier,
    "formation": lambda: _bundled_with_goto("formation"),
    "segregation": lambda: _bundled_with_goto("segregation"),
    "target_select": sim.build_target_select,
}


def step_digests(name, p, seed):
    """One hex digest per step of a fixed-length run of behaviour `name`."""
    # convergence "none" keeps every run at the full step count
    experiment = dataclasses.replace(BEHAVIOURS[name](), convergence="none")
    cfg = sim.SimulationConfig(n_robots=N, drop_prob=p, seed=seed,
                               max_steps=STEPS)
    calls = []
    real_step = Vm.step

    def recording_step(vm, inbox=()):
        outbox, actuation = real_step(vm, inbox)
        calls.append((vm.robot_id, [s.raw for s in outbox],
                      sorted(actuation.items()),
                      vm.faulted and str(vm.faulted)))
        return outbox, actuation

    with mock.patch.object(Vm, "step", recording_step):
        result = sim.run(cfg, experiment)
    assert len(result.metrics) == STEPS
    digests = []
    for i, metrics in enumerate(result.metrics):
        text = repr((metrics.readouts, calls[i * N:(i + 1) * N]))
        digests.append(hashlib.sha256(text.encode()).hexdigest()[:16])
    return digests


def _cases():
    return [(name, p, seed) for name in BEHAVIOURS for p in PROBS
            for seed in SEEDS]


def _key(name, p, seed):
    return f"{name}/N{N}/P{p}/seed{seed}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name, p, seed", _cases())
def test_step_digests_match_recording(golden, name, p, seed):
    assert step_digests(name, p, seed) == golden[_key(name, p, seed)]


if __name__ == "__main__":
    print(json.dumps({_key(*case): step_digests(*case) for case in _cases()},
                     indent=1))
