"""The benchmark's workloads: seeded inputs, the timed call, and its output.

Every workload runs through the public entry points `swarmlang.sim.run`
and `swarmlang.sim.experiment_sweep`.  A unit of work is one seeded call
of either.  `Workload.prepare(seed, max_steps)` builds the inputs outside
the timed region and returns the call to time plus a function that turns
its result into an `Outcome`: the work done and a record that must equal
the recorded reference for that seed.
"""

import hashlib
import math
from dataclasses import dataclass, field

from swarmlang import behaviors, sim
from swarmlang.sim import Experiment, SimulationConfig
from swarmlang.sim.sweep import DATA_FIELDS, SUMMARY_FIELDS

POOL = 32  # seeds recorded per workload; a run's --seed picks an order


@dataclass
class Outcome:
    robot_steps: int      # sum of N x steps executed
    cells: int            # grid cells run; a single run() is one cell
    record: dict          # compared with the recorded reference
    problems: list = field(default_factory=list)  # faults, oracle misses


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _tables(rows):
    """Dataset and summary CSV bytes, as `swarmlang sweep` writes them."""
    return (sim.sweep.rows_to_csv(rows, DATA_FIELDS)
            + sim.sweep.rows_to_csv(sim.sweep.summarize(rows),
                                    SUMMARY_FIELDS))


@dataclass(frozen=True)
class Sim:
    """One seeded `swarmlang.sim.run` call per unit."""

    name: str
    experiment: object    # () -> a fresh Experiment, so every run compiles
    n: int
    p: float
    steps: int
    verify: object = None  # (cfg, experiment, result) -> list of problems

    def prepare(self, seed, max_steps):
        cfg = SimulationConfig(n_robots=self.n, drop_prob=self.p, seed=seed,
                               max_steps=max_steps)
        experiment = self.experiment()

        def outcome(result):
            steps = result.steps_used(max_steps)
            row = {"experiment": self.name, "N": self.n, "P": self.p,
                   "rep": 0, "seed": seed,
                   "converged": int(result.converged), "steps": steps}
            final = result.metrics[-1].readouts if result.metrics else []
            problems = [f"robot {rid} faulted: {msg}"
                        for rid, msg in sorted(result.faults.items())]
            if self.verify is not None:
                problems += self.verify(cfg, experiment, result)
            extra = getattr(experiment, "output", lambda: "")()
            return Outcome(
                robot_steps=self.n * len(result.metrics), cells=1,
                record={"converged": result.converged, "steps": steps,
                        "digest": _sha(_tables([row]) + repr(final) + extra)},
                problems=problems)

        return (lambda: sim.run(cfg, experiment)), outcome


@dataclass(frozen=True)
class Sweep:
    """One serial `swarmlang.sim.experiment_sweep` call per unit."""

    name: str
    experiment: str
    n_grid: tuple
    p_grid: tuple
    reps: int
    steps: int

    def prepare(self, seed, max_steps):
        def call():
            # what `swarmlang sweep` does short of writing the files;
            # workers=1 pins it serial whatever SWARMLANG_THREADS says
            rows, summary = sim.experiment_sweep(
                self.experiment, list(self.n_grid), list(self.p_grid),
                self.reps, master_seed=seed, max_steps=max_steps, workers=1)
            return rows, (sim.sweep.rows_to_csv(rows, DATA_FIELDS)
                          + sim.sweep.rows_to_csv(summary, SUMMARY_FIELDS))

        def outcome(result):
            rows, text = result
            return Outcome(
                robot_steps=sum(r["N"] * r["steps"] for r in rows),
                cells=len(rows),
                record={"converged": sum(r["converged"] for r in rows),
                        "steps": sum(r["steps"] for r in rows),
                        "digest": _sha(text)})

        return call, outcome


# --- segregation: a recording goto checked against the host-side oracle -----

@dataclass
class SegregationExperiment(Experiment):
    """The bundled segregation script with a `goto` that records its vector.

    `calls[rid]` holds (step, x, y) of the robot's latest goto call.
    """

    calls: dict = field(default_factory=dict)

    def setup_vm(self, vm, rid, ctx):
        calls = self.calls

        def goto(vm, args):
            vec = args[0]
            calls[vm.robot_id] = (vm.step_count, vec.get("x"), vec.get("y"))

        vm.register_function("goto", goto, actuator=True)

    def output(self):
        return repr(sorted(self.calls.items()))


def build_segregation():
    return SegregationExperiment(
        name="segregation",
        sources=[("segregation.swl", behaviors.load_script("segregation"))],
        readout="id",          # the script has no readout; goto is its output
        convergence="none")


def verify_segregation(cfg, experiment, result):
    """Last step's goto vectors equal `segregation_direction` within 1e-6.

    Kin is same id parity.  At P=0 every neighbor is heard every step and
    its team is known from the swarm gossip by the last step.
    """
    if not result.metrics:
        return []
    last = result.metrics[-1].step
    poses = sim.place_robots(cfg)
    topology = sim.Topology.build(cfg, poses)
    heard = [{} for _ in range(cfg.n_robots)]
    for sender, links in enumerate(topology.out_links):
        for receiver, dist_cm, azimuth in links:
            heard[receiver][sender] = (dist_cm, azimuth)
    problems = []
    for rid, records in enumerate(heard):
        call = experiment.calls.get(rid)
        if not records:
            if call is not None:
                problems.append(f"robot {rid} has no neighbors but moved")
            continue
        if call is None or call[0] != last:
            problems.append(f"robot {rid} did not call goto at step {last}")
            continue
        kin = {other for other in records if other % 2 == rid % 2}
        want = behaviors.segregation_direction(records, kin)
        if not all(math.isclose(got, w, rel_tol=0.0, abs_tol=1e-6)
                   for got, w in zip(call[1:], want)):
            problems.append(f"robot {rid} goto {call[1:]} != oracle {want}")
    return problems


def catalog(tiny=False):
    """The workloads by name; `tiny` shrinks each one for self-tests."""
    if tiny:
        sizes = {"g": (40, 4), "b": 20, "s": (12, 5), "w": ((5, 8), 1, 5)}
    else:
        sizes = {"g": (1000, 6), "b": 200, "s": (100, 20),
                 "w": ((10, 30), 5, 20)}
    (g_n, g_steps), b_n = sizes["g"], sizes["b"]
    (s_n, s_steps), (w_grid, w_reps, w_steps) = sizes["s"], sizes["w"]
    workloads = [
        # Fixed step count, short of convergence: every run does the same
        # work whatever hop diameter the seed's placement has.
        Sim("gradient-1k", sim.build_gradient, n=g_n, p=0.25,
            steps=g_steps),
        # P=0 keeps the vstig flood busy until the quorum; the step limit
        # is never reached on the recorded seeds.
        Sim("barrier-200", sim.build_barrier, n=b_n, p=0.0, steps=100),
        Sim("segregation-100", build_segregation, n=s_n, p=0.0,
            steps=s_steps, verify=verify_segregation),
        Sweep("sweep-small", "consensus", n_grid=w_grid,
              p_grid=(0.0, 0.25, 0.5, 0.75), reps=w_reps, steps=w_steps),
    ]
    return {w.name: w for w in workloads}
