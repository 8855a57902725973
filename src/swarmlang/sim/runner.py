"""Lockstep simulation loop.

Round k: the host sense hook runs (phase 1), every VM steps on the
inboxes fixed at the end of round k-1, outboxes are collected, and
delivery computes the inboxes for round k+1.  A message sent in round k
is therefore never visible before round k+1.  Faulted robots are
recorded and skipped; the run stops at convergence or max_steps.

Every object a round allocates (inbox records, decoded messages,
neighbor record tables) lives exactly one round, so the collector's
young generation is sized to the round: once the links are counted,
`run` raises the young-generation threshold to at least
`_YOUNG_PER_LINK * (links + N)` allocations for the rest of the run and
restores the host's thresholds when it returns or raises.
"""

import gc
from dataclasses import dataclass, field

from ..vm import Vm, VmConfig
from .config import Topology, place_robots, rng_for, _STREAM_NETWORK
from .network import deliver


@dataclass
class StepMetrics:
    step: int
    readouts: list
    converged: bool


@dataclass
class RunResult:
    metrics: list = field(default_factory=list)
    converged_step: int | None = None
    faults: dict = field(default_factory=dict)
    vms: list | None = None  # populated when run(..., keep_vms=True)

    @property
    def converged(self):
        return self.converged_step is not None

    def steps_used(self, max_steps):
        return self.converged_step if self.converged else max_steps


@dataclass
class RunContext:
    """Everything an experiment's hooks may need during a run."""
    cfg: object
    poses: list
    topology: object
    extra: dict = field(default_factory=dict)


def _discard(_):
    pass


# Young-generation allocations allowed per (link + robot) during a run.
# The peak number of tracked objects a round holds, per (link + robot),
# is 3.5 on gradient-1k, 4.8 on segregation-100, 5.7 on barrier-200 and
# 4.1 on sweep-small (seed 5), so with 8 a round triggers about one young
# collection and its records are not promoted and traced again by the
# older generations.  Cyclic garbage a script makes is still freed after
# at most 8 * (links + N) allocations, so the memory it can hold is
# bounded by the topology, not by the length of the run.
_YOUNG_PER_LINK = 8


def run(cfg, experiment, poses=None, keep_vms=False):
    """Run one seeded simulation of `experiment` under `cfg`.

    `poses` overrides the seeded placement (fixed scenarios in tests);
    its length must match cfg.n_robots and its coordinates be finite, or
    ValueError is raised.  With keep_vms=True the result carries the VMs
    for post-run inspection.
    """
    if poses is None:
        poses = place_robots(cfg)
    elif len(poses) != cfg.n_robots:
        raise ValueError("poses length must equal the robot count")
    topology = Topology.build(cfg, poses)
    saved = gc.get_threshold()
    if saved[0]:  # 0: the host switched automatic collection off
        young = _YOUNG_PER_LINK * (sum(map(len, topology.out_links))
                                   + cfg.n_robots)
        gc.set_threshold(max(saved[0], young), *saved[1:])
    try:
        ctx = RunContext(cfg, poses, topology)
        experiment.prepare(ctx)

        image = experiment.image()
        vm_config = VmConfig(payload_budget=experiment.payload_budget)
        vms = []
        for rid in range(cfg.n_robots):
            vm = Vm(image, rid, vm_config, print_sink=_discard)
            experiment.setup_vm(vm, rid, ctx)
            vms.append(vm)

        rng_net = rng_for(cfg, _STREAM_NETWORK)
        result = RunResult()
        if keep_vms:
            result.vms = vms
        inboxes = [[] for _ in range(cfg.n_robots)]
        for step in range(1, cfg.max_steps + 1):
            outboxes = []
            for rid, vm in enumerate(vms):
                if experiment.sense is not None:
                    experiment.sense(vm, rid, ctx, step)
                outbox, _actuation = vm.step(inboxes[rid])
                outboxes.append(outbox)
                if vm.faulted and rid not in result.faults:
                    result.faults[rid] = str(vm.faulted)
            readouts = [vm.get_global(experiment.readout) for vm in vms]
            converged = experiment.converged(ctx, readouts)
            result.metrics.append(StepMetrics(step, readouts, converged))
            if converged:
                result.converged_step = step
                break
            inboxes = deliver(cfg.drop_prob, topology, outboxes, rng_net)
        return result
    finally:
        gc.set_threshold(*saved)
