"""Lockstep simulation loop.

Round k: the host sense hook runs (phase 1), every VM steps on the
inboxes fixed at the end of round k-1, outboxes are collected, and
delivery computes the inboxes for round k+1.  A message sent in round k
is therefore never visible before round k+1.  Faulted robots are
recorded and skipped; the run stops at convergence or max_steps.
"""

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
