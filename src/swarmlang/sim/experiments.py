"""Built-in experiments with their independent convergence oracles.

consensus: every robot's stored value must equal the highest robot id.
  At P=0 the exact convergence step is eccentricity(max-id robot) + 1
  hops of synchronous flooding (the oracle below).
gradient: every robot's estimate must equal the relaxation fixpoint of
  shortest path sums over the comm graph (Dijkstra, summing in the same
  w + d order the script uses, so equality is exact).
barrier: every robot must observe the quorum; at P=0 robot i passes at
  step h_T(i) + 1 where h_T(i) is the T-th smallest hop distance from i.
"""

import functools
import heapq
import math
from dataclasses import dataclass, field

from .. import behaviors
from ..compiler import compile_source
from ..errors import SwarmlangError
from ..lexer import read_source
from ..linker import link
from ..values import Table

GRADIENT_INF = 50000.0


@dataclass
class Experiment:
    name: str
    sources: list                      # [(origin, text)] linked in order
    readout: str
    convergence: str                   # key into ORACLES
    payload_budget: int = 200
    globals_setup: dict = field(default_factory=dict)
    bindings: tuple = ()               # host function names to mock
    sense: object = None               # callable(vm, rid, ctx, step) or None

    def image(self):
        """The linked image of `sources`, shared by equal sources."""
        return _linked(tuple(map(tuple, self.sources)))

    def setup_vm(self, vm, rid, ctx):
        for name in self.bindings:
            vm.register_function(name, _mock_binding, actuator=True)
        for name, value in self.globals_setup.items():
            vm.set_global(name,
                          value(ctx, rid) if callable(value) else value)

    def prepare(self, ctx):
        ctx.extra["converged"] = ORACLES[self.convergence](ctx)

    def converged(self, ctx, readouts):
        return ctx.extra["converged"](readouts)


@functools.lru_cache(maxsize=16)
def _linked(sources):
    """Compile and link once per process; the VMs only read the image."""
    return link([compile_source(text, origin) for origin, text in sources])


def _mock_binding(vm, args):
    """Every mocked host binding: does nothing, returns nil."""


# --- oracles ---------------------------------------------------------------

def consensus_expected_step(topology, max_rid):
    """P=0 oracle: synchronous max-flooding finishes one step after the
    value has covered the graph, i.e. eccentricity(source) + 1."""
    hops = topology.hop_counts(max_rid)
    if any(h is None for h in hops):
        return None  # disconnected: consensus unreachable
    return max(hops) + 1


def gradient_fixpoint(topology, source=0, inf=GRADIENT_INF):
    """Relaxation fixpoint of w + d over the comm graph (Dijkstra).

    Link weights are distances, never negative, and float addition is
    monotone, so the label a robot is settled with is the least w + d sum
    over all paths, capped at `inf`: the fixpoint the script relaxes to.
    """
    dist = [inf] * len(topology.poses)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, i = heapq.heappop(heap)
        if d > dist[i]:
            continue  # a stale entry: i was settled with a smaller sum
        for j, w, _ in topology.out_links[i]:
            cand = w + d
            if cand < dist[j]:
                dist[j] = cand
                heapq.heappush(heap, (cand, j))
    return dist


def barrier_pass_steps(topology, threshold):
    """P=0 oracle: step at which each robot first observes the quorum."""
    n = len(topology.poses)
    out = []
    for i in range(n):
        hops = topology.hop_counts(i)
        known = sorted(h for h in hops if h is not None)
        if len(known) < threshold:
            out.append(None)
        else:
            out.append(known[threshold - 1] + 1)
    return out


# --- convergence predicates -------------------------------------------------
# Each oracle takes the run context once and returns the predicate that
# `Experiment.converged` applies to every step's readouts.

def _max_id_consensus(ctx):
    target = ctx.cfg.n_robots - 1
    return lambda readouts: all(r == target for r in readouts)


def _gradient_fixpoint(ctx):
    fixpoint = gradient_fixpoint(ctx.topology)
    return lambda readouts: all(r == f for r, f in zip(readouts, fixpoint))


def _all_ones(ctx):
    return lambda readouts: all(r == 1 for r in readouts)


def _never(ctx):
    return lambda readouts: False


ORACLES = {
    "max-id-consensus": _max_id_consensus,
    "gradient-fixpoint": _gradient_fixpoint,
    "all-ones": _all_ones,
    "none": _never,
}


# --- built-in experiment builders -------------------------------------------

BARRIER_DRIVER = """
function init() {
  barrier_set()
  barrier_ready()
  passed = 0
}
function step() {
  if(passed == 0) {
    if(barrier_wait(THRESHOLD)) passed = 1
  }
}
"""


def build_consensus():
    return Experiment(
        name="consensus",
        sources=[("consensus.swl", behaviors.load_script("consensus"))],
        readout="vs_value",
        convergence="max-id-consensus",
    )


def build_gradient():
    return Experiment(
        name="gradient",
        sources=[("gradient.swl", behaviors.load_script("gradient"))],
        readout="mydist",
        convergence="gradient-fixpoint",
    )


def build_barrier(threshold=None):
    return Experiment(
        name="barrier",
        sources=[("barrier.swl", behaviors.load_script("barrier")),
                 ("barrier_driver.swl", BARRIER_DRIVER)],
        readout="passed",
        convergence="all-ones",
        payload_budget=4096,  # tuple re-propagation bursts at larger N
        globals_setup={"THRESHOLD": (lambda ctx, rid: ctx.cfg.n_robots)
                       if threshold is None else threshold},
    )


COLOR_RED = 1
COLOR_BLUE = 2


def build_target_select(targets=((0.0, 0.0, COLOR_RED),),
                        visibility=0.5):
    """Target relay demo with a synthetic camera sensor.

    Robots within `visibility` meters of a target point get a
    camera.targetdata table {dist (cm), color} refreshed every step;
    everybody else sees an empty camera table.
    """

    def sense(vm, rid, ctx, step):
        x, y = ctx.poses[rid]
        best = None
        for tx, ty, color in targets:
            d = math.hypot(x - tx, y - ty)
            if d <= visibility and (best is None or d < best[0]):
                best = (d, color)
        if best is None:
            vm.set_table("camera", [])
        else:
            data = Table({"dist": best[0] * 100.0, "color": best[1]})
            vm.set_table("camera", [("targetdata", data)])

    return Experiment(
        name="target_select",
        sources=[("target_select.swl",
                  behaviors.load_script("target_select"))],
        readout="targetfound",
        convergence="all-ones",
        payload_budget=4096,
        bindings=("goto",),
        globals_setup={
            "NUM_ROBOTS": lambda ctx, rid: ctx.cfg.n_robots,
            "COLOR_RED": COLOR_RED,
            "COLOR_BLUE": COLOR_BLUE,
        },
        sense=sense,
    )


def build_custom(script_path, readout, convergence="none"):
    """A user script, named after its path as given."""
    return Experiment(
        name=script_path,
        sources=[(script_path, read_source(script_path))],
        readout=readout,
        convergence=convergence,
        bindings=("goto",),
    )


BUILDERS = {
    "consensus": build_consensus,
    "gradient": build_gradient,
    "barrier": build_barrier,
}


def experiment_for(script, readout=None, convergence="none"):
    """The experiment a `--script` value names, built afresh.

    A key of BUILDERS gives that built-in experiment; `readout` and
    `convergence` are then ignored.  Anything else is a script path run
    by `build_custom`, which needs the global to sample as `readout`
    (SwarmlangError without it), raises OSError for an unreadable file and
    SourceError for one that is not UTF-8.
    """
    if script in BUILDERS:
        return BUILDERS[script]()
    if readout is None:
        raise SwarmlangError("user-supplied scripts need --readout (and "
                             "usually --convergence)")
    return build_custom(script, readout, convergence)
