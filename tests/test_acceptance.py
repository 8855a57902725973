"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Heavy grids derive every cell seed from ACCEPT_SEED, so results are fully
deterministic.  Runs on disconnected placement realizations (an isolated
robot can occur at these densities) are excluded from the consensus
criterion and counted: global agreement is topologically impossible
there, and the suite asserts such realizations stay rare.
"""

import math
import os
import random
import statistics
import time

from swarmlang.behaviors import direction as direction_oracle
from swarmlang.behaviors import force_magnitude
from swarmlang.linker import compile_and_link
from swarmlang.sim import (SimulationConfig, Topology, place_robots,
                           experiment_sweep, run)
from swarmlang.sim.config import derive_seed
from swarmlang.sim.network import deliver
from swarmlang.sim.sweep import rows_to_csv, DATA_FIELDS
from swarmlang.swarms import SwarmRegistry, optimize_queue
from swarmlang.vm import Vm
from swarmlang.wire import Announce, Situated, SwarmJoin, SwarmLeave, SwarmList

ACCEPT_SEED = 20250811
WORKERS = max(1, min(8, os.cpu_count() or 1))


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    return ok


# -- criterion 1: language conformance ---------------------------------------

GOLDEN = [
    ("a = 3 + 7", "a", 10),
    ("a = 3 + 7\ni = 0; while(i < a) i = i + 1", "i", 10),
    ("a = 3 + 7\nif(a == 10) i = 0", "i", 0),
    ("t = {}\nt[6] = 5\nx = t[6]", "x", 5),
    ("t = {}\nt.b = 9\nx = t.b", "x", 9),
    ('t = {}\nt.b = 9\nt["b"] = 10\nx = t.b', "x", 10),
    ("function f(a) { return a }\nx = f(9)", "x", 9),
    ("function f(a) { return a }\nn = f\nx = n(5)", "x", 5),
    ("l = function(a,b) { return a+b }\nx = l(2,3)", "x", 5),
    ("t = {}\nt.a = 4\nt.m = function(p) { return self.a + p }\nx = t.m(6)",
     "x", 10),
    ("x = 2+3*4^2", "x", 50),
    ("if(fly_to) y = 1\nx = 0\nif(y == nil) x = 1", "x", 1),
    ("s = swarm.create(1)\nx = s.in()", "x", 0),
    ("s = swarm.create(1)\ns.select(id % 2 == 0)\nx = s.in()", "x", 1),
    ("s = swarm.create(1)\ns.join()\ns.unselect(id > 5)\nx = s.in()", "x", 1),
    ("s = swarm.create(1)\ns.join()\ns.leave()\nx = s.in()", "x", 0),
    ("s = swarm.create(1)\ns.join()\ns.exec(function() { r = swarm.id() })\n"
     "x = r", "x", 1),
    ('v = stigmergy.create(1)\nv.put("a", 6)\nx = v.get("a")', "x", 6),
    ('v = stigmergy.create(1)\nv.put("a", 6)\nx = v.size()', "x", 1),
    ("x = math.min(3, 1.5)", "x", 1.5),
]


def test_criterion_language_conformance():
    t0 = time.time()
    failures = []
    for src, name, want in GOLDEN:
        vm = Vm(compile_and_link(src), 0, print_sink=lambda s: None)
        vm.step([])
        got = vm.get_global(name)
        if vm.faulted or got != want:
            failures.append((src, got, vm.faulted))
    dt = time.time() - t0
    ok = not failures and dt < 1.0
    assert report("language conformance",
                  ok, f"{len(GOLDEN)} goldens in {dt * 1000:.0f} ms"), \
        failures


# -- criterion 2: swarm queue optimization equivalence -------------------------

def _random_swarm_messages(rng, length):
    msgs = []
    for _ in range(length):
        kind = rng.randrange(3)
        sid = rng.randrange(5)
        if kind == 0:
            msgs.append(SwarmJoin(sid))
        elif kind == 1:
            msgs.append(SwarmLeave(sid))
        else:
            msgs.append(SwarmList(
                [s for s in range(5) if rng.random() < 0.4]))
    return msgs


def _registry_view(messages, sender=3):
    reg = SwarmRegistry()
    for msg in messages:
        reg.handle_message(sender, msg)
    return reg.swarms_of(sender) or set()


def test_criterion_queue_optimization_equivalence():
    rng = random.Random(ACCEPT_SEED)
    mismatches = 0
    for _ in range(1000):
        msgs = _random_swarm_messages(rng, rng.randrange(0, 51))
        copies = [SwarmList(list(m.swarm_ids)) if isinstance(m, SwarmList)
                  else m for m in msgs]
        if _registry_view(optimize_queue(copies)) != _registry_view(msgs):
            mismatches += 1

    paper_rules = []
    from swarmlang.swarms import enqueue_swarm_message
    q = {}
    enqueue_swarm_message(q, SwarmJoin(1))
    enqueue_swarm_message(q, SwarmList([1, 2]))
    paper_rules.append(list(q.values()) == [SwarmList([1, 2])])
    q = {}
    enqueue_swarm_message(q, SwarmList([1, 2]))
    enqueue_swarm_message(q, SwarmLeave(2))
    paper_rules.append(list(q.values()) == [SwarmList([1])])
    q = {}
    enqueue_swarm_message(q, SwarmLeave(3))
    enqueue_swarm_message(q, SwarmJoin(3))
    paper_rules.append(list(q.values()) == [SwarmJoin(3)])

    ok = mismatches == 0 and all(paper_rules)
    assert report("queue-optimization equivalence", ok,
                  f"1000 sequences, {mismatches} mismatches; "
                  f"rule examples {paper_rules}")


# -- criteria 3 and 4: the experiment grids -------------------------------------

N_GRID = [10, 100]
P_GRID = [0.0, 0.25, 0.5, 0.75]
REPS = 20


def _connected(n, p, rep):
    seed = derive_seed(ACCEPT_SEED, n, p, rep)
    cfg = SimulationConfig(n_robots=n, seed=seed)
    topo = Topology.build(cfg, place_robots(cfg))
    return all(h is not None for h in topo.hop_counts(0))


def test_criterion_consensus_grid():
    t0 = time.time()
    rows, _ = experiment_sweep("consensus", N_GRID, P_GRID, REPS,
                               master_seed=ACCEPT_SEED, max_steps=20,
                               workers=WORKERS)
    rows95, _ = experiment_sweep("consensus", N_GRID, [0.95], REPS,
                                 master_seed=ACCEPT_SEED, max_steps=200,
                                 workers=WORKERS)
    dt = time.time() - t0

    disconnected = 0
    late = []
    per_n_steps = {n: [] for n in N_GRID}
    for row in rows:
        if not row["converged"] or row["steps"] > 20:
            if not _connected(row["N"], row["P"], row["rep"]):
                disconnected += 1
                continue
            late.append((row["N"], row["P"], row["rep"], row["steps"],
                         row["converged"]))
        else:
            per_n_steps[row["N"]].append(row["steps"])

    tail_ok = True
    for n in N_GRID:
        base = statistics.median(per_n_steps[n])
        tail = statistics.median(
            [r["steps"] for r in rows95
             if r["N"] == n and _connected(n, 0.95, r["rep"])])
        if not tail > base:
            tail_ok = False

    ok = not late and tail_ok and disconnected <= len(rows) * 0.05 \
        and dt < 120
    assert report(
        "virtual stigmergy consensus grid", ok,
        f"{len(rows)} runs, late/unconverged on connected topologies: "
        f"{late or 'none'}, disconnected excluded: {disconnected}, "
        f"P=0.95 tail ok: {tail_ok}, {dt:.1f} s"), late


def test_criterion_gradient_grid():
    t0 = time.time()
    rows, _ = experiment_sweep("gradient", N_GRID, P_GRID, REPS,
                               master_seed=ACCEPT_SEED, max_steps=20,
                               workers=WORKERS)
    dt = time.time() - t0
    late = [(r["N"], r["P"], r["rep"]) for r in rows if not r["converged"]]
    ok = not late and dt < 120
    assert report(
        "gradient formation grid", ok,
        f"{len(rows)} runs, fixpoint within 20 steps missed by {len(late)} "
        f"runs {('incl. ' + str(late[:6])) if late else ''}, {dt:.1f} s"), (
        "exact shortest-path fixpoint within 20 steps is unattainable at "
        "N=100 for P in {0.5, 0.75} under per-message Bernoulli drops: the "
        "exact minimum must traverse a near-unique shortest path with "
        "geometric per-hop retry delay (~1/(1-P) steps per hop, ~8 hops). "
        "See notes/decisions.md; the paper's weaker coverage metric is "
        "checked in test_gradient_paper_metric_coverage.")


def test_gradient_paper_metric_coverage():
    """Supporting check (not a stated criterion): the original performance
    measure -- every robot holds some finite estimate -- within 20 steps."""
    from swarmlang.sim import build_gradient
    late = []
    for n in N_GRID:
        for p in P_GRID:
            for rep in range(REPS):
                seed = derive_seed(ACCEPT_SEED, n, p, rep)
                cfg = SimulationConfig(n_robots=n, drop_prob=p, seed=seed,
                                       max_steps=20)
                result = run(cfg, build_gradient())
                covered = next(
                    (m.step for m in result.metrics
                     if all(v is not None and v < 50000.0
                            for v in m.readouts)), None)
                if covered is None and _connected(n, p, rep):
                    late.append((n, p, rep))
    assert report("gradient coverage (paper metric, supporting)",
                  not late, f"missed by {late or 'none'}")


def test_gradient_fixpoint_exactness_at_convergence():
    """Supporting check: whenever the run converges, the values are the
    oracle's exactly (they are equal bitwise; convergence is defined by
    equality, so this re-validates the oracle path on fresh runs)."""
    from swarmlang.sim import build_gradient, gradient_fixpoint
    checked = 0
    for n, p, rep in ((10, 0.75, 0), (100, 0.25, 1), (100, 0.0, 2),
                      (100, 0.75, 0)):
        seed = derive_seed(ACCEPT_SEED, n, p, rep)
        cfg = SimulationConfig(n_robots=n, drop_prob=p, seed=seed,
                               max_steps=120)
        result = run(cfg, build_gradient())
        if not result.converged:
            continue
        topo = Topology.build(cfg, place_robots(cfg))
        assert result.metrics[-1].readouts == gradient_fixpoint(topo)
        checked += 1
    assert report("gradient fixpoint exactness (supporting)", checked >= 2,
                  f"{checked} converged runs checked bitwise")


# -- criterion 5: conflict resolution races --------------------------------------

RACE_N = 4
RACE_STEPS = 12

RACE_SCRIPT_DEFAULT = """
function init() {
  vs = stigmergy.create(1)
  if(MYVALUE != nil) vs.put("k", MYVALUE)
}
function step() { witness = vs.get("k") }
"""

RACE_SCRIPT_CUSTOM = """
function init() {
  vs = stigmergy.create(1)
  vs.onconflict(function(k,l,r) {
    if(r.data < l.data or
      (r.data == l.data and
       r.robot < l.robot)) {
      return l
    }
    else return r
  })
  if(MYVALUE != nil) vs.put("k", MYVALUE)
}
function step() { witness = vs.get("k") }
"""


def _race(image, values, rng_seed):
    cfg = SimulationConfig(n_robots=RACE_N, arena_side=0.9, comm_range=5.0,
                           drop_prob=0.0, seed=rng_seed, max_steps=RACE_STEPS)
    poses = [(0.2 * i, 0.0) for i in range(RACE_N)]
    topo = Topology.build(cfg, poses)
    vms = []
    for rid in range(RACE_N):
        vm = Vm(image, rid, print_sink=lambda s: None)
        vm.set_global("MYVALUE", values.get(rid))
        vms.append(vm)
    from swarmlang.sim.config import rng_for
    rng = rng_for(cfg, 2)
    inboxes = [[] for _ in range(RACE_N)]
    for _ in range(RACE_STEPS):
        outboxes = [vm.step(inboxes[rid])[0] for rid, vm in enumerate(vms)]
        inboxes = deliver(0.0, topo, outboxes, rng)
    entries = [vm.vstig_map(1).entries.get("k") for vm in vms]
    assert all(vm.faulted is None for vm in vms)
    return entries


def test_criterion_conflict_resolution_races():
    rng = random.Random(ACCEPT_SEED ^ 0xace)
    img_default = compile_and_link(RACE_SCRIPT_DEFAULT)
    img_custom = compile_and_link(RACE_SCRIPT_CUSTOM)
    bad = 0
    for i in range(500):
        a, b = rng.sample(range(RACE_N), 2)
        values = {a: rng.randrange(1000), b: rng.randrange(1000)}
        use_custom = i % 2 == 1
        image = img_custom if use_custom else img_default
        entries = _race(image, values, rng_seed=i)
        if use_custom:
            win_rid = max((a, b), key=lambda r: (values[r], r))
        else:
            win_rid = max(a, b)
        expected = (values[win_rid], 1, win_rid)
        got = {(e.value, e.timestamp, e.robot_id) for e in entries if e}
        if got != {expected} or len([e for e in entries if e]) != RACE_N:
            bad += 1
    assert report("conflict resolution races", bad == 0,
                  f"500 two-writer races, {bad} without a single "
                  "swarm-wide resolver-maximal winner")


# -- criterion 6: determinism across worker counts --------------------------------

def test_criterion_determinism_workers():
    kw = dict(n_grid=[10], p_grid=[0.0, 0.5], reps=3,
              master_seed=ACCEPT_SEED, max_steps=40)
    outputs = []
    for workers in (1, 8):
        rows, summary = experiment_sweep("consensus", workers=workers, **kw)
        outputs.append(rows_to_csv(rows, DATA_FIELDS))
    grad = []
    for workers in (1, 8):
        rows, _ = experiment_sweep("gradient", workers=workers, **kw)
        grad.append(rows_to_csv(rows, DATA_FIELDS))

    import contextlib
    import io
    from swarmlang.cli import main as cli_main
    sim_outs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(["sim", "--script", "gradient", "--robots",
                             "10", "--drop-prob", "0.5", "--seed",
                             str(ACCEPT_SEED), "--max-steps", "40"])
        assert code == 0
        sim_outs.append(buf.getvalue())

    ok = outputs[0] == outputs[1] and grad[0] == grad[1] \
        and sim_outs[0] == sim_outs[1]
    assert report("determinism across worker counts", ok,
                  "byte-identical sweep CSV with 1 and 8 workers; "
                  "identical repeated sim output")


# -- criterion 7: virtual-force oracle ---------------------------------------------

def test_criterion_virtual_force_oracle():
    analytic = (
        abs(force_magnitude(50.0, 50.0, 2700.0)) < 1e-12 and
        abs(force_magnitude(25.0, 50.0, 2700.0) + 1296.0) < 1e-9)

    from swarmlang.behaviors import load_script
    vm = Vm(compile_and_link(load_script("formation"), "formation.swl"), 0,
            print_sink=lambda s: None)
    vm.register_function("goto", lambda _vm, args: None, actuator=True)
    rng = random.Random(ACCEPT_SEED ^ 0xf0)
    worst = 0.0
    for _ in range(100):
        records = {rid: (rng.uniform(20.0, 200.0),
                         rng.uniform(-math.pi, math.pi))
                   for rid in range(1, rng.randrange(2, 9))}
        inbox = [Situated(rid, d, az, 0.0, Announce())
                 for rid, (d, az) in sorted(records.items())]
        vm.step(inbox)
        got = vm.call_function("direction")
        want = direction_oracle(list(records.values()))
        worst = max(worst,
                    abs(got.get("x") - want[0]), abs(got.get("y") - want[1]))
    ok = analytic and worst < 1e-6 and vm.faulted is None
    assert report("virtual-force script/oracle agreement", ok,
                  f"analytic ok: {analytic}, worst component error "
                  f"{worst:.2e} over 100 random views")
