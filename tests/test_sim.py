import math
import random

import pytest

from swarmlang.sim import (SimulationConfig, Topology, build_barrier,
                           build_consensus, build_gradient,
                           barrier_pass_steps, consensus_expected_step,
                           deliver, experiment_sweep, gradient_fixpoint,
                           place_robots, run)
from swarmlang.sim.config import rng_for, _STREAM_NETWORK
from swarmlang.sim.experiments import Experiment
from swarmlang.sim.sweep import rows_to_csv, DATA_FIELDS
from swarmlang.vm import SentMessage
from swarmlang.wire import (Announce, Broadcast, Situated, SwarmJoin,
                            VstigPut, decode_message, encode_message)


def test_arena_side_formula():
    cfg = SimulationConfig(n_robots=100, robot_radius=0.085, density=0.1)
    assert cfg.side == pytest.approx(
        math.sqrt(100 * math.pi * 0.085 ** 2 / 0.1))
    assert cfg.side == pytest.approx(4.764, abs=1e-3)


def test_single_robot_placement_inside_arena():
    cfg = SimulationConfig(n_robots=1, seed=3)
    ((x, y),) = place_robots(cfg)
    assert abs(x) <= cfg.side / 2 and abs(y) <= cfg.side / 2


def test_placement_non_overlapping():
    cfg = SimulationConfig(n_robots=50, seed=1)
    poses = place_robots(cfg)
    min_sep = 2 * cfg.robot_radius
    for i in range(len(poses)):
        for j in range(i + 1, len(poses)):
            assert math.dist(poses[i], poses[j]) > min_sep


def test_placement_deterministic():
    cfg = SimulationConfig(n_robots=30, seed=42)
    assert place_robots(cfg) == place_robots(cfg)


def test_placement_fails_at_infeasible_density():
    cfg = SimulationConfig(n_robots=20, arena_side=0.3)
    with pytest.raises(RuntimeError):
        place_robots(cfg, max_tries_per_robot=50)


def test_drop_probability_validated():
    with pytest.raises(ValueError):
        SimulationConfig(n_robots=5, drop_prob=1.5)


def _outboxes_of_announces(n):
    out = []
    for rid in range(n):
        msg = Announce()
        out.append([SentMessage(msg, encode_message(rid, msg))])
    return out


def test_deliver_all_at_p_zero():
    cfg = SimulationConfig(n_robots=3, arena_side=1.0, comm_range=5.0, seed=1)
    poses = [(0.0, 0.0), (0.1, 0.0), (0.2, 0.0)]
    topo = Topology.build(cfg, poses)
    inboxes = deliver(0.0, topo, _outboxes_of_announces(3), rng_for(cfg, 9))
    assert all(len(inbox) == 2 for inbox in inboxes)
    # situated info carries distance in cm and the bearing to the sender
    first = inboxes[1][0]
    assert first.sender_id == 0
    assert first.distance == pytest.approx(10.0)
    assert first.elevation == 0.0


def test_deliver_none_at_p_one():
    cfg = SimulationConfig(n_robots=3, arena_side=1.0, comm_range=5.0,
                           drop_prob=1.0, seed=1)
    poses = [(0.0, 0.0), (0.1, 0.0), (0.2, 0.0)]
    topo = Topology.build(cfg, poses)
    inboxes = deliver(1.0, topo, _outboxes_of_announces(3), rng_for(cfg, 9))
    assert all(inbox == [] for inbox in inboxes)


def test_deliver_pattern_reproducible():
    cfg = SimulationConfig(n_robots=4, arena_side=1.0, comm_range=5.0, seed=5)
    poses = [(0.0, 0.0), (0.1, 0.0), (0.2, 0.0), (0.3, 0.0)]
    topo = Topology.build(cfg, poses)

    def pattern():
        rng = rng_for(cfg, _STREAM_NETWORK)
        inboxes = deliver(0.5, topo, _outboxes_of_announces(4), rng)
        return [[sm.sender_id for sm in inbox] for inbox in inboxes]

    assert pattern() == pattern()


def _per_pair_deliver(drop_prob, topology, outboxes, rng):
    """Reference delivery: one draw test and one record per pair."""
    inboxes = [[] for _ in outboxes]
    total = sum(len(outbox) * len(links)
                for outbox, links in zip(outboxes, topology.out_links))
    if total == 0:
        return inboxes
    draws = rng.random(total)
    k = 0
    for outbox, links in zip(outboxes, topology.out_links):
        for sent in outbox:
            sender_id, msg = decode_message(sent.raw)
            for j, dist_cm, azimuth in links:
                if draws[k] >= drop_prob:
                    inboxes[j].append((sender_id, dist_cm, azimuth, 0.0, msg))
                k += 1
    return inboxes


def _random_outboxes(rng, n):
    """0-3 messages per robot, of several wire types."""
    kinds = [lambda rid: Announce(), lambda rid: Broadcast("d", rid * 0.5),
             lambda rid: VstigPut(1, rid, "x" * rid, rid + 1, rid),
             lambda rid: SwarmJoin(rid)]
    outboxes = []
    for rid in range(n):
        msgs = [rng.choice(kinds)(rid) for _ in range(rng.randint(0, 3))]
        outboxes.append([SentMessage(m, encode_message(rid, m))
                         for m in msgs])
    return outboxes


@pytest.mark.parametrize("n", [1, 7, 60])
@pytest.mark.parametrize("drop_prob", [0.0, 0.3, 0.75, 1.0])
def test_deliver_matches_per_pair_model(n, drop_prob):
    cfg = SimulationConfig(n_robots=n, drop_prob=drop_prob, seed=n)
    poses = place_robots(cfg)
    if n > 1:
        poses[-1] = (10 * cfg.side, 10 * cfg.side)  # out of everyone's range
    topo = Topology.build(cfg, poses)
    if n > 1:
        assert topo.out_links[-1] == [] and any(topo.out_links)
    pick = random.Random(n * 100 + int(drop_prob * 100))
    rng, model_rng = rng_for(cfg, _STREAM_NETWORK), \
        rng_for(cfg, _STREAM_NETWORK)
    for step in range(4):
        outboxes = ([[] for _ in range(n)] if step == 0
                    else _random_outboxes(pick, n))
        got = deliver(drop_prob, topo, outboxes, rng)
        want = _per_pair_deliver(drop_prob, topo, outboxes, model_rng)
        assert [[tuple(sm) for sm in inbox] for inbox in got] == want
        assert all(type(sm) is Situated for inbox in got for sm in inbox)
        assert rng.bit_generator.state == model_rng.bit_generator.state


def test_range_cutoff():
    cfg = SimulationConfig(n_robots=2, arena_side=10.0, comm_range=1.0)
    topo = Topology.build(cfg, [(0.0, 0.0), (2.0, 0.0)])
    assert topo.out_links[0] == []


def test_consensus_matches_flooding_oracle_at_p_zero():
    for seed in (1, 2, 3, 4, 5):
        cfg = SimulationConfig(n_robots=10, drop_prob=0.0, seed=seed,
                               max_steps=60)
        result = run(cfg, build_consensus())
        topo = Topology.build(cfg, place_robots(cfg))
        expected = consensus_expected_step(topo, cfg.n_robots - 1)
        assert result.converged_step == expected
        assert result.faults == {}


def test_consensus_readouts_monotone():
    cfg = SimulationConfig(n_robots=10, drop_prob=0.25, seed=9, max_steps=60)
    result = run(cfg, build_consensus())
    assert result.converged
    for rid in range(10):
        series = [m.readouts[rid] for m in result.metrics]
        assert all(a <= b for a, b in zip(series, series[1:]))


def test_gradient_chain_per_hop_latency():
    spacing = 0.8
    n = 5
    poses = [(k * spacing, 0.0) for k in range(n)]
    cfg = SimulationConfig(n_robots=n, arena_side=10.0, comm_range=1.0,
                           drop_prob=0.0, seed=0, max_steps=20)
    result = run(cfg, build_gradient(), poses=poses)
    expected = [k * spacing * 100.0 for k in range(n)]
    assert result.converged
    final = result.metrics[-1].readouts
    assert final == expected
    for k in range(n):
        first_ok = next(m.step for m in result.metrics
                        if m.readouts[k] == expected[k])
        assert first_ok <= k + 1


def test_gradient_fixpoint_matches_oracle_exactly():
    cfg = SimulationConfig(n_robots=20, drop_prob=0.25, seed=3, max_steps=80)
    result = run(cfg, build_gradient())
    assert result.converged
    topo = Topology.build(cfg, place_robots(cfg))
    assert result.metrics[-1].readouts == gradient_fixpoint(topo)


def test_max_steps_zero_empty_series():
    cfg = SimulationConfig(n_robots=3, max_steps=0, arena_side=2.0)
    result = run(cfg, build_consensus())
    assert result.metrics == []
    assert not result.converged


def test_faulted_robot_recorded_and_run_continues():
    bad = Experiment(
        name="faulty",
        sources=[("faulty.swl", """
function step() {
  ticks = (ticks or 0) + 1
  if(id == 0) junk = nosuchfn()
}
""")],
        readout="ticks",
        convergence="none",
    )
    cfg = SimulationConfig(n_robots=3, arena_side=2.0, max_steps=4, seed=1)
    result = run(cfg, bad)
    assert 0 in result.faults
    assert result.metrics[-1].readouts[1] == 4  # others kept stepping


def test_average_neighbor_count_exceeds_three_at_defaults():
    for n in (10, 100):
        cfg = SimulationConfig(n_robots=n, seed=123)
        topo = Topology.build(cfg, place_robots(cfg))
        _, avg, _ = topo.degree_stats()
        assert avg > 3


def test_barrier_matches_flood_oracle_at_p_zero():
    cfg = SimulationConfig(n_robots=5, drop_prob=0.0, seed=11, max_steps=40)
    result = run(cfg, build_barrier())
    assert result.converged
    topo = Topology.build(cfg, place_robots(cfg))
    oracle = barrier_pass_steps(topo, 5)
    for rid in range(5):
        first_pass = next(m.step for m in result.metrics
                          if m.readouts[rid] == 1)
        assert first_pass == oracle[rid]
    spread = max(oracle) - min(oracle)
    hops = topo.hop_counts(0)
    diameter = max(max(topo.hop_counts(i)) for i in range(5))
    assert spread <= diameter + 1


def test_barrier_threshold_one_passes_immediately():
    cfg = SimulationConfig(n_robots=3, arena_side=2.0, drop_prob=0.0,
                           seed=2, max_steps=10)
    result = run(cfg, build_barrier(threshold=1))
    assert result.converged_step == 1


def test_barrier_blocks_when_one_robot_never_ready():
    holdout = Experiment(
        name="barrier-holdout",
        sources=[("barrier.swl",
                  __import__("swarmlang.behaviors", fromlist=["b"])
                  .load_script("barrier")),
                 ("driver.swl", """
function init() {
  barrier_set()
  if(id != 0) barrier_ready()
  passed = 0
}
function step() {
  if(passed == 0) {
    if(barrier_wait(THRESHOLD)) passed = 1
  }
}
""")],
        readout="passed",
        convergence="barrier-passed",
        payload_budget=4096,
        globals_setup={"THRESHOLD": lambda ctx, rid: ctx.cfg.n_robots},
    )
    cfg = SimulationConfig(n_robots=4, arena_side=1.0, comm_range=5.0,
                           drop_prob=0.0, seed=3, max_steps=15)
    result = run(cfg, holdout)
    assert not result.converged
    assert all(m.readouts.count(1) == 0 for m in result.metrics)


def test_sweep_row_count_and_convergence():
    rows, summary = experiment_sweep("consensus", [10], [0.0], reps=3,
                                     master_seed=5, max_steps=40)
    assert len(rows) == 3
    assert all(r["converged"] == 1 for r in rows)
    assert len(summary) == 1


def test_sweep_grid_shape():
    rows, _ = experiment_sweep("consensus", [5, 10], [0.0, 0.5], reps=2,
                               master_seed=1, max_steps=40)
    assert len(rows) == 8
    cells = {(r["N"], r["P"]) for r in rows}
    assert cells == {(5, 0.0), (5, 0.5), (10, 0.0), (10, 0.5)}


def test_sweep_reps_zero_header_only():
    rows, summary = experiment_sweep("consensus", [10], [0.0], reps=0)
    assert rows == [] and summary == []
    assert rows_to_csv(rows, DATA_FIELDS) == ",".join(DATA_FIELDS) + "\n"


def test_sweep_same_master_seed_identical():
    kw = dict(n_grid=[8], p_grid=[0.0, 0.5], reps=2, master_seed=77,
              max_steps=40)
    rows1, sum1 = experiment_sweep("consensus", **kw)
    rows2, sum2 = experiment_sweep("consensus", **kw)
    assert rows_to_csv(rows1, DATA_FIELDS) == rows_to_csv(rows2, DATA_FIELDS)
    assert sum1 == sum2


def test_sweep_worker_count_does_not_change_output():
    kw = dict(n_grid=[8], p_grid=[0.0, 0.5], reps=2, master_seed=31,
              max_steps=40)
    rows1, _ = experiment_sweep("consensus", workers=1, **kw)
    rows2, _ = experiment_sweep("consensus", workers=4, **kw)
    assert rows_to_csv(rows1, DATA_FIELDS) == rows_to_csv(rows2, DATA_FIELDS)


def test_membership_knowledge_fresh_after_one_list_period():
    """P=0, connected: in-range robots' neighbor_info matches the true
    membership once a LIST period has elapsed."""
    parity = Experiment(
        name="parity",
        sources=[("parity.swl", """
s = swarm.create(1)
s.select(id % 2 == 0)
function step() { tick = (tick or 0) + 1 }
""")],
        readout="tick",
        convergence="none",
    )
    cfg = SimulationConfig(n_robots=8, drop_prob=0.0, seed=6, max_steps=12)
    result = run(cfg, parity, keep_vms=True)
    assert result.faults == {}
    topo = Topology.build(cfg, place_robots(cfg))
    for rid, vm in enumerate(result.vms):
        for nbr, _, _ in topo.out_links[rid]:
            expected = {1} if nbr % 2 == 0 else set()
            assert vm.swarm_registry.swarms_of(nbr) == expected


def test_vstig_eventual_consistency_under_loss():
    """Connected topology, P<1: after writes stop, every robot converges
    to the resolver-maximal entry (default resolver: highest robot id)."""
    writer = Experiment(
        name="writers",
        sources=[("writers.swl", """
function init() {
  vs = stigmergy.create(1)
  vs.put("k", id * 11)
}
function step() { seen = vs.get("k") }
""")],
        readout="seen",
        convergence="none",
    )
    cfg = SimulationConfig(n_robots=10, drop_prob=0.5, seed=14, max_steps=60)
    result = run(cfg, writer, keep_vms=True)
    assert result.faults == {}
    entries = {(vm.vstig_map(1).entries["k"].value,
                vm.vstig_map(1).entries["k"].timestamp,
                vm.vstig_map(1).entries["k"].robot_id)
               for vm in result.vms}
    assert entries == {(99, 1, 9)}  # robot 9's entry wins everywhere


def test_goto_recorded_as_noop_actuator():
    formation = Experiment(
        name="formation",
        sources=[("formation.swl",
                  __import__("swarmlang.behaviors", fromlist=["b"])
                  .load_script("formation"))],
        readout="DELTA",
        convergence="none",
        bindings=("goto",),
    )
    cfg = SimulationConfig(n_robots=4, arena_side=0.9, comm_range=5.0,
                           drop_prob=0.0, seed=8, max_steps=3)
    result = run(cfg, formation)
    assert result.faults == {}
