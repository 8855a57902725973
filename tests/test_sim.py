import gc
import heapq
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmlang.errors import WireError
from swarmlang.sim import (SimulationConfig, Topology, build_barrier,
                           build_consensus, build_gradient,
                           barrier_pass_steps, consensus_expected_step,
                           deliver, experiment_sweep, gradient_fixpoint,
                           place_robots, run)
from swarmlang.sim import experiments, network, runner
from swarmlang.sim.config import (_STREAM_NETWORK, _STREAM_PLACEMENT,
                                  PlacementError, _cell_side, rng_for)
from swarmlang.sim.experiments import Experiment
from swarmlang.sim.sweep import rows_to_csv, DATA_FIELDS
from swarmlang.values import Table
from swarmlang.vm import SentMessage
from swarmlang.wire import (Announce, Broadcast, Situated, SwarmJoin,
                            SwarmLeave, SwarmList, VstigGet, VstigPut,
                            decode_message, encode_message)


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


def _scalar_placement(cfg, max_tries_per_robot):
    """The poses of two scalar draws per try, each tested against every
    pose placed, and the tries taken; None for poses where the budget ran
    out first."""
    rng = rng_for(cfg, _STREAM_PLACEMENT)
    half = cfg.side / 2.0
    poses, tries = [], 0
    while len(poses) < cfg.n_robots:
        if tries == max_tries_per_robot * cfg.n_robots:
            return None, tries
        tries += 1
        x = rng.uniform(-half, half)
        y = rng.uniform(-half, half)
        if all(math.hypot(x - px, y - py) > 2.0 * cfg.robot_radius
               for px, py in poses):
            poses.append((x, y))
    return poses, tries


@pytest.mark.parametrize("density", [0.1, 0.5])
@pytest.mark.parametrize("n", [1, 2, 10, 60])
def test_placement_matches_scalar_draws(n, density):
    # drawn in blocks, the uniforms are the scalar draws' doubles in order
    rejected = False
    for seed in range(8):
        cfg = SimulationConfig(n_robots=n, density=density, seed=seed)
        poses, tries = _scalar_placement(cfg, 1000)
        assert place_robots(cfg) == poses
        rejected |= tries > n
    assert rejected or n < 10


def test_placement_budget_matches_scalar_draws():
    # a dense arena: the budget of tries per robot decides whether
    # placement succeeds, and it does where the scalar draws do
    outcomes = set()
    for tries_per_robot in range(1, 8):
        for seed in range(4):
            cfg = SimulationConfig(n_robots=30, density=0.5, seed=seed)
            poses, _ = _scalar_placement(cfg, tries_per_robot)
            outcomes.add(poses is None)
            if poses is None:
                with pytest.raises(PlacementError):
                    place_robots(cfg, max_tries_per_robot=tries_per_robot)
            else:
                assert place_robots(
                    cfg, max_tries_per_robot=tries_per_robot) == poses
    assert outcomes == {False, True}


def test_drop_probability_validated():
    with pytest.raises(ValueError):
        SimulationConfig(n_robots=5, drop_prob=1.5)


@pytest.mark.parametrize("field, value", [
    ("density", 0.0), ("density", -1.0), ("density", math.nan),
    ("density", math.inf), ("max_steps", -1)])
def test_density_and_max_steps_validated(field, value):
    with pytest.raises(ValueError):
        SimulationConfig(n_robots=5, **{field: value})


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


WIRE_KINDS = [lambda rid: Announce(), lambda rid: Broadcast("d", rid * 0.5),
              lambda rid: VstigPut(1, rid, "x" * rid, rid + 1, rid),
              lambda rid: VstigGet(2, "k", None, 0, rid),
              lambda rid: SwarmJoin(rid), lambda rid: SwarmLeave(rid),
              lambda rid: SwarmList([rid % 7, 9])]


def _outboxes(kinds):
    """Robot rid sends a WIRE_KINDS[i] message for each i in kinds[rid]."""
    outboxes = []
    for rid, picks in enumerate(kinds):
        msgs = [WIRE_KINDS[i](rid) for i in picks]
        outboxes.append([SentMessage(m, encode_message(rid, m))
                         for m in msgs])
    return outboxes


def _random_outboxes(rng, n):
    """0-3 messages per robot, of several wire types."""
    return _outboxes([[rng.randrange(len(WIRE_KINDS))
                       for _ in range(rng.randint(0, 3))]
                      for _ in range(n)])


def _check_against_per_pair_model(drop_prob, topo, outboxes, rng, model_rng):
    """One step of `deliver` flattened equals the per-pair model's step."""
    got = deliver(drop_prob, topo, outboxes, rng)
    want = _per_pair_deliver(drop_prob, topo, outboxes, model_rng)
    assert [[(sender_id, distance, azimuth, elevation, msg)
             for sender_id, distance, azimuth, elevation, msgs in inbox
             for msg in msgs]
            for inbox in got] == want
    assert rng.bit_generator.state == model_rng.bit_generator.state
    assert all(type(sm) is Situated and type(sm.msgs) is tuple and sm.msgs
               for inbox in got for sm in inbox)
    for inbox in got:
        senders = [sm.sender_id for sm in inbox]
        assert senders == sorted(set(senders))  # one record per heard link
    # every receiver that got all of a sender's messages (at P=0 every
    # receiver) holds the one decoded tuple
    shared = {}
    for inbox in got:
        for sm in inbox:
            if len(sm.msgs) == len(outboxes[sm.sender_id]):
                assert shared.setdefault(sm.sender_id, sm.msgs) is sm.msgs
            else:
                assert drop_prob > 0.0
    return got


def test_received_messages_are_shared_and_never_mutated(monkeypatch):
    # barrier at P=0 floods stigmergy PUTs and GETs over every link
    delivered = []
    real = runner.deliver

    def recording(drop_prob, topology, outboxes, rng):
        inboxes = real(drop_prob, topology, outboxes, rng)
        shared, sent = {}, {}
        for inbox in inboxes:
            for sm in inbox:  # every receiver holds the one decoded tuple
                assert shared.setdefault(sm.sender_id, sm.msgs) is sm.msgs
                for msg in sm.msgs:
                    sent[id(msg)] = (sm.sender_id, msg,
                                     encode_message(sm.sender_id, msg))
        delivered.extend(sent.values())
        return inboxes

    monkeypatch.setattr(runner, "deliver", recording)
    run(SimulationConfig(n_robots=30, seed=3, max_steps=12), build_barrier())
    # every receiver has ingested them: each still encodes as it arrived
    for sender, msg, raw in delivered:
        assert encode_message(sender, msg) == raw
    kinds = {type(msg) for _, msg, _ in delivered}
    assert {VstigPut, VstigGet} <= kinds


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
        _check_against_per_pair_model(drop_prob, topo, outboxes, rng,
                                      model_rng)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([0.0, 0.3, 0.75, 1.0]),
       st.integers(0, 2 ** 16))
def test_deliver_matches_per_pair_model_on_any_outboxes(data, drop_prob,
                                                        seed):
    kinds = data.draw(st.lists(
        st.lists(st.integers(0, len(WIRE_KINDS) - 1), max_size=4),
        min_size=1, max_size=14))
    cfg = SimulationConfig(n_robots=len(kinds), drop_prob=drop_prob,
                           seed=seed)
    topo = Topology.build(cfg, place_robots(cfg))
    rng, model_rng = rng_for(cfg, _STREAM_NETWORK), \
        rng_for(cfg, _STREAM_NETWORK)
    _check_against_per_pair_model(drop_prob, topo, _outboxes(kinds), rng,
                                  model_rng)


class _NoDraws:
    """A generator that may only skip its draws: `random` raises."""

    def __init__(self, rng):
        self.bit_generator = rng.bit_generator

    def random(self, *args):
        raise AssertionError("a draw was taken")


@pytest.mark.parametrize("n", [2, 7, 60])
def test_deliver_takes_no_draws_at_p_zero(n):
    cfg = SimulationConfig(n_robots=n, seed=n)
    topo = Topology.build(cfg, place_robots(cfg))
    assert any(topo.out_links)
    rng, twin = rng_for(cfg, _STREAM_NETWORK), rng_for(cfg, _STREAM_NETWORK)

    class Surviving:  # every draw survives P=0.5
        def random(self, size):
            assert size == total
            return np.full(size, 0.5)

    pick = random.Random(n)
    for _ in range(3):
        outboxes = _random_outboxes(pick, n)
        total = sum(len(outbox) * len(links) for outbox, links in
                    zip(outboxes, topo.out_links))
        got = deliver(0.0, topo, outboxes, _NoDraws(rng))
        twin.random(total)
        assert rng.bit_generator.state == twin.bit_generator.state
        assert got == deliver(0.5, topo, outboxes, Surviving())


def _deliver_counting_decodes(monkeypatch, msg, senders=3):
    """Deliver `msg` sent by each of `senders` robots in range of one
    another at P=0; returns the inboxes and the envelopes decoded."""
    cfg = SimulationConfig(n_robots=senders, arena_side=1.0, comm_range=5.0)
    topo = Topology.build(cfg, [(0.1 * rid, 0.0) for rid in range(senders)])
    decoded = []
    real = network.decode_message

    def counting(data):
        decoded.append(data)
        return real(data)

    monkeypatch.setattr(network, "decode_message", counting)
    outboxes = [[SentMessage(msg, encode_message(rid, msg))]
                for rid in range(senders)]
    return deliver(0.0, topo, outboxes, rng_for(cfg, 9)), decoded


def _heard(inboxes):
    """{sender id: [(receiver, message)...]} of every delivered message."""
    heard = {}
    for receiver, inbox in enumerate(inboxes):
        for sm in inbox:
            for msg in sm.msgs:
                heard.setdefault(sm.sender_id, []).append((receiver, msg))
    return heard


@pytest.mark.parametrize("msg", [
    Announce(), SwarmJoin(3), SwarmLeave(4), Broadcast("k", 2.5),
    Broadcast("k", "text"), Broadcast("k", None), Broadcast("k", -7),
    VstigPut(1, "k", 1, 2, 0), VstigPut(1, 1.5, "v", 2, 0),
    VstigGet(1, "k", None, 0, 5), VstigGet(1, 3, 4.0, 1, 5),
], ids=repr)
def test_equal_table_free_bodies_share_one_decoded_message(monkeypatch,
                                                           msg):
    inboxes, decoded = _deliver_counting_decodes(monkeypatch, msg)
    assert len(decoded) == 1  # three senders, one body
    heard = _heard(inboxes)
    assert sorted(heard) == [0, 1, 2]
    shared = heard[0][0][1]
    assert shared == msg
    for sender, got in heard.items():
        # each record keeps the sender id of its own envelope
        assert sorted(receiver for receiver, _ in got) == \
            [r for r in range(3) if r != sender]
        assert all(m is shared for _, m in got)


@pytest.mark.parametrize("msg", [
    Broadcast("k", Table({"a": 1})), VstigPut(1, Table({1: 2}), 5, 2, 0),
    VstigPut(1, "k", Table({"x": 1.0}), 2, 0),
    VstigGet(1, Table({1: 2}), None, 0, 5), VstigGet(1, "k", Table(), 1, 5),
    SwarmList([1, 2]),
], ids=["bcast-table", "put-table-key", "put-table-value", "get-table-key",
        "get-table-value", "swarm-list"])
def test_a_message_holding_a_table_or_list_is_decoded_per_envelope(
        monkeypatch, msg):
    inboxes, decoded = _deliver_counting_decodes(monkeypatch, msg)
    assert len(decoded) == 3  # one per envelope: equal bodies, no sharing
    heard = _heard(inboxes)
    assert sorted(heard) == [0, 1, 2]
    per_sender = [{id(m) for _, m in heard[sender]} for sender in range(3)]
    # a sender's receivers share its one decoded message; senders do not
    assert all(len(ids) == 1 for ids in per_sender)
    assert len(set().union(*per_sender)) == 3


def test_no_message_shared_across_senders_holds_a_table_or_list(monkeypatch):
    # barrier floods scalar PUTs and GETs; consensus and gradient
    # broadcast; a table-valued broadcast and a swarm list ride along.
    # Each message is kept, so no id is reused during the runs
    senders_of = {}
    real = runner.deliver

    def recording(drop_prob, topology, outboxes, rng):
        inboxes = real(drop_prob, topology, outboxes, rng)
        for inbox in inboxes:
            for sm in inbox:
                for msg in sm.msgs:
                    senders_of.setdefault(id(msg), (msg, set()))[1].add(
                        sm.sender_id)
        return inboxes

    monkeypatch.setattr(runner, "deliver", recording)
    extra = """
s = swarm.create(1)
s.join()
function step() {
  neighbors.broadcast("t", {v = id % 2})
  neighbors.broadcast("u", id % 2)
}
"""
    for experiment in (build_barrier(), build_consensus(), build_gradient(),
                       Experiment("extra", [("extra.swl", extra)], "u",
                                  "none")):
        run(SimulationConfig(n_robots=20, seed=3, max_steps=12), experiment)
    assert {type(msg) for msg, _ in senders_of.values()} >= {
        Announce, Broadcast, SwarmJoin, SwarmList, VstigPut, VstigGet}
    shared = [msg for msg, senders in senders_of.values() if len(senders) > 1]
    kinds = {type(msg) for msg in shared}
    assert {Announce, Broadcast, SwarmJoin, VstigPut} <= kinds
    for msg in shared:
        assert type(msg) is not SwarmList
        assert all(type(getattr(msg, name, None)) is not Table
                   for name in ("key", "value"))


def test_a_record_carries_each_surviving_message_of_its_link():
    # two receivers of robot 0; its three messages survive on different
    # links, and the link that loses all three adds no record
    cfg = SimulationConfig(n_robots=3, arena_side=1.0, comm_range=5.0)
    topo = Topology.build(cfg, [(0.0, 0.0), (0.1, 0.0), (0.2, 0.0)])
    outboxes = _outboxes([[0, 1, 4], [], []])

    class Draws:
        def random(self, total):
            # message-major: (msg 0 to 1, 2), (msg 1 ...), (msg 2 ...)
            assert total == 6
            return np.array([0.9, 0.1, 0.1, 0.1, 0.9, 0.1])

    inboxes = deliver(0.5, topo, outboxes, Draws())
    sent = tuple(s.message for s in outboxes[0])
    assert [sm.msgs for sm in inboxes[1]] == [(sent[0], sent[2])]
    assert inboxes[2] == []


def test_deliver_rejects_an_outbox_with_two_sender_ids():
    # a record names one sender for all its messages
    cfg = SimulationConfig(n_robots=2, arena_side=1.0, comm_range=5.0)
    topo = Topology.build(cfg, [(0.0, 0.0), (0.1, 0.0)])
    mixed = [SentMessage(m, encode_message(rid, m))
             for rid, m in ((0, Announce()), (1, SwarmJoin(3)))]
    with pytest.raises(WireError, match="two sender ids"):
        deliver(0.0, topo, [mixed, []], rng_for(cfg, _STREAM_NETWORK))


@pytest.mark.parametrize("build, n, drop_prob, messages, records", [
    (build_barrier, 50, 0.0, 29_676, 2_964),
    (build_gradient, 100, 0.25, 13_792, 8_619),
])
def test_message_level_delivery_counts_are_pinned(monkeypatch, build, n,
                                                  drop_prob, messages,
                                                  records):
    # `messages` is what one record per (message, receiver) pair gave on
    # these seeded runs: the same messages reach the same robots
    counts = {"messages": 0, "records": 0}

    def counting(*args):
        inboxes = deliver(*args)
        for inbox in inboxes:
            counts["records"] += len(inbox)
            counts["messages"] += sum(len(r.msgs) for r in inbox)
        return inboxes

    monkeypatch.setattr(runner, "deliver", counting)
    cfg = SimulationConfig(n_robots=n, drop_prob=drop_prob, seed=5,
                           max_steps=100 if drop_prob == 0.0 else 20)
    run(cfg, build())
    assert counts == {"messages": messages, "records": records}


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


# --- set-up: the cell grid against the all-pairs scans it replaced --------

def _all_pairs_place_robots(cfg, max_tries_per_robot=1000):
    """Model: each draw tested against every pose placed so far."""
    rng = rng_for(cfg, _STREAM_PLACEMENT)
    half = cfg.side / 2.0
    min_sep = 2.0 * cfg.robot_radius
    poses = []
    budget = max_tries_per_robot * cfg.n_robots
    while len(poses) < cfg.n_robots:
        if budget <= 0:
            raise RuntimeError("density too high")
        budget -= 1
        x = float(rng.uniform(-half, half))
        y = float(rng.uniform(-half, half))
        if all(math.hypot(x - px, y - py) > min_sep for px, py in poses):
            poses.append((x, y))
    return poses


def _all_pairs_links(cfg, poses):
    """Model: out_links from a scan over every pair i < j."""
    n = len(poses)
    out_links = [[] for _ in range(n)]
    range_cm = cfg.comm_range * 100.0
    for i in range(n):
        xi, yi = poses[i]
        for j in range(i + 1, n):
            xj, yj = poses[j]
            d = math.hypot(xi - xj, yi - yj) * 100.0
            if d > range_cm:
                continue
            out_links[i].append((j, d, math.atan2(yi - yj, xi - xj)))
            out_links[j].append((i, d, math.atan2(yj - yi, xj - xi)))
    return out_links


def _bellman_ford_gradient(topology, source=0, inf=50000.0):
    """Model: relax w + d over every link until nothing changes."""
    n = len(topology.poses)
    dist = [inf] * n
    dist[source] = 0.0
    changed = True
    while changed:
        changed = False
        for i in range(n):
            best = dist[i]
            for j, w, _ in topology.out_links[i]:
                cand = w + dist[j]
                if cand < best:
                    best = cand
                    changed = True
            dist[i] = best
    return dist


@pytest.mark.parametrize("n", [1, 2, 10, 100, 1000])
@pytest.mark.parametrize("density", [0.1, 0.3])
@pytest.mark.parametrize("comm_range", [0.1, 1.0, 3.0])
def test_grid_setup_matches_all_pairs_scans(n, density, comm_range):
    cfg = SimulationConfig(n_robots=n, density=density,
                           comm_range=comm_range, seed=n + 11)
    poses = place_robots(cfg)
    assert poses == _all_pairs_place_robots(cfg)
    topo = Topology.build(cfg, poses)
    assert topo.out_links == _all_pairs_links(cfg, poses)
    assert all([j for j, _, _ in links] == sorted(j for j, _, _ in links)
               for links in topo.out_links)
    assert gradient_fixpoint(topo) == _bellman_ford_gradient(topo)


def test_grid_links_on_cell_boundaries_and_at_the_exact_range():
    cfg = SimulationConfig(n_robots=1, arena_side=10.0, comm_range=0.5)
    # a lattice of spacing comm_range = 0.5 m around the origin, so that
    # axis neighbours are exactly 50 cm apart and the diagonals are not
    poses = [(0.5 * i, 0.5 * j) for i in range(-3, 3) for j in range(-2, 3)]
    topo = Topology.build(cfg, poses)
    assert topo.out_links == _all_pairs_links(cfg, poses)
    assert (1, 50.0, math.atan2(-0.5, 0.0)) in topo.out_links[0]
    assert all(d == 50.0 for links in topo.out_links for _, d, _ in links)
    # poses on the edges of the grid's own cells, counted from the lowest
    # coordinate as the grid bins them
    side = _cell_side(cfg.comm_range, 0.0, 1)
    edges = [(-3.0 + k * side, -3.0 + (k % 3) * side) for k in range(7)]
    edges += [(x, y + cfg.comm_range) for x, y in edges[:4]]
    topo = Topology.build(cfg, edges)
    assert topo.out_links == _all_pairs_links(cfg, edges)
    assert any(d == 50.0 for links in topo.out_links for _, d, _ in links)


def test_grid_cell_side_exceeds_the_cutoff():
    for cutoff in (0.0, 5e-324, 1e-320, 0.17, 1.0, 3.0, 1e300):
        assert _cell_side(cutoff, 1.0, 10) > cutoff
    assert _cell_side(0.0, 0.0, 1) > 0.0
    assert _cell_side(math.inf, 1.0, 10) == math.inf


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=40),
       st.floats(1e-3, 1e6), st.floats(0.0, 1e3))
def test_grid_links_match_all_pairs_on_any_finite_poses(poses, scale,
                                                        comm_range):
    cfg = SimulationConfig(n_robots=1, comm_range=comm_range)
    xs = [x for x, _ in poses]
    ys = [y for _, y in poses]
    if not (math.isfinite(max(xs) - min(xs))
            and math.isfinite(max(ys) - min(ys))):
        with pytest.raises(ValueError):
            Topology.build(cfg, poses)
        return
    # folded into [0, scale) as well, where more pairs fall in range
    for pts in (poses, [(x % scale, y % scale) for x, y in poses]):
        assert Topology.build(cfg, pts).out_links == _all_pairs_links(cfg,
                                                                       pts)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 60), st.integers(0, 2 ** 32), st.floats(0.0, 0.3),
       st.floats(0.05, 3.0))
def test_grid_placement_matches_all_pairs_on_any_seed(n, seed, radius,
                                                      arena_side):
    cfg = SimulationConfig(n_robots=n, seed=seed, robot_radius=radius,
                           arena_side=arena_side)
    try:
        want = _all_pairs_place_robots(cfg, max_tries_per_robot=20)
    except RuntimeError:
        with pytest.raises(RuntimeError):
            place_robots(cfg, max_tries_per_robot=20)
        return
    assert place_robots(cfg, max_tries_per_robot=20) == want


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_run_rejects_non_finite_poses(bad):
    cfg = SimulationConfig(n_robots=3, arena_side=2.0, max_steps=2)
    for k in range(2):
        poses = [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]
        poses[1] = (bad, 0.0) if k == 0 else (0.5, bad)
        with pytest.raises(ValueError):
            run(cfg, build_consensus(), poses=poses)


def test_config_rejects_nan_ranges_and_non_finite_arena():
    for kw in (dict(comm_range=math.nan), dict(robot_radius=math.nan),
               dict(comm_range=-1.0), dict(comm_range=-math.inf),
               dict(arena_side=math.nan), dict(arena_side=math.inf)):
        with pytest.raises(ValueError):
            SimulationConfig(n_robots=3, **kw)


@pytest.mark.parametrize("kw, degree", [
    (dict(comm_range=0.0), 0),
    (dict(robot_radius=0.0, arena_side=2.0), None),
    (dict(comm_range=1e-9, arena_side=1e6), 0),
    (dict(comm_range=100.0), 19),  # wider than the arena: one cell
])
def test_grid_setup_at_edge_settings(kw, degree):
    cfg = SimulationConfig(n_robots=20, seed=3, max_steps=3, **kw)
    poses = place_robots(cfg)
    assert poses == _all_pairs_place_robots(cfg)
    topo = Topology.build(cfg, poses)
    assert topo.out_links == _all_pairs_links(cfg, poses)
    if degree is not None:
        assert {len(links) for links in topo.out_links} == {degree}
    assert len(run(cfg, build_consensus()).metrics) >= 1


def test_coincident_poses_link_at_zero_range():
    cfg = SimulationConfig(n_robots=3, comm_range=0.0)
    poses = [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]
    topo = Topology.build(cfg, poses)
    assert topo.out_links == _all_pairs_links(cfg, poses)
    assert [len(links) for links in topo.out_links] == [2, 2, 2]


@pytest.mark.parametrize("n", [10, 30, 100, 1000])
def test_dijkstra_gradient_matches_bellman_ford(n):
    for seed in range(5 if n == 1000 else 40):
        cfg = SimulationConfig(n_robots=n, seed=seed)
        topo = Topology.build(cfg, place_robots(cfg))
        assert gradient_fixpoint(topo) == _bellman_ford_gradient(topo)
    far = Topology.build(cfg, [(0.0, 0.0), (0.5, 0.0), (9.0, 9.0)])
    assert gradient_fixpoint(far) == [0.0, 50.0, 50000.0]


# --- one linked image per script and process

def test_sweep_compiles_its_script_once(monkeypatch):
    calls = []
    real = experiments.compile_source

    def counting(text, origin):
        calls.append(origin)
        return real(text, origin)

    monkeypatch.setattr(experiments, "compile_source", counting)
    experiments._linked.cache_clear()
    rows, _ = experiment_sweep("consensus", [10, 30],
                               [0.0, 0.25, 0.5, 0.75], reps=5,
                               master_seed=1, max_steps=3, workers=1)
    assert len(rows) == 40
    assert calls == ["consensus.swl"]


def test_equal_sources_share_one_image():
    a, b = build_gradient(), build_gradient()
    assert a is not b and a.image() is b.image()
    as_lists = Experiment(name="g", sources=[list(a.sources[0])],
                          readout="mydist", convergence="none")
    assert as_lists.image() is a.image()
    assert build_consensus().image() is not a.image()
    other = Experiment(name="gradient", sources=[("gradient.swl",
                                                  "x = 1\n")],
                       readout="x", convergence="none")
    assert other.image() is not a.image()


# --- the collector's young generation during a run

@pytest.fixture
def gc_state():
    """The host's collector settings, put back whatever a test does."""
    saved, enabled = gc.get_threshold(), gc.isenabled()
    yield saved
    gc.set_threshold(*saved)
    (gc.enable if enabled else gc.disable)()


def _watching_threshold(experiment, seen, fail=False):
    def sense(vm, rid, ctx, step):
        seen.append(gc.get_threshold())
        if fail:
            raise RuntimeError("sensor broke")
    experiment.sense = sense
    return experiment


def _links_and_robots(cfg):
    topo = Topology.build(cfg, place_robots(cfg))
    return sum(map(len, topo.out_links)) + cfg.n_robots


@pytest.mark.parametrize("case", ["normal", "no-steps", "sense-raises",
                                  "host-raised", "host-disabled",
                                  "host-zero"])
def test_run_restores_the_collector_settings(gc_state, case):
    cfg = SimulationConfig(n_robots=20, seed=1,
                           max_steps=0 if case == "no-steps" else 3)
    young = runner._YOUNG_PER_LINK * _links_and_robots(cfg)
    assert young > gc_state[0]  # the run raises the default threshold
    if case == "host-raised":
        gc.set_threshold(10 * young, 7, 9)
    elif case == "host-zero":
        gc.set_threshold(0, 7, 9)
    elif case == "host-disabled":
        gc.disable()
    before, enabled = gc.get_threshold(), gc.isenabled()
    seen = []
    experiment = _watching_threshold(build_consensus(), seen,
                                     fail=case == "sense-raises")
    if case == "sense-raises":
        with pytest.raises(RuntimeError, match="sensor broke"):
            run(cfg, experiment)
    else:
        run(cfg, experiment)
    assert gc.get_threshold() == before and gc.isenabled() == enabled
    if case == "no-steps":
        assert seen == []
        return
    expected = {"host-raised": before[0], "host-zero": 0}.get(case, young)
    assert set(seen) == {(expected,) + before[1:]}


def test_cycles_a_script_makes_are_freed_during_the_run(gc_state):
    source = ("made = 0\n"
              "function step() {\n"
              "  var i = 0\n"
              "  while (i < 2000) { var t = {}; t.me = t; i = i + 1 }\n"
              "  made = made + 1\n"
              "}\n")
    cfg = SimulationConfig(n_robots=20, seed=1, max_steps=10)
    seen = []
    experiment = _watching_threshold(
        Experiment(name="cycles", sources=[("cycles.swl", source)],
                   readout="made", convergence="none"), seen)
    collected = []

    def on_collection(phase, info):
        if phase == "stop":
            collected.append(info["collected"])

    gc.collect()
    gc.callbacks.append(on_collection)
    try:
        result = run(cfg, experiment)
    finally:
        gc.callbacks.remove(on_collection)
    during, after = sum(collected), gc.collect()
    assert result.metrics[-1].readouts == [10] * 20 and not result.faults
    assert min(t[0] for t in seen) > gc_state[0]  # under the raised threshold
    cycles = 20 * 10 * 2000
    assert during + after >= cycles
    # all but about one round's worth of the cycles went during the run
    assert after <= (during + after) / 10
