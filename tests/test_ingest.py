"""Stigmergy ingest without wasted work: the no-op test in `Vm._ingest`,
adopted PUTs forwarded as their received bytes, and one decode per
distinct PUT body in each `deliver` call."""

import copy
import dataclasses
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmlang import vm as vm_module
from swarmlang.errors import WireError
from swarmlang.linker import compile_and_link
from swarmlang.sim import (SimulationConfig, Topology, build_barrier,
                           deliver, experiment_sweep, run)
from swarmlang.sim import network, runner
from swarmlang.sim.config import rng_for
from swarmlang.values import Table
from swarmlang.vm import SentMessage, Vm
from swarmlang.vstig import VStigEntry, VStigMap
from swarmlang.wire import (MSG_VSTIG_PUT, TAG_INT, TAG_TABLE, Announce,
                            Situated, VstigGet, VstigPut, decode_message,
                            encode_message)


class StubVm:
    def call_value(self, fn, args):
        return fn(*args)


# --- no-op merges ------------------------------------------------------------

class RecordingMap(VStigMap):
    """A store that records the messages `_ingest` hands to `merge`."""

    def __init__(self, vstig_id):
        super().__init__(vstig_id)
        self.merged = []

    def merge(self, msg, vm):
        self.merged.append(msg)
        return super().merge(msg, vm)


IMAGE = compile_and_link("x = 1")
KEYS = st.sampled_from([1, 1.0, 2, "k"])
SMALL = st.integers(0, 3)
ENTRY = st.none() | st.builds(VStigEntry, st.integers(0, 9), SMALL, SMALL)
MESSAGE = st.builds(lambda cls, key, value, ts, rid: cls(1, key, value,
                                                         ts, rid),
                    st.sampled_from([VstigPut, VstigGet]), KEYS,
                    st.none() | st.integers(0, 9), SMALL, SMALL)


@settings(max_examples=400, deadline=None)
@given(KEYS, ENTRY, MESSAGE)
@example(1, VStigEntry(5, 2, 3), VstigPut(1, 1, 5, 2, 3))
@example(1, VStigEntry(5, 2, 3), VstigGet(1, 1.0, 5, 2, 3))
@example(1, VStigEntry(5, 2, 3), VstigPut(1, 1, 5, 2, 1))
@example(1, None, VstigGet(1, 1, None, 0, 0))
def test_a_skipped_merge_is_one_that_changes_nothing(key, entry, msg):
    vm = Vm(IMAGE, 0)
    store = vm._vstigs[1] = RecordingMap(1)
    if entry is not None:
        store.entries[key] = entry
    before = copy.deepcopy(store.entries)
    vm._ingest([Situated(5, 10.0, 0.0, 0.0, (msg,))])

    local = before.get(msg.key)
    same = (local is not None and local.timestamp == msg.timestamp
            and local.robot_id == msg.robot_id)
    assert store.merged == ([] if same else [msg])
    if same:
        # merge itself would have answered None and changed nothing
        probe = VStigMap(1)
        probe.entries = copy.deepcopy(before)
        assert probe.merge(msg, StubVm()) is None
        assert probe.entries == before
        assert store.entries == before
        assert not [slot for slot in vm.out_queue if slot[0] == "vstig"]


# --- adopted PUTs keep their bytes ---------------------------------------------

def fresh(msg):
    """The same message built without any received bytes."""
    return type(msg)(msg.vstig_id, msg.key, msg.value, msg.timestamp,
                     msg.robot_id)


def test_forwarded_puts_are_the_bytes_a_fresh_encode_gives(monkeypatch):
    reused = []
    real = runner.deliver

    def checking(drop_prob, topology, outboxes, rng):
        for sender, outbox in enumerate(outboxes):
            for sent in outbox:
                msg = sent.message
                if type(msg) is VstigPut:
                    assert sent.raw == encode_message(sender, fresh(msg))
                    if msg.received is not None:
                        reused.append(msg)
        return real(drop_prob, topology, outboxes, rng)

    monkeypatch.setattr(runner, "deliver", checking)
    result = run(SimulationConfig(n_robots=40, seed=5, max_steps=30),
                 build_barrier())
    assert result.converged and not result.faults
    assert len(reused) > 1000  # most PUTs sent are forwarded ones


@pytest.mark.parametrize("key, value", [
    ("k", Table({1: "a"})),
    (Table({"x": 1.5}), 7),
    (Table({}), Table({})),
], ids=["table-value", "table-key", "both"])
def test_a_table_put_keeps_no_bytes(key, value):
    _, got = decode_message(encode_message(3, VstigPut(1, key, value, 2, 4)))
    assert type(got) is VstigPut and got.received is None


@pytest.mark.parametrize("key, value", [
    (1, None), (-2 ** 63, 2 ** 63 - 1), ("clé", -0.0), (1.0, float("inf")),
    ("", "x" * 300)])
def test_a_scalar_put_is_forwarded_as_received(key, value):
    raw = encode_message(3, VstigPut(1, key, value, 2, 4))
    _, got = decode_message(raw)
    assert got.received == raw[4:]
    assert encode_message(9, got) == struct.pack("<I", 9) + raw[4:] == \
        encode_message(9, fresh(got))
    assert "received" not in repr(got) and got == fresh(got)
    _, get = decode_message(encode_message(3, VstigGet(1, key, value, 2, 4)))
    assert not hasattr(get, "received")


@pytest.mark.parametrize("rid", [0, 2 ** 32 - 1])
def test_an_adopted_put_is_sent_without_an_encode(monkeypatch, rid):
    machine = Vm(compile_and_link("v = stigmergy.create(1)"), rid)
    machine.step()  # creates the store
    _, put = decode_message(encode_message(7, VstigPut(1, "k", 2.5, 3, 7)))
    encoded = []
    real = vm_module.encode_message

    def counting(sender_id, msg):
        encoded.append(msg)
        return real(sender_id, msg)

    monkeypatch.setattr(vm_module, "encode_message", counting)
    outbox, _ = machine.step([Situated(7, 10.0, 0.0, 0.0, (put,))])
    assert [(sent.message, sent.raw) for sent in outbox[1:]] == \
        [(put, encode_message(rid, fresh(put)))]
    assert encoded == []


def test_a_non_canonical_table_put_is_encoded_again():
    # {1: 5, 1.0: 6} on the wire: one key once decoded, so it cannot be
    # forwarded as the bytes it arrived in
    table = struct.pack("<BIBqBqBdBq", TAG_TABLE, 2, TAG_INT, 1, TAG_INT, 5,
                        2, 1.0, TAG_INT, 6)
    raw = (struct.pack("<IBH", 3, MSG_VSTIG_PUT, 1) + bytes([TAG_INT])
           + struct.pack("<q", 7) + table + struct.pack("<II", 2, 4))
    _, got = decode_message(raw)
    forwarded = encode_message(3, got)
    assert forwarded != raw and forwarded == encode_message(3, fresh(got))
    assert decode_message(forwarded)[1].value.data == {1: 6}


# --- one decode per distinct PUT body per step -----------------------------------

def per_envelope(outbox, puts):
    """Delivery's decode with nothing shared: one decode per envelope."""
    decoded = [decode_message(sent.raw) for sent in outbox]
    return [s for s, _ in decoded], tuple(m for _, m in decoded)


def plain(value):
    if type(value) is Table:
        return {k: plain(v) for k, v in value.data.items()}
    return value


def fields(msg):
    return (type(msg),) + tuple(plain(getattr(msg, f.name))
                                for f in dataclasses.fields(msg))


def flat(inboxes):
    return [[(sm.sender_id, sm.distance, sm.azimuth, sm.elevation,
              [fields(m) for m in sm.msgs]) for sm in inbox]
            for inbox in inboxes]


def record_against_per_envelope(monkeypatch):
    """Wrap delivery so every step is checked against per-envelope decode;
    returns the list of envelopes decoded per step."""
    steps = []
    real_deliver, real_decode = runner.deliver, network._decode

    def checking(drop_prob, topology, outboxes, rng):
        again = copy.deepcopy(rng)
        calls = []

        def counting(outbox, puts):
            calls.append(len(outbox))
            return real_decode(outbox, puts)

        monkeypatch.setattr(network, "_decode", counting)
        got = real_deliver(drop_prob, topology, outboxes, rng)
        monkeypatch.setattr(network, "_decode", per_envelope)
        want = real_deliver(drop_prob, topology, outboxes, again)
        monkeypatch.setattr(network, "_decode", real_decode)
        assert flat(got) == flat(want)
        assert rng.bit_generator.state == again.bit_generator.state
        steps.append(sum(calls))
        return got

    monkeypatch.setattr(runner, "deliver", checking)
    return steps


def test_barrier_inboxes_equal_per_envelope_decoding(monkeypatch):
    steps = record_against_per_envelope(monkeypatch)
    decodes = []
    real = network.decode_message

    def counting(data):
        decodes.append(data)
        return real(data)

    monkeypatch.setattr(network, "decode_message", counting)
    result = run(SimulationConfig(n_robots=40, seed=5, max_steps=30),
                 build_barrier())
    assert result.converged and steps
    # far fewer decodes than envelopes: the flood repeats PUT bodies
    assert len(decodes) < sum(steps) // 2


def test_sweep_inboxes_equal_per_envelope_decoding(monkeypatch):
    steps = record_against_per_envelope(monkeypatch)
    rows, _ = experiment_sweep("consensus", [10, 30], [0.0, 0.25, 0.5, 0.75],
                               1, master_seed=5, max_steps=20, workers=1)
    assert len(rows) == 8 and len(steps) > 20


def two_robots():
    cfg = SimulationConfig(n_robots=2, arena_side=1.0, comm_range=5.0)
    return Topology.build(cfg, [(0.0, 0.0), (0.1, 0.0)]), rng_for(cfg, 9)


@pytest.mark.parametrize("size", range(5))
def test_a_short_envelope_is_a_wire_error(size):
    topo, rng = two_robots()
    put = VstigPut(1, "k", 1, 1, 0)
    outboxes = [[SentMessage(put, encode_message(0, put))],
                [SentMessage(None, bytes(range(1, size + 1)))]]
    with pytest.raises(WireError, match="truncated envelope"):
        deliver(0.0, topo, outboxes, rng)


def test_a_shared_put_body_keeps_each_sender_id():
    topo, rng = two_robots()
    put = VstigPut(1, "k", 1, 1, 0)
    outboxes = [[SentMessage(put, encode_message(rid, put))]
                for rid in (0, 1)]
    inboxes = deliver(0.0, topo, outboxes, rng)
    (to_0,), (to_1,) = inboxes
    assert (to_1.sender_id, to_0.sender_id) == (0, 1)
    assert to_0.msgs[0] is to_1.msgs[0]  # decoded once, shared

    # the second envelope's body was decoded already; its sender id is
    # still read from its own bytes
    mixed = [SentMessage(put, encode_message(1, put)),
             SentMessage(put, encode_message(7, put))]
    with pytest.raises(WireError, match="two sender ids"):
        deliver(0.0, topo, [outboxes[0], mixed], rng)
    with pytest.raises(WireError, match="two sender ids"):
        deliver(0.0, topo, [[SentMessage(Announce(), encode_message(
            0, Announce()))] + outboxes[1], []], rng)


def test_equal_table_keyed_puts_stay_two_entries():
    # a table key matches only the object it was decoded as, so two PUTs
    # with equal bodies but table keys are two slots at the receiver
    cfg = SimulationConfig(n_robots=3, arena_side=1.0, comm_range=5.0)
    topo = Topology.build(cfg, [(0.0, 0.0), (0.1, 0.0), (0.2, 0.0)])
    rng = rng_for(cfg, 9)
    sender = Vm(compile_and_link("""
v = stigmergy.create(1)
v.put({}, 1)
v.put({}, 1)
"""), 0)
    listener = compile_and_link("v = stigmergy.create(1)")
    receivers = [Vm(listener, 1), Vm(listener, 2)]
    outbox, _ = sender.step()
    puts = [sent for sent in outbox if type(sent.message) is VstigPut]
    assert len(puts) == 2 and puts[0].raw == puts[1].raw
    inboxes = deliver(0.0, topo, [outbox, [], []], rng)
    forwarded = []
    for vm, inbox in zip(receivers, inboxes[1:]):
        vm.step()
        out, _ = vm.step(inbox)
        assert vm.faulted is None and len(vm.vstig_map(1).entries) == 2
        forwarded.append([sent for sent in out
                          if type(sent.message) is VstigPut])
    assert [len(f) for f in forwarded] == [2, 2]

    # both receivers forward the same two bodies; robot 0 hears all four
    # and keeps the two from each neighbour apart
    inboxes = deliver(0.0, topo, [[], forwarded[0], forwarded[1]], rng)
    keys = [msg.key for record in inboxes[0] for msg in record.msgs]
    assert len(keys) == 4 and len({id(k) for k in keys}) == 4
    heard = Vm(listener, 0)
    heard.step()
    heard.step(inboxes[0])
    assert len(heard.vstig_map(1).entries) == 4
