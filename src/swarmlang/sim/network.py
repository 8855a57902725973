"""Range-limited situated broadcast with independent message dropping.

Each message sent by robot i reaches each in-range robot j iff an
independent Bernoulli(1 - P) draw succeeds for that (message, receiver)
pair.  The receiver senses the sender's true relative position (distance
in centimeters, azimuth, elevation 0 for ground robots).  Draws are
consumed in a fixed order (sender ascending, message order, receiver
ascending) so a run is reproducible regardless of host parallelism.

One step takes all its draws at once and turns them into a survivor
mask, a list of booleans in that same order.  At P=0 every draw
survives, so a step advances the generator by its draw count instead of
drawing (PCG64 takes one output per double): the generator's state after
the step is the one the draws would leave.  A receiver's inbox holds
one `Situated` record per heard link, sender ascending, whose `msgs` is
the tuple of that sender's surviving messages in send order; a link with
no survivor adds no record.  Each message that holds no mutable object
is decoded once per distinct body (type byte onward) in one call:
ANNOUNCE, SWARM_JOIN and SWARM_LEAVE, a BROADCAST whose value is not a
table, and a VSTIG_PUT or VSTIG_GET whose key and value are not tables.
Every robot sends the same ANNOUNCE, a broadcast value is often the same
from robot to robot, and the flood repeats a PUT with only the sender id
changed.  Such a message holds only scalars, so senders share it; each
sender id is still read from its own envelope.  A message that holds a
table, or a SWARM_LIST (its ids are a list), is decoded per envelope: a
table key matches only the object it was decoded as.  At P=0, or when
all of a sender's draws survive, its receivers share one tuple;
otherwise the sender's block of the mask, one row per message, is
transposed into one column per link, and a link whose column keeps every
message still gets the shared tuple.
"""

from itertools import compress

from ..errors import WireError
from ..values import Table
from ..wire import (U32, Broadcast, Situated, SwarmList, VstigGet, VstigPut,
                    decode_message)


def deliver(drop_prob, topology, outboxes, rng):
    """Route one step's outboxes; returns per-robot inbox lists."""
    out_links = topology.out_links
    inboxes = [[] for _ in outboxes]
    total = 0
    for outbox, links in zip(outboxes, out_links):
        total += len(outbox) * len(links)
    if total == 0:
        return inboxes
    if drop_prob <= 0.0:
        rng.bit_generator.advance(total)  # the state random(total) leaves
        keep = None
    else:
        keep = (rng.random(total) >= drop_prob).tolist()
    situated = tuple.__new__  # a Situated without the __new__ call
    shared = {}  # table-free body (type byte onward) -> decoded message
    k = 0
    for outbox, links in zip(outboxes, out_links):
        m = len(links)
        if not m or not outbox:
            continue  # no draws taken, no decode
        sender_ids, msgs = _decode(outbox, shared)
        sender_id = sender_ids[0]
        if sender_ids.count(sender_id) != len(sender_ids):
            raise WireError("one outbox carries two sender ids")
        n = len(msgs)
        end = k + n * m
        if keep is None or False not in (block := keep[k:end]):
            for j, dist_cm, azimuth in links:
                inboxes[j].append(situated(
                    Situated, (sender_id, dist_cm, azimuth, 0.0, msgs)))
        elif True in block:
            rows = [block[i:i + m] for i in range(0, len(block), m)]
            for (j, dist_cm, azimuth), col in zip(links, zip(*rows)):
                got = col.count(True)
                if got == n:
                    heard = msgs
                elif got == 1:  # a slice is cheaper than compress
                    a = col.index(True)
                    heard = msgs[a:a + 1]
                elif got:
                    heard = tuple(compress(msgs, col))
                else:
                    continue
                inboxes[j].append(situated(
                    Situated, (sender_id, dist_cm, azimuth, 0.0, heard)))
        k = end
    return inboxes


def _decode(outbox, shared):
    """(sender ids, messages) of one outbox, each sender id read from its
    own envelope; a body already in `shared` is not decoded again."""
    skip = U32.size
    sender_ids = []
    msgs = []
    for sent in outbox:
        raw = sent.raw
        body = raw[skip:]
        msg = shared.get(body)
        if msg is None:
            sender_id, msg = decode_message(raw)
            if _table_free(msg):
                shared[body] = msg
        else:
            sender_id = U32.unpack_from(raw)[0]
        sender_ids.append(sender_id)
        msgs.append(msg)
    return sender_ids, tuple(msgs)


def _table_free(msg):
    """True when decoded `msg` holds no mutable object, so receivers of
    several senders may share it."""
    kind = type(msg)
    if kind is Broadcast:
        return type(msg.value) is not Table
    if kind is VstigPut:
        return msg.received is not None  # kept only without a table
    if kind is VstigGet:
        return type(msg.key) is not Table and type(msg.value) is not Table
    return kind is not SwarmList
