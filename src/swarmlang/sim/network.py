"""Range-limited situated broadcast with independent message dropping.

Each message sent by robot i reaches each in-range robot j iff an
independent Bernoulli(1 - P) draw succeeds for that (message, receiver)
pair.  The receiver senses the sender's true relative position (distance
in centimeters, azimuth, elevation 0 for ground robots).  Draws are
consumed in a fixed order (sender ascending, message order, receiver
ascending) so a run is reproducible regardless of host parallelism.

One step takes all its draws at once and turns them into a survivor
mask, a list of booleans in that same order.  A receiver's inbox holds
one `Situated` record per heard link, sender ascending, whose `msgs` is
the tuple of that sender's surviving messages in send order; a link with
no survivor adds no record.  Each envelope is decoded once.  When all of
a sender's draws survive (always at P=0) its receivers share one tuple;
otherwise the sender's block of the mask, one row per message, is
transposed into one column per link, and a link whose column keeps every
message still gets the shared tuple.
"""

from itertools import compress

from ..errors import WireError
from ..wire import Situated, decode_message


def deliver(drop_prob, topology, outboxes, rng):
    """Route one step's outboxes; returns per-robot inbox lists."""
    out_links = topology.out_links
    inboxes = [[] for _ in outboxes]
    total = 0
    for outbox, links in zip(outboxes, out_links):
        total += len(outbox) * len(links)
    if total == 0:
        return inboxes
    keep = (rng.random(total) >= drop_prob).tolist()
    situated = tuple.__new__  # a Situated without the __new__ call
    k = 0
    for outbox, links in zip(outboxes, out_links):
        m = len(links)
        if not m or not outbox:
            continue  # no draws taken, no decode
        sender_ids, msgs = zip(*[decode_message(sent.raw) for sent in outbox])
        sender_id = sender_ids[0]
        if sender_ids.count(sender_id) != len(sender_ids):
            raise WireError("one outbox carries two sender ids")
        n = len(msgs)
        end = k + n * m
        block = keep[k:end]
        if False not in block:
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
