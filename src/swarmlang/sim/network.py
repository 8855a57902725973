"""Range-limited situated broadcast with independent message dropping.

Each message sent by robot i reaches each in-range robot j iff an
independent Bernoulli(1 - P) draw succeeds for that (message, receiver)
pair.  The receiver senses the sender's true relative position (distance
in centimeters, azimuth, elevation 0 for ground robots).  Draws are
consumed in a fixed order (sender ascending, message order, receiver
ascending) so a run is reproducible regardless of host parallelism.

One step takes all its draws at once and turns them into a survivor
mask, a list of booleans in that same order; each surviving pair becomes
one `Situated` tuple in the receiver's inbox, which holds the decoded
message itself (decoded once per sent message, shared by its receivers).
"""

from itertools import compress

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
        if not links:
            continue  # no draws taken, no decode
        m = len(links)
        for sent in outbox:
            # decode once per message: every receiver gets the same object
            sender_id, msg = decode_message(sent.raw)
            for j, dist_cm, azimuth in compress(links, keep[k:k + m]):
                inboxes[j].append(situated(
                    Situated, (sender_id, dist_cm, azimuth, 0.0, msg)))
            k += m
    return inboxes
