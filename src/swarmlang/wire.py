"""Wire message envelope and body codecs.

Envelope: <sender_id: u32, type: u8, body: bytes>, all little-endian.
Message types and body layouts are documented in docs/wire.md.  Values
travel as tagged primitives: nil, int64, float64, UTF-8 string, or a
table of tagged key/value pairs.
"""

import struct
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import WireError
from .values import MAX_DEPTH, Table

MSG_ANNOUNCE = 0
MSG_SWARM_JOIN = 1
MSG_SWARM_LEAVE = 2
MSG_SWARM_LIST = 3
MSG_VSTIG_PUT = 4
MSG_VSTIG_GET = 5
MSG_BCAST = 6

TAG_NIL = 0
TAG_INT = 1
TAG_FLOAT = 2
TAG_STRING = 3
TAG_TABLE = 4


# Every wire message class is a `@dataclass(slots=True)`, not frozen:
# decoding and sending build one per message, and a frozen dataclass sets
# each field through object.__setattr__, about twice the cost of a slots
# one.  Nothing hashes one.  Equality is by value within one type, so a
# PUT never equals a GET with the same fields.  Perfbench counts messages
# by class name, so the names stay.
#
# `encoded` is the encoded message (type byte onward) that the message is
# known to encode to, or None, left out of `==` and `repr`
# (docs/wire.md, "Known bytes").  `decode_message` sets it on every
# message that holds no table and is no SWARM_LIST: a scalar has one
# encoding, while a received table may carry duplicate keys, a nil value,
# or both 1 and 1.0, which re-encoding would not reproduce, and the queue
# edits a LIST's ids in place.  Such a message is never changed, so
# delivery shares one decoded message among the envelopes of its bytes
# (tests/test_sim.py pins this), and a VM's drain sends a queued one as
# its own sender id followed by those bytes; the drain also keeps the
# bytes of each broadcast it encodes.  `encode_message` never reads it.
_ENCODED = field(default=None, compare=False, repr=False)


@dataclass(slots=True)
class Announce:
    """Per-step id broadcast backing the neighbor structure."""
    encoded: bytes = _ENCODED


@dataclass(slots=True)
class SwarmJoin:
    swarm_id: int
    encoded: bytes = _ENCODED


@dataclass(slots=True)
class SwarmLeave:
    swarm_id: int
    encoded: bytes = _ENCODED


@dataclass(slots=True)
class SwarmList:
    swarm_ids: list  # complete membership of the sender
    encoded: bytes = _ENCODED  # always None


@dataclass(slots=True)
class VstigPut:
    vstig_id: int
    key: object
    value: object
    timestamp: int
    robot_id: int
    encoded: bytes = _ENCODED


@dataclass(slots=True)
class VstigGet:
    vstig_id: int
    key: object
    value: object
    timestamp: int
    robot_id: int
    encoded: bytes = _ENCODED


@dataclass(slots=True)
class Broadcast:
    key: str
    value: object
    encoded: bytes = _ENCODED


class Situated(NamedTuple):
    """One heard link: a sender's sensed relative position and the tuple
    of its messages that reached this receiver, in send order.

    A tuple, so delivery can build one per (sender, receiver) link
    cheaply: `tuple.__new__(Situated, fields)` skips even `__new__`.
    """
    sender_id: int
    distance: float   # centimeters
    azimuth: float    # radians
    elevation: float  # radians
    msgs: tuple


_VSTIG_HEAD = struct.Struct("<IBH")  # sender id, type, stigmergy id
_VSTIG_TAIL = struct.Struct("<II")   # timestamp, robot id
_INT = struct.Struct("<q")
_FLOAT = struct.Struct("<d")
# a length, or an envelope's leading sender id
U32 = struct.Struct("<I")


def encode_value(v, depth=0):
    if depth > MAX_DEPTH:
        raise WireError("value nesting too deep to encode")
    if v is None:
        return bytes([TAG_NIL])
    if type(v) is int:
        try:
            return struct.pack("<Bq", TAG_INT, v)
        except struct.error:
            raise WireError("integer out of 64-bit wire range")
    if type(v) is float:
        return struct.pack("<Bd", TAG_FLOAT, v)
    if type(v) is str:
        raw = _utf8_bytes(v)
        return struct.pack("<BI", TAG_STRING, len(raw)) + raw
    if isinstance(v, Table):
        out = bytearray(struct.pack("<BI", TAG_TABLE, len(v.data)))
        for key, val in v.data.items():
            out += encode_value(key, depth + 1)
            out += encode_value(val, depth + 1)
        return bytes(out)
    raise WireError(f"value of type {type(v).__name__} is not serializable")


def decode_value(data, pos, depth=0):
    """(value, position after it); malformed bytes raise only WireError."""
    if depth > MAX_DEPTH:
        raise WireError("value nesting too deep to decode")
    end = len(data)
    if pos >= end:
        raise WireError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == TAG_INT:
        if pos + 8 > end:
            raise WireError("truncated value")
        return _INT.unpack_from(data, pos)[0], pos + 8
    if tag == TAG_STRING:
        if pos + 4 > end:
            raise WireError("truncated value")
        stop = pos + 4 + U32.unpack_from(data, pos)[0]
        if stop > end:
            raise WireError("truncated value")
        return _utf8(data[pos + 4:stop]), stop
    if tag == TAG_NIL:
        return None, pos
    if tag == TAG_FLOAT:
        if pos + 8 > end:
            raise WireError("truncated value")
        return _FLOAT.unpack_from(data, pos)[0], pos + 8
    if tag == TAG_TABLE:
        _need(data, pos, 4)
        n = U32.unpack_from(data, pos)[0]
        pos += 4
        t = Table()
        for _ in range(n):
            key, pos = decode_value(data, pos, depth + 1)
            if key is None or type(key) is Table:
                raise WireError("table key must be an int, float or string")
            val, pos = decode_value(data, pos, depth + 1)
            t.set(key, val)
        return t, pos
    raise WireError(f"unknown value tag {tag}")


def _need(data, pos, n):
    if pos + n > len(data):
        raise WireError("truncated value")


def _utf8(raw):
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise WireError("string is not valid UTF-8") from None


def _utf8_bytes(text):
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate has no UTF-8 form
        raise WireError("string cannot be encoded as UTF-8") from None


def encode_message(sender_id, msg):
    """Encode envelope + body for one message."""
    if isinstance(msg, Announce):
        mtype, body = MSG_ANNOUNCE, b""
    elif isinstance(msg, SwarmJoin):
        mtype, body = MSG_SWARM_JOIN, _pack_swarm_id(msg.swarm_id)
    elif isinstance(msg, SwarmLeave):
        mtype, body = MSG_SWARM_LEAVE, _pack_swarm_id(msg.swarm_id)
    elif isinstance(msg, SwarmList):
        ids = sorted(msg.swarm_ids)
        if len(ids) > 255:
            raise WireError("too many swarms in list message")
        body = struct.pack("<B", len(ids))
        for sid in ids:
            body += _pack_swarm_id(sid)
        mtype = MSG_SWARM_LIST
    elif isinstance(msg, (VstigPut, VstigGet)):
        mtype = MSG_VSTIG_PUT if isinstance(msg, VstigPut) else MSG_VSTIG_GET
        if not 0 <= msg.vstig_id < 2 ** 16:
            raise WireError(f"stigmergy id {msg.vstig_id} out of range")
        _check_u32(msg.timestamp, "timestamp")
        _check_u32(msg.robot_id, "robot id")
        body = struct.pack("<H", msg.vstig_id)
        body += encode_value(msg.key)
        body += encode_value(msg.value)
        body += struct.pack("<II", msg.timestamp, msg.robot_id)
    elif isinstance(msg, Broadcast):
        raw = _utf8_bytes(msg.key)
        if len(raw) > 65535:
            raise WireError("broadcast key too long")
        body = struct.pack("<H", len(raw)) + raw + encode_value(msg.value)
        mtype = MSG_BCAST
    else:
        raise WireError(f"cannot encode message {type(msg).__name__}")
    _check_u32(sender_id, "sender id")
    return struct.pack("<IB", sender_id, mtype) + body


def _check_u32(n, what):
    if not 0 <= n < 2 ** 32:
        raise WireError(f"{what} {n} out of u32 range")


def _pack_swarm_id(sid):
    if not 0 <= sid < 2 ** 16:
        raise WireError(f"swarm id {sid} out of u16 range")
    return struct.pack("<H", sid)


def decode_message(data):
    """Decode one envelope; returns (sender_id, message)."""
    end = len(data)
    if end < 5:
        raise WireError("truncated envelope")
    mtype = data[4]
    if mtype == MSG_VSTIG_PUT or mtype == MSG_VSTIG_GET:
        if end < 7:
            raise WireError("truncated value")
        sender_id, _, vid = _VSTIG_HEAD.unpack_from(data)
        key, pos = decode_value(data, 7)
        value, pos = decode_value(data, pos)
        if pos + 8 > end:
            raise WireError("truncated value")
        ts, rid = _VSTIG_TAIL.unpack_from(data, pos)
        if pos + 8 != end:
            raise WireError("trailing bytes after message body")
        encoded = None if type(key) is Table or type(value) is Table \
            else bytes(data[U32.size:])
        cls = VstigGet if mtype == MSG_VSTIG_GET else VstigPut
        return sender_id, cls(vid, key, value, ts, rid, encoded)
    sender_id = U32.unpack_from(data)[0]
    pos = 5
    if mtype == MSG_ANNOUNCE:
        msg = Announce()
    elif mtype in (MSG_SWARM_JOIN, MSG_SWARM_LEAVE):
        _need(data, pos, 2)
        sid = struct.unpack_from("<H", data, pos)[0]
        pos += 2
        msg = SwarmJoin(sid) if mtype == MSG_SWARM_JOIN else SwarmLeave(sid)
    elif mtype == MSG_SWARM_LIST:
        _need(data, pos, 1)
        count = data[pos]
        pos += 1
        _need(data, pos, 2 * count)
        ids = list(struct.unpack_from(f"<{count}H", data, pos)) if count \
            else []
        pos += 2 * count
        msg = SwarmList(ids)
    elif mtype == MSG_BCAST:
        _need(data, pos, 2)
        n = struct.unpack_from("<H", data, pos)[0]
        _need(data, pos + 2, n)
        key = _utf8(data[pos + 2:pos + 2 + n])
        pos += 2 + n
        value, pos = decode_value(data, pos)
        msg = Broadcast(key, value)
    else:
        raise WireError(f"unknown message type {mtype}")
    if pos != end:
        raise WireError("trailing bytes after message body")
    if mtype != MSG_SWARM_LIST and (mtype != MSG_BCAST
                                    or type(msg.value) is not Table):
        msg.encoded = bytes(data[U32.size:])
    return sender_id, msg
