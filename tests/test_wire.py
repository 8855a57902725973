import random
import struct

import pytest

import swarmlang
from swarmlang.errors import WireError
from swarmlang.values import MAX_DEPTH, Table
from swarmlang.wire import (MSG_BCAST, MSG_VSTIG_PUT, TAG_FLOAT, TAG_INT,
                            TAG_NIL, TAG_STRING, TAG_TABLE, Announce,
                            Broadcast, Situated, SwarmJoin, SwarmLeave,
                            SwarmList, VstigGet, VstigPut, decode_message,
                            encode_message)


def round_trip(sender, msg):
    data = encode_message(sender, msg)
    got_sender, got = decode_message(data)
    assert got_sender == sender
    return got


def test_announce_is_envelope_only():
    data = encode_message(9, Announce())
    assert len(data) == 5  # u32 sender + u8 type
    assert isinstance(round_trip(9, Announce()), Announce)


def test_swarm_join_leave():
    assert round_trip(1, SwarmJoin(42)) == SwarmJoin(42)
    assert round_trip(1, SwarmLeave(42)) == SwarmLeave(42)


def test_swarm_list_sorted_on_wire():
    got = round_trip(1, SwarmList([5, 2, 9]))
    assert got.swarm_ids == [2, 5, 9]


def test_vstig_put_with_primitive_values():
    msg = VstigPut(3, "key", 1.5, 7, 11)
    assert round_trip(2, msg) == msg


def test_vstig_get_with_absent_entry():
    msg = VstigGet(3, 44, None, 0, 0)
    got = round_trip(2, msg)
    assert got.value is None and got.timestamp == 0


def test_vstig_int_key():
    msg = VstigPut(1, 17, 1, 1, 17)
    assert round_trip(17, msg) == msg


def test_broadcast_with_table_value():
    t = Table({"dist": 10.5, "color": 2, 1: "one"})
    got = round_trip(4, Broadcast("targetdata", t))
    assert got.key == "targetdata"
    assert got.value.get("dist") == 10.5
    assert got.value.get("color") == 2
    assert got.value.get(1) == "one"


def test_nested_table_value():
    inner = Table({"x": 1})
    got = round_trip(0, Broadcast("t", Table({"in": inner})))
    assert got.value.get("in").get("x") == 1


def test_unicode_strings():
    got = round_trip(0, Broadcast("clé", "héllo→"))
    assert got.key == "clé" and got.value == "héllo→"


def test_truncated_envelope():
    with pytest.raises(WireError):
        decode_message(b"\x01\x02")


def test_truncated_body():
    data = encode_message(1, VstigPut(1, "k", 5, 1, 1))
    with pytest.raises(WireError):
        decode_message(data[:-3])


def test_trailing_garbage_rejected():
    data = encode_message(1, SwarmJoin(2)) + b"\x00"
    with pytest.raises(WireError):
        decode_message(data)


def test_unknown_type_rejected():
    data = bytearray(encode_message(1, Announce()))
    data[4] = 250
    with pytest.raises(WireError):
        decode_message(bytes(data))


def test_oversized_int_rejected():
    with pytest.raises(WireError):
        encode_message(1, Broadcast("k", 2 ** 70))


def test_swarm_id_range_checked():
    with pytest.raises(WireError):
        encode_message(1, SwarmJoin(70_000))


@pytest.mark.parametrize("sender, msg", [
    (-1, Announce()),
    (2 ** 32, Broadcast("k", 1)),
    (1, VstigPut(1, "k", 1, 1, -1)),
    (1, VstigGet(1, "k", 1, 1, 2 ** 32)),
    (1, VstigPut(1, "k", 1, -1, 1)),
    (1, VstigGet(1, "k", 1, 2 ** 32, 1)),
], ids=["sender-negative", "sender-too-big", "robot-negative",
        "robot-too-big", "timestamp-negative", "timestamp-too-big"])
def test_u32_fields_range_checked(sender, msg):
    with pytest.raises(WireError, match="out of u32 range"):
        encode_message(sender, msg)


def test_u32_fields_at_their_bounds_round_trip():
    msg = VstigPut(1, "k", 1, 2 ** 32 - 1, 2 ** 32 - 1)
    assert round_trip(2 ** 32 - 1, msg) == msg
    assert round_trip(0, VstigGet(1, "k", None, 0, 0)) == \
        VstigGet(1, "k", None, 0, 0)


# --- hostile bytes: decoding raises WireError and nothing else -------------

def _bcast_bytes(key, value_bytes):
    """A BCAST envelope from robot 0 built by hand around raw value bytes."""
    return (struct.pack("<IBH", 0, MSG_BCAST, len(key)) + key + value_bytes)


def _nested_bytes(depth):
    """`depth` tables, each holding the next under key 1; the last holds 7."""
    table = struct.pack("<BIBq", TAG_TABLE, 1, TAG_INT, 1)
    return table * depth + struct.pack("<Bq", TAG_INT, 7)


def test_nesting_bound_is_the_same_for_encode_and_decode():
    value = 7
    for _ in range(MAX_DEPTH):
        value = Table({1: value})
    data = encode_message(0, Broadcast("t", value))
    assert data == _bcast_bytes(b"t", _nested_bytes(MAX_DEPTH))
    got = decode_message(data)[1].value
    for _ in range(MAX_DEPTH):
        got = got.get(1)
    assert got == 7
    with pytest.raises(WireError, match="too deep to encode"):
        encode_message(0, Broadcast("t", Table({1: value})))
    with pytest.raises(WireError, match="too deep to decode"):
        decode_message(_bcast_bytes(b"t", _nested_bytes(MAX_DEPTH + 1)))


def test_very_deep_nesting_is_a_wire_error():
    with pytest.raises(WireError):
        decode_message(_bcast_bytes(b"t", _nested_bytes(3000)))


@pytest.mark.parametrize("data", [
    _bcast_bytes(b"\xffk", struct.pack("<Bq", TAG_INT, 1)),
    _bcast_bytes(b"k", struct.pack("<BI", TAG_STRING, 2) + b"\xc3("),
    _bcast_bytes(b"k", struct.pack("<BIBIB", TAG_TABLE, 1, TAG_STRING, 1,
                                   0x80) + struct.pack("<Bq", TAG_INT, 1)),
], ids=["key", "string", "table-key"])
def test_invalid_utf8_is_a_wire_error(data):
    with pytest.raises(WireError, match="UTF-8"):
        decode_message(data)


@pytest.mark.parametrize("key", [
    bytes([TAG_NIL]),
    struct.pack("<BI", TAG_TABLE, 0),
], ids=["nil", "table"])
def test_bad_table_key_is_a_wire_error(key):
    value = struct.pack("<BI", TAG_TABLE, 1) + key + \
        struct.pack("<Bq", TAG_INT, 1)
    with pytest.raises(WireError, match="table key"):
        decode_message(_bcast_bytes(b"k", value))


def test_mutated_messages_raise_only_wire_errors():
    table = Table({"name": "ré→", 2: Table({1.5: "x", "é": -3}), 3: 0.25})
    corpus = [encode_message(7, msg) for msg in (
        Announce(), SwarmJoin(5), SwarmLeave(6), SwarmList([1, 2, 300]),
        VstigPut(1, "clé", table, 9, 7), VstigGet(2, 4, None, 0, 7),
        Broadcast("dïst", table), Broadcast("k", "héllo"))]
    rng = random.Random(5)
    for _ in range(20_000):
        data = bytearray(rng.choice(corpus))
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        try:
            decode_message(bytes(data))
        except WireError:
            pass
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__} on {data.hex()}: {exc}")


def _reference_value(data, pos, depth=0):
    """A tagged value read with one `struct` format string per field."""
    def need(n):
        if pos + n > len(data):
            raise WireError("truncated value")

    if depth > MAX_DEPTH:
        raise WireError("value nesting too deep to decode")
    if pos >= len(data):
        raise WireError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == TAG_NIL:
        return None, pos
    if tag in (TAG_INT, TAG_FLOAT):
        need(8)
        fmt = "<q" if tag == TAG_INT else "<d"
        return struct.unpack_from(fmt, data, pos)[0], pos + 8
    if tag in (TAG_STRING, TAG_TABLE):
        need(4)
        n = struct.unpack_from("<I", data, pos)[0]
        pos += 4
        if tag == TAG_STRING:
            need(n)
            try:
                return data[pos:pos + n].decode("utf-8"), pos + n
            except UnicodeDecodeError:
                raise WireError("string is not valid UTF-8") from None
        t = Table()
        for _ in range(n):
            key, pos = _reference_value(data, pos, depth + 1)
            if key is None or type(key) is Table:
                raise WireError("table key must be an int, float or string")
            val, pos = _reference_value(data, pos, depth + 1)
            t.set(key, val)
        return t, pos
    raise WireError(f"unknown value tag {tag}")


def _generic_decode(data):
    """A VSTIG_PUT/GET or BCAST envelope read field by field."""
    if len(data) < 5:
        raise WireError("truncated envelope")
    sender_id, mtype = struct.unpack_from("<IB", data)
    if len(data) < 7:
        raise WireError("truncated value")
    if mtype == MSG_BCAST:
        n = struct.unpack_from("<H", data, 5)[0]
        if 7 + n > len(data):
            raise WireError("truncated value")
        try:
            key = data[7:7 + n].decode("utf-8")
        except UnicodeDecodeError:
            raise WireError("string is not valid UTF-8") from None
        value, pos = _reference_value(data, 7 + n)
        if pos != len(data):
            raise WireError("trailing bytes after message body")
        return sender_id, Broadcast(key, value)
    vid = struct.unpack_from("<H", data, 5)[0]
    key, pos = _reference_value(data, 7)
    value, pos = _reference_value(data, pos)
    if pos + 8 > len(data):
        raise WireError("truncated value")
    ts, rid = struct.unpack_from("<II", data, pos)
    if pos + 8 != len(data):
        raise WireError("trailing bytes after message body")
    cls = VstigPut if mtype == MSG_VSTIG_PUT else VstigGet
    return sender_id, cls(vid, key, value, ts, rid)


def _outcome(decode, data):
    """The re-encoded envelope, or the WireError text."""
    try:
        return encode_message(*decode(data))
    except WireError as exc:
        return str(exc)


def test_value_decode_matches_the_reference_reader():
    values = [0, -1, 2 ** 63 - 1, -2 ** 63, 1.5, -0.0, float("inf"), None,
              "", "clé", "x" * 300, Table({1: "a", "b": Table({2.5: None})})]
    corpus = [encode_message(7, cls(3, k, v, 9, 4))
              for cls in (VstigPut, VstigGet) for k in values for v in values]
    corpus += [encode_message(7, Broadcast(k, v))
               for k in ("", "dïst") for v in values]
    bad_utf8 = bytes([TAG_STRING]) + struct.pack("<I", 2) + b"\xc3\x28"
    corpus.append(corpus[0][:7] + bad_utf8 + corpus[0][16:])
    cases = []
    for data in corpus:
        cases += [data[:cut] for cut in range(len(data))]
        cases += [data + b"\x00", data + data[5:]]
    rng = random.Random(12)
    for _ in range(20_000):
        data = bytearray(rng.choice(corpus))
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(5, len(data))] = rng.choice(
                [0, 1, 2, 3, 4, 5, 8, 255, rng.randrange(256)])
        cases.append(bytes(data))
    for data in cases:
        assert _outcome(decode_message, data) == \
            _outcome(_generic_decode, data), data.hex()


@pytest.mark.parametrize("msg", [
    Broadcast("k", "\udc80"),
    Broadcast("\ud800k", 1),
    Broadcast("k", Table({"\udc80": 1})),
    VstigPut(1, "\udfff", 2, 1, 0),
    VstigGet(1, "k", Table({1: "a\ud83d"}), 1, 0),
], ids=["string", "bcast-key", "table-key", "vstig-key", "nested-value"])
def test_lone_surrogate_is_a_wire_error(msg):
    # a str that is not valid Unicode has no UTF-8 bytes to send
    with pytest.raises(WireError, match="UTF-8"):
        encode_message(3, msg)


def test_situated_keeps_its_record_contract():
    msgs = (Broadcast("k", 1),)
    by_position = Situated(3, 10.0, 0.5, 0.0, msgs)
    by_keyword = Situated(sender_id=3, distance=10.0, azimuth=0.5,
                          elevation=0.0, msgs=msgs)
    assert by_position == by_keyword
    assert (by_position.sender_id, by_position.distance, by_position.azimuth,
            by_position.elevation, by_position.msgs) == \
        (3, 10.0, 0.5, 0.0, msgs)
    assert tuple(by_position) == (3, 10.0, 0.5, 0.0, msgs)  # field order
    # the record delivery builds without calling Situated(...)
    fast = tuple.__new__(Situated, (3, 10.0, 0.5, 0.0, msgs))
    assert type(fast) is Situated and fast == by_position
    assert fast.msgs is msgs
    with pytest.raises(AttributeError):
        by_position.distance = 1.0
    with pytest.raises(TypeError):
        by_position[0] = 4
    with pytest.raises(TypeError):
        Situated(3, 10.0, 0.5, 0.0)  # every field is required
    assert swarmlang.Situated is Situated
    assert "Situated" in swarmlang.__all__


VSTIG_FIELDS = (1, "k", 2.5, 7, 3)


def test_a_vstig_put_never_equals_a_get_with_the_same_fields():
    put, get = VstigPut(*VSTIG_FIELDS), VstigGet(*VSTIG_FIELDS)
    assert put != get and get != put
    assert not put == get and not get == put
    assert put != VSTIG_FIELDS and VSTIG_FIELDS != put  # nor a plain tuple
    assert round_trip(4, put) != round_trip(4, get)


@pytest.mark.parametrize("cls", [VstigPut, VstigGet])
def test_vstig_messages_compare_by_value_within_a_type(cls):
    msg = cls(*VSTIG_FIELDS)
    assert msg == cls(*VSTIG_FIELDS) and not msg != cls(*VSTIG_FIELDS)
    decoded = round_trip(4, msg)
    assert type(decoded) is cls and decoded == msg
    for i in range(len(VSTIG_FIELDS)):
        other = list(VSTIG_FIELDS)
        other[i] = 9
        assert msg != cls(*other) and not msg == cls(*other)
