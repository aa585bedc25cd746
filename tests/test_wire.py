"""Canonical ndjson framing and the line channel."""
import inspect
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qtokens import wire


def test_serialize_is_canonical():
    msg = {"type": "hello", "serial": "abc", "v": 2}
    raw = wire.serialize(msg)
    assert raw == b'{"serial":"abc","type":"hello","v":2}\n'
    assert raw.endswith(b"\n")
    assert wire.parse(raw[:-1]) == msg


def test_serialize_rejects_bad_messages():
    with pytest.raises(wire.ProtocolError):
        wire.serialize({"type": "gossip"})
    with pytest.raises(wire.ProtocolError):
        wire.serialize({})
    with pytest.raises(wire.ProtocolError):
        wire.serialize({"type": "verdict", "x": float("nan")})


def test_parse_rejects_bad_lines():
    with pytest.raises(wire.ProtocolError):
        wire.parse(b"not json")
    with pytest.raises(wire.ProtocolError):
        wire.parse(b"[1,2,3]")
    with pytest.raises(wire.ProtocolError):
        wire.parse(b'{"type":"gossip"}')
    with pytest.raises(wire.ProtocolError, match="nested too deeply"):
        wire.parse(b'{"type":"answer","outcomes":' + b"[" * 100_000)


def test_parse_version_handling():
    # missing version is tolerated, a wrong one is not
    assert wire.PROTOCOL_VERSION == 2
    assert wire.parse(b'{"type":"hello","serial":"s"}')["type"] == "hello"
    assert wire.parse(b'{"type":"hello","v":2}')["v"] == 2
    for version in (b"1", b"3", b'"2"'):
        with pytest.raises(wire.ProtocolError, match="unsupported protocol version"):
            wire.parse(b'{"type":"hello","v":' + version + b"}")
    # a version-1 answer line, with its nested grid of bits
    with pytest.raises(wire.ProtocolError, match="unsupported protocol version: 1"):
        wire.parse(b'{"outcomes":[[["0","1"]]],"question_id":"q","type":"answer","v":1}')


def test_message_builders_round_trip():
    for msg in (wire.hello_message("serial-1"),
                wire.challenge_message("q1", ("Z", "X")),
                wire.answer_message("q1", np.ones((2, 3, 2), dtype=np.uint8)),
                wire.verdict_message(True),
                wire.verdict_message(False, "below-threshold"),
                wire.error_message("unknown-serial", "s")):
        assert wire.parse(wire.serialize(msg)[:-1]) == msg
        assert msg["v"] == wire.PROTOCOL_VERSION


def test_answer_message_encodes_bits_as_strings():
    outcomes = np.array([[[0, 1], [1, 1]], [[1, 0], [0, 0]]], dtype=np.uint8)
    msg = wire.answer_message("qid", outcomes)
    # one "0"/"1" character per bit, in (block, pair, member) order
    assert msg["outcomes"] == "01111000"
    decoded = wire.decode_outcomes(msg["outcomes"], (2, 2))
    assert decoded.dtype == np.uint8 and decoded.shape == (2, 2, 2)
    np.testing.assert_array_equal(decoded, outcomes)
    # the encoding survives a wire round trip intact
    again = wire.parse(wire.serialize(msg)[:-1])
    np.testing.assert_array_equal(wire.decode_outcomes(again["outcomes"], (2, 2)), outcomes)


def test_answer_message_accepts_no_bits():
    # the empty sheet is the base a caller swaps a hand-made outcomes field into
    assert wire.answer_message("q", [])["outcomes"] == ""


def test_decode_outcomes_rejects_non_bits():
    with pytest.raises(wire.ProtocolError):
        wire.decode_outcomes("02", (1, 1))
    with pytest.raises(wire.ProtocolError):
        wire.decode_outcomes([[[0, 1]]], (1, 1))
    with pytest.raises(wire.ProtocolError):
        wire.decode_outcomes([[["0", "1"]]], (1, 1))
    with pytest.raises(wire.ProtocolError):
        wire.decode_outcomes("01", (1, 2))


SHAPE = (2, 2)      # 8 bits


@pytest.mark.parametrize("grid", [
    # version-1 style grids and other non-strings
    [[["0", "1"], ["1", "0"]], [["0", "1"]]],    # ragged blocks
    [[["0", "1"], ["1"]]],                       # ragged pair
    [[["0", 1]]],                                # mixed string and int
    [[["0", True]]],
    True,
    [[["0", ["1"]]]],                            # nested list where a bit belongs
    [[[["0", "1"]]]],
    [],
    [[[]]],
    "01",                                        # a string of the wrong length
    None,
    {"0": "1"},
    pytest.param([[["0", "1"], ["1", "0"]], [["0", "1"], ["1", "0"]]], id="v1-grid"),
    pytest.param(["0110", "1001"], id="list-of-strings"),
    pytest.param(b"01101001", id="bytes"),
    pytest.param(1101001, id="int"),
    pytest.param("", id="empty"),
    pytest.param("0110100", id="one-short"),
    pytest.param("011010010", id="one-long"),
    pytest.param("01102001", id="digit-2"),
    pytest.param("0110 001", id="space"),
    pytest.param("0110/001", id="below-0"),
    pytest.param("0110a001", id="letter"),
    pytest.param("011010\x001", id="nul"),
    pytest.param("0110\u00e901", id="non-ascii-8-utf8-bytes"),
    pytest.param("0110100\u00e9", id="non-ascii-8-chars"),
    pytest.param("0110100\ud800", id="lone-surrogate"),
    pytest.param("\uff10\uff11" * 4, id="fullwidth-digits"),
])
def test_decode_outcomes_owns_every_rejection(grid):
    with pytest.raises(wire.ProtocolError, match="malformed outcomes"):
        wire.decode_outcomes(grid, SHAPE)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(["0", "1", "", "01"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=24)


@given(_JSON | st.text(alphabet="01", max_size=13) | st.text(max_size=13),
       st.integers(1, 3), st.integers(1, 3))
def test_decode_outcomes_accepts_only_bit_grids(outcomes, n, r):
    try:
        got = wire.decode_outcomes(outcomes, (n, r))
    except wire.ProtocolError:
        assert not (isinstance(outcomes, str) and len(outcomes) == 2 * n * r
                    and set(outcomes) <= {"0", "1"})
        return
    assert got.dtype == np.uint8 and got.shape == (n, r, 2)
    assert wire.answer_message("q", got)["outcomes"] == outcomes


def test_answer_message_wire_bytes_are_pinned():
    bits = np.array([[[0, 1], [1, 1], [0, 0]], [[1, 0], [0, 1], [1, 1]]], dtype=np.uint8)
    raw = wire.serialize(wire.answer_message("0123456789abcdef", bits))
    assert raw == (b'{"outcomes":"011100100111",'
                   b'"question_id":"0123456789abcdef","type":"answer","v":2}\n')
    # bool and plain-list bits encode the same way
    assert wire.serialize(wire.answer_message("0123456789abcdef", bits.astype(bool))) == raw
    assert wire.serialize(wire.answer_message("0123456789abcdef", bits.tolist())) == raw
    got = wire.decode_outcomes(wire.parse(raw[:-1])["outcomes"], (2, 3))
    assert got.dtype == np.uint8
    np.testing.assert_array_equal(got, bits)


def test_answer_line_of_a_10x100_layout_is_about_two_kilobytes():
    bits = np.ones((10, 100, 2), dtype=np.uint8)
    raw = wire.serialize(wire.answer_message("0123456789abcdef", bits))
    assert len(raw) == 2000 + len(b'{"outcomes":"","question_id":"0123456789abcdef",'
                                  b'"type":"answer","v":2}\n') <= 2100


@pytest.mark.parametrize("bad", [[[[0, 2]]], [[[-1, 0]]], [[[0.5, 1]]]])
def test_answer_message_refuses_non_bits(bad):
    with pytest.raises(ValueError):
        wire.answer_message("q", bad)


def test_verdict_message_is_slim():
    msg = wire.verdict_message(True)
    assert set(msg) == {"type", "v", "accepted", "reason"}
    assert msg["accepted"] is True and msg["reason"] is None
    raw = wire.serialize(msg).decode()
    assert "per_block" not in raw and "score" not in raw


def test_error_message_validates_codes():
    assert wire.ERROR_CODES == ("unknown-serial", "already-redeemed",
                                "attempt-budget-exceeded", "protocol-error")
    for code in wire.ERROR_CODES:
        assert wire.error_message(code)["code"] == code
    with pytest.raises(wire.ProtocolError):
        wire.error_message("catastrophe")


def test_line_channel_round_trip():
    a, b = wire.LineChannel.pair()
    with a, b:
        a.send(wire.hello_message("s1"))
        a.send(wire.verdict_message(False, "below-threshold"))
        assert b.recv()["type"] == "hello"
        assert b.recv()["reason"] == "below-threshold"


def test_line_channel_clean_eof_returns_none():
    a, b = wire.LineChannel.pair()
    with b:
        a.close()
        assert b.recv() is None


def test_line_channel_mid_message_eof_raises():
    a, b = wire.LineChannel.pair()
    with b:
        a._sock.sendall(b'{"type":"hello"')   # no newline, then hang up
        a.close()
        with pytest.raises(wire.ProtocolError, match="mid-message"):
            b.recv()


class _ByteSocket:
    """Socket stand-in that hands out its data one byte per recv call, the
    worst case of a peer that sends a line in 1-byte pieces."""

    def __init__(self, data: bytes):
        self.data, self.pos = data, 0

    def recv(self, bufsize: int) -> bytes:
        piece = self.data[self.pos:self.pos + 1]
        self.pos += len(piece)
        return piece


def test_line_channel_reassembles_one_byte_chunks():
    first = wire.hello_message("s" * 300)
    second = wire.verdict_message(True)
    chan = wire.LineChannel(_ByteSocket(wire.serialize(first) + wire.serialize(second)))
    assert chan.recv() == first
    assert chan.recv() == second
    assert chan.recv() is None


def test_line_channel_keeps_lines_that_share_a_chunk():
    a, b = wire.LineChannel.pair()
    with a, b:
        a._sock.sendall(b'{"type":"hello"}\n{"type":"verdict"}\n{"type":"er')
        a._sock.sendall(b'ror"}\n')
        assert [b.recv()["type"] for _ in range(3)] == ["hello", "verdict", "error"]


def test_line_channel_over_limit_line_raises():
    line = b'{"type":"hello"}'
    assert wire.LineChannel(_ByteSocket(line + b"\n")).recv(len(line)) == {"type": "hello"}
    sock = _ByteSocket(b"x" * 1000)
    with pytest.raises(wire.ProtocolError, match="line limit"):
        wire.LineChannel(sock).recv(len(line))
    assert sock.pos == len(line) + 1   # stops reading once past the limit
    sock = _ByteSocket(b"x" * 1000)
    with pytest.raises(wire.ProtocolError, match="mid-message"):
        wire.LineChannel(sock).recv()   # the default limit is far above 1000


def test_line_channel_limit_constant():
    assert wire.MAX_LINE_BYTES == 64 * 1024 * 1024
    assert inspect.signature(wire.LineChannel.recv).parameters["limit"].default \
        == wire.MAX_LINE_BYTES


def test_message_type_registry():
    assert wire.MESSAGE_TYPES == ("hello", "challenge", "answer", "verdict",
                                  "error")
