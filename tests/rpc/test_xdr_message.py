"""Tests for XDR marshalling and the RPC message formats."""

import struct

import pytest

from repro.errors import SimulationError
from repro.hw.machine import make_paper_machine
from repro.rpc import message as message_module
from repro.rpc.message import (
    AcceptStat,
    AuthFlavor,
    CallMessage,
    OpaqueAuth,
    ReplyMessage,
    ReplyStat,
)
from repro.rpc.xdr import XdrDecoder, XdrEncoder
from repro.sim import costs


class TestXdr:
    def test_uint_roundtrip_and_alignment(self):
        encoder = XdrEncoder()
        encoder.put_uint(7).put_uint(0xFFFFFFFF)
        data = encoder.getvalue()
        assert len(data) == 8
        decoder = XdrDecoder(data)
        assert decoder.get_uint() == 7
        assert decoder.get_uint() == 0xFFFFFFFF
        assert decoder.done()

    def test_int_negative_roundtrip(self):
        data = XdrEncoder().put_int(-12345).getvalue()
        assert XdrDecoder(data).get_int() == -12345

    def test_int_range_checked(self):
        with pytest.raises(SimulationError):
            XdrEncoder().put_uint(-1)
        with pytest.raises(SimulationError):
            XdrEncoder().put_int(2**40)

    def test_hyper_and_bool(self):
        data = XdrEncoder().put_hyper(-2**40).put_bool(True).put_bool(False).getvalue()
        decoder = XdrDecoder(data)
        assert decoder.get_hyper() == -2**40
        assert decoder.get_bool() is True
        assert decoder.get_bool() is False

    def test_opaque_padding(self):
        data = XdrEncoder().put_opaque(b"abcde").getvalue()
        assert len(data) == 4 + 8            # length word + padded payload
        assert XdrDecoder(data).get_opaque() == b"abcde"

    def test_string_roundtrip(self):
        data = XdrEncoder().put_string("hello xdr").getvalue()
        assert XdrDecoder(data).get_string() == "hello xdr"

    def test_int_array_roundtrip(self):
        values = [1, -2, 3, -4, 5]
        data = XdrEncoder().put_int_array(values).getvalue()
        assert XdrDecoder(data).get_int_array() == values

    def test_decode_past_end_rejected(self):
        decoder = XdrDecoder(b"\x00\x00")
        with pytest.raises(SimulationError):
            decoder.get_uint()

    def test_items_charged_to_machine(self):
        machine = make_paper_machine()
        encoder = XdrEncoder(machine)
        encoder.put_uint(1).put_string("abcd")
        assert machine.meter.count(costs.XDR_ITEM) == encoder.items_encoded
        assert encoder.items_encoded >= 3

    @pytest.mark.parametrize("size", [0, 1, 3, 4, 5, 8, 13, 64, 1000])
    def test_opaque_round_trip_charges_one_item_per_unit(self, size):
        """One item for the length plus one per payload unit (at least
        one), each a separate clock event, on both sides of the wire."""
        blob = bytes(range(256)) * 4
        blob = blob[:size]
        items = 1 + max(1, size // 4)
        machine = make_paper_machine()
        encoder = XdrEncoder(machine)
        data = encoder.put_opaque(blob).getvalue()
        assert encoder.items_encoded == items
        assert machine.meter.count(costs.XDR_ITEM) == items
        assert machine.clock.events == items
        assert machine.clock.cycles == items * machine.meter.profile.cost(
            costs.XDR_ITEM)
        decoder = XdrDecoder(data, machine)
        assert decoder.get_opaque() == blob and decoder.done()
        assert decoder.items_decoded == items
        assert machine.meter.count(costs.XDR_ITEM) == 2 * items
        assert machine.clock.events == 2 * items


class TestRpcMessages:
    def test_call_roundtrip(self):
        call = CallMessage(xid=0xABCD, prog=0x20000101, vers=1, proc=1,
                           args=[41], cred=OpaqueAuth(AuthFlavor.AUTH_SYS, b"u"))
        decoded = CallMessage.decode(call.encode())
        assert decoded.xid == call.xid
        assert decoded.prog == call.prog
        assert decoded.proc == 1
        assert decoded.args == [41]
        assert decoded.cred.flavor is AuthFlavor.AUTH_SYS

    def test_reply_success_roundtrip(self):
        reply = ReplyMessage(xid=7, result=42)
        decoded = ReplyMessage.decode(reply.encode())
        assert decoded.xid == 7
        assert decoded.accept_stat is AcceptStat.SUCCESS
        assert decoded.result == 42

    def test_reply_error_roundtrip(self):
        reply = ReplyMessage(xid=7, accept_stat=AcceptStat.PROC_UNAVAIL)
        decoded = ReplyMessage.decode(reply.encode())
        assert decoded.accept_stat is AcceptStat.PROC_UNAVAIL
        assert decoded.result is None

    def test_denied_reply(self):
        reply = ReplyMessage(xid=9, reply_stat=ReplyStat.MSG_DENIED)
        decoded = ReplyMessage.decode(reply.encode())
        assert decoded.reply_stat is ReplyStat.MSG_DENIED

    def test_wrong_message_type_rejected(self):
        call = CallMessage(xid=1, prog=2, vers=3, proc=4)
        with pytest.raises(SimulationError):
            ReplyMessage.decode(call.encode())
        reply = ReplyMessage(xid=1)
        with pytest.raises(SimulationError):
            CallMessage.decode(reply.encode())

    def test_header_items_charged(self):
        cases = [
            # xid, msgtype, rpcvers, prog, vers, proc, cred (flavor,
            # length, payload), verf (flavor, length, payload), count, arg
            (CallMessage(xid=1, prog=2, vers=3, proc=4, args=[1]), 14),
            # xid, msgtype, reply_stat, verf (3), accept_stat, result
            (ReplyMessage(xid=1, result=5), 8),
            (ReplyMessage(xid=1, accept_stat=AcceptStat.SYSTEM_ERR), 7),
            # xid, msgtype, reply_stat
            (ReplyMessage(xid=1, reply_stat=ReplyStat.MSG_DENIED), 3),
        ]
        for message, items in cases:
            machine = make_paper_machine()
            data = message.encode(machine)
            assert machine.meter.count(costs.XDR_ITEM) == items, message
            type(message).decode(data, machine)
            assert machine.meter.count(costs.XDR_ITEM) == 2 * items, message


def _words(*values) -> bytes:
    return struct.pack(f">{len(values)}I", *values)


_CALLS = {
    "call-0-args": CallMessage(xid=1, prog=2, vers=3, proc=4),
    "call-1-arg": CallMessage(xid=0x100001, prog=0x20000777, vers=1, proc=2,
                              args=[-7]),
    "call-4-args": CallMessage(xid=9, prog=8, vers=7, proc=6,
                               args=[3, -1, 5, 1 << 20]),
    "call-64-args": CallMessage(
        xid=9, prog=8, vers=7, proc=6,
        args=[(i * 7919) % 2**32 - 2**31 for i in range(64)]),
    "call-int-edges": CallMessage(xid=0, prog=1, vers=1, proc=1,
                                  args=[-2**31, 2**31 - 1]),
    "call-xid-max": CallMessage(xid=0xFFFFFFFF, prog=1, vers=1, proc=1,
                                args=[0]),
    "call-auth-sys-1": CallMessage(
        xid=1, prog=1, vers=1, proc=1, args=[1],
        cred=OpaqueAuth(AuthFlavor.AUTH_SYS, b"u")),
    "call-auth-sys-4": CallMessage(
        xid=1, prog=1, vers=1, proc=1, args=[1],
        cred=OpaqueAuth(AuthFlavor.AUTH_SYS, b"uid0")),
    "call-auth-sys-5": CallMessage(
        xid=1, prog=1, vers=1, proc=1, args=[1],
        verf=OpaqueAuth(AuthFlavor.AUTH_SYS, b"uid00")),
}
_BAD_CALLS = {
    "call-arg-2**31": CallMessage(xid=1, prog=1, vers=1, proc=1,
                                  args=[1, 2**31, 3]),
    "call-xid-negative": CallMessage(xid=-1, prog=1, vers=1, proc=1,
                                     args=[1]),
    "call-float-arg": CallMessage(xid=1, prog=1, vers=1, proc=1,
                                  args=[1, 2.5]),
}
_REPLIES = {
    "reply-success": ReplyMessage(xid=0x100001, result=-8),
    "reply-no-result": ReplyMessage(xid=7),
    "reply-int-min": ReplyMessage(xid=0xFFFFFFFF, result=-2**31),
    "reply-int-max": ReplyMessage(xid=0, result=2**31 - 1),
    "reply-proc-unavail": ReplyMessage(xid=7,
                                       accept_stat=AcceptStat.PROC_UNAVAIL),
    "reply-system-err": ReplyMessage(xid=7,
                                     accept_stat=AcceptStat.SYSTEM_ERR),
    "reply-denied": ReplyMessage(xid=7, reply_stat=ReplyStat.MSG_DENIED),
    "reply-auth-sys": ReplyMessage(
        xid=7, result=1, verf=OpaqueAuth(AuthFlavor.AUTH_SYS, b"v")),
}
_BAD_REPLIES = {
    "reply-result-2**31": ReplyMessage(xid=7, result=2**31),
    "reply-xid-negative": ReplyMessage(xid=-1, result=1),
    "reply-float-result": ReplyMessage(xid=7, result=1.5),
}

_CALL = _CALLS["call-1-arg"].encode()
_REPLY = _REPLIES["reply-success"].encode()
_BUFFERS = {
    **{name: message.encode()
       for name, message in {**_CALLS, **_REPLIES}.items()},
    **{f"call[:{size}]": _CALL[:size] for size in range(len(_CALL))},
    **{f"reply[:{size}]": _REPLY[:size] for size in range(len(_REPLY))},
    "call-trailing-bytes": _CALL + b"trailing",
    "reply-trailing-bytes": _REPLY + _words(1),
    "call-rpc-version-3": _CALL[:8] + _words(3) + _CALL[12:],
    "call-cred-flavor-7": _CALL[:24] + _words(7) + _CALL[28:],
    "call-verf-flavor-7": _CALL[:32] + _words(7) + _CALL[36:],
    "call-cred-cut-short": _CALL[:28] + _words(4) + _CALL[32:],
    "call-count-past-end": _CALL[:40] + _words(2) + _CALL[44:],
    "call-count-max": _CALL[:40] + _words(0xFFFFFFFF) + _CALL[44:],
    "reply-verf-flavor-7": _REPLY[:12] + _words(7) + _REPLY[16:],
    "reply-stat-2": _REPLY[:8] + _words(2) + _REPLY[12:],
    "reply-accept-stat-9": _REPLY[:20] + _words(9) + _REPLY[24:],
}


def _cases(named):
    """``parametrize`` keywords for a dict of named cases."""
    return dict(argvalues=list(named.values()), ids=list(named))


def _outcome(coding, *args):
    """Run one coding on a fresh machine: the machine, and what the coding
    returned (enum fields by member) or raised."""
    machine = make_paper_machine()
    try:
        result = coding(*args, machine)
    except Exception as exc:                    # compared, never swallowed
        return machine, ("raised", type(exc), str(exc))
    if isinstance(result, CallMessage):
        members = (result.cred.flavor, result.verf.flavor)
    elif isinstance(result, ReplyMessage):
        members = (result.reply_stat, result.accept_stat, result.verf.flavor)
    else:
        members = ()
    return machine, ("returned", result,
                     [(type(member), member.name) for member in members])


def _assert_same(fast, reference):
    fast_machine, fast_result = fast
    ref_machine, ref_result = reference
    assert fast_result == ref_result
    assert (fast_machine.meter.count(costs.XDR_ITEM)
            == ref_machine.meter.count(costs.XDR_ITEM))
    assert fast_machine.clock.events == ref_machine.clock.events
    assert fast_machine.clock.cycles == ref_machine.clock.cycles


class TestOnePassMatchesItemCoder:
    """Each message's public coding against the item-by-item reference:
    the same bytes or fields, the same exception, the same charges."""

    @pytest.mark.parametrize(
        "message", **_cases({**_CALLS, **_BAD_CALLS, **_REPLIES,
                             **_BAD_REPLIES}))
    def test_encode(self, message):
        _assert_same(_outcome(message.encode),
                     _outcome(message._encode_items))

    @pytest.mark.parametrize("kind", [CallMessage, ReplyMessage],
                             ids=["as-call", "as-reply"])
    @pytest.mark.parametrize("data", **_cases(_BUFFERS))
    def test_decode(self, kind, data):
        _assert_same(_outcome(kind.decode, data),
                     _outcome(kind._decode_items, data))

    @pytest.mark.parametrize("message", [_CALLS["call-1-arg"],
                                         _REPLIES["reply-success"]],
                             ids=["call", "reply"])
    def test_trace_log_and_telemetry(self, message):
        data = message.encode()
        kind = type(message)
        observed = []
        for encode, decode in ((message.encode, kind.decode),
                               (message._encode_items, kind._decode_items)):
            machine = make_paper_machine()
            telemetry = machine.telemetry.enable_metrics()
            recorder = machine.meter.record_trace()
            assert recorder.start()
            encode(machine)
            decode(data, machine)
            observed.append((recorder.stop(), telemetry.op_counts,
                             telemetry.op_cycles))
        assert observed[0] == observed[1]
        assert observed[0][0]

    def test_simulator_messages_skip_the_item_coder(self, monkeypatch):
        """The calls and success replies every RPC sends are one-pass."""
        messages = [_CALLS["call-1-arg"], _CALLS["call-4-args"],
                    _REPLIES["reply-success"], _REPLIES["reply-no-result"]]
        expected = [(message._encode_items(),
                     type(message)._decode_items(message._encode_items()))
                    for message in messages]
        monkeypatch.setattr(message_module, "XdrEncoder", None)
        monkeypatch.setattr(message_module, "XdrDecoder", None)
        for message, (data, decoded) in zip(messages, expected):
            assert message.encode() == data
            assert type(message).decode(data) == decoded
