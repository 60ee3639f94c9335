"""Tests for XDR marshalling and the RPC message formats."""

import pytest

from repro.errors import SimulationError
from repro.hw.machine import make_paper_machine
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
        machine = make_paper_machine()
        CallMessage(xid=1, prog=2, vers=3, proc=4, args=[1]).encode(machine)
        # xid, msgtype, rpcvers, prog, vers, proc, cred(2+), verf(2+), len, arg
        assert machine.meter.count(costs.XDR_ITEM) >= 12
