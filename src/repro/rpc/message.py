"""ONC RPC message formats (RFC 1831).

Call and reply messages with the standard header fields (xid, RPC version,
program, version, procedure, credential and verifier), serialized through
the XDR layer so that every header field costs an XDR item on both sides of
the wire — the overhead that makes local RPC an order of magnitude slower
than SecModule dispatch in Figure 8.

Every message the simulator itself sends has one fixed layout: empty
credential and verifier bodies, and a call's arguments or a success
reply's result as signed words.  Those messages are coded in one pass, one
cached :class:`struct.Struct` pack or unpack for the whole message and one
``charge_each`` run for its items, with the bytes, fields and charges the
item-by-item coder gives.  Everything else (auth bodies, denied and failed
replies, out-of-range values, malformed buffers) goes through the
item-by-item coder, which stays the reference.
"""

from __future__ import annotations

import enum
import functools
import struct
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from ..errors import SimulationError
from ..sim import costs
from .xdr import XDR_UNIT, XdrDecoder, XdrEncoder

#: The RPC protocol version this implementation speaks (RFC 1831 = 2).
RPC_VERSION = 2


class MsgType(enum.IntEnum):
    CALL = 0
    REPLY = 1


class ReplyStat(enum.IntEnum):
    MSG_ACCEPTED = 0
    MSG_DENIED = 1


class AcceptStat(enum.IntEnum):
    SUCCESS = 0
    PROG_UNAVAIL = 1
    PROG_MISMATCH = 2
    PROC_UNAVAIL = 3
    GARBAGE_ARGS = 4
    SYSTEM_ERR = 5


class AuthFlavor(enum.IntEnum):
    AUTH_NONE = 0
    AUTH_SYS = 1


#: the members the one-pass paths test and write, bound once: an IntEnum
#: member lookup costs about as much as packing a whole message
_CALL, _REPLY = MsgType.CALL, MsgType.REPLY
_ACCEPTED, _SUCCESS = ReplyStat.MSG_ACCEPTED, AcceptStat.SUCCESS

#: a call's fixed header: xid, message type, RPC version, prog, vers, proc,
#: credential flavor and length, verifier flavor and length, argument count
_CALL_HEADER_WORDS = 11
#: its items: an empty opaque is a length item plus one payload item
_CALL_HEADER_ITEMS = 13
_CALL_HEADER_BYTES = _CALL_HEADER_WORDS * XDR_UNIT
_UINT = struct.Struct(">I")
#: an accepted SUCCESS reply with an empty verifier: xid, message type,
#: reply stat, verifier flavor and length, accept stat, result
_SUCCESS_REPLY = struct.Struct(">6Ii")
_SUCCESS_REPLY_ITEMS = 8


@functools.lru_cache(maxsize=64)
def _call_layout(nargs: int) -> struct.Struct:
    """A call with empty auth bodies and ``nargs`` arguments."""
    return struct.Struct(f">{_CALL_HEADER_WORDS}I{nargs}i")


@dataclass(frozen=True)
class OpaqueAuth:
    """Credential / verifier blob (immutable: messages share them)."""

    flavor: AuthFlavor = AuthFlavor.AUTH_NONE
    body: bytes = b""

    def encode(self, encoder: XdrEncoder) -> None:
        encoder.put_uint(int(self.flavor))
        encoder.put_opaque(self.body)

    @classmethod
    def decode(cls, decoder: XdrDecoder) -> "OpaqueAuth":
        flavor = AuthFlavor(decoder.get_uint())
        body = decoder.get_opaque()
        return cls(flavor=flavor, body=body)


#: the empty credential of each flavor, shared by every message that
#: carries one; keyed by wire value, so it also names the flavors a
#: decoder accepts
_EMPTY_AUTH = {flavor.value: OpaqueAuth(flavor) for flavor in AuthFlavor}
#: the AUTH_NONE credential and verifier every simulator message carries
NO_AUTH = _EMPTY_AUTH[AuthFlavor.AUTH_NONE]


class CallMessage(NamedTuple):
    """An RPC call: header + XDR-encoded argument payload.

    Immutable and equal by value.  The hot paths build it with
    :data:`call_message`, which runs no Python frame.
    """

    xid: int
    prog: int
    vers: int
    proc: int
    args: Sequence[int] = ()
    cred: OpaqueAuth = NO_AUTH
    verf: OpaqueAuth = NO_AUTH

    def encode(self, machine=None) -> bytes:
        cred, verf, args = self.cred, self.verf, self.args
        if cred.body == b"" and verf.body == b"":
            nargs = len(args)
            try:
                data = _call_layout(nargs).pack(
                    self.xid, _CALL, RPC_VERSION, self.prog, self.vers,
                    self.proc, cred.flavor, 0, verf.flavor, 0, nargs, *args)
            except struct.error:
                pass            # out of range: the item coder raises
            else:
                if machine is not None:
                    machine.charge_each(costs.XDR_ITEM,
                                        _CALL_HEADER_ITEMS + nargs)
                return data
        return self._encode_items(machine)

    def _encode_items(self, machine=None) -> bytes:
        """Item by item through :class:`XdrEncoder`: any call."""
        encoder = XdrEncoder(machine)
        encoder.put_uint(self.xid)
        encoder.put_uint(int(MsgType.CALL))
        encoder.put_uint(RPC_VERSION)
        encoder.put_uint(self.prog)
        encoder.put_uint(self.vers)
        encoder.put_uint(self.proc)
        self.cred.encode(encoder)
        self.verf.encode(encoder)
        encoder.put_int_array(self.args)
        return encoder.getvalue()

    @classmethod
    def decode(cls, data: bytes, machine=None) -> "CallMessage":
        if len(data) >= _CALL_HEADER_BYTES:
            nargs = _UINT.unpack_from(data, _CALL_HEADER_BYTES - XDR_UNIT)[0]
            if len(data) >= _CALL_HEADER_BYTES + nargs * XDR_UNIT:
                (xid, msg_type, rpcvers, prog, vers, proc, cred_flavor,
                 cred_len, verf_flavor, verf_len, _, *args) = \
                    _call_layout(nargs).unpack_from(data)
                if (msg_type == _CALL and rpcvers == RPC_VERSION
                        and cred_flavor in _EMPTY_AUTH and cred_len == 0
                        and verf_flavor in _EMPTY_AUTH and verf_len == 0):
                    if machine is not None:
                        machine.charge_each(costs.XDR_ITEM,
                                            _CALL_HEADER_ITEMS + nargs)
                    return call_message((xid, prog, vers, proc, args,
                                         _EMPTY_AUTH[cred_flavor],
                                         _EMPTY_AUTH[verf_flavor]))
        return cls._decode_items(data, machine)

    @classmethod
    def _decode_items(cls, data: bytes, machine=None) -> "CallMessage":
        """Item by item through :class:`XdrDecoder`: any buffer."""
        decoder = XdrDecoder(data, machine)
        xid = decoder.get_uint()
        msg_type = decoder.get_uint()
        if msg_type != MsgType.CALL:
            raise SimulationError("not an RPC call message")
        rpcvers = decoder.get_uint()
        if rpcvers != RPC_VERSION:
            raise SimulationError(f"unsupported RPC version {rpcvers}")
        prog = decoder.get_uint()
        vers = decoder.get_uint()
        proc = decoder.get_uint()
        cred = OpaqueAuth.decode(decoder)
        verf = OpaqueAuth.decode(decoder)
        args = decoder.get_int_array()
        return cls(xid=xid, prog=prog, vers=vers, proc=proc, args=args,
                   cred=cred, verf=verf)


class ReplyMessage(NamedTuple):
    """An RPC reply: accepted/denied status + XDR-encoded result.

    Immutable and equal by value.  The hot paths build it with
    :data:`reply_message`, which runs no Python frame.
    """

    xid: int
    reply_stat: ReplyStat = ReplyStat.MSG_ACCEPTED
    accept_stat: AcceptStat = AcceptStat.SUCCESS
    result: Optional[int] = None
    verf: OpaqueAuth = NO_AUTH

    def encode(self, machine=None) -> bytes:
        verf = self.verf
        if (self.reply_stat == _ACCEPTED and self.accept_stat == _SUCCESS
                and verf.body == b""):
            try:
                data = _SUCCESS_REPLY.pack(
                    self.xid, _REPLY, _ACCEPTED, verf.flavor, 0, _SUCCESS,
                    self.result if self.result is not None else 0)
            except struct.error:
                pass            # out of range: the item coder raises
            else:
                if machine is not None:
                    machine.charge_each(costs.XDR_ITEM, _SUCCESS_REPLY_ITEMS)
                return data
        return self._encode_items(machine)

    def _encode_items(self, machine=None) -> bytes:
        """Item by item through :class:`XdrEncoder`: any reply."""
        encoder = XdrEncoder(machine)
        encoder.put_uint(self.xid)
        encoder.put_uint(int(MsgType.REPLY))
        encoder.put_uint(int(self.reply_stat))
        if self.reply_stat == ReplyStat.MSG_ACCEPTED:
            self.verf.encode(encoder)
            encoder.put_uint(int(self.accept_stat))
            if self.accept_stat == AcceptStat.SUCCESS:
                encoder.put_int(self.result if self.result is not None else 0)
        return encoder.getvalue()

    @classmethod
    def decode(cls, data: bytes, machine=None) -> "ReplyMessage":
        if len(data) >= _SUCCESS_REPLY.size:
            (xid, msg_type, reply_stat, verf_flavor, verf_len, accept_stat,
             result) = _SUCCESS_REPLY.unpack_from(data)
            if (msg_type == _REPLY and reply_stat == _ACCEPTED
                    and verf_flavor in _EMPTY_AUTH and verf_len == 0
                    and accept_stat == _SUCCESS):
                if machine is not None:
                    machine.charge_each(costs.XDR_ITEM, _SUCCESS_REPLY_ITEMS)
                return reply_message((xid, _ACCEPTED, _SUCCESS, result,
                                      _EMPTY_AUTH[verf_flavor]))
        return cls._decode_items(data, machine)

    @classmethod
    def _decode_items(cls, data: bytes, machine=None) -> "ReplyMessage":
        """Item by item through :class:`XdrDecoder`: any buffer."""
        decoder = XdrDecoder(data, machine)
        xid = decoder.get_uint()
        msg_type = decoder.get_uint()
        if msg_type != MsgType.REPLY:
            raise SimulationError("not an RPC reply message")
        reply_stat = ReplyStat(decoder.get_uint())
        if reply_stat == ReplyStat.MSG_DENIED:
            return cls(xid=xid, reply_stat=reply_stat)
        verf = OpaqueAuth.decode(decoder)
        accept_stat = AcceptStat(decoder.get_uint())
        result = None
        if accept_stat == AcceptStat.SUCCESS:
            result = decoder.get_int()
        return cls(xid=xid, reply_stat=reply_stat, accept_stat=accept_stat,
                   result=result, verf=verf)


#: CallMessage from its seven fields in order, without NamedTuple's frame
call_message = functools.partial(tuple.__new__, CallMessage)
#: ReplyMessage from its five fields in order, without NamedTuple's frame
reply_message = functools.partial(tuple.__new__, ReplyMessage)
