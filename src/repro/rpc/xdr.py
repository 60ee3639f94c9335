"""XDR (External Data Representation) marshalling.

The paper's baseline is "an identical no-op function implemented as a
locally running RPC service" — classic ONC RPC, whose argument and result
marshalling uses XDR (RFC 1832 style).  The paper even notes that the
explicit-shared-memory design it rejected "develops the same flavor as that
of the XDR protocol used in RPC", which is precisely the overhead the
shared-VM design avoids.

The encoder/decoder below implements the standard XDR wire rules (4-byte
alignment, big-endian integers, length-prefixed opaque/string data) and
charges :data:`~repro.sim.costs.XDR_ITEM` per item marshalled, so argument
size sweeps show XDR's per-item cost against SecModule's zero-copy stack.
"""

from __future__ import annotations

import struct
from typing import List

from ..errors import SimulationError
from ..sim import costs

#: XDR pads everything to 4-byte boundaries.
XDR_UNIT = 4


def _pad(length: int) -> int:
    return (XDR_UNIT - length % XDR_UNIT) % XDR_UNIT


class XdrEncoder:
    """Serializes values into an XDR byte stream."""

    def __init__(self, machine=None) -> None:
        self.machine = machine
        self._chunks: List[bytes] = []
        self.items_encoded = 0

    def _charge(self, items: int = 1) -> None:
        self.items_encoded += items
        if self.machine is not None:
            self.machine.charge_each(costs.XDR_ITEM, items)

    # -- scalar types -------------------------------------------------------------
    def put_uint(self, value: int) -> "XdrEncoder":
        if value < 0 or value > 0xFFFFFFFF:
            raise SimulationError(f"uint out of range: {value}")
        self._chunks.append(struct.pack(">I", value))
        self._charge()
        return self

    def put_int(self, value: int) -> "XdrEncoder":
        if value < -0x80000000 or value > 0x7FFFFFFF:
            raise SimulationError(f"int out of range: {value}")
        self._chunks.append(struct.pack(">i", value))
        self._charge()
        return self

    def put_hyper(self, value: int) -> "XdrEncoder":
        self._chunks.append(struct.pack(">q", value))
        self._charge()
        return self

    def put_bool(self, value: bool) -> "XdrEncoder":
        return self.put_uint(1 if value else 0)

    # -- variable-length types -------------------------------------------------------
    def put_opaque(self, data: bytes) -> "XdrEncoder":
        self._chunks += (struct.pack(">I", len(data)), data,
                         b"\0" * _pad(len(data)))
        # one item for the length plus one per unit of payload
        self._charge(1 + max(1, len(data) // XDR_UNIT))
        return self

    def put_string(self, text: str) -> "XdrEncoder":
        return self.put_opaque(text.encode("utf-8"))

    def put_int_array(self, values: List[int]) -> "XdrEncoder":
        self.put_uint(len(values))
        for value in values:
            self.put_int(value)
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


class XdrDecoder:
    """Deserializes values from an XDR byte stream."""

    def __init__(self, data: bytes, machine=None) -> None:
        self.data = data
        self.machine = machine
        self.offset = 0
        self.items_decoded = 0

    def _charge(self, items: int = 1) -> None:
        self.items_decoded += items
        if self.machine is not None:
            self.machine.charge_each(costs.XDR_ITEM, items)

    def _take(self, length: int) -> bytes:
        if self.offset + length > len(self.data):
            raise SimulationError("XDR decode past end of buffer")
        chunk = self.data[self.offset:self.offset + length]
        self.offset += length
        return chunk

    def get_uint(self) -> int:
        value = struct.unpack(">I", self._take(4))[0]
        self._charge()
        return value

    def get_int(self) -> int:
        value = struct.unpack(">i", self._take(4))[0]
        self._charge()
        return value

    def get_hyper(self) -> int:
        value = struct.unpack(">q", self._take(8))[0]
        self._charge()
        return value

    def get_bool(self) -> bool:
        return bool(self.get_uint())

    def get_opaque(self) -> bytes:
        length = struct.unpack(">I", self._take(4))[0]
        data = self._take(length)
        self._take(_pad(length))
        self._charge(1 + max(1, length // XDR_UNIT))
        return data

    def get_string(self) -> str:
        return self.get_opaque().decode("utf-8")

    def get_int_array(self) -> List[int]:
        count = self.get_uint()
        return [self.get_int() for _ in range(count)]

    @property
    def remaining(self) -> int:
        return len(self.data) - self.offset

    def done(self) -> bool:
        return self.remaining == 0
