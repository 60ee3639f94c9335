"""vm_map and vm_map_entry: the address-range bookkeeping of UVM.

This module provides the simulated analogues of ``uvm_map()`` /
``uvm_unmap()`` plus the two new internal entry points the paper adds in
Figure 6:

* ``uvm_map_internal`` — "where the original uvm_map() went to";
* ``uvm_map_shared_internal`` — "try to map the same anon in the same place
  in both processes", used when a mapping must appear in the client *and*
  the handle simultaneously (e.g. heap growth via the modified
  ``sys_obreak``).

Every structural mutation charges :data:`~repro.sim.costs.UVM_MAP_ENTRY_OP`
(and page-level work charges :data:`~repro.sim.costs.UVM_PAGE_OP`) to the
machine's cost meter, which is how VM-heavy operations such as session
setup show up in the latency accounting.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List, Optional

from ...errors import SimulationError
from ...sim import costs
from .layout import PAGE_SIZE, page_align_down, page_align_up
from .page import AMap, PageAllocator, UVMObject


class Protection(enum.Flag):
    """Page protection bits."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    EXEC = enum.auto()

    @classmethod
    def rw(cls) -> "Protection":
        return _READ_WRITE

    @classmethod
    def rx(cls) -> "Protection":
        return _READ_EXEC

    def allows(self, access: "Protection") -> bool:
        return (self & access) == access


#: the combined protections every mapping asks for, built once (each
#: enum.Flag ``|`` runs three Python frames)
_READ_WRITE = Protection.READ | Protection.WRITE
_READ_EXEC = Protection.READ | Protection.EXEC


class EntryKind(enum.Enum):
    """What backs a map entry."""

    ANON = "anon"          # amap-backed (data, heap, stack)
    OBJECT = "object"      # uvm_object-backed (text, mapped files)


@dataclass
class VMMapEntry:
    """One contiguous mapping: [start, end) with uniform backing/protection."""

    start: int
    end: int
    protection: Protection
    kind: EntryKind
    name: str = ""
    amap: Optional[AMap] = None
    uobj: Optional[UVMObject] = None
    #: True when this entry's amap is deliberately shared with another
    #: process (the SecModule client/handle arrangement or MAP_SHARED).
    shared: bool = False
    #: Entries the SecModule code marks as invisible to core dumps.
    no_core: bool = False

    def __post_init__(self) -> None:
        if self.start % PAGE_SIZE or self.end % PAGE_SIZE:
            raise SimulationError(
                f"map entry [{self.start:#x},{self.end:#x}) is not page aligned")
        if self.end <= self.start:
            raise SimulationError("map entry has non-positive size")
        if self.kind is EntryKind.ANON and self.amap is None:
            self.amap = AMap()
        if self.kind is EntryKind.OBJECT and self.uobj is None:
            raise SimulationError("object-backed entry requires a uvm_object")

    @property
    def size(self) -> int:
        return self.end - self.start

    @property
    def pages(self) -> int:
        return self.size // PAGE_SIZE

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end

    def overlaps(self, start: int, end: int) -> bool:
        return self.start < end and start < self.end

    def slot_of(self, addr: int) -> int:
        """The amap slot index (page index within the entry) for ``addr``."""
        if not self.contains(addr):
            raise SimulationError(f"address {addr:#x} not inside entry {self.name!r}")
        return (page_align_down(addr) - self.start) // PAGE_SIZE


class VMMap:
    """An ordered set of non-overlapping :class:`VMMapEntry`.

    ``machine`` is the cost-charging machine; ``allocator`` the physical page
    allocator shared by every map in the system.
    """

    def __init__(self, machine, allocator: PageAllocator, *, name: str = "") -> None:
        self.machine = machine
        self.allocator = allocator
        self.name = name
        self.entries: List[VMMapEntry] = []

    # -- queries --------------------------------------------------------------
    def lookup(self, addr: int) -> Optional[VMMapEntry]:
        for entry in self.entries:
            if entry.contains(addr):
                return entry
        return None

    def entries_in(self, start: int, end: int) -> List[VMMapEntry]:
        return [e for e in self.entries if e.overlaps(start, end)]

    def find_entry(self, name: str) -> Optional[VMMapEntry]:
        for entry in self.entries:
            if entry.name == name:
                return entry
        return None

    def __iter__(self) -> Iterator[VMMapEntry]:
        return iter(sorted(self.entries, key=lambda e: e.start))

    def __len__(self) -> int:
        return len(self.entries)

    def total_mapped_bytes(self) -> int:
        return sum(e.size for e in self.entries)

    # -- mutation --------------------------------------------------------------
    def uvm_map(self, start: int, size: int, protection: Protection, *,
                kind: EntryKind = EntryKind.ANON,
                uobj: Optional[UVMObject] = None,
                amap: Optional[AMap] = None,
                name: str = "",
                shared: bool = False,
                no_core: bool = False) -> VMMapEntry:
        """Insert a new mapping (the simulated ``uvm_map()``).

        The paper modified ``uvm_map()`` so that requests originating from
        the modified ``sys_obreak()`` of a SecModule pair create *shared*
        mappings; callers here express that by passing an already-shared
        ``amap`` and ``shared=True`` (see ``uvm_map_shared_internal``).
        """
        start = page_align_down(start)
        end = page_align_up(start + size)
        for existing in self.entries:
            if existing.overlaps(start, end):
                raise SimulationError(
                    f"mapping [{start:#x},{end:#x}) overlaps existing entry "
                    f"{existing.name!r} [{existing.start:#x},{existing.end:#x}) "
                    f"in map {self.name!r}")
        entry = VMMapEntry(start=start, end=end, protection=protection,
                           kind=kind, name=name or f"anon@{start:#x}",
                           amap=amap, uobj=uobj, shared=shared,
                           no_core=no_core)
        self.entries.append(entry)
        self.machine.charge(costs.UVM_MAP_ENTRY_OP)
        return entry

    def uvm_map_internal(self, start: int, size: int, protection: Protection,
                         **kwargs) -> VMMapEntry:
        """Figure 6's ``uvm_map_internal``: the un-instrumented insert path."""
        return self.uvm_map(start, size, protection, **kwargs)

    def uvm_unmap(self, start: int, end: int) -> int:
        """Remove every entry overlapping [start, end); returns entries removed.

        Partial overlap splits are not modelled — the force-share code always
        works on whole entries, as does the SecModule text unmapper.
        """
        start = page_align_down(start)
        end = page_align_up(end)
        removed = 0
        kept: List[VMMapEntry] = []
        for entry in self.entries:
            if entry.overlaps(start, end):
                if entry.start < start or entry.end > end:
                    raise SimulationError(
                        f"partial unmap of entry {entry.name!r} "
                        f"[{entry.start:#x},{entry.end:#x}) by range "
                        f"[{start:#x},{end:#x}) is not supported")
                if entry.amap is not None:
                    entry.amap.unref(self.allocator)
                removed += 1
                self.machine.charge(costs.UVM_MAP_ENTRY_OP)
                self.machine.charge(costs.UVM_PAGE_OP, entry.pages)
            else:
                kept.append(entry)
        self.entries = kept
        return removed

    def protect(self, start: int, end: int, protection: Protection) -> int:
        """Change protection on every entry fully inside [start, end)."""
        changed = 0
        for entry in self.entries:
            if entry.start >= start and entry.end <= end:
                entry.protection = protection
                changed += 1
                self.machine.charge(costs.UVM_MAP_ENTRY_OP)
        return changed


def uvm_map_shared_internal(map1: VMMap, map2: VMMap, start: int, size: int,
                            protection: Protection, *, name: str = "") -> tuple:
    """Map the same anon memory at the same place in both maps (Figure 6).

    Returns the pair of entries.  Both entries reference one shared
    :class:`AMap`, so pages faulted through either map are visible to both.
    """
    shared_amap = AMap()
    entry1 = map1.uvm_map(start, size, protection, amap=shared_amap,
                          shared=True, name=name or f"shared@{start:#x}")
    entry2 = map2.uvm_map(start, size, protection, amap=shared_amap.ref(),
                          shared=True, name=name or f"shared@{start:#x}")
    return entry1, entry2


def uvm_force_share(map1: VMMap, map2: VMMap, start: int, end: int) -> int:
    """Force ``map1`` (the handle) to share ``map2``'s (the client's) entries.

    This is the lower half of the paper's ``uvmspace_force_share``: every
    entry of ``map1`` inside [start, end) is unmapped, then every entry of
    ``map2`` in that range is duplicated into ``map1`` *sharing* the same
    amap (the duplicate-and-share behaviour the paper describes as
    "duplicating the actions of uvmspace_fork ... for the address range").

    Returns the number of entries now shared.
    """
    map1.uvm_unmap(start, end)
    shared = 0
    for entry in map2.entries_in(start, end):
        if entry.kind is not EntryKind.ANON or entry.amap is None:
            # Text/object mappings inside the window (there should be none on
            # OpenBSD's layout) are deliberately *not* shared: the paper is
            # explicit that the text segment is never shared.
            continue
        entry.shared = True
        map1.uvm_map(entry.start, entry.size, entry.protection,
                     amap=entry.amap.ref(), shared=True, name=entry.name,
                     no_core=entry.no_core)
        map1.machine.charge(costs.UVM_PAGE_OP, entry.pages)
        shared += 1
    return shared


def read_memory(vmmap: VMMap, addr: int, length: int) -> bytes:
    """Read bytes through a map (test/diagnostic helper, not a syscall)."""
    out = bytearray()
    cursor = addr
    remaining = length
    while remaining > 0:
        entry = vmmap.lookup(cursor)
        if entry is None:
            raise SimulationError(f"read from unmapped address {cursor:#x}")
        page_offset = cursor % PAGE_SIZE
        chunk = min(remaining, PAGE_SIZE - page_offset)
        if entry.kind is EntryKind.ANON:
            anon = entry.amap.lookup(entry.slot_of(cursor))
            if anon is None:
                out.extend(bytes(chunk))
            else:
                out.extend(anon.page.read(page_offset, chunk))
        else:
            page_index = (page_align_down(cursor) - entry.start) // PAGE_SIZE
            data = entry.uobj.read_page(page_index)
            out.extend(data[page_offset:page_offset + chunk])
        cursor += chunk
        remaining -= chunk
    return bytes(out)


def write_memory(vmmap: VMMap, addr: int, data: bytes,
                 allocator: Optional[PageAllocator] = None) -> None:
    """Write bytes through a map, allocating anon pages as needed."""
    allocator = allocator or vmmap.allocator
    cursor = addr
    offset = 0
    while offset < len(data):
        entry = vmmap.lookup(cursor)
        if entry is None:
            raise SimulationError(f"write to unmapped address {cursor:#x}")
        if entry.kind is not EntryKind.ANON:
            raise SimulationError(
                f"write to non-anonymous mapping {entry.name!r} at {cursor:#x}")
        if not entry.protection.allows(Protection.WRITE):
            raise SimulationError(
                f"write to read-only mapping {entry.name!r} at {cursor:#x}")
        page_offset = cursor % PAGE_SIZE
        chunk = min(len(data) - offset, PAGE_SIZE - page_offset)
        anon = entry.amap.ensure(entry.slot_of(cursor), allocator)
        anon.page.write(page_offset, data[offset:offset + chunk])
        cursor += chunk
        offset += chunk
