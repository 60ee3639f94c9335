"""Physical pages, anonymous memory and amaps.

This is the simulated analogue of UVM's ``vm_page`` / ``vm_anon`` /
``vm_amap`` trio (Cranor's UVM design, reference [6] of the paper):

* a :class:`PhysicalPage` is a frame of real memory with (lazily allocated)
  contents;
* an :class:`Anon` is one page of anonymous memory with a reference count —
  the unit of sharing between a SecModule client and its handle;
* an :class:`AMap` maps page-slots of a map entry to Anons and can be
  *referenced* by several map entries (that is precisely what
  ``uvmspace_force_share`` arranges) or *copied* (what ordinary ``fork``
  does for private mappings, modelled copy-on-reference for simplicity).

The page allocator also enforces the physical memory budget of the Figure 7
machine so a runaway simulation fails the way a real 512 MB box would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ...errors import SimulationError
from .layout import PAGE_SIZE


@dataclass
class PhysicalPage:
    """One page frame.  Contents are allocated on first write."""

    frame_number: int
    _data: Optional[bytearray] = None

    @property
    def data(self) -> bytearray:
        if self._data is None:
            self._data = bytearray(PAGE_SIZE)
        return self._data

    @property
    def touched(self) -> bool:
        return self._data is not None

    def read(self, offset: int, length: int) -> bytes:
        if offset < 0 or offset + length > PAGE_SIZE:
            raise SimulationError("page read outside page bounds")
        if self._data is None:
            return bytes(length)
        return bytes(self._data[offset:offset + length])

    def write(self, offset: int, data: bytes) -> None:
        if offset < 0 or offset + len(data) > PAGE_SIZE:
            raise SimulationError("page write outside page bounds")
        self.data[offset:offset + len(data)] = data


class PageAllocator:
    """Hands out page frames within the machine's physical memory budget."""

    def __init__(self, total_pages: int) -> None:
        if total_pages <= 0:
            raise SimulationError("machine must have at least one page of RAM")
        self.total_pages = total_pages
        self.allocated = 0
        self._next_frame = 0

    def alloc(self) -> PhysicalPage:
        if self.allocated >= self.total_pages:
            raise SimulationError(
                f"out of simulated physical memory ({self.total_pages} pages)")
        self.allocated += 1
        frame = self._next_frame
        self._next_frame += 1
        return PhysicalPage(frame_number=frame)

    def free(self, page: PhysicalPage) -> None:   # noqa: ARG002 - frame reuse not modelled
        if self.allocated <= 0:
            raise SimulationError("freeing a page that was never allocated")
        self.allocated -= 1

    @property
    def free_pages(self) -> int:
        return self.total_pages - self.allocated


@dataclass
class Anon:
    """One page of anonymous memory (``struct vm_anon``)."""

    page: PhysicalPage
    refcount: int = 1

    def ref(self) -> "Anon":
        self.refcount += 1
        return self

    def unref(self, allocator: PageAllocator) -> None:
        if self.refcount <= 0:
            raise SimulationError("unref of an already-dead anon")
        self.refcount -= 1
        if self.refcount == 0:
            allocator.free(self.page)


class AMap:
    """Maps page slots of a map entry to :class:`Anon` pages.

    ``refcount`` counts how many vm_map_entries reference this amap.  When a
    client and a handle share a region, both their entries point at the same
    AMap, so a page faulted in by either becomes visible to both — exactly
    the behaviour the paper relies on for retrofitting ``malloc``.
    """

    def __init__(self) -> None:
        self.slots: Dict[int, Anon] = {}
        self.refcount = 1

    def ref(self) -> "AMap":
        self.refcount += 1
        return self

    def unref(self, allocator: PageAllocator) -> None:
        if self.refcount <= 0:
            raise SimulationError("unref of an already-dead amap")
        self.refcount -= 1
        if self.refcount == 0:
            for anon in self.slots.values():
                anon.unref(allocator)
            self.slots.clear()

    def lookup(self, slot: int) -> Optional[Anon]:
        return self.slots.get(slot)

    def add(self, slot: int, anon: Anon) -> Anon:
        if slot in self.slots:
            raise SimulationError(f"amap slot {slot} already populated")
        self.slots[slot] = anon
        return anon

    def ensure(self, slot: int, allocator: PageAllocator) -> Anon:
        """Return the anon for ``slot``, allocating a zero page if missing."""
        anon = self.slots.get(slot)
        if anon is None:
            anon = Anon(page=allocator.alloc())
            self.slots[slot] = anon
        return anon

    def copy(self, allocator: PageAllocator) -> "AMap":
        """Deep copy (what a *private* fork of a mapping does to its pages)."""
        clone = AMap()
        for slot, anon in self.slots.items():
            new_anon = Anon(page=allocator.alloc())
            if anon.page.touched:
                new_anon.page.write(0, anon.page.read(0, PAGE_SIZE))
            clone.slots[slot] = new_anon
        return clone

    def __len__(self) -> int:
        return len(self.slots)


@dataclass
class UVMObject:
    """A backing object for file/text mappings (``struct uvm_object``).

    Text segments of executables and libraries are mapped from UVMObjects
    whose bytes come from the object image's section data; the SecModule
    protection code replaces a client's view of a protected library's
    UVMObject with nothing at all (unmap mode) or with ciphertext
    (encryption mode).
    """

    name: str
    data: bytes = b""
    executable: bool = True

    @property
    def size(self) -> int:
        return len(self.data)

    def read_page(self, page_index: int) -> bytes:
        start = page_index * PAGE_SIZE
        chunk = self.data[start:start + PAGE_SIZE]
        if len(chunk) < PAGE_SIZE:
            chunk = chunk + bytes(PAGE_SIZE - len(chunk))
        return chunk
