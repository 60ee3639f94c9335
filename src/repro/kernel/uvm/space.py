"""vmspace: one process's whole address space, plus fork/force-share/obreak.

This is the top of the simulated UVM stack and the home of the two central
routines the paper adds (Figure 6):

* :func:`uvmspace_fork` — ordinary ``fork()`` address-space duplication
  (private anon memory is copied, text object mappings are shared read-only,
  explicitly shared mappings keep referencing the same amap);
* :func:`uvmspace_force_share` — unmap the handle's data/heap/stack window
  and re-create it as references to the *client's* amaps, which is how the
  handle ends up seeing the client's entire data, heap and stack.

It also implements the modified ``sys_obreak`` behaviour: heap growth of
either half of a SecModule pair creates shared mappings in both maps, so the
regions stay coherent as ``malloc`` extends the break.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ...errors import SimulationError
from ...sim import costs
from .layout import (
    AddressSpaceLayout,
    DATA_BASE,
    HEAP_LIMIT,
    PAGE_SIZE,
    SECRET_BASE,
    SECRET_SIZE,
    SHARE_END,
    SHARE_START,
    STACK_INITIAL_PAGES,
    STACK_MAX_PAGES,
    STACK_TOP,
    TEXT_BASE,
    page_align_up,
)
from .map import (
    EntryKind,
    Protection,
    VMMap,
    VMMapEntry,
    read_memory,
    uvm_force_share,
    write_memory,
)
from .page import PageAllocator, UVMObject


@dataclass
class VMSpace:
    """One process's address space (``struct vmspace``)."""

    machine: object
    allocator: PageAllocator
    name: str = ""
    vm_map: VMMap = field(init=False)
    #: current heap break (end of the data segment), grows via obreak
    brk: int = DATA_BASE
    #: lowest mapped stack address (stack grows down from STACK_TOP)
    stack_bottom: int = STACK_TOP
    text_start: int = TEXT_BASE
    text_end: int = TEXT_BASE
    #: set on the vmspaces of a SecModule pair so faults can consult the peer
    smod_peer: Optional["VMSpace"] = None

    def __post_init__(self) -> None:
        self.vm_map = VMMap(self.machine, self.allocator, name=self.name)

    # ------------------------------------------------------------------ setup
    def map_text(self, name: str, data: bytes, *, base: int | None = None,
                 encrypted: bool = False) -> VMMapEntry:
        """Map an executable text region backed by a UVM object."""
        base = self.text_end if base is None else base
        uobj = UVMObject(name=name, data=data, executable=True)
        size = max(len(data), PAGE_SIZE)
        entry = self.vm_map.uvm_map(base, size, Protection.rx(),
                                    kind=EntryKind.OBJECT, uobj=uobj,
                                    name=name)
        entry.no_core = encrypted
        self.text_end = max(self.text_end, entry.end)
        return entry

    def map_data(self, name: str, size: int, *, base: int | None = None,
                 protection: Protection | None = None) -> VMMapEntry:
        """Map an anonymous data region (e.g. the initial .data + bss)."""
        base = self.brk if base is None else base
        entry = self.vm_map.uvm_map(base, size,
                                    protection or Protection.rw(), name=name)
        self.brk = max(self.brk, entry.end)
        return entry

    def map_stack(self, *, pages: int = STACK_INITIAL_PAGES,
                  name: str = "stack") -> VMMapEntry:
        """Map the main user stack just below STACK_TOP."""
        size = pages * PAGE_SIZE
        start = STACK_TOP - size
        entry = self.vm_map.uvm_map(start, size, Protection.rw(), name=name)
        self.stack_bottom = min(self.stack_bottom, start)
        return entry

    def map_secret_region(self) -> VMMapEntry:
        """Map the handle-only secret stack/heap (Figure 2's hatched box)."""
        entry = self.vm_map.uvm_map(SECRET_BASE, SECRET_SIZE, Protection.rw(),
                                    name="smod_secret", no_core=True)
        return entry

    # --------------------------------------------------------------- accessors
    def read(self, addr: int, length: int) -> bytes:
        return read_memory(self.vm_map, addr, length)

    def write(self, addr: int, data: bytes) -> None:
        write_memory(self.vm_map, addr, data, self.allocator)

    def layout_summary(self) -> AddressSpaceLayout:
        return AddressSpaceLayout(
            text_start=self.text_start,
            text_end=self.text_end,
            data_start=DATA_BASE,
            heap_break=self.brk,
            stack_bottom=self.stack_bottom,
            stack_top=STACK_TOP,
            has_secret_region=self.vm_map.find_entry("smod_secret") is not None,
        )

    def shared_entries(self) -> List[VMMapEntry]:
        return [e for e in self.vm_map if e.shared]

    # ------------------------------------------------------------------ obreak
    def sys_obreak(self, new_break: int, *, smod_pair: bool = False) -> int:
        """Grow (or shrink) the heap to ``new_break``.

        Returns the new break.  When ``smod_pair`` is true and the process
        has a peer vmspace, the newly created mapping is *shared* with the
        peer — the paper's modification of ``sys_obreak`` / ``uvm_map``.
        """
        self.machine.charge(costs.OBREAK_BASE)
        new_break = page_align_up(new_break)
        if new_break > HEAP_LIMIT:
            raise SimulationError(f"obreak past heap limit: {new_break:#x}")
        if new_break <= self.brk:
            # Shrinking is accepted but the mapping is retained (lazy), which
            # matches the common BSD behaviour of not returning heap pages.
            return self.brk
        size = new_break - self.brk
        name = f"heap@{self.brk:#x}"
        if smod_pair and self.smod_peer is not None:
            from .map import uvm_map_shared_internal
            uvm_map_shared_internal(self.vm_map, self.smod_peer.vm_map,
                                    self.brk, size, Protection.rw(),
                                    name=name)
            self.smod_peer.brk = max(self.smod_peer.brk, new_break)
        else:
            self.vm_map.uvm_map(self.brk, size, Protection.rw(), name=name)
        self.brk = new_break
        return self.brk

    # ----------------------------------------------------------------- stack growth
    def grow_stack(self, pages: int = 4) -> VMMapEntry:
        """Extend the stack downward (an ordinary stack-growth fault)."""
        current_pages = (STACK_TOP - self.stack_bottom) // PAGE_SIZE
        if current_pages + pages > STACK_MAX_PAGES:
            raise SimulationError("stack growth past the rlimit cap")
        size = pages * PAGE_SIZE
        start = self.stack_bottom - size
        entry = self.vm_map.uvm_map(start, size, Protection.rw(),
                                    name=f"stack_grow@{start:#x}")
        self.stack_bottom = start
        return entry


def uvmspace_fork(parent: VMSpace, *, child_name: str = "") -> VMSpace:
    """Duplicate an address space for ``fork()``.

    * object-backed (text) entries are shared by reference — text is
      read-only so this is safe and matches real fork behaviour;
    * anonymous entries marked ``shared`` keep referencing the same amap;
    * private anonymous entries are copied page-by-page (the simulation
      copies eagerly rather than COW — the paper's measurements never fork
      in the timed loop, so the simplification does not affect any figure).
    """
    machine = parent.machine
    machine.charge(costs.FORK_BASE)
    child = VMSpace(machine=machine, allocator=parent.allocator,
                    name=child_name or f"{parent.name}-child")
    child.brk = parent.brk
    child.stack_bottom = parent.stack_bottom
    child.text_start = parent.text_start
    child.text_end = parent.text_end
    for entry in parent.vm_map:
        machine.charge(costs.FORK_PER_MAP_ENTRY)
        if entry.kind is EntryKind.OBJECT:
            child.vm_map.uvm_map(entry.start, entry.size, entry.protection,
                                 kind=EntryKind.OBJECT, uobj=entry.uobj,
                                 name=entry.name, no_core=entry.no_core)
        elif entry.shared:
            child.vm_map.uvm_map(entry.start, entry.size, entry.protection,
                                 amap=entry.amap.ref(), shared=True,
                                 name=entry.name, no_core=entry.no_core)
        else:
            child.vm_map.uvm_map(entry.start, entry.size, entry.protection,
                                 amap=entry.amap.copy(parent.allocator),
                                 name=entry.name, no_core=entry.no_core)
            machine.charge(costs.UVM_PAGE_OP, entry.pages)
    return child


def uvmspace_force_share(handle_space: VMSpace, client_space: VMSpace,
                         start: int = SHARE_START,
                         end: int = SHARE_END) -> int:
    """The paper's ``uvmspace_force_share(p1, p2, start, end)``.

    Unmaps every entry of the *handle* inside [start, end) and recreates the
    client's anonymous entries there as shared references.  Also wires the
    two vmspaces together as SecModule peers so the modified fault handler
    can propagate future mappings, and the modified obreak can grow both.

    Returns the number of entries now shared into the handle.
    """
    if start >= end:
        raise SimulationError("force-share range is empty")
    shared = uvm_force_share(handle_space.vm_map, client_space.vm_map,
                             start, end)
    handle_space.smod_peer = client_space
    client_space.smod_peer = handle_space
    # The handle's notion of break/stack must now mirror the client's, since
    # those regions literally are the client's memory.
    handle_space.brk = client_space.brk
    handle_space.stack_bottom = client_space.stack_bottom
    return shared


def uvmspace_map_window(handle_space: VMSpace, client_space: VMSpace,
                        start: int = SHARE_START,
                        end: int = SHARE_END) -> int:
    """Map an *attaching* client's shared window into a pooled handle.

    The handle broker's Mir-style attach: a shared handle already
    force-shared the window of the client it was forked from at
    [start, end); each further seat's window lands at a relocated
    per-session offset in the handle's map, so the original peer's window
    (and the ``obreak`` peer links that keep it coherent) must stay
    untouched.  The simulation charges the same duplicate-and-share work
    per entry as :func:`uvmspace_force_share` — one map-entry op plus the
    per-page sharing — without replacing the handle's existing mappings or
    re-pointing ``smod_peer``, which would strand every earlier client
    (and make two attached clients' heaps collide in the handle's map).

    Returns the number of entries shared.
    """
    if start >= end:
        raise SimulationError("share window is empty")
    machine = handle_space.machine
    shared = 0
    for entry in client_space.vm_map.entries_in(start, end):
        if entry.kind is not EntryKind.ANON or entry.amap is None:
            continue
        entry.shared = True
        machine.charge(costs.UVM_MAP_ENTRY_OP)
        machine.charge(costs.UVM_PAGE_OP, entry.pages)
        shared += 1
    return shared
