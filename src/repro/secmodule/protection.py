"""Text-protection modes and their enforcement against the client.

Section 4.1 offers two "orthogonal approaches" for keeping a module's text
away from the client:

1. **encryption** — the library on disk (and anywhere the client can map it)
   is ciphertext except for relocation data; only the kernel can decrypt it,
   and it only ever decrypts into the handle;
2. **unmapping** — for dynamic libraries, the kernel simply unmaps the
   library image from the client's address space and refuses to let the
   client map a plaintext copy later.

"There is nothing preventing both approaches being used."  The reproduction
models all three combinations so the protection-mode ablation can compare
their setup costs and verify that each actually denies the client access.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import ProtectionViolation
from ..kernel.proc import Proc
from ..kernel.uvm.map import EntryKind
from ..sim import costs


class ProtectionMode(enum.Enum):
    """Which of §4.1's two mechanisms protect the module text."""

    ENCRYPT = "encrypt"
    UNMAP = "unmap"
    BOTH = "both"

    @property
    def uses_encryption(self) -> bool:
        return self in (ProtectionMode.ENCRYPT, ProtectionMode.BOTH)

    @property
    def uses_unmap(self) -> bool:
        return self in (ProtectionMode.UNMAP, ProtectionMode.BOTH)


@dataclass
class ClientTextGuard:
    """Per-session record of what was done to the client's view of the text.

    Also the enforcement point: :meth:`check_client_map_attempt` is what the
    kernel consults when the client later tries to map the module's library
    (the paper's "deny the ability of the client to load in plain text
    versions of the SecModule later on").
    """

    module_name: str
    mode: ProtectionMode
    unmapped_entries: List[str] = field(default_factory=list)
    denied_load_attempts: int = 0

    def check_client_map_attempt(self, requested_name: str) -> None:
        """Raise when the client tries to (re)map the protected library."""
        if not self.mode.uses_unmap:
            return
        if requested_name.startswith(self.module_name):
            self.denied_load_attempts += 1
            raise ProtectionViolation(
                f"client may not map protected library {requested_name!r} "
                f"while a SecModule session is active")


def apply_client_protection(kernel, client: Proc, module, *,
                            mode: ProtectionMode) -> ClientTextGuard:
    """Remove the client's access to the module's text.

    * unmap mode: any text mapping in the client's address space whose name
      matches the module's library is unmapped (and further loads denied);
    * encrypt mode: nothing to remove — the client may keep its mapping but
      it only ever contained ciphertext; executing it faults.

    Returns the guard object the session stores.
    """
    guard = ClientTextGuard(module_name=module.definition.name, mode=mode)
    if mode.uses_unmap:
        image_prefix = module.library_image.name
        doomed = [entry for entry in client.vmspace.vm_map
                  if entry.kind is EntryKind.OBJECT
                  and entry.name.startswith(image_prefix)]
        for entry in doomed:
            client.vmspace.vm_map.uvm_unmap(entry.start, entry.end)
            guard.unmapped_entries.append(entry.name)
    kernel.machine.trace.emit(
        "smod.protect", "apply_client_protection", pid=client.pid,
        detail_module=module.definition.name, detail_mode=mode.value,
        detail_unmapped=len(guard.unmapped_entries))
    return guard


def client_read_text(kernel, client: Proc, module, address: int,
                     length: int = 16) -> bytes:
    """What the client sees if it reads the module's text at ``address``.

    Used by the security tests: under UNMAP the read faults; under ENCRYPT
    it returns ciphertext (never the plaintext bytes of the library image).
    """
    entry = client.vmspace.vm_map.lookup(address)
    if entry is None:
        raise ProtectionViolation(
            f"client has no mapping at {address:#x} (text was unmapped)",
            address=address, pid=client.pid)
    if entry.kind is not EntryKind.OBJECT or entry.uobj is None:
        raise ProtectionViolation(
            f"mapping at {address:#x} is not module text", address=address,
            pid=client.pid)
    kernel.machine.charge(costs.UVM_PAGE_OP)
    offset = address - entry.start
    data = entry.uobj.data[offset:offset + length]
    return bytes(data)


def handle_plaintext_view(module) -> Optional[bytes]:
    """The plaintext text bytes as the *handle* sees them after registration.

    The registry encrypted its own copy of the image, so reconstructing the
    plaintext requires the kernel-held key; this helper performs that
    decryption on a copy (never mutating the registered ciphertext), which
    is exactly what the kernel does when populating the handle's text.

    The first call for a registration decrypts and stores the bytes on the
    kernel-side record; every later handle of that registration maps the
    stored bytes.  Nothing writes the registered ciphertext or its
    encryption record after registration, so the stored plaintext is what
    a fresh decryption would give.
    """
    from .crypto import decrypt_module_text

    image = module.library_image
    if not image.encrypted or module.encryption_record is None:
        text = image.text_sections()
        return bytes(text[0].data) if text else None
    if module.handle_plaintext is None:
        clone = image.copy()
        # decrypt_module_text works on the image's sections by name; the
        # clone shares section names with the original, so the record
        # applies directly.
        decrypt_module_text(clone, module.encryption_record)
        text = clone.text_sections()
        module.handle_plaintext = bytes(text[0].data) if text else None
    return module.handle_plaintext
