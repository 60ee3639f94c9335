"""The kernel's SecModule registry.

"A separate tool chain registers the SecModule m with the kernel, which must
keep track of the registered SecModules" (§3).  Registration is the point
where the module's text-encryption key enters *kernel space* and never
leaves it (§4.4); lookup by (name, version) is what ``sys_smod_find``
answers; removal requires presenting a credential acceptable to the module's
issuer, so a random user cannot unregister someone else's module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..sim import costs
from .credentials import Credential, validate_credential
from .crypto import EncryptedModuleText, ModuleKey, encrypt_module_text
from .module import SecModuleDefinition
from .protection import ProtectionMode
from .stubs import ClientStub


@dataclass
class RegisteredModule:
    """Kernel-side record of one registered SecModule."""

    m_id: int
    definition: SecModuleDefinition
    protection: ProtectionMode
    #: kernel-held text key and encryption bookkeeping (None when the module
    #: is protected purely by unmapping)
    key: Optional[ModuleKey] = None
    encryption_record: Optional[EncryptedModuleText] = None
    registered_at_us: float = 0.0
    #: how many sessions have been opened against this module (statistics)
    sessions_opened: int = 0
    #: func_id -> the client stub every call of that function goes through
    _client_stubs: Dict[int, ClientStub] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    #: the decrypted text every handle of this registration maps, stored by
    #: the first ``handle_plaintext_view`` of an encrypted module; it stays
    #: in kernel space beside the key
    handle_plaintext: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def version(self) -> int:
        return self.definition.version

    def client_stub(self, function) -> ClientStub:
        """The client stub of one of this module's functions.

        A stub holds only the function's ids and the slots those ids make,
        so one stub serves every call of the function; it is built on the
        first call and lives as long as the registration.
        """
        stub = self._client_stubs.get(function.func_id)
        if stub is None:
            stub = self._client_stubs[function.func_id] = ClientStub(
                function.name, self.m_id, function.func_id,
                arg_words=function.arg_words)
        return stub


class ModuleRegistry:
    """All registered SecModules, keyed by id and by (name, version)."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self._by_id: Dict[int, RegisteredModule] = {}
        self._by_name_version: Dict[Tuple[str, int], int] = {}
        self._next_id = 1

    # -- registration (sys_smod_add) -----------------------------------------------
    def register(self, definition: SecModuleDefinition, *,
                 protection: ProtectionMode = ProtectionMode.ENCRYPT,
                 uid: int = 0) -> RegisteredModule:
        """Register a module; only root (the trusted host) may do so."""
        if uid != 0:
            raise PermissionError(
                "only the trusted host (root) may register SecModules")
        key_tuple = (definition.name, definition.version)
        if key_tuple in self._by_name_version:
            raise ConfigurationError(
                f"module {definition.name!r} v{definition.version} already registered")
        if len(definition) == 0:
            raise ConfigurationError(
                f"refusing to register module {definition.name!r} with no functions")
        self.kernel.machine.charge(costs.SMOD_REGISTER_BASE)

        image = definition.ensure_library_image()
        key: Optional[ModuleKey] = None
        record: Optional[EncryptedModuleText] = None
        if protection.uses_encryption and not image.encrypted:
            key = ModuleKey.generate(self.kernel.machine.rng.child(
                f"module-key:{definition.name}:{definition.version}"))
            record = encrypt_module_text(image, key, machine=self.kernel.machine)

        registered = RegisteredModule(
            m_id=self._next_id,
            definition=definition,
            protection=protection,
            key=key,
            encryption_record=record,
            registered_at_us=self.kernel.machine.microseconds(),
        )
        self._next_id += 1
        self._by_id[registered.m_id] = registered
        self._by_name_version[key_tuple] = registered.m_id
        self.kernel.machine.trace.emit(
            "smod.registry", "smod_add", detail_module=definition.name,
            detail_version=definition.version, detail_m_id=registered.m_id,
            detail_protection=protection.name)
        return registered

    # -- lookup (sys_smod_find) -------------------------------------------------------
    def find(self, name: str, version: int) -> Optional[RegisteredModule]:
        """Look up a module by name and version ("consisting of name and version")."""
        m_id = self._by_name_version.get((name, version))
        if m_id is None:
            return None
        return self._by_id.get(m_id)

    def find_any_version(self, name: str) -> List[RegisteredModule]:
        """All registered versions of ``name`` ("allows multiple versions")."""
        return [self._by_id[m_id]
                for (mod_name, _), m_id in sorted(self._by_name_version.items())
                if mod_name == name]

    def get(self, m_id: int) -> Optional[RegisteredModule]:
        return self._by_id.get(m_id)

    # -- removal (sys_smod_remove) -------------------------------------------------------
    def remove(self, m_id: int, credential: Credential, *, uid: int) -> bool:
        """Unregister a module; the presenter must hold a valid credential
        for it (or be root, the trusted host)."""
        registered = self._by_id.get(m_id)
        if registered is None:
            return False
        if uid != 0:
            outcome = validate_credential(
                registered.definition.issuer, credential, uid=uid,
                now_us=self.kernel.machine.microseconds())
            if not outcome.valid:
                raise PermissionError(f"cannot remove module: {outcome.reason}")
        del self._by_id[m_id]
        self._by_name_version = {
            key: value for key, value in self._by_name_version.items()
            if value != m_id
        }
        self.kernel.machine.trace.emit("smod.registry", "smod_remove",
                                       detail_m_id=m_id)
        return True

    # -- introspection ------------------------------------------------------------------
    def all_modules(self) -> List[RegisteredModule]:
        return [self._by_id[m] for m in sorted(self._by_id)]

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, m_id: int) -> bool:
        return m_id in self._by_id
