"""Tests for text encryption and the client-side protection modes."""

import pytest

from repro.errors import ConfigurationError, ProtectionViolation
from repro.hw.machine import make_paper_machine
from repro.obj.image import make_function_image
from repro.secmodule import crypto, protection
from repro.secmodule.api import SecModuleSystem
from repro.secmodule.crypto import (
    BLOCK_BYTES,
    ModuleKey,
    decrypt_bytes,
    decrypt_module_text,
    encrypt_bytes,
    encrypt_module_text,
    encrypt_section_in_place,
    decrypt_section_in_place,
)
from repro.secmodule.handle import Handle
from repro.secmodule.libc_conversion import build_test_module
from repro.secmodule.protection import (
    ClientTextGuard,
    ProtectionMode,
    client_read_text,
    handle_plaintext_view,
)
from repro.sim import costs
from repro.sim.rng import DeterministicRNG


@pytest.fixture
def key():
    return ModuleKey.generate(DeterministicRNG(1))


@pytest.fixture
def decryptions(monkeypatch):
    """The encryption record of every module-text decryption, in order
    (the handle's text is decrypted through the name ``protection``
    imports)."""
    records = []
    real = crypto.decrypt_module_text

    def counting(image, record, **kwargs):
        records.append(record)
        real(image, record, **kwargs)

    monkeypatch.setattr(crypto, "decrypt_module_text", counting)
    monkeypatch.setattr(protection, "decrypt_module_text", counting)
    return records


def _text_bytes(definition) -> bytes:
    return bytes(definition.ensure_library_image().text_sections()[0].data)


class TestBlockCipher:
    def test_roundtrip_exact(self, key):
        data = bytes(range(256)) * 3
        assert decrypt_bytes(encrypt_bytes(data, key), key) == data

    def test_ciphertext_differs_from_plaintext(self, key):
        data = b"A" * 64
        assert encrypt_bytes(data, key) != data

    def test_partial_block_handled(self, key):
        data = b"12345"            # shorter than one block
        ciphertext = encrypt_bytes(data, key)
        assert len(ciphertext) == len(data)
        assert ciphertext != data
        assert decrypt_bytes(ciphertext, key) == data

    def test_different_keys_different_ciphertext(self):
        k1 = ModuleKey.generate(DeterministicRNG(1))
        k2 = ModuleKey.generate(DeterministicRNG(2))
        data = b"B" * 32
        assert encrypt_bytes(data, k1) != encrypt_bytes(data, k2)

    def test_key_length_enforced(self):
        with pytest.raises(ConfigurationError):
            ModuleKey(material=b"short")

    def test_cipher_charges_block_costs(self, key):
        machine = make_paper_machine()
        encrypt_bytes(b"x" * (BLOCK_BYTES * 10), key, machine)
        assert machine.meter.count(costs.CIPHER_BLOCK) == 10


class TestSectionEncryption:
    def test_relocation_holes_left_untouched(self, key):
        image = make_function_image("lib.o", {"f": 64, "g": 64},
                                    calls=[("f", "g"), ("g", "f")])
        text = image.get_section(".text")
        original = bytes(text.data)
        holes = image.relocation_offsets(".text")
        info = encrypt_section_in_place(text, holes, key)
        for offset in holes:
            assert text.data[offset] == original[offset]
        changed = [o for o in range(text.size)
                   if o not in holes and text.data[o] != original[o]]
        assert changed, "non-hole bytes should have been encrypted"
        assert info.bytes_skipped == len(holes)
        assert info.bytes_protected == text.size - len(holes)

    def test_section_roundtrip(self, key):
        image = make_function_image("lib.o", {"f": 64, "g": 64}, calls=[("f", "g")])
        text = image.get_section(".text")
        original = bytes(text.data)
        info = encrypt_section_in_place(text, image.relocation_offsets(".text"), key)
        decrypt_section_in_place(text, info, key)
        assert bytes(text.data) == original

    def test_module_text_roundtrip_and_flag(self, key):
        image = make_function_image("lib.so", {"f": 64}, kind="shared")
        original = bytes(image.get_section(".text").data)
        record = encrypt_module_text(image, key)
        assert image.encrypted
        assert bytes(image.get_section(".text").data) != original
        decrypt_module_text(image, record)
        assert not image.encrypted
        assert bytes(image.get_section(".text").data) == original
        assert record.total_protected_bytes > 0


class TestProtectionModes:
    def test_mode_predicates(self):
        assert ProtectionMode.ENCRYPT.uses_encryption
        assert not ProtectionMode.ENCRYPT.uses_unmap
        assert ProtectionMode.UNMAP.uses_unmap
        assert ProtectionMode.BOTH.uses_encryption and ProtectionMode.BOTH.uses_unmap

    def test_unmap_mode_removes_client_library_mapping(self):
        system = SecModuleSystem.create(protection=ProtectionMode.UNMAP, seed=11)
        names = [e.name for e in system.client_proc.vmspace.vm_map
                 if e.uobj is not None]
        assert names == ["client:.text"]
        guard = system.session.guards[next(iter(system.session.guards))]
        assert guard.unmapped_entries

    def test_unmap_mode_denies_later_loads(self):
        guard = ClientTextGuard(module_name="libc", mode=ProtectionMode.UNMAP)
        with pytest.raises(ProtectionViolation):
            guard.check_client_map_attempt("libc.so")
        assert guard.denied_load_attempts == 1
        guard.check_client_map_attempt("libother.so")     # unrelated is fine

    def test_encrypt_mode_leaves_only_ciphertext_with_client(self):
        system = SecModuleSystem.create(protection=ProtectionMode.ENCRYPT, seed=12)
        module = system.session.module_by_name("libtest")
        entry = system.client_proc.vmspace.vm_map.find_entry("libtest.so:.text")
        assert entry is not None
        client_view = client_read_text(system.kernel, system.client_proc,
                                       module, entry.start, 64)
        plaintext = handle_plaintext_view(module)
        assert client_view != plaintext[:64]

    def test_handle_sees_plaintext(self):
        system = SecModuleSystem.create(protection=ProtectionMode.ENCRYPT, seed=13)
        module = system.session.module_by_name("libtest")
        loaded = system.session.handle.loaded[module.m_id]
        handle_entry = system.handle_proc.vmspace.vm_map.find_entry(
            loaded.text_entry_name)
        assert handle_entry is not None
        assert bytes(handle_entry.uobj.data[:32]) == handle_plaintext_view(module)[:32]

    def test_client_read_of_unmapped_text_faults(self):
        system = SecModuleSystem.create(protection=ProtectionMode.UNMAP, seed=14)
        module = system.session.module_by_name("libtest")
        with pytest.raises(ProtectionViolation):
            client_read_text(system.kernel, system.client_proc, module,
                             0x0000_3000, 16)

    def test_both_mode_unmaps_and_encrypts(self):
        system = SecModuleSystem.create(protection=ProtectionMode.BOTH, seed=15)
        names = [e.name for e in system.client_proc.vmspace.vm_map
                 if e.uobj is not None]
        assert "libtest.so:.text" not in names
        module = system.session.module_by_name("libtest")
        assert module.library_image.encrypted
        # dispatch still works
        assert system.call("test_incr", 1) == 2


class TestHandleTextMemo:
    """Each registration decrypts its text on the host once; every handle
    still pays the decryption into its own address space in virtual time."""

    def test_three_handles_one_decryption(self, decryptions, monkeypatch):
        charged = []
        real_load = Handle.load_module_text

        def metered_load(handle, module):
            meter = handle.kernel.machine.meter
            before = meter.count(costs.CIPHER_BLOCK)
            loaded = real_load(handle, module)
            charged.append(meter.count(costs.CIPHER_BLOCK) - before)
            return loaded

        monkeypatch.setattr(Handle, "load_module_text", metered_load)
        definition = build_test_module()
        plaintext = _text_bytes(definition)
        system = SecModuleSystem.create(
            protection=ProtectionMode.ENCRYPT, include_libc=False,
            include_test_module=False, extra_modules=[definition], seed=16)
        module = system.session.module_by_name("libtest")
        ciphertext = bytes(module.library_image.text_sections()[0].data)
        assert ciphertext != plaintext
        sessions = [system.session, system.open_extra_session(),
                    system.open_extra_session()]
        assert len({session.handle.proc.pid for session in sessions}) == 3

        assert decryptions == [module.encryption_record]
        for session in sessions:
            loaded = session.handle.loaded[module.m_id]
            entry = session.handle.proc.vmspace.vm_map.find_entry(
                loaded.text_entry_name)
            assert entry.uobj.data == plaintext
        assert charged == [max(1, len(plaintext) // 8)] * 3
        assert bytes(module.library_image.text_sections()[0].data) == \
            ciphertext
        assert _text_bytes(definition) == plaintext

    def test_one_definition_registers_alike_in_two_systems(self):
        """Registration encrypts its own copy of the image: a definition
        registered in a second kernel is still plaintext there, so that
        registration holds a key and its handle maps the plaintext."""
        definition = build_test_module()
        plaintext = _text_bytes(definition)
        for seed in (19, 20):
            system = SecModuleSystem.create(
                protection=ProtectionMode.ENCRYPT, include_libc=False,
                include_test_module=False, extra_modules=[definition],
                seed=seed)
            module = system.session.module_by_name("libtest")
            assert module.key is not None
            assert module.encryption_record is not None
            assert module.library_image.encrypted
            loaded = system.session.handle.loaded[module.m_id]
            entry = system.handle_proc.vmspace.vm_map.find_entry(
                loaded.text_entry_name)
            assert bytes(entry.uobj.data) == plaintext
            assert system.call("test_incr", 4) == 5
            assert not definition.ensure_library_image().encrypted
            assert _text_bytes(definition) == plaintext

    def test_every_registration_decrypts_its_own_text(self, decryptions):
        system = SecModuleSystem.create(
            protection=ProtectionMode.ENCRYPT, include_libc=False, seed=17)
        first = system.session.module_by_name("libtest")
        second = system.extension.registry.register(
            build_test_module(version=2), protection=ProtectionMode.ENCRYPT)
        assert second.key != first.key
        session = system.open_extra_session(["libtest"])
        assert session.module_by_name("libtest") is second
        assert decryptions == [first.encryption_record,
                               second.encryption_record]
        assert handle_plaintext_view(second) == handle_plaintext_view(first)
        SecModuleSystem.create(protection=ProtectionMode.ENCRYPT,
                               include_libc=False, seed=17)
        assert len(decryptions) == 3

    def test_unmapped_text_is_never_decrypted(self, decryptions):
        system = SecModuleSystem.create(
            protection=ProtectionMode.UNMAP, include_libc=False, seed=18)
        system.open_extra_session()
        module = system.session.module_by_name("libtest")
        assert module.handle_plaintext is None
        assert not decryptions
