"""Tests for SecModule definitions and the kernel registry."""

import pytest

from repro.errors import ConfigurationError
from repro.kernel.kernel import make_booted_kernel
from repro.secmodule.module import SecModuleDefinition, simple_module
from repro.secmodule.protection import ProtectionMode
from repro.secmodule.registry import ModuleRegistry
from repro.sim import costs


@pytest.fixture
def kernel():
    return make_booted_kernel()


@pytest.fixture
def registry(kernel):
    return ModuleRegistry(kernel)


class TestSecModuleDefinition:
    def test_add_and_lookup_functions(self):
        module = simple_module()
        assert "test_incr" in module
        assert len(module) == 2
        function = module.function("test_incr")
        assert module.functions_by_id.get(function.func_id) is function
        assert module.functions_by_id.get(999) is None

    def test_duplicate_function_rejected(self):
        module = SecModuleDefinition("m", 1)
        module.add_function("f", lambda env: 0)
        with pytest.raises(ConfigurationError):
            module.add_function("f", lambda env: 1)

    def test_missing_function_lookup_raises(self):
        with pytest.raises(ConfigurationError):
            simple_module().function("nope")

    def test_invalid_name_or_version_rejected(self):
        with pytest.raises(ConfigurationError):
            SecModuleDefinition("", 1)
        with pytest.raises(ConfigurationError):
            SecModuleDefinition("m", -1)

    def test_ensure_library_image_fabricates_backing(self):
        module = SecModuleDefinition("m", 1)
        module.add_function("f", lambda env: 0)
        module.add_function("g", lambda env: 0)
        image = module.ensure_library_image()
        assert image.kind == "shared"
        assert image.find_symbol("f") and image.find_symbol("g")
        assert module.ensure_library_image() is image    # cached
        assert image.relocations                         # call sites planted

    def test_ensure_library_image_needs_functions(self):
        with pytest.raises(ConfigurationError):
            SecModuleDefinition("m", 1).ensure_library_image()

    def test_describe(self):
        assert "libdemo" in simple_module().describe()


class TestModuleRegistry:
    def test_register_assigns_id_and_encrypts(self, registry):
        module = simple_module()
        registered = registry.register(module, uid=0)
        assert registered.m_id == 1
        assert registered.key is not None
        assert registered.library_image.encrypted
        assert not module.ensure_library_image().encrypted
        assert registry.get(1) is registered
        assert len(registry) == 1 and 1 in registry

    def test_register_requires_root(self, registry):
        with pytest.raises(PermissionError):
            registry.register(simple_module(), uid=1000)

    def test_register_charges_setup_cost(self, registry, kernel):
        before = kernel.machine.meter.count(costs.SMOD_REGISTER_BASE)
        registry.register(simple_module(), uid=0)
        assert kernel.machine.meter.count(costs.SMOD_REGISTER_BASE) == before + 1
        assert kernel.machine.meter.count(costs.KEY_SCHEDULE) >= 1

    def test_duplicate_registration_rejected(self, registry):
        registry.register(simple_module(), uid=0)
        with pytest.raises(ConfigurationError):
            registry.register(simple_module(), uid=0)

    def test_empty_module_rejected(self, registry):
        with pytest.raises(ConfigurationError):
            registry.register(SecModuleDefinition("empty", 1), uid=0)

    def test_unmap_mode_skips_encryption(self, registry):
        registered = registry.register(simple_module(), uid=0,
                                       protection=ProtectionMode.UNMAP)
        assert registered.key is None
        assert not registered.library_image.encrypted

    def test_find_by_name_and_version(self, registry):
        registry.register(simple_module(), uid=0)
        assert registry.find("libdemo", 1) is not None
        assert registry.find("libdemo", 2) is None
        assert registry.find("other", 1) is None

    def test_multiple_versions_coexist(self, registry):
        registry.register(simple_module(version=1), uid=0)
        registry.register(simple_module(version=2), uid=0)
        versions = registry.find_any_version("libdemo")
        assert [m.version for m in versions] == [1, 2]

    def test_remove_requires_valid_credential(self, registry):
        registered = registry.register(simple_module(), uid=0)
        good = registered.definition.issuer.issue("owner", uid=1000)
        bad_issuer = type(registered.definition.issuer)(
            module_name="libdemo", secret=b"wrong")
        bad = bad_issuer.issue("mallory", uid=1000)
        with pytest.raises(PermissionError):
            registry.remove(registered.m_id, bad, uid=1000)
        assert registry.remove(registered.m_id, good, uid=1000)
        assert registry.get(registered.m_id) is None
        assert registry.find("libdemo", 1) is None

    def test_remove_missing_module_returns_false(self, registry):
        module = simple_module()
        credential = module.issuer.issue("owner")
        assert not registry.remove(99, credential, uid=0)

    def test_root_can_remove_without_credential_check(self, registry):
        registered = registry.register(simple_module(), uid=0)
        other = simple_module(version=9)
        unrelated_credential = other.issuer.issue("anyone")
        assert registry.remove(registered.m_id, unrelated_credential, uid=0)

    def test_all_modules_sorted(self, registry):
        registry.register(simple_module(version=1), uid=0)
        registry.register(simple_module(version=2), uid=0)
        assert [m.m_id for m in registry.all_modules()] == [1, 2]
