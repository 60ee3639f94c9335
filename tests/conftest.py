"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.hw.machine import make_paper_machine
from repro.kernel.cred import unprivileged
from repro.kernel.kernel import Kernel
from repro.secmodule.api import SecModuleSystem
from repro.secmodule.smod_syscalls import install_secmodule


@pytest.fixture
def machine():
    """A fresh paper-spec machine (Pentium III, 599 MHz)."""
    return make_paper_machine(seed=1234)


@pytest.fixture
def kernel(machine):
    """A booted kernel without the SecModule extension."""
    return Kernel(machine=machine).boot()

@pytest.fixture
def smod_kernel(machine):
    """A booted kernel with the SecModule extension installed."""
    k = Kernel(machine=machine).boot()
    ext = install_secmodule(k)
    return k, ext


@pytest.fixture
def user_proc(kernel):
    """An ordinary unprivileged process on the plain kernel."""
    return kernel.create_process("user", cred=unprivileged(1000))


@pytest.fixture(scope="module")
def shared_system():
    """A module-scoped SecModule system for read-mostly tests.

    Tests that mutate global state (teardown, fork, exec) must build their
    own system instead of using this fixture.
    """
    return SecModuleSystem.create(seed=777)


@pytest.fixture
def system():
    """A function-scoped, fully isolated SecModule system."""
    return SecModuleSystem.create(seed=4242)
