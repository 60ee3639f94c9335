"""Errno values and the syscall result convention.

The simulated kernel follows the BSD convention: a syscall either returns a
non-negative value or fails with a positive errno.  :class:`SyscallResult`
carries both so user-level wrappers can mimic the C ``ret == -1 && errno``
idiom without Python exceptions on the (hot) success path.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Any, NamedTuple, Optional


class Errno(enum.IntEnum):
    """The subset of OpenBSD errno values the simulation needs."""

    EPERM = 1          # operation not permitted
    ENOENT = 2         # no such file, module, or registered SecModule
    ESRCH = 3          # no such process
    EINTR = 4
    EIO = 5
    ENOMEM = 12        # cannot allocate memory
    EACCES = 13        # permission denied (credential/policy rejection)
    EFAULT = 14        # bad address
    EBUSY = 16
    EEXIST = 17        # already registered
    EINVAL = 22        # invalid argument
    ENOSYS = 78        # function not implemented
    EAGAIN = 35
    ENOMSG = 90        # no message of desired type
    EIDRM = 82         # identifier removed


class SyscallResult(NamedTuple):
    """Outcome of one simulated system call.

    Immutable and equal by value.  The syscall paths build it with
    :data:`syscall_result`, which runs no Python frame.
    """

    value: Any = 0
    errno: Optional[Errno] = None

    @property
    def ok(self) -> bool:
        return self.errno is None

    @property
    def failed(self) -> bool:
        return self.errno is not None

    def unwrap(self) -> Any:
        """Return the value, raising if the call actually failed.

        Only test code and examples use this; the simulated userland checks
        ``ok`` explicitly like C code checks ``-1``.
        """
        if self.failed:
            raise OSError(int(self.errno), f"simulated syscall failed: {self.errno.name}")
        return self.value


#: SyscallResult from a ``(value, errno)`` pair, without NamedTuple's
#: Python frame
syscall_result = partial(tuple.__new__, SyscallResult)


def ok(value: Any = 0) -> SyscallResult:
    """Successful syscall result."""
    return syscall_result((value, None))


def fail(errno: Errno) -> SyscallResult:
    """Failed syscall result carrying ``errno``."""
    return syscall_result((-1, errno))
