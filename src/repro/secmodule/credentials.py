"""SecModule credentials.

The paper's access question is: *may an entity ``p`` (which may be
malicious) execute some function ``f_i`` held secure in library module
``m``?*  The entity proves its right with a **credential** presented at
session-establishment time; the kernel checks it against the module's
policy (``repro.secmodule.policy``) once, and the resulting session handle
is then valid "only for a specific process" — the binding that question 2
of the paper's introduction asks for.

A credential here is a signed-ish token: the module owner issues it for a
named principal, optionally restricted to a uid, a maximum number of calls
or an expiry time (in virtual microseconds).  The "signature" is a keyed
digest computed with the issuer's secret — the reproduction does not need
cryptographic strength, only the ability to detect tampering and to reject
credentials issued by someone who never knew the module secret.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

#: The client principal, and its uid, that the single-client system, the
#: traffic engine and the service plane's clients present.
DEFAULT_PRINCIPAL = "alice"
DEFAULT_UID = 1000


def _digest(secret: bytes, *parts: object) -> str:
    hasher = hashlib.sha256()
    hasher.update(secret)
    for part in parts:
        hasher.update(str(part).encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


@dataclass(frozen=True)
class Credential:
    """A capability to request sessions against one SecModule."""

    principal: str                 # human-readable holder name
    module_name: str               # which module this credential is for
    issued_to_uid: Optional[int] = None   # None = any uid may present it
    max_calls: Optional[int] = None       # None = unlimited calls per session
    expires_at_us: Optional[float] = None # None = never expires
    #: keyed digest binding all the fields above to the issuer's secret
    token: str = ""

    def fields_digest(self, secret: bytes) -> str:
        return _digest(secret, self.principal, self.module_name,
                       self.issued_to_uid, self.max_calls, self.expires_at_us)

    def is_expired(self, now_us: float) -> bool:
        return self.expires_at_us is not None and now_us > self.expires_at_us

    def encode(self) -> bytes:
        """Serialize for embedding in the client's descriptor object."""
        text = "|".join(str(x) for x in (
            self.principal, self.module_name, self.issued_to_uid,
            self.max_calls, self.expires_at_us, self.token))
        return text.encode("utf-8")

    @classmethod
    def decode(cls, raw: bytes) -> "Credential":
        parts = raw.decode("utf-8").split("|")
        if len(parts) != 6:
            raise ValueError("malformed credential blob")
        principal, module_name, uid, max_calls, expires, token = parts

        def opt_int(text: str) -> Optional[int]:
            return None if text == "None" else int(text)

        def opt_float(text: str) -> Optional[float]:
            return None if text == "None" else float(text)

        return cls(principal=principal, module_name=module_name,
                   issued_to_uid=opt_int(uid), max_calls=opt_int(max_calls),
                   expires_at_us=opt_float(expires), token=token)


@dataclass
class CredentialIssuer:
    """The module owner's credential mint.

    Holds the per-module issuing secret.  In the paper's multiuser scenario
    the hosting system ``s`` is a trusted third party; the issuer object is
    that trust anchor in the reproduction.
    """

    module_name: str
    secret: bytes

    def issue(self, principal: str, *, uid: Optional[int] = None,
              max_calls: Optional[int] = None,
              expires_at_us: Optional[float] = None) -> Credential:
        token = _digest(self.secret, principal, self.module_name, uid,
                        max_calls, expires_at_us)
        return Credential(principal=principal, module_name=self.module_name,
                          issued_to_uid=uid, max_calls=max_calls,
                          expires_at_us=expires_at_us, token=token)

    def verify(self, credential: Credential) -> bool:
        """Check issuer, integrity and module binding (not expiry/uid)."""
        if credential.module_name != self.module_name:
            return False
        if not credential.token:
            return False
        return credential.token == credential.fields_digest(self.secret)


@dataclass
class CredentialCheckOutcome:
    """The result of a full credential validation (integrity + constraints)."""

    valid: bool
    reason: str = ""


def validate_credential(issuer: CredentialIssuer, credential: Credential, *,
                        uid: int, now_us: float,
                        calls_made: int = 0) -> CredentialCheckOutcome:
    """Validate a presented credential against its constraints."""
    if not issuer.verify(credential):
        return CredentialCheckOutcome(False, "bad signature or wrong module")
    if credential.issued_to_uid is not None and credential.issued_to_uid != uid:
        return CredentialCheckOutcome(
            False, f"credential bound to uid {credential.issued_to_uid}, "
                   f"presented by uid {uid}")
    if credential.is_expired(now_us):
        return CredentialCheckOutcome(False, "credential expired")
    if credential.max_calls is not None and calls_made >= credential.max_calls:
        return CredentialCheckOutcome(False, "per-session call quota exhausted")
    return CredentialCheckOutcome(True, "ok")
