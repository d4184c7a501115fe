"""Shared error types for the registry-backed public API.

Every lookup path that used to raise a bare ``KeyError`` (configuration
names, workload names, mechanism names) now raises a
:class:`RegistryLookupError` subclass instead: the message lists what *is*
registered and, when the unknown name looks like a typo, the closest match.
The classes still subclass :class:`KeyError`, so existing ``except KeyError``
call sites (and tests) keep working unchanged.
"""

from __future__ import annotations

import difflib
from typing import Iterable, Optional

__all__ = [
    "RegistryLookupError",
    "UnknownConfigurationError",
    "UnknownWorkloadError",
    "UnknownMechanismError",
    "UnknownFigureError",
    "UnknownEngineError",
    "UnknownOverrideError",
    "UnknownAttackConfigurationError",
    "AmbiguousConfigurationError",
]


class AmbiguousConfigurationError(ValueError):
    """Two different configuration specs claim the same name.

    Raised where names key result tables (the run matrix, baseline
    normalization): a name collision between distinct specs would make the
    output silently wrong, and user-controlled ``derive(name=...)`` makes
    collisions possible.  A dedicated type lets the CLI report it as a
    one-line user-input error without swallowing unrelated ``ValueError``
    bugs.
    """


class RegistryLookupError(KeyError):
    """An unknown name was looked up in one of the public registries."""

    #: Human-readable noun for the registry ("configuration", "workload", ...).
    kind = "entry"

    def __init__(self, name: str, available: Iterable[str]) -> None:
        self.name = name
        self.available = list(available)
        self.suggestion: Optional[str] = next(
            iter(difflib.get_close_matches(name, self.available, n=1)), None
        )
        message = "unknown %s %r" % (self.kind, name)
        if self.suggestion is not None:
            message += " (closest match: %r)" % self.suggestion
        if self.available:
            message += "; available: %s" % ", ".join(self.available)
        else:
            message += "; the registry is empty"
        self.message = message
        super().__init__(message)

    def __str__(self) -> str:
        # KeyError.__str__ repr()s its argument; show the plain message.
        return self.message

    def __reduce__(self):
        # Exceptions unpickle via cls(*args); args defaults to the message
        # only, which does not match this two-argument __init__.  Without
        # this, an instance raised inside a multiprocessing worker kills the
        # pool's result-handler thread during unpickling and the parent
        # blocks forever instead of seeing the error.
        return (self.__class__, (self.name, self.available))


class UnknownConfigurationError(RegistryLookupError):
    """No secure-memory configuration is registered under this name."""

    kind = "configuration"


class UnknownWorkloadError(RegistryLookupError):
    """No workload is registered under this name."""

    kind = "workload"


class UnknownMechanismError(RegistryLookupError):
    """A configuration references a mechanism with no registered factory."""

    kind = "mechanism"


class UnknownFigureError(RegistryLookupError):
    """No paper figure/table spec is registered under this key."""

    kind = "figure"


class UnknownEngineError(RegistryLookupError):
    """No simulation engine is registered under this name."""

    kind = "engine"


class UnknownOverrideError(RegistryLookupError):
    """A ``--set`` override names a field no config dataclass has."""

    kind = "override field"


class UnknownAttackConfigurationError(RegistryLookupError):
    """A name is neither a functional attack profile nor a registered configuration.

    The attack campaign and the fuzz engine accept both vocabularies (the
    functional ``secddr``/``baseline_no_rap``-style profiles and the
    performance-registry names), so the available list -- and therefore the
    closest-match suggestion -- spans both.
    """

    kind = "attack configuration"
