"""Exception types shared across the package, and the cap policy.

Everything derives from ImprimlabError so callers (in particular the CLI)
can distinguish our failures from genuine bugs.  Cap overruns get their own
branch of the hierarchy because they map to a dedicated exit code.

Every exhaustive loop checks its count with check_cap and names its phase:
"group closure", "stabilizer chain", "subspace scan" or "block systems".  The element and subspace caps are set once for a run
by limits(), which every phase reads when it checks; the block-system
search counts its nodes against the constant DEFAULT_CAP_PARTITIONS.
"""

import contextlib
import contextvars
from typing import NamedTuple

DEFAULT_CAP_ELEMENTS = 2**20
DEFAULT_CAP_SUBSPACES = 10**6
DEFAULT_CAP_PARTITIONS = 10**6


class Limits(NamedTuple):
    elements: int  # elements a closure lists, orbit points of a stabilizer chain
    subspaces: int  # subspaces scanned per dimension


_LIMITS = contextvars.ContextVar(
    "limits", default=Limits(DEFAULT_CAP_ELEMENTS, DEFAULT_CAP_SUBSPACES))


def current_limits() -> Limits:
    """The caps of the innermost limits() block, or the defaults outside any."""
    return _LIMITS.get()


@contextlib.contextmanager
def limits(elements: int = DEFAULT_CAP_ELEMENTS, subspaces: int = DEFAULT_CAP_SUBSPACES):
    """Set the element and subspace caps for the code run inside the block."""
    token = _LIMITS.set(Limits(elements, subspaces))
    try:
        yield
    finally:
        _LIMITS.reset(token)


def check_cap(phase: str, count: int, items: str, cap: int) -> None:
    """Raise PhaseCapExceeded when an exhaustive loop's count passes its cap."""
    if count > cap:
        raise PhaseCapExceeded(phase, count, items, cap)


class ImprimlabError(Exception):
    pass


class ValidationError(ImprimlabError):
    """An input value violates a structural invariant."""


class ParseError(ImprimlabError):
    """A group-description document is malformed."""


class CapError(ImprimlabError):
    """A configured resource cap was exceeded; the instance is not desk-scale."""


class PhaseCapExceeded(CapError):
    """An exhaustive loop of the named phase would run past its cap."""

    def __init__(self, phase, count, items, cap):
        super().__init__(f"{phase}: {count} {items} exceed the cap of {cap}")
        self.phase = phase
        self.count = count
        self.cap = cap


class ZeroInverse(ValidationError):
    pass


class ShapeMismatch(ValidationError):
    pass


class ModulusMismatch(ValidationError):
    pass


class Singular(ValidationError):
    pass


class AmbientMismatch(ValidationError):
    pass


class ZeroVector(ValidationError):
    pass


class OddDegree(ValidationError):
    pass


class LengthMismatch(ValidationError):
    pass


class InconsistentCharacter(ValidationError):
    pass


class NotASubgroup(ValidationError):
    pass


class NotStabilized(ValidationError):
    pass


class NotTransitiveOnParts(ValidationError):
    pass


class HypothesisViolation(ValidationError):
    def __init__(self, name):
        super().__init__(f"hypothesis violated: {name}")
        self.hypothesis = name


class NotExceptional(ValidationError):
    pass


class ExceptionalInstance(ValidationError):
    pass


class BadModulus(ValidationError):
    pass
