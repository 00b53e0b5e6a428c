"""Exception types shared across the package.

Everything derives from ImprimlabError so callers (in particular the CLI)
can distinguish our failures from genuine bugs.  Cap overruns get their own
branch of the hierarchy because they map to a dedicated exit code.
"""


class ImprimlabError(Exception):
    pass


class ValidationError(ImprimlabError):
    """An input value violates a structural invariant."""


class ParseError(ImprimlabError):
    """A group-description document is malformed."""


class CapError(ImprimlabError):
    """A configured resource cap was exceeded; the instance is not desk-scale."""


class CapExceeded(CapError):
    def __init__(self, cap):
        super().__init__(f"group enumeration exceeded cap of {cap} elements")
        self.cap = cap


class EnumerationCapExceeded(CapError):
    def __init__(self, dim, count, limit="the subspace cap"):
        super().__init__(f"{count} subspaces of dimension {dim} exceed {limit}")
        self.dim = dim
        self.count = count


class PhaseCapExceeded(CapError):
    """An exhaustive loop of the named phase would run past its cap."""

    def __init__(self, phase, count, items, cap):
        super().__init__(f"{phase}: {count} {items} exceed the cap of {cap}")
        self.phase = phase
        self.count = count


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
