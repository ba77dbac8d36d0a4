"""Exception types shared across the package."""


class TraceStabError(Exception):
    """Base class for all package errors."""


class NonCartan(TraceStabError):
    """Simple root/coroot pairing is not a valid finite Cartan matrix."""


class InfiniteType(TraceStabError):
    """A root system that is not of finite type.

    Kept for callers that catch it; nothing raises it since the Cartan check
    (``NonCartan``) proves finite type before the reflection closure runs.
    """


class NotCentral(TraceStabError):
    """A claimed central element pairs non-integrally with some root."""


class NotAutomorphism(TraceStabError):
    """A twist matrix does not permute the coroot system."""


class InfiniteOrder(TraceStabError):
    """No power of the twist matrix up to the bound is the identity."""


class WeylGroupTooLarge(TraceStabError):
    """The Weyl group is above the size that is built element by element."""


class TwistedUnsupported(TraceStabError):
    """Twisted enumeration requested for an unsupported twist shape."""


class InconsistentFlats(TraceStabError):
    """Molien's series minus the flats of a Coxeter arrangement leaves a pole."""


class InvalidDimension(TraceStabError):
    """A 2-group dimension is not a non-negative integer."""


class MismatchedModel(TraceStabError):
    """A character triple or component label does not belong to the model."""


class MissingDualGroup(TraceStabError):
    """The operation needs a dual-group attachment and none is present."""


class DuplicateModelId(TraceStabError):
    """Two models of one set share an id."""


class InconsistentDescriptor(TraceStabError):
    """An endoscopic descriptor fails the coefficient bookkeeping."""


class MalformedInput(TraceStabError):
    """An input file violates the documented schema."""
