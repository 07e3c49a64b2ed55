"""Shared exception types."""


class GgError(Exception):
    """Base class for all library errors."""


class TraceError(GgError, ValueError):
    """Malformed alphabet or word."""


class UnknownLetterError(TraceError):
    """A word used a letter that is not in the alphabet."""

    def __init__(self, letter, position):
        super().__init__(f"unknown letter {letter!r} at position {position}")
        self.letter = letter
        self.position = position


class AlphabetMismatchError(GgError, ValueError):
    """Two values over different alphabets were combined."""


class ResourceExceeded(GgError):
    """An operation would materialize more than the configured cap allows.

    ``required`` is the exact size that would have been needed.
    """

    def __init__(self, required, cap=None):
        msg = f"required size {required}"
        if cap is not None:
            msg += f" exceeds cap {cap}"
        super().__init__(msg)
        self.required = required
        self.cap = cap


class LimitsExceeded(GgError):
    """A deterministic enumeration went past its configured budget."""


class CertificateError(GgError, ValueError):
    """An automaton certificate (I-diamond, memorizing, knapsack shape) failed validation."""


class StructureError(GgError, ValueError):
    """Structurally invalid input (cyclic SLP, inconsistent table, ...)."""


class InternalError(GgError):
    """An internal consistency check failed: the program, not the input, is at fault."""


class FormatError(GgError, ValueError):
    """Instance file could not be parsed.  Carries line information."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
