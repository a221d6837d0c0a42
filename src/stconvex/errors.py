"""Exception hierarchy shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all stconvex errors."""


class ParseError(ToolkitError):
    """Expression or config text failed to parse.

    Carries the 1-based line/column of the offending token and, when known,
    the set of token kinds that would have been accepted there.
    """

    def __init__(self, message, line=1, column=1, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        detail = f"{message} at line {line} column {column}"
        if self.expected:
            detail += " (expected " + ", ".join(self.expected) + ")"
        super().__init__(detail)


class UnknownSymbol(ParseError):
    """An identifier does not resolve to a declared coordinate or parameter."""

    def __init__(self, name, line=1, column=1):
        self.name = name
        super().__init__(f"unknown symbol '{name}'", line, column)


class DomainError(ToolkitError):
    """An expression was evaluated outside an elementary function's domain."""


class SingularMetric(ToolkitError):
    """Metric degenerate, ill-conditioned, or point on a declared singular
    locus; `locus` is that locus's source text, or empty."""

    def __init__(self, message, locus=""):
        self.locus = locus
        super().__init__(message)


class WrongSignature(ToolkitError):
    """Metric eigenvalue signature is not Lorentzian (one negative, rest positive)."""


class NullGradient(ToolkitError):
    """The field gradient is null at this point; the level set is degenerate there."""


class NonLorentzianMetric(ToolkitError):
    """A matrix passed as the ambient metric does not have Lorentzian signature."""


class OutOfDomain(ToolkitError):
    """Argument outside the closed form's validity range."""


class NotBlockForm(ToolkitError):
    """Model lacks the declared 2+2 warped-product split required here."""


class NonSpacelikeSlice(ToolkitError):
    """The induced metric on the requested coordinate slice is not positive definite."""


class StepSizeInvalid(ToolkitError):
    """Integrator step or parameter span is not usable."""


class NotClosed(ToolkitError):
    """The supplied curve is not a closed loop with distinct samples."""


class ConfigError(ToolkitError):
    """A run-configuration file is malformed or incomplete."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)
