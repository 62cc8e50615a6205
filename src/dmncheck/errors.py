"""Exception types shared across the package, and the one rule for
repeating a value in an error message."""

# Characters of a value that an error message repeats.
ECHO_LIMIT = 60


def echo(value) -> str:
    """A value quoted for an error message, cut after ``ECHO_LIMIT``
    characters so hostile values give short errors.  A string is cut
    before it is quoted; any other value is shown by its ``repr``."""
    text = value if isinstance(value, str) else repr(value)
    shown = text[:ECHO_LIMIT]
    if isinstance(value, str):
        shown = repr(shown)
    return shown + "..." if len(text) > ECHO_LIMIT else shown


class DecisionTableError(Exception):
    """Base class for every error raised by this package."""


class SFeelSyntaxError(DecisionTableError):
    """Condition text does not conform to the condition grammar."""


class SFeelTypeError(DecisionTableError):
    """Condition, literal, or value is ill-typed for its column kind."""


class EvalError(DecisionTableError):
    """Term folding failed, e.g. division by zero."""


class SchemaError(DecisionTableError):
    """Interchange document violates the decision-table schema."""


class CodecError(DecisionTableError):
    """Categorical literal is unknown to the column codec."""


class CapacityError(DecisionTableError):
    """Brute-force grid would exceed the configured cell cap."""


class SpecError(DecisionTableError):
    """Invalid synthetic-generation or noise parameters."""
