"""Exception types shared across the package."""


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
