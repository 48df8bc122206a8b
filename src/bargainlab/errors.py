"""Exception types shared across the simulation engine."""


class BargainError(Exception):
    """Base class for all engine errors.

    ``field`` names the offending field of the object that raised the
    error, when there is one, and ``rule`` is the message without it, so a
    caller that knows where the object came from can report a full path.
    """

    def __init__(self, rule: str, field: str | None = None):
        super().__init__(f"{field}: {rule}" if field else rule)
        self.rule = rule
        self.field = field


class InvalidInput(BargainError):
    """A scalar input is non-finite or outside its documented domain."""


class DegenerateRatio(BargainError):
    """A ratio formula received a divisor at or below the epsilon floor."""


class InvalidConfig(BargainError):
    """A configuration object violates one of its invariants."""


class NoChain(BargainError):
    """No qualifying power chain connects the requester to a helper."""


class EmptyInput(BargainError):
    """An aggregate operation received no data."""


class AllZero(BargainError):
    """A statistic is undefined because every value is zero."""


class ConfigMismatch(BargainError):
    """Two configs that must differ only in one field differ elsewhere."""


class ScenarioError(BargainError):
    """Base class for scenario-file errors (parse, schema, invariant).

    ``path`` locates the offending field in the document, "" when the
    error concerns the document as a whole.
    """

    def __init__(self, path: str, rule: str):
        super().__init__(rule, field=path or None)
        self.path = path


class ParseError(ScenarioError):
    """Scenario text is not valid JSON; the path is always ""."""


class SchemaError(ScenarioError):
    """Scenario document has a missing, unknown, or mistyped field."""


class InvariantError(ScenarioError):
    """Scenario field has the right type but violates a value invariant."""
