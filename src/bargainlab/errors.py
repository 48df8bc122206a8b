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


class InvalidConfig(BargainError):
    """A value breaks one of the engine's rules: it is non-finite, outside
    its domain, below the epsilon floor as a divisor, an empty or all-zero
    sample, or a config that differs from its partner where it must not."""


class NoChain(BargainError):
    """No qualifying power chain connects the requester to a helper."""


class ScenarioError(BargainError):
    """A scenario document is rejected: its text is not valid JSON, a field
    is missing, unknown or mistyped, or a value breaks an invariant.

    ``field`` is the path of the offending field in the document, empty
    when the error concerns the document as a whole.
    """
