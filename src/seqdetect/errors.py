"""Exception types shared across the package."""


class SeqDetectError(Exception):
    """Base class for all errors raised by seqdetect."""


class DomainError(SeqDetectError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(SeqDetectError, ValueError):
    """An object or configuration file is internally inconsistent.

    A check on one setting names it as ``field`` and states ``problem`` as a
    predicate on it ("trials", "must be positive"), so that a caller that
    knows where the setting came from, such as a config key or a flag, can
    restate the error under that name.
    """

    def __init__(self, problem: str, field: str | None = None):
        super().__init__(f"{field} {problem}" if field else problem)
        self.problem = problem
        self.field = field


class CapacityError(SeqDetectError, ValueError):
    """A request exceeds an implementation limit (subset enumeration cap)."""
