"""Error taxonomy shared across the package.

Plain ``ValueError`` is used for local precondition violations on
operation arguments. The classes below mark conditions that callers
(most importantly the CLI) need to tell apart.
"""


class PlumeCpdError(Exception):
    """Base class for package-specific failures."""


class ConfigError(PlumeCpdError):
    """A configuration value or file is malformed or out of range."""


class InputDataError(PlumeCpdError):
    """An input file or record does not match the expected schema."""


class InsufficientDataError(InputDataError):
    """Too few records to perform the requested computation."""


class DetectionError(PlumeCpdError):
    """Failure inside the detector loop, annotated with the pass index.

    ``instance`` is the row of the failing stream when the detector ran a
    block of streams, and None otherwise.
    """

    def __init__(self, message: str, instance: int | None = None) -> None:
        super().__init__(message)
        self.instance = instance
