"""Exception hierarchy shared by all polyseg modules.

The CLI maps these onto exit codes: usage problems exit 2 (argparse),
data/format problems exit 3, numeric failures exit 4.
"""


class PolysegError(Exception):
    """Base class for all polyseg errors."""


class AlignmentError(PolysegError):
    """Two line- or entry-aligned inputs disagree in length or content.

    ``index`` is the 0-based position of the first entry whose content
    differs, or None when the inputs differ in length."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class ParseError(PolysegError):
    """A file does not follow its declared format."""


class FormatError(PolysegError):
    """A marker or wire-format convention is violated."""


class DataError(PolysegError):
    """Input data violates an invariant (empty morph, stray marker, ...)."""


class ConfigError(PolysegError):
    """Impossible or inconsistent configuration values."""


class UnsupportedModeError(PolysegError):
    """Operation applied to a segmentation mode it does not support."""


class NumericError(PolysegError):
    """A numeric routine failed to produce a usable result."""
