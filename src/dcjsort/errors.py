"""Exception types shared across the package."""


class DcjsortError(ValueError):
    """Base class for every domain error raised by this package."""


class GenomeParseError(DcjsortError):
    """Malformed genome text; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TextFormatError(DcjsortError):
    """Unreadable input, or malformed scenario, parking-function, or tree text."""


class BlockMismatchError(DcjsortError):
    """Two genomes do not share the same block-name set."""


class NotCoTailedError(DcjsortError):
    """Two genomes do not share the same telomere set."""


class InvalidDcjError(DcjsortError):
    """A DCJ operation does not apply to the genome it was given."""


class InvalidFissionError(DcjsortError):
    """A fission does not apply to the current cycle partition."""


class InvalidScenarioError(DcjsortError):
    """A fission scenario is structurally broken or fails mid-run."""


class InvalidParkingFunctionError(DcjsortError):
    """An integer sequence is not a parking function."""


class InvalidTreeError(DcjsortError):
    """An edge set is not a tree on labels 0..n-1."""


class GuardExceededError(DcjsortError):
    """An exhaustive enumeration was refused because the instance is too big."""
