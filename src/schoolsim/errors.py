"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SchoolSimError(Exception):
    """Base class for all package-specific errors."""


# Text errors


class EmptyTextError(SchoolSimError):
    """Raised when an operation requires non-empty text."""


# Memory store errors


class MemoryDisabledError(SchoolSimError):
    """Raised when a store configured without a memory base is used."""


class RecordValueError(ValueError):
    """A memory record row holds a value of the wrong type; ``index`` is
    the row's place among the rows loaded."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class KindDisabledError(SchoolSimError):
    """Raised on direct insert of a memory kind disabled by the run config."""


# Provider errors


class ProviderError(SchoolSimError):
    """Base class for chat-completion provider failures."""


class ProviderTimeout(ProviderError):
    """Remote provider did not answer within the configured timeout."""


class ProviderHTTPError(ProviderError):
    """Remote provider returned a terminal HTTP error."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class ScriptMissError(ProviderError):
    """Scripted provider has no entry for the derived key and no fallback."""


# Role / prompt errors


class RoleParseError(SchoolSimError):
    """A generated or loaded role profile is missing required fields."""

    def __init__(self, message: str, missing: list[str] | None = None):
        super().__init__(message)
        self.missing = missing or []


# Memory-update parsing errors


class MemoryUpdateError(SchoolSimError):
    """Base class for malformed memory-update payloads."""


class NoJsonFoundError(MemoryUpdateError):
    """No JSON object could be extracted from the provider response."""


class MissingFieldError(MemoryUpdateError):
    """A required memory-update field is absent."""

    def __init__(self, field: str):
        super().__init__(f"missing required field: {field}")
        self.field = field


class WrongTypeError(MemoryUpdateError):
    """A memory-update field is not a list of strings."""

    def __init__(self, field: str):
        super().__init__(f"field is not a list of strings: {field}")
        self.field = field


# Environment errors


class UnknownAreaError(SchoolSimError):
    """Target area is not part of the school map."""


class UnknownActionError(SchoolSimError):
    """Action label is not part of the catalog."""


class RoleMismatchError(SchoolSimError):
    """Action label exists but belongs to the other role."""


# Dataset errors


class DatasetError(SchoolSimError):
    """Base class for dataset loading/validation failures."""


class SchemaError(DatasetError):
    """A transcript file violates the message schema."""

    def __init__(self, file: str, position: int, reason: str):
        super().__init__(f"{file}[{position}]: {reason}")
        self.file = file
        self.position = position
        self.reason = reason


class AlternationError(SchemaError):
    """Messages do not strictly alternate user/assistant."""


class MissingSystemError(SchemaError):
    """Transcript does not start with a system message."""


class LengthMismatchError(SchoolSimError):
    """Log and dataset disagree on the number of steps."""
