"""Exception hierarchy shared by the library and the CLI exit-code map."""

from __future__ import annotations

from typing import Optional


class CoaugError(Exception):
    """Base class for all data/validation errors (CLI exit code 2)."""


class MissingFile(CoaugError):
    def __init__(self, path: str):
        super().__init__(f"file not found: {path}")
        self.path = path


class MalformedRecord(CoaugError):
    """A bad line of an input file; the message names the file when known."""

    def __init__(self, line: int, reason: str, path: Optional[str] = None):
        where = f"line {line}" if path is None else f"{path}: line {line}"
        super().__init__(f"{where}: {reason}")
        self.line = line
        self.reason = reason


class SchemaMismatch(CoaugError):
    pass


class UnknownDisease(CoaugError):
    def __init__(self, name: str):
        super().__init__(f"unknown disease: {name!r}")
        self.name = name


class DuplicateRule(CoaugError):
    pass


class MissingLabels(CoaugError):
    pass


class UndefinedConditional(CoaugError):
    pass


class EmptyTable(CoaugError):
    pass


class InsufficientStrata(CoaugError):
    pass


class UndefinedLift(CoaugError):
    pass


class NoCooccurrence(CoaugError):
    pass


class MissingFeatures(CoaugError):
    pass


class MissingTemplate(CoaugError):
    pass


class ConfigInvalid(CoaugError):
    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.field_path = path
        self.reason = reason


class LengthMismatch(CoaugError):
    pass


class UsageError(Exception):
    """Bad command line (CLI exit code 1)."""
