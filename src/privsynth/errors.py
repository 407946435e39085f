"""Exception types raised by the library.

Contract violations detected while validating inputs (bad schemas, bad
configuration, malformed files) derive from ``ValidationError``; failures
inside a running pipeline stage are wrapped in ``StageError`` so callers can
tell the two apart (the CLI maps them to exit codes 1 and 2).
"""


class PrivsynthError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(PrivsynthError):
    """An input, schema, or configuration violates a documented contract."""


# data ingestion / dataset contracts

class MissingColumn(ValidationError):
    def __init__(self, column, detail=""):
        self.column = column
        super().__init__(f"missing or mismatched column {column!r}" + (f": {detail}" if detail else ""))


class NonNumericCell(ValidationError):
    def __init__(self, row, column, detail=""):
        self.row = row
        self.column = column
        super().__init__(f"bad cell at row {row}, column {column!r}" + (f": {detail}" if detail else ""))


class EmptyFile(ValidationError):
    pass


class MalformedCsv(ValidationError):
    """The file is not UTF-8, or ``csv.reader`` rejects a record; ``row`` is
    the record's file row, None where it is not known."""

    def __init__(self, row, detail):
        self.row = row
        where = f" at row {row}" if row is not None else ""
        super().__init__(f"malformed CSV{where}: {detail}")


class ClassTooSmall(ValidationError):
    """A class has too few records: fewer than 2 for a split or naive Bayes."""

    def __init__(self, label, count):
        self.label = label
        super().__init__(f"class {label!r} is too small ({count} record(s))")


class CountExceedsClass(ValidationError):
    pass


# oversampling

class DimensionMismatch(ValidationError):
    pass


class NotEnoughRecords(ValidationError):
    pass


class ConfigInvalid(ValidationError):
    pass


# gaussian noise

class TooFewRecords(ValidationError):
    pass


# anonymity audit

class UnknownColumn(ValidationError):
    def __init__(self, column):
        self.column = column
        super().__init__(f"unknown column {column!r}")


class ZeroBins(ValidationError):
    pass


# classifier evaluation

class EmptyTrainSet(ValidationError):
    pass


class SchemaMismatch(ValidationError):
    pass


# pipeline

class StageError(PrivsynthError):
    """A pipeline stage failed; ``stage`` names the failing step."""

    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")


class IoFailure(PrivsynthError):
    pass
