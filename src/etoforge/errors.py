"""Exception hierarchy shared by all etoforge modules."""


class EtoforgeError(Exception):
    """Base class for every error raised by this package."""


# --- data ingestion ---------------------------------------------------------

class MissingColumn(EtoforgeError):
    """A schema-mapped column header is absent from the CSV file."""


class DuplicateColumn(EtoforgeError):
    """A schema-mapped column header appears more than once in the CSV file."""


class UnitError(EtoforgeError):
    """A column has no declared unit, or the declared unit is unknown."""


class RowError(EtoforgeError):
    """An error that can name the offending row; `detail` is the message without it."""

    def __init__(self, message, row=None):
        self.detail = message
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class RangeError(RowError):
    """A value violates a domain-type invariant.

    Carries the offending row number when raised during file parsing.
    """


class DuplicateDate(EtoforgeError):
    """Two rows or records claim the same calendar date."""


class MissingField(EtoforgeError):
    """A required field is absent from a record."""

    def __init__(self, field):
        super().__init__(f"missing field: {field}")
        self.field = field


# --- forecast providers -----------------------------------------------------

class AuthError(EtoforgeError):
    """The provider rejected the API credentials."""


class RateLimited(EtoforgeError):
    """The provider throttled the request; retry_after is in seconds."""

    def __init__(self, message, retry_after=None):
        super().__init__(message)
        self.retry_after = retry_after


class ProviderSchemaError(EtoforgeError):
    """A provider payload entry is missing a required field."""


class Unreachable(EtoforgeError):
    """A provider request failed on the network (no connection, a timeout)."""


class CacheMiss(EtoforgeError):
    """Offline mode requested a payload that is not in the cache."""


# --- numerics ---------------------------------------------------------------

class DomainError(RowError):
    """An input lies outside the mathematical domain of a formula."""


class ShapeMismatch(EtoforgeError):
    """Array dimensions do not chain or do not match the model."""


class NonFinite(EtoforgeError):
    """A NaN or infinity appeared where finite values are required."""


class ConstantFeature(EtoforgeError):
    """A feature column has zero variance and cannot be standardized."""


# --- model persistence ------------------------------------------------------

class VersionMismatch(EtoforgeError):
    """The model document carries an unsupported format version."""


class CorruptModel(EtoforgeError):
    """The model document is internally inconsistent."""


class FeatureMismatch(EtoforgeError):
    """Feature names/order or target of a model do not match the input."""


# --- evaluation -------------------------------------------------------------

class LengthMismatch(EtoforgeError):
    """Actual and predicted series differ in length."""


class DegenerateActuals(EtoforgeError):
    """The actual series has zero variance; R^2 is undefined."""


class MissingCells(EtoforgeError):
    """A sweep lacks the contiguous horizon cells an operation needs."""


class NoModels(EtoforgeError):
    """No trained model was supplied for the requested estimators."""


class EmptyInput(EtoforgeError):
    """An input file or a requested report has no rows."""
