"""Error types shared by the library and the CLI.

Every error carries a stable machine-readable ``kind`` that appears in report
documents, plus the process exit code the CLI maps it to: 1 for input that
could not be read, 2 for mathematically rejected input and for a failed
internal cross-check, 3 for resource exhaustion (oracle bounds,
derived-number digits).
"""


class RegulusError(Exception):
    kind = "error"
    exit_code = 2

    def __init__(self, message):
        super().__init__(message)
        self.message = message

    def as_document(self):
        return {"kind": self.kind, "message": self.message}


class JobFileError(RegulusError):
    """Malformed or semantically invalid job file."""

    kind = "job-file"
    exit_code = 1


class PolySyntaxError(RegulusError):
    """Polynomial expression rejected by the parser; carries the offset."""

    kind = "poly-syntax"
    exit_code = 1

    def __init__(self, message, position):
        super().__init__("%s (at offset %d)" % (message, position))
        self.position = position


class InvalidPoint(RegulusError):
    """Point description violates the triangular-shape contract."""

    kind = "invalid-point"


class PointNotOnVariety(RegulusError):
    kind = "point-not-on-variety"


class IdealNotMaximal(RegulusError):
    """The point's ideal is not maximal; ``witness`` is a proper factor
    of one level polynomial, discovered by an extended-gcd inversion."""

    kind = "ideal-not-maximal"

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness

    def as_document(self):
        doc = super().as_document()
        doc["witness"] = self.witness
        return doc


class GeneratorsNotIndependent(RegulusError):
    kind = "generators-not-independent"


class DimensionMismatch(RegulusError):
    kind = "dimension-mismatch"


class PointNotRegular(RegulusError):
    """A verdict that requires regularity upstairs was asked at a point
    that is not regular."""

    kind = "point-not-regular"


class EmptyVariety(RegulusError):
    kind = "empty-variety"


class OracleResourceError(RegulusError):
    """Resource guard tripped.  README's exit-code table names every guard
    in its row for code 3."""

    kind = "oracle-resource"
    exit_code = 3


class InternalConsistencyError(RegulusError):
    """A cross-check that must hold mathematically failed.  Signals a bug
    or an undetected non-maximal ideal."""

    kind = "internal-consistency"
