"""Dense linear algebra over an abstract field.

The field object supplies zero/one/is_zero/inv; elements carry +, -, * as
operators.  QQ, GF(p), and residue towers all fit this protocol, so the same
elimination serves classical Jacobian ranks and ranks over a residue field.
GF(p) elements are plain ints whose operators do not reduce; the field's
is_zero and inv reduce what they read, so elimination is exact there, but
entries are left unreduced.

Pivot inverses are computed lazily: ``rank`` inverts a pivot only when a
nonzero entry below it actually has to be cleared.  Over a residue tower the
inversion itself is the maximality check, so rank computations surface
IdealNotMaximal exactly when the elimination genuinely depends on the ideal
being maximal, and not before.
"""

from __future__ import annotations

from .errors import InternalConsistencyError


class FieldMatrix:
    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows):
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            for r in rows:
                if len(r) != width:
                    raise ValueError("ragged matrix rows")
        else:
            width = 0
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = width

    def __eq__(self, other):
        if other.__class__ is not FieldMatrix:
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    __hash__ = None  # the rows are mutable lists

    def rank(self) -> int:
        field = self.field
        rows = [list(r) for r in self.rows]
        m = self.nrows
        r = 0
        for col in range(self.ncols):
            piv = None
            for i in range(r, m):
                if not field.is_zero(rows[i][col]):
                    piv = i
                    break
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            below = [i for i in range(r + 1, m) if not field.is_zero(rows[i][col])]
            if below:
                # only here does the pivot have to be a unit
                pinv = field.inv(rows[r][col])
                for i in below:
                    factor = rows[i][col] * pinv
                    rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
            r += 1
        return r

    def solve(self, rhs) -> list | None:
        """One solution of self * x = rhs, or None if the system is
        inconsistent.  Free coordinates are set to zero."""
        field = self.field
        rhs = list(rhs)
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side length mismatch")
        aug = [list(row) + [b] for row, b in zip(self.rows, rhs)]
        m = self.nrows
        pivots = []
        r = 0
        for col in range(self.ncols):
            piv = None
            for i in range(r, m):
                if not field.is_zero(aug[i][col]):
                    piv = i
                    break
            if piv is None:
                continue
            aug[r], aug[piv] = aug[piv], aug[r]
            pinv = field.inv(aug[r][col])
            aug[r] = [a * pinv for a in aug[r]]
            for i in range(m):
                if i != r and not field.is_zero(aug[i][col]):
                    factor = aug[i][col]
                    aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
            pivots.append(col)
            r += 1
        for i in range(r, m):
            if not field.is_zero(aug[i][-1]):
                return None
        x = [field.zero()] * self.ncols
        for k, col in enumerate(pivots):
            x[col] = aug[k][-1]
        for row, b in zip(self.rows, rhs):
            acc = field.zero()
            for a, v in zip(row, x):
                acc = acc + a * v
            if not field.is_zero(acc - b):
                raise InternalConsistencyError(
                    "solution candidate fails re-verification against the system"
                )
        return x

    def __repr__(self):
        return "FieldMatrix(%d x %d over %s)" % (
            self.nrows,
            self.ncols,
            getattr(self.field, "name", self.field),
        )
