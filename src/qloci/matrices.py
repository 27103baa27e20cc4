"""Exact dense matrices over Q or a prime field.

Supports products, inverses and ranks.  Every rank comes
from one pivot profile (`_pivot_profile`): the rows are inserted in order
into an echelon basis, one inserter per field representation.  The profile
gives the rank of the matrix and of each of its northwest-justified
submatrices.  Matrices with zero rows or zero columns are first-class
citizens and have rank 0, so zero-dimensional vertex spaces need no special
handling elsewhere.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm

from .errors import FieldMismatchError, InputError, ShapeError, SingularMatrixError
from .fields import Field, PrimeField, field_from_tag, int_from_json


class ExactMatrix:
    """Immutable-by-convention dense matrix with exact entries."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: int, cols: int, data):
        # data: list of row lists of raw field values; trusted by internal callers
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, field: Field, entries) -> "ExactMatrix":
        """Build a matrix from nested sequences, normalizing every entry."""
        data = [[field.normalize(v) for v in row] for row in entries]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        for row in data:
            if len(row) != cols:
                raise ShapeError("ragged rows in matrix literal")
        return cls(field, rows, cols, data)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "ExactMatrix":
        z = field.zero()
        return cls(field, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field: Field, size: int) -> "ExactMatrix":
        z, o = field.zero(), field.one()
        data = [[o if i == j else z for j in range(size)] for i in range(size)]
        return cls(field, size, size, data)

    def copy_data(self):
        return [list(r) for r in self.data]

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, tuple(map(tuple, self.data))))

    def __repr__(self):
        return f"ExactMatrix({self.field}, {self.rows}x{self.cols}, {self.data})"

    def key(self):
        """Hashable entry tuple, row-major; used for deterministic orderings."""
        return tuple(v for row in self.data for v in row)

    # -- arithmetic ---------------------------------------------------------

    def multiply(self, other: "ExactMatrix") -> "ExactMatrix":
        """Exact matrix product; empty contractions yield zero matrices."""
        if self.field != other.field:
            raise FieldMismatchError(f"product over {self.field} and {other.field}")
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        f = self.field
        z = f.zero()
        bt = other.data
        out = []
        for arow in self.data:
            orow = []
            for j in range(other.cols):
                acc = z
                for k in range(self.cols):
                    acc += arow[k] * bt[k][j]
                orow.append(f.normalize(acc))
            out.append(orow)
        return ExactMatrix(f, self.rows, other.cols, out)

    def inverse(self) -> "ExactMatrix":
        """Exact inverse via Gauss-Jordan; raises on non-square or singular input."""
        if self.rows != self.cols:
            raise ShapeError(f"inverse of non-square {self.rows}x{self.cols} matrix")
        f = self.field
        n = self.rows
        work = self.copy_data()
        aug = ExactMatrix.identity(f, n).data
        z = f.zero()
        for col in range(n):
            piv = None
            for r in range(col, n):
                if work[r][col] != z:
                    piv = r
                    break
            if piv is None:
                raise SingularMatrixError("matrix is singular")
            work[col], work[piv] = work[piv], work[col]
            aug[col], aug[piv] = aug[piv], aug[col]
            pinv = f.inv(work[col][col])
            work[col] = [f.normalize(pinv * v) for v in work[col]]
            aug[col] = [f.normalize(pinv * v) for v in aug[col]]
            for r in range(n):
                if r != col and work[r][col] != z:
                    c = work[r][col]
                    work[r] = [f.normalize(a - c * b) for a, b in zip(work[r], work[col])]
                    aug[r] = [f.normalize(a - c * b) for a, b in zip(aug[r], aug[col])]
        return ExactMatrix(f, n, n, aug)

    # -- rank ---------------------------------------------------------------

    def rank(self) -> int:
        """Row rank: the number of pairs in the pivot profile."""
        return len(_pivot_profile(self))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        f = self.field
        return {
            "rows": self.rows,
            "cols": self.cols,
            "field": f.tag,
            "entries": [[f.scalar_to_json(v) for v in row] for row in self.data],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExactMatrix":
        try:
            field = field_from_tag(obj["field"])
            rows = int_from_json(obj["rows"], "matrix 'rows'")
            cols = int_from_json(obj["cols"], "matrix 'cols'")
            entries = obj["entries"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad matrix object: {exc}") from exc
        if rows < 0 or cols < 0 or not isinstance(entries, list) or len(entries) != rows:
            raise InputError("matrix entry grid does not match declared shape")
        data = []
        for row in entries:
            if not isinstance(row, list) or len(row) != cols:
                raise InputError("matrix entry grid does not match declared shape")
            data.append([field.scalar_from_json(v) for v in row])
        return cls(field, rows, cols, data)


def prefix_block_ranks(m: ExactMatrix, row_cuts, col_cuts):
    """Ranks of all northwest-justified submatrices at the given cut lines.

    Returns a grid ``g`` with ``g[a][b] = rank of m[:row_cuts[a], :col_cuts[b]]``,
    read from one pivot profile of ``m``: that rank is the number of profile
    pairs with row < row_cuts[a] and column < col_cuts[b].
    """
    profile = _pivot_profile(m)
    out = []
    for rc in row_cuts:
        lead_cols = sorted(c for i, c in profile if i < rc)
        out.append(tuple(bisect_left(lead_cols, cc) for cc in col_cuts))
    return tuple(out)


def _pivot_profile(m: ExactMatrix):
    """One ``(row, column)`` pair per row of ``m`` outside the span of the rows above it.

    The rows are inserted in order into an echelon basis, and the column is
    the leading column of the row once reduced against that basis.  The basis
    rows have distinct leading columns, so ``rank(m[:r, :c])`` is the number
    of pairs with row < r and column < c.  Insertion stops once the basis
    holds a row for every column, since every later row is in its span.
    """
    cols = m.cols
    profile = []
    if m.rows == 0 or cols == 0:
        return profile
    f = m.field
    if isinstance(f, PrimeField) and f.p == 2:
        # rows as ints, column c at bit cols-1-c, so the leading bit is the
        # leftmost column; basis keyed by the bit length of its leading bit
        basis = {}
        for i, row in enumerate(m.data):
            v = 0
            for x in row:
                v = (v << 1) | (x & 1)
            while v:
                b = v.bit_length()
                w = basis.get(b)
                if w is None:
                    basis[b] = v
                    profile.append((i, cols - b))
                    break
                v ^= w
            if len(profile) == cols:
                break
    elif isinstance(f, PrimeField):
        # residues; basis keyed by leading column, each row scaled to a leading 1
        p = f.p
        basis = {}
        for i, row in enumerate(m.data):
            v = list(row)
            for c in range(cols):
                a = v[c] % p
                if a:
                    w = basis.get(c)
                    if w is None:
                        inv = pow(a, p - 2, p)
                        basis[c] = [x * inv % p for x in v]
                        profile.append((i, c))
                        break
                    for k in range(c + 1, cols):
                        v[k] = (v[k] - a * w[k]) % p
            if len(profile) == cols:
                break
    else:
        # Bareiss on the denominator-cleared rows, stages in insertion order:
        # stage k divides exactly by the pivot of stage k-1, and after it a
        # row's entries are (k+1)-minors (Sylvester's identity), so they grow
        # no faster than determinants.  A stage whose pivot column holds a
        # zero only rescales the row by pivot / previous pivot; it is skipped
        # and the rescaling folded into the next division or the final one.
        basis = []  # (leading column, row after the stages before it, pivot)
        last = 1  # pivot of the last stage
        for i, v in enumerate(_cleared_int_rows(m.data)):
            prev = 1  # pivot of the last stage applied to v
            for c, w, piv in basis:
                a = v[c]
                if a:
                    v = [(piv * x - a * y) // prev for x, y in zip(v, w)]
                    prev = piv
            for c, x in enumerate(v):
                if x:
                    if prev != last:
                        v = [y * last // prev for y in v]
                    last = v[c]
                    basis.append((c, v, last))
                    profile.append((i, c))
                    break
            if len(profile) == cols:
                break
    return profile


def _cleared_int_rows(data):
    # scale each row to integers; row scaling does not change the span
    out = []
    for row in data:
        mult = lcm(*(v.denominator for v in row)) if row else 1
        out.append([int(v * mult) if isinstance(v, Fraction) else int(v) * mult for v in row])
    return out
