"""Exact dense linear algebra over prime fields and the rationals.

Scalars are plain ``int`` values reduced into ``[0, p)`` over F_p and
``fractions.Fraction`` values (automatically in lowest terms) over Q.
Matrices are immutable tuples-of-tuples; every operation returns a fresh
matrix.  Pivoting is deterministic -- the pivot of a column is the first
nonzero entry in row order -- so reduced forms are canonical and safe to
freeze into test fixtures.

The raw-row helpers (``rref_rows``, ``kernel_rows`` ...) operate on
mutable lists of lists and exist for the hot loops of the algebra and
homology engines; ``coords_against`` takes its basis as sparse rows
(``sparse_row``), and ``SpanBuilder.residue`` reduces a vector against a
span.  The ``Matrix`` class is the stable public surface.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple


class DimensionMismatch(ValueError):
    """Operand shapes do not line up."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field F_p (``kind="prime"``) or the rationals (``kind="rational"``)."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind == "prime":
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"modulus is not prime: {self.p!r}")
        elif self.kind == "rational":
            if self.p is not None:
                raise ValueError("the rational field takes no modulus")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec("prime", p)

    @staticmethod
    def rational() -> "FieldSpec":
        return FieldSpec("rational")

    def zero(self):
        return 0 if self.kind == "prime" else Fraction(0)

    def one(self):
        return 1 if self.kind == "prime" else Fraction(1)

    def of_int(self, n: int):
        return n % self.p if self.kind == "prime" else Fraction(n)

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "prime" else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "prime" else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "prime" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "prime" else -a

    def inv(self, a):
        if self.kind == "prime":
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, -1, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def parse(self, text: str):
        """Parse a scalar string: an integer, or "a/b" over the rationals.
        ValueError for anything else, a zero denominator included."""
        if not isinstance(text, str):
            raise ValueError(f"scalar {text!r} is not a string")
        text = text.strip()
        if self.kind == "prime":
            return int(text) % self.p
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"scalar {text!r} has a zero denominator") from None

    def fmt(self, a) -> str:
        return str(a)

    def describe(self) -> str:
        return f"F_{self.p}" if self.kind == "prime" else "Q"

    def to_json(self):
        if self.kind == "prime":
            return {"kind": "prime", "p": self.p}
        return {"kind": "rational"}

    @staticmethod
    def from_json(obj) -> "FieldSpec":
        if obj["kind"] == "prime":
            return FieldSpec.prime(int(obj["p"]))
        if obj["kind"] == "rational":
            return FieldSpec.rational()
        raise ValueError(f"unknown field kind {obj!r}")


QQ = FieldSpec.rational()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)


# ---------------------------------------------------------------------------
# raw row helpers (mutating, list-of-lists)
# ---------------------------------------------------------------------------

def rref_rows(field: FieldSpec, rows: list[list]) -> tuple[int, list[int]]:
    """Bring ``rows`` into reduced row-echelon form in place.

    Returns (rank, pivot column list).  Zero rows sink to the bottom.
    F_2 rows are bit-packed into integers during elimination, which is the
    difference between seconds and minutes on the bimodule searches.
    """
    if field.kind == "prime":
        if field.p == 2 and rows and len(rows) * len(rows[0]) > 512:
            return _rref_f2(rows)
        return _rref_mod(rows, field.p)
    return _rref_frac(rows)


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
# byte b -> the ASCII digit of its parity, "0" or "1"
_PARITY = bytes(48 + (b & 1) for b in range(256))


def _pack_f2(row: list[int]) -> int:
    """The row as an int whose bit j is the parity of entry j."""
    try:
        # one C-level pass: entries as bytes, last entry first, each to its parity digit
        return int(bytes(row[::-1]).translate(_PARITY), 2)
    except ValueError:  # an entry outside 0..255, or an empty row
        return sum(1 << j for j, x in enumerate(row) if x & 1)


def _rref_f2(rows: list[list[int]]) -> tuple[int, list[int]]:
    nrows = len(rows)
    ncols = len(rows[0])
    packed = [_pack_f2(row) for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        bit = 1 << c
        pr = -1
        for i in range(r, nrows):
            if packed[i] & bit:
                pr = i
                break
        if pr < 0:
            continue
        packed[r], packed[pr] = packed[pr], packed[r]
        prow = packed[r]
        for i in range(nrows):
            if i != r and packed[i] & bit:
                packed[i] ^= prow
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    width = f"0{ncols}b"
    for row, v in zip(rows, packed):
        # bit j of v is column j: reverse the binary string, map "0"/"1" to 0/1
        row[:] = format(v, width)[::-1].encode().translate(_BIT_BYTES)
    return r, pivots


def _rref_mod(rows: list[list[int]], p: int) -> tuple[int, list[int]]:
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if rows[i][c] % p:
                pr = i
                break
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        row = rows[r]
        inv = pow(row[c], -1, p)
        if inv != 1:
            for j in range(c, ncols):
                row[j] = row[j] * inv % p
        for i in range(nrows):
            if i != r and rows[i][c] % p:
                f = rows[i][c] % p
                ri = rows[i]
                for j in range(c, ncols):
                    ri[j] = (ri[j] - f * row[j]) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots


def _rref_frac(rows: list[list[Fraction]]) -> tuple[int, list[int]]:
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        row = rows[r]
        inv = 1 / row[c]
        if inv != 1:
            for j in range(c, ncols):
                row[j] = row[j] * inv
        support = [j for j in range(c, ncols) if row[j]]  # no Fraction arithmetic on zeros
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                ri = rows[i]
                for j in support:
                    ri[j] = ri[j] - f * row[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots


def sparse_row(row) -> tuple:
    """The (column, entry) pairs of the nonzero entries of a dense row."""
    return tuple((j, x) for j, x in enumerate(row) if x)


def coords_against(field: FieldSpec, rref: list, pivots: list[int], vec: list) -> list | None:
    """Coordinates of ``vec`` (entries in canonical form) in the span of
    an RREF basis, or None if outside.  Each basis row is given by its
    nonzero entries (``sparse_row``), and only those are visited."""
    v = list(vec)
    coords = [field.zero()] * len(rref)
    if field.kind == "prime":
        p = field.p
        for k, (row, c) in enumerate(zip(rref, pivots)):
            f = v[c] % p
            if f:
                coords[k] = f
                for j, x in row:
                    v[j] = (v[j] - f * x) % p
    else:
        for k, (row, c) in enumerate(zip(rref, pivots)):
            f = v[c]
            if f:
                coords[k] = f
                for j, x in row:
                    v[j] = v[j] - f * x
    if any(v):
        return None
    return coords


class SpanBuilder:
    """Incrementally maintained row space in echelon form.

    Rows are inserted one at a time and reduced against the pivots seen so
    far (forward reduction only; call ``finish`` for full RREF output).
    """

    def __init__(self, field: FieldSpec, ncols: int):
        self.field = field
        self.ncols = ncols
        self.rows: list[list] = []
        self.pivots: list[int] = []
        self._hits: list[tuple[int, int]] = []  # (pivot column, row index), sorted

    @property
    def rank(self) -> int:
        return len(self.rows)

    def residue(self, vec) -> list:
        """The remainder of ``vec`` modulo the span, zero at every pivot
        column.  Only one vector of vec + span is zero there, so this is
        also its reduction against the RREF basis of ``finish``."""
        # pivot columns in increasing order: reducing by a row only changes
        # entries at or right of its pivot, so later pivots are read afresh
        field = self.field
        v = list(vec)
        if field.kind == "prime":
            p = field.p
            for c, k in self._hits:
                if v[c]:
                    row = self.rows[k]
                    f = v[c] % p
                    for j in range(c, self.ncols):
                        v[j] = (v[j] - f * row[j]) % p
        else:
            for c, k in self._hits:
                if v[c]:
                    row = self.rows[k]
                    f = v[c]
                    for j in range(c, self.ncols):
                        if row[j]:
                            v[j] = v[j] - f * row[j]
        return v

    def contains(self, vec) -> bool:
        return not any(self.residue(vec))

    def add(self, vec) -> bool:
        """Insert ``vec``; returns True when it enlarged the span."""
        field = self.field
        v = self.residue(vec)
        lead = -1
        for j in range(self.ncols):
            if v[j]:
                lead = j
                break
        if lead < 0:
            return False
        inv = field.inv(v[lead])
        if inv != field.one():
            if field.kind == "prime":
                p = field.p
                v = [x * inv % p for x in v]
            else:
                v = [x * inv for x in v]
        insort(self._hits, (lead, len(self.rows)))
        self.rows.append(v)
        self.pivots.append(lead)
        return True

    def finish(self) -> tuple[list[list], list[int]]:
        """Return a fully reduced (RREF) basis with sorted pivot columns."""
        rows = [list(r) for r in self.rows]
        rref_rows(self.field, rows)
        rank = len(self.rows)
        pivots = sorted(self.pivots)
        return rows[:rank], pivots


def kernel_rows(field: FieldSpec, rows: list[list], ncols: int) -> list[list]:
    """Basis (as rows of length ``ncols``) of {x : rows_matrix . x = 0}.

    ``rows`` is read as a matrix acting on column vectors of length ncols.
    """
    work = [list(r) for r in rows]
    _, pivots = rref_rows(field, work)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    one = field.one()
    basis = []
    for f in free:
        v = [field.zero()] * ncols
        v[f] = one
        for row, c in zip(work, pivots):
            if row[f]:
                v[c] = field.neg(row[f])
        basis.append(v)
    return basis


def left_kernel_rows(field: FieldSpec, rows: list[list]) -> list[list]:
    """Basis of {x : x . rows_matrix = 0} (rows of length len(rows))."""
    nrows = len(rows)
    if nrows == 0:
        return []
    ncols = len(rows[0])
    transposed = [[rows[i][j] for i in range(nrows)] for j in range(ncols)]
    return kernel_rows(field, transposed, nrows)


def matmul_rows(field: FieldSpec, a: list[list], b: list[list]) -> list[list]:
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatch(f"{len(a[0])} inner vs {len(b)}")
    inner = len(b)
    ncols = len(b[0]) if b else 0
    zero = field.zero()
    out = []
    if field.kind == "prime":
        p = field.p
        for row in a:
            acc = [0] * ncols
            for k in range(inner):
                f = row[k]
                if f:
                    bk = b[k]
                    for j in range(ncols):
                        acc[j] += f * bk[j]
            out.append([x % p for x in acc])
    else:
        # no Fraction arithmetic on the zeros of b
        support = [[(j, x) for j, x in enumerate(bk) if x] for bk in b]
        for row in a:
            acc = [zero] * ncols
            for k in range(inner):
                f = row[k]
                if f:
                    for j, x in support[k]:
                        acc[j] = acc[j] + f * x
            out.append(acc)
    return out


def rank_rows(field: FieldSpec, rows: list[list]) -> int:
    work = [list(r) for r in rows]
    rank, _ = rref_rows(field, work)
    return rank


# ---------------------------------------------------------------------------
# the public Matrix type
# ---------------------------------------------------------------------------

class RrefResult(NamedTuple):
    matrix: "Matrix"
    rank: int
    pivots: tuple[int, ...]


class Matrix:
    """Immutable dense matrix over a :class:`FieldSpec`."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: FieldSpec, data):
        rows = tuple(tuple(r) for r in data)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]) if rows else 0)
        for r in rows:
            if len(r) != self.cols:
                raise DimensionMismatch("ragged rows")
        object.__setattr__(self, "data", rows)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def from_rows(field: FieldSpec, rows) -> "Matrix":
        conv = (lambda x: x % field.p) if field.kind == "prime" else Fraction
        return Matrix(field, [[conv(x) for x in r] for r in rows])

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return Matrix(field, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return Matrix(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    # -- basics ----------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.data))

    def __repr__(self):
        return f"Matrix({self.field.describe()}, {self.rows}x{self.cols})"

    def entry(self, i: int, j: int):
        return self.data[i][j]

    def row_lists(self) -> list[list]:
        return [list(r) for r in self.data]

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return Matrix(self.field, matmul_rows(self.field, self.row_lists(), other.row_lists()))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        f = self.field
        return Matrix(f, [[f.add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in subtraction")
        f = self.field
        return Matrix(f, [[f.sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)])

    def scale(self, c) -> "Matrix":
        f = self.field
        return Matrix(f, [[f.mul(c, x) for x in r] for r in self.data])

    def is_zero(self) -> bool:
        return all(not x for r in self.data for x in r)

    # -- elimination -----------------------------------------------------
    def rref(self) -> RrefResult:
        work = self.row_lists()
        rank, pivots = rref_rows(self.field, work)
        return RrefResult(Matrix(self.field, work), rank, tuple(pivots))

    def rank(self) -> int:
        return rank_rows(self.field, self.row_lists())

    def kernel_basis(self) -> "Matrix":
        """Matrix whose columns span {x : self . x = 0}."""
        basis = kernel_rows(self.field, self.row_lists(), self.cols)
        if not basis:
            return Matrix.zeros(self.field, self.cols, 0)
        return Matrix(self.field, [[basis[k][i] for k in range(len(basis))] for i in range(self.cols)])

    def solve(self, b: "Matrix") -> "Matrix | None":
        """Some x with self @ x = b, or None when the system is inconsistent."""
        if b.rows != self.rows:
            raise DimensionMismatch(f"rhs has {b.rows} rows, expected {self.rows}")
        field = self.field
        aug = [list(ra) + list(rb) for ra, rb in zip(self.data, b.data)]
        _, pivots = rref_rows(field, aug)
        n = self.cols
        for row, c in zip(aug, pivots):
            if c >= n:
                return None
        zero = field.zero()
        sol = [[zero] * b.cols for _ in range(n)]
        for row, c in zip(aug, pivots):
            for j in range(b.cols):
                sol[c][j] = row[n + j]
        return Matrix(field, sol)
