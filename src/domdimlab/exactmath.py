"""Exact linear algebra over prime fields and the rationals.

Scalars are plain ``int`` values reduced into ``[0, p)`` over F_p.  Over
Q a scalar is an ``int`` when it is integral and a ``fractions.Fraction``
(in lowest terms) only when its denominator is greater than 1, so each
value has one form; every operation here returns that form.
Pivoting is deterministic -- the pivot of a column is the first nonzero
entry in row order -- so reduced forms are canonical and safe to freeze
into test fixtures.

The dense row helpers (``rref_rows``, ``kernel_rows``, ``rank_rows``,
``matmul_rows``) take lists of lists of canonical scalars, with one body
for every field.  They serve ``Matrix``, and the tests compare the sparse
helpers and the pair-row maps of ``homology`` and ``quivalg`` against
them; no engine path calls them.
Sparse rows are tuples of (k, c) pairs, k ascending and every c nonzero
(``sparse_row`` converts a dense row once):
``coords_against`` takes its basis and vector in that form and returns
the coordinates so, a ``SpanBuilder`` holds its rows and reduces
vectors in it, and ``combine_pairs`` sums multiples of them.
``row_format(field)`` is the one place that chooses how a resolution
holds its rows: packed ints over F_2 (bit k for column k) and pairs
over F_p (p odd) and Q, with the same operations on both.
``left_kernel_rows`` takes rows of either format over F_2 and returns
their rank and left kernel, the kernel in the format of the rows, from
one elimination of [C | I].  ``Matrix`` stays public API.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import compress, count, repeat
from operator import lshift
from typing import NamedTuple


class DimensionMismatch(ValueError):
    """Operand shapes do not line up."""


def _q(x):
    """The canonical Q scalar of ``x``, an int or a Fraction: its numerator
    when it is integral, else ``x``."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


_SCALAR = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


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
        return 0

    def one(self):
        return 1

    def of_int(self, n: int):
        return n % self.p if self.kind == "prime" else n

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "prime" else _q(a + b)

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "prime" else _q(a - b)

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "prime" else _q(a * b)

    def neg(self, a):
        return (-a) % self.p if self.kind == "prime" else -a

    def inv(self, a):
        if self.kind == "prime":
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, -1, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return a if type(a) is int and a * a == 1 else _q(1 / Fraction(a))

    def parse(self, text: str):
        """Parse a scalar string: an optional sign and ASCII digits, over the
        rationals optionally followed by "/" and digits.  ValueError for
        anything else (whitespace, a decimal point, an exponent or an
        underscore included) and for a zero denominator."""
        m = _SCALAR.fullmatch(text) if isinstance(text, str) else None
        if m is None or (m.group(1) and self.kind == "prime"):
            raise ValueError(f"scalar {text!r} is not an integer string"
                             + ("" if self.kind == "prime" else " or a/b"))
        if self.kind == "prime":
            return int(text) % self.p
        try:
            return _q(Fraction(text))
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
    The entries must be canonical scalars of ``field``, as ``Matrix``
    holds them, and stay so.  A pivot row clears the others only on its
    own nonzero columns.
    """
    p = field.p
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
        if row[c] != 1:
            inv = field.inv(row[c])
            row[c:] = [x * inv % p for x in row[c:]] if p else [_q(x * inv) for x in row[c:]]
        support = None  # the pivot row's nonzero columns, once a row needs them
        for ri in rows:
            f = ri[c]
            if f and ri is not row:
                if support is None:
                    support = [j for j in range(c, ncols) if row[j]]
                if p:
                    for j in support:
                        ri[j] = (ri[j] - f * row[j]) % p
                else:
                    for j in support:
                        ri[j] = _q(ri[j] - f * row[j])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots


def sparse_row(row) -> tuple:
    """The (column, entry) pairs of the nonzero entries of a dense row."""
    return tuple((j, x) for j, x in enumerate(row) if x)


def _canonical(field: FieldSpec, acc: dict) -> tuple:
    """The nonzero entries of ``acc`` ({k: unreduced c}) as (k, c) pairs,
    k ascending and every c reduced."""
    p = field.p
    if p is None:
        out = [(k, _q(a)) for k, a in acc.items() if a]
    else:
        out = [(k, a % p) for k, a in acc.items() if a % p]
    out.sort()
    return tuple(out)


def coords_against(field: FieldSpec, basis: list, pivots: list[int], vec) -> tuple | None:
    """Coordinates of ``vec`` in the span of ``basis``, as (k, c) pairs
    over the basis rows, or None if outside.  Vectors and basis rows are
    (k, c) pairs.  Row k is 1 at column pivots[k] and every other row is 0
    there, as in an RREF basis or a kernel basis of ``left_kernel_rows``;
    so the coordinates are the entries of ``vec`` at the pivots, and only
    the rows they name are visited."""
    at = dict(vec)
    coords = tuple((k, at[c]) for k, c in enumerate(pivots) if c in at)
    for k, f in coords:
        for j, x in basis[k]:
            at[j] = at.get(j, 0) - f * x
    p = field.p
    if any(x % p for x in at.values()) if p else any(at.values()):
        return None
    return coords


class SpanBuilder:
    """A row space in echelon form.  Each row is (k, c) pairs, k ascending,
    with entry 1 at its pivot, its first column.  A vector, given by the
    (k, c) pairs of its nonzero entries in canonical form, is reduced by
    the rows in the order of their pivots, and only nonzero entries are
    visited.  ``finish`` gives the RREF basis."""

    def __init__(self, field: FieldSpec):
        self.field = field
        self.rows: list[tuple] = []  # in insertion order
        self.pivots: list[int] = []  # the pivot of each row
        self._at: dict[int, tuple] = {}  # pivot -> row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def residue(self, vec) -> dict:
        """``vec`` modulo the span as {column: nonzero entry}, with no pivot
        column.  Only one vector of vec + span is zero at every pivot, so
        this is also its reduction against the RREF basis of ``finish``."""
        at = self._at
        v = dict(vec)
        todo = [k for k in v if k in at]
        if not todo:
            return v
        p = self.field.p
        heapify(todo)
        while todo:  # a row only reaches columns right of its pivot
            c = heappop(todo)
            f = v.pop(c)
            if not f:
                continue
            for j, x in at[c][1:]:
                old = v.get(j)
                if old is None:
                    old = 0
                    if j in at:
                        heappush(todo, j)
                new = old - f * x
                v[j] = _q(new) if p is None else new % p
        return {k: x for k, x in v.items() if x}

    def contains(self, vec) -> bool:
        return not self.residue(vec)

    def add(self, vec) -> bool:
        """Insert ``vec``; returns True when it enlarged the span."""
        r = self.residue(vec)
        if not r:
            return False
        lead = min(r)
        inv = self.field.inv(r[lead])
        if inv != 1:
            r = {k: self.field.mul(x, inv) for k, x in r.items()}
        row = tuple(sorted(r.items()))
        self.rows.append(row)
        self.pivots.append(lead)
        self._at[lead] = row
        return True

    def finish(self) -> tuple[list[tuple], list[int]]:
        """The RREF basis as (k, c) rows in ascending pivot order, and
        those pivots: each row cleared, from the last pivot back, of the
        pivot columns to its right."""
        done = SpanBuilder(self.field)
        for c in sorted(self._at, reverse=True):
            row = self._at[c]
            done._at[c] = row[:1] + tuple(sorted(done.residue(row[1:]).items()))
        pivots = sorted(done._at)
        return [done._at[c] for c in pivots], pivots


def kernel_rows(field: FieldSpec, rows: list[list], ncols: int) -> list[list]:
    """Basis (as rows of length ``ncols``) of {x : rows_matrix . x = 0}.

    ``rows`` is read as a matrix acting on column vectors of length ncols;
    its entries are canonical scalars, as for ``rref_rows``.
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


class _PackedSpan(dict):
    """Packed F_2 rows in echelon form: the lowest bit of each row -> the row."""

    rank = property(len)

    def add(self, v: int) -> bool:
        """Insert ``v``; returns True when it enlarged the span."""
        while v:
            low = v & -v
            if low not in self:
                self[low] = v
                return True
            v ^= self[low]
        return False


def combine_pairs(field: FieldSpec, terms) -> tuple:
    """The sum of f * row over the (f, pair row) terms, as (k, c) pairs
    with k ascending and c nonzero, reduced once."""
    acc = {}
    for f, row in terms:
        for j, c in row:
            acc[j] = acc.get(j, 0) + f * c
    return _canonical(field, acc)


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class _PackedRows:
    """The row format of F_2: packed ints, bit k for column k."""

    field = F2
    zero = 0
    span = _PackedSpan
    shift = staticmethod(lshift)

    @staticmethod
    def pack(row: tuple) -> int:
        """A pair row (every c is 1) as an int."""
        v = 0
        for k, _ in row:
            v |= 1 << k
        return v

    @staticmethod
    def unpack(v: int) -> tuple:
        """The int ``v`` as (k, 1) pairs, k ascending."""
        return tuple(zip(compress(count(), bin(v)[:1:-1].encode().translate(_BIT_BYTES)), repeat(1)))

    @staticmethod
    def times(v: int, rows: list[int]) -> int:
        """The XOR of rows[i] over the set bits i of v."""
        acc = 0
        while v:
            low = v & -v
            acc ^= rows[low.bit_length() - 1]
            v ^= low
        return acc

    @staticmethod
    def apply(vec: int, a: int, acts: list) -> int:
        acc = 0
        while a:  # vec @ acts[u] for each bit u of a
            low = a & -a
            acc ^= _PackedRows.times(vec, acts[low.bit_length() - 1])
            a ^= low
        return acc

    @staticmethod
    def window(row: int, off: int, n: int) -> int:
        return (row >> off) & ((1 << n) - 1)

    @staticmethod
    def pivots(rows: list[int]) -> list[int] | None:
        pivots = [r.bit_length() - 1 for r in rows]
        mask = sum(1 << c for c in set(pivots))
        reduced = mask.bit_count() == len(rows) and all(r & mask == 1 << c for r, c in zip(rows, pivots))
        return pivots if reduced else None

    @staticmethod
    def coordinates(basis: list[int], pivots: list[int], dim: int):
        at = [0] * dim  # each basis row at its pivot
        for b, c in zip(basis, pivots):
            at[c] = b
        mask, times = sum(1 << c for c in pivots), _PackedRows.times
        # at is 0 off the pivots, so only the pivot bits of vec are visited
        return lambda vec: c if times(c := vec & mask, at) == vec else None


class _PairRows:
    """The row format of F_p (p odd) and Q: (k, c) pairs."""

    zero = ()

    def __init__(self, field: FieldSpec):
        self.field = field
        self.span = partial(SpanBuilder, field)

    pack = unpack = staticmethod(tuple)  # the identity on pair rows

    def times(self, vec: tuple, rows: list) -> tuple:
        return combine_pairs(self.field, ((x, rows[i]) for i, x in vec))

    def apply(self, vec: tuple, a: tuple, acts: list) -> tuple:
        return combine_pairs(self.field, ((c * x, acts[u][i]) for u, c in a for i, x in vec))

    @staticmethod
    def shift(row: tuple, off: int) -> tuple:
        return tuple([(k + off, c) for k, c in row]) if off else row

    @staticmethod
    def window(row: tuple, off: int, n: int) -> tuple:
        return tuple([(j - off, x) for j, x in row if off <= j < off + n])

    @staticmethod
    def pivots(rows: list[tuple]) -> list[int] | None:
        pivots = [r[-1][0] for r in rows]
        pivset = set(pivots)
        reduced = (len(pivset) == len(rows) and all(r[-1][1] == 1 for r in rows)
                   and not any(j in pivset for r in rows for j, _ in r[:-1]))
        return pivots if reduced else None

    def coordinates(self, basis: list[tuple], pivots: list[int], dim: int):
        return partial(coords_against, self.field, basis, pivots)


_PACKED = _PackedRows()


def row_format(field: FieldSpec):
    """The rows a resolution computes with over ``field``, packed ints over
    F_2 and (k, c) pairs otherwise, and their operations: ``zero``,
    ``pack(pairs)``, ``unpack(row)``; ``times(vec, rows)``, vec @ rows;
    ``apply(vec, a, acts)``, vec @ act(a) for an algebra element a and the
    action rows acts[u] of each b_u, summed over the entries of a and vec
    only; ``span()``, an empty ``_PackedSpan`` or ``SpanBuilder``;
    ``shift(row, off)``, the row moved off columns right, and
    ``window(row, off, n)``, its columns off..off+n-1 moved to 0..n-1;
    ``pivots(rows)``, the last entry of each row if each is 1 there and
    every other row 0, else None; ``coordinates(basis, pivots, dim)``, the
    function giving a vector's coordinates in such a basis, or None
    outside its span: its bits at the pivots over F_2 (it lies in the span
    iff it is the sum of the rows they name), else ``coords_against``."""
    return _PACKED if field == F2 else _PairRows(field)


def left_kernel_rows(field: FieldSpec, rows: list, ncols: int) -> tuple[int, list]:
    """(rank, basis of {x : x . rows_matrix = 0}) for ``rows`` given as
    (k, c) pairs over ``ncols`` columns, from one elimination of [C | I].
    Row i of I sits at column ncols + n-1-i, so the kernel rows are
    reduced from their last entry back: each is 1 at its last entry,
    where every other row is 0, in ascending order of that entry.  This
    basis is unique, and it is the one ``kernel_rows`` gives for the
    transpose.  It is read off the rows of the elimination with their
    pivot (their lowest bit over F_2) in I, with no back-substitution:
    a row is only reduced by rows with their pivot in C, which carry
    entries of I only of rows that got their pivot in C; so a kernel row
    is 1 at its own entry of I, its pivot, and 0 at the pivot of every
    other kernel row.  Over F_2 the rows may instead be packed ints (bit
    k for column k); the kernel comes back in the format of the rows,
    ints for ints and pairs for pairs, and the elimination runs packed
    either way."""
    n = len(rows)
    if field.kind == "prime" and field.p == 2:
        packed = bool(rows) and isinstance(rows[0], int)
        span = _PackedSpan()
        for i, r in enumerate(rows):
            span.add((r if packed else _PACKED.pack(r)) | 1 << (ncols + n - 1 - i))
        ker = sorted(((low, v >> ncols) for low, v in span.items() if low >> ncols), reverse=True)
        width = f"0{n}b"  # row i at bit n-1-i: reverse the bits
        kernel = [int(format(v, width)[::-1], 2) for _, v in ker]
        return n - len(kernel), kernel if packed else [_PACKED.unpack(v) for v in kernel]
    span = SpanBuilder(field)
    one = field.one()
    for i, r in enumerate(rows):
        span.add(tuple(r) + ((ncols + n - 1 - i, one),))
    last = ncols + n - 1
    kernel = [tuple((last - k, x) for k, x in reversed(span._at[c]))
              for c in sorted((c for c in span._at if c >= ncols), reverse=True)]
    return n - len(kernel), kernel


def matmul_rows(field: FieldSpec, a: list[list], b: list[list]) -> list[list]:
    """The product a @ b of canonical scalars, summed over the nonzero
    entries of a and b only and reduced once per output row."""
    if a and len(a[0]) != len(b):
        raise DimensionMismatch(f"{len(a[0])} inner vs {len(b)}")
    p = field.p
    ncols = len(b[0]) if b else 0
    zero = field.zero()
    out = []
    for row in a:
        acc = [zero] * ncols
        for f, bk in zip(row, b):
            if f:
                for j, x in enumerate(bk):
                    if x:
                        acc[j] += f * x
        out.append([x % p for x in acc] if p else list(map(_q, acc)))
    return out


def rank_rows(field: FieldSpec, rows: list[list]) -> int:
    """The rank of ``rows``, canonical scalars as for ``rref_rows``."""
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
        """Entries are reduced to canonical scalars: ints mod p over F_p;
        over Q, ints when integral and Fractions otherwise."""
        conv = (lambda x: x % field.p) if field.kind == "prime" else (lambda x: _q(Fraction(x)))
        rows = tuple(tuple(map(conv, r)) for r in data)
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
        return Matrix(field, rows)

    @staticmethod
    def _shaped(field: FieldSpec, data, cols: int) -> "Matrix":
        """``Matrix(field, data)`` with ``cols`` columns, also when ``data``
        has no rows to read them from."""
        m = Matrix(field, data)
        if not m.rows:
            object.__setattr__(m, "cols", cols)
        return m

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return Matrix._shaped(field, [[z] * cols for _ in range(rows)], cols)

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return Matrix(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    # -- basics ----------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.cols, self.data))

    def __repr__(self):
        return f"Matrix({self.field.describe()}, {self.rows}x{self.cols})"

    def entry(self, i: int, j: int):
        return self.data[i][j]

    def row_lists(self) -> list[list]:
        return [list(r) for r in self.data]

    def transpose(self) -> "Matrix":
        return Matrix._shaped(self.field, [[self.data[i][j] for i in range(self.rows)]
                                           for j in range(self.cols)], self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if not (self.rows and other.rows):  # as lists, a matrix without rows has no columns
            return Matrix.zeros(self.field, self.rows, other.cols)
        return Matrix(self.field, matmul_rows(self.field, self.row_lists(), other.row_lists()))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        f = self.field
        return Matrix._shaped(f, [list(map(f.add, ra, rb)) for ra, rb in zip(self.data, other.data)], self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in subtraction")
        f = self.field
        return Matrix._shaped(f, [list(map(f.sub, ra, rb)) for ra, rb in zip(self.data, other.data)], self.cols)

    def scale(self, c) -> "Matrix":
        f = self.field
        return Matrix._shaped(f, [[f.mul(c, x) for x in r] for r in self.data], self.cols)

    def is_zero(self) -> bool:
        return all(not x for r in self.data for x in r)

    # -- elimination -----------------------------------------------------
    def rref(self) -> RrefResult:
        work = self.row_lists()
        rank, pivots = rref_rows(self.field, work)
        return RrefResult(Matrix._shaped(self.field, work, self.cols), rank, tuple(pivots))

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
        return Matrix._shaped(field, sol, b.cols)
