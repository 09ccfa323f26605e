"""Finite-dimensional algebras as explicit basis/structure-constant tables.

A table records a field, a named basis, the product of every two basis
elements, the unit, a complete set of orthogonal primitive idempotents
(with vertex labels) and a basis of the Jacobson radical.  Every one of
these elements is held as (k, c) pairs, k strictly ascending and every
c a nonzero canonical scalar; vectors are dense only in table files
(``to_json``/``from_json``) and in ``mult_elements``, a dense view
that ``perfbench`` traces and no engine path calls; a linear map is
pair rows, row i the image of unit vector i.  Every constructor but
``opposite`` re-verifies the algebra axioms plus the split-basic
certificate (``dim A = dim J + #idempotents``), which is what licenses
the homological machinery downstream (one-dimensional simple tops,
projective covers through idempotents, ...).  Data derived from a
table is kept by one memo decorator, ``_memo``.

Tables are produced four ways: compiling a bounded quiver algebra with
relations (with a certified Loewy bound), fixed presets, bridging a
Nakayama algebra given by its Kupisch series, and closure operations
(opposite, tensor, corner algebras).
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import nakayama as nak
from .exactmath import (
    FieldSpec,
    SpanBuilder,
    _canonical,
    combine_pairs,
    coords_against,
    left_kernel_rows,
    row_format,
    sparse_row,
)

SIZE_LIMIT = 4096  # largest table dimension (paths, corner or tensor basis) built


class RelationSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownNameError(ValueError):
    pass


class NonComposableError(ValueError):
    pass


class CompileError(ValueError):
    pass


class LoewyBoundError(CompileError):
    pass


class SizeLimitError(ValueError):
    pass


# ---------------------------------------------------------------------------
# quiver specs and relation expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class QuiverSpec:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[str, ...]
    loewy_bound: int
    field: FieldSpec

    def __post_init__(self):
        names = list(self.vertices) + [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise CompileError("vertex and arrow names must be pairwise distinct")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise CompileError(f"arrow {a.name} has an endpoint outside the vertex list")
        if self.loewy_bound < 2:
            raise CompileError("Loewy bound must be at least 2")

    def to_json(self):
        return {
            "kind": "quiver",
            "vertices": list(self.vertices),
            "arrows": [[a.name, a.source, a.target] for a in self.arrows],
            "relations": list(self.relations),
            "loewy_bound": self.loewy_bound,
            "field": self.field.to_json(),
        }

    @staticmethod
    def from_json(obj) -> "QuiverSpec":
        return QuiverSpec(
            vertices=tuple(obj["vertices"]),
            arrows=tuple(Arrow(*a) for a in obj["arrows"]),
            relations=tuple(obj["relations"]),
            loewy_bound=int(obj["loewy_bound"]),
            field=FieldSpec.from_json(obj["field"]),
        )


@dataclass(frozen=True)
class RelTerm:
    coeff: int
    path: tuple[str, ...]  # arrow names, left-to-right composition
    source: str
    target: str


@dataclass(frozen=True)
class RelationExpr:
    text: str
    terms: tuple[RelTerm, ...]


_TOKEN = re.compile(r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[+\-*])")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise RelationSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if not m.lastgroup == "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


def _parse_terms(text: str, names: dict, combine, coeff_error_at_int: bool = False) -> list:
    """Parse ``text`` against the grammar

        expr := term (("+"|"-") term)*
        term := [integer "*"]? name ("*" name)*

    Each name is looked up in ``names``; an integer that is a key of
    ``names`` is read as that name where no '*' follows it, and an integer
    followed by '*' is always a coefficient.  Each term is handed to
    ``combine(signed integer coefficient, [(names[name], position), ...])``
    as soon as it is read, so errors surface left to right.  Returns the
    combined terms.  A coefficient without its '*' is reported at the
    token where the '*' was expected, or at the coefficient itself when
    ``coeff_error_at_int`` is set.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise RelationSyntaxError("empty expression", 0)
    tokens = [("name" if kind == "int" and val in names and after[:2] != ("op", "*") else kind, val, pos)
              for (kind, val, pos), after in zip(tokens, tokens[1:] + [()])]
    idx = 0

    def at_star():
        return idx < len(tokens) and tokens[idx][:2] == ("op", "*")

    def here():
        return tokens[idx][2] if idx < len(tokens) else len(text)

    out = []
    sign = 1
    while True:
        coeff = sign
        if idx < len(tokens) and tokens[idx][0] == "int":
            coeff *= int(tokens[idx][1])
            idx += 1
            if not at_star():
                pos = tokens[idx - 1][2] if coeff_error_at_int else here()
                raise RelationSyntaxError("integer coefficient must be followed by '*'", pos)
            idx += 1
        factors = []
        while True:
            if idx == len(tokens) or tokens[idx][0] != "name":
                raise RelationSyntaxError("expected name", here())
            _, name, pos = tokens[idx]
            idx += 1
            if name not in names:
                raise UnknownNameError(f"unknown name {name!r} (position {pos})")
            factors.append((names[name], pos))
            if not at_star():
                break
            idx += 1
        out.append(combine(coeff, factors))
        if idx == len(tokens):
            return out
        kind, val, pos = tokens[idx]
        if kind != "op" or val not in "+-":
            raise RelationSyntaxError("expected '+' or '-'", pos)
        idx += 1
        sign = 1 if val == "+" else -1


def parse_relation(text: str, spec: QuiverSpec) -> RelationExpr:
    """Parse one relation (grammar of ``_parse_terms``) where a name is a
    vertex (denoting its idempotent) or an arrow.  Terms are resolved into
    coefficient/path form with composability checked left to right; like
    paths are combined over the integers.
    """
    # name -> (source, target, arrow names)
    names = {v: (v, v, ()) for v in spec.vertices}
    names.update({a.name: (a.source, a.target, (a.name,)) for a in spec.arrows})

    def combine(coeff, factors) -> RelTerm:
        (source, target, path), _ = factors[0]
        for (s, t, arrows), pos in factors[1:]:
            if target != s:
                raise NonComposableError(
                    f"path breaks at position {pos}: previous factor ends at "
                    f"{target!r}, next starts at {s!r}"
                )
            target = t
            path += arrows
        return RelTerm(coeff, path, source, target)

    combined: dict[tuple, int] = {}
    for t in _parse_terms(text, names, combine):
        key = (t.path, t.source, t.target)
        combined[key] = combined.get(key, 0) + t.coeff
    canon = tuple(
        RelTerm(c, path, src, tgt)
        for (path, src, tgt), c in combined.items()
        if c != 0
    )
    return RelationExpr(text, canon)


# ---------------------------------------------------------------------------
# the algebra table
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class AlgebraTable:
    field: FieldSpec
    basis_names: tuple[str, ...]
    # every element as (k, c) pairs: k strictly ascending, every c nonzero
    mult: tuple[tuple[tuple, ...], ...]  # mult[i][j] = b_i * b_j
    unit: tuple
    idempotents: tuple[tuple[str, tuple], ...]  # (vertex label, element)
    radical: tuple[tuple, ...]  # elements spanning the Jacobson radical
    provenance: dict = dc_field(default_factory=dict)
    # derived data, kept by ``_memo``
    _cache: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    @property
    def n_vertices(self) -> int:
        return len(self.idempotents)

    def vertex_labels(self) -> list[str]:
        return [label for label, _ in self.idempotents]

    def describe(self) -> str:
        name = self.provenance.get("preset") or self.provenance.get("kind", "table")
        return f"{name}[dim={self.dim},{self.field.describe()}]"

    # -- element arithmetic ------------------------------------------------
    def _mul(self, u, v) -> tuple:
        """u * v for elements given as (k, c) pairs, as (k, c) pairs with k
        ascending and c nonzero: the one product of the table engine, the
        sum of u_i v_j b_i b_j over the stored products, reduced once."""
        mult = self.mult
        acc = {}
        for i, x in u:
            row = mult[i]
            for j, y in v:
                cell = row[j]
                if cell:
                    f = x * y
                    for k, c in cell:
                        acc[k] = acc.get(k, 0) + f * c
        return _canonical(self.field, acc)

    def mult_elements(self, u, v) -> list:
        """u * v for coordinate vectors: ``_mul`` on their nonzero entries."""
        return _dense(self._mul(sparse_row(u), sparse_row(v)), self.dim, self.field.zero())

    def element_from_expr(self, text: str) -> tuple:
        """Evaluate a relation-grammar expression whose names are basis
        elements or idempotent labels, inside this table, as (k, c) pairs."""
        one = self.field.one()
        by_name = {name: ((i, one),) for i, name in enumerate(self.basis_names)}
        for label, e in self.idempotents:
            by_name.setdefault(label, e)

        def combine(coeff, factors):
            vec = factors[0][0]
            for other, _ in factors[1:]:
                vec = self._mul(vec, other)
            return coeff, vec

        return combine_pairs(self.field, _parse_terms(text, by_name, combine,
                                                      coeff_error_at_int=True))

    def to_json(self):
        fmt = self.field.fmt
        structure = [[i, j, k, fmt(c)]
                     for i, row in enumerate(self.mult)
                     for j, cell in enumerate(row) for k, c in cell]
        zero = self.field.zero()
        fmt_vec = lambda v: [fmt(x) for x in _dense(v, self.dim, zero)]
        return {
            "kind": "table",
            "field": self.field.to_json(),
            "basis": list(self.basis_names),
            "unit": fmt_vec(self.unit),
            "structure": structure,
            "idempotents": [[label, fmt_vec(vec)] for label, vec in self.idempotents],
            "radical": [fmt_vec(v) for v in self.radical],
            "provenance": self.provenance,
        }

    @staticmethod
    def from_json(obj) -> "AlgebraTable":
        fld = FieldSpec.from_json(obj["field"])
        basis = tuple(obj["basis"])
        d = len(basis)
        if len(set(basis)) != d:  # an expression names each basis element once
            raise ValueError(f"repeated basis names in {list(basis)!r}")
        provenance = obj.get("provenance", {})
        if not isinstance(provenance, dict):
            raise ValueError(f"provenance {provenance!r} is not a JSON object")
        if d > SIZE_LIMIT:
            raise SizeLimitError(f"table of dimension {d} exceeds limit {SIZE_LIMIT}")
        cells: dict[tuple, dict] = {}  # (i, j) -> {k: c}; a repeated entry overrides
        for i, j, k, c in obj["structure"]:
            if not all(0 <= x < d for x in (i, j, k)):
                raise ValueError(f"structure index outside 0..{d - 1}: {[i, j, k]}")
            cells.setdefault((i, j), {})[k] = fld.parse(c)

        def parse_vec(v):
            if len(v) != d:
                raise ValueError(f"vector of length {len(v)} in a table of dimension {d}")
            return sparse_row(fld.parse(x) for x in v)

        for v in obj.get("generators", []):  # older files list generators; none is kept
            parse_vec(v)
        idem = [(label, parse_vec(vec)) for label, vec in obj["idempotents"]]
        labels = [label for label, _ in idem]
        if len(set(labels)) != len(labels):  # a label names one vertex
            raise ValueError(f"repeated idempotent labels in {labels!r}")
        for label, e in idem:  # an expression reads a basis name before a label
            if label in basis and e != ((basis.index(label), fld.one()),):
                raise ValueError(f"idempotent label {label!r} names another basis element")
        return make_table(
            field=fld,
            basis_names=basis,
            mult=[[tuple(sorted((k, c) for k, c in cells.get((i, j), {}).items() if c))
                   for j in range(d)] for i in range(d)],
            unit=parse_vec(obj["unit"]),
            idempotents=idem,
            radical=[parse_vec(v) for v in obj["radical"]],
            provenance=provenance,
        )


_MISSING = object()


def _memo(fn):
    """``fn(obj, *args)``, computed once per object and arguments and kept
    in ``obj._cache``; ``fn.put(obj, value, *args)`` stores a value known
    from elsewhere.  A call that raises stores nothing.  The builder runs
    as ``fn.__wrapped__``, where a test can count its calls."""

    @functools.wraps(fn)
    def memo(obj, *args):
        key = (memo, *args)
        value = obj._cache.get(key, _MISSING)  # one lookup, one hash of the key
        if value is _MISSING:
            value = obj._cache[key] = memo.__wrapped__(obj, *args)
        return value

    memo.put = lambda obj, value, *args: obj._cache.__setitem__((memo, *args), value)
    return memo


def make_table(field, basis_names, mult, unit, idempotents, radical,
               provenance=None) -> AlgebraTable:
    """A verified table; ``mult[i][j]``, ``unit``, each idempotent and each
    radical element are (k, c) pairs, k strictly ascending and every c a
    nonzero canonical scalar."""
    mult = tuple(tuple(tuple(cell) for cell in row) for row in mult)
    table = AlgebraTable(
        field=field,
        basis_names=tuple(basis_names),
        mult=mult,
        unit=tuple(unit),
        idempotents=tuple((label, tuple(vec)) for label, vec in idempotents),
        radical=tuple(tuple(v) for v in radical),
        provenance=provenance or {},
    )
    verify_table(table)
    return table


def _dense(pairs, n: int, zero) -> list:
    """The length-n vector with the (index, entry) ``pairs``."""
    out = [zero] * n
    for j, x in pairs:
        out[j] = x
    return out


def _radical_powers(table: AlgebraTable):
    """(k, c) rows spanning J, J^2, J^3, ... in turn, stopping before the
    first zero power: J as the declared radical basis, each higher power
    as echelon rows.
    Raises ``CompileError`` when the powers do not reach 0 within dim + 1
    steps."""
    d = table.dim
    rad = table.radical
    # reach[i]: the rows v of rad with b_i v possibly nonzero
    at_column: list[list[int]] = [[] for _ in range(d)]
    for r, v in enumerate(rad):
        for j, _ in v:
            at_column[j].append(r)
    reach = [{r for j in range(d) if row[j] for r in at_column[j]} for row in table.mult]
    current = rad
    steps = 0
    while current:
        steps += 1
        if steps > d + 1:
            raise CompileError("declared radical is not nilpotent")
        yield current
        nxt = SpanBuilder(table.field)
        for u in current:
            for r in sorted(set().union(*(reach[i] for i, _ in u))):
                nxt.add(table._mul(u, rad[r]))
        current = nxt.rows


@_memo
def _radical_top(table: AlgebraTable) -> list[tuple]:
    """Elements that generate J as a left and as a right ideal, so that
    M J is the sum of the M x, as (k, c) pairs.  ``compile_quiver`` stores
    the nonzero arrow images, as every path is a product of arrows; for
    any other table they are the radical basis vectors whose classes form a basis
    of J/J^2 (J = AX + J^2 forces J = AX, and J = XA + J^2 forces
    J = XA, since J is nilpotent)."""
    powers = _radical_powers(table)
    next(powers, None)  # J
    mod = SpanBuilder(table.field)
    for r in next(powers, []):  # J^2
        mod.add(r)
    return [v for v in table.radical if mod.add(v)]


@_memo
def _vertex_grading(table: AlgebraTable):
    """(left, right), so that b_u lies in e_v A e_w for v = left[u] and
    w = right[u], or None.  Read from the stored products alone: left[u] is
    the one vertex v with b_s b_u != 0 for some b_s in the support of e_v,
    and right[u] the one w with b_u b_s != 0 for some b_s in that of e_w.
    The labels are returned only when the constants certify them: each e_v
    is supported on elements of degree (v, v), and every nonzero b_i b_j
    has right[i] = left[j] and every term of degree (left[i], right[j]).
    Then e_v b_u is b_u for v = left[u] and 0 otherwise (the unit is the
    sum of the e_v), so e_v A is spanned by the b_u with left[u] = v, and a
    triple with right[i] != left[j] has both sides of associativity 0."""
    d, mult = table.dim, table.mult
    left, right = [None] * d, [None] * d
    for v, (_, e) in enumerate(table.idempotents):
        for s, _ in e:
            for u in range(d):
                for side, cell in ((left, mult[s][u]), (right, mult[u][s])):
                    if cell:
                        if side[u] not in (None, v):
                            return None
                        side[u] = v
    if None in left or None in right:
        return None
    if any(left[s] != v or right[s] != v
           for v, (_, e) in enumerate(table.idempotents) for s, _ in e):
        return None
    for i, row in enumerate(mult):
        li, ri = left[i], right[i]
        for j, cell in enumerate(row):
            if cell and (ri != left[j] or any(left[k] != li or right[k] != right[j] for k, _ in cell)):
                return None
    return left, right


def _default_generators(table: AlgebraTable) -> list[tuple]:
    """Idempotents plus lifts of a basis of J/J^2, as (k, c) pairs: a
    unital generating set."""
    return [e for _, e in table.idempotents] + _radical_top(table)


def _generating_basis(table: AlgebraTable) -> list[int]:
    """Basis indices G, each the first basis element outside the span of 1
    and the left-nested products (..((b_g b_g') b_g'')..) of those before
    it, until that span is A.  Needs only the unit axiom.

    Checks with a middle factor in G then cover all of A.  Let S be the y
    with (xy)z = x(yz) for all x, z.  S is a subspace, 1 is in S by the
    unit axiom, and S is closed under products: for y1, y2 in S,
    (x(y1 y2))z = ((x y1)y2)z = (x y1)(y2 z) = x(y1(y2 z)) = x((y1 y2)z).
    So G in S gives S = A.  Once A is associative, the same argument for
    {y : Jy in J} and {y : yJ in J} lets the right and left ideal checks
    of J run over G alone."""
    one = table.field.one()
    span = SpanBuilder(table.field)
    span.add(table.unit)
    gens: list[int] = []
    i = 0
    while span.rank < table.dim:
        while span.contains(((i, one),)):
            i += 1
        gens.append(i)
        todo = [(w, i) for w in span.rows]  # the span so far times the new b_i
        while todo:
            w, g = todo.pop()
            if span.add(table._mul(w, ((g, one),))):
                todo.extend((span.rows[-1], h) for h in gens)
    return gens


def _check_over(middle, check, *args) -> None:
    """``check(*args, middle)``; when it fails, ``check(*args)`` over every
    middle factor, so that the message names the first failure in A."""
    try:
        check(*args, middle)
    except CompileError:
        check(*args)
        raise


def _check_pairs(fld: FieldSpec, d: int, elements, name) -> None:
    """Raise unless every element is (k, c) pairs, k strictly ascending in
    0..d-1 and every c a nonzero canonical scalar of ``fld``: an int in
    1..p-1 over F_p; over Q an int, or a Fraction whose denominator is not
    1.  The message calls the n-th element ``name(n)``."""
    p = fld.p
    for n, vec in enumerate(elements):
        last = -1
        for pair in vec:
            k, c = pair if type(pair) is tuple and len(pair) == 2 else (d, None)  # d fails
            if not (last < k < d and ((type(c) is int and 0 < c < p) if p
                                      else ((type(c) is int and c != 0)
                                            or (type(c) is Fraction and c.denominator != 1)))):
                raise CompileError(f"{name(n)} is not (k, c) pairs with k strictly ascending "
                                   "and c nonzero")
            last = k


def verify_table(table: AlgebraTable) -> None:
    """Re-check the storage format of every element (``_check_pairs``) and
    every table axiom: unit, associativity, the idempotent set, and that
    the declared radical is a nilpotent two-sided ideal with a split-basic
    quotient.  Associativity and the ideal checks take their middle factor
    from ``_generating_basis``, which is enough (see there)."""
    d = table.dim
    fld = table.field
    one = fld.one()
    if len(table.mult) != d or any(len(row) != d for row in table.mult):
        raise CompileError(f"structure constants are not {d} x {d} cells")
    for i, row in enumerate(table.mult):
        _check_pairs(fld, d, row, lambda j: f"product ({i},{j})")
    unit = table.unit
    _check_pairs(fld, d, [unit], lambda _: "unit")
    _check_pairs(fld, d, [e for _, e in table.idempotents],
                 lambda v: f"idempotent {table.idempotents[v][0]}")
    _check_pairs(fld, d, table.radical, lambda _: "radical element")
    for i in range(d):
        b = ((i, one),)
        if table._mul(unit, b) != b or table._mul(b, unit) != b:
            raise CompileError(f"unit axiom fails on basis element {table.basis_names[i]}")
    gens = _generating_basis(table)
    _check_over(gens, _verify_associativity, table)
    # idempotents: orthogonal, idempotent, complete
    idem = table.idempotents
    for label, e in idem:
        if table._mul(e, e) != e:
            raise CompileError(f"idempotent {label} is not idempotent")
    if idempotent_sum(table, range(len(idem))) != unit:
        raise CompileError("idempotents do not sum to the unit")
    for (la, ea), (lb, eb) in [(x, y) for x in idem for y in idem if x is not y]:
        if table._mul(ea, eb):
            raise CompileError(f"idempotents {la} and {lb} are not orthogonal")
    # radical: two-sided ideal, nilpotent, complement spanned by idempotents
    rad = SpanBuilder(fld)
    for v in table.radical:
        rad.add(v)
    _check_over(gens, _verify_ideal, table, rad, table.radical)
    rad_rank = rad.rank
    if rad_rank + len(idem) != d:
        raise CompileError(
            f"split-basic certificate fails: dim {d} != radical rank {rad_rank} "
            f"+ {len(idem)} idempotents"
        )
    for _, e in idem:
        if not rad.add(e):
            raise CompileError("idempotents are not independent modulo the radical")
    # nilpotency: iterate J -> J*J until zero
    for _ in _radical_powers(table):
        pass


def _verify_associativity(table: AlgebraTable, middle=None) -> None:
    """Raise on the first triple (i, j, k), j in ``middle`` (default: every
    basis index), with (b_i b_j) b_k != b_i (b_j b_k).  Only the k where
    one side can be nonzero are visited: a triple where b_i b_j and b_j b_k
    are both 0 is skipped, as both sides vanish, and so is every pair with
    right[i] != left[j] under a certified ``_vertex_grading``."""
    d = table.dim
    one = table.field.one()
    mult = table.mult
    mul = table._mul
    nonzero = [{k for k in range(d) if row[k]} for row in mult]  # k with b_j b_k != 0
    left, right = _vertex_grading(table) or (None, None)
    for i in range(d):
        bi = ((i, one),)
        for j in range(d) if middle is None else middle:
            if left and right[i] != left[j]:
                continue
            ij = mult[i][j]
            # (b_i b_j) b_k can be nonzero only for k in a nonzero[t], t in b_i b_j
            for k in sorted(nonzero[j].union(*(nonzero[t] for t, _ in ij))):
                jk = mult[j][k]
                if (mul(ij, ((k, one),)) if ij else ()) != (mul(bi, jk) if jk else ()):
                    raise CompileError(f"associativity fails on triple ({i},{j},{k})")


def _verify_ideal(table: AlgebraTable, span: SpanBuilder, rows, middle=None) -> None:
    """Raise unless v b_j and b_j v lie in ``span`` for every v in ``rows``
    and j in ``middle`` (default: every basis index)."""
    one = table.field.one()
    for v in rows:
        for j in range(table.dim) if middle is None else middle:
            b = ((j, one),)
            if not span.contains(table._mul(v, b)):
                raise CompileError("declared radical is not a right ideal")
            if not span.contains(table._mul(b, v)):
                raise CompileError("declared radical is not a left ideal")


def loewy_length(table: AlgebraTable) -> int:
    """Least L with J^L = 0."""
    return 1 + sum(1 for _ in _radical_powers(table))


def is_semisimple(table: AlgebraTable) -> bool:
    return len(table.radical) == 0


# ---------------------------------------------------------------------------
# compilation of bounded quiver algebras
# ---------------------------------------------------------------------------

def compile_quiver(spec: QuiverSpec) -> AlgebraTable:
    """Compile KQ/I truncated at the certified Loewy bound L.

    The working space is spanned by the paths of length <= L; the image of
    the relation ideal in it is spanned by the truncations of p*r*q over
    all path pairs within the length budget.  Compilation fails unless
    every path of length exactly L lies in that span, which certifies
    J^L = 0 in the quotient; the basis is then the non-pivot paths of
    length < L, and products are path concatenation in normal form.
    """
    fld = spec.field
    L = spec.loewy_bound
    arrows_from: dict[str, list[Arrow]] = {v: [] for v in spec.vertices}
    for a in spec.arrows:
        arrows_from[a.source].append(a)
    arrow_index = {a.name: i for i, a in enumerate(spec.arrows)}
    vertex_index = {v: i for i, v in enumerate(spec.vertices)}

    # paths as (source vertex, arrow-name tuple); deglex column order
    paths: list[tuple[str, tuple[str, ...]]] = [(v, ()) for v in spec.vertices]
    frontier = list(paths)
    for _ in range(L):
        nxt = []
        for src, arr in frontier:
            end = spec.arrows[arrow_index[arr[-1]]].target if arr else src
            for a in arrows_from[end]:
                nxt.append((src, arr + (a.name,)))
        paths.extend(nxt)
        frontier = nxt
        if len(paths) > SIZE_LIMIT:
            raise SizeLimitError(f"more than {SIZE_LIMIT} paths below the Loewy bound")

    def sort_key(p):
        src, arr = p
        if not arr:
            return (0, (vertex_index[src],))
        return (len(arr), tuple(arrow_index[x] for x in arr))

    paths.sort(key=sort_key)
    col_of = {p: i for i, p in enumerate(paths)}
    one = fld.one()

    def path_target(p) -> str:
        src, arr = p
        return spec.arrows[arrow_index[arr[-1]]].target if arr else src

    # relation ideal span, truncated at length L
    parsed = [parse_relation(text, spec) for text in spec.relations]
    span = SpanBuilder(fld)
    for expr in parsed:
        terms = []
        for t in expr.terms:
            c = fld.of_int(t.coeff)
            if c != fld.zero():
                terms.append((c, t))
        if not terms:
            raise CompileError(f"field-degenerate relation (reduces to 0): {expr.text!r}")
        for _, t in terms:
            if len(t.path) == 0:
                raise CompileError(
                    f"relation {expr.text!r} contains a trivial-path term; "
                    "relations must lie in the arrow ideal"
                )
        mindeg = min(len(t.path) for _, t in terms)
        budget = L - mindeg
        for p in paths:  # paths ascend in length, so the loops stop at the budget
            lp = len(p[1])
            if lp > budget:
                break
            p_end = path_target(p)
            for q in paths:
                lq = len(q[1])
                if lp + mindeg + lq > L:
                    break
                hits: dict[int, object] = {}  # column -> coefficient of p*r*q
                for c, t in terms:
                    if t.source != p_end or t.target != q[0]:
                        continue  # the incomposable summands of p*r*q vanish
                    if lp + len(t.path) + lq > L:
                        continue
                    col = col_of[(p[0], p[1] + t.path + q[1])]
                    hits[col] = fld.add(hits.get(col, fld.zero()), c)
                hits = {k: x for k, x in hits.items() if x}
                if hits:
                    span.add(hits.items())

    pivset = set(span.pivots)

    # Loewy certificate: every path of length exactly L lies in the span
    for p in paths:
        if len(p[1]) == L:
            if not span.contains(((col_of[p], one),)):
                raise LoewyBoundError(
                    f"path {'*'.join(p[1])} of length {L} does not lie in the "
                    "relation ideal; the declared Loewy bound is not certified"
                )

    basis_paths = [p for p in paths if len(p[1]) < L and col_of[p] not in pivset]
    if not basis_paths:
        raise CompileError("empty quotient")
    basis_col = {p: i for i, p in enumerate(basis_paths)}
    d = len(basis_paths)

    def normal_form(p) -> tuple:
        """The path p in the basis, as (index, coefficient) pairs: its
        residue lies on the non-pivot columns, every one a basis path, as
        the paths of length L span their own columns."""
        red = span.residue(((col_of[p], one),))
        return tuple(sorted((basis_col[paths[c]], x) for c, x in red.items()))

    nf_cache: dict[tuple, tuple] = {}
    mult = []
    for p in basis_paths:
        row = []
        for q in basis_paths:
            if path_target(p) != q[0] or len(p[1]) + len(q[1]) > L:
                row.append(())  # incomposable, or in J^L = 0
                continue
            pq = (p[0], p[1] + q[1])
            if pq not in nf_cache:
                nf_cache[pq] = normal_form(pq)
            row.append(nf_cache[pq])
        mult.append(row)

    def name_of(p):
        src, arr = p
        return "*".join(arr) if arr else src

    basis_names = [name_of(p) for p in basis_paths]
    if any((v, ()) not in basis_col for v in spec.vertices):
        raise CompileError("empty quotient: a vertex idempotent died in the ideal")
    # the trivial paths come first, in vertex order, so the unit ascends
    idem = [(v, ((basis_col[(v, ())], one),)) for v in spec.vertices]
    table = make_table(
        field=fld,
        basis_names=basis_names,
        mult=mult,
        unit=tuple(e for _, (e,) in idem),
        idempotents=idem,
        radical=[((i, one),) for i, p in enumerate(basis_paths) if p[1]],
        provenance={"kind": "quiver", "spec": spec.to_json()},
    )
    # J is spanned by the paths of length >= 1, each a product of arrows
    # (arrows rewritten by relations included), so the nonzero arrow images
    # generate J as a left and as a right ideal: no J^2 needed
    _radical_top.put(table, [img for img in (normal_form((a.source, (a.name,)))
                                             for a in spec.arrows) if img])
    return table


# ---------------------------------------------------------------------------
# presets and the Nakayama bridge
# ---------------------------------------------------------------------------

def nakayama_to_table(A: nak.NakAlgebra, field: FieldSpec) -> AlgebraTable:
    """The basic algebra with the given Kupisch series, as a monomial
    bounded quiver algebra over ``field``.  Basis size is sum(c_i)."""
    n = A.n
    total = sum(A.kupisch)
    if total > SIZE_LIMIT:
        raise SizeLimitError(f"Nakayama table of dimension {total} exceeds limit {SIZE_LIMIT}")
    vertices = tuple(f"v{i}" for i in range(n))
    if A.is_cycle:
        arrows = tuple(Arrow(f"a{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n))
    else:
        arrows = tuple(Arrow(f"a{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1))
    relations = []
    for i in range(n):
        ci = A.c(i)
        if A.is_cycle:
            rel = "*".join(f"a{(i + t) % n}" for t in range(ci))
            relations.append(rel)
        else:
            if i + ci <= n - 1:
                rel = "*".join(f"a{i + t}" for t in range(ci))
                relations.append(rel)
    L = max(A.kupisch) + 1
    spec = QuiverSpec(vertices, arrows, tuple(relations), L, field)
    table = compile_quiver(spec)
    table.provenance.update({"kind": "nakayama", "nakayama": A.to_json()})
    assert table.dim == total, "bridge dimension bookkeeping failed"
    return table


def _group_algebra(names: list[str], mult_map: dict[tuple[str, str], str],
                   identity: str, field: FieldSpec, preset: str) -> AlgebraTable:
    """Group algebra over F_p with p dividing the group order at every
    nontrivial element order (used for the 2-groups here): the radical is
    the augmentation ideal."""
    index = {g: i for i, g in enumerate(names)}
    one = field.one()
    mult = [[((index[mult_map[(g, h)]], one),) for h in names] for g in names]
    unit = ((index[identity], one),)
    radical = [tuple(sorted({index[g]: one, index[identity]: field.neg(one)}.items()))
               for g in names if g != identity]  # g - 1
    return make_table(
        field=field,
        basis_names=names,
        mult=mult,
        unit=unit,
        idempotents=[("v0", unit)],
        radical=radical,
        provenance={"kind": "preset", "preset": preset},
    )


def _dihedral8_table(field: FieldSpec) -> AlgebraTable:
    # <r, s | r^4 = s^2 = 1, s r s = r^-1>
    names = [f"r{a}s{b}" for b in (0, 1) for a in range(4)]

    def mul(x, y):
        a1, b1 = int(x[1]), int(x[3])
        a2, b2 = int(y[1]), int(y[3])
        a = (a1 + (a2 if b1 == 0 else -a2)) % 4
        b = (b1 + b2) % 2
        return f"r{a}s{b}"

    mult_map = {(x, y): mul(x, y) for x in names for y in names}
    return _group_algebra(names, mult_map, "r0s0", field, "dihedral8-f2")


def _quaternion8_table(field: FieldSpec) -> AlgebraTable:
    # {±1, ±i, ±j, ±k} with i^2 = j^2 = k^2 = ijk = -1
    units = ["1", "i", "j", "k"]
    names = [s + u for s in ("", "z") for u in units]  # z denotes the central -1

    base = {
        ("1", "1"): (0, "1"), ("1", "i"): (0, "i"), ("1", "j"): (0, "j"), ("1", "k"): (0, "k"),
        ("i", "1"): (0, "i"), ("i", "i"): (1, "1"), ("i", "j"): (0, "k"), ("i", "k"): (1, "j"),
        ("j", "1"): (0, "j"), ("j", "i"): (1, "k"), ("j", "j"): (1, "1"), ("j", "k"): (0, "i"),
        ("k", "1"): (0, "k"), ("k", "i"): (0, "j"), ("k", "j"): (1, "i"), ("k", "k"): (1, "1"),
    }

    def mul(x, y):
        s1, u1 = (1, x[1:]) if x.startswith("z") else (0, x)
        s2, u2 = (1, y[1:]) if y.startswith("z") else (0, y)
        s3, u = base[(u1, u2)]
        s = (s1 + s2 + s3) % 2
        return ("z" if s else "") + u

    mult_map = {(x, y): mul(x, y) for x in names for y in names}
    return _group_algebra(names, mult_map, "1", field, "quaternion8-f2")


_TRUNCPOLY = re.compile(r"truncated-poly\((\d+),(F(\d+)|Q)\)$")


def preset(name: str) -> AlgebraTable:
    """Fixed example algebras addressable by name.

    hopf-a5-f2        the 8-dimensional local algebra K<a,b>/(a^2, b^2-aba), char 2
    dihedral8-f2      group algebra of the order-8 dihedral group over F_2
    quaternion8-f2    group algebra of the order-8 quaternion group over F_2
    preproj-a2        the selfinjective Nakayama algebra with Kupisch series (2,2) over F_2
    truncated-poly(n,F)   k[x]/(x^n) over F in {F2, F3, ..., Q}
    """
    f2 = FieldSpec.prime(2)
    if name == "hopf-a5-f2":
        spec = QuiverSpec(
            vertices=("v0",),
            arrows=(Arrow("a", "v0", "v0"), Arrow("b", "v0", "v0")),
            relations=("a*a", "b*b - a*b*a"),
            loewy_bound=5,
            field=f2,
        )
        table = compile_quiver(spec)
        table.provenance.update({"kind": "preset", "preset": name})
        return table
    if name == "dihedral8-f2":
        return _dihedral8_table(f2)
    if name == "quaternion8-f2":
        return _quaternion8_table(f2)
    if name == "preproj-a2":
        table = nakayama_to_table(nak.validate(nak.CYCLE, (2, 2)), f2)
        table.provenance.update({"kind": "preset", "preset": name})
        return table
    m = _TRUNCPOLY.match(name)
    if m:
        npow = int(m.group(1))
        if npow < 2:
            raise CompileError("truncated-poly needs exponent >= 2")
        fld = FieldSpec.rational() if m.group(2) == "Q" else FieldSpec.prime(int(m.group(3)))
        table = nakayama_to_table(nak.validate(nak.CYCLE, (npow,)), fld)
        table.provenance.update({"kind": "preset", "preset": name})
        return table
    raise KeyError(f"unknown preset {name!r}")


# ---------------------------------------------------------------------------
# derived constructions
# ---------------------------------------------------------------------------

def opposite(table: AlgebraTable) -> AlgebraTable:
    """Same space, reversed multiplication.  Involutive on the nose."""
    d = table.dim
    # not re-verified: its axioms are mirror images of the verified ones
    return AlgebraTable(
        field=table.field,
        basis_names=table.basis_names,
        mult=tuple(tuple(table.mult[j][i] for j in range(d)) for i in range(d)),
        unit=table.unit,
        idempotents=table.idempotents,
        radical=table.radical,
        provenance={"kind": "opposite", "of": table.provenance},
    )


def tensor_algebra(a: AlgebraTable, b: AlgebraTable) -> AlgebraTable:
    if a.field != b.field:
        raise ValueError("tensor factors must share the field")
    d = a.dim * b.dim
    if d > SIZE_LIMIT:
        raise SizeLimitError(f"tensor algebra of dimension {d} exceeds limit {SIZE_LIMIT}")
    fld = a.field

    def kron(u, v):
        """u (x) v for u in A and v in B; k_u outer keeps k ascending."""
        return tuple((i * b.dim + j, fld.mul(x, y)) for i, x in u for j, y in v)

    # (b_i1 (x) b_j1)(b_i2 (x) b_j2) = b_i1 b_i2 (x) b_j1 b_j2
    mult = [[kron(a.mult[i1][i2], b.mult[j1][j2]) for i2 in range(a.dim) for j2 in range(b.dim)]
            for i1 in range(a.dim) for j1 in range(b.dim)]
    basis_names = tuple(
        f"{na}(x){nb}" for na in a.basis_names for nb in b.basis_names
    )
    unit = kron(a.unit, b.unit)
    idem = [
        (f"{la}|{lb}", kron(ea, eb))
        for la, ea in a.idempotents
        for lb, eb in b.idempotents
    ]
    one = fld.one()
    radical = [kron(r, ((j, one),)) for r in a.radical for j in range(b.dim)]
    span_e = SpanBuilder(fld)
    for _, e in a.idempotents:
        span_e.add(e)
    radical += [kron(e, r) for e in span_e.rows for r in b.radical]
    return make_table(
        field=fld,
        basis_names=basis_names,
        mult=mult,
        unit=unit,
        idempotents=idem,
        radical=radical,
        provenance={"kind": "tensor"},
    )


def corner_algebra(table: AlgebraTable, idem_labels: list[str]):
    """e*A*e for e the sum of the named idempotents.

    Returns (corner table, basis rows of eAe inside A as (k, c) pairs).
    A certified vertex grading makes eAe the span of the b_u with both
    degrees chosen, and e v e the part of v on them, so the corner's
    products, unit, idempotents and radical are cells re-indexed.  Without
    one, eAe is the span of the e b_u e, and coordinates are taken against
    it.
    """
    fld = table.field
    d = table.dim
    chosen = [i for i, (l, _) in enumerate(table.idempotents) if l in set(idem_labels)]
    if len(chosen) != len(idem_labels):
        raise KeyError("unknown idempotent label")
    e = idempotent_sum(table, chosen)
    one = fld.one()
    grading = _vertex_grading(table)
    if grading is None:
        cut = lambda v: table._mul(e, table._mul(v, e))  # e v e
        span = SpanBuilder(fld)
        for i in range(d):
            span.add(cut(((i, one),)))
        rows, pivots = span.finish()

        def coords(vec):
            c = coords_against(fld, rows, pivots, vec)
            if c is None:
                raise CompileError("corner multiplication left the corner span")
            return c

        product = lambda a, b: coords(table._mul(rows[a], rows[b]))
    else:
        keep = set(chosen)
        index = [u for u in range(d) if grading[0][u] in keep and grading[1][u] in keep]
        at = {u: i for i, u in enumerate(index)}
        rows = [((u, one),) for u in index]
        cut = lambda v: tuple((k, c) for k, c in v if k in at)
        coords = lambda vec: tuple((at[k], c) for k, c in vec)
        product = lambda a, b: coords(table.mult[index[a]][index[b]])
    dim_c = len(rows)
    if dim_c > SIZE_LIMIT:
        raise SizeLimitError("corner algebra too large")
    mult = [[product(a, b) for b in range(dim_c)] for a in range(dim_c)]
    idem = [(table.idempotents[i][0], coords(table.idempotents[i][1])) for i in chosen]
    rad = SpanBuilder(fld)
    for v in table.radical:
        rad.add(cut(v))
    names = tuple(f"c{i}" for i in range(dim_c))
    corner = make_table(
        field=fld,
        basis_names=names,
        mult=mult,
        unit=coords(e),
        idempotents=idem,
        radical=[coords(v) for v in rad.rows],
        provenance={"kind": "corner", "of": table.provenance, "idem": list(idem_labels)},
    )
    return corner, rows


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------

def is_local(table: AlgebraTable) -> bool:
    return len(table.idempotents) == 1


def symmetric_functional_space(table: AlgebraTable) -> list[tuple]:
    """Basis of the functionals lam with lam(uv) = lam(vu) for all u, v, as
    pairs: the left kernel of the nonzero commutators b_i b_j - b_j b_i
    as columns, the basis ``kernel_rows`` gives for them as rows."""
    d, fld = table.dim, table.field
    cols: list[list] = [[] for _ in range(d)]  # row k: the b_k-entry of each commutator
    n = 0
    for i in range(d):
        for j in range(i + 1, d):
            comm = combine_pairs(fld, ((1, table.mult[i][j]), (-1, table.mult[j][i])))
            if comm:
                for k, c in comm:
                    cols[k].append((n, c))
                n += 1
    return left_kernel_rows(fld, [tuple(r) for r in cols], n)[1]


def _gram(table: AlgebraTable, lam) -> list[tuple]:
    """The Gram matrix lam(b_i b_j) of the functional ``lam``, as pair rows."""
    at = dict(lam)
    return [_canonical(table.field, {j: sum(c * at[k] for k, c in cell if k in at)
                                     for j, cell in enumerate(row) if cell})
            for row in table.mult]


def blocks(table: AlgebraTable) -> list[list[int]]:
    """The blocks of the algebra: the connected components of its vertices
    under e_i A e_j != 0, each an ascending list of vertex indices."""
    idem = [e for _, e in table.idempotents]
    label = list(range(len(idem)))
    one = table.field.one()
    for t in range(table.dim):
        for i, ei in enumerate(idem):
            left = table._mul(ei, ((t, one),))
            if not left:
                continue
            for j, ej in enumerate(idem):
                a, b = label[i], label[j]
                if a != b and table._mul(left, ej):
                    label = [a if x == b else x for x in label]
    groups: dict[int, list[int]] = {}
    for v, lab in enumerate(label):
        groups.setdefault(lab, []).append(v)
    return list(groups.values())


def idempotent_sum(table: AlgebraTable, vertices) -> tuple:
    """The sum of the idempotents at ``vertices``, as (k, c) pairs."""
    return combine_pairs(table.field, ((1, table.idempotents[v][1]) for v in vertices))


def _has_isomorphism(mats, projectors, fld) -> bool:
    """True iff for every projector P some T in ``mats`` is injective on the
    image of P: rank(B @ T) == rank(B) for a basis B of the rows of P,
    ranked in the field's row format.  Maps and projectors are pair rows.

    Each P is the action of one block idempotent, and the span of ``mats``
    a Hom space over a ring that is local on each block.  Where the span
    contains an isomorphism, the maps that fail on a block form a proper
    subspace, so some basis map is an isomorphism on that block; the sum
    of those maps cut down to their blocks is then an isomorphism.  So the
    answer is exact, and no combination needs to be searched."""
    fmt = row_format(fld)
    mats = [[fmt.pack(r) for r in T] for T in mats]

    def injective(basis, T) -> bool:
        span = fmt.span()
        return all(span.add(fmt.times(b, T)) for b in basis)

    for P in projectors:
        span = fmt.span()
        basis = [r for r in map(fmt.pack, P) if span.add(r)]
        if not any(injective(basis, T) for T in mats):
            return False
    return True


def is_symmetric(table: AlgebraTable) -> bool:
    """True or False: is there a symmetrising functional lam whose bilinear
    form b(x, y) = lam(xy) is nondegenerate?

    The Gram matrices of a basis of the symmetrising functionals span
    Hom(A, D(A)) as bimodules, a module over the centre of A, which is
    local on each block.  So A is symmetric iff, for each block, some
    basis Gram matrix is nondegenerate on it (``_has_isomorphism`` with the
    left multiplication x -> e*x by each block idempotent e)."""
    grams = [_gram(table, lam) for lam in symmetric_functional_space(table)]
    units = [((i, table.field.one()),) for i in range(table.dim)]
    projectors = [[table._mul(e, u) for u in units]
                  for e in (idempotent_sum(table, b) for b in blocks(table))]
    return _has_isomorphism(grams, projectors, table.field)


# ---------------------------------------------------------------------------
# algebra description files
# ---------------------------------------------------------------------------

def load_algebra(path_or_obj):
    """Load an algebra description (kind quiver | table | nakayama).

    Quiver descriptions are compiled; the return value is an AlgebraTable
    or a NakAlgebra depending on the kind.
    """
    if isinstance(path_or_obj, (str,)):
        with open(path_or_obj, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    else:
        obj = path_or_obj
    if not isinstance(obj, dict):
        raise ValueError("an algebra description must be a JSON object")
    kind = obj.get("kind")
    if kind == "nakayama":
        return nak.validate(obj["orientation"], obj["kupisch"])
    if kind == "quiver":
        return compile_quiver(QuiverSpec.from_json(obj))
    if kind == "table":
        return AlgebraTable.from_json(obj)
    raise ValueError(f"unknown algebra kind {kind!r}")


def save_algebra(obj, path: str) -> None:
    if not isinstance(obj, (nak.NakAlgebra, QuiverSpec, AlgebraTable)):
        raise TypeError(f"cannot serialise {type(obj)!r}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
