"""Linear-algebraic homological algebra over algebra tables.

Right modules are row-vector representations: a module of dimension d
assigns to each basis element of the algebra a d x d matrix, acting by
``m -> m @ act(b)``; multiplicativity ``act(u) @ act(v) = act(uv)`` is
the module axiom.  The matrices are stored as sparse rows: most entries
are zero in the modules a resolution builds.  Module vectors and algebra
elements are (k, c) pairs in the same format, k ascending and every c
nonzero, and a linear map (a Hom basis map, an endomorphism) is pair
rows, row i the image of unit vector i; dense rows appear only in the
dense views of a module.  Covers, resolutions and Ext hold their rows in
the format ``exactmath.row_format`` chooses for the field, packed ints
over F_2 and pairs otherwise, and run one body for both: a projective
cover computes in that format, one elimination
(``exactmath.left_kernel_rows``) gives its rank and its kernel in it,
the next cover takes that kernel as its rows, and the element matrices
and the images ranked by an Ext differential are rows of the format
too.  Modules are cut out of the regular module: the projectives e_vA
are its submodules (read off ``mult`` where the table has a certified
vertex grading, ``quivalg._vertex_grading``), and the powers J^k and
the uniserial bridges P_v / P_v J^k are read from one radical
filtration M > MJ > MJ^2 > ... per module.  Derived data (projectives,
projective sums per vertex tuple, action rows, radical layers, weight
spaces, covers per submodule, resolutions, Ext differential ranks per
target) is computed once per object and arguments by ``quivalg._memo``.
All functors here are computed through minimal projective resolutions
built from explicit projective covers.  A resolution keeps each syzygy
as rows of the projective term that contains it and covers it there, so
no syzygy is built as a module of its own.  The projective-injective
vertices are read from the socle of A_A, and the dominant dimension
dualises a resolution of D(A_A) over the opposite algebra.

Every potentially infinite search (dominant dimension, first
non-vanishing self-extension, their suprema) takes a cutoff and returns
a :class:`BoundedValue`.  Isomorphism questions (of modules, and of A
with D(A) in ``quivalg.is_symmetric``, which the gendo-symmetric test
asks of the corner eAe) are decided by rank checks on the basis maps of
a Hom space, one per block (``quivalg._has_isomorphism``); no coefficient
search runs.  Where a verdict needs End(M) to be split local (a module
isomorphism with no invertible basis map, and every summand of an
endomorphism algebra), that certificate is checked (``_local_end``) and
its absence raises :class:`PreconditionError`; no verdict is left open.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from typing import Optional

from .bounded import BoundedValue
from .exactmath import (
    SpanBuilder,
    combine_pairs,
    coords_against,
    left_kernel_rows,
    row_format,
)
from .quivalg import (
    AlgebraTable,
    _default_generators,
    _check_pairs,
    _dense,
    _has_isomorphism,
    _memo,
    _radical_top,
    _vertex_grading,
    corner_algebra,
    is_local,
    is_semisimple,
    is_symmetric,
    make_table,
    opposite,
    tensor_algebra,
)


class SemisimpleInputError(ValueError):
    """Semisimple algebras are outside the scope of the analysis entry points."""


class PreconditionError(ValueError):
    pass


def require_not_semisimple(table: AlgebraTable) -> None:
    if is_semisimple(table):
        raise SemisimpleInputError(f"{table.describe()} is semisimple")


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

class Representation:
    """A right module over an AlgebraTable: for each algebra basis element
    b_u, the matrix of m -> m @ act(b_u) (row-vector convention).

    The actions are stored only as sparse rows: ``rows[u][i]`` is row i of
    the action of b_u, a tuple of (column, coefficient) pairs, columns
    ascending and coefficients nonzero; ``verify`` checks them.  Module
    vectors and algebra elements are such pairs too, and ``apply`` and
    ``apply_element`` compute every vec @ action product on them.
    ``actions`` and ``element_action`` are dense views for tests."""

    def __init__(self, algebra: AlgebraTable, dim: int, rows, name: str = ""):
        self.algebra, self.dim, self.name = algebra, dim, name
        self._cache: dict = {}  # derived data, kept by ``quivalg._memo``
        if rows is not None:
            self.rows = tuple(tuple(m) for m in rows)

    @cached_property
    def rows(self) -> tuple:
        """Set by the constructor, or built from ``_actions`` when first
        read by a projective sum (``_projective_sum``, rows None)."""
        unpack = row_format(self.algebra.field).unpack
        return tuple(tuple(map(unpack, m)) for m in _actions(self)[:self.algebra.dim])

    def __repr__(self):
        label = self.name or "module"
        return f"<{label}: dim {self.dim} over {self.algebra.describe()}>"

    @property
    def actions(self) -> tuple:
        """Dense action matrices, one per basis element, built on each access."""
        zero = self.algebra.field.zero()
        return tuple(tuple(tuple(_dense(r, self.dim, zero)) for r in m) for m in self.rows)

    def apply(self, vec, u: int) -> tuple:
        """vec @ act(b_u)."""
        rows = self.rows[u]
        return combine_pairs(self.algebra.field, ((x, rows[i]) for i, x in vec))

    def apply_element(self, vec, a) -> tuple:
        """vec @ act(a) for an algebra element a."""
        return combine_pairs(self.algebra.field, ((c * x, self.rows[u][i]) for u, c in a for i, x in vec))

    def element_action(self, vec) -> list[list]:
        """Dense action matrix of an algebra element given as a coordinate vector."""
        terms = [(c, self.rows[u]) for u, c in enumerate(vec) if c]
        fld = self.algebra.field
        return [_dense(combine_pairs(fld, ((c, rows[i]) for c, rows in terms)), self.dim, fld.zero())
                for i in range(self.dim)]

    def verify(self) -> None:
        """Re-check the rows (one action per basis element, ``dim`` rows each,
        canonical pairs below column ``dim``) and the module axioms."""
        A = self.algebra
        if len(self.rows) != A.dim or any(len(m) != self.dim for m in self.rows):
            raise ValueError(f"expected {A.dim} actions of {self.dim} rows each")
        for u, m in enumerate(self.rows):
            _check_pairs(A.field, self.dim, m, lambda i: f"row {i} of the action of {A.basis_names[u]}")
        one = A.field.one()
        if any(self.apply_element(((i, one),), A.unit) != ((i, one),) for i in range(self.dim)):
            raise ValueError("unit does not act as the identity")
        for u in range(A.dim):
            for v in range(A.dim):
                # row i of act(b_u) @ act(b_v) against row i of act(b_u b_v)
                lhs = [self.apply(row, v) for row in self.rows[u]]
                rhs = [combine_pairs(A.field, ((c, self.rows[k][i]) for k, c in A.mult[u][v]))
                       for i in range(self.dim)]
                if lhs != rhs:
                    raise ValueError(
                        f"action violates structure constants on pair "
                        f"({A.basis_names[u]}, {A.basis_names[v]})"
                    )


def regular(table: AlgebraTable) -> Representation:
    """A as a right module over itself: row k of the action of b_u is
    b_k * b_u, the pairs ``mult[k][u]`` as they are.  Each call wraps the
    rows (``_regular_rows``) in a fresh module, so renaming one renames no
    other."""
    return Representation(table, table.dim, _regular_rows(table), name="regular")


@_memo
def _regular_rows(table: AlgebraTable) -> tuple:
    d = table.dim
    return tuple(tuple(table.mult[k][u] for k in range(d)) for u in range(d))


def _unit_rows(fld, dim: int) -> list[tuple]:
    """The unit vectors of a module of dimension ``dim``, as pairs: the identity map."""
    one = fld.one()
    return [((i, one),) for i in range(dim)]


def _flat(rows, width: int, offset: int = 0) -> tuple:
    """Pair rows over ``width`` columns side by side as one pair vector,
    row i from column offset + i * width on."""
    return tuple((offset + i * width + j, x) for i, row in enumerate(rows) for j, x in row)


def _compose(fld, U, V) -> list[tuple]:
    """U then V for linear maps as pair rows: row i of U times V."""
    return [combine_pairs(fld, ((x, V[j]) for j, x in row)) for row in U]


def submodule(M: Representation, rows, name: str = "") -> tuple[Representation, list[tuple]]:
    """Restrict M to the span of ``rows`` (must be action-stable).

    Returns (representation, RREF basis rows inside M)."""
    fld = M.algebra.field
    span = SpanBuilder(fld)
    for r in rows:
        span.add(r)
    basis, pivots = span.finish()
    actions = []
    for u in range(M.algebra.dim):
        mat = []
        for b in basis:
            coeffs = coords_against(fld, basis, pivots, M.apply(b, u))
            if coeffs is None:
                raise ValueError("rows are not action-stable")
            mat.append(coeffs)
        actions.append(mat)
    return Representation(M.algebra, len(basis), actions, name=name), basis


def quotient(M: Representation, rows, name: str = "") -> Representation:
    """Quotient of M by the span of ``rows`` (must be action-stable), on
    the unit rows of M at the columns that are not pivots of the span."""
    span = SpanBuilder(M.algebra.field)
    for r in rows:
        span.add(r)
    pivset = set(span.pivots)
    comp = {j: i for i, j in enumerate(j for j in range(M.dim) if j not in pivset)}
    # a unit row times an action is that row of the action; its residue
    # lies on the columns in comp

    def project(row):
        return tuple(sorted((comp[j], x) for j, x in span.residue(row).items()))

    actions = [[project(M.rows[u][j]) for j in comp] for u in range(M.algebra.dim)]
    return Representation(M.algebra, len(comp), actions, name=name)


def _image_span(M: Representation, rows, elements) -> SpanBuilder:
    """The span of r @ act(a) over the rows r of M and the algebra
    elements a, elements on the outside and rows on the inside."""
    span = SpanBuilder(M.algebra.field)
    for a in elements:
        for r in rows:
            img = M.apply_element(r, a)
            if img:
                span.add(img)
    return span


@_memo
def _radical_layer(M: Representation, k: int) -> tuple[list[tuple], list[int]]:
    """The RREF basis (rows, pivots) of M*J^k.  Layer 0 is M itself, and
    each further layer is the image span of the one before under the
    radical top (``_radical_top``), as N*J is the sum of the N*x; past the
    first zero layer, at the latest layer dim M, every layer is that one."""
    if k == 0:
        return _unit_rows(M.algebra.field, M.dim), list(range(M.dim))
    below = _radical_layer(M, min(k, M.dim + 1) - 1)
    if not below[0]:
        return below
    return _image_span(M, below[0], _radical_top(M.algebra)).finish()


def radical_rows(M: Representation) -> list[tuple]:
    """Rows spanning M*J."""
    return list(_radical_layer(M, 1)[0])


def top(M: Representation) -> Representation:
    return quotient(M, radical_rows(M), name=f"top({M.name})" if M.name else "top")


@_memo
def _projective_data(table: AlgebraTable, vertex: int) -> tuple[Representation, list[tuple], list]:
    """(P, basis, rows): the projective e_vA and its RREF basis inside A as
    pairs and as rows of the field's format (``_cut_projective``)."""
    if not 0 <= vertex < table.n_vertices:
        raise PreconditionError(
            f"vertex {vertex} out of range 0..{table.n_vertices - 1}")
    return _cut_projective(table, vertex, _vertex_grading(table))


def _cut_projective(table: AlgebraTable, vertex: int, grading) -> tuple[Representation, list[tuple], list]:
    """``_projective_data`` on the vertex degrees ``grading``.  Certified
    degrees make e_vA the span of the unit vectors b_u with left[u] = v,
    ascending, its RREF basis, and the action of b_x on it the cells
    ``mult[u][x]`` re-indexed.  With grading None, e_vA is cut out of the
    regular module by the rows e_v * b_u."""
    label, e = table.idempotents[vertex]
    if grading is None:
        R = regular(table)
        rows = (R.apply(e, u) for u in range(table.dim))
        P, basis = submodule(R, [r for r in rows if r], name=f"P({label})")
    else:
        index = [u for u, v in enumerate(grading[0]) if v == vertex]
        at = {u: i for i, u in enumerate(index)}
        mult = table.mult
        actions = [[tuple((at[k], c) for k, c in mult[u][x]) for u in index] for x in range(table.dim)]
        P = Representation(table, len(index), actions, name=f"P({label})")
        one = table.field.one()
        basis = [((u, one),) for u in index]
    return P, basis, [row_format(table.field).pack(r) for r in basis]


def projective(table: AlgebraTable, vertex: int) -> Representation:
    """The indecomposable projective e_v A with its right regular action.
    Each call wraps the cached rows in a fresh module, so renaming one
    renames no other."""
    P = _projective_data(table, vertex)[0]
    return Representation(table, P.dim, P.rows, name=P.name)


def simple(table: AlgebraTable, vertex: int) -> Representation:
    """Simple top of the projective at ``vertex``; one-dimensional in scope."""
    P = _projective_data(table, vertex)[0]
    S = top(P)
    if S.dim != 1:
        label = table.idempotents[vertex][0]
        raise ValueError(f"non-split top at vertex {label}: dim {S.dim}")
    S.name = f"S({table.idempotents[vertex][0]})"
    return S


def dual_representation(M: Representation, target: AlgebraTable) -> Representation:
    """K-dual of M, a right module over the opposite algebra (actions are
    the transposes).  ``target`` must be the opposite table of M.algebra."""
    if target.dim != M.algebra.dim:
        raise ValueError("dual target has the wrong dimension")
    actions = []
    for mat in M.rows:
        cols = [[] for _ in range(M.dim)]
        for i, row in enumerate(mat):
            for j, c in row:
                cols[j].append((i, c))
        actions.append([tuple(col) for col in cols])
    return Representation(target, M.dim, actions, name=f"D({M.name})" if M.name else "dual")


# ---------------------------------------------------------------------------
# projective covers and minimal resolutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cover:
    """A projective cover, shared by every caller that asks for it
    (``projective_cover``), so every field is a tuple."""
    vertices: tuple[int, ...]
    P: Representation
    offsets: tuple[int, ...]  # of the summand e_vA of each vertex in P
    # in the field's row format (``exactmath.row_format``): the cover map,
    # dim P rows over the dim M columns, and its kernel (``left_kernel_rows``)
    rows: tuple
    gen_rows: tuple[tuple[int, object], ...]  # (vertex, image row in M) per summand
    kernel: tuple


def _reduced_basis(fmt, rows) -> tuple[list, list[int]]:
    """A basis of the span of ``rows`` (in the row format ``fmt``) in which
    row k is 1 at column pivots[k] and every other row is 0 there.  Rows
    that already have this form at their last entries (``fmt.pivots``), as
    unit rows and the kernel of a cover (``Cover.kernel``, from
    ``left_kernel_rows``) do, are kept as they are, so a resolution step
    reduces no syzygy; others are brought to RREF."""
    rows = [r for r in rows if r]
    pivots = fmt.pivots(rows)
    if pivots is not None:
        return rows, pivots
    span = SpanBuilder(fmt.field)
    for r in rows:
        span.add(fmt.unpack(r))
    basis, pivots = span.finish()
    return [fmt.pack(b) for b in basis], pivots


@_memo
def _actions(M: Representation) -> list:
    """The action rows on M of the basis elements, the radical top and the
    vertex idempotents of A, in that order, in the field's row format."""
    A = M.algebra
    fmt = row_format(A.field)
    acts = [[fmt.pack(r) for r in rows] for rows in M.rows]
    cols = list(zip(*acts))  # cols[i][u]: row i of the action of b_u
    for a in map(fmt.pack, _radical_top(A) + [e for _, e in A.idempotents]):
        acts.append([fmt.times(a, col) for col in cols])  # row i of act(a) is a @ cols[i]
    return acts


@_memo
def _shifted_actions(table: AlgebraTable, vertex: int, offset: int) -> list:
    """The ``_actions`` of P_vertex moved to the columns from ``offset`` on,
    its summand in a projective sum."""
    fmt = row_format(table.field)
    return [[fmt.shift(r, offset) for r in m] for m in _actions(_projective_data(table, vertex)[0])]


@_memo
def _projective_sum(table: AlgebraTable, vertices: tuple[int, ...]) -> tuple[Representation, tuple[int, ...]]:
    """P = (+) P_v and the offsets of its summands, one P per vertex tuple,
    so the covers of its submodules (``projective_cover``) are kept on it
    for every resolution that reaches it.  Its ``_actions`` join the
    ``_shifted_actions`` of its summands; a resolution never reads its
    rows (``rows``)."""
    offsets, moved = [0], []
    for v in vertices:
        moved.append(_shifted_actions(table, v, offsets[-1]))
        offsets.append(offsets[-1] + _projective_data(table, v)[0].dim)
    P = Representation(table, offsets[-1], None, "(+)".join(f"P{v}" for v in vertices))
    _actions.put(P, [list(chain.from_iterable(a)) for a in zip(*moved)])
    return P, tuple(offsets[:-1])


def projective_cover(M: Representation, rows=None) -> Cover:
    """Minimal projective cover of the submodule U of M spanned by ``rows``
    (default: all of M), which must be nonzero, given in the field's row
    format (``exactmath.row_format``), as ``Cover.kernel`` holds them.
    One cover is kept per M and row tuple (``_cover``)."""
    return _cover(M, None if rows is None else tuple(rows))


@_memo
def _cover(M: Representation, rows: Optional[tuple]) -> Cover:
    """``projective_cover`` of the rows, None for all of M.

    Everything is computed in the coordinates of M, and U is never built
    as a module of its own.  U*J is spanned by the images of the rows
    under ``_radical_top``; the top generators are rows times vertex
    idempotents, picked while independent modulo U*J; the cover matrix
    (dim P rows over the dim M columns) maps each summand e_vA onto
    the submodule its generator spans.  One elimination gives its rank,
    which must be dim U (surjectivity), and its left kernel, the
    syzygy, which must lie in the radical of P (minimality).  Each
    generator is returned as its row in M.  Every vector is a row of the
    field's format, from the rows of ``_actions`` to the kernel.
    ValueError: U is not action-stable, that is a row of U*J or an
    idempotent image of a row leaves span(U)."""
    A = M.algebra
    fmt = row_format(A.field)
    if rows is None:
        rows = [fmt.pack(r) for r in _unit_rows(A.field, M.dim)]
    basis, pivots = _reduced_basis(fmt, rows)
    if not basis:
        raise ValueError("projective cover of the zero module")
    in_u = fmt.coordinates(basis, pivots, M.dim)

    def coords(vec):
        """Coordinates of a row of M in the basis of U."""
        c = in_u(vec)
        if c is None:
            raise ValueError("rows are not action-stable")
        return c

    acts, span = _actions(M), fmt.span()
    d, n = A.dim, A.n_vertices
    # U*J, in the coordinates of U; the top generators extend it to U
    for x in acts[d:-n]:
        for b in basis:
            img = fmt.times(b, x)
            if img:
                span.add(coords(img))
    need = len(basis) - span.rank
    gens: list[tuple[int, object]] = []
    for b in basis:
        for vi, e in enumerate(acts[-n:]):
            m = fmt.times(b, e)
            if m:
                c = coords(m)  # every image is checked, also once the top is full
                if len(gens) < need and span.add(c):
                    gens.append((vi, m))
    assert len(gens) == need, "top generators do not split by idempotents"
    vertices = tuple([vi for vi, _ in gens])
    P, offsets = _projective_sum(A, vertices)
    matrix = []
    for vi, m in gens:
        # the image of the basis row r of e_vA is m @ act(r) = sum_u r_u (m @ act(b_u))
        images = [fmt.times(m, rows) for rows in acts[:d]]
        matrix += [fmt.times(r, images) for r in _projective_data(A, vi)[2]]
    rank, kernel = left_kernel_rows(A.field, matrix, M.dim)
    # the images lie in U, which the generators cover modulo U*J
    if rank != len(basis):
        raise AssertionError("projective cover failed to surject")
    if kernel:
        # rad(P) is the sum of the rad(P_v): column j of P holds the (form,
        # coefficient) pairs of the top forms of its summand that read it, so
        # a kernel row times the columns gives the values of all the forms
        forms = [(off, form) for v, off in zip(vertices, offsets) for form in _top_forms(A, v)]
        reads: list[list] = [[] for _ in range(P.dim)]
        for i, (off, form) in enumerate(forms):
            for j, c in form:
                reads[off + j].append((i, c))
        cols = [fmt.pack(tuple(r)) for r in reads]
        if any(fmt.times(row, cols) for row in kernel):
            raise AssertionError("cover is not minimal: kernel escapes the radical")
    return Cover(vertices, P, offsets, tuple(matrix), tuple(gens), tuple(kernel))


@_memo
def _top_forms(table: AlgebraTable, vertex: int) -> list[tuple]:
    """Sparse linear forms on P_vertex whose common kernel is rad(P_vertex):
    for each non-pivot column j of the RREF basis of the radical, the entry
    at j of a vector reduced against that basis, as (k, c) pairs."""
    P = _projective_data(table, vertex)[0]
    fld = table.field
    rows, pivots = _radical_layer(P, 1)
    rows = [dict(r) for r in rows]
    pivset = set(pivots)
    return [tuple(sorted([(j, fld.one())] + [(c, fld.neg(r[j])) for r, c in zip(rows, pivots) if j in r]))
            for j in range(P.dim) if j not in pivset]


def syzygy(M: Representation) -> Representation:
    """Kernel of the projective cover (zero-dimensional for projectives)."""
    cov = projective_cover(M)
    unpack = row_format(M.algebra.field).unpack
    rep, _ = submodule(cov.P, map(unpack, cov.kernel), name=f"syz({M.name})" if M.name else "syzygy")
    return rep


def is_projective_rep(M: Representation) -> bool:
    return M.dim == 0 or projective_cover(M).P.dim == M.dim


class MinimalResolution:
    """Minimal projective resolution, extended on demand.

    ``levels[s]`` is the vertex tuple of the s-th projective term.
    ``maps[s]`` (s >= 1) is the connecting map P_s -> P_{s-1} written as
    an element matrix: entry [c][c'] is the algebra element carrying the
    c'-th generator of P_s into the c-th summand of P_{s-1}, a row in the
    field's row format (``exactmath.row_format``): an int over F_2, bit u
    for b_u, and (k, c) pairs otherwise.  Levels and maps are tuples, so
    the rank of Hom(maps[s], N) is kept per N and (maps[s], levels[s-1],
    levels[s]) (``_differential_rank``).
    ``kernel_dims[s]`` is dim of the (s+1)-st syzygy.

    Each syzygy is kept as the kernel rows inside the projective term it
    lies in, and covered there (``projective_cover`` with rows), so no
    syzygy is built as a module of its own, and its rows go from one cover
    to the next as they are.  The generators of P_s are then rows of
    P_{s-1}, and ``maps[s]`` is read from their summands.  The covers are
    kept per ambient module and rows, and the projective terms per vertex
    tuple (``_projective_sum``), so two resolutions whose syzygies meet
    share every cover from there on.
    """

    def __init__(self, M: Representation):
        require_not_semisimple(M.algebra)
        self.M = M
        self.levels: list[tuple[int, ...]] = []
        self.maps: list[Optional[tuple[tuple, ...]]] = [None]
        self.kernel_dims: list[int] = []
        # the next syzygy: rows (None for all of it) of its ambient module,
        # M and then the last projective term; None once a kernel is zero
        self._ambient: Optional[Representation] = M if M.dim else None
        self._rows: Optional[tuple] = None
        self._prev: Optional[tuple[tuple, tuple]] = None  # (vertices, offsets) of the last cover
        self.finished = False

    def extend_to(self, length: int) -> "MinimalResolution":
        while len(self.levels) < length and not self.finished:
            self._extend_once()
        return self

    def _extend_once(self) -> None:
        if self._ambient is None:
            self.finished = True
            return
        cov = projective_cover(self._ambient, self._rows)
        ker = cov.kernel
        self.levels.append(cov.vertices)
        if self._prev is not None:
            self.maps.append(self._element_matrix(cov.gen_rows))
        self._prev = (cov.vertices, cov.offsets)
        self.kernel_dims.append(len(ker))
        self._ambient, self._rows = (cov.P, ker) if ker else (None, None)

    def _element_matrix(self, gens) -> tuple[tuple, ...]:
        """Entry [c][gi]: the summand c of the generator gi, a row of the
        previous projective term (``Cover.gen_rows``), as an element of
        e_vA: its entries in the window of that summand times the basis
        rows of e_vA."""
        A = self.M.algebra
        fmt = row_format(A.field)
        out = []
        for v, off in zip(*self._prev):
            brows = _projective_data(A, v)[2]
            out.append(tuple([fmt.times(fmt.window(m, off, len(brows)), brows) for _, m in gens]))
        return tuple(out)


@_memo
def _resolution(M: Representation) -> MinimalResolution:
    """The one resolution of M, extended on demand (``extend_to``)."""
    return MinimalResolution(M)


def syzygy_dims(M: Representation, t: int) -> list[int]:
    """Dimensions of the first t syzygies of M."""
    if t < 1:
        raise ValueError("t must be >= 1")
    res = _resolution(M).extend_to(t)
    return [res.kernel_dims[s] if s < len(res.kernel_dims) else 0 for s in range(t)]


# ---------------------------------------------------------------------------
# Hom and Ext
# ---------------------------------------------------------------------------

@dataclass
class ExtTable:
    source: str
    target: str
    degrees: tuple[int, ...]  # dims of Ext^1 .. Ext^t
    hom: Optional[int] = None  # dim Hom, when requested

    def dim(self, t: int) -> int:
        if t == 0:
            if self.hom is None:
                raise ValueError("degree-0 entry was not requested")
            return self.hom
        return self.degrees[t - 1]

    def to_json(self):
        obj = {"source": self.source, "target": self.target,
               "degrees": list(self.degrees)}
        if self.hom is not None:
            obj["hom"] = self.hom
        return obj


@_memo
def _weights(N: Representation) -> list[tuple[list, list, object]]:
    """Per vertex v, the RREF basis of the weight space N e_v, as pairs and
    as rows of the field's format, and its ``coordinates``."""
    fld, weights = N.algebra.field, []
    fmt, units = row_format(fld), _unit_rows(fld, N.dim)
    for _, e in N.algebra.idempotents:
        pairs, pivots = _image_span(N, units, [e]).finish()
        rows = [fmt.pack(r) for r in pairs]
        weights.append((pairs, rows, fmt.coordinates(rows, pivots, N.dim)))
    return weights


@_memo
def _differential_rank(N: Representation, emat: tuple, src: tuple, tgt: tuple) -> int:
    """Rank of Hom(P_{s-1}, N) -> Hom(P_s, N), the right multiplication by
    the element matrix ``emat`` (``MinimalResolution.maps``) of P_s ->
    P_{s-1}, whose summands sit at the vertices ``src`` and ``tgt``.  A
    map is read on the weight basis of N at each summand.  The image of a
    basis row r under an entry a, r @ act(a), is checked against the
    target weight basis (``_weights``), and its coordinates
    there are joined, those of target summand c2 at offset c2 * dim N,
    into one row of a span.  Every row is in the field's row format.  The
    rank is kept per N and (emat, src, tgt), so the resolutions that share
    a differential (``MinimalResolution``) rank it once per target."""
    weights = _weights(N)
    fmt, dn = row_format(N.algebra.field), N.dim
    targets = [(c2, c2 * dn, weights[w][2]) for c2, w in enumerate(tgt) if weights[w][0]]
    if not targets or not any(weights[v][0] for v in src):
        return 0
    acts, span = _actions(N)[:N.algebra.dim], fmt.span()
    for v, entries in zip(src, emat):
        for r in weights[v][1]:
            img = fmt.zero
            for c2, off, coords in targets:
                x = coords(fmt.apply(r, entries[c2], acts))
                if x is None:
                    raise AssertionError("differential image left its weight space")
                img += fmt.shift(x, off)  # disjoint bits, or pairs in column order
            span.add(img)
    return span.rank


def ext_dims(M: Representation, N: Representation, t: int,
             include_hom: bool = False) -> ExtTable:
    """Dimensions of Ext^1..Ext^t(M, N) via Hom(-, N) on the minimal resolution.

    Hom(P_s, N) is split into weight spaces N e_i along the summands of
    P_s; the induced differentials are right multiplications by the
    element matrices of the resolution.  Levels 0..t+1 are read once, and
    levels past the end of a finite resolution count as zero.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    _require_same_algebra(M, N)
    ranks = [0]
    dims = _hom_complex(M, N, t, ranks)
    degrees = tuple(dims[s] - ranks[s] - ranks[s + 1] for s in range(1, t + 1))
    assert all(x >= 0 for x in degrees)
    hom = dims[0] - ranks[1] if include_hom else None
    return ExtTable(M.name or "M", N.name or "N", degrees, hom)


def _hom_complex(M: Representation, N: Representation, t: int, ranks: list[int]) -> list[int]:
    """dim Hom(P_s, N) for s = 0..t+1 over the minimal resolution of M,
    extended to level t+1 for the outgoing differential.  ``ranks[s]``,
    the rank of Hom(P_{s-1}, N) -> Hom(P_s, N) (ranks[0] = 0), is ranked
    in place up to s = t+1 for the s not in the list yet.  Levels past
    the end of a finite resolution count as zero."""
    res = _resolution(M).extend_to(t + 2)
    levels = res.levels[:t + 2]
    for s in range(len(ranks), t + 2):
        ranks.append(_differential_rank(N, res.maps[s], levels[s - 1], levels[s]) if s < len(levels) else 0)
    weights = _weights(N)
    dims = [sum(len(weights[v][0]) for v in verts) for verts in levels]
    return dims + [0] * (t + 2 - len(levels))


def _require_same_algebra(M: Representation, N: Representation) -> None:
    if M.algebra is not N.algebra:
        raise ValueError("modules live over different algebras")


@_memo
def _pair_cover(M: Representation) -> tuple[Cover, list[tuple], list[tuple]]:
    """The projective cover of M with its matrix and its kernel as pair
    rows, computed once per module: every Hom out of M reads it."""
    cov = projective_cover(M)
    unpack = row_format(M.algebra.field).unpack
    return cov, [unpack(r) for r in cov.rows], [unpack(k) for k in cov.kernel]


def hom_basis(M: Representation, N: Representation) -> list[list[tuple]]:
    """Basis of Hom_A(M, N), each map dM pair rows over dN columns, read
    from the projective cover P -> M and its kernel K (``_pair_cover``),
    as Ext is.

    A map P -> N sends the top generator of each summand e_vA to some n in
    N e_v (``_weights``) and so a basis row r of that summand to
    n @ act(r); these maps Phi span Hom(P, N).  Those that vanish on K,
    one left kernel, are the maps that factor through M.  The cover matrix
    C has rank dM, so each such Phi is C @ T for exactly one T: one
    elimination of C augmented by every Phi reads each T in the first dM
    rows of its RREF, in the window of its Phi."""
    _require_same_algebra(M, N)
    if M.dim == 0 or N.dim == 0:
        return []
    A, fld = M.algebra, M.algebra.field
    dm, dn = M.dim, N.dim
    cov, matrix, ker = _pair_cover(M)
    phis = []  # Hom(P, N), each map as {row of P: its image in N}
    for v, off in zip(cov.vertices, cov.offsets):
        brows = _projective_data(A, v)[1]
        for n in _weights(N)[v][0]:
            phis.append({off + j: N.apply_element(n, r) for j, r in enumerate(brows)})
    # phi restricted to K, the images of the kernel rows side by side
    on_ker = [_flat([combine_pairs(fld, ((x, phi.get(i, ())) for i, x in row)) for row in ker], dn)
              for phi in phis]
    _, through_m = left_kernel_rows(fld, on_ker, len(ker) * dn)
    # row p of [C | Phi_1 | ... | Phi_h], Phi_h at column dm + h * dn
    span = SpanBuilder(fld)
    for p, c in enumerate(matrix):
        span.add(c + _flat([combine_pairs(fld, ((x, phis[h].get(p, ())) for h, x in r))
                            for r in through_m], dn, dm))
    rows, pivots = span.finish()
    if pivots[dm:]:
        raise AssertionError("a map that vanishes on the kernel does not factor through M")
    return [[tuple((j - off, x) for j, x in row if off <= j < off + dn) for row in rows]
            for off in range(dm, dm + len(through_m) * dn, dn)]


def dim_hom(M: Representation, N: Representation) -> int:
    return len(hom_basis(M, N))


def modules_isomorphic(M: Representation, N: Representation) -> bool:
    """True or False: does an invertible intertwiner exist?

    True when some basis map of Hom(M, N) is invertible.  When End(M) is
    split local (``_require_local_end``), the maps M -> N that are not
    isomorphisms form a proper subspace whenever M = N, so no invertible
    basis map means False.  Without that certificate (a decomposable M,
    or one whose End is not split) the call raises PreconditionError.
    """
    _require_same_algebra(M, N)
    if M.dim != N.dim:
        return False
    if M.dim == 0:
        return True
    fld = M.algebra.field
    if _has_isomorphism(hom_basis(M, N), [_unit_rows(fld, M.dim)], fld):
        return True
    _require_local_end(M)
    return False


# ---------------------------------------------------------------------------
# dominant dimension, phi, delta
# ---------------------------------------------------------------------------

@_memo
def _op_table(table: AlgebraTable) -> AlgebraTable:
    op = opposite(table)
    _op_table.put(op, table)
    _radical_top.put(op, _radical_top(table))  # same J and J^2 as the table
    grading = _vertex_grading(table)  # b_u in e_v A e_w is in e_w A^op e_v
    _vertex_grading.put(op, grading and grading[::-1])
    return op


def dual_regular(table: AlgebraTable) -> Representation:
    """D(A) as a right module: dual of the regular module of the opposite."""
    op = _op_table(table)
    rep = dual_representation(regular(op), table)
    rep.name = "D(A)"
    return rep


def enveloping(table: AlgebraTable):
    """A (x) A^op, together with the regular bimodule as a right module
    over it: (u (x) v) acts by m -> v*m*u.

    Returns (enveloping table, Representation of the regular bimodule).
    """
    env = tensor_algebra(table, _op_table(table))
    env.provenance.update({"kind": "enveloping"})
    d = table.dim
    R = regular(table)
    actions = []
    for i in range(d):
        for j in range(d):
            # row k: b_j * b_k * b_i, the sum of c * b_t b_i over the (t, c) of b_j b_k
            actions.append([R.apply(cell, i) for cell in table.mult[j]])
    return env, Representation(env, d, actions, name="regular-bimodule")


@_memo
def projective_injective_vertices(table: AlgebraTable) -> set[int]:
    """Vertices w whose injective I_w = D(Ae_w) is projective, i.e. is some
    P_v = e_vA.  On a split basic algebra (``verify_table``) that holds iff
    soc(e_vA) is S_w, one-dimensional, and dim e_vA = dim Ae_w, as P_v
    embeds in I_w, the envelope of its socle.  soc(e_vA) = e_v soc(A_A),
    and soc(A_A) is the left kernel of right multiplication by the radical
    top, which generates J as a right ideal.  No injective module is built."""
    return _pi_vertices(table, _vertex_grading(table))


def _pi_vertices(table: AlgebraTable, grading) -> set[int]:
    """``projective_injective_vertices`` on the vertex degrees ``grading``.
    Certified degrees make e_v soc the socle rows restricted to left = v,
    dim e_vA the count of left = v and dim Ae_w that of right = w, and put
    a one-dimensional e_v soc, a right submodule, in one e_v A e_w.  With
    grading None, each is an image span in the regular module."""
    fld, d = table.field, table.dim
    R, units = regular(table), _unit_rows(fld, d)
    gens = _radical_top(table)
    # row u: the products b_u x over the radical top, side by side
    right_mult = [tuple((k * d + j, c) for k, x in enumerate(gens) for j, c in R.apply_element(u, x))
                  for u in units]
    _, soc = left_kernel_rows(fld, right_mult, len(gens) * d)
    if grading is not None:
        left, right = grading
        vertices = set()
        for v in range(table.n_vertices):
            span = SpanBuilder(fld)
            for s in soc:
                span.add(tuple((k, c) for k, c in s if left[k] == v))
            if span.rank == 1:
                w = right[span.rows[0][0][0]]  # the degree of its every term
                if left.count(v) == right.count(w):
                    vertices.add(w)
        return vertices
    idem = [e for _, e in table.idempotents]
    dim_ae = cache(lambda w: _image_span(R, units, [idem[w]]).rank)  # dim Ae_w
    vertices = set()
    for e in idem:
        soc_v, _ = _image_span(R, [e], soc).finish()
        if len(soc_v) == 1:
            w = next(w for w, f in enumerate(idem) if R.apply_element(soc_v[0], f))
            if _image_span(R, [e], units).rank == dim_ae(w):
                vertices.add(w)
    return vertices


def is_selfinjective(table: AlgebraTable) -> bool:
    """Every injective is projective."""
    return len(projective_injective_vertices(table)) == table.n_vertices


def domdim(table: AlgebraTable, cutoff: int) -> BoundedValue:
    """Dominant dimension via the dual of a minimal projective resolution
    of D(A) over the opposite algebra."""
    if cutoff < 1:
        raise PreconditionError("cutoff must be >= 1")
    require_not_semisimple(table)
    PI = projective_injective_vertices(table)
    op = _op_table(table)
    co_reg = dual_representation(regular(table), op)
    co_reg.name = "D(A_A)"
    res = _resolution(co_reg)
    for s in range(cutoff):
        res.extend_to(s + 1)
        if s >= len(res.levels):
            return BoundedValue.at_least(cutoff)  # coresolution terminated
        if any(v not in PI for v in res.levels[s]):
            return BoundedValue.finite(s)
    return BoundedValue.at_least(cutoff)


def _first_nonzero_ext(M: Representation, N: Representation, cutoff: int) -> BoundedValue:
    """First degree r in [1, cutoff] with Ext^r(M, N) nonzero.  The
    resolution grows with r, and each differential is ranked once."""
    ranks = [0]
    for r in range(1, cutoff + 1):
        if r >= len(_resolution(M).extend_to(r + 2).levels):
            return BoundedValue.at_least(cutoff)  # finite projective dimension, all higher Ext vanish
        dims = _hom_complex(M, N, r, ranks)
        if dims[r] - ranks[r] - ranks[r + 1] > 0:
            return BoundedValue.finite(r)
    return BoundedValue.at_least(cutoff)


def phi(M: Representation, cutoff: int) -> BoundedValue:
    """First degree r in [1, cutoff] with Ext^r(M, M) nonzero."""
    if cutoff < 1:
        raise PreconditionError("cutoff must be >= 1")
    require_not_semisimple(M.algebra)
    if is_projective_rep(M):
        raise PreconditionError("phi is undefined on projective modules")
    return _first_nonzero_ext(M, M, cutoff)


def delta(table: AlgebraTable, cutoff: int, witnesses=None,
          witnesses_complete: bool = False) -> BoundedValue:
    """Supremum of phi over non-projective generator-cogenerators.

    Without witnesses the algebra must not be selfinjective and the value
    is the first degree with Ext^r(D(A), A) nonzero.  With a witness
    family of modules the result is the maximum of their phi values --
    exact when the family is certified complete, otherwise a lower bound.
    """
    require_not_semisimple(table)
    if witnesses is not None:
        nonproj = [W for W in witnesses if not is_projective_rep(W)]
        if not nonproj:
            raise PreconditionError("witness family contains no non-projective module")
        bound = 0
        all_finite = True
        for W in nonproj:
            r = phi(W, cutoff)
            bound = max(bound, r.value)
            all_finite = all_finite and r.is_finite
        if witnesses_complete and all_finite:
            return BoundedValue.finite(bound)
        return BoundedValue.at_least(bound)
    if is_selfinjective(table):
        raise PreconditionError(
            "delta of a selfinjective algebra needs an explicit witness family"
        )
    return _first_nonzero_ext(dual_regular(table), regular(table), cutoff)


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

@dataclass
class IdealModule:
    rep: Representation
    rows: list[tuple]  # RREF basis inside the algebra

    @property
    def dim(self) -> int:
        return len(self.rows)


def ideal_module(table: AlgebraTable, generators) -> IdealModule:
    """Smallest two-sided ideal containing the generators (elements as
    (k, c) pairs), as a right module.  It is closed under products with
    the idempotents and the radical top (``_default_generators``), which
    generate A by the verified axioms."""
    gens = [g for g in generators if g]
    if not gens:
        raise PreconditionError("ideal generators are all zero")
    fld = table.field
    span = SpanBuilder(fld)
    work = [g for g in gens if span.add(g)]
    sides = _default_generators(table)
    while work:
        v = work.pop()
        for g in sides:
            for prod in (table._mul(v, g), table._mul(g, v)):
                if prod and span.add(prod):
                    work.append(prod)
    rep, basis = submodule(regular(table), span.rows, name="ideal")
    return IdealModule(rep, basis)


def radical_power(table: AlgebraTable, k: int) -> IdealModule:
    """J^k with its right module structure (dim 0 above the Loewy length):
    layer k of the radical filtration of the regular module."""
    if k < 1:
        raise ValueError("k must be >= 1")
    R = regular(table)
    rep, basis = submodule(R, _radical_layer(R, k)[0], name=f"J^{k}")
    return IdealModule(rep, basis)


@dataclass
class IdealRigidityReport:
    algebra: str
    ideal_dim: int
    hom_to_quotient: int
    ext1_self: int
    local: bool
    holds: bool

    def to_json(self):
        return {
            "algebra": self.algebra,
            "ideal_dim": self.ideal_dim,
            "dim_hom_X_AmodX": self.hom_to_quotient,
            "dim_ext1_X_X": self.ext1_self,
            "local": self.local,
            "holds": self.holds,
        }


def check_ideal_rigidity(table: AlgebraTable, X: IdealModule) -> IdealRigidityReport:
    """For a symmetric algebra and a nontrivial proper two-sided ideal X:
    report dim Hom(X, A/X) and dim Ext^1(X, X) and check that the first
    being nonzero forces the second nonzero (and, for local algebras,
    that the first is nonzero unconditionally)."""
    require_not_semisimple(table)
    if not is_symmetric(table):
        raise PreconditionError("ideal rigidity check requires a symmetric algebra")
    if not 0 < X.dim < table.dim:
        raise PreconditionError("ideal must be nontrivial and proper")
    quot = quotient(regular(table), X.rows, name="A/X")
    hom = dim_hom(X.rep, quot)
    ext1 = ext_dims(X.rep, X.rep, 1).dim(1)
    local = is_local(table)
    holds = True
    if local and hom == 0:
        holds = False
    if hom != 0 and ext1 == 0:
        holds = False
    return IdealRigidityReport(table.describe(), X.dim, hom, ext1, local, holds)


# ---------------------------------------------------------------------------
# endomorphism algebras
# ---------------------------------------------------------------------------

def _nilpotent_part(T, fld, dim: int):
    """T - lambda*I for the scalar lambda that makes it nilpotent, or None
    when there is none (T has no single eigenvalue in the field).  Such a
    lambda is trace(T)/dim whenever dim is invertible in the field.  A
    map is nilpotent iff its power of exponent 2^s >= dim is zero."""
    if fld.kind == "prime" and dim % fld.p == 0:
        lambdas = [fld.of_int(x) for x in range(fld.p)]
    else:
        trace = sum(dict(row).get(i, 0) for i, row in enumerate(T))
        lambdas = [fld.mul(trace, fld.inv(fld.of_int(dim)))]
    for lam in lambdas:
        nil = power = [combine_pairs(fld, ((1, row), (fld.neg(lam), unit)))
                       for row, unit in zip(T, _unit_rows(fld, dim))]
        for _ in range((dim - 1).bit_length()):
            power = _compose(fld, power, power)
        if not any(power):
            return nil
    return None


def _local_end(ends, fld, dim: int) -> bool:
    """Certificate that the endomorphism ring spanned by ``ends`` is split
    local: every basis element is a scalar plus a nilpotent, and the
    nilpotent parts span a nilpotent subspace I (I^m = 0) of codimension
    one.  Such an I is a two-sided ideal: a product of its elements is
    nilpotent, and a nilpotent element of k*1 + I lies in I."""
    nil = [_nilpotent_part(T, fld, dim) for T in ends]
    if any(N is None for N in nil):
        return False
    span = SpanBuilder(fld)
    for N in nil:
        span.add(_flat(N, dim))
    if span.rank != len(ends) - 1:
        return False
    current = nil  # a basis of I^s, s = 1, 2, ...
    for _ in range(len(ends) + 1):
        if not current:
            return True
        nxt = SpanBuilder(fld)
        current = [W for W in (_compose(fld, U, V) for U in current for V in nil)
                   if nxt.add(_flat(W, dim))]
    return not current


def _require_local_end(M: Representation) -> list[list[tuple]]:
    """A basis of End(M), certified split local (``_local_end``), which
    makes M indecomposable.  Raises PreconditionError naming M without the
    certificate: M is decomposable, or End(M) is local with a top larger
    than the field."""
    ends = hom_basis(M, M)
    if not _local_end(ends, M.algebra.field, M.dim):
        name = M.name or "?"
        raise PreconditionError(
            f"End({name}) is not split local: {name} is decomposable "
            "or its endomorphism ring is not split"
        )
    return ends


def endomorphism_algebra(summands: list[Representation]) -> AlgebraTable:
    """End(M) for M the direct sum of pairwise non-isomorphic summands,
    each with a split local endomorphism ring, as an algebra table.

    Basis elements are homomorphisms between summands, the RREF basis of
    each Hom block; the product u*v is "u then v" (composition read left
    to right), so the summand identity maps are the complete set of
    orthogonal primitive idempotents.
    """
    if not summands:
        raise ValueError("empty summand list")
    fld = summands[0].algebra.field
    ends = [_require_local_end(M) for M in summands]
    # each summand has a split local End now, so these verdicts are decided
    for i in range(len(summands)):
        for j in range(i + 1, len(summands)):
            if modules_isomorphic(summands[i], summands[j]):
                raise PreconditionError("summands must be pairwise non-isomorphic")
    k = len(summands)
    dims = [M.dim for M in summands]
    hom_rref = {}  # (a, b) -> (offset in the basis, RREF rows of the flat maps, pivots)
    basis = []  # (a, b, map as pair rows)
    names = []
    for a in range(k):
        for b in range(k):
            span = SpanBuilder(fld)
            for T in ends[a] if a == b else hom_basis(summands[a], summands[b]):
                span.add(_flat(T, dims[b]))
            rows, pivots = span.finish()
            hom_rref[(a, b)] = (len(basis), rows, pivots)
            for idx, r in enumerate(rows):
                basis.append((a, b, [tuple((j % dims[b], x) for j, x in r if j // dims[b] == i)
                                     for i in range(dims[a])]))
                names.append(f"h{a}to{b}_{idx}")

    def element(a, b, T) -> tuple:
        """The map T: M_a -> M_b as (index, coefficient) pairs in the basis."""
        offset, rows, pivots = hom_rref[(a, b)]
        coeffs = coords_against(fld, rows, pivots, _flat(T, dims[b]))
        if coeffs is None:
            raise AssertionError(f"a map outside Hom(m{a}, m{b})")
        return tuple((offset + t, c) for t, c in coeffs)

    mult = [[element(a1, b2, _compose(fld, T1, T2))  # "T1 then T2"
             if b1 == a2 else () for (a2, b2, T2) in basis] for (a1, b1, T1) in basis]
    idem = [(M.name or f"m{a}", element(a, a, _unit_rows(fld, M.dim)))
            for a, M in enumerate(summands)]
    # off the diagonal every map is radical; on it, the nilpotent part
    # exists because End(M_a) is split local
    radical = [element(a, b, T if a != b else _nilpotent_part(T, fld, dims[a]))
               for a, b, T in basis]
    return make_table(
        field=fld,
        basis_names=names,
        mult=mult,
        unit=combine_pairs(fld, ((1, e) for _, e in idem)),
        idempotents=idem,
        radical=[v for v in radical if v],
        provenance={"kind": "endomorphism",
                    "summands": [M.name or f"m{i}" for i, M in enumerate(summands)]},
    )


# ---------------------------------------------------------------------------
# gendo-symmetric test
# ---------------------------------------------------------------------------

def is_gendo_symmetric(table: AlgebraTable, cutoff: int) -> bool:
    """True or False: is A gendo-symmetric, i.e. End_B(M) for a symmetric
    algebra B and a generator M?  Let e be the sum of the idempotents at
    the projective-injective vertices.

    By Morita-Tachikawa, domdim A >= 2 holds exactly when A = End_{eAe}(Ae)
    with Ae a generator of eAe, and then B = eAe up to Morita equivalence;
    so A is gendo-symmetric iff domdim A >= 2 and eAe is symmetric
    (Fang-Koenig's D(Ae) = eA as bimodules is the same condition).
    ``quivalg.is_symmetric`` decides eAe = D(eAe) by rank checks on Gram
    matrices."""
    if cutoff < 2:
        raise PreconditionError("cutoff must be >= 2 to settle domdim >= 2")
    require_not_semisimple(table)
    dd = domdim(table, cutoff)
    if dd.is_finite and dd.value < 2:
        return False
    labels = [table.idempotents[v][0] for v in sorted(projective_injective_vertices(table))]
    return is_symmetric(corner_algebra(table, labels)[0])


# ---------------------------------------------------------------------------
# Nakayama bridge
# ---------------------------------------------------------------------------

def bridged_module(table: AlgebraTable, vertex: int, length: int) -> Representation:
    """The uniserial module P_vertex / (its length-th radical power) over a
    bridged Nakayama table."""
    P = _projective_data(table, vertex)[0]
    return quotient(P, _radical_layer(P, length)[0], name=f"M({vertex},{length})")
