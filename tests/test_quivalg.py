import dataclasses
import hashlib
import json
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from domdimlab import homology as hml
from domdimlab import nakayama as nak
from domdimlab import quivalg as qa
from domdimlab.bounded import BoundedValue
from domdimlab.exactmath import (F2, F3, QQ, SpanBuilder, kernel_rows, matmul_rows, rank_rows, rref_rows,
                                 sparse_row)
from domdimlab.suites import cyclic_series


def basis_vec(table, i: int) -> list:
    """The basis element b_i as a dense coordinate vector."""
    return qa._dense(((i, table.field.one()),), table.dim, table.field.zero())


LOOPS = qa.QuiverSpec(
    vertices=("v0",),
    arrows=(qa.Arrow("a", "v0", "v0"), qa.Arrow("b", "v0", "v0")),
    relations=("a*a", "b*b - a*b*a"),
    loewy_bound=5,
    field=F2,
)


# -- relation parsing ---------------------------------------------------------

def test_parse_single_squared_loop():
    expr = qa.parse_relation("a*a", LOOPS)
    assert len(expr.terms) == 1
    term = expr.terms[0]
    assert term.coeff == 1 and term.path == ("a", "a")


def test_parse_hopf_relation():
    expr = qa.parse_relation("b*b - a*b*a", LOOPS)
    coeffs = {t.path: t.coeff for t in expr.terms}
    assert coeffs == {("b", "b"): 1, ("a", "b", "a"): -1}


def test_parse_integer_coefficients():
    expr = qa.parse_relation("2*a*b - 3*b", LOOPS)
    coeffs = {t.path: t.coeff for t in expr.terms}
    assert coeffs == {("a", "b"): 2, ("b",): -3}


def test_parse_combines_like_terms_over_z():
    expr = qa.parse_relation("a*b + a*b", LOOPS)
    assert {t.coeff for t in expr.terms} == {2}
    assert qa.parse_relation("a - a", LOOPS).terms == ()


def test_parse_vertex_names_denote_idempotents():
    expr = qa.parse_relation("v0*a*v0", LOOPS)
    assert expr.terms[0].path == ("a",)


def test_parse_noncomposable_path():
    two = qa.QuiverSpec(
        vertices=("v0", "v1", "v2"),
        arrows=(qa.Arrow("a", "v0", "v0"), qa.Arrow("c", "v1", "v2")),
        relations=(),
        loewy_bound=3,
        field=QQ,
    )
    with pytest.raises(qa.NonComposableError):
        qa.parse_relation("a*c", two)


def test_parse_unknown_name():
    with pytest.raises(qa.UnknownNameError):
        qa.parse_relation("a*zz", LOOPS)


def test_parse_syntax_error_carries_position():
    with pytest.raises(qa.RelationSyntaxError) as err:
        qa.parse_relation("a*+b", LOOPS)
    assert "position" in str(err.value)
    with pytest.raises(qa.RelationSyntaxError):
        qa.parse_relation("3 a", LOOPS)  # coefficient must be glued with '*'


def test_parse_rejects_leading_sign():
    # the grammar has no unary minus: expr := term (("+"|"-") term)*
    with pytest.raises(qa.RelationSyntaxError):
        qa.parse_relation("-a*b", LOOPS)


def test_parse_rejects_trailing_operator():
    with pytest.raises(qa.RelationSyntaxError):
        qa.parse_relation("a*b -", LOOPS)


MALFORMED = {
    "unknown-name": ("a*zz", qa.UnknownNameError),
    "operator-after-star": ("a*+b", qa.RelationSyntaxError),
    "coefficient-without-star": ("3 a", qa.RelationSyntaxError),
    "leading-sign": ("-a*b", qa.RelationSyntaxError),
    "trailing-operator": ("a*b -", qa.RelationSyntaxError),
}


@pytest.mark.parametrize("text, error", MALFORMED.values(), ids=MALFORMED.keys())
def test_element_from_expr_rejects_malformed_relations(text, error):
    # one grammar: elements of the compiled table fail like relations do
    with pytest.raises(error):
        qa.parse_relation(text, LOOPS)
    with pytest.raises(error):
        qa.compile_quiver(LOOPS).element_from_expr(text)


def test_compile_arrow_rewriting_relation():
    # a length-1 term rewrites the arrow away; the quotient is k[b]/(b^4)
    # and the rewritten arrow's image must stay in the generator set
    spec = qa.QuiverSpec(
        vertices=("v0",),
        arrows=(qa.Arrow("a", "v0", "v0"), qa.Arrow("b", "v0", "v0")),
        relations=("a - b*b", "b*b*b*b"),
        loewy_bound=5,
        field=QQ,
    )
    table = qa.compile_quiver(spec)
    assert table.basis_names == ("v0", "b", "b*b", "b*b*b")
    from domdimlab import homology as hml

    R = hml.regular(table)
    assert hml.dim_hom(R, R) == 4  # commutative: End(A) = A
    assert qa.is_symmetric(table) is True


def test_compile_mixed_endpoint_relation():
    # a relation whose terms sit at different vertices acts through its
    # composable pieces only; here it just kills both length-2 paths
    spec = qa.QuiverSpec(
        vertices=("v0", "v1"),
        arrows=(qa.Arrow("a", "v0", "v1"), qa.Arrow("b", "v1", "v0")),
        relations=("a*b + b*a",),
        loewy_bound=3,
        field=QQ,
    )
    table = qa.compile_quiver(spec)
    # paths e0, e1, a, b survive; ab and ba die separately (e0*(ab+ba)*e0 = ab)
    assert table.dim == 4


# -- compilation --------------------------------------------------------------

def test_compile_truncated_polynomial():
    spec = qa.QuiverSpec(("v0",), (qa.Arrow("x", "v0", "v0"),),
                         ("x*x*x*x",), 4, QQ)
    table = qa.compile_quiver(spec)
    assert table.dim == 4
    assert qa.loewy_length(table) == 4


def test_compile_hopf_a5_dim8():
    table = qa.compile_quiver(LOOPS)
    assert table.dim == 8
    # the squared loop is rewritten to the longer normal form
    assert "a*b*a" in table.basis_names
    assert "b*b" not in table.basis_names


def test_compile_dihedral_presentation_dim8():
    spec = qa.QuiverSpec(
        vertices=("v0",),
        arrows=(qa.Arrow("x", "v0", "v0"), qa.Arrow("y", "v0", "v0")),
        relations=("x*x", "y*y", "x*y*x*y - y*x*y*x"),
        loewy_bound=5,
        field=F2,
    )
    assert qa.compile_quiver(spec).dim == 8


def test_compile_rejects_uncertified_loewy_bound():
    bad = qa.QuiverSpec(("v0",),
                        (qa.Arrow("a", "v0", "v0"), qa.Arrow("b", "v0", "v0")),
                        ("a*a",), 3, F2)
    with pytest.raises(qa.LoewyBoundError):
        qa.compile_quiver(bad)


def test_compile_rejects_field_degenerate_relation():
    spec = qa.QuiverSpec(("v0",), (qa.Arrow("x", "v0", "v0"),),
                         ("2*x*x", "x*x*x"), 3, F2)
    with pytest.raises(qa.CompileError, match="degenerate"):
        qa.compile_quiver(spec)


def test_compile_rejects_trivial_path_terms():
    spec = qa.QuiverSpec(("v0",), (qa.Arrow("x", "v0", "v0"),),
                         ("x*x - v0",), 3, QQ)
    with pytest.raises(qa.CompileError, match="trivial-path"):
        qa.compile_quiver(spec)


def test_compile_determinism():
    a = qa.compile_quiver(LOOPS)
    b = qa.compile_quiver(LOOPS)
    assert a.basis_names == b.basis_names
    assert a.mult == b.mult
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


def test_monomial_dimension_is_field_independent():
    A = nak.validate(nak.CYCLE, (3, 4, 4))
    dims = {qa.nakayama_to_table(A, fld).dim for fld in (F2, F3, QQ)}
    assert dims == {11}


# -- presets ------------------------------------------------------------------

def test_preset_hopf():
    table = qa.preset("hopf-a5-f2")
    assert table.dim == 8 and qa.is_local(table)


def test_preset_preproj_a2():
    table = qa.preset("preproj-a2")
    assert table.dim == 4
    assert table.n_vertices == 2
    assert hml.is_selfinjective(table)


def test_preset_truncated_poly():
    table = qa.preset("truncated-poly(3,F3)")
    assert table.dim == 3 and qa.is_local(table)
    assert qa.is_symmetric(table) is True
    assert table.field == F3


def test_preset_group_algebras_are_local_symmetric():
    for name in ("dihedral8-f2", "quaternion8-f2"):
        table = qa.preset(name)
        assert table.dim == 8 and qa.is_local(table)
        assert qa.is_symmetric(table) is True


def test_preset_unknown_name():
    with pytest.raises(KeyError):
        qa.preset("does-not-exist")


# -- bridge -------------------------------------------------------------------

def test_nakayama_to_table_dims():
    assert qa.nakayama_to_table(nak.validate(nak.CYCLE, (2, 2)), F2).dim == 4
    t = qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 3)), F3)
    assert t.dim == 6 and qa.is_symmetric(t) is True
    line = qa.nakayama_to_table(nak.validate(nak.LINE, (2, 1)), QQ)
    assert line.dim == 3
    assert not line.provenance.get("spec", {}).get("relations")  # hereditary


def test_symmetric_rule_cross_validation():
    # the Gram rank checks must reproduce the c = 1 (mod n) classification
    for kup in [(2, 2), (3, 3), (4, 4), (5, 5), (3, 3, 3), (4, 4, 4)]:
        A = nak.validate(nak.CYCLE, kup)
        table = qa.nakayama_to_table(A, F3)
        assert qa.is_symmetric(table) is nak.is_symmetric(A)
    for kup in cyclic_series(1, 3, 5):
        A = nak.validate(nak.CYCLE, kup)
        for fld in (F2, F3, QQ):
            table = qa.nakayama_to_table(A, fld)
            assert qa.is_symmetric(table) is nak.is_symmetric(A), (kup, fld)


def test_symmetric_undetermined_when_budget_runs_out():
    # no search budget exists any more, so the verdict on preproj-a2 that a
    # budget of one tuple used to leave open is now decided
    assert not hasattr(qa, "SEARCH_BUDGET")
    assert qa.is_symmetric(qa.preset("preproj-a2")) is False


def test_symmetric_decision_over_q():
    # over Q the negative answer is certified by the determinant polynomial
    # vanishing on the whole degree grid
    assert qa.is_symmetric(qa.nakayama_to_table(nak.validate(nak.CYCLE, (4, 4)), QQ)) is False
    assert qa.is_symmetric(qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 3)), QQ)) is True
    assert hml.is_selfinjective(qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 3)), QQ))


SYMMETRIC_FUNCTIONAL_CASES = {
    **{name: (lambda name=name: qa.preset(name)) for name in (
        "hopf-a5-f2", "dihedral8-f2", "quaternion8-f2", "preproj-a2",
        "truncated-poly(3,F2)", "truncated-poly(3,F3)", "truncated-poly(4,Q)")},
    "cycle-34-F2": lambda: _cyclic_bridge((3, 4), F2),
    "cycle-334-F3": lambda: _cyclic_bridge((3, 3, 4), F3),
    "cycle-23-Q": lambda: _cyclic_bridge((2, 3), QQ),
    "line-321-Q": lambda: qa.nakayama_to_table(nak.validate(nak.LINE, (3, 2, 1)), QQ),
    "rebased-3334-F3": lambda: _rebased(_cyclic_bridge((3, 3, 3, 4), F3), 2),
}


@pytest.mark.parametrize("name", list(SYMMETRIC_FUNCTIONAL_CASES))
def test_symmetric_functionals_match_the_dense_commutator_kernel(name):
    # one left kernel of the transposed commutators gives, as pairs, the
    # basis that kernel_rows gives for the dense commutator rows
    table = SYMMETRIC_FUNCTIONAL_CASES[name]()
    fld, d = table.field, table.dim
    rows = []
    for i in range(d):
        for j in range(i + 1, d):
            row = qa._dense(table.mult[i][j], d, fld.zero())
            for k, c in table.mult[j][i]:
                row[k] = fld.sub(row[k], c)
            rows.append(row)
    want = [sparse_row(r) for r in kernel_rows(fld, rows, d)]
    assert want and qa.symmetric_functional_space(table) == want


def test_table_engine_binds_no_dense_helper():
    # linear maps in the table engine are pair rows; the dense row helpers
    # of exactmath serve Matrix and the test references only
    for mod in (hml, qa):
        for name in ("rref_rows", "matmul_rows", "rank_rows", "kernel_rows"):
            assert not hasattr(mod, name), (mod.__name__, name)
    assert not hasattr(qa.AlgebraTable, "left_mult_matrix")
    assert not hasattr(hml, "_identity")
    # the dense views only tests read live in the tests; the graded and
    # general bodies of a construction are one function
    for owner, name in ((qa.AlgebraTable, "zero_vec"), (qa.AlgebraTable, "basis_vec"),
                        (hml.Representation, "actions"), (hml.ExtTable, "to_json"),
                        (BoundedValue, "from_json"), (hml, "_cut_projective"),
                        (hml, "_pi_vertices"), (qa, "_corner")):
        assert not hasattr(owner, name), (owner, name)


DISCONNECTED = qa.QuiverSpec(  # k[x]/(x^2) x k[y]/(y^2): two blocks
    vertices=("v0", "v1"),
    arrows=(qa.Arrow("x", "v0", "v0"), qa.Arrow("y", "v1", "v1")),
    relations=("x*x", "y*y"),
    loewy_bound=2,
    field=F2,
)


MIXED = qa.QuiverSpec(  # k[x]/(x^2) x (the Nakayama algebra (2,2)) x k[y]/(y^2)
    vertices=("v0", "v1", "v2", "v3"),
    arrows=(qa.Arrow("x", "v0", "v0"), qa.Arrow("a", "v1", "v2"),
            qa.Arrow("b", "v2", "v1"), qa.Arrow("y", "v3", "v3")),
    relations=("x*x", "a*b", "b*a", "y*y"),
    loewy_bound=2,
    field=F2,
)


@pytest.mark.parametrize("fld", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_disconnected_algebra_decided_per_block(fld, monkeypatch):
    # the middle block of MIXED is selfinjective but not symmetric, so
    # every block must be checked
    mixed = qa.compile_quiver(dataclasses.replace(MIXED, field=fld))
    assert qa.blocks(mixed) == [[0], [1, 2], [3]]
    assert qa.is_symmetric(mixed) is False
    assert hml.is_gendo_symmetric(mixed, 16) is False
    # both isomorphism tests hold although no single basis map is invertible
    table = qa.compile_quiver(dataclasses.replace(DISCONNECTED, field=fld))
    assert qa.blocks(table) == [[0], [1]]
    calls = []
    real = qa._has_isomorphism

    def record(mats, projectors, field):
        calls.append((mats, projectors))
        return real(mats, projectors, field)

    monkeypatch.setattr(qa, "_has_isomorphism", record)
    monkeypatch.setattr(hml, "_has_isomorphism", record)
    assert qa.is_symmetric(table) is True
    assert hml.is_gendo_symmetric(table, 16) is True
    assert len(calls) == 2
    for mats, projectors in calls:
        assert len(projectors) == 2 and mats
        # Gram matrices, d x d pair rows
        assert all(rank_rows(fld, [qa._dense(r, len(T), fld.zero()) for r in T]) < len(T) for T in mats)


def test_selfinjective_bridge_cross_validation():
    assert hml.is_selfinjective(qa.nakayama_to_table(nak.validate(nak.CYCLE, (4, 4)), F2))
    assert not hml.is_selfinjective(
        qa.nakayama_to_table(nak.validate(nak.LINE, (2, 1)), F2))


# -- derived constructions ----------------------------------------------------

def test_opposite_is_involution():
    table = qa.preset("hopf-a5-f2")
    back = qa.opposite(qa.opposite(table))
    assert back.mult == table.mult
    assert back.basis_names == table.basis_names


def test_opposite_of_commutative_is_identical():
    table = qa.preset("truncated-poly(4,Q)")
    assert qa.opposite(table).mult == table.mult


def test_enveloping_dimensions():
    env3, _ = hml.enveloping(qa.preset("truncated-poly(3,F3)"))
    assert env3.dim == 9
    env8, bimod = hml.enveloping(qa.preset("hopf-a5-f2"))
    assert env8.dim == 64
    assert bimod.dim == 8


def test_enveloping_bimodule_is_a_module():
    _, bimod = hml.enveloping(qa.preset("truncated-poly(3,F3)"))
    bimod.verify()


def test_tensor_size_limit(monkeypatch):
    table = qa.preset("hopf-a5-f2")
    monkeypatch.setattr(qa, "SIZE_LIMIT", 32)
    with pytest.raises(qa.SizeLimitError):
        hml.enveloping(table)  # 8 x 8 = 64 > 32


def test_corner_algebra_of_unit_recovers_dimension():
    table = qa.preset("preproj-a2")
    corner, rows = qa.corner_algebra(table, table.vertex_labels())
    assert corner.dim == table.dim
    assert len(rows) == table.dim


def _rebased(table, seed):
    """The same algebra in the basis b'_i = b_i + (random multiples of the
    b_j, j > i): a unitriangular change of basis, so that echelon rows and
    coordinates inside it are not unit vectors."""
    fld, d = table.field, table.dim
    rng = random.Random(seed)
    P = [[fld.one() if j == i else fld.of_int(rng.randint(0, 2)) if j > i else fld.zero()
          for j in range(d)] for i in range(d)]
    work = [P[i] + [fld.one() if j == i else fld.zero() for j in range(d)] for i in range(d)]
    rref_rows(fld, work)
    inverse = [row[d:] for row in work]
    new = lambda w: sparse_row(matmul_rows(fld, [qa._dense(w, d, fld.zero())], inverse)[0])
    mult = [[new(table._mul(sparse_row(P[i]), sparse_row(P[j]))) for j in range(d)] for i in range(d)]
    return qa.make_table(fld, [f"b{i}" for i in range(d)], mult, new(table.unit),
                         [(label, new(e)) for label, e in table.idempotents],
                         [new(r) for r in table.radical])


def _cyclic_bridge(kup, fld):
    return qa.nakayama_to_table(nak.validate(nak.CYCLE, kup), fld)


# sha256 of the corner table file and its rows inside A, as taken before
# the corner arithmetic became sparse with the retired "generators" key
# dropped from the file; the labels are the projective-injective vertices,
# the corner the gendo-symmetric test reads
CORNER_DIGESTS = {
    "2-3-Q": (lambda: _cyclic_bridge((2, 3), QQ), ["v1"],
              "ed65d4f5fa481fafb33656188b5ce5dd59eef32443b0868d45d63e88198eab85"),
    "3-4-4-F2": (lambda: _cyclic_bridge((3, 4, 4), F2), ["v1", "v2"],
                 "85fd228c0f017f9c588b2a23876d0883b58266e30ed4625e1f3c1fbb1c4385bb"),
    "3-3-3-4-F3": (lambda: _cyclic_bridge((3, 3, 3, 4), F3), ["v0", "v2", "v3"],
                   "fac97a2cdd2d1612f5a06c4cb639fcd20cc45fd0539e8d1b9963a1dc78c9af18"),
    "4-5-5-5-F2": (lambda: _cyclic_bridge((4, 5, 5, 5), F2), ["v1", "v2", "v3"],
                   "0efbb22dc46cd32b1269291fe28f6b879922eedadca3f8a1892c99df2563ead3"),
    "rebased-2-3-Q": (lambda: _rebased(_cyclic_bridge((2, 3), QQ), 1), ["v1"],
                      "79e2bc8f18414bf0b265d05fff50ce12fc8298cf60d5396ab8dd3bf819c02b6a"),
    "rebased-3-3-3-4-F3": (lambda: _rebased(_cyclic_bridge((3, 3, 3, 4), F3), 2),
                           ["v0", "v2", "v3"],
                           "9f51a5e60a7568e0ba2ea177135b415d480a70085e322c47de52b0315d546a4d"),
}


def _corner_digest(table, labels):
    corner, rows = qa.corner_algebra(table, labels)
    dense = [qa._dense(r, table.dim, table.field.zero()) for r in rows]
    obj = {"corner": corner.to_json(), "rows": [[table.field.fmt(x) for x in r] for r in dense]}
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", CORNER_DIGESTS)
def test_corner_algebras_are_pinned(name):
    make, labels, digest = CORNER_DIGESTS[name]
    assert _corner_digest(make(), labels) == digest


@pytest.mark.parametrize("name", [name for name in CORNER_DIGESTS if name.startswith("rebased")])
def test_rebased_tables_have_no_grading_and_keep_their_corners(name):
    # b_0 + (multiples of later b_j) lies in no single e_v A e_w
    make, labels, digest = CORNER_DIGESTS[name]
    table = make()
    assert qa._vertex_grading(table) is None
    assert _corner_digest(table, labels) == digest
    assert hml.projective_injective_vertices(table) == {table.vertex_labels().index(x) for x in labels}


# -- table integrity ----------------------------------------------------------

def test_verify_catches_broken_associativity():
    table = qa.preset("truncated-poly(3,F3)")
    mult = [list(row) for row in table.mult]
    assert mult[2][2] == ()
    mult[2][2] = ((0, 1),)  # x^2 * x^2 = 1 breaks associativity/nilpotency
    with pytest.raises(qa.CompileError):
        qa.make_table(table.field, table.basis_names, mult, table.unit,
                      list(table.idempotents), list(table.radical))


@pytest.mark.parametrize("i, j, cell", [
    (2, 3, ((2, 1), (4, 1))),  # a0 * a1 = a0*a1 + a0: a term of degree (v0, v1) in e_0 A e_0
    (2, 2, ((2, 1),)),  # a0 * a0 = a0: a nonzero product across v1 != v0
], ids=["term-across", "product-across"])
def test_a_cell_across_vertices_voids_the_grading_and_fails_verification(i, j, cell):
    table = _cyclic_bridge((3, 3), F3)  # v0, v1, a0, a1, a0*a1, a1*a0
    assert qa._vertex_grading(table) is not None
    mult = [list(row) for row in table.mult]
    mult[i][j] = cell
    broken = dataclasses.replace(table, mult=tuple(map(tuple, mult)))
    assert qa._vertex_grading(broken) is None
    want = _first_nonassociative_triple(broken)
    with pytest.raises(qa.CompileError, match=re.escape("triple ({},{},{})".format(*want))):
        qa.verify_table(broken)


def test_a_broken_triple_inside_one_block_fails_verification():
    table = _cyclic_bridge((3, 3, 3, 4), F3)
    names = table.basis_names
    a0, a1, a0a1 = (names.index(x) for x in ("a0", "a1", "a0*a1"))
    mult = [list(row) for row in table.mult]
    assert mult[a0][a1] == ((a0a1, 1),)
    mult[a0][a1] = ((a0a1, 2),)  # (a0 a1) a2 = 2 a0*a1*a2, but a0 (a1 a2) = a0*a1*a2
    broken = dataclasses.replace(table, mult=tuple(map(tuple, mult)))
    assert qa._vertex_grading(broken) == qa._vertex_grading(table)
    want = _first_nonassociative_triple(broken)
    assert want is not None
    with pytest.raises(qa.CompileError, match=re.escape("triple ({},{},{})".format(*want))):
        qa.verify_table(broken)


def _first_nonassociative_triple(table):
    """Oracle: the first (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k), from
    dense products."""
    d = table.dim
    prod = lambda i, j: table.mult_elements(basis_vec(table, i), basis_vec(table, j))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                left = table.mult_elements(prod(i, j), basis_vec(table, k))
                right = table.mult_elements(basis_vec(table, i), prod(j, k))
                if left != right:
                    return (i, j, k)
    return None


PERTURBED = {
    "truncpoly3-Q": lambda: qa.preset("truncated-poly(3,Q)"),
    "cycle23-Q": lambda: qa.nakayama_to_table(nak.validate(nak.CYCLE, (2, 3)), QQ),
    "line321-F3": lambda: qa.nakayama_to_table(nak.validate(nak.LINE, (3, 2, 1)), F3),
    "hopf-F2": lambda: qa.preset("hopf-a5-f2"),
    "cycle3334-F3": lambda: qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 3, 3, 4)), F3),
}


@pytest.mark.parametrize("make", PERTURBED.values(), ids=PERTURBED.keys())
def test_associativity_check_matches_dense_products(make):
    table = make()
    fld, d = table.field, table.dim
    rng = random.Random(d)
    qa._verify_associativity(table)  # the unperturbed table passes
    for _ in range(12):
        mult = [list(row) for row in table.mult]
        i, j, k = rng.randrange(d), rng.randrange(d), rng.randrange(d)
        cell = dict(mult[i][j])
        cell[k] = fld.of_int(rng.randint(1, 2))  # over F_2, 2 = 0 drops the entry
        mult[i][j] = tuple(sorted((t, c) for t, c in cell.items() if c))
        broken = dataclasses.replace(table, mult=tuple(map(tuple, mult)))
        want = _first_nonassociative_triple(broken)
        if want is None:
            qa._verify_associativity(broken)
        else:
            with pytest.raises(qa.CompileError, match=re.escape("triple ({},{},{})".format(*want))):
                qa._verify_associativity(broken)


def _verdict(build):
    """None when ``build`` returns, else the message of its CompileError."""
    try:
        build()
    except qa.CompileError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("make", PERTURBED.values(), ids=PERTURBED.keys())
def test_checks_over_the_generating_set_give_the_full_verdict(make, monkeypatch):
    # one and two random cell edits, and radical vectors swapped for basis
    # vectors; with every basis element as the middle factor, verify_table
    # runs each check over all of A
    table = make()
    fld, d = table.field, table.dim
    rng = random.Random(d)
    every = lambda t: list(range(t.dim))
    builds = []
    for edits in (1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2):
        mult = [list(row) for row in table.mult]
        for _ in range(edits):
            i, j, k = rng.randrange(d), rng.randrange(d), rng.randrange(d)
            cell = dict(mult[i][j])
            cell[k] = fld.of_int(rng.randint(1, 2))
            mult[i][j] = tuple(sorted((t, c) for t, c in cell.items() if c))
        builds.append(lambda mult=mult: _remade(table, mult=mult))
    for r in range(len(table.radical)):
        radical = list(table.radical)
        radical[r] = ((rng.randrange(d), fld.one()),)
        builds.append(lambda radical=radical: _remade(table, radical=radical))
    for build in builds:
        got = _verdict(build)
        with monkeypatch.context() as m:
            m.setattr(qa, "_generating_basis", every)
            assert _verdict(build) == got


def _dense_product(table, u, v):
    """u * v from the stored cells, one scalar operation at a time."""
    fld = table.field
    out = [fld.zero()] * table.dim
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            if x and y:
                for k, c in table.mult[i][j]:
                    out[k] = fld.add(out[k], fld.mul(fld.mul(x, y), c))
    return out


GENERATED = {
    **{name: (lambda name=name: qa.preset(name)) for name in (
        "hopf-a5-f2", "dihedral8-f2", "quaternion8-f2", "preproj-a2",
        "truncated-poly(3,F2)", "truncated-poly(4,Q)")},
    "cycle-4555-F2": lambda: _cyclic_bridge((4, 5, 5, 5), F2),
    "cycle-23-Q": lambda: _cyclic_bridge((2, 3), QQ),
    "line-3221-F3": lambda: qa.nakayama_to_table(nak.validate(nak.LINE, (3, 2, 2, 1)), F3),
    "rebased-3334-F3": lambda: _rebased(_cyclic_bridge((3, 3, 3, 4), F3), 2),
}


@pytest.mark.parametrize("make", GENERATED.values(), ids=GENERATED.keys())
def test_generating_basis_spans_the_algebra(make):
    # 1 and the left-nested products of the chosen basis elements span A:
    # the closure of 1 under right multiplication by each of them
    table = make()
    gens = qa._generating_basis(table)
    span = SpanBuilder(table.field)
    todo = [qa._dense(table.unit, table.dim, table.field.zero())]
    span.add(sparse_row(todo[0]))
    while todo:
        w = todo.pop()
        for g in gens:
            x = _dense_product(table, w, basis_vec(table, g))
            if span.add(sparse_row(x)):
                todo.append(x)
    assert span.rank == table.dim
    assert gens == sorted(set(gens))


def test_generating_basis_sizes():
    # a bridge needs all idempotents but one and every arrow
    assert len(qa._generating_basis(_cyclic_bridge((4, 5, 5, 5), F2))) == 4 + 4 - 1
    assert qa._generating_basis(qa.preset("hopf-a5-f2")) == [1, 2]


def test_verify_catches_wrong_radical():
    table = qa.preset("truncated-poly(3,F3)")
    radical = list(table.radical) + [table.unit]
    with pytest.raises(qa.CompileError):
        qa.make_table(table.field, table.basis_names, table.mult, table.unit,
                      list(table.idempotents), radical)


def _remade(table, **edit):
    """``make_table`` on the parts of ``table``, with ``edit`` replacing some."""
    parts = dict(field=table.field, basis_names=table.basis_names, mult=table.mult,
                 unit=table.unit, idempotents=list(table.idempotents),
                 radical=list(table.radical))
    return qa.make_table(**{**parts, **edit})


def _line21():
    return qa.nakayama_to_table(nak.validate(nak.LINE, (2, 1)), F2)  # basis v0, v1, a0


def _nilpotent_x_made_idempotent():
    # k[x]/(x^2) with x*x = x instead: k x k, whose declared radical [x] is
    # an ideal independent of the unit but never reaches 0
    table = qa.preset("truncated-poly(2,F2)")
    return _remade(table, mult=[table.mult[0], (table.mult[1][0], ((1, 1),))])


# one edit of a verified table for each axiom check after associativity,
# and the message that check raises
BROKEN = {
    "not-idempotent": (
        lambda: _remade(_cyclic_bridge((2, 3), F3),
                        idempotents=[("v0", ((0, 2),)), ("v1", ((1, 1),))]),
        "idempotent v0 is not idempotent"),
    "sum-not-unit": (
        lambda: _remade(_line21(), idempotents=[("v0", ((0, 1),))]),
        "idempotents do not sum to the unit"),
    "not-orthogonal": (  # 1 + 1 + 1 = 1 over F_2
        lambda: _remade(qa.preset("truncated-poly(2,F2)"),
                        idempotents=[("v0", ((0, 1),)), ("x", ((0, 1),)), ("y", ((0, 1),))]),
        "idempotents v0 and x are not orthogonal"),
    "not-right-ideal": (  # v0 * a0 = a0
        lambda: _remade(_line21(), radical=[((0, 1),)]),
        "declared radical is not a right ideal"),
    "not-left-ideal": (  # v1 * A = k v1, but a0 * v1 = a0
        lambda: _remade(_line21(), radical=[((1, 1),)]),
        "declared radical is not a left ideal"),
    "split-basic": (  # J^2 is a nilpotent ideal, one dimension short of J
        lambda: _remade(qa.preset("truncated-poly(3,F3)"), radical=[((2, 1),)]),
        "split-basic certificate fails: dim 3 != radical rank 1 + 1 idempotents"),
    "dependent-idempotents": (  # a zero idempotent beside the unit
        lambda: _remade(_line21(), idempotents=[("v0", ((0, 1), (1, 1))), ("v1", ())]),
        "idempotents are not independent modulo the radical"),
    "not-nilpotent": (_nilpotent_x_made_idempotent, "declared radical is not nilpotent"),
}


@pytest.mark.parametrize("make, message", BROKEN.values(), ids=BROKEN.keys())
def test_verify_names_the_broken_axiom(make, message):
    with pytest.raises(qa.CompileError, match=f"^{re.escape(message)}$"):
        make()


def test_element_from_expr():
    table = qa.preset("truncated-poly(4,Q)")
    assert table.element_from_expr("a0*a0") == ((2, 1),)
    assert table.element_from_expr("2*a0 - a0*a0") == ((1, 2), (2, -1))
    assert table.element_from_expr("v0 - v0") == ()


def test_element_from_expr_reads_integer_basis_names():
    # quaternion8-f2 names its identity "1": an integer is that name where
    # no '*' follows it, and a coefficient where one does
    table = qa.preset("quaternion8-f2")
    assert table.element_from_expr("1 + i") == table.element_from_expr("v0 + i") == ((0, 1), (1, 1))
    assert table.element_from_expr("i*1") == table.element_from_expr("i") == ((1, 1),)
    assert table.element_from_expr("3*i") == table.element_from_expr("i")
    for text in ("3 i", "1 i", "i*1*j"):
        with pytest.raises(qa.RelationSyntaxError):
            table.element_from_expr(text)


def _mueller_end():
    """End_B(P0 + P1 + S0) for B the cycle (3, 3) over F_2."""
    B = _cyclic_bridge((3, 3), F2)
    return hml.endomorphism_algebra([hml.projective(B, 0), hml.projective(B, 1),
                                     hml.bridged_module(B, 0, 1)])


ROUNDTRIP = {
    **{name: (lambda name=name: qa.preset(name)) for name in (
        "hopf-a5-f2", "dihedral8-f2", "quaternion8-f2", "preproj-a2",
        "truncated-poly(3,F2)", "truncated-poly(3,F3)", "truncated-poly(4,Q)")},
    "tensor": lambda: qa.tensor_algebra(qa.preset("preproj-a2"), qa.preset("truncated-poly(2,F2)")),
    "corner-Q": lambda: qa.corner_algebra(_cyclic_bridge((2, 3), QQ), ["v1"])[0],
    "mueller-end-3-3": _mueller_end,
}


@pytest.mark.parametrize("make", ROUNDTRIP.values(), ids=ROUNDTRIP.keys())
def test_algebra_file_roundtrip(make, tmp_path):
    # the file is dense; the loaded table holds the same pairs
    table = make()
    path = tmp_path / "algebra.json"
    qa.save_algebra(table, str(path))
    loaded = qa.load_algebra(str(path))
    assert loaded.to_json() == table.to_json()
    assert loaded.mult == table.mult
    assert loaded.unit == table.unit
    assert loaded.idempotents == table.idempotents
    assert loaded.radical == table.radical


def test_nakayama_file_roundtrip(tmp_path):
    nk = nak.validate(nak.CYCLE, (5, 6, 6, 6, 6))
    path2 = tmp_path / "nak.json"
    qa.save_algebra(nk, str(path2))
    assert qa.load_algebra(str(path2)) == nk


def test_quiver_file_compiles_on_load(tmp_path):
    path = tmp_path / "quiver.json"
    with open(path, "w") as fh:
        json.dump(LOOPS.to_json(), fh)
    table = qa.load_algebra(str(path))
    assert table.dim == 8


@pytest.mark.parametrize("fld", [F2, F3, QQ], ids=["F2", "F3", "Q"])
@pytest.mark.parametrize("orientation, kup", [
    (nak.CYCLE, (3,)), (nak.CYCLE, (2, 3)), (nak.CYCLE, (3, 3, 4)), (nak.CYCLE, (4, 3, 2)),
    (nak.LINE, (2, 1)), (nak.LINE, (3, 2, 2, 1)), (nak.LINE, (2, 2, 1, 1)),
])
def test_radical_top_of_a_bridge_is_its_arrows(orientation, kup, fld):
    # the arrows compile_quiver hands over are the basis vectors of J that
    # a basis of J/J^2 picks, in the same order
    table = qa.nakayama_to_table(nak.validate(orientation, kup), fld)
    powers = qa._radical_powers(table)
    next(powers)
    j2 = SpanBuilder(fld)
    for r in next(powers, []):
        j2.add(r)
    expected = [r for r in table.radical if j2.add(r)]
    assert qa._radical_top(table) == expected


def test_arrow_images_generate_the_radical_on_both_sides():
    # b = a*c is not admissible: the image of b lies in J^2, and the arrow
    # images still generate J as a left and as a right ideal
    spec = qa.QuiverSpec(
        vertices=("v0",),
        arrows=(qa.Arrow("a", "v0", "v0"), qa.Arrow("b", "v0", "v0"), qa.Arrow("c", "v0", "v0")),
        relations=("b - a*c", "a*a", "c*c", "c*a"),
        loewy_bound=3,
        field=F3,
    )
    table = qa.compile_quiver(spec)
    top = qa._radical_top(table)
    assert len(top) == 3
    for side in (lambda x, a: table.mult_elements(a, x), lambda x, a: table.mult_elements(x, a)):
        ideal = [side(qa._dense(x, table.dim, F3.zero()), basis_vec(table, i))
                 for x in top for i in range(table.dim)]
        assert rank_rows(F3, ideal) == len(table.radical)


# -- storage of the structure constants ---------------------------------------

def assert_canonical(table):
    """Every product b_i * b_j is stored as (k, c) pairs, k strictly
    ascending in 0..dim-1 and every c nonzero."""
    assert len(table.mult) == table.dim
    for row in table.mult:
        assert len(row) == table.dim
        for cell in row:
            ks = [k for k, _ in cell]
            assert ks == sorted(set(ks)) and all(0 <= k < table.dim for k in ks), cell
            assert all(c for _, c in cell), cell


def _end_of_b_plus_j2(name):
    B = qa.preset(name)
    R = hml.regular(B)
    R.name = "B"
    return hml.endomorphism_algebra([R, hml.radical_power(B, 2).rep])


def _json_with_zero_and_repeated_entries():
    # a "0" coefficient and a repeated [i, j, k] entry (the last one counts)
    obj = qa.preset("truncated-poly(3,F3)").to_json()
    obj["structure"] = [[2, 2, 0, "0"], [1, 1, 2, "2"]] + obj["structure"] + [[1, 1, 2, "1"]]
    return qa.AlgebraTable.from_json(obj)


@pytest.mark.parametrize("make", [
    lambda: qa.compile_quiver(LOOPS),
    lambda: qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 4, 4)), QQ),
    lambda: qa.nakayama_to_table(nak.validate(nak.LINE, (3, 2, 1)), F3),
    lambda: qa.preset("dihedral8-f2"),
    lambda: qa.preset("quaternion8-f2"),
    lambda: hml.enveloping(qa.preset("truncated-poly(3,F3)"))[0],
    lambda: qa.tensor_algebra(qa.preset("preproj-a2"), qa.preset("truncated-poly(2,F2)")),
    lambda: qa.corner_algebra(qa.nakayama_to_table(nak.validate(nak.CYCLE, (2, 3)), QQ), ["v1"])[0],
    lambda: _end_of_b_plus_j2("hopf-a5-f2"),
    lambda: qa.opposite(qa.preset("hopf-a5-f2")),
    _json_with_zero_and_repeated_entries,
], ids=["compile", "bridge-Q", "bridge-line-F3", "dihedral8", "quaternion8", "enveloping",
        "tensor", "corner-Q", "end-b-plus-j2", "opposite", "from-json"])
def test_structure_constants_are_canonical_pairs(make):
    assert_canonical(make())


def test_from_json_drops_zeros_and_keeps_the_last_repeated_entry():
    table = _json_with_zero_and_repeated_entries()
    assert table.mult == qa.preset("truncated-poly(3,F3)").mult
    assert table.mult[1][1] == ((2, 1),) and table.mult[2][2] == ()


def test_make_table_rejects_dense_cells():
    table = qa.preset("truncated-poly(3,F3)")
    dense = [[tuple(table.mult_elements(basis_vec(table, i), basis_vec(table, j)))
              for j in range(3)] for i in range(3)]
    with pytest.raises(qa.CompileError, match="not \\(k, c\\) pairs"):
        qa.make_table(table.field, table.basis_names, dense, table.unit,
                      list(table.idempotents), list(table.radical))


def _densified(table, part):
    """``part`` of ``table`` with every element a dense tuple."""
    dense = lambda v: tuple(qa._dense(v, table.dim, table.field.zero()))
    if part == "unit":
        return dense(table.unit)
    if part == "idempotents":
        return [(label, dense(e)) for label, e in table.idempotents]
    return [dense(v) for v in table.radical]


@pytest.mark.parametrize("make, edit, message", [
    (lambda: qa.preset("truncated-poly(3,F3)"), lambda t: {"unit": _densified(t, "unit")}, "unit"),
    (lambda: qa.preset("truncated-poly(3,F3)"), lambda t: {"idempotents": _densified(t, "idempotents")},
     "idempotent v0"),
    (lambda: qa.preset("truncated-poly(3,F3)"), lambda t: {"radical": _densified(t, "radical")},
     "radical element"),
    (lambda: qa.preset("truncated-poly(3,F3)"), lambda t: {"unit": ((0, 4),)}, "unit"),  # 4 unreduced
    (lambda: qa.preset("truncated-poly(3,F3)"), lambda t: {"radical": [((2, 1), (1, 1))]},
     "radical element"),  # k descending
    (lambda: qa.preset("truncated-poly(3,F3)"), lambda t: {"radical": [((3, 1),)]},
     "radical element"),  # k outside the basis
    # over Q the constant 1 is the int 1: an integral Fraction and a float are other forms of it
    (lambda: qa.preset("truncated-poly(2,Q)"), lambda t: {"unit": ((0, Fraction(1)),)}, "unit"),
    (lambda: qa.preset("truncated-poly(2,Q)"), lambda t: {"unit": ((0, 1.0),)}, "unit"),
], ids=["dense-unit", "dense-idempotents", "dense-radical", "unreduced", "descending",
        "outside", "integral-fraction-over-Q", "float-over-Q"])
def test_make_table_rejects_elements_that_are_not_canonical_pairs(make, edit, message):
    table = make()
    with pytest.raises(qa.CompileError, match=f"^{re.escape(message)} is not \\(k, c\\) pairs"):
        _remade(table, **edit(table))


# sha256 of json.dumps(table.to_json(), sort_keys=True): the table file
# format does not depend on how the products are held in memory.  Files
# carry no "generators" key; each digest is the earlier one's file without it
TABLE_DIGESTS = {
    "hopf-a5-f2": "d812abaee02662bf4e600f24992d999a3d415b5168301efc0218538d3bdd5801",
    "dihedral8-f2": "65763924dfb514a6f0f06d8094d15b782cba11df9eb27ae767c135d2edeed378",
    "quaternion8-f2": "2352000d5f2dea906683cd3d2ec679eb94b011b5afdab3b6b3c66e276cfb8c0d",
    "preproj-a2": "10a26c403c14fe71bf109969feb340d179866f8381b21bc6d257e8e29a824934",
    "truncated-poly(3,F2)": "56098c2d18d63aa5c479144db633adfacff22ac02521e9f2bb498a25639b0a30",
    "truncated-poly(3,F3)": "15197998884fcddae39f787cb236d27355cdfc01ac8e14b5e046dd7b22f02855",
    "truncated-poly(4,Q)": "874c8d7eef070c7f567412d7746ece66aff9607e815be7aa159811d274d73d5d",
    "end-hopf-b-plus-j2": "f2b26033761523722aab65b2ff580f2e59f93ca1a3ed7b978432ebe5f8020484",
}


@pytest.mark.parametrize("name", TABLE_DIGESTS)
def test_table_files_are_pinned(name):
    table = _end_of_b_plus_j2("hopf-a5-f2") if name.startswith("end-") else qa.preset(name)
    text = json.dumps(table.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[name]


def test_from_json_checks_the_size_limit(monkeypatch):
    monkeypatch.setattr(qa, "SIZE_LIMIT", 8)
    obj = {"kind": "table", "field": {"kind": "prime", "p": 2}, "basis": [f"b{i}" for i in range(9)],
           "unit": [], "structure": [], "idempotents": [], "radical": []}
    with pytest.raises(qa.SizeLimitError):
        qa.load_algebra(obj)


@pytest.mark.parametrize("key, value", [
    ("unit", ["1", "0", "0"]), ("idempotents", [["v0", ["1"]]]),
    ("radical", [["0"]]), ("radical", [["0", "1", "0"]]),
    ("generators", [["1", "0"], ["0", "1", "0"]]),
], ids=["unit-long", "idempotent-short", "radical-short", "radical-long", "generator-long"])
def test_from_json_checks_vector_lengths(key, value):
    obj = qa.preset("truncated-poly(2,F2)").to_json()
    qa.load_algebra(obj)  # the unchanged file loads
    with pytest.raises(ValueError, match="vector of length"):
        qa.load_algebra({**obj, key: value})


def test_loading_a_large_table_file_allocates_no_cube(tmp_path):
    # 200 basis elements and no products: the unit axiom fails, and the
    # load must not have allocated d^3 coefficients before that check
    d = 200
    vec = lambda i: ["1" if t == i else "0" for t in range(d)]
    obj = {"kind": "table", "field": {"kind": "prime", "p": 2}, "basis": [f"b{i}" for i in range(d)],
           "unit": vec(0), "structure": [], "idempotents": [["v0", vec(0)]],
           "radical": [vec(i) for i in range(1, d)]}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(obj))
    tracemalloc.start()
    try:
        with pytest.raises(qa.CompileError, match="unit axiom"):
            qa.load_algebra(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
