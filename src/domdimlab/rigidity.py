"""Rigid-module combinatorics over Nakayama algebras.

A module is k-rigid when Ext^t vanishes between all of its summands for
t = 1..k.  The maximal number of pairwise non-isomorphic indecomposable
summands of a k-rigid module is the clique number of the compatibility
graph on the k-rigid indecomposables, computed here by exact branch and
bound.  On top of that sit the verifiers for the dominant-dimension
inequality of gendo-symmetric algebras and the 1-Extsymmetric bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from operator import itemgetter
from typing import Optional, Sequence

from . import homology as hml
from . import nakayama as nak
from . import quivalg as qa
from .bounded import BoundedValue
from .exactmath import F2


@dataclass
class CompatGraph:
    algebra: nak.NakAlgebra
    k: int
    vertices: tuple[nak.NakModule, ...]
    adjacency: tuple[int, ...]  # bitmask per vertex, excluding the vertex itself

    def degree(self, i: int) -> int:
        return self.adjacency[i].bit_count()


@dataclass
class RigidityReport:
    algebra: nak.NakAlgebra
    k: int
    o_k: int
    witness: tuple[nak.NakModule, ...]
    domdim: Optional[BoundedValue] = None
    lhs: Optional[int] = None
    rhs: Optional[int] = None
    verdict: Optional[bool] = None
    gendo_provenance: Optional[str] = None

    def to_json(self):
        obj = {
            "algebra": {"orientation": self.algebra.orientation,
                        "kupisch": list(self.algebra.kupisch)},
            "k": self.k,
            "o_k": self.o_k,
            "witness": [[m.vertex, m.length] for m in self.witness],
        }
        if self.domdim is not None:
            obj["domdim"] = self.domdim.to_json()
        if self.lhs is not None:
            obj["lhs"] = self.lhs
            obj["rhs"] = self.rhs
            obj["verdict"] = "holds" if self.verdict else "fails"
        if self.gendo_provenance:
            obj["gendo_provenance"] = self.gendo_provenance
        return obj


def compat_graph(A: nak.NakAlgebra, k: int) -> CompatGraph:
    """Vertices: indecomposables with Ext^t(X,X) = 0 for t <= k; edges:
    pairs with Ext^t vanishing both ways for t <= k."""
    if k < 1:
        raise nak.NakInputError("rigidity degree must be >= 1")
    if sum(A.kupisch) > qa.SIZE_LIMIT:
        raise qa.SizeLimitError(
            f"{sum(A.kupisch)} indecomposables exceed the limit {qa.SIZE_LIMIT}")
    mods = nak.indecomposables(A)  # already in sorted order
    index = {M: a for a, M in enumerate(mods)}
    ext1 = [sum(1 << b for b, x in enumerate(row) if x) for row in nak.ext1_table(A)]
    # ext[a]: bit b set iff Ext^t(mods[a], mods[b]) != 0 for some t <= k,
    # where Ext^t(M, -) = Ext^1(Omega^(t-1) M, -): the union of ext1 over
    # the orbit of M up to Omega^(k-1) M
    ext = [0] * len(mods)
    for a, M in enumerate(mods):
        for X in nak.syzygy_orbit(A, M, k - 1):
            ext[a] |= ext1[index[X]]
    idx = [a for a in range(len(mods)) if not ext[a] >> a & 1]
    n = len(idx)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if not (ext[idx[i]] >> idx[j] & 1 or ext[idx[j]] >> idx[i] & 1):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return CompatGraph(A, k, tuple(mods[a] for a in idx), tuple(adj))


def is_k_rigid(A: nak.NakAlgebra, modules: Sequence[nak.NakModule], k: int) -> bool:
    """Ext^t vanishes between all ordered pairs of summands (self pairs
    included) for t = 1..k.  Multiplicities are irrelevant."""
    if k < 1:
        raise nak.NakInputError("rigidity degree must be >= 1")
    summands = sorted(set(modules))
    # Ext^t(X, -) is read off (Omega^(t-1) X, Omega^t X), and past the
    # end of the orbit these pairs are 0 or repeat a pair of its period
    chains = [nak.syzygy_orbit(A, X, k) for X in summands]
    for t in range(1, max(map(len, chains), default=1)):
        for chain in chains:
            for Y in summands:
                if nak.ext_on_chain(A, t, chain, Y):
                    return False
    return True


def _max_clique(adj: Sequence[int], n: int) -> tuple[int, int]:
    """Exact maximum clique via branch and bound with greedy colouring.

    Vertices are explored in a fixed (degeneracy) order with canonical
    tie-breaks, so the returned witness mask is deterministic.

    The colouring is bit-parallel, after San Segundo et al.'s BBMC (An
    exact bit-parallel algorithm for the maximum clique problem, Comput.
    Oper. Res. 2011): colour class c takes the lowest uncoloured candidate,
    drops its neighbours from the rest and repeats, a few big-int
    operations per vertex.  Scanning the candidates in ascending order,
    a vertex joins class c exactly when no earlier member of class c is
    adjacent to it, so class by class these are the classes of first-fit
    colouring in the same order, and the search tree and the witness are
    those of first-fit colouring.  Returns (size, vertex mask)."""
    if n == 0:
        return 0, 0
    order = _degeneracy_order(adj, n)
    order.reverse()  # high-degeneracy vertices first
    # relabel once: bit i of a mask below is vertex order[i].  Character
    # n - 1 - u of the binary string of adj[v] is bit u, so picking the
    # characters of order[n - 1], ..., order[0] spells the relabelled mask
    spell = itemgetter(*[n - 1 - u for u in reversed(order)])
    width = f"0{n}b"
    radj = [int("".join(spell(format(adj[v], width))), 2) for v in order]
    # keep[v]: the candidates that may join v's colour class after v
    keep = [~(a | 1 << v) for v, a in enumerate(radj)]

    best_size = 0
    best_mask = 0

    def expand(cur_mask: int, cur_size: int, cand: int) -> None:
        nonlocal best_size, best_mask
        # colour classes as masks, in ascending order; a class of colour
        # <= best_size - cur_size cannot lead to a larger clique, so only
        # the classes above it are listed
        floor = best_size - cur_size
        classes = []
        uncoloured = cand
        col = 0
        while uncoloured:
            col += 1
            q = before = uncoloured
            while q:
                low = q & -q
                q &= keep[low.bit_length() - 1]
                uncoloured ^= low
            if col > floor:
                classes.append((col, before ^ uncoloured))
        # candidates in descending colour order, highest vertex first within
        # a class: once the colour bound fails for one it fails for the rest
        for col, cls in reversed(classes):
            while cls:
                if cur_size + col <= best_size:
                    return
                v = cls.bit_length() - 1
                bit = 1 << v
                cls ^= bit
                new_mask = cur_mask | bit
                new_cand = cand & radj[v]
                if cur_size + 1 > best_size:
                    best_size = cur_size + 1
                    best_mask = new_mask
                if new_cand:
                    expand(new_mask, cur_size + 1, new_cand)
                cand ^= bit

    expand(0, 0, (1 << n) - 1)
    return best_size, sum(1 << order[i] for i in _bits(best_mask))


def _degeneracy_order(adj: Sequence[int], n: int) -> list[int]:
    """Repeatedly remove a vertex of least degree among those remaining
    (lowest index on ties); the removal order.  Matula-Beck buckets:
    ``bucket[d]`` is the mask of the remaining vertices of remaining
    degree d, so the next vertex is the lowest bit of the first nonempty
    bucket.  Removing a vertex of degree d moves each of its remaining
    neighbours down one bucket, a mask per bucket from d upwards, and
    leaves no degree below d - 1."""
    bucket = [0] * n
    for v in range(n):
        bucket[adj[v].bit_count()] |= 1 << v
    remaining = (1 << n) - 1
    order = []
    d = 0
    for _ in range(n):
        while not bucket[d]:
            d += 1
        low = bucket[d] & -bucket[d]
        v = low.bit_length() - 1
        order.append(v)
        bucket[d] ^= low
        remaining ^= low
        nbrs = adj[v] & remaining
        e = d
        while nbrs:
            moved = bucket[e] & nbrs
            if moved:
                bucket[e] ^= moved
                bucket[e - 1] |= moved
                nbrs ^= moved
            e += 1
        d = max(d - 1, 0)
    return order


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def o_k(A: nak.NakAlgebra, k: int) -> RigidityReport:
    """Exact clique number of the compatibility graph, with a verified
    maximum rigid module as witness.  Always >= n (the regular module)."""
    graph = compat_graph(A, k)
    size, mask = _max_clique(graph.adjacency, len(graph.vertices))
    witness = tuple(graph.vertices[i] for i in sorted(_bits(mask)))
    if size < A.n:
        raise AssertionError("clique search lost the regular-module witness")
    if not is_k_rigid(A, witness, k):
        raise AssertionError("clique witness failed the direct rigidity re-check")
    return RigidityReport(A, k, size, witness)


@dataclass
class RigidSequenceResult:
    modules: tuple[nak.NakModule, ...]
    q: int
    size: int
    w: int
    rigid: bool

    def to_json(self):
        return {
            "modules": [[m.vertex, m.length] for m in self.modules],
            "q": self.q,
            "size": self.size,
            "simples": self.w,
            "rigid": self.rigid,
        }


def rigid_sequence_module(A: nak.NakAlgebra, k: int, cutoff: int) -> RigidSequenceResult:
    """The direct sum of the syzygy-shifted duals Omega^{(k+2)l}(D(A)),
    l = 0..q, with q maximal subject to (k+2)q + k <= domdim - 2.

    Requires a non-selfinjective algebra with resolved dominant dimension;
    the result is re-checked k-rigid and its size compared with w + q."""
    if nak.is_selfinjective(A):
        raise nak.NakInputError("rigid sequence construction needs a non-selfinjective algebra")
    dd = nak.domdim(A, cutoff)
    if not dd.is_finite:
        raise nak.NakInputError(f"dominant dimension unresolved at cutoff {cutoff}")
    n_param = dd.value - 2
    q = 0
    while (k + 2) * (q + 1) + k <= n_param:
        q += 1
    if (k + 2) * q + k > n_param:
        q = 0  # even the first shift is out of range; fall back to D(A) alone
    summands: set[nak.NakModule] = set()
    duals = nak.dual_regular(A)
    for l in range(q + 1):
        for I in duals:
            om = nak.syzygy_power(A, I, (k + 2) * l)
            if om is not None:
                summands.add(om)
    modules = tuple(sorted(summands))
    rigid = is_k_rigid(A, modules, k)
    if not rigid:
        raise AssertionError("constructed module failed its rigidity re-check")
    size = len(modules)
    if size < A.n + q:
        raise AssertionError("size bookkeeping below the guaranteed w + q")
    return RigidSequenceResult(modules, q, size, A.n, rigid)


def verify_main_inequality(A: nak.NakAlgebra, k: int, cutoff: int,
                           gendo: str = "bimodule") -> RigidityReport:
    """Check (o_k + 2 - w)(k + 2) - 1 >= domdim on a non-selfinjective
    gendo-symmetric algebra.

    ``gendo="bimodule"`` confirms the hypothesis with
    ``hml.is_gendo_symmetric`` (domdim >= 2 and the bimodule isomorphism
    eAe = D(eAe)) on the table bridged over F_2; ``gendo="assert"``
    records that the caller vouches for it.  A failing verdict on a
    confirmed instance is a falsification event for the suites.
    """
    if nak.is_selfinjective(A):
        raise nak.NakInputError("the inequality concerns non-selfinjective algebras")
    if gendo == "bimodule":
        table = qa.nakayama_to_table(A, F2)
        if not hml.is_gendo_symmetric(table, max(cutoff, 2)):
            raise hml.PreconditionError(f"{A.describe()} is not gendo-symmetric")
        provenance = "bimodule-test"
    elif gendo == "assert":
        provenance = "caller-asserted"
    else:
        raise ValueError("gendo must be 'bimodule' or 'assert'")
    dd = nak.domdim(A, cutoff)
    if not dd.is_finite:
        raise nak.NakInputError(f"dominant dimension unresolved at cutoff {cutoff}")
    report = o_k(A, k)
    lhs = (report.o_k + 2 - A.n) * (k + 2) - 1
    report.domdim = dd
    report.lhs = lhs
    report.rhs = dd.value
    report.verdict = lhs >= dd.value
    report.gendo_provenance = provenance
    return report


# ---------------------------------------------------------------------------
# 1-Extsymmetric algebras
# ---------------------------------------------------------------------------

def is_ext1_symmetric(A, modules: Optional[list] = None) -> bool:
    """Ext^1(X, Y) vanishes iff Ext^1(Y, X) does, over all ordered pairs.

    Accepts a selfinjective NakAlgebra (indecomposables enumerated
    internally) or an AlgebraTable with an explicit complete list of
    indecomposable Representations.
    """
    if isinstance(A, nak.NakAlgebra):
        if not nak.is_selfinjective(A):
            raise nak.NakInputError("1-Extsymmetry is defined for selfinjective algebras")
        ext1 = nak.ext1_table(A)
        return all((x != 0) == (ext1[b][a] != 0)
                   for a, row in enumerate(ext1) for b, x in enumerate(row))
    if modules is None:
        raise ValueError("a table input needs its complete indecomposable list")
    ext1 = {}
    for i, X in enumerate(modules):
        for j, Y in enumerate(modules):
            ext1[(i, j)] = hml.ext_dims(X, Y, 1).dim(1)
    for i in range(len(modules)):
        for j in range(len(modules)):
            if (ext1[(i, j)] != 0) != (ext1[(j, i)] != 0):
                return False
    return True


@dataclass
class ExtsymReport:
    extsymmetric: bool
    delta: BoundedValue
    o_1: int
    simples: int
    bound: int
    holds: bool
    end_algebra_checks: list = dc_field(default_factory=list)

    def to_json(self):
        return {
            "extsymmetric": self.extsymmetric,
            "delta": self.delta.to_json(),
            "o_1": self.o_1,
            "simples": self.simples,
            "bound": self.bound,
            "verdict": "holds" if self.holds else "fails",
            "end_algebras": self.end_algebra_checks,
        }


def verify_extsym_bound(A: nak.NakAlgebra, cutoff: int,
                        end_algebras: Sequence = ()) -> ExtsymReport:
    """For a selfinjective algebra: check delta <= o_1 + s - 2, and
    domdim(B) <= delta + 1 <= o_1 + s - 1 for supplied endomorphism tables."""
    if not nak.is_selfinjective(A):
        raise nak.NakInputError("the bound concerns selfinjective algebras")
    extsym = is_ext1_symmetric(A)
    dlt = nak.delta(A, cutoff)
    if not dlt.is_finite:
        raise nak.NakInputError(f"delta unresolved at cutoff {cutoff}")
    rep = o_k(A, 1)
    s = A.n
    bound = rep.o_k + s - 2
    holds = dlt.value <= bound
    checks = []
    for B in end_algebras:
        dd = hml.domdim(B, cutoff)
        ok = dd.is_finite and dd.value <= dlt.value + 1 <= rep.o_k + s - 1
        checks.append({"end_algebra": B.describe(), "domdim": dd.to_json(), "holds": ok})
        holds = holds and ok
    return ExtsymReport(extsym, dlt, rep.o_k, s, bound, holds, checks)
