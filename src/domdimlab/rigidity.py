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
        return bin(self.adjacency[i]).count("1")


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
    ext1 = [sum(1 << b for b, x in enumerate(row) if x) for row in nak.ext_table(A, 1)[0]]
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
    Returns (size, vertex mask)."""
    if n == 0:
        return 0, 0
    order = _degeneracy_order(adj, n)
    order.reverse()  # high-degeneracy vertices first
    # relabel once: bit i of a mask below is vertex order[i]
    pos = {v: i for i, v in enumerate(order)}
    radj = [sum(1 << pos[u] for u in _bits(adj[v])) for v in order]

    best_size = 0
    best_mask = 0

    def expand(cur_mask: int, cur_size: int, cand: int) -> None:
        nonlocal best_size, best_mask
        # greedy colouring in search order, then candidates in ascending
        # colour order: once the colour bound fails for the last remaining
        # one it fails for all earlier ones too
        classes: list[int] = []  # bitmask per colour class
        ordered = []
        for v in _bits(cand):
            for ci, cmask in enumerate(classes):
                if not radj[v] & cmask:
                    classes[ci] = cmask | (1 << v)
                    ordered.append((ci + 1, v))
                    break
            else:
                classes.append(1 << v)
                ordered.append((len(classes), v))
        ordered.sort()
        for col, v in reversed(ordered):
            if cur_size + col <= best_size:
                return
            new_mask = cur_mask | (1 << v)
            new_cand = cand & radj[v]
            if cur_size + 1 > best_size:
                best_size = cur_size + 1
                best_mask = new_mask
            if new_cand:
                expand(new_mask, cur_size + 1, new_cand)
            cand &= ~(1 << v)

    expand(0, 0, (1 << n) - 1)
    return best_size, sum(1 << order[i] for i in _bits(best_mask))


def _degeneracy_order(adj: Sequence[int], n: int) -> list[int]:
    """Repeatedly remove a vertex of least degree among those remaining
    (lowest index on ties); the removal order.  Each vertex's remaining
    degree is kept as a running count, decremented when a neighbour goes."""
    deg = [bin(adj[v]).count("1") for v in range(n)]
    remaining = list(range(n))  # ascending, so min() returns the lowest index on ties
    order = []
    while remaining:
        v = min(remaining, key=deg.__getitem__)
        order.append(v)
        remaining.remove(v)
        for u in _bits(adj[v]):
            deg[u] -= 1
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
        (ext1,) = nak.ext_table(A, 1)
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
