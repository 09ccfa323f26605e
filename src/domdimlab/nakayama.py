"""Integer-only module theory of connected Nakayama algebras.

Conventions, fixed once and used everywhere:

* The quiver is a directed cycle or a directed line with vertices
  ``0, ..., n-1`` numbered clockwise and one arrow ``i -> i+1`` out of
  each vertex (indices mod n on the cycle).  Paths compose left to
  right: the path of length ``y`` starting at ``x`` runs ``x -> x+y``.
* The algebra is determined by its Kupisch series ``c = (c_0, ..., c_{n-1})``
  where ``c_i`` is the dimension of the indecomposable projective right
  module at vertex ``i``.  Kupisch indices are read mod n on the cycle; no
  normalisation such as ``c_{n-1} = c_0 + 1`` is assumed.
* Every indecomposable right module is uniserial of the form
  ``M(i, k)`` (top ``S_i``, dimension ``k``, socle ``S_{i+k-1}``) with
  ``1 <= k <= c_i``; ``k = c_i`` gives the projective at ``i``.

All computations in this module are exact integer combinatorics; no
ground field ever enters, so every dimension produced here is valid over
any field.  Potentially infinite invariants (dominant dimension, the
first non-vanishing self-extension degree, and their suprema) take an
explicit ``cutoff`` and return a :class:`BoundedValue`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .bounded import BoundedValue

CYCLE = "cycle"
LINE = "line"


class KupischError(ValueError):
    """A proposed Kupisch series violates one of the named admissibility conditions."""


class NakInputError(ValueError):
    """An operation was called outside its stated precondition."""


@dataclass(frozen=True)
class NakAlgebra:
    orientation: str
    kupisch: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.kupisch)

    @property
    def is_cycle(self) -> bool:
        return self.orientation == CYCLE

    def c(self, i: int) -> int:
        return self.kupisch[i % self.n] if self.is_cycle else self.kupisch[i]

    def vertex(self, i: int) -> int:
        if self.is_cycle:
            return i % self.n
        if not 0 <= i < self.n:
            raise NakInputError(f"vertex {i} outside the line quiver 0..{self.n - 1}")
        return i

    def describe(self) -> str:
        return f"{self.orientation}({','.join(map(str, self.kupisch))})"

    def to_json(self):
        return {"kind": "nakayama", "orientation": self.orientation, "kupisch": list(self.kupisch)}


@dataclass(frozen=True, order=True)
class NakModule:
    vertex: int
    length: int

    def __repr__(self):
        return f"M({self.vertex},{self.length})"

    def to_json(self):
        return [self.vertex, self.length]


def validate(orientation: str, kupisch: Iterable[int]) -> NakAlgebra:
    """Check the Kupisch admissibility conditions and build the algebra.

    Rejections name the violated condition.  Semisimple series are
    rejected: every algebra in scope has a nonzero radical.
    """
    c = tuple(int(x) for x in kupisch)
    n = len(c)
    if n == 0:
        raise KupischError("empty Kupisch series")
    if orientation == CYCLE:
        for i, ci in enumerate(c):
            if ci < 2:
                raise KupischError(f"cycle condition c_i >= 2 fails at i={i} (c_{i}={ci})")
        for i in range(n):
            nxt = c[(i + 1) % n]
            if nxt < c[i] - 1:
                raise KupischError(
                    f"Kupisch condition c_{{i+1}} >= c_i - 1 fails between i={i} "
                    f"(c={c[i]}) and i={(i + 1) % n} (c={nxt})"
                )
    elif orientation == LINE:
        if c[n - 1] != 1:
            raise KupischError(f"line condition c_{{n-1}} = 1 fails (got {c[n - 1]})")
        for i, ci in enumerate(c):
            if ci < 1:
                raise KupischError(f"positivity fails at i={i}")
            if ci > n - i:
                raise KupischError(f"line condition c_i <= n - i fails at i={i} (c={ci})")
        for i in range(n - 1):
            if c[i + 1] < c[i] - 1:
                raise KupischError(
                    f"Kupisch condition c_{{i+1}} >= c_i - 1 fails between i={i} and i={i + 1}"
                )
        if all(ci == 1 for ci in c):
            raise KupischError("semisimple input: all c_i = 1")
    else:
        raise KupischError(f"unknown orientation {orientation!r}")
    return NakAlgebra(orientation, c)


def module(A: NakAlgebra, i: int, k: int) -> NakModule:
    """The uniserial module with top vertex ``i`` and dimension ``k`` (normalised)."""
    v = A.vertex(i)
    if not 1 <= k <= A.c(v):
        raise NakInputError(f"length {k} outside 1..c_{v}={A.c(v)}")
    return NakModule(v, k)


def indecomposables(A: NakAlgebra) -> list[NakModule]:
    return [NakModule(i, k) for i in range(A.n) for k in range(1, A.c(i) + 1)]


def is_projective(A: NakAlgebra, M: NakModule) -> bool:
    return M.length == A.c(M.vertex)


def projective(A: NakAlgebra, i: int) -> NakModule:
    v = A.vertex(i)
    return NakModule(v, A.c(v))


def simple(A: NakAlgebra, i: int) -> NakModule:
    return NakModule(A.vertex(i), 1)


def socle_vertex(A: NakAlgebra, M: NakModule) -> int:
    return A.vertex(M.vertex + M.length - 1)


def dim(M: NakModule) -> int:
    return M.length


def syzygy(A: NakAlgebra, M: NakModule) -> Optional[NakModule]:
    """Kernel of the projective cover, or None when ``M`` is projective.

    The cover of ``M(i,k)`` is ``P_i``; its kernel is generated by the
    path of length ``k`` out of ``i``, giving ``M(i+k, c_i - k)``, read
    off ``A.kupisch`` with the range checks of :func:`module`.
    """
    c, i, k = A.kupisch, M.vertex, M.length
    n = len(c)
    ci = c[i % n] if A.is_cycle else c[i]
    if k == ci:
        return None
    v = i + k
    if A.is_cycle:
        v %= n
    elif v >= n:
        raise NakInputError(f"vertex {v} outside the line quiver 0..{n - 1}")
    if not 1 <= ci - k <= c[v]:
        raise NakInputError(f"length {ci - k} outside 1..c_{v}={c[v]}")
    return NakModule(v, ci - k)


def syzygy_power(A: NakAlgebra, M: Optional[NakModule], t: int) -> Optional[NakModule]:
    """Omega^t M, or None once a syzygy is 0; past the first repeated
    module t is read modulo the period (:func:`syzygy_orbit`)."""
    if M is None:
        return None
    orbit = syzygy_orbit(A, M, t)
    if len(orbit) > t:
        return orbit[t]
    i = orbit.index(orbit[-1])
    if i == len(orbit) - 1:  # the orbit ends at a projective
        return None
    return orbit[i + (t - i) % (len(orbit) - 1 - i)]


def syzygy_orbit(A: NakAlgebra, M: NakModule, t: int) -> list[NakModule]:
    """Omega^0 M, Omega^1 M, ... up to Omega^t M, the first projective or
    the first module equal to an earlier one, whichever comes first.

    Omega maps the sum(c) indecomposables to themselves, so the list is
    at most sum(c) + 1 long for any t; past its end the syzygies are 0
    (after a projective) or run through the period again.
    """
    orbit, seen = [M], {M}
    while len(orbit) <= t and (om := syzygy(A, orbit[-1])) is not None:
        orbit.append(om)
        if om in seen:
            break
        seen.add(om)
    return orbit


def injective_dim_at(A: NakAlgebra, a: int) -> int:
    """Dimension of the indecomposable injective with socle ``S_a``.

    Counts the pairs ``(i, t)`` with ``0 <= t < c_i`` and ``i + t = a``
    (mod n on the cycle), i.e. the paths ending at ``a``.
    """
    a = A.vertex(a)
    n = A.n
    total = 0
    if A.is_cycle:
        for i in range(n):
            r = (a - i) % n
            total += (A.c(i) - r + n - 1) // n if A.c(i) > r else 0
    else:
        for i in range(n):
            if 0 <= a - i < A.c(i):
                total += 1
    return total


def injective_of_socle(A: NakAlgebra, a: int) -> NakModule:
    d = injective_dim_at(A, a)
    return module(A, a - d + 1, d)


def is_injective(A: NakAlgebra, M: NakModule) -> bool:
    return M.length == injective_dim_at(A, socle_vertex(A, M))


def cosyzygy(A: NakAlgebra, M: NakModule) -> Optional[NakModule]:
    """Cokernel of the injective envelope, or None when ``M`` is injective."""
    a = socle_vertex(A, M)
    d = injective_dim_at(A, a)
    if d == M.length:
        return None
    return module(A, M.vertex + M.length - d, d - M.length)


def dual_regular(A: NakAlgebra) -> list[NakModule]:
    """The indecomposable summands of the dual of the regular module: one injective per socle vertex."""
    return [injective_of_socle(A, a) for a in range(A.n)]


# ---------------------------------------------------------------------------
# Hom and Ext dimensions
# ---------------------------------------------------------------------------

def _weight(A: NakAlgebra, j: int, l: int, v: int) -> int:
    """dim of the ``e_v``-weight space of ``M(j, l)``: #{t in [0,l) : j+t = v}."""
    if l <= 0:
        return 0
    if A.is_cycle:
        n = A.n
        r = (v - j) % n
        return (l - r + n - 1) // n if l > r else 0
    t = v - j
    return 1 if 0 <= t < l else 0


def dim_hom(A: NakAlgebra, M: NakModule, N: NakModule) -> int:
    """dim Hom(M, N): images of the top of M are the elements of ``N e_i``
    annihilated by the k-th radical power, counted combinatorially."""
    i, k = M.vertex, M.length
    j, l = N.vertex, N.length
    lo = max(0, l - k)
    return _weight(A, j, l, i) - _weight(A, j, lo, i)


def dim_ext(A: NakAlgebra, t: int, M: NakModule, N: NakModule) -> int:
    """dim Ext^t(M, N) for t >= 1, via the explicit minimal projective resolution.

    Each resolution term is a single indecomposable projective and each
    connecting map is left multiplication by a path; applying Hom(-, N)
    turns those into right multiplications between weight spaces of N,
    whose ranks are path counts.
    """
    if t < 1:
        raise NakInputError("ext degree must be >= 1")
    return ext_on_chain(A, t, syzygy_chain(A, M, t), N)


def syzygy_chain(A: NakAlgebra, M: NakModule, t: int) -> list[NakModule]:
    """Omega^0 M, Omega^1 M, ... up to Omega^t M or the first projective."""
    chain: list[NakModule] = [M]
    while len(chain) <= t:
        om = syzygy(A, chain[-1])
        if om is None:
            break
        chain.append(om)
    return chain


def ext_on_chain(A: NakAlgebra, t: int, chain: list[NakModule], N: NakModule) -> int:
    """dim Ext^t(M, N) for t >= 1, read from ``chain = syzygy_chain(A, M, s)``
    with s >= t, so that one chain serves every N and every degree up to s."""
    if len(chain) <= t:
        return 0  # projective dimension < t
    j, l = N.vertex, N.length
    v_t = chain[t].vertex
    h = _weight(A, j, l, v_t)
    y_in = chain[t - 1].length
    r_in = _weight(A, j, l - y_in, chain[t - 1].vertex)
    if is_projective(A, chain[t]):
        r_out = 0
    else:
        y_out = chain[t].length
        r_out = _weight(A, j, l - y_out, v_t)
    val = h - r_in - r_out
    assert val >= 0, "rank bookkeeping broke rank-nullity"
    return val


def ext_table(A: NakAlgebra, kmax: int) -> list[list[list[int]]]:
    """``tab[t-1][a][b] = dim Ext^t(mods[a], mods[b])`` for t = 1..kmax,
    with ``mods = indecomposables(A)``.

    The rank bookkeeping of :func:`dim_ext`, with each module's syzygy
    chain computed once up to Omega^kmax and every weight read from one
    table ``wt[v][j][cmax + l] = _weight(A, j, l, v)``, l = -cmax..cmax with
    cmax = max(c).  The weight of a length l <= 0 is 0, so the shifted
    reads ``l - y`` need no clamping.
    """
    if kmax < 1:
        raise NakInputError("ext degree must be >= 1")
    n, c = A.n, A.kupisch
    cmax = max(c)
    wt = [[[0] * cmax + [_weight(A, j, l, v) for l in range(cmax + 1)] for j in range(n)]
          for v in range(n)]
    mods = indecomposables(A)
    targets = [(N.vertex, cmax + N.length) for N in mods]  # (j, index of l in wt[v][j])
    tab = [[[0] * len(mods) for _ in mods] for _ in range(kmax)]
    for a, M in enumerate(mods):
        # chain[s] = Omega^s M as (top vertex, length), up to the first
        # projective or Omega^kmax; Ext^t(M, -) = 0 once chain[t] is missing
        chain = [(M.vertex, M.length)]
        while len(chain) <= kmax and chain[-1][1] < c[chain[-1][0]]:
            i, k = chain[-1]
            chain.append(((i + k) % n if A.is_cycle else i + k, c[i] - k))
        for t in range(1, len(chain)):
            u, y_in = chain[t - 1]
            v, y_out = chain[t]
            w_in, w_out = wt[u], wt[v]
            if y_out == c[v]:  # Omega^t M is projective: no outgoing map
                row = [w_out[j][l] - w_in[j][l - y_in] for j, l in targets]
            else:
                row = [w_out[j][l] - w_in[j][l - y_in] - w_out[j][l - y_out]
                       for j, l in targets]
            assert min(row) >= 0, "rank bookkeeping broke rank-nullity"
            tab[t - 1][a] = row
    return tab


def one_rigid_indecomposables(A: NakAlgebra) -> list[NakModule]:
    """All indecomposables with vanishing first self-extension, for a cyclic
    quiver with at least two simples: ``M(i,k)`` qualifies iff
    ``1 <= k <= n-1`` or ``k > c_i - n``."""
    if not A.is_cycle or A.n < 2:
        raise NakInputError("closed 1-rigidity criterion requires a cycle with n >= 2")
    n = A.n
    return [
        M
        for M in indecomposables(A)
        if M.length <= n - 1 or M.length > A.c(M.vertex) - n
    ]


# ---------------------------------------------------------------------------
# dominant dimension, phi, delta
# ---------------------------------------------------------------------------

def domdim_module(A: NakAlgebra, M: NakModule, cutoff: int) -> BoundedValue:
    """Number of leading projective terms in the minimal injective coresolution.

    finite(v) iff a non-projective injective term occurs at index v < cutoff;
    at_least(cutoff) otherwise (including coresolutions that terminate, whose
    remaining terms are zero and thus trivially projective).
    """
    if cutoff < 1:
        raise NakInputError("cutoff must be >= 1")
    cur: Optional[NakModule] = M
    for idx in range(cutoff):
        if cur is None:
            return BoundedValue.at_least(cutoff)
        env = injective_of_socle(A, socle_vertex(A, cur))
        if not is_projective(A, env):
            return BoundedValue.finite(idx)
        cur = cosyzygy(A, cur)
    return BoundedValue.at_least(cutoff)


def domdim(A: NakAlgebra, cutoff: int) -> BoundedValue:
    """Dominant dimension of the algebra: the minimum over the coresolutions
    of the indecomposable projectives."""
    best: Optional[int] = None
    for i in range(A.n):
        r = domdim_module(A, projective(A, i), cutoff)
        if r.is_finite:
            best = r.value if best is None else min(best, r.value)
    if best is None:
        return BoundedValue.at_least(cutoff)
    return BoundedValue.finite(best)


def is_selfinjective(A: NakAlgebra) -> bool:
    """Selfinjective iff cyclic with constant Kupisch series."""
    return A.is_cycle and len(set(A.kupisch)) == 1


def is_symmetric(A: NakAlgebra) -> bool:
    """Symmetric iff selfinjective and c = 1 (mod n)."""
    return is_selfinjective(A) and (A.kupisch[0] - 1) % A.n == 0


def phi(A: NakAlgebra, modules: Iterable[NakModule], cutoff: int) -> BoundedValue:
    """First degree r in [1, cutoff] with a non-vanishing Ext^r between
    summands of the given module (as a multiset of indecomposables)."""
    if cutoff < 1:
        raise NakInputError("cutoff must be >= 1")
    summands = sorted(set(modules))
    if not summands:
        raise NakInputError("phi of the zero module")
    if all(is_projective(A, X) for X in summands):
        raise NakInputError("phi is undefined on projective modules")
    return _first_nonzero_ext(A, [X for X in summands if not is_projective(A, X)],
                              summands, cutoff)


def delta(A: NakAlgebra, cutoff: int) -> BoundedValue:
    """Supremum of phi over non-projective generator-cogenerators.

    Selfinjective case: the maximum of phi over the (finitely many)
    non-projective indecomposables; any inconclusive sub-search makes the
    whole answer a lower bound.  Otherwise: the first degree with
    Ext^r(dual regular, regular) nonzero.
    """
    if cutoff < 1:
        raise NakInputError("cutoff must be >= 1")
    if is_selfinjective(A):
        best = 0
        for X in indecomposables(A):
            if is_projective(A, X):
                continue
            r = phi(A, [X], cutoff)
            if not r.is_finite:
                return BoundedValue.at_least(cutoff)
            best = max(best, r.value)
        return BoundedValue.finite(best)
    return _first_nonzero_ext(A, [I for I in dual_regular(A) if not is_projective(A, I)],
                              [projective(A, i) for i in range(A.n)], cutoff)


def _first_nonzero_ext(A: NakAlgebra, sources: list[NakModule], targets: list[NakModule],
                       cutoff: int) -> BoundedValue:
    """First degree r in [1, cutoff] with Ext^r(X, Y) nonzero for some X in
    ``sources`` and Y in ``targets``.  Each source has one syzygy chain,
    grown by one step per degree, so that no chain is built further than
    the answer needs; every Ext is read from it by ``ext_on_chain``."""
    chains = [[X] for X in sources]
    for r in range(1, cutoff + 1):
        for chain in chains:
            if len(chain) == r and not is_projective(A, chain[-1]):
                chain.append(syzygy(A, chain[-1]))  # type: ignore[arg-type]
            for Y in targets:
                if ext_on_chain(A, r, chain, Y) > 0:
                    return BoundedValue.finite(r)
    return BoundedValue.at_least(cutoff)


def opposite(A: NakAlgebra) -> NakAlgebra:
    """The opposite algebra, renumbered so its arrows again run i -> i+1.

    Reversing arrows swaps "paths out of i" with "paths into i", so the
    opposite Kupisch entries are the injective dimensions, read against
    the reversed numbering.
    """
    n = A.n
    if A.is_cycle:
        kup = [injective_dim_at(A, (-j) % n) for j in range(n)]
    else:
        kup = [injective_dim_at(A, n - 1 - j) for j in range(n)]
    return validate(A.orientation, kup)


def parse_kupisch(text: str) -> tuple[int, ...]:
    """Parse the CLI form of a Kupisch series: comma-separated integers."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise KupischError(f"malformed Kupisch list {text!r}") from exc
