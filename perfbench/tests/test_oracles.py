"""The oracles agree with the program where the program is known good."""

import workloads as wl
from domdimlab import nakayama as nak


def test_dimension_shift_matches_dim_ext():
    for n in (1, 2, 3):
        for kup in wl.cyclic_pool(n, 5):
            A = nak.validate(nak.CYCLE, kup)
            mods = nak.indecomposables(A)
            for t in (1, 2, 3):
                for M in mods:
                    for N in mods:
                        assert wl.ext_by_shift(A, t, M, N) == nak.dim_ext(A, t, M, N), (kup, t, M, N)


def test_closed_forms():
    assert [wl.closed_form_ext("dihedral8-f2", t) for t in range(1, 5)] == [2, 3, 4, 5]
    assert [wl.closed_form_ext("quaternion8-f2", t) for t in range(1, 9)] == [2, 2, 1, 1] * 2
    assert wl.closed_form_ext("hopf-a5-f2", 3) is None
