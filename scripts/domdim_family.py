#!/usr/bin/env python3
"""Dominant dimension along the family (n, n+1, ..., n+1).

Tabulates domdim against 2n - 2 and, for small n, confirms the
gendo-symmetric hypothesis with the bimodule test on the bridged table.
Exits 1 when some row is a MISMATCH or the bimodule test says no.
"""

import argparse
import sys

from domdimlab import homology as hml
from domdimlab import nakayama as nak
from domdimlab import quivalg as qa
from domdimlab.exactmath import F2


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=10)
    parser.add_argument("--bimodule-up-to", type=int, default=6,
                        help="run the gendo-symmetric bimodule test for n up to here")
    parser.add_argument("--cutoff", type=int, default=64)
    args = parser.parse_args()

    print(f"{'n':>3} {'kupisch':<22} {'domdim':>7} {'2n-2':>5} {'gendo':>7}")
    failed = False
    for n in range(2, args.n_max + 1):
        A = nak.validate(nak.CYCLE, (n,) + (n + 1,) * (n - 1))
        dd = nak.domdim(A, args.cutoff)
        gendo = "-"
        if n <= args.bimodule_up_to:
            table = qa.nakayama_to_table(A, F2)
            gendo = "yes" if hml.is_gendo_symmetric(table, args.cutoff) else "no"
        flag = "" if dd.is_finite and dd.value == 2 * n - 2 else "  <-- MISMATCH"
        print(f"{n:>3} {A.describe():<22} {str(dd):>7} {2 * n - 2:>5} {gendo:>7}{flag}")
        failed = failed or bool(flag) or gendo == "no"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
