#!/usr/bin/env python3
"""Print the classification table for every built-in algebra, each row with
its classify time in milliseconds (time.perf_counter)."""

import sys
import time

from mvcirc.structure import classify
from mvcirc.zoo import zoo


def main() -> int:
    header = f"{'algebra':14s} {'nilp':>5s} {'snil':>8s} {'affine':>8s} {'DL':>8s}  CSAT / MCSAT / SCSAT / CEQV"
    print(header)
    print("-" * len(header))
    for entry in zoo():
        alg = entry.algebra     # built lazily; AD2's build imports the reductions
        t0 = time.perf_counter()
        rep = classify(alg)
        ms = (time.perf_counter() - t0) * 1000
        verdicts = " / ".join(
            rep.verdicts[p].kind for p in ("CSAT", "MCSAT", "SCSAT", "CEQV")
        )
        print(
            f"{entry.name:14s} {str(rep.nilpotent):>5s} {rep.supernilpotent.value:>8s} "
            f"{rep.affine.value:>8s} {rep.dl_like.value:>8s}  {verdicts}"
            f"   [{ms:.2f} ms]"
        )
        for caveat in rep.caveats:
            print(f"{'':14s} caveat: {caveat}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
