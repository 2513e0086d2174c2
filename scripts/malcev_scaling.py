#!/usr/bin/env python3
"""Cold `classify` time and peak RSS for groups of order 16 to 64.

    python scripts/malcev_scaling.py [NAME ...]

NAME is one of Z16, E2^4, Z32, E2^5, Z64 and D8xZ2 (all six by default):
the cyclic groups, the elementary abelian 2-groups as powers of Z2, and the
dihedral group of order 8 times Z2, each with mul and inv.  Each algebra is
classified in a child interpreter of its own, which reports its own peak
RSS, VmHWM from /proc/self/status: a child's ru_maxrss would include the
RSS of the process that started it.  Where /proc is missing the RSS column
reads n/a.  Exits 1 if a child fails.
"""

import json
import subprocess
import sys
import time

NAMES = ("Z16", "E2^4", "Z32", "E2^5", "Z64", "D8xZ2")


def build(name: str):
    from mvcirc.algebra import FiniteAlgebra, direct_product, op_from_fn

    def cyclic(n: int) -> FiniteAlgebra:
        return FiniteAlgebra(f"Z{n}", n, (op_from_fn("mul", 2, n, lambda x, y: (x + y) % n),
                                         op_from_fn("inv", 1, n, lambda x: -x % n)))

    if name == "D8xZ2":
        # r^k s^e is element k + 4e; s r^k = r^-k s
        def mul(x: int, y: int) -> int:
            k, e, j, f = x % 4, x // 4, y % 4, y // 4
            return (k + (-j if e else j)) % 4 + 4 * (e ^ f)

        d8 = FiniteAlgebra("D8", 8, (op_from_fn("mul", 2, 8, mul),
                                     op_from_fn("inv", 1, 8, lambda x: x if x >= 4 else -x % 4)))
        return direct_product(d8, cyclic(2), name)
    if name.startswith("E2^"):
        alg = cyclic(2)
        for _ in range(int(name[3:]) - 1):
            alg = direct_product(alg, cyclic(2))
        return alg.rename(name)
    return cyclic(int(name[1:]))


def peak_rss_mb() -> float | None:
    """This process's own peak RSS (VmHWM), in MB, or None without /proc."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def child(name: str) -> None:
    from mvcirc.structure import classify

    alg = build(name)
    start = time.perf_counter()
    report = classify(alg)
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "rss_mb": peak_rss_mb(), "abelian": report.abelian,
                      "typeset": report.typeset}))


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        child(argv[1])
        return 0
    names = argv or list(NAMES)
    unknown = [n for n in names if n not in NAMES]
    if unknown:
        print(f"unknown algebra {unknown[0]!r}; expected one of {', '.join(NAMES)}", file=sys.stderr)
        return 64
    print(f"{'algebra':8s} {'classify_s':>10s} {'peak_rss_mb':>11s}  abelian  typeset")
    for name in names:
        proc = subprocess.run([sys.executable, __file__, "--child", name],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: child failed\n{proc.stderr}", file=sys.stderr)
            return 1
        row = json.loads(proc.stdout.splitlines()[-1])
        rss = "n/a" if row["rss_mb"] is None else f"{row['rss_mb']:.1f}"
        print(f"{name:8s} {row['seconds']:10.2f} {rss:>11s}  {str(row['abelian']):7s}  {row['typeset']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
