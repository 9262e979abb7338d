"""Sweep the relation verifier over group flavours and product sizes.

Prints one line per (flavour, n, weight choice set) job with the relation
count, point count and wall time; exits 1 if any job finds a violation.

Example:
    python3 scripts/relation_survey.py --max-n 4 --choices 1,2
"""

import argparse
import sys
from itertools import product

from cactus_crystal.actions import verify_relations
from cactus_crystal.cartan import cartan_type_a


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rank", type=int, default=1)
    ap.add_argument("--max-n", type=int, default=4)
    ap.add_argument("--choices", default="1,2",
                    help="comma-joined A1 coefficients (or fundamental "
                         "indices at higher rank) allowed per factor")
    ap.add_argument("--kinds", default="C,vC,MC,AC")
    args = ap.parse_args(argv)

    cartan = cartan_type_a(args.rank)
    if args.rank == 1:
        choices = [(int(v),) for v in args.choices.split(",")]
    else:
        choices = [tuple(1 if k == int(v) - 1 else 0 for k in range(args.rank))
                   for v in args.choices.split(",")]

    bad = 0
    for kind in args.kinds.split(","):
        for n in range(3, args.max_n + 1):
            tuples = sorted(set(product(choices, repeat=n)))
            rep = verify_relations(cartan, kind, n, tuples)
            verdict = "ok" if rep["passed"] else "FAIL"
            print("%-3s n=%d  relations=%-4d points=%-6d %6.2fs  %s"
                  % (kind, n, rep["relations"], rep["points"],
                     rep["duration_s"], verdict))
            if not rep["passed"]:
                bad += 1
                for f in rep["failures"][:3]:
                    print("    %s: %s != %s at %s"
                          % (f["family"], f["lhs"], f["rhs"], f["point"]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
