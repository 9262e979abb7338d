"""Search for Bender-Knuth braid failures and print the smallest witness.

The adjacent-swap operators square to the identity but need not braid; this
scans semistandard tableaux by cell count and reports the first triple
product mismatch, plus a census of how many fillings fail per shape.

Example:
    python3 scripts/braid_search.py --max-cells 7 --max-entry 5
"""

import argparse
import sys

from cactus_crystal.crystal import semistandard_tableaux
from cactus_crystal.tableaux import bender_knuth, bk_braid_witness, partitions_of


def census(max_cells, max_entry):
    rows = []
    for n in range(1, max_cells + 1):
        for shp in partitions_of(n):
            tabs = semistandard_tableaux(shp, max_entry)
            bad = 0
            for t in tabs:
                for i in range(1, max_entry - 1):
                    lhs = bender_knuth(i, bender_knuth(i + 1, bender_knuth(i, t)))
                    rhs = bender_knuth(i + 1, bender_knuth(i, bender_knuth(i + 1, t)))
                    if lhs != rhs:
                        bad += 1
                        break
            rows.append((shp, len(tabs), bad))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-cells", type=int, default=6)
    ap.add_argument("--max-entry", type=int, default=4)
    ap.add_argument("--census", action="store_true",
                    help="also count braid failures per shape")
    args = ap.parse_args(argv)

    w = bk_braid_witness(max_cells=args.max_cells, max_entry=args.max_entry)
    if w is None:
        print("no witness up to %d cells with entries <= %d"
              % (args.max_cells, args.max_entry))
        return 1
    print("witness with %d cells, shape %s, index i=%d"
          % (w["cells"], w["shape"], w["index"]))
    print("  T       = %s" % (w["tableau"],))
    print("  t_i t_{i+1} t_i (T)     = %s" % (w["lhs"],))
    print("  t_{i+1} t_i t_{i+1} (T) = %s" % (w["rhs"],))

    if args.census:
        print("\nshape          fillings  with-braid-failure")
        for shp, total, bad in census(args.max_cells, args.max_entry):
            print("%-14s %8d  %d" % (str(shp), total, bad))
    return 0


if __name__ == "__main__":
    sys.exit(main())
