"""Permutation image of the interval operators on standard tableaux.

For every partition of the given sizes, closes the group generated by the
q_ij operators on the standard tableaux of that shape and prints its order
next to the degree, the even/odd split, and whether it contains every even
permutation (degrees <= 8 only).

Example:
    python3 scripts/image_survey.py --sizes 4,5,6
"""

import argparse
import sys

from cactus_crystal.perms import permutation_image
from cactus_crystal.tableaux import partitions_of, standard_tableaux


def survey_shape(shp):
    states = standard_tableaux(shp)
    n = sum(shp)
    from cactus_crystal.tableaux import bk_cactus_act
    maps = [{t: bk_cactus_act(i, j, t) for t in states}
            for i in range(1, n) for j in range(i + 1, n + 1)]
    return permutation_image(states, maps)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="4,5",
                    help="comma-joined cell counts to scan")
    args = ap.parse_args(argv)

    print("shape          degree  order  even  odd  contains-alternating")
    for n in (int(v) for v in args.sizes.split(",")):
        for shp in partitions_of(n):
            rep = survey_shape(shp)
            print("%-14s %6d %6d %5d %4d  %s"
                  % (str(shp), rep["degree"], rep["order"],
                     rep["even"], rep["odd"],
                     {True: "yes", False: "NO", None: "-"}[
                         rep["contains_alternating"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
