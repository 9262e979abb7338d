"""Known answers, computed without calling the package under test.

Every op of the benchmark compares the program's output with a value from
this module: a dimension formula, a hand-written count, or a brute-force
enumeration written here.
"""

from itertools import permutations
from math import factorial


def weyl_dim(weight):
    """Dimension of the type-A irreducible with these fundamental coefficients.

    Hook-content formula: the weight (a_1, .., a_r) is the partition with
    row k of length a_k + .. + a_r, filled from r + 1 letters.
    """
    r = len(weight)
    shape = [sum(weight[k:]) for k in range(r)]
    num = den = 1
    for i, row in enumerate(shape):
        for j in range(row):
            leg = sum(1 for below in shape[i + 1:] if below > j)
            num *= r + 1 + j - i
            den *= row - j + leg
    return num // den


def sweep_points(choices, n):
    """Points of the disjoint union over all n-tuples drawn from choices."""
    return sum(weyl_dim(w) for w in choices) ** n


# Relation counts and family sets of each presentation, written by hand
# from the definitions: C n=4 has 6 involutions, 1 disjoint pair and 9
# nestings; vC adds the 576 products of S_4 and the 23 cabled conjugations.
RELATIONS = {
    ("C", 4): (16, {"involution", "disjoint", "nesting"}),
    ("vC", 4): (615, {"involution", "disjoint", "nesting", "perm_table",
                      "cabled"}),
    ("vC", 3): (46, {"involution", "nesting", "perm_table", "cabled"}),
    ("AC", 4): (55, {"involution", "disjoint", "nesting", "rotation_order",
                     "rotation_shift"}),
    ("MC", 4): (22, {"t_involution", "t_disjoint", "t_conjugation",
                     "interval_involution", "interval_disjoint",
                     "interval_nesting"}),
    ("C", 2): (1, {"involution"}),
}


def rearrangements(pairs):
    """Distinct orderings of a sequence: the orbit under all transpositions."""
    count = factorial(len(pairs))
    for item in set(pairs):
        count //= factorial(pairs.count(item))
    return count


def translations(n, i, j):
    """Permutations of 1..n (one-line) that move the block [i, j] rigidly."""
    q = j - i
    return {w for w in permutations(range(1, n + 1))
            if all(w[i - 1 + k] == w[i - 1] + k for k in range(q + 1))}


def braid_witness():
    """The smallest tableau on which adjacent swaps fail to braid."""
    return ((1, 2), (3,))
