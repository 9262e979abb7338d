"""Cartan data, integral weights, and the involution i -> i* induced by -w0.

Weights are fundamental-weight coefficient vectors, stored as plain tuples of
ints.  Simple roots are then the columns of the Cartan matrix.  The longest
Weyl element needed for i* is found by brute-force closure of the simple
reflections, which is fine at the small ranks this package targets; type A
additionally gets the closed form i* = r + 1 - i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, sub

from . import CactusError

Weight = tuple

# guard for the brute-force Weyl closure (F4 has order 1152; E8 would not fit)
WEYL_CLOSURE_LIMIT = 100_000


class CartanError(CactusError):
    pass


@dataclass(frozen=True)
class CartanData:
    """A finite-type generalized Cartan matrix, rows a_ij = <alpha_j, alpha_i^vee>."""

    ctype: str
    matrix: tuple

    def __post_init__(self):
        if self.ctype not in ("A", "explicit"):
            raise CartanError("unknown Cartan type %r" % (self.ctype,))
        _check_gcm(self.matrix)
        _check_finite_type(self.matrix)

    @property
    def rank(self):
        return len(self.matrix)

    def index_range(self):
        return range(1, self.rank + 1)


def _check_gcm(matrix):
    n = len(matrix)
    if n == 0:
        raise CartanError("empty Cartan matrix")
    for row in matrix:
        if len(row) != n:
            raise CartanError("Cartan matrix is not square")
        for a in row:
            if not isinstance(a, int):
                raise CartanError("Cartan matrix entries must be integers")
    for i in range(n):
        if matrix[i][i] != 2:
            raise CartanError("diagonal entry a_%d%d = %d != 2" % (i + 1, i + 1, matrix[i][i]))
        for j in range(n):
            if i == j:
                continue
            if matrix[i][j] > 0:
                raise CartanError("off-diagonal entry a_%d%d > 0" % (i + 1, j + 1))
            if (matrix[i][j] == 0) != (matrix[j][i] == 0):
                raise CartanError("a_%d%d = 0 but a_%d%d != 0" % (i + 1, j + 1, j + 1, i + 1))


def _symmetrizer(matrix):
    """Positive rationals d_i with d_i a_ij = d_j a_ji, or None."""
    n = len(matrix)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if matrix[i][j] == 0 or i == j:
                    continue
                want = d[i] * matrix[i][j] / matrix[j][i]
                if d[j] is None:
                    d[j] = want
                    stack.append(j)
                elif d[j] != want:
                    return None
    return d


def _check_finite_type(matrix):
    d = _symmetrizer(matrix)
    if d is None:
        raise CartanError("Cartan matrix is not symmetrizable")
    n = len(matrix)
    sym = [[d[i] * matrix[i][j] for j in range(n)] for i in range(n)]
    # positive definite iff every pivot of elimination without row swaps is
    # positive: the k-th pivot is the ratio of the k-th and (k-1)-th leading
    # principal minors
    for col in range(n):
        pivot = sym[col][col]
        if pivot <= 0:
            raise CartanError("Cartan matrix is not of finite type")
        for r in range(col + 1, n):
            factor = sym[r][col] / pivot
            if factor:
                sym[r][col:] = [a - factor * b
                                for a, b in zip(sym[r][col:], sym[col][col:])]


def type_a_matrix(rank):
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(rank))
        for i in range(rank)
    )


def cartan_type_a(rank):
    if rank < 1:
        raise CartanError("type A rank must be >= 1")
    return CartanData("A", type_a_matrix(rank))


def cartan_explicit(matrix):
    return CartanData("explicit", tuple(tuple(row) for row in matrix))


def cartan_from_json(obj):
    """{"type": "A", "rank": int} or {"type": "explicit", "matrix": rows}."""
    kind = obj.get("type") if isinstance(obj, dict) else None
    if kind == "A" and type(obj.get("rank")) is int:
        return cartan_type_a(obj["rank"])
    matrix = obj.get("matrix") if kind == "explicit" else None
    if isinstance(matrix, list) and all(isinstance(r, list) for r in matrix):
        return cartan_explicit(matrix)
    raise CartanError("bad Cartan JSON %r: want an integer 'rank' for type A "
                      "or a 'matrix' list of rows for type explicit" % (obj,))


def cartan_to_json(cartan):
    if cartan.ctype == "A":
        return {"type": "A", "rank": cartan.rank}
    return {"type": "explicit", "matrix": [list(row) for row in cartan.matrix]}


# ---------------------------------------------------------------------------
# weights


def zero_weight(cartan):
    return (0,) * cartan.rank


def fundamental_weight(cartan, i):
    return tuple(1 if j == i - 1 else 0 for j in range(cartan.rank))


def simple_root(cartan, i):
    """alpha_i in fundamental-weight coordinates: column i of the Cartan matrix."""
    return tuple(cartan.matrix[j][i - 1] for j in range(cartan.rank))


def pairing(cartan, weight, i):
    """<weight, alpha_i^vee>, i.e. the i-th coefficient."""
    return weight[i - 1]


def is_dominant(cartan, weight):
    return all(c >= 0 for c in weight)


def weight_add(a, b):
    return tuple(map(add, a, b))


def weight_sub(a, b):
    return tuple(map(sub, a, b))


# ---------------------------------------------------------------------------
# Weyl group closure and the star involution


def _reflection_matrix(cartan, i):
    n = cartan.rank
    return tuple(
        tuple((1 if j == k else 0) - (cartan.matrix[j][i - 1] if k == i - 1 else 0)
              for k in range(n))
        for j in range(n)
    )


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _mat_apply(m, v):
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in m)


@lru_cache(maxsize=None)
def weyl_elements(cartan):
    """All Weyl group elements as matrices acting on coefficient vectors."""
    gens = [_reflection_matrix(cartan, i) for i in cartan.index_range()]
    identity = tuple(tuple(1 if i == j else 0 for j in range(cartan.rank))
                     for i in range(cartan.rank))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                wg = _mat_mul(g, w)
                if wg not in seen:
                    seen.add(wg)
                    nxt.append(wg)
        if len(seen) > WEYL_CLOSURE_LIMIT:
            raise CartanError("Weyl group too large for brute-force closure")
        frontier = nxt
    return frozenset(seen)


@lru_cache(maxsize=None)
def longest_element(cartan):
    """w0 as a matrix, identified by w0(rho) = -rho."""
    rho = (1,) * cartan.rank
    neg = tuple(-1 for _ in range(cartan.rank))
    for w in weyl_elements(cartan):
        if _mat_apply(w, rho) == neg:
            return w
    raise CartanError("no longest element found; matrix is not of finite type")


@lru_cache(maxsize=None)
def star(cartan, i):
    """The index i* with alpha_{i*} = -w0(alpha_i)."""
    if not 1 <= i <= cartan.rank:
        raise CartanError("index %d out of range" % i)
    if cartan.ctype == "A":
        return cartan.rank + 1 - i
    w0 = longest_element(cartan)
    target = tuple(-c for c in _mat_apply(w0, simple_root(cartan, i)))
    for j in cartan.index_range():
        if simple_root(cartan, j) == target:
            return j
    raise CartanError("-w0 does not permute the simple roots")


def star_weight(cartan, weight):
    """-w0(weight); permutes fundamental-weight coefficients by i -> i*."""
    out = [0] * cartan.rank
    for i in cartan.index_range():
        out[star(cartan, i) - 1] = weight[i - 1]
    return tuple(out)
