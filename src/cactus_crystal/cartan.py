"""Cartan data, integral weights, and the involution i -> i* induced by -w0.

Weights are fundamental-weight coefficient vectors, stored as plain tuples of
ints.  Simple roots are then the columns of the Cartan matrix.  The longest
Weyl element needed for i* is found by brute-force closure of the simple
reflections, which is fine at the small ranks this package targets; type A
additionally gets the closed form i* = r + 1 - i.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, sub

from . import CactusError, Frozen, check_budget, setfield

Weight = tuple

# guard for the brute-force Weyl closure (F4 has order 1152; E8 would not fit)
WEYL_CLOSURE_LIMIT = 100_000


class CartanError(CactusError):
    pass


class CartanData(Frozen):
    """A finite-type generalized Cartan matrix, rows a_ij = <alpha_j, alpha_i^vee>."""

    __slots__ = ("ctype", "matrix", "_hash")

    def __init__(self, ctype, matrix):
        if ctype not in ("A", "explicit"):
            raise CartanError("unknown Cartan type %r" % (ctype,))
        _check_gcm(matrix)
        _check_finite_type(matrix)
        setfield(self, "ctype", ctype)
        setfield(self, "matrix", matrix)
        setfield(self, "_key", (ctype, matrix))
        # every lru_cache call hashes the Cartan data
        setfield(self, "_hash", hash(self._key))

    def __hash__(self):
        return self._hash

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
            if type(a) is not int:
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


def _is_symmetrizable(matrix):
    """Are there positive d_i with d_i a_ij = d_j a_ji?  Each d_i is kept as
    an integer pair num/den, and pairs are compared cross-multiplied."""
    n = len(matrix)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = (1, 1)
        stack = [start]
        while stack:
            i = stack.pop()
            num, den = d[i]
            for j in range(n):
                if matrix[i][j] == 0 or i == j:
                    continue
                want = (num * matrix[i][j], den * matrix[j][i])
                if d[j] is None:
                    d[j] = want
                    stack.append(j)
                elif d[j][0] * want[1] != want[0] * d[j][1]:
                    return False
    return True


def _check_finite_type(matrix):
    """Raise unless DA, for D the positive diagonal symmetrizer, is positive
    definite: its k-th leading principal minor is d_1..d_k times that of A,
    so every leading principal minor of A must be positive.  They are the
    pivots of integer Bareiss elimination.  A step whose pivot column is
    zero in a row only rescales it, so the row is rescaled when next read."""
    if not _is_symmetrizable(matrix):
        raise CartanError("Cartan matrix is not symmetrizable")
    n = len(matrix)
    rows = [list(row) for row in matrix]
    minors = [1]       # minors[k]: the leading principal minor of order k
    at = [0] * n       # rows[i] holds its entries after at[i] steps

    def row_after(i, k):
        if at[i] != k:
            rows[i] = [a * minors[k] // minors[at[i]] for a in rows[i]]
            at[i] = k
        return rows[i]

    for k in range(n):
        top = row_after(k, k)
        pivot = top[k]
        if pivot <= 0:
            raise CartanError("Cartan matrix is not of finite type")
        minors.append(pivot)
        for i in range(k + 1, n):
            if rows[i][k]:
                row = row_after(i, k)
                lead = row[k]
                rows[i] = [(a * pivot - lead * b) // minors[k]
                           for a, b in zip(row, top)]
                at[i] = k + 1


def type_a_matrix(rank):
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(rank))
        for i in range(rank)
    )


def cartan_type_a(rank):
    if rank < 1:
        raise CartanError("type A rank must be >= 1")
    # the matrix and its finite-type check grow with rank^2
    check_budget(rank * rank, "the Cartan matrix of A%d" % rank, error=CartanError)
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
