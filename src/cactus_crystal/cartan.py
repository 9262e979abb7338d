"""Cartan data, integral weights, and the involution i -> i* induced by -w0.

Weights are fundamental-weight coefficient vectors, stored as plain tuples of
ints.  Simple roots are then the columns of the Cartan matrix.  Any
finite-type matrix is accepted as Cartan data, but i* is computed for type A
only, by the closed form i* = r + 1 - i, as the crystals are built in type A
only.
"""

from __future__ import annotations

from operator import add, sub

from . import CactusError, Frozen, check_budget, setfield


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


def is_type_a(cartan):
    return cartan.ctype == "A" or cartan.matrix == type_a_matrix(cartan.rank)


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


def fundamental_weight(cartan, i):
    return tuple(1 if j == i - 1 else 0 for j in range(cartan.rank))


def simple_root(cartan, i):
    """alpha_i in fundamental-weight coordinates: column i of the Cartan matrix."""
    return tuple(cartan.matrix[j][i - 1] for j in range(cartan.rank))


def weight_add(a, b):
    return tuple(map(add, a, b))


def weight_sub(a, b):
    return tuple(map(sub, a, b))


# ---------------------------------------------------------------------------
# the star involution


def star(cartan, i):
    """The index i* with alpha_{i*} = -w0(alpha_i), in type A only."""
    if not 1 <= i <= cartan.rank:
        raise CartanError("index %d out of range" % i)
    if not is_type_a(cartan):
        raise CartanError("i* is computed for type A only")
    return cartan.rank + 1 - i
