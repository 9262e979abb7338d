"""Cartan data, integral weights, and the involution i -> i* induced by -w0.

Weights are fundamental-weight coefficient vectors, stored as plain tuples of
ints.  Simple roots are then the columns of the Cartan matrix.  The crystals
are built in type A only, so CartanData accepts the type-A matrix alone, and
every layer above may assume it: i* is the closed form i* = r + 1 - i.
"""

from __future__ import annotations

from operator import add, sub

from . import CactusError, Frozen, check_budget, setfield


class CartanError(CactusError):
    pass


class CartanData(Frozen):
    """The type-A Cartan matrix, rows a_ij = <alpha_j, alpha_i^vee>, given by
    its rank (ctype "A") or in full (ctype "explicit")."""

    __slots__ = ("ctype", "matrix", "_hash")

    def __init__(self, ctype, matrix):
        if ctype not in ("A", "explicit"):
            raise CartanError("unknown Cartan type %r" % (ctype,))
        n = len(matrix)
        if any(type(a) is not int for row in matrix for a in row):
            raise CartanError("Cartan matrix entries must be integers")
        # the squareness test spares building A_n for a long column of rows
        if not n or any(len(row) != n for row in matrix) \
                or matrix != type_a_matrix(n):
            raise CartanError("Cartan matrix is not of type A: crystals are "
                              "constructed in type A only")
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


def type_a_matrix(rank):
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(rank))
        for i in range(rank)
    )


def cartan_type_a(rank):
    if rank < 1:
        raise CartanError("type A rank must be >= 1")
    # the matrix and its type check grow with rank^2
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
    """The index i* with alpha_{i*} = -w0(alpha_i)."""
    if not 1 <= i <= cartan.rank:
        raise CartanError("index %d out of range" % i)
    return cartan.rank + 1 - i
