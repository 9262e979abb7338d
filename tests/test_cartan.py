import math
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from cactus_crystal.cartan import (
    CartanError,
    cartan_explicit,
    cartan_from_json,
    cartan_to_json,
    cartan_type_a,
    fundamental_weight,
    is_dominant,
    longest_element,
    pairing,
    simple_root,
    star,
    star_weight,
    weight_add,
    weight_sub,
    weyl_elements,
    zero_weight,
)
from cactus_crystal.cartan import _check_gcm, _mat_apply, _reflection_matrix


def test_type_a_shape():
    c = cartan_type_a(3)
    assert c.rank == 3
    assert list(c.index_range()) == [1, 2, 3]
    assert c.matrix == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))


def test_explicit_matches_type_a():
    assert cartan_explicit([[2, -1], [-1, 2]]).matrix == cartan_type_a(2).matrix


def test_rejects_bad_diagonal():
    with pytest.raises(CartanError):
        cartan_explicit([[1, -1], [-1, 2]])


def test_rejects_positive_off_diagonal():
    with pytest.raises(CartanError):
        cartan_explicit([[2, 1], [1, 2]])


def test_rejects_asymmetric_zeros():
    with pytest.raises(CartanError):
        cartan_explicit([[2, 0], [-1, 2]])


def test_rejects_affine_matrix():
    with pytest.raises(CartanError):
        cartan_explicit([[2, -2], [-2, 2]])


@pytest.mark.parametrize("matrix", [
    [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],    # affine A2^(1): determinant 0
    [[2, -5], [-1, 2]],                         # symmetrizable, indefinite
])
def test_rejects_non_finite_type(matrix):
    with pytest.raises(CartanError, match="not of finite type"):
        cartan_explicit(matrix)


def _det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def test_finite_type_matches_leading_minors():
    # every symmetric 3x3 generalised Cartan matrix with entries down to -3
    for a, b, c in product(range(0, -4, -1), repeat=3):
        matrix = [[2, a, b], [a, 2, c], [b, c, 2]]
        finite = all(_det([row[:k] for row in matrix[:k]]) > 0 for k in (1, 2, 3))
        if finite:
            assert cartan_explicit(matrix).rank == 3
        else:
            with pytest.raises(CartanError, match="not of finite type"):
                cartan_explicit(matrix)


def _fraction_outcome(matrix):
    """The message of the rational finite-type check, or None: symmetrizer
    and pivots of DA as Fractions, the way the check was first written."""
    _check_gcm(matrix)
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
                    return "Cartan matrix is not symmetrizable"
    sym = [[d[i] * matrix[i][j] for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = sym[col][col]
        if pivot <= 0:
            return "Cartan matrix is not of finite type"
        for r in range(col + 1, n):
            factor = sym[r][col] / pivot
            sym[r][col:] = [a - factor * b
                            for a, b in zip(sym[r][col:], sym[col][col:])]
    return None


def _gcms(n):
    """Every n x n matrix with 2 on the diagonal and off-diagonal entries in
    0, -1, -2, -3."""
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    for values in product(range(0, -4, -1), repeat=len(off)):
        m = [[2] * n for _ in range(n)]
        for (i, j), v in zip(off, values):
            m[i][j] = v
        yield m


# the matrices the other tests of this file build
FILE_MATRICES = [
    [[1, -1], [-1, 2]], [[2, 1], [1, 2]], [[2, 0], [-1, 2]], [[2, -2], [-2, 2]],
    [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], [[2, -5], [-1, 2]],
    [[2, -1], [-1, 2]], [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
]


def test_integer_finite_type_check_matches_fractions():
    verdicts = set()
    for m in [*_gcms(2), *_gcms(3), *FILE_MATRICES]:
        try:
            cartan_explicit(m)
            got = None
        except CartanError as exc:
            got = str(exc)
        try:
            want = _fraction_outcome(m)
        except CartanError as exc:
            want = str(exc)
        assert got == want, m
        verdicts.add(want)
    # the sweep reaches every verdict: finite, not symmetrizable, not finite
    assert {None, "Cartan matrix is not symmetrizable",
            "Cartan matrix is not of finite type"} <= verdicts


@pytest.mark.parametrize("matrix", [[[2, False], [False, 2]],
                                    [[True, -1], [-1, 2]]])
def test_rejects_boolean_entries(matrix):
    with pytest.raises(CartanError, match="entries must be integers"):
        cartan_explicit(matrix)
    with pytest.raises(CartanError, match="entries must be integers"):
        cartan_from_json({"type": "explicit", "matrix": matrix})


def test_large_type_a_builds_quickly():
    start = time.monotonic()
    assert cartan_type_a(80).rank == 80
    assert time.monotonic() - start < 0.3


def test_simple_root_columns():
    c = cartan_type_a(2)
    assert simple_root(c, 1) == (2, -1)
    assert simple_root(c, 2) == (-1, 2)
    for i in c.index_range():
        for j in c.index_range():
            assert pairing(c, simple_root(c, i), j) == c.matrix[j - 1][i - 1]


def test_fundamental_weights_dual_to_coroots():
    c = cartan_type_a(3)
    for i in c.index_range():
        w = fundamental_weight(c, i)
        assert [pairing(c, w, j) for j in c.index_range()] == \
            [1 if j == i else 0 for j in c.index_range()]
        assert is_dominant(c, w)


def test_reflection_formula():
    c = cartan_type_a(2)
    w = fundamental_weight(c, 1)
    s1, s2 = (_reflection_matrix(c, i) for i in (1, 2))
    assert _mat_apply(s1, w) == weight_sub(w, simple_root(c, 1))
    assert _mat_apply(s2, w) == w


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_weyl_group_order(rank):
    # |W(A_r)| = (r + 1)!
    c = cartan_type_a(rank)
    assert len(weyl_elements(c)) == math.factorial(rank + 1)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_longest_element_is_an_involution(rank):
    c = cartan_type_a(rank)
    w0 = longest_element(c)
    n = c.rank
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    sq = tuple(tuple(sum(w0[i][k] * w0[k][j] for k in range(n)) for j in range(n))
               for i in range(n))
    assert sq == ident
    if rank >= 1:
        assert w0 != ident


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_star_closed_form_type_a(rank):
    c = cartan_type_a(rank)
    for i in c.index_range():
        assert star(c, i) == rank + 1 - i


def test_star_via_explicit_matrix_agrees():
    # the explicit route recomputes -w0 from scratch
    ce = cartan_explicit([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    for i in ce.index_range():
        assert star(ce, i) == 3 + 1 - i


@given(st.integers(1, 3), st.lists(st.integers(-3, 3), min_size=1, max_size=3))
def test_star_weight_involution(rank, coeffs):
    c = cartan_type_a(rank)
    w = tuple((coeffs * 3)[:rank])
    assert star_weight(c, star_weight(c, w)) == w


def test_star_weight_fixes_sum_of_fundamentals():
    c = cartan_type_a(3)
    rho = weight_add(weight_add(fundamental_weight(c, 1), fundamental_weight(c, 2)),
                     fundamental_weight(c, 3))
    assert star_weight(c, rho) == rho


def test_weight_arithmetic():
    c = cartan_type_a(2)
    w = fundamental_weight(c, 1)
    assert weight_add(w, zero_weight(c)) == w
    assert weight_sub(w, w) == zero_weight(c)


def test_json_roundtrip():
    for c in (cartan_type_a(2), cartan_explicit([[2, -1], [-1, 2]])):
        assert cartan_from_json(cartan_to_json(c)) == c


def test_json_rejects_garbage():
    with pytest.raises(CartanError):
        cartan_from_json({"type": "Z"})


@pytest.mark.parametrize("doc", [
    [1], "A2", {"type": "A"}, {"type": "A", "rank": "x"},
    {"type": "A", "rank": True}, {"type": "explicit"},
    {"type": "explicit", "matrix": 5}, {"type": "explicit", "matrix": [1]},
])
def test_json_rejects_malformed_documents(doc):
    with pytest.raises(CartanError, match="bad Cartan JSON"):
        cartan_from_json(doc)
