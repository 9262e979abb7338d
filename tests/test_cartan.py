import math
import time
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
    reflect,
    simple_root,
    star,
    star_weight,
    weight_add,
    weight_sub,
    weyl_elements,
    zero_weight,
)


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
    assert reflect(c, w, 1) == weight_sub(w, simple_root(c, 1))
    assert reflect(c, w, 2) == w


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
