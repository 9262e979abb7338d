import time
from itertools import product

import pytest

from cactus_crystal.cartan import (
    CartanError,
    cartan_explicit,
    cartan_from_json,
    cartan_to_json,
    cartan_type_a,
    fundamental_weight,
    simple_root,
    star,
    weight_add,
    weight_sub,
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
    with pytest.raises(CartanError, match="not of type A"):
        cartan_explicit(matrix)


def _det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def test_finite_type_matches_leading_minors():
    # every symmetric 3x3 generalised Cartan matrix with entries down to -3:
    # positive leading minors make it finite type, but of the finite types
    # only A3 in its standard labelling is accepted
    finite = 0
    for a, b, c in product(range(0, -4, -1), repeat=3):
        matrix = [[2, a, b], [a, 2, c], [b, c, 2]]
        if matrix == [list(row) for row in cartan_type_a(3).matrix]:
            assert cartan_explicit(matrix).rank == 3
            continue
        finite += all(_det([row[:k] for row in matrix[:k]]) > 0 for k in (1, 2, 3))
        with pytest.raises(CartanError, match="not of type A"):
            cartan_explicit(matrix)
    # A1 x A1 x A1, A1 x A2 three ways, and A3 relabelled twice
    assert finite == 6


B2 = [[2, -1], [-2, 2]]
G2 = [[2, -1], [-3, 2]]


@pytest.mark.parametrize("matrix", [B2, G2, [], [[2, -1], [-1]],
                                    [[2, -1, 0], [-1, 2, -1]]])
def test_only_type_a_is_accepted(matrix):
    message = "Cartan matrix is not of type A: crystals are constructed in " \
        "type A only"
    with pytest.raises(CartanError) as info:
        cartan_explicit(matrix)
    assert str(info.value) == message
    with pytest.raises(CartanError, match=message):
        cartan_from_json({"type": "explicit", "matrix": matrix})


def test_a_long_column_is_refused_quickly():
    # squareness is tested before the A_n matrix of the row count is built
    start = time.monotonic()
    with pytest.raises(CartanError, match="not of type A"):
        cartan_explicit([[2]] * 10 ** 5)
    assert time.monotonic() - start < 0.3


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
            assert simple_root(c, i)[j - 1] == c.matrix[j - 1][i - 1]


def test_fundamental_weights_dual_to_coroots():
    c = cartan_type_a(3)
    for i in c.index_range():
        w = fundamental_weight(c, i)
        assert [w[j - 1] for j in c.index_range()] == \
            [1 if j == i else 0 for j in c.index_range()]


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_star_closed_form_type_a(rank):
    c = cartan_type_a(rank)
    for i in c.index_range():
        assert star(c, i) == rank + 1 - i


def test_star_via_explicit_matrix_agrees():
    # an explicit matrix equal to the A3 one is type A too
    ce = cartan_explicit([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    for i in ce.index_range():
        assert star(ce, i) == 3 + 1 - i


def test_weight_arithmetic():
    c = cartan_type_a(2)
    w = fundamental_weight(c, 1)
    zero = (0,) * c.rank
    assert weight_add(w, zero) == w
    assert weight_sub(w, w) == zero


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
