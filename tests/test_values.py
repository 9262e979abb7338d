"""The value classes: equality by class and fields, hashing, immutability,
keyword construction and the dataclass-style repr."""

import pytest

from cactus_crystal.actions import LabeledPoint
from cactus_crystal.cartan import CartanData, cartan_type_a
from cactus_crystal.commutor import CrystalBijection, schutzenberger
from cactus_crystal.crystal import CrystalGraph, build_irreducible
from cactus_crystal.groups import (AffineR, AffineS, CactusGen, GroupWord,
                                   MirabolicT, PermGen)

A1 = cartan_type_a(1)

# (class, keyword arguments, repr), the repr as the dataclasses printed it
FROZEN = [
    (CartanData, {"ctype": "explicit", "matrix": ((2, -1), (-1, 2))},
     "CartanData(ctype='explicit', matrix=((2, -1), (-1, 2)))"),
    (CactusGen, {"i": 1, "j": 2}, "CactusGen(i=1, j=2)"),
    (PermGen, {"perm": (2, 1, 3)}, "PermGen(perm=(2, 1, 3))"),
    (MirabolicT, {"i": 0}, "MirabolicT(i=0)"),
    (AffineS, {"i": 3, "j": 1}, "AffineS(i=3, j=1)"),
    (AffineR, {}, "AffineR()"),
    (GroupWord, {"kind": "vC", "n": 3,
                 "gens": (CactusGen(1, 2), PermGen((2, 1, 3)))},
     "GroupWord(kind='vC', n=3, gens=(CactusGen(i=1, j=2), "
     "PermGen(perm=(2, 1, 3))))"),
    (LabeledPoint, {"weights": ((1,), (2,)), "entries": (0, 1)},
     "LabeledPoint(weights=((1,), (2,)), entries=(0, 1))"),
]
IDS = [cls.__name__ for cls, _, _ in FROZEN]


@pytest.mark.parametrize("cls, kwargs, text", FROZEN, ids=IDS)
def test_frozen_value_semantics(cls, kwargs, text):
    value = cls(**kwargs)
    twin = cls(*kwargs.values())
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert len({value, twin}) == 1
    assert repr(value) == text
    for name, field in kwargs.items():
        assert getattr(value, name) == field
    for name in [*kwargs, "other"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in kwargs:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value != tuple(kwargs.values())


def test_equality_is_class_aware():
    assert CactusGen(1, 2) != AffineS(1, 2)
    assert AffineS(1, 2) != CactusGen(1, 2)
    assert MirabolicT(1) != PermGen(1)
    assert CactusGen(1, 2) != CactusGen(2, 1)
    assert len({CactusGen(1, 2), AffineS(1, 2), CactusGen(1, 2)}) == 2
    assert {CactusGen(1, 2): "s"}.get(AffineS(1, 2)) is None


def test_constructors_still_validate():
    with pytest.raises(ValueError, match="disagree in length"):
        LabeledPoint(weights=((1,),), entries=(0, 1))
    with pytest.raises(ValueError, match="unknown flavour"):
        GroupWord(kind="X", n=3, gens=())
    with pytest.raises(ValueError, match="unknown Cartan type"):
        CartanData(ctype="B", matrix=((2,),))


def test_graph_and_bijection_equal_by_fields_and_unhashable():
    b1 = build_irreducible(A1, (1,))
    twin = CrystalGraph(cartan=b1.cartan, wts=b1.wts, f_maps=b1.f_maps,
                        labels=b1.labels)
    assert twin == b1 and twin is not b1
    xi = schutzenberger(b1)
    same = CrystalBijection(domain=twin, codomain=twin, mapping=xi.mapping)
    assert same == xi
    assert same != CrystalBijection(b1, b1, (0, 1))
    for value in (b1, xi):
        with pytest.raises(TypeError):
            hash(value)
    assert repr(b1) == (
        "CrystalGraph(cartan=CartanData(ctype='A', matrix=((2,),)), "
        "wts=((1,), (-1,)), f_maps={1: (1, None)}, e_maps={1: (None, 0)}, "
        "labels=(((1,),), ((2,),)))")
    assert repr(xi) == "CrystalBijection(domain=%s, codomain=%s, " \
        "mapping=(1, 0))" % (repr(b1), repr(b1))
