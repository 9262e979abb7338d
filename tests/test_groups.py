import pytest
from hypothesis import given, settings, strategies as st

from cactus_crystal import groups, perms
from cactus_crystal.groups import (
    AffineR,
    AffineS,
    CactusGen,
    GroupError,
    GroupWord,
    MirabolicT,
    PermGen,
    cabling,
    defining_relation_families,
    defining_relations,
    format_word,
    mc_relation_suite,
    mc_s0j_word,
    parse_word,
    project_to_symmetric,
    relation_stream,
    to_virtual,
    word,
)
from cactus_crystal.perms import (
    compose,
    identity,
    interval_reversal,
    inverse,
    long_cycle,
    power,
)


# -- generator and word validation ------------------------------------------

def test_bad_intervals_rejected():
    with pytest.raises(GroupError):
        word("C", 3, [CactusGen(2, 2)])
    with pytest.raises(GroupError):
        word("C", 3, [CactusGen(1, 4)])
    with pytest.raises(GroupError):
        word("AC", 3, [AffineS(2, 2)])
    with pytest.raises(GroupError):
        word("MC", 3, [MirabolicT(3)])
    word("MC", 3, [MirabolicT(0)])  # t0 is a letter here


def test_flavour_letter_discipline():
    with pytest.raises(GroupError):
        word("C", 3, [PermGen((2, 1, 3))])
    with pytest.raises(GroupError):
        word("vC", 3, [MirabolicT(1)])
    with pytest.raises(GroupError):
        word("C", 3, [AffineR()])
    with pytest.raises(GroupError):
        word("C", 3, [CactusGen(1, 2)]) * word("C", 4, [CactusGen(1, 2)])
    with pytest.raises(GroupError):
        word("X", 3, [])


def test_perm_length_checked():
    with pytest.raises(GroupError):
        word("vC", 3, [PermGen((2, 1))])


# -- parsing and formatting --------------------------------------------------

@pytest.mark.parametrize("text,kind", [
    ("s1_2 s2_3 s1_3", "C"),
    ("s13 s12", "C"),
    ("w[2,1,3] s1_2", "vC"),
    ("t0 t1 s2_3", "MC"),
    ("r s3_1 r r", "AC"),
    ("1", "C"),
])
def test_parse_format_roundtrip(text, kind):
    w = parse_word(text, kind, 3)
    assert parse_word(format_word(w), kind, 3) == w


def test_compact_and_verbose_tokens_agree():
    assert parse_word("s13", "C", 3) == parse_word("s1_3", "C", 3)


def test_empty_word_formats_as_one():
    assert format_word(word("C", 3, [])) == "1"


@pytest.mark.parametrize("text", ["q1", "s1", "sx_y", "txx", "w[2,2]"])
def test_bad_tokens_raise(text):
    with pytest.raises((GroupError, perms.PermError)):
        parse_word(text, "vC", 3)


def test_parse_respects_flavour():
    with pytest.raises(GroupError):
        parse_word("t1", "C", 3)


# -- projection -------------------------------------------------

def test_projection_fold_is_left_to_right():
    w = word("C", 3, [CactusGen(1, 2), CactusGen(1, 3)])
    assert project_to_symmetric(w) == (3, 1, 2)


def test_mc_projection_lives_on_extra_point():
    w = mc_s0j_word(2, 4)
    assert format_word(w) == "t0 t1 t0 t2 t1 t0"
    assert project_to_symmetric(w) == (3, 2, 1, 0, 4)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_mc_s0j_projection_reverses_prefix(n):
    for j in range(n):
        got = project_to_symmetric(mc_s0j_word(j, n))
        expect = tuple(j + 1 - k if k <= j + 1 else k for k in range(n + 1))
        assert got == expect


def test_mc_s0j_range_checked():
    with pytest.raises(GroupError):
        mc_s0j_word(4, 4)


# -- cabling ------------------------------------------------------------------

def test_cabling_frozen_example():
    assert cabling((2, 3, 1), 2, 3, 4) == (2, 3, 4, 1)


def test_cabling_identity_blows_up_interval():
    assert cabling(identity(3), 1, 2, 4) == (1, 2, 3, 4)
    assert cabling(identity(3), 1, 3, 5) == (1, 2, 3, 4, 5)


def test_cabling_validates():
    with pytest.raises(GroupError):
        cabling((1, 2, 3), 1, 3, 4)  # needs length n - (j - i) = 2
    with pytest.raises(GroupError):
        cabling((1, 2, 3), 3, 2, 4)


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_cabling_block_is_translated(data):
    n = data.draw(st.integers(3, 6))
    i = data.draw(st.integers(1, n - 1))
    j = data.draw(st.integers(i + 1, n))
    u = tuple(data.draw(st.permutations(list(range(1, n - (j - i) + 1)))))
    w = cabling(u, i, j, n)
    assert perms.is_translation(w, i, j)
    assert w[i - 1] == u[i - 1]


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_cabling_conjugates_reversals(data):
    n = data.draw(st.integers(3, 6))
    i = data.draw(st.integers(1, n - 1))
    j = data.draw(st.integers(i + 1, n))
    q = j - i
    u = tuple(data.draw(st.permutations(list(range(1, n - q + 1)))))
    w = cabling(u, i, j, n)
    p = w[i - 1]
    conj = compose(compose(w, interval_reversal(n, i, j)), inverse(w))
    assert conj == interval_reversal(n, p, p + q)


# -- relation families --------------------------------------------------------

def test_c3_family_counts():
    fams = defining_relation_families("C", 3)
    by = {}
    for fam, _, _ in fams:
        by[fam] = by.get(fam, 0) + 1
    assert by == {"involution": 3, "nesting": 2}


def test_frozen_nesting_relation():
    fams = defining_relation_families("C", 3)
    nest = [(format_word(l), format_word(r))
            for fam, l, r in fams if fam == "nesting"]
    assert ("s1_3 s1_2 s1_3", "s2_3") in nest


@pytest.mark.parametrize("kind,n", [
    ("C", 3), ("C", 4), ("vC", 3), ("AC", 3), ("AC", 4),
])
def test_relations_project_consistently(kind, n):
    for lhs, rhs in defining_relations(kind, n):
        assert project_to_symmetric(lhs) == project_to_symmetric(rhs), \
            "%s != %s" % (format_word(lhs), format_word(rhs))


def _plain_interval_relations(n, cyclic):
    """The involution, disjoint and nesting relations, read off runs of points:
    [i, j] is the run i, i+1, .., j, wrapping past n only when cyclic."""
    def run(i, j):
        return [(i - 1 + t) % n + 1 for t in range((j - i) % n + 1)]

    def s(iv):
        return "s%d_%d" % iv
    ivs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
           if i < j or (cyclic and i != j)]
    rels = [("involution", "%s %s" % (s(p), s(p)), "1") for p in ivs]
    for x, p in enumerate(ivs):
        for q in ivs[x + 1:]:
            if not set(run(*p)) & set(run(*q)):
                rels.append(("disjoint", "%s %s" % (s(p), s(q)),
                             "%s %s" % (s(q), s(p))))
    for p in ivs:
        outer = run(*p)
        for q in ivs:
            inner = run(*q)
            if q != p and any(outer[t:t + len(inner)] == inner
                              for t in range(len(outer))):
                image = [outer[::-1][outer.index(v)] for v in inner][::-1]
                rels.append(("nesting", "%s %s %s" % (s(p), s(q), s(p)),
                             s((image[0], image[-1]))))
    return rels


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_interval_relations_match_runs_of_points(n):
    interval = ("involution", "disjoint", "nesting")
    for kind in ("C", "vC", "AC"):
        got = [(f, format_word(l), format_word(r))
               for f, l, r in defining_relation_families(kind, n)
               if f in interval]
        assert got == _plain_interval_relations(n, kind == "AC"), kind
    got = [(f, format_word(l), format_word(r))
           for f, l, r in mc_relation_suite(n) if f.startswith("interval_")]
    assert got == [("interval_" + f, l, r)
                   for f, l, r in _plain_interval_relations(n, False)]


def test_ac_disjoint_family_absent_at_three_points():
    fams = {fam for fam, _, _ in defining_relation_families("AC", 3)}
    assert "disjoint" not in fams
    fams4 = {fam for fam, _, _ in defining_relation_families("AC", 4)}
    assert {"involution", "disjoint", "nesting",
            "rotation_order", "rotation_shift"} <= fams4


def test_mc_has_no_presentation():
    with pytest.raises(GroupError, match="no known presentation"):
        defining_relation_families("MC", 4)


@pytest.mark.parametrize("n", [0, 1])
def test_relations_need_two_factors(n):
    for kind in ("C", "vC", "MC", "AC"):
        with pytest.raises(GroupError, match="need n >= 2"):
            defining_relation_families(kind, n)
    with pytest.raises(GroupError, match="need n >= 2"):
        mc_relation_suite(n)


@pytest.mark.parametrize("n", [3, 4])
def test_mc_suite_projects_consistently(n):
    suite = mc_relation_suite(n)
    assert any(fam == "t_conjugation" for fam, _, _ in suite) == (n >= 4)
    for fam, lhs, rhs in suite:
        assert project_to_symmetric(lhs) == project_to_symmetric(rhs), fam


# -- homomorphisms ------------------------------------------------------------

def test_hom_c_to_vc_changes_flavour_only():
    w = word("C", 3, [CactusGen(1, 3)])
    v = to_virtual(w)
    assert v.kind == "vC" and v.gens == w.gens
    with pytest.raises(GroupError):
        to_virtual(v)


def test_hom_mc_to_vc_frozen():
    w = parse_word("t1 s2_3", "MC", 3)
    v = to_virtual(w)
    assert v.gens == (PermGen((2, 1, 3)), CactusGen(2, 3))


def test_hom_mc_to_vc_rejects_t0():
    with pytest.raises(GroupError, match="t0"):
        to_virtual(word("MC", 3, [MirabolicT(0)]))


def test_hom_mc_to_vc_projection_extends_by_fixed_point():
    w = parse_word("t1 s1_3 t2", "MC", 4)
    mcp = project_to_symmetric(w)
    vcp = project_to_symmetric(to_virtual(w))
    assert mcp[0] == 0
    assert tuple(k for k in mcp[1:]) == vcp


def test_hom_ac_to_vc_frozen_wraparound():
    c = long_cycle(3)
    v = to_virtual(word("AC", 3, [AffineS(3, 1)]))
    assert v.gens == (PermGen(inverse(c)), CactusGen(1, 2), PermGen(c))


def test_hom_ac_to_vc_standard_interval_untouched():
    v = to_virtual(word("AC", 4, [AffineS(1, 3), AffineR()]))
    assert v.gens == (CactusGen(1, 3), PermGen(long_cycle(4)))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_hom_ac_to_vc_preserves_projection(n):
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            w = word("AC", n, [AffineS(i, j)])
            assert project_to_symmetric(to_virtual(w)) == project_to_symmetric(w)


def test_power_of_rotation_projection():
    w = word("AC", 4, [AffineR()] * 4)
    assert project_to_symmetric(w) == identity(4)
    assert power(long_cycle(4), 4) == identity(4)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["C", "vC", "MC", "AC"])
def test_relation_stream_lists_the_word_relations(kind, n):
    words = (mc_relation_suite(n) if kind == "MC"
             else defining_relation_families(kind, n))
    stream = [(f, format_word(word(kind, n, lhs)),
               format_word(word(kind, n, rhs)))
              for f, lhs, rhs in relation_stream(kind, n)]
    assert stream == [(f, str(lhs), str(rhs)) for f, lhs, rhs in words]


def test_relation_stream_refuses_what_the_lists_refuse():
    for kind, n in (("C", 1), ("XX", 3)):
        with pytest.raises(GroupError):
            next(relation_stream(kind, n))


def test_a_letter_is_checked_once(monkeypatch):
    checked = []

    def counting(w):
        checked.append(tuple(w))
        return perms.check_perm(w)

    monkeypatch.setattr(groups, "check_perm", counting)
    groups._check_generator.cache_clear()
    u = PermGen((2, 4, 1, 3))
    word("vC", 4, [u, u, CactusGen(1, 2)])
    assert checked == [(2, 4, 1, 3)]
    word("vC", 4, [u])
    assert checked == [(2, 4, 1, 3)]
    with pytest.raises(GroupError):
        word("vC", 3, [u])
