"""Overlap enumeration and S-/G-polynomial construction."""

import pytest
from hypothesis import given, strategies as st

from ncgb import QQ, ZZ, DEG_LEFT_LEX, overlaps
from ncgb.overlap import (
    g_cofactors,
    placements,
    s_cofactors,
    spoly1,
    spoly2,
)

from conftest import make_ring, poly


R = make_ring(ZZ, "xyz", DEG_LEFT_LEX, ["x", "y", "z"])
W = R.parse_word


def brute_placements(u, v):
    """Independent re-derivation: lay u and v into every candidate word
    and keep the layouts whose occurrence intervals intersect and cover."""
    out = set()
    lu, lv = len(u), len(v)
    for shift in range(-lv, lu + 1):
        pu, pv = max(0, -shift), max(0, shift)
        length = max(pu + lu, pv + lv)
        t = bytearray(b"\xff" * length)
        okay = True
        for i, c in enumerate(u):
            t[pu + i] = c
        for i, c in enumerate(v):
            if t[pv + i] not in (0xFF, c):
                okay = False
                break
            t[pv + i] = c
        if not okay or 0xFF in t:
            continue  # a gap: the occurrences do not cover the word
        if pu + lu <= pv or pv + lv <= pu:
            continue  # disjoint occurrences are second-type territory
        out.add((bytes(t), pu, pv))
    return out


def test_common_multiples_of_xy_and_yzx():
    u, v = W("x*y"), W("y*z*x")
    ts = {R.render_word(t) for t, _, _ in overlaps(u, v)}
    assert ts == {"x*y*z*x", "y*z*x*y"}


def test_self_overlap_of_xyx():
    u = W("x*y*x")
    # u hanging over the left end of its copy, then over the right end
    assert overlaps(u, u) == [(W("x*y*x*y*x"), 0, 2), (W("x*y*x*y*x"), 2, 0)]


def test_divides_case():
    # u inside v, and v inside u
    assert overlaps(W("y"), W("x*y*x")) == [(W("x*y*x"), 1, 0)]
    assert overlaps(W("x*y*x"), W("y")) == [(W("x*y*x"), 0, 1)]


def test_repeated_subword_occurrences_all_found():
    # x occurs twice inside xyx; a single letter cannot hang over an end
    assert overlaps(W("x"), W("x*y*x")) == [(W("x*y*x"), 0, 0), (W("x*y*x"), 2, 0)]


def test_identity_placement_excluded():
    assert overlaps(W("x*y"), W("x*y")) == []
    assert all(pu != pv for _, pu, pv in overlaps(W("x*y*x"), W("x*y*x")))


def test_empty_words_rejected():
    with pytest.raises(ValueError):
        overlaps(b"", W("x"))


def test_overlaps_order_is_pinned():
    # (|t|, shape, pos_u) with the shapes ranked u over the left end of v,
    # over its right end, u inside v, v inside u: it fixes the order in
    # which the engine queues first-type pairs, and with it every counter
    u, v = W("x*y*x"), W("x*y")
    assert overlaps(u, v) == [(W("x*y*x"), 0, 0), (W("x*y*x*y"), 0, 2)]
    assert overlaps(v, u) == [(W("x*y*x"), 0, 0), (W("x*y*x*y"), 2, 0)]
    assert overlaps(u, W("x")) == [(u, 0, 0), (u, 0, 2)]
    u, v = W("x*y*x*y"), W("y*x*y*x")
    assert overlaps(u, v) == [
        (W("x*y*x*y*x"), 0, 1),
        (W("y*x*y*x*y"), 1, 0),
        (W("x*y*x*y*x*y*x"), 0, 3),
        (W("y*x*y*x*y*x*y"), 3, 0),
    ]


words3 = st.integers(0, 2).flatmap(
    lambda _: st.lists(st.integers(0, 2), min_size=1, max_size=4).map(bytes)
)


def shape(pu, lu, pv, lv):
    """Rank of a placement's shape: u over the left end of v, over its
    right end, u inside v, v inside u."""
    if pv >= pu and pv + lv <= pu + lu:
        return 3
    if pu >= pv and pu + lu <= pv + lv:
        return 2
    return 0 if pu < pv else 1


@given(words3, words3)
def test_overlaps_match_brute_force(u, v):
    got = overlaps(u, v)
    want = brute_placements(u, v)
    if u == v:
        want = {(t, pu, pv) for t, pu, pv in want if not pu == pv == 0}
    assert set(got) == want and len(got) == len(want)
    # the order is (|t|, shape, pos_u), ties (v inside u) by pos_v
    key = [(len(t), shape(pu, len(u), pv, len(v)), pu, pv) for t, pu, pv in got]
    assert key == sorted(key)


@given(words3, words3)
def test_overlap_embeddings_reproduce_t(u, v):
    for t, pu, pv in overlaps(u, v):
        assert t[pu:pu + len(u)] == u
        assert t[pv:pv + len(v)] == v


# -- cofactors ----------------------------------------------------------------

def test_s_cofactors_over_z():
    assert s_cofactors(ZZ, 4, 6) == (3, 2)
    assert s_cofactors(ZZ, 2, 3) == (3, 2)
    assert s_cofactors(ZZ, -2, 3) == (-3, 2)


def test_g_cofactors_over_z():
    bf, bg, g = g_cofactors(ZZ, 4, 6)
    assert g == 2 and 4 * bf + 6 * bg == 2


@given(st.integers(-30, 30).filter(bool), st.integers(-30, 30).filter(bool))
def test_cofactor_determinant_identity(cf, cg):
    # the matrix ((a_f, -a_g), (b_f, b_g)) sending (f, g) to
    # (spoly, gpoly) is unimodular: its determinant a_f*b_g + a_g*b_f
    # equals lcm*gcd/(cf*cg) = sign(cf*cg); on sign-normalized inputs
    # (positive leading coefficients) that is exactly 1
    af, ag = s_cofactors(ZZ, cf, cg)
    bf, bg, g = g_cofactors(ZZ, cf, cg)
    assert af * cf == ag * cg  # common multiple
    assert af * cf > 0  # ... the positive lcm
    assert bf * cf + bg * cg == g > 0
    assert af * bg + ag * bf == (1 if cf * cg > 0 else -1)
    if cf > 0 and cg > 0:
        assert af * bg + ag * bf == 1


# -- S- and G-polynomials -------------------------------------------------------

def test_first_type_pair_worked_values():
    f = poly(R, "4*x*y + y")
    g = poly(R, "6*y*z + y")
    (pl,) = [pl for pl in overlaps(f.leading_word(), g.leading_word())
             if pl[0] == W("x*y*z")]
    sp, gp = spoly1(f, g, *pl)
    assert sp == poly(R, "3*y*z - 2*x*y")
    assert gp == poly(R, "2*x*y*z - y*z + x*y")


def test_second_type_pair_worked_values():
    f = poly(R, "4*x*y + x")
    g = poly(R, "6*z*y + z")
    sp, gp = spoly2(f, g, b"")
    assert sp == poly(R, "3*x*z*y - 2*x*y*z")
    assert gp == poly(R, "2*x*y*z*y + x*y*z - x*z*y")


def test_first_type_checks_embeddings():
    f = poly(R, "4*x*y + y")
    g = poly(R, "6*y*z + y")
    with pytest.raises(ValueError):
        spoly1(f, g, W("x*z"), 0, 0)
    with pytest.raises(ValueError):
        spoly1(f, g, W("x*y*z"), 0, 2)  # y*z starts at 1


def test_spolys_cancel_leading_terms():
    f = poly(R, "4*x*y + y")
    g = poly(R, "6*y*z + y")
    for t, pu, pv in overlaps(f.leading_word(), g.leading_word()):
        sp, gp = spoly1(f, g, t, pu, pv)
        assert R.compare_words(sp.leading_word(), t) == -1
        # G-polynomial keeps the common word with the gcd coefficient
        assert gp.leading_word() == t
        assert gp.leading_coeff() == 2


def test_field_mode_has_no_gpoly():
    r = make_ring(QQ, "xy", DEG_LEFT_LEX, ["x", "y"])
    f = poly(r, "2*x*y + y")
    g = poly(r, "3*y*x + x")
    sp, gp = spoly2(f, g, b"")
    assert gp is None
    # the connection word xy*yx cancelled
    common = f.leading_word() + g.leading_word()
    assert r.compare_words(sp.leading_word(), common) == -1


def test_second_type_monomials_telescope():
    # for monomial inputs the S-polynomial vanishes identically
    f = poly(R, "4*x*y")
    g = poly(R, "6*z")
    assert spoly2(f, g, W("z"))[0].is_zero
