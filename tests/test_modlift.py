"""Composite-modulus bases assembled from per-prime field runs."""

import random

import pytest

from ncgb import DEG_LEFT_LEX, DEG_RIGHT_LEX, normal_form, verify_strong_basis
from ncgb.coeffring import residue_domain
from ncgb.engine import keep_minimal
from ncgb.modlift import _transfer, gb_mod_prime, gb_zmod, plan_modulus

from conftest import (
    combine_building_every_candidate,
    common_multiples,
    crt_membership_oracle,
    make_ring,
    polys,
    prime_ring,
    projection_coherent,
    random_polys,
)


# -- factor-tree planning --------------------------------------------------


def test_plan_modulus_six():
    plan = plan_modulus(6)
    assert not plan.is_leaf
    assert (plan.left.modulus, plan.right.modulus) == (2, 3)
    assert (plan.bezout_s, plan.bezout_t) == (-1, 1)
    assert plan.bezout_s * 2 + plan.bezout_t * 3 == 1
    assert plan.left.is_leaf and plan.right.is_leaf


def test_plan_modulus_thirty_is_balanced():
    plan = plan_modulus(30)
    assert plan.left.modulus == 2 and plan.left.is_leaf
    node = plan.right
    assert node.modulus == 15
    assert (node.left.modulus, node.right.modulus) == (3, 5)
    assert node.left.is_leaf and node.right.is_leaf
    assert node.bezout_s * 3 + node.bezout_t * 5 == 1


def test_plan_modulus_prime_is_leaf():
    plan = plan_modulus(7)
    assert plan.is_leaf and plan.modulus == 7


def test_plan_modulus_rejects_bad_moduli():
    with pytest.raises(ValueError, match=r"prime-power moduli unsupported: 2\^2 divides 4"):
        plan_modulus(4)
    with pytest.raises(ValueError, match=r"2\^2 divides 12"):
        plan_modulus(12)
    with pytest.raises(ValueError, match=r"3\^2 divides 18"):
        plan_modulus(18)
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        plan_modulus(1)


# -- single-prime runs -------------------------------------------------------


def test_gb_mod_prime_drops_vanishing_generators():
    r = make_ring(residue_domain(6), "xy", DEG_LEFT_LEX, ["x", "y"])
    res = gb_mod_prime(r, polys(r, "2*x"), 4, 2)
    assert res.basis == []


def test_gb_mod_prime_is_monic():
    r = make_ring(residue_domain(6), "xy", DEG_LEFT_LEX, ["x", "y"])
    res = gb_mod_prime(r, polys(r, "2*x, 3*y"), 4, 3)
    ring3 = res.basis[0].ring
    assert ring3.domain.modulus == 3
    assert [ring3.render(g) for g in res.basis] == ["x"]
    assert all(g.leading_coeff() == 1 for g in res.basis)


# -- recombination ------------------------------------------------------------


def test_gb_zmod_monomial_pair_mod_six():
    r6 = make_ring(residue_domain(6), "xy", DEG_LEFT_LEX, ["x", "y"])
    gens = polys(r6, "2*x, 3*y")
    res = gb_zmod(r6, gens, 5)
    assert sorted(r6.render(g) for g in res.basis) == ["2*x", "3*y", "x*y", "y*x"]
    assert res.complete_flag == "conjecturally-complete"
    assert verify_strong_basis(r6, res.basis, 5) == []
    # per-prime runs were tiny: one insertion each, no pairs queued
    assert res.stats.basis_insertions == 2
    assert res.stats.pairs_created == 0
    # at bound 4 the same basis cannot be certified (threshold 3*2 - 1 = 5)
    assert gb_zmod(r6, gens, 4).complete_flag == "truncated"


def test_gb_zmod_prime_modulus_delegates():
    r5 = make_ring(residue_domain(5), "xy", DEG_LEFT_LEX, ["x", "y"])
    gens = polys(r5, "2*x + y")
    res = gb_zmod(r5, gens, 4)
    assert [r5.render(g) for g in res.basis] == [r5.render(g) for g in gb_mod_prime(r5, gens, 4, 5).basis]
    assert all(g.leading_coeff() == 1 for g in res.basis)


def test_gb_zmod_requires_residue_ring():
    from ncgb import ZZ

    rz = make_ring(ZZ, "xy", DEG_LEFT_LEX, ["x", "y"])
    with pytest.raises(ValueError, match="residue-ring domain"):
        gb_zmod(rz, polys(rz, "2*x"), 4)


def test_gb_zmod_bound_too_small():
    r6 = make_ring(residue_domain(6), "xy", DEG_LEFT_LEX, ["x", "y"])
    with pytest.raises(ValueError, match="bound too small"):
        gb_zmod(r6, polys(r6, "x*y*x"), 2)


def test_one_bound_rule_on_every_path():
    # gb_zmod's prime and composite paths and buchberger refuse the same
    # bounds, below 1 or below a generator's longest word, with one message;
    # a modulus error that comes before the bound check still comes first
    from ncgb import ZZ, buchberger

    for domain, complete in [(ZZ, buchberger), (residue_domain(7), gb_zmod),
                             (residue_domain(6), gb_zmod)]:
        r = make_ring(domain, "xy", DEG_LEFT_LEX, ["x", "y"])
        for gens, d in [("5", 0), ("x*y*x", 2), ("0, x*y + 1", 1)]:
            with pytest.raises(ValueError, match="bound too small"):
                complete(r, polys(r, gens), d)
        assert complete(r, polys(r, "0, x*y + 1"), 2).basis
    r4 = make_ring(residue_domain(4), "xy", DEG_LEFT_LEX, ["x", "y"])
    with pytest.raises(ValueError, match="prime-power moduli unsupported"):
        gb_zmod(r4, polys(r4, "x*y*x"), 0)
    r6 = make_ring(residue_domain(6), "xy", DEG_LEFT_LEX, ["x", "y"])
    with pytest.raises(ValueError, match="composite residue moduli"):
        buchberger(r6, polys(r6, "x*y*x"), 0)


def test_binomial_family_across_moduli():
    expected = {
        6: ["3*y", "x"],
        10: ["5*y", "x + 6*y", "y^2 + 2*y"],
        15: ["3*y^2 + 6*y", "x + 6*y"],
        30: ["15*y", "3*y^2 + 6*y", "x + 6*y"],
    }
    for m, want in expected.items():
        rm = make_ring(residue_domain(m), "xy", DEG_RIGHT_LEX, ["x", "y"])
        gens = polys(rm, "2*x - 3*y, x*y - 3*x, y*x - x*y")
        res = gb_zmod(rm, gens, 6)
        assert sorted(rm.render(g) for g in res.basis) == want, m
        assert res.complete_flag == "conjecturally-complete"
        assert verify_strong_basis(rm, res.basis, 6) == []
        assert projection_coherent(rm, gens, res.basis, 6)


def test_recombined_basis_members_of_input_ideal():
    rm = make_ring(residue_domain(15), "xy", DEG_RIGHT_LEX, ["x", "y"])
    gens = polys(rm, "2*x - 3*y, x*y - 3*x, y*x - x*y")
    res = gb_zmod(rm, gens, 6)
    member = crt_membership_oracle(rm, gens, pad=2)
    for b in res.basis:
        assert member(b), rm.render(b)
    assert not member(rm.one)
    # completeness: bounded combinations of the generators all reduce to zero
    for l, r, g in ((b"", b"\x01", gens[0]), (b"\x00", b"", gens[1]), (b"\x01", b"\x00", gens[2])):
        f = rm.scaled_translate(rm.domain.coerce(2), l, r, g)
        assert normal_form(f, res.basis, tail_reduce=True).is_zero


def test_common_multiples_enumeration():
    # u = xy, v = yx over two letters, bound 4: two overlaps, two disjoint
    got = sorted(common_multiples(b"\x00\x01", b"\x01\x00", 4, 2))
    assert got == [
        (b"\x00\x01\x00", 0, 1),
        (b"\x00\x01\x01\x00", 0, 2),
        (b"\x01\x00\x00\x01", 2, 0),
        (b"\x01\x00\x01", 1, 0),
    ]
    # a constant's leading word sits at the start of the other word
    assert list(common_multiples(b"", b"\x01\x00", 4, 2)) == [(b"\x01\x00", 0, 0)]


def test_transfer_drops_vanishing_terms():
    rz = make_ring(residue_domain(6), "xy", DEG_LEFT_LEX, ["x", "y"])
    r2 = prime_ring(rz, 2)
    f = polys(rz, "2*x + 3*y")[0]
    assert r2.render(_transfer(r2, f)) == "y"
    assert _transfer(r2, polys(rz, "2*x")[0]).is_zero


def test_random_composite_ideals_verify_and_cohere():
    for m in (6, 15):
        rm = make_ring(residue_domain(m), "xy", DEG_RIGHT_LEX, ["x", "y"])
        rng = random.Random(20260815 + m)
        for _ in range(10):
            gens = random_polys(rm, rng, ngens=2, maxterms=3, maxlen=2, maxcoeff=6)
            if not gens:
                continue
            res = gb_zmod(rm, gens, 4)
            assert verify_strong_basis(rm, res.basis, 4) == []
            assert projection_coherent(rm, gens, res.basis, 4)
            member = crt_membership_oracle(rm, gens, pad=2)
            assert all(member(b) for b in res.basis)


def _both_combines(monkeypatch, ring, gens, d, tail_reduce):
    """``gb_zmod``'s term tuples with the leading-term combine and with
    the build-everything oracle."""
    from ncgb import modlift

    def terms():
        res = gb_zmod(ring, gens, d, tail_reduce=tail_reduce)
        return [p.terms for p in res.basis], res.complete_flag

    got = terms()
    with monkeypatch.context() as mp:
        mp.setattr(modlift, "_combine", combine_building_every_candidate)
        want = terms()
    return got, want


def _torsion_mod_2310():
    r = make_ring(residue_domain(2310), "xyz", DEG_RIGHT_LEX, ["x", "y", "z"])
    return r, polys(r, "y*x - 3*x*y - z, z*x - x*z + y, z*y - y*z - x")


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_combine_matches_building_every_candidate_on_torsion(monkeypatch, d):
    r, gens = _torsion_mod_2310()
    for tail_reduce in (True, False):
        got, want = _both_combines(monkeypatch, r, gens, d, tail_reduce)
        assert got == want


def _random_combines_match(monkeypatch, moduli, names, maxlen, d, seed):
    # binomials without constant terms, so that most draws keep torsion
    # and non-unit leading coefficients instead of collapsing to the unit
    for m in moduli:
        for kind in (DEG_LEFT_LEX, DEG_RIGHT_LEX):
            rm = make_ring(residue_domain(m), names, kind, list(names))
            rng = random.Random(seed + m)
            for _ in range(8):
                gens = [
                    rm.poly(
                        (bytes(rng.randrange(len(names)) for _ in range(rng.randint(1, maxlen))), rng.randrange(1, m))
                        for _ in range(2)
                    )
                    for _ in range(3)
                ]
                gens = [g for g in gens if not g.is_zero]
                for tail_reduce in (True, False):
                    got, want = _both_combines(monkeypatch, rm, gens, d, tail_reduce)
                    assert got == want, (m, kind, [rm.render(g) for g in gens])


def test_combine_matches_building_every_candidate_on_random_ideals(monkeypatch):
    _random_combines_match(monkeypatch, (6, 30, 210), "xyz", 2, 5, 20261018)


def test_combine_breaks_ties_as_building_every_candidate(monkeypatch):
    # over two letters with leading words up to length 3, candidates of
    # different pairs often share T and norm, and the first listed must be
    # kept (the two orientations of one pair never tie undominated: if
    # u·w·v == v·w'·u, one of u, v begins the other, and that aligned
    # placement divides both)
    _random_combines_match(monkeypatch, (6, 30), "xy", 3, 6, 20261020)


def test_combine_lists_no_dominated_connecting_word(monkeypatch):
    from ncgb import modlift

    received = []

    def counting_keep_minimal(ring, items):
        items = list(items)
        received.append(len(items))
        return keep_minimal(ring, items)

    monkeypatch.setattr(modlift, "keep_minimal", counting_keep_minimal)
    r, gens = _torsion_mod_2310()
    gb_zmod(r, gens, 10)
    # listing every connecting word makes 510,387 items
    assert 0 < sum(received) <= 5000


def test_torsion_basis_mod_2310_is_the_same_at_bounds_10_and_12():
    r, gens = _torsion_mod_2310()
    res10, res12 = gb_zmod(r, gens, 10), gb_zmod(r, gens, 12)
    assert [p.terms for p in res12.basis] == [p.terms for p in res10.basis]
    assert len(res12.basis) == 9
    assert res10.complete_flag == res12.complete_flag == "conjecturally-complete"


def test_composite_bases_have_unique_leading_words():
    # gb_zmod sorts by leading word alone: two elements sharing one, with
    # neither norm dividing the other, would leave their Bezout
    # combination's leading term without a divisor in a strong basis
    torsion = 0
    for m in (6, 10, 30, 210, 2310):
        for kind in (DEG_LEFT_LEX, DEG_RIGHT_LEX):
            rm = make_ring(residue_domain(m), "xyz", kind, ["x", "y", "z"])
            rng = random.Random(20261019 + m)
            for _ in range(10):
                gens = [
                    rm.poly(
                        (bytes(rng.randrange(3) for _ in range(rng.randint(1, 2))), rng.randrange(1, m))
                        for _ in range(2)
                    )
                    for _ in range(rng.randint(2, 3))
                ]
                gens = [g for g in gens if not g.is_zero]
                for tail_reduce in (True, False):
                    basis = gb_zmod(rm, gens, 5, tail_reduce=tail_reduce).basis
                    words = [g.leading_word() for g in basis]
                    assert len(set(words)) == len(words), (m, kind, [rm.render(g) for g in gens])
                    norms = [rm.domain.norm(g.leading_coeff()) for g in basis]
                    torsion += len(set(norms) - {1}) >= 2
    # the check is not vacuous: many bases hold several non-unit norms
    assert torsion >= 50
