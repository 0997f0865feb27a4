"""Coefficient-domain arithmetic: Bezout data, division steps, residue moduli."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ncgb.coeffring import (
    QQ,
    ZZ,
    DomainKind,
    _is_prime,
    ext_gcd,
    lcm_coeff,
    residue_domain,
    squarefree_factors,
)


def test_ext_gcd_fixed_values():
    assert ext_gcd(2, 3) == (1, -1, 1)
    assert ext_gcd(4, 6) == (2, -1, 1)
    assert ext_gcd(5, 0) == (5, 1, 0)
    assert ext_gcd(0, 5) == (5, 0, 1)
    assert ext_gcd(-4, 6) == (2, 1, 1)
    assert ext_gcd(2, 2) == (2, 0, 1)
    assert ext_gcd(-3, -3) == (3, 0, -1)
    assert ext_gcd(12, 18) == (6, -1, 1)


def test_ext_gcd_rejects_double_zero():
    with pytest.raises(ValueError):
        ext_gcd(0, 0)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_ext_gcd_is_a_bezout_identity(a, b):
    if a == 0 and b == 0:
        return
    g, s, t = ext_gcd(a, b)
    assert g > 0
    assert s * a + t * b == g
    assert a % g == 0 and b % g == 0


@given(st.integers(-10**4, 10**4).filter(bool), st.integers(-10**4, 10**4).filter(bool))
def test_lcm_gcd_product(a, b):
    import math

    assert lcm_coeff(a, b) * math.gcd(a, b) == abs(a * b)


def test_lcm_rejects_zero():
    with pytest.raises(ValueError):
        lcm_coeff(0, 3)


# -- division steps ----------------------------------------------------------

def test_integer_reduction_steps():
    # (cf, cg) -> (a, b) with cf = a*cg + b, remainder in (-|cg|/2, |cg|/2]
    assert ZZ.reduce_quotient(3, 2) == (1, 1)
    assert ZZ.reduce_quotient(6, 3) == (2, 0)
    assert ZZ.reduce_quotient(2, 3) == (1, -1)
    assert ZZ.reduce_quotient(-3, 2) == (-2, 1)
    assert ZZ.reduce_quotient(2, -3) == (-1, -1)
    assert ZZ.reduce_quotient(4, 6) == (1, -2)
    assert ZZ.reduce_quotient(7, 2) == (3, 1)


def test_integer_reduction_none_when_already_canonical():
    assert ZZ.reduce_quotient(1, 2) is None
    assert ZZ.reduce_quotient(2, 4) is None
    assert ZZ.reduce_quotient(0, 5) is None
    assert ZZ.reduce_quotient(1, 3) is None
    assert ZZ.reduce_quotient(-1, 3) is None


def test_integer_reduction_flips_borderline_negatives():
    # -1 and -2 sit on the open edge of the window; one step moves them
    # to the closed (positive) edge, so reduced forms are unique.
    assert ZZ.reduce_quotient(-1, 2) == (-1, 1)
    assert ZZ.reduce_quotient(-2, 4) == (-1, 2)
    assert ZZ.reduce_quotient(-3, 6) == (-1, 3)


@given(st.integers(-500, 500), st.integers(-500, 500).filter(bool))
def test_integer_reduction_contract(cf, cg):
    r = ZZ.reduce_quotient(cf, cg)
    if r is None:
        # exactly the canonical representatives stay put
        assert cf == 0 or (-abs(cg) < 2 * cf <= abs(cg))
    else:
        a, b = r
        assert a != 0
        assert cf == a * cg + b
        assert -abs(cg) < 2 * b <= abs(cg)


def test_rational_reduction_is_exact():
    assert QQ.reduce_quotient(3, 2) == (Fraction(3, 2), 0)
    assert QQ.reduce_quotient(Fraction(1, 3), Fraction(2, 5)) == (Fraction(5, 6), 0)


def test_residue_reduction():
    D6 = residue_domain(6)
    assert D6.reduce_quotient(4, 2) == (2, 0)
    assert D6.reduce_quotient(3, 5) == (3, 0)
    assert D6.reduce_quotient(3, 2) is None  # 3 not a multiple of gcd(2,6)
    D15 = residue_domain(15)
    assert D15.reduce_quotient(10, 5) == (2, 0)
    assert D15.reduce_quotient(7, 2) == (11, 0)  # 11*2 = 22 = 7 mod 15


@given(st.sampled_from([6, 10, 15, 21, 30]), st.integers(1, 29), st.integers(1, 29))
def test_residue_reduction_contract(m, cf, cg):
    D = residue_domain(m)
    cf, cg = cf % m, cg % m
    if cg == 0:
        return
    r = D.reduce_quotient(cf, cg)
    if r is not None:
        a, b = r
        assert b == 0
        assert (a * cg) % m == cf % m


def test_zero_divisor_reduction_raises():
    with pytest.raises(ZeroDivisionError):
        ZZ.reduce_quotient(3, 0)


# -- unit normalisation ------------------------------------------------------

def test_normalizing_units():
    assert ZZ.normalizing_unit(5) == 1
    assert ZZ.normalizing_unit(-5) == -1
    assert QQ.normalizing_unit(Fraction(4)) == Fraction(1, 4)
    D6 = residue_domain(6)
    u = D6.normalizing_unit(4)
    assert (u * 4) % 6 == 2  # gcd(4, 6)
    import math
    assert math.gcd(int(u), 6) == 1  # and u really is a unit


@given(st.sampled_from([6, 10, 15, 30, 105]), st.integers(1, 104))
def test_residue_normalizing_unit_is_canonical(m, c):
    import math

    c %= m
    if c == 0:
        return
    D = residue_domain(m)
    u = D.normalizing_unit(c)
    assert math.gcd(int(u), m) == 1
    assert (int(u) * c) % m == math.gcd(c, m)


def test_normalizing_unit_rejects_zero():
    with pytest.raises(ValueError):
        ZZ.normalizing_unit(0)


# -- squarefree factorisation -------------------------------------------------

def test_squarefree_factors():
    assert squarefree_factors(6) == [2, 3]
    assert squarefree_factors(30) == [2, 3, 5]
    assert squarefree_factors(105) == [3, 5, 7]
    assert squarefree_factors(7) == [7]
    assert squarefree_factors(2) == [2]


M61 = 2**61 - 1  # a Mersenne prime


def test_squarefree_factors_of_large_primes_skip_trial_division():
    t0 = time.monotonic()
    assert squarefree_factors(M61) == [M61]
    assert squarefree_factors(6 * M61) == [2, 3, M61]
    assert time.monotonic() - t0 < 5


def test_squarefree_factors_split_a_semiprime_by_rho():
    # two 12- and 13-digit primes: trial division would take hours
    p, q = 100000000003, 1000000000039
    t0 = time.monotonic()
    assert squarefree_factors(p * q) == [p, q]
    assert time.monotonic() - t0 < 1
    assert squarefree_factors(2 * 3 * 1000003 * 1000033) == [2, 3, 1000003, 1000033]
    with pytest.raises(ValueError, match="1000003\\^2 divides"):
        squarefree_factors(7 * 1000003**2)
    with pytest.raises(ValueError, match="1000003\\^2 divides"):
        squarefree_factors(1000003**2 * 1000033)


def test_moduli_beyond_exact_primality_are_rejected():
    # the least strong pseudoprime to the thirteen Miller-Rabin bases
    bound = 3317044064679887385961981
    assert residue_domain(bound - 2).modulus == bound - 2
    for m in (bound, 10**25 + 13):
        with pytest.raises(ValueError, match="modulus must be below"):
            residue_domain(m)
        with pytest.raises(ValueError, match="modulus must be below"):
            squarefree_factors(m)


def test_primality_is_exact_on_strong_pseudoprimes():
    assert not _is_prime(561)  # Carmichael number
    assert not _is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    # strong pseudoprime to the first twelve prime bases; base 41 exposes it
    assert not _is_prime(318665857834031151167461)
    assert _is_prime(M61)
    assert _is_prime(1000000000039)
    assert not _is_prime(M61 * 1000003)

    def by_trial_division(n):
        return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))

    assert all(_is_prime(n) == by_trial_division(n) for n in range(3000))


def test_prime_power_moduli_rejected():
    with pytest.raises(ValueError, match="prime-power moduli unsupported"):
        squarefree_factors(4)
    with pytest.raises(ValueError, match="2\\^2 divides 12"):
        squarefree_factors(12)
    with pytest.raises(ValueError, match="3\\^2 divides 9"):
        squarefree_factors(9)
    with pytest.raises(ValueError):
        squarefree_factors(1)


def test_domain_flags():
    assert not ZZ.is_field
    assert QQ.is_field
    assert residue_domain(7).is_field
    assert not residue_domain(6).is_field
    assert residue_domain(7).kind == DomainKind.RESIDUE


def test_residue_modulus_validation():
    with pytest.raises(ValueError):
        residue_domain(1)


def test_coerce():
    assert ZZ.coerce(Fraction(4, 2)) == 2
    with pytest.raises(ValueError):
        ZZ.coerce(Fraction(1, 2))
    assert QQ.coerce(3) == Fraction(3)
    assert residue_domain(6).coerce(-1) == 5


def test_render_past_the_digit_limit_of_str():
    # str(int) refuses more than 4,300 digits; render must not
    big = 10**5000
    assert ZZ.render(big) == "1" + "0" * 5000
    assert ZZ.render(1 - big) == "-" + "9" * 5000
    assert QQ.render(Fraction(big + 1, 3)) == "1" + "0" * 4999 + "1/3"
    assert QQ.render(Fraction(-1, big)) == "-1/1" + "0" * 5000
    assert QQ.render(Fraction(big)) == "1" + "0" * 5000
    assert (ZZ.render(-12), QQ.render(Fraction(-3, 4)), QQ.render(Fraction(5))) == ("-12", "-3/4", "5")


@pytest.mark.parametrize("dom", [ZZ, QQ, residue_domain(7), residue_domain(30)], ids=str)
def test_divides_and_coprime_agree_with_plain_divisibility(dom):
    # divisibility and coprimality through norms, against their plain
    # meaning: b == q*a for some q, and x*a + y*b == 1 for some x, y
    # (over Q the witnesses are q = b/a and x = 1/a, y = 0)
    mod = dom.modulus
    if dom.kind == DomainKind.RATIONALS:
        values = [Fraction(n, k) for n in range(-6, 7) for k in (1, 2, 3)]
    else:
        values = range(-12, 13) if mod is None else range(mod)
    cands = range(-13, 14) if mod is None else range(mod)

    def eq(x, y):
        return (x - y) % mod == 0 if mod else x == y

    for a in values:
        if not a:
            continue
        for b in values:
            qs = [b / a] if dom.kind == DomainKind.RATIONALS else cands
            assert dom.divides(a, b) == any(eq(q * a, b) for q in qs), (a, b)
            if b:
                xys = [(1 / a, 0)] if dom.kind == DomainKind.RATIONALS else [
                    (x, y) for x in cands for y in cands
                ]
                plain = any(eq(x * a + y * b, 1) for x, y in xys)
                assert dom.coprime(a, b) == plain, (a, b)
