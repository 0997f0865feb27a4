"""Exact coefficient arithmetic for the supported base rings.

The reduction theory in the sibling modules asks more of its coefficients
than plain ring operations: lm-reduction divides with a strictly smaller
remainder, S-polynomials need a positive lcm, and G-polynomials need one
fixed Bezout convention so that every run is reproducible.  Three domains
are supported:

* the integers (a euclidean domain, the main case),
* the rationals (a field, coefficients are ``fractions.Fraction``),
* residue rings Z/mZ for 2 <= m < 3317044064679887385961981, below
  which primality is decided exactly (fields when m is prime).

Residue-class values are always kept as the least non-negative
representative; rationals are reduced with a positive denominator
(``Fraction`` guarantees both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Union

Coefficient = Union[int, Fraction]


# ---------------------------------------------------------------------------
# integer helpers
# ---------------------------------------------------------------------------

def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd with a fixed canonical output.

    Returns ``(g, s, t)`` with ``g = gcd(a, b) > 0`` and ``s*a + t*b == g``.
    Among all valid cofactor pairs, ``|s|`` is minimised; on a tie the
    non-negative ``s`` is taken.  Examples::

        ext_gcd(2, 3)  == (1, -1, 1)
        ext_gcd(4, 6)  == (2, -1, 1)
        ext_gcd(5, 0)  == (5, 1, 0)
        ext_gcd(-4, 6) == (2, 1, 1)

    Raises ``ValueError`` if both arguments are zero (the gcd is undefined).
    """
    if a == 0 and b == 0:
        raise ValueError("gcd undefined for (0, 0)")
    if b == 0:
        return abs(a), (1 if a > 0 else -1), 0
    if a == 0:
        return abs(b), 0, (1 if b > 0 else -1)

    # plain iterative extended euclid
    old_r, r = a, b
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    g, sg = old_r, old_s
    if g < 0:
        g, sg = -g, -sg

    # all solutions: s + k*(b/g); pick the representative of least |s|,
    # ties resolved towards s >= 0
    step = abs(b // g)
    s0 = sg % step
    best = min((s0, s0 - step), key=lambda s_: (abs(s_), s_ < 0))
    t = (g - best * a) // b
    return g, best, t


def lcm_coeff(a: int, b: int) -> int:
    """Positive least common multiple; ``lcm(a,b) * gcd(a,b) == |a*b|``."""
    if a == 0 or b == 0:
        raise ValueError("lcm undefined when an argument is zero")
    return abs(a // math.gcd(a, b) * b)


# ---------------------------------------------------------------------------
# division steps, one per domain
# ---------------------------------------------------------------------------
#
# A step divides a nonzero coefficient ``c`` by a divisor in the form that
# :meth:`Domain.divisor` prepares.  It returns ``(a, b)`` with
# ``c == a*divisor + b`` and ``a != 0``, or ``None`` when no useful step
# exists.  Lm-reduction calls its domain's step once per reducer hit, so
# the steps stay free of further calls.

def _integer_step(c: int, d: int) -> tuple[int, int] | None:
    """Nearest quotient, ties towards a remainder >= 0.  The step is taken
    only when it shrinks ``|c|`` or moves a borderline negative remainder
    to its positive representative."""
    a, b = divmod(c, d)
    b2 = b - d
    ab = b if b >= 0 else -b
    ab2 = b2 if b2 >= 0 else -b2
    if ab2 < ab or (ab2 == ab and b2 >= 0):
        a, b, ab = a + 1, b2, ab2
    if a and (ab < (c if c >= 0 else -c) or (b == -c and b > 0)):
        return a, b
    return None


def _rational_step(c: Fraction, inverse: Fraction) -> tuple[Fraction, int]:
    """Exact division; ``inverse`` is ``1/divisor``."""
    return c * inverse, 0


def _residue_step(c: int, div: tuple[int, int, int]) -> tuple[int, int] | None:
    """Exact division, possible when ``g = gcd(divisor, m)`` divides ``c``."""
    g, mp, inv = div
    if c % g:
        return None
    a = (c // g) * inv % mp
    return (a, 0) if a else None


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

class DomainKind:
    """Tag constants for the three supported coefficient domains."""

    INTEGERS = "Z"
    RATIONALS = "Q"
    RESIDUE = "Zmod"


@dataclass(frozen=True, slots=True)
class Domain:
    """A coefficient domain: Z, Q, or Z/mZ.

    ``modulus`` is ``None`` except for residue rings.  All arithmetic
    returns canonical representatives (see module docstring).
    ``is_field`` and the division ``step`` are fixed at construction.
    """

    kind: str
    modulus: int | None = None
    is_field: bool = field(init=False, compare=False)
    step: Callable = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind == DomainKind.RESIDUE:
            if self.modulus is None or self.modulus < 2:
                raise ValueError("residue modulus must be >= 2")
            is_field, step = _is_prime(self.modulus), _residue_step
        elif self.modulus is not None:
            raise ValueError("modulus only makes sense for residue domains")
        elif self.kind == DomainKind.INTEGERS:
            is_field, step = False, _integer_step
        elif self.kind == DomainKind.RATIONALS:
            is_field, step = True, _rational_step
        else:
            raise ValueError(f"unknown domain kind {self.kind!r}")
        object.__setattr__(self, "is_field", is_field)
        object.__setattr__(self, "step", step)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind == DomainKind.RESIDUE:
            return f"Domain(Z/{self.modulus})"
        return f"Domain({self.kind})"

    # -- canonical values --------------------------------------------------

    def coerce(self, value: int | Fraction) -> Coefficient:
        """Bring an integer (or Fraction, over Q) into canonical form."""
        if self.kind == DomainKind.RATIONALS:
            return Fraction(value)
        if self.kind == DomainKind.RESIDUE:
            return int(value) % self.modulus  # type: ignore[operator]
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise ValueError(f"{value} is not an integer")
            return value.numerator
        return int(value)

    @property
    def one(self) -> Coefficient:
        return Fraction(1) if self.kind == DomainKind.RATIONALS else 1

    # -- ring operations ---------------------------------------------------

    def add(self, a: Coefficient, b: Coefficient) -> Coefficient:
        c = a + b
        return c % self.modulus if self.kind == DomainKind.RESIDUE else c

    def neg(self, a: Coefficient) -> Coefficient:
        return (-a) % self.modulus if self.kind == DomainKind.RESIDUE else -a

    def mul(self, a: Coefficient, b: Coefficient) -> Coefficient:
        c = a * b
        return c % self.modulus if self.kind == DomainKind.RESIDUE else c

    # -- divisibility and reduction ----------------------------------------

    def divides(self, a: Coefficient, b: Coefficient) -> bool:
        """Does ``a`` divide ``b`` in this domain?  ``a`` must be nonzero."""
        if self.kind == DomainKind.INTEGERS:
            return b % a == 0
        if self.kind == DomainKind.RATIONALS:
            return True
        g = math.gcd(int(a), self.modulus)  # type: ignore[arg-type]
        return int(b) % g == 0

    def divisor(self, c: Coefficient):
        """Nonzero ``c`` in the form :attr:`step` divides by: ``c`` itself
        over Z, ``1/c`` over Q, and over Z/m the triple ``(g, m/g, u)``
        with ``g = gcd(c, m)`` and ``u`` the inverse of ``c/g`` mod ``m/g``."""
        if self.kind == DomainKind.INTEGERS:
            return c
        if self.kind == DomainKind.RATIONALS:
            return Fraction(1) / c
        m = self.modulus
        g = math.gcd(c, m)  # type: ignore[arg-type]
        return g, m // g, pow(c // g, -1, m // g)

    def exact_div(self, b: Coefficient, a: Coefficient) -> Coefficient:
        """Some ``q`` with ``q*a == b``; caller guarantees divisibility.
        It is the quotient of the division step, which is exact then."""
        if b == 0:
            return b
        return self.step(b, self.divisor(a))[0]

    def reduce_quotient(
        self, cf: Coefficient, cg: Coefficient
    ) -> tuple[Coefficient, Coefficient] | None:
        """Division step used by lm-reduction.

        Finds ``(a, b)`` with ``cf == a*cg + b`` and ``a != 0``, or ``None``
        when no useful step exists.  Over Z the quotient is rounded to the
        nearest integer and the remainder lands in the canonical window
        ``(-|cg|/2, |cg|/2]`` — in particular a borderline negative
        remainder steps to its positive representative, so fully reduced
        coefficients are unique per residue class.  Over fields the
        remainder is zero; over non-prime residue rings only exact
        divisions are performed.
        """
        if cg == 0:
            raise ZeroDivisionError("reduction against a zero coefficient")
        if cf == 0:
            return None
        return self.step(cf, self.divisor(cg))

    # -- size and unit normalisation ----------------------------------------

    def norm(self, a: Coefficient) -> int:
        """Size measure: ``|a|`` over Z, ``gcd(a, m)`` over a residue ring
        (the canonical associate, so smaller norm means wider divisibility),
        and a 0/1 indicator over a field."""
        if self.kind == DomainKind.INTEGERS:
            return abs(a)
        if self.kind == DomainKind.RESIDUE:
            return math.gcd(int(a), self.modulus)
        return int(a != 0)

    def normalizing_unit(self, lc: Coefficient) -> Coefficient:
        """Unit ``u`` making ``u*lc`` canonical: positive over Z, 1 over a
        field (monic), and ``gcd(lc, m)`` over a squarefree residue ring
        (every residue is a unit multiple of the gcd it shares with m)."""
        if lc == 0:
            raise ValueError("zero has no normalizing unit")
        if self.kind == DomainKind.INTEGERS:
            return 1 if lc > 0 else -1
        if self.kind == DomainKind.RATIONALS:
            return Fraction(1) / lc
        g, mp, u0 = self.divisor(lc)
        if g == 1:
            return u0
        # lift to a unit mod m: u == u0 (mod m/g), u == 1 (mod g)
        k = ((1 - u0) * pow(mp, -1, g)) % g
        return (u0 + mp * k) % self.modulus  # type: ignore[operator]

    def coprime(self, a: Coefficient, b: Coefficient) -> bool:
        """Unit gcd test (used by the product criterion)."""
        if self.kind == DomainKind.INTEGERS:
            return math.gcd(a, b) == 1
        if self.kind == DomainKind.RATIONALS:
            return True
        return math.gcd(int(a), int(b), self.modulus) == 1  # type: ignore[arg-type]

    # -- Bezout data (gcd domains) -------------------------------------------

    def ext_gcd(self, a: Coefficient, b: Coefficient) -> tuple[int, int, int]:
        """Over Z/m on the canonical integer lifts; the identity holds mod m
        as well."""
        if self.kind == DomainKind.RATIONALS:
            raise ValueError("unsupported domain for ext_gcd")
        return ext_gcd(a, b)  # type: ignore[arg-type]

    def lcm(self, a: Coefficient, b: Coefficient) -> Coefficient:
        """Over Z/m the integer lcm of the canonical lifts, deliberately not
        reduced: cofactor division needs the true integer value."""
        if self.kind == DomainKind.RATIONALS:
            return Fraction(a) * b
        return lcm_coeff(a, b)  # type: ignore[arg-type]

    def render(self, a: Coefficient) -> str:
        return str(a)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all of these bases (Sorenson and Webster,
# Math. Comp. 86, 2017); below it Miller-Rabin is exact.  Twelve bases are
# exact only below 3.2e23.  Residue moduli are bounded by it.
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
# squarefree_factors trial-divides by the odd numbers below this, then
# splits what is left with Pollard-Brent rho
_TRIAL_LIMIT = 1000


def _is_prime(n: int) -> bool:
    """Exact primality by Miller-Rabin; raises ``ValueError`` for ``n``
    at or above ``_MR_EXACT_BELOW``, where the test is not exact."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"modulus must be below {_MR_EXACT_BELOW}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of an odd composite ``n`` that is not a perfect
    square, by Pollard's rho with Brent's cycle search and batched gcds
    (Brent, BIT 20, 1980).  Deterministic: the polynomials ``x^2 + c``
    are tried for ``c = 1, 2, ...`` from ``x = 2``."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: redo its steps one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def squarefree_factors(m: int) -> list[int]:
    """Prime factors of a squarefree ``m >= 2``, ascending.

    Raises ``ValueError`` when ``m`` has a repeated prime factor (the
    lifting construction needs pairwise-coprime leaves), and when ``m``
    is too large for exact primality (see :func:`_is_prime`).
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if _is_prime(m):
        return [m]

    def repeated(p: int) -> ValueError:
        return ValueError(f"prime-power moduli unsupported: {p}^2 divides {m}")

    out: list[int] = []
    rest, p = m, 2
    while p < _TRIAL_LIMIT and p * p <= rest:
        if rest % p == 0:
            rest //= p
            if rest % p == 0:
                raise repeated(p)
            out.append(p)
        p += 1 if p == 2 else 2
    # rest has no factor below p, so below p*p it is 1 or a prime
    pending = [rest] if rest > 1 else []
    while pending:
        n = pending.pop()
        if n < p * p or _is_prime(n):
            if n in out:
                raise repeated(n)
            out.append(n)
            continue
        root = math.isqrt(n)
        if root * root == n:
            raise repeated(root)
        f = _rho_factor(n)
        pending += [f, n // f]
    return sorted(out)


ZZ = Domain(DomainKind.INTEGERS)
QQ = Domain(DomainKind.RATIONALS)


def residue_domain(m: int) -> Domain:
    return Domain(DomainKind.RESIDUE, m)
