"""Overlaps of words and the S/G-polynomials they induce.

Two nonempty words ``u`` and ``v`` *overlap* when they can be placed on a
common word ``t`` so that their occurrence intervals intersect and jointly
cover ``t`` exactly.  Four shapes arise: ``u`` hanging over the left end
of ``v``, over the right end, ``u`` inside ``v``, or ``v`` inside ``u``.
For ``u == v`` the identity placement is excluded (it would only ever
produce a zero S-polynomial); shifted self-overlaps such as ``xyx`` on
``xyx`` giving ``xyxyx`` are kept.

Given basis elements whose leading words overlap, the classical critical
pair machinery produces:

* first-type pairs from an overlap witness ``t``: an S-polynomial that
  cancels the lcm of the leading coefficients on ``t``, and over the
  integers also a G-polynomial realising their gcd on ``t``;
* second-type pairs from a *connecting* word ``w``: the same two
  combinations built on ``LM(f) * w * LM(g)``, which carry coefficient
  torsion across disjoint leading words (needed over the integers,
  redundant over fields).

Cofactor conventions are pinned so results are reproducible; over the
integers the S- and G-cofactors satisfy ``a_f*b_g + a_g*b_f == 1``
whenever both leading coefficients are positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .coeffring import Coefficient, Domain
from .freealg import Bimonomial, Polynomial, Word

LEFT_RIGHT = "left_right"
RIGHT_LEFT = "right_left"
U_DIVIDES_V = "u_divides_v"
V_DIVIDES_U = "v_divides_u"

_CASE_ORDER = {LEFT_RIGHT: 0, RIGHT_LEFT: 1, U_DIVIDES_V: 2, V_DIVIDES_U: 3}


@dataclass(frozen=True, slots=True)
class Overlap:
    """A common multiple word ``t`` with embeddings of ``u`` and ``v``.

    ``tau_u.apply_word(u) == t == tau_v.apply_word(v)``.
    """

    t: Word
    tau_u: Bimonomial
    tau_v: Bimonomial
    case: str


@dataclass(frozen=True, slots=True)
class SGResult:
    """S-polynomial (and G-polynomial, when defined) of a critical pair."""

    spoly: Polynomial
    gpoly: Polynomial | None


def divides_word(u: Word, v: Word) -> list[Bimonomial]:
    """All bimonomials ``l ** r`` with ``l*u*r == v``, left to right."""
    if not u:
        raise ValueError("divisor word must be nonempty")
    out: list[Bimonomial] = []
    i = v.find(u)
    while i != -1:
        out.append(Bimonomial(v[:i], v[i + len(u):]))
        i = v.find(u, i + 1)
    return out


def placements(u: Word, v: Word) -> Iterator[tuple[Word, int, int]]:
    """Joint placements ``(t, pos_u, pos_v)`` of ``u`` and ``v`` whose
    occurrence intervals intersect and exactly cover ``t``.

    Includes the identity placement when ``u == v``; callers that must
    exclude it (see :func:`overlaps`) filter it out.
    """
    lu, lv = len(u), len(v)
    for shift in range(1 - lv, lu):  # offset of v relative to u
        lo, hi = max(0, shift), min(lu, shift + lv)
        if lo >= hi:  # intervals do not share a position
            continue
        if u[lo:hi] != v[lo - shift:hi - shift]:
            continue
        if shift >= 0:
            t = u + v[lu - shift:] if shift + lv > lu else u
            yield t, 0, shift
        else:
            t = v + u[lv + shift:] if lu - shift > lv else v
            yield t, -shift, 0


def _classify(pos_u: int, lu: int, pos_v: int, lv: int) -> str:
    if pos_v >= pos_u and pos_v + lv <= pos_u + lu:
        return V_DIVIDES_U
    if pos_u >= pos_v and pos_u + lu <= pos_v + lv:
        return U_DIVIDES_V
    return LEFT_RIGHT if pos_u < pos_v else RIGHT_LEFT


def overlaps(u: Word, v: Word) -> list[Overlap]:
    """All overlaps of two nonempty words, deterministically ordered by
    ``(|t|, case, position)``; the identity placement of ``u == v`` is
    excluded."""
    if not u or not v:
        raise ValueError("overlap words must be nonempty")
    lu, lv = len(u), len(v)
    found: list[tuple[int, int, int, Overlap]] = []
    for t, pu, pv in placements(u, v):
        if lu == lv and pu == pv:  # identity placement (only when u == v)
            continue
        ov = Overlap(
            t,
            Bimonomial(t[:pu], t[pu + lu:]),
            Bimonomial(t[:pv], t[pv + lv:]),
            _classify(pu, lu, pv, lv),
        )
        found.append((len(t), _CASE_ORDER[ov.case], pu, ov))
    found.sort(key=lambda item: item[:3])
    return [ov for *_key, ov in found]


# ---------------------------------------------------------------------------
# cofactors
# ---------------------------------------------------------------------------

def s_cofactors(domain: Domain, cf: Coefficient, cg: Coefficient):
    """``(a_f, a_g)`` with ``a_f*cf == a_g*cg`` equal to a canonical common
    multiple: the positive lcm over Z (and on canonical lifts over a
    residue ring), 1 over a field (monic difference)."""
    if domain.is_field:
        one = domain.one
        return domain.exact_div(one, cf), domain.exact_div(one, cg)
    m = domain.lcm(cf, cg)
    return m // cf, m // cg


def g_cofactors(domain: Domain, cf: Coefficient, cg: Coefficient):
    """``(b_f, b_g, g)`` with ``b_f*cf + b_g*cg == g == gcd(cf, cg) > 0``."""
    g, bf, bg = domain.ext_gcd(cf, cg)
    return bf, bg, g


# ---------------------------------------------------------------------------
# S/G-polynomials
# ---------------------------------------------------------------------------

def pair_poly(
    f: Polynomial, lf: Word, rf: Word, g: Polynomial, lg: Word, rg: Word, gcd: bool
) -> Polynomial:
    """``x·lf·f·rf + y·lg·g·rg`` for embeddings onto one common word: with
    the S-cofactors ``(x, y) = (a_f, -a_g)``, which cancel the leading
    terms, or with ``gcd`` the G-cofactors ``(b_f, b_g)``, which leave
    ``gcd(LC(f), LC(g))`` on the common word."""
    ring = f.ring
    dom = ring.domain
    cf, cg = f.leading_coeff(), g.leading_coeff()
    if gcd:
        x, y, _ = g_cofactors(dom, cf, cg)
    else:
        x, y = s_cofactors(dom, cf, cg)
        y = dom.neg(y)
    return ring.add(ring.scaled_translate(x, lf, rf, f), ring.scaled_translate(y, lg, rg, g))


def spoly1(f: Polynomial, g: Polynomial, ov: Overlap) -> SGResult:
    """First-type critical pair on the overlap witness ``ov.t``.

    Raises ``ValueError`` when the overlap's embeddings do not reproduce
    the leading words of ``f`` and ``g``.
    """
    u, v = f.leading_word(), g.leading_word()
    if ov.tau_u.apply_word(u) != ov.t or ov.tau_v.apply_word(v) != ov.t:
        raise ValueError("overlap inconsistent with leading words")
    lf, rf = ov.tau_u.left, ov.tau_u.right
    lg, rg = ov.tau_v.left, ov.tau_v.right
    sp = pair_poly(f, lf, rf, g, lg, rg, False)
    gp = None if f.ring.domain.is_field else pair_poly(f, lf, rf, g, lg, rg, True)
    return SGResult(sp, gp)


def spoly2(f: Polynomial, g: Polynomial, w: Word) -> SGResult:
    """Second-type critical pair on the connection ``LM(f) * w * LM(g)``."""
    rf = w + g.leading_word()
    lg = f.leading_word() + w
    sp = pair_poly(f, b"", rf, g, lg, b"", False)
    gp = None if f.ring.domain.is_field else pair_poly(f, b"", rf, g, lg, b"", True)
    return SGResult(sp, gp)
