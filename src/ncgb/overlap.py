"""Word placements (overlaps) and the S/G-polynomials they induce.

Two nonempty words ``u`` and ``v`` *overlap* when they can be placed on a
common word ``t`` so that their occurrence intervals intersect and jointly
cover ``t`` exactly.  Four shapes arise: ``u`` hanging over the left end
of ``v``, over the right end, ``u`` inside ``v``, or ``v`` inside ``u``.
Every common multiple, here and in the engine, is recorded as a
*placement* ``(t, pos_u, pos_v)``: the word and where each occurrence
starts in it.
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

from typing import Iterator

from .coeffring import Coefficient, Domain
from .freealg import Polynomial, Word


def placements(u: Word, v: Word) -> Iterator[tuple[Word, int, int]]:
    """Joint placements ``(t, pos_u, pos_v)`` of two nonempty words ``u``
    and ``v`` whose occurrence intervals intersect and exactly cover ``t``,
    by increasing offset of ``v`` relative to ``u``.  Every offset in
    ``1-|v| .. |u|-1`` makes the intervals share a position.

    Includes the identity placement when ``u == v``; callers that must
    exclude it (see :func:`overlaps`) filter it out.
    """
    lu, lv = len(u), len(v)
    for shift in range(1 - lv, lu):  # offset of v relative to u
        lo, hi = max(0, shift), min(lu, shift + lv)
        if u[lo:hi] != v[lo - shift:hi - shift]:
            continue
        if shift >= 0:
            t = u + v[lu - shift:] if shift + lv > lu else u
            yield t, 0, shift
        else:
            t = v + u[lv + shift:] if lu - shift > lv else v
            yield t, -shift, 0


def overlaps(u: Word, v: Word) -> list[tuple[Word, int, int]]:
    """All placements ``(t, pos_u, pos_v)`` of two nonempty words but the
    identity one of ``u == v``, ordered by ``(|t|, shape, pos_u)``.

    The shapes rank ``u`` hanging over the left end of ``v``, over its
    right end, ``u`` inside ``v`` and ``v`` inside ``u``.  The rank needs
    no key of its own.  One of the two positions is always 0.  An inside
    shape has ``|t| = max(|u|, |v|)`` and a hanging one a longer ``t``;
    both inside shapes fit one ``t`` only in the identity placement.
    Among hanging shapes, ``u`` hangs over the left end exactly when
    ``pos_u == 0``.  So a stable sort on ``(|t|, pos_u)`` gives the order,
    keeping the occurrences of ``v`` inside ``u`` in offset order.
    """
    if not u or not v:
        raise ValueError("overlap words must be nonempty")
    same = len(u) == len(v)
    found = [p for p in placements(u, v) if not (same and p[1] == p[2])]
    found.sort(key=lambda p: (len(p[0]), p[1]))
    return found


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

def sides(f: Polynomial, t: Word, p: int) -> tuple[Word, Word]:
    """``(l, r)`` with ``t == l·LM(f)·r``, the leading word of ``f``
    occurring in ``t`` at ``p``."""
    return t[:p], t[p + len(f.leading_word()):]


def pair_poly(f: Polynomial, g: Polynomial, t: Word, pf: int, pg: int, x, y) -> Polynomial:
    """``x·lf·f·rf + y·lg·g·rg`` on the common word ``t``, where the
    leading words of ``f`` and ``g`` occur in ``t`` at ``pf`` and ``pg``
    (``t == lf·LM(f)·rf == lg·LM(g)·rg``, see :func:`sides`).  The
    S-cofactors ``(x, y) = (a_f, -a_g)`` cancel the leading terms; the
    G-cofactors ``(b_f, b_g)`` leave ``gcd(LC(f), LC(g))`` on ``t``."""
    ring = f.ring
    return ring.add(
        ring.scaled_translate(x, *sides(f, t, pf), f), ring.scaled_translate(y, *sides(g, t, pg), g)
    )


def _pair(f: Polynomial, g: Polynomial, t: Word, pf: int, pg: int):
    dom = f.ring.domain
    cf, cg = f.leading_coeff(), g.leading_coeff()
    af, ag = s_cofactors(dom, cf, cg)
    sp = pair_poly(f, g, t, pf, pg, af, dom.neg(ag))
    if dom.is_field:
        return sp, None
    bf, bg, _ = g_cofactors(dom, cf, cg)
    return sp, pair_poly(f, g, t, pf, pg, bf, bg)


def spoly1(f: Polynomial, g: Polynomial, t: Word, pf: int, pg: int):
    """``(spoly, gpoly)`` of the first-type pair placed on ``t`` at ``pf``
    and ``pg``; ``gpoly`` is None over a field.

    Raises ``ValueError`` when the leading words of ``f`` and ``g`` do
    not occur in ``t`` at those positions.
    """
    u, v = f.leading_word(), g.leading_word()
    if t[pf:pf + len(u)] != u or t[pg:pg + len(v)] != v:
        raise ValueError("placement inconsistent with leading words")
    return _pair(f, g, t, pf, pg)


def spoly2(f: Polynomial, g: Polynomial, w: Word):
    """``(spoly, gpoly)`` of the second-type pair on the connection
    ``LM(f) * w * LM(g)``; ``gpoly`` is None over a field."""
    lmf = f.leading_word()
    return _pair(f, g, lmf + w + g.leading_word(), 0, len(lmf) + len(w))
