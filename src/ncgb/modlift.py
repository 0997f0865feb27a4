"""Strong bases modulo squarefree composites via per-prime runs.

``Z/m`` for squarefree ``m`` splits as a product of prime fields, so a
strong basis mod ``m`` can be assembled from monic field bases computed
independently mod each prime.  The assembly walks a balanced binary
factor tree: at a node ``m = a*b`` with ``s*a + t*b == 1`` the two child
bases ``G_a``, ``G_b`` are merged as

* ``t*b*g`` for ``g`` in ``G_a`` (congruent to ``g`` mod ``a``, to zero
  mod ``b``), symmetrically ``s*a*h``;
* for every pair ``(g, h)`` and every common multiple ``T`` of their
  leading words within the bound — aligned occurrences included, plus
  disjoint placements with any connecting word, in both orders — the
  combination ``t*b*LC(h) * (l g r)  +  s*a*LC(g) * (l' h r')`` whose
  leading term is ``LC(g)*LC(h) * T``.

With leading coefficients kept canonical (divisors of the respective
moduli, which the final interreduction of each level guarantees) the
merged set is again strong up to the bound: any ideal element reduces
mod ``a`` and mod ``b``, the two witnessing leading words both occur
inside its own leading word, and the pair combination built on exactly
that common-multiple pattern divides its leading term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coeffring import DomainKind, ext_gcd, residue_domain, squarefree_factors
from .engine import (FLAG_TRUNCATED, GBResult, Stats, buchberger, check_bound,
                     completeness_flag, interreduce, keep_minimal)
from .freealg import FreeAlgebra, Polynomial
from .overlap import pair_poly, placements


@dataclass(frozen=True)
class ModulusPlan:
    """Balanced binary splitting of a squarefree modulus.

    Leaves are primes; an inner node records Bezout cofactors
    ``bezout_s * left.modulus + bezout_t * right.modulus == 1``.
    """

    modulus: int
    left: "ModulusPlan | None" = None
    right: "ModulusPlan | None" = None
    bezout_s: int | None = None
    bezout_t: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def plan_modulus(m: int) -> ModulusPlan:
    """Factor ``m`` and lay out the recombination tree.

    Raises ``ValueError`` for moduli below 2, for moduli too large for
    exact primality, and for non-squarefree moduli (prime-power branches
    have no field leaves to combine).
    """
    primes = squarefree_factors(m)

    def build(ps: list[int]) -> ModulusPlan:
        if len(ps) == 1:
            return ModulusPlan(ps[0])
        mid = len(ps) // 2
        left = build(ps[:mid])
        right = build(ps[mid:])
        g, s, t = ext_gcd(left.modulus, right.modulus)
        assert g == 1
        return ModulusPlan(left.modulus * right.modulus, left, right, s, t)

    return build(primes)


def _transfer(target: FreeAlgebra, p: Polynomial) -> Polynomial:
    """Reinterpret integer-coefficient terms in another ring over the
    same alphabet and ordering (dropping terms that vanish there)."""
    dom = target.domain
    terms = []
    for w, c in p.terms:
        cc = dom.coerce(int(c))
        if cc != 0:
            terms.append((w, cc))
    return target.from_terms(terms)


def gb_mod_prime(
    ring: FreeAlgebra,
    gens: list[Polynomial],
    d: int,
    p: int,
    *,
    tail_reduce: bool = True,
) -> GBResult:
    """Monic, interreduced strong basis of the generators' image mod a
    prime ``p``.

    The result lives over ``Z/p`` and never includes the modulus
    constant: generators that vanish mod ``p`` simply drop out (so
    ``{2x}`` mod 2 yields the empty basis).
    """
    ring_p = FreeAlgebra(residue_domain(p), ring.alphabet, ring.ordering)
    gens_p = [_transfer(ring_p, g) for g in gens]
    return buchberger(ring_p, gens_p, d, tail_reduce=tail_reduce)


def _combine(
    plan: ModulusPlan,
    g_left: list[Polynomial],
    g_right: list[Polynomial],
    ring_m: FreeAlgebra,
    d: int,
    tail_reduce: bool,
) -> list[Polynomial]:
    """Build the kept CRT candidates of one factor-tree node, interreduced.

    Candidates are ``(T, norm, recipe)`` items listed one length level
    ``L = 0..d`` at a time, each level passed with the items kept so far
    to :func:`keep_minimal`.  Level ``L`` holds, in the order of one full
    listing, the lifted elements, then per pair ``(g, h)`` its
    intersecting placements and its disjoint placements ``x·w·y``
    (``u·w·v`` before ``v·w·u``, ``w`` in ``itertools.product`` order).

    Skip rule: ``x·w·y`` is not listed, nor any extension of ``w``, when a
    kept ``(W, k)`` has ``W`` in ``x·w`` and ``k`` dividing the pair's
    norm.  Proof: ``|W| <= |x·w| < |x·w'·y|`` for every extension ``w'``,
    so ``(W, k)`` sorts strictly before each such item and divides it.
    ``keep_minimal`` drops an item exactly when an earlier item's leading
    term divides it, and an item divided by a dropped one is divided by
    the kept item that dropped it, so removing dominated items changes
    neither the kept list nor its order.  Items of shorter levels sort
    first and stay kept, so one call per level keeps what one call over
    every candidate would.
    """
    m = plan.modulus
    a, b = plan.left.modulus, plan.right.modulus
    s, t = plan.bezout_s, plan.bezout_t
    tb = (t * b) % m
    sa = (s * a) % m
    letters = [bytes([c]) for c in range(len(ring_m.alphabet))]

    lifted_a = [_transfer(ring_m, g) for g in g_left]
    lifted_b = [_transfer(ring_m, h) for h in g_right]
    lifted = [
        (f.leading_word(), math.gcd(c * int(f.leading_coeff()), m), (ring_m.scale, c, f))
        for c, fs in ((tb, lifted_a), (sa, lifted_b))
        for f in fs
    ]
    # per pair: leading words, norm, the cofactors kg and kh of g and h in its
    # candidates, intersecting placements and the frontier of connecting words
    # w, each with an alive flag for u·w·v and for v·w·u
    pairs = []
    for g in lifted_a:
        for h in lifted_b:
            cg, ch = int(g.leading_coeff()), int(h.leading_coeff())
            assert (cg * ch) % m, (
                f"leading coefficients {cg} and {ch} multiply to zero mod {m}: "
                "they are canonical divisors of a and b lifted below them, so "
                "their product is a nonzero proper divisor of m"
            )
            u, v = g.leading_word(), h.leading_word()
            if u and v:
                placed, frontier = list(placements(u, v)), [(b"", True, True)]
            else:  # a constant's leading word sits at the start of the other
                placed, frontier = [(v or u, 0, 0)], []
            # tb + sa == 1 (mod m): the leading coefficient is cg*ch
            kg, kh = (tb * ch) % m, (sa * cg) % m
            pairs.append([g, h, u, v, math.gcd(cg * ch, m), kg, kh, placed, frontier])

    kept = []
    for L in range(d + 1):
        level = [it for it in lifted if len(it[0]) == L]
        for fam in pairs:
            g, h, u, v, norm, kg, kh, placed, frontier = fam
            level += [
                (T, norm, (pair_poly, g, h, T, pu, pv, kg, kh)) for T, pu, pv in placed if len(T) == L
            ]
            k = L - len(u) - len(v)
            if k < 0 or not frontier:
                continue
            if k:
                frontier = [(w + c, fu, fv) for w, fu, fv in frontier for c in letters]
            ws = [W for W, n, _ in kept if norm % n == 0]
            fam[-1] = []
            for w, fu, fv in frontier:
                fu = fu and not any(W in u + w for W in ws)
                fv = fv and not any(W in v + w for W in ws)
                if fu:
                    T = u + w + v
                    level.append((T, norm, (pair_poly, g, h, T, 0, len(u) + k, kg, kh)))
                if fv:
                    T = v + w + u
                    level.append((T, norm, (pair_poly, g, h, T, len(v) + k, 0, kg, kh)))
                if fu or fv:
                    fam[-1].append((w, fu, fv))
        kept = keep_minimal(ring_m, [(T, n, (T, n, recipe)) for T, n, recipe in kept + level])

    out = [build(*args) for _, _, (build, *args) in kept]
    return interreduce(out, tail_reduce=tail_reduce)


def gb_zmod(
    ring: FreeAlgebra,
    gens: list[Polynomial],
    d: int,
    *,
    reduce: bool = True,
    tail_reduce: bool = True,
) -> GBResult:
    """Strong basis up to length ``d`` over ``Z/m``, squarefree ``m``.

    Prime moduli run the completion directly; composites run one monic
    completion per prime factor and recombine along the factor tree.
    The stats are the sums over the per-prime runs, and the result is
    flagged truncated as soon as any per-prime run is.  Interreduction
    is an integral part of the recombination (it keeps leading
    coefficients canonical), so ``reduce=False`` only takes effect for
    prime moduli.
    """
    dom = ring.domain
    if dom.kind != DomainKind.RESIDUE:
        raise ValueError("gb_zmod needs a residue-ring domain")
    plan = plan_modulus(dom.modulus)
    if plan.is_leaf:
        return buchberger(ring, gens, d, reduce=reduce, tail_reduce=tail_reduce)

    check_bound(gens, d)

    total = Stats()
    leaf_flags: list[str] = []

    def rec(node: ModulusPlan) -> list[Polynomial]:
        if node.is_leaf:
            res = gb_mod_prime(ring, gens, d, node.modulus, tail_reduce=tail_reduce)
            for name, val in res.stats.as_dict().items():
                if name != "peak_queue_size":
                    setattr(total, name, getattr(total, name) + val)
            total.peak_queue_size = max(total.peak_queue_size, res.stats.peak_queue_size)
            leaf_flags.append(res.complete_flag)
            return res.basis
        ring_node = FreeAlgebra(residue_domain(node.modulus), ring.alphabet, ring.ordering)
        return _combine(node, rec(node.left), rec(node.right), ring_node, d, tail_reduce)

    basis = [_transfer(ring, p) for p in rec(plan)]
    # no tie to break: two elements sharing T, neither norm dividing the
    # other, would put gcd*T in the ideal (Bezout), an element of this strong
    # basis would divide it, and keep_minimal would have dropped one of them
    basis.sort(key=lambda p: ring.word_key(p.leading_word()))
    if any(f == FLAG_TRUNCATED for f in leaf_flags):
        flag = FLAG_TRUNCATED
    else:
        flag = completeness_flag(basis, d)
    return GBResult(basis, d, flag, total)
