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

import itertools
import math
from dataclasses import dataclass

from .coeffring import DomainKind, ext_gcd, residue_domain, squarefree_factors
from .engine import FLAG_TRUNCATED, GBResult, Stats, buchberger, completeness_flag, interreduce, keep_minimal
from .freealg import FreeAlgebra, Polynomial
from .overlap import placements


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
    reduce: bool = True,
    tail_reduce: bool = True,
) -> GBResult:
    """Monic strong basis of the generators' image mod a prime ``p``.

    The result lives over ``Z/p`` and never includes the modulus
    constant: generators that vanish mod ``p`` simply drop out (so
    ``{2x}`` mod 2 yields the empty basis).
    """
    ring_p = FreeAlgebra(residue_domain(p), ring.alphabet, ring.ordering)
    gens_p = [_transfer(ring_p, g) for g in gens]
    return buchberger(ring_p, gens_p, d, reduce=reduce, tail_reduce=tail_reduce)


def _common_multiples(u: bytes, v: bytes, d: int, nletters: int):
    """All ways the words ``u`` and ``v`` can occur inside one word of
    length <= d: intersecting placements (aligned ones included) plus
    disjoint placements with every connecting word, both orders.
    Yields ``(T, pos_u, pos_v)``."""
    if not u or not v:
        t = v or u
        yield (t, 0, 0)
        return
    for t, pu, pv in placements(u, v):
        if len(t) <= d:
            yield (t, pu, pv)
    for k in range(d - len(u) - len(v) + 1):
        for letters in itertools.product(range(nletters), repeat=k):
            mid = bytes(letters)
            yield (u + mid + v, 0, len(u) + k)
            yield (v + mid + u, len(v) + k, 0)


def _combine(
    plan: ModulusPlan,
    g_left: list[Polynomial],
    g_right: list[Polynomial],
    ring_m: FreeAlgebra,
    d: int,
    tail_reduce: bool,
) -> list[Polynomial]:
    m = plan.modulus
    a, b = plan.left.modulus, plan.right.modulus
    s, t = plan.bezout_s, plan.bezout_t
    tb = (t * b) % m
    sa = (s * a) % m
    nletters = len(ring_m.alphabet)

    def pair(g: Polynomial, h: Polynomial, T: bytes, pu: int, pv: int) -> Polynomial:
        u, v = g.leading_word(), h.leading_word()
        cg, ch = int(g.leading_coeff()), int(h.leading_coeff())
        fg = ring_m.scaled_translate((tb * ch) % m, T[:pu], T[pu + len(u):], g)
        fh = ring_m.scaled_translate((sa * cg) % m, T[:pv], T[pv + len(v):], h)
        return ring_m.add(fg, fh)

    # every candidate as (leading word, norm of leading coefficient,
    # recipe): only those that keep_minimal keeps are built
    lifted_a = [_transfer(ring_m, g) for g in g_left]
    lifted_b = [_transfer(ring_m, h) for h in g_right]
    items = [
        (f.leading_word(), math.gcd(c * int(f.leading_coeff()), m), (ring_m.scale, c, f))
        for c, lifted in ((tb, lifted_a), (sa, lifted_b))
        for f in lifted
    ]
    for g, h in itertools.product(lifted_a, lifted_b):
        cg, ch = int(g.leading_coeff()), int(h.leading_coeff())
        assert (cg * ch) % m, (
            f"leading coefficients {cg} and {ch} multiply to zero mod {m}: "
            "they are canonical divisors of a and b lifted below them, so "
            "their product is a nonzero proper divisor of m"
        )
        # tb + sa == 1 (mod m): the leading coefficient is cg*ch
        norm = math.gcd(cg * ch, m)
        u, v = g.leading_word(), h.leading_word()
        for T, pu, pv in _common_multiples(u, v, d, nletters):
            items.append((T, norm, (pair, g, h, T, pu, pv)))

    out = [build(*args) for build, *args in keep_minimal(ring_m, items)]
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

    clean = [g for g in gens if not g.is_zero]
    if clean and d < max(g.max_word_length() for g in clean):
        raise ValueError("bound too small")

    total = Stats()
    leaf_flags: list[str] = []

    def rec(node: ModulusPlan) -> list[Polynomial]:
        if node.is_leaf:
            res = gb_mod_prime(ring, gens, d, node.modulus, reduce=True, tail_reduce=tail_reduce)
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
