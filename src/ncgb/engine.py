"""Length-bounded completion producing strong two-sided Groebner bases.

The completion is the classical critical-pair loop, extended with the
machinery needed when the coefficients form a ring rather than a field:

* besides S-polynomials (which cancel the lcm of two leading
  coefficients) the loop also processes G-polynomials (which realise the
  gcd on the common leading word);
* critical pairs come in two kinds: *first type*, indexed by an overlap
  of the two leading words, and *second type*, indexed by a connecting
  word ``w`` placed between the disjoint leading words.  Second-type
  pairs form an infinite family, so they are materialised lazily by
  increasing total length and cut off at the bound ``d``;
* reduction divides leading coefficients with remainder (nearest
  quotient), so a reduction step may shrink a coefficient without
  clearing the word.

Pairs whose common word is longer than ``d`` are never considered; the
result is a strong Groebner basis *up to length d*: every ideal element
whose leading word fits in the bound is guaranteed a divisor in the
basis.  A heuristic flag reports when the bound was generous enough
(three times the longest basis word, less one) that the basis is
plausibly complete; this is a published conjecture, not a theorem, and
the flag never claims a proof.

Over a field every G-polynomial is redundant and concatenation
ambiguities always resolve, so field runs enqueue only first-type
S-pairs; the exhaustive post-run check (:func:`verify_strong_basis`)
still exercises the second-type reductions empirically.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from .coeffring import DomainKind
from .freealg import Bimonomial, FreeAlgebra, Polynomial, Word
from .overlap import (
    Overlap,
    U_DIVIDES_V,
    V_DIVIDES_U,
    g_cofactors,
    overlaps,
    pair_poly,
    s_cofactors,
    spoly1,
    spoly2,
)

FLAG_COMPLETE = "conjecturally-complete"
FLAG_TRUNCATED = "truncated"

S1, G1, S2, G2 = "S1", "G1", "S2", "G2"


@dataclass(slots=True)
class Stats:
    """Observability counters for one completion run."""

    pairs_created: int = 0
    pairs_discarded_product: int = 0
    pairs_discarded_chain: int = 0
    pairs_discarded_coeff: int = 0
    reductions_to_zero: int = 0
    basis_insertions: int = 0
    peak_queue_size: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "pairs_created": self.pairs_created,
            "pairs_discarded_product": self.pairs_discarded_product,
            "pairs_discarded_chain": self.pairs_discarded_chain,
            "pairs_discarded_coeff": self.pairs_discarded_coeff,
            "reductions_to_zero": self.reductions_to_zero,
            "basis_insertions": self.basis_insertions,
            "peak_queue_size": self.peak_queue_size,
        }


@dataclass(slots=True)
class CriticalPair:
    """A queued critical pair.

    ``data`` is an :class:`Overlap` for first-type pairs, the connecting
    word for second-type pairs, and a raw polynomial for re-enqueued
    basis elements (kind ``"P"``).  ``weight`` is the length of the
    common-multiple word.
    """

    i: int
    j: int
    kind: str
    data: object
    weight: int


@dataclass(slots=True)
class GBResult:
    basis: list[Polynomial]
    bound: int
    complete_flag: str
    stats: Stats
    insertion_log: list[tuple[int, Polynomial]] = field(default_factory=list)
    discard_log: list[tuple] | None = None
    cofactor_log: list[tuple] | None = None


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def lm_reduce_step(f: Polynomial, g: Polynomial) -> Polynomial | None:
    """One lm-reduction of ``f`` by ``g``, or ``None`` when not reducible.

    Uses the leftmost occurrence of ``LM(g)`` inside ``LM(f)`` and the
    domain's remainder division on the leading coefficients.
    """
    ring = f.ring
    wf, cf = f.leading_term()
    wg, cg = g.leading_term()
    pos = wf.find(wg)
    if pos < 0:
        return None
    q = ring.domain.reduce_quotient(cf, cg)
    if q is None:
        return None
    a, _ = q
    return ring.add(
        f, ring.scaled_translate(ring.domain.neg(a), wf[:pos], wf[pos + len(wg):], g)
    )


class _ReducerSet:
    """A basis prepared for repeated :func:`normal_form` calls.

    Picks the domain's division step once and precomputes, per reducer,
    the leading word and the leading coefficient in the form the step
    divides by (:meth:`Domain.divisor`).
    """

    __slots__ = ("ring", "step", "modulus", "reducers")

    def __init__(self, ring: FreeAlgebra, basis):
        dom = ring.domain
        self.ring = ring
        self.step = dom.step
        self.modulus = dom.modulus
        self.reducers = [
            (g.terms[0][0], len(g.terms[0][0]), dom.divisor(g.terms[0][1]), g.terms, g)
            for g in basis
            if g.terms
        ]


def normal_form(
    f: Polynomial,
    basis,
    tail_reduce: bool = False,
    trace: list | None = None,
) -> Polynomial:
    """Iterated lm-reduction of ``f`` against ``basis``.

    The reducer is the first applicable basis element in the given
    order, applied at the leftmost occurrence of its leading word.  With
    ``tail_reduce`` the loop continues into the non-leading terms.  When
    ``trace`` is a list, every applied step ``(g, a, l, r)`` is appended,
    so that ``f == result + sum(a * l*g*r)``.  ``basis`` may be a list
    of polynomials or an already-prepared :class:`_ReducerSet`.
    """
    ring = f.ring
    antikey = ring.word_antikey
    heappush, heappop = heapq.heappush, heapq.heappop

    prepared = basis if isinstance(basis, _ReducerSet) else _ReducerSet(ring, basis)
    step = prepared.step
    modulus = prepared.modulus
    reducers = prepared.reducers

    # coefficient accumulator plus a lazy max-heap of words; stale heap
    # entries (cancelled or duplicated words) are skipped on pop
    coeffs: dict[Word, object] = dict(f.terms)
    heap = [(antikey(w), w) for w, _ in f.terms]
    heapq.heapify(heap)
    out: list[tuple[Word, object]] = []
    while heap:
        w = heap[0][1]
        c = coeffs.get(w)
        if c is None:
            heappop(heap)
            continue
        lw = len(w)
        for lmg, lg, div, gterms, gpoly in reducers:
            if lg > lw:
                continue
            pos = w.find(lmg)
            if pos < 0:
                continue
            hit = step(c, div)
            if hit is not None:
                break
        else:
            heappop(heap)
            del coeffs[w]
            out.append((w, c))
            if not tail_reduce:
                break
            continue
        a, b = hit
        l, r = w[:pos], w[pos + lg:]
        if trace is not None:
            trace.append((gpoly, a, l, r))
        # subtract a * l*g*r; the leading word keeps coefficient b and
        # every other touched word is strictly smaller, so it is safe to
        # push it into the heap
        if b:
            coeffs[w] = b
        else:
            del coeffs[w]
        if modulus is None:
            for u, cu in gterms[1:]:
                nw = l + u + r
                old = coeffs.get(nw)
                if old is None:
                    coeffs[nw] = -a * cu
                    heappush(heap, (antikey(nw), nw))
                else:
                    nc = old - a * cu
                    if nc:
                        coeffs[nw] = nc
                    else:
                        del coeffs[nw]
        else:
            for u, cu in gterms[1:]:
                nw = l + u + r
                old = coeffs.get(nw)
                if old is None:
                    # -a*cu can hit zero mod a composite (zero divisors)
                    nc = -a * cu % modulus
                    if nc:
                        coeffs[nw] = nc
                        heappush(heap, (antikey(nw), nw))
                else:
                    nc = (old - a * cu) % modulus
                    if nc:
                        coeffs[nw] = nc
                    else:
                        del coeffs[nw]
    if coeffs:
        # early exit without tail reduction: drain the remaining words
        rest = sorted(coeffs.items(), key=lambda item: antikey(item[0]))
        out.extend(rest)
    return ring.from_terms(out)


# memo sentinels of the words whose form is the word itself; they are the
# only strings in the memo
_LEAF = "leaf"  # no leading word occurs in it
_FRONTIER = "frontier"  # its first reducer has a non-unit leading coefficient


class _WordForms:
    """Reduction to zero through memoised forms of single words.

    A word is *unit-led* when the first reducer of ``prepared`` whose
    leading word occurs in it has a unit leading coefficient, *frontier*
    when that coefficient is not a unit, and a *leaf* when no leading word
    occurs in it.  A unit-led word's step in :func:`normal_form` (that
    reducer, at the leftmost occurrence) succeeds for every nonzero
    coefficient with remainder 0, so it is linear: ``c*w`` becomes
    ``-c*a * sum(c_u * l*u*r)`` over the reducer's tail terms ``c_u*u``,
    where ``a`` is one over the leading coefficient.  The memo maps a
    unit-led word to its expansion into leaf and frontier words, stored
    flat as ``(word, coeff, word, coeff, ...)`` with nonzero coefficients,
    and a leaf or frontier word to its sentinel.  Over a field every
    nonzero coefficient is a unit, so there are no frontier words.
    """

    __slots__ = (
        "antikey", "step", "modulus", "reducers", "rules", "mixed", "per_pair", "pack",
        "memo", "frontier",
    )

    def __init__(self, prepared: _ReducerSet):
        one = prepared.ring.domain.one
        self.antikey = prepared.ring.word_antikey
        self.step = prepared.step
        self.modulus = prepared.modulus
        self.reducers = prepared.reducers
        # per reducer: its leading word, and for a unit leading coefficient
        # lc the terms (u, -c_u/lc) of the multiple of its tail that a
        # unit-led word's step adds, None for a non-unit one.  A unit
        # divides one exactly; any other coefficient has no step on one
        # (over Z the nearest quotient of 1 by it is 0).
        self.rules = []
        for lmg, lg, div, gterms, _ in prepared.reducers:
            hit = prepared.step(one, div)
            if hit is None:
                tail = None
            else:
                tail = [(u, -hit[0] * cu) for u, cu in gterms[1:]]
                if self.modulus is not None:
                    tail = [(u, c % self.modulus) for u, c in tail]
            self.rules.append((lmg, lg, tail))
        self.mixed = any(tail is None for _, _, tail in self.rules)
        self.per_pair = self.mixed and self.modulus is None
        # a memo cleared after every pair keeps its forms in lists: CPython
        # keeps up to 2000 freed tuples of each length below 20 for reuse,
        # which raised the peak RSS of the skew ideal over Z at d=9 by 1.3 MB
        self.pack = list if self.per_pair else tuple
        self.memo: dict[Word, tuple | list | str] = {}
        self.frontier: dict[Word, tuple] = {}

    def form(self, w: Word) -> tuple | list | str:
        """The memo entry of ``w``, computed with an explicit stack: the
        words of a reducer's tail can be many levels deep."""
        memo = self.memo
        nf = memo.get(w)
        if nf is not None:
            return nf
        rules, modulus, pack = self.rules, self.modulus, self.pack
        pending: dict[Word, list] = {}
        stack = [w]
        while stack:
            v = stack[-1]
            if v in memo:
                stack.pop()
                continue
            parts = pending.pop(v, None)
            if parts is None:
                lv = len(v)
                for lmg, lg, tail in rules:
                    if lg <= lv:
                        pos = v.find(lmg)
                        if pos >= 0:
                            break
                else:
                    memo[v] = _LEAF
                    stack.pop()
                    continue
                if tail is None:
                    memo[v] = _FRONTIER
                    stack.pop()
                    continue
                l, r = v[:pos], v[pos + lg:]
                parts = pending[v] = [(l + u + r, k) for u, k in tail]
                # the words of a reducer's tail are smaller than v, so no
                # word still pending can come back here
                stack.extend(x for x, _ in parts if x not in memo)
                continue
            # every l*u*r of v's reducer is in the memo by now
            stack.pop()
            acc: dict[Word, object] = {}
            get = acc.get
            for x, k in parts:
                fx = memo[x]
                if fx.__class__ is not str:
                    it = iter(fx)
                    for y, cy in zip(it, it):
                        acc[y] = get(y, 0) + k * cy
                else:
                    acc[x] = get(x, 0) + k
            if modulus is not None:
                acc = {y: c % modulus for y, c in acc.items()}
            memo[v] = pack(itertools.chain.from_iterable(t for t in acc.items() if t[1]))
        return memo[w]

    def next_pair(self) -> None:
        """End a basis pair: over Z with a non-unit reducer the memo is
        kept for one pair only (see :func:`verify_strong_basis`)."""
        if self.per_pair:
            self.memo.clear()

    def reduces_to_zero(self, p: Polynomial) -> bool:
        """Does :func:`normal_form` reduce ``p`` to zero?

        Sums ``c * form(w)`` over the terms of ``p``, then steps the
        frontier words of the sum in descending order, spreading each
        step's tail words through the memo again.  False as soon as a
        frontier word has no step; otherwise True when every leaf
        coefficient is zero.
        """
        memo, form = self.memo, self.form
        acc: dict[Word, object] = {}
        get = acc.get
        for w, c in p.terms:
            f = memo.get(w)
            if f is None:
                f = form(w)
            if f.__class__ is not str:
                it = iter(f)
                for y, cy in zip(it, it):
                    acc[y] = get(y, 0) + c * cy
            else:
                acc[w] = get(w, 0) + c
        if self.mixed:
            heap = [self._frontier(y) for y in acc if memo[y] is _FRONTIER]
            if heap and not self._step_frontier(acc, heap):
                return False
        modulus = self.modulus
        if modulus is None:
            return not any(acc.values())
        return not any(c % modulus for c in acc.values())

    def _frontier(self, v: Word) -> tuple:
        """``(antikey(v), v, steps)`` for a frontier word ``v``, kept for
        the call: ``steps`` lists every reducer whose leading word occurs
        in ``v``, in order, as ``(l, r, divisor, tail)`` at the leftmost
        occurrence ``v == l*LM*r``."""
        entry = self.frontier.get(v)
        if entry is None:
            steps = []
            for lmg, lg, div, gterms, _ in self.reducers:
                if lg <= len(v):
                    pos = v.find(lmg)
                    if pos >= 0:
                        steps.append((v[:pos], v[pos + lg:], div, gterms[1:]))
            entry = self.frontier[v] = (self.antikey(v), v, steps)
        return entry

    def _step_frontier(self, acc: dict, heap: list) -> bool:
        """Reduce the frontier words of ``acc``, each on ``heap`` once,
        largest first, with :func:`normal_form`'s rule: the first reducer
        whose step succeeds, at the leftmost occurrence, and a re-scan on
        a nonzero remainder.  Leaves the leaf words in ``acc``; False when
        a frontier word keeps a coefficient that no reducer steps."""
        heapq.heapify(heap)
        heappush, heappop = heapq.heappush, heapq.heappop
        memo, form, frontier = self.memo, self.form, self._frontier
        step, modulus = self.step, self.modulus
        while heap:
            _, v, steps = heappop(heap)
            c = acc.pop(v)
            if modulus is not None:
                c %= modulus
            while c:
                for l, r, div, tail in steps:
                    hit = step(c, div)
                    if hit is not None:
                        break
                else:
                    return False
                a, c = hit
                for u, cu in tail:
                    x = l + u + r
                    k = -a * cu
                    f = memo.get(x)
                    if f is None:
                        f = form(x)
                    if f.__class__ is not str:
                        it = iter(f)
                        terms = zip(it, it)
                    else:
                        terms = ((x, 1),)
                    for y, cy in terms:
                        old = acc.get(y)
                        if old is not None:
                            acc[y] = old + k * cy
                            continue
                        acc[y] = k * cy
                        # every frontier word of acc is on the heap once
                        if memo[y] is _FRONTIER:
                            heappush(heap, frontier(y))
        return True


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def coeff_criterion(f: Polynomial, g: Polynomial) -> bool:
    """True when the G-pairs of ``(f, g)`` are redundant: when one leading
    coefficient divides the other (always, over a field)."""
    dom = f.ring.domain
    cf, cg = f.leading_coeff(), g.leading_coeff()
    return dom.divides(cf, cg) or dom.divides(cg, cf)


def product_criterion(f: Polynomial, g: Polynomial, w: Word) -> bool:
    """Discard test for the second-type pair ``(f, g, w)``.

    True iff the leading coefficients are coprime, the leading words
    have no overlap, and no tail term of ``f`` collides with a tail term
    of ``g`` across the connection: ``u·w·LM(g) != LM(f)·w·v`` for all
    tail words ``u`` of ``f`` and ``v`` of ``g``.
    """
    return _PairMeta(f, g).holds(w)


def pair_replacement(f: Polynomial, g: Polynomial):
    """For ``LM(f) == LM(g)`` over Z: the unimodular swap to
    ``(spoly, gpoly)`` on ``t = LM(f)`` with identity embeddings.

    The defining 2x2 matrix has determinant ``a_f b_g + a_g b_f = 1``,
    so ``{f, g}`` and ``{spoly, gpoly}`` generate the same ideal.
    """
    if f.leading_word() != g.leading_word():
        raise ValueError("pair replacement needs equal leading words")
    sp = pair_poly(f, b"", b"", g, b"", b"", False)
    return sp, pair_poly(f, b"", b"", g, b"", b"", True)


# ---------------------------------------------------------------------------
# first-type relation enumeration (engine-internal: tolerates constants)
# ---------------------------------------------------------------------------

def _first_type(u: Word, v: Word) -> list[Overlap]:
    """Overlaps of two leading words, one of which may be empty
    (a constant basis element's leading word divides everything once,
    canonically)."""
    if u and v:
        return overlaps(u, v)
    if not u and not v:
        # Two constants meet in the trivial placement only: the S-polynomial
        # af*f - ag*g cancels outright and the G-polynomial produces their gcd.
        return [Overlap(b"", Bimonomial(b"", b""), Bimonomial(b"", b""), U_DIVIDES_V)]
    if not u:
        return [Overlap(v, Bimonomial(b"", v), Bimonomial(b"", b""), U_DIVIDES_V)]
    return [Overlap(u, Bimonomial(b"", b""), Bimonomial(b"", u), V_DIVIDES_U)]


# ---------------------------------------------------------------------------
# the completion engine
# ---------------------------------------------------------------------------

class _PairMeta:
    """The product criterion for the second-type pairs of ordered
    ``(f, g)``, with its w-independent parts computed once."""

    __slots__ = ("coprime_no_overlap", "constraints", "lmf", "lmg")

    def __init__(self, f: Polynomial, g: Polynomial):
        dom = f.ring.domain
        lmf, lmg = f.leading_word(), g.leading_word()
        self.lmf, self.lmg = lmf, lmg
        cond1 = dom.coprime(f.leading_coeff(), g.leading_coeff())
        cond2 = not lmf or not lmg or not overlaps(lmf, lmg)
        self.coprime_no_overlap = cond1 and cond2
        self.constraints: list[tuple[Word, Word]] = []
        if self.coprime_no_overlap:
            for u, _ in f.tail_iter():
                for v, _ in g.tail_iter():
                    if len(u) + len(lmg) == len(lmf) + len(v):
                        self.constraints.append((u, v))

    def holds(self, w: Word) -> bool:
        """Does the criterion discard the pair at connecting word ``w``?"""
        if not self.coprime_no_overlap:
            return False
        lmf, lmg = self.lmf, self.lmg
        for u, v in self.constraints:
            if u + w + lmg == lmf + w + v:
                return False
        return True


class _Engine:
    def __init__(
        self,
        ring: FreeAlgebra,
        d: int,
        reduce: bool,
        tail_reduce: bool,
        test_mode: bool,
    ):
        dom = ring.domain
        if dom.kind == DomainKind.RESIDUE and not dom.is_field:
            raise ValueError(
                "composite residue moduli are handled by the lifting driver"
            )
        self.ring = ring
        self.d = d
        self.reduce = reduce
        self.tail_reduce = tail_reduce
        self.test_mode = test_mode
        self.field_mode = dom.is_field

        self.polys: list[Polynomial | None] = []
        self.active: list[int] = []
        self.lm_index: dict[Word, int] = {}
        self.heap: list[tuple[int, int, CriticalPair]] = []
        self.seq = itertools.count()
        self.buckets: dict[int, list[tuple[int, int]]] = {}
        self.level_done = 0
        self.processed: set[tuple] = set()
        self.coeff_ok: dict[tuple[int, int], bool] = {}
        self.meta: dict[tuple[int, int], _PairMeta] = {}
        self.unit = False

        self.stats = Stats()
        self.insertion_log: list[tuple[int, Polynomial]] = []
        self.discard_log: list[tuple] | None = [] if test_mode else None
        self.cofactor_log: list[tuple] | None = [] if test_mode else None

    # -- small helpers -----------------------------------------------------

    def _snapshot(self) -> list[Polynomial]:
        return [self.polys[k] for k in self.active]

    def _push(self, pair: CriticalPair) -> None:
        heapq.heappush(self.heap, (pair.weight, next(self.seq), pair))
        if len(self.heap) > self.stats.peak_queue_size:
            self.stats.peak_queue_size = len(self.heap)

    def _log_cofactors(self, cf, cg) -> None:
        # gcd cofactors only make sense away from fields
        if self.cofactor_log is not None and not self.field_mode:
            dom = self.ring.domain
            af, ag = s_cofactors(dom, cf, cg)
            bf, bg, _ = g_cofactors(dom, cf, cg)
            self.cofactor_log.append((af, ag, bf, bg))

    def _coeff_ok(self, i: int, j: int) -> bool:
        k = (i, j) if i <= j else (j, i)
        hit = self.coeff_ok.get(k)
        if hit is None:
            hit = coeff_criterion(self.polys[k[0]], self.polys[k[1]])
            self.coeff_ok[k] = hit
        return hit

    def _meta(self, a: int, b: int) -> _PairMeta:
        m = self.meta.get((a, b))
        if m is None:
            m = _PairMeta(self.polys[a], self.polys[b])
            self.meta[(a, b)] = m
        return m

    @staticmethod
    def _s_key(i: int, pi: int, j: int, pj: int, t: Word) -> tuple:
        if (j, pj) < (i, pi):
            i, pi, j, pj = j, pj, i, pi
        return ("S", i, pi, j, pj, t)

    # -- registration -------------------------------------------------------

    def _register(self, n: int) -> None:
        """Enqueue all critical pairs between element ``n`` and the
        active basis (including ``n`` itself)."""
        lmn = self.polys[n].leading_word()
        for k in list(self.active):
            f = self.polys[k]
            if f is None:
                continue
            lmk = f.leading_word()
            # first type, one orientation (the swapped S-poly is the
            # negation; the swapped G-poly differs by a multiple of the
            # S-poly)
            for ov in _first_type(lmk, lmn):
                if len(ov.t) > self.d:
                    continue
                w = len(ov.t)
                self.stats.pairs_created += 1
                pk = len(ov.tau_u.left)
                pn = len(ov.tau_v.left)
                self._push(CriticalPair(k, n, S1, ov, w))
                if not self.field_mode:
                    self.stats.pairs_created += 1
                    if self._coeff_ok(k, n):
                        self.stats.pairs_discarded_coeff += 1
                        self.processed.add(("G1", k, pk, n, pn, ov.t))
                    else:
                        self._push(CriticalPair(k, n, G1, ov, w))
            # second type, both orientations, integers only
            if not self.field_mode:
                pairs = {(k, n), (n, k)}
                for a, b in sorted(pairs):
                    base = len(self.polys[a].leading_word()) + len(
                        self.polys[b].leading_word()
                    )
                    for lvl in range(base, self.d + 1):
                        if lvl <= self.level_done:
                            self._materialize(a, b, lvl)
                        else:
                            self.buckets.setdefault(lvl, []).append((a, b))

    def _materialize(self, a: int, b: int, lvl: int) -> None:
        """Create the second-type pairs of ordered ``(a, b)`` whose
        common word ``LM(a)·w·LM(b)`` has length ``lvl``."""
        f, g = self.polys[a], self.polys[b]
        if f is None or g is None:
            return
        lma, lmb = f.leading_word(), g.leading_word()
        base = len(lma) + len(lmb)
        k = lvl - base
        nletters = len(self.ring.alphabet)
        count = nletters**k
        meta = self._meta(a, b)
        g_needed = not self._coeff_ok(a, b)

        if meta.coprime_no_overlap and not meta.constraints:
            # the product criterion holds for every connecting word at
            # this level: account for the whole family in bulk
            self.stats.pairs_created += count
            self.stats.pairs_discarded_product += count
            if self.discard_log is not None:
                self.discard_log.append(("S2-family", f, g, k))
        else:
            for letters in itertools.product(range(nletters), repeat=k):
                w = bytes(letters)
                self.stats.pairs_created += 1
                if self._product_ok(a, b, w):
                    self.stats.pairs_discarded_product += 1
                    if self.discard_log is not None:
                        self.discard_log.append(("S2", f, g, w))
                    continue
                self._push(CriticalPair(a, b, S2, w, lvl))

        if g_needed:
            for letters in itertools.product(range(nletters), repeat=k):
                w = bytes(letters)
                self.stats.pairs_created += 1
                self._push(CriticalPair(a, b, G2, w, lvl))
        else:
            self.stats.pairs_created += count
            self.stats.pairs_discarded_coeff += count

    # -- chain criterion ----------------------------------------------------

    def _product_ok(self, a: int, b: int, w: Word) -> bool:
        """The product criterion holds for the second-type pair of
        ordered ``(a, b)`` at connecting word ``w``: coprime leading
        coefficients, no first-type common multiples, and no collision
        between a tail of one factor and the shifted leading word of
        the other."""
        return self._meta(a, b).holds(w)

    def _premise_ok(self, a: int, pa: int, la: int, b: int, pb: int, lb: int, t: Word) -> bool:
        """Was the sub-pair spanned by the occurrences ``a@pa`` and
        ``b@pb`` inside ``t`` already handled?  Intersecting occurrences
        name a first-type S-pair; disjoint ones a second-type pair,
        which over a field always has a strong representation and over
        a ring may be covered by the product criterion instead of
        having been processed individually."""
        if pa < pb + lb and pb < pa + la:
            lo = min(pa, pb)
            hi = max(pa + la, pb + lb)
            key = self._s_key(a, pa - lo, b, pb - lo, t[lo:hi])
            return key in self.processed
        if self.field_mode:
            return True
        if pa < pb:
            first, second, gap = a, b, t[pa + la:pb]
        else:
            first, second, gap = b, a, t[pb + lb:pa]
        if (S2, first, second, gap) in self.processed:
            return True
        return self._product_ok(first, second, gap)

    def _chain_discard(self, pair: CriticalPair, t: Word, pi: int, pj: int) -> bool:
        """Gebauer-Moeller-style discard: some third active element
        occurs in ``t`` at a position distinct from the two defining
        occurrences, its leading coefficient divides the pair's lcm
        (S-kinds) or gcd (G-kinds), and both premise sub-pairs were
        already handled, so the pair's S/G-polynomial telescopes into
        combinations that are known to have strong representations."""
        i, j = pair.i, pair.j
        g, h = self.polys[i], self.polys[j]
        dom = self.ring.domain
        if pair.kind in (G1, G2):
            need = dom.ext_gcd(g.leading_coeff(), h.leading_coeff())[0]
        elif not self.field_mode:
            need = dom.lcm(g.leading_coeff(), h.leading_coeff())
        else:
            need = None
        li = len(g.leading_word())
        lj = len(h.leading_word())
        for k in self.active:
            fk = self.polys[k]
            if need is not None and need % fk.leading_coeff() != 0:
                continue
            lmf = fk.leading_word()
            if not lmf:
                continue
            lf = len(lmf)
            pos = t.find(lmf)
            while pos >= 0:
                if not ((k == i and pos == pi) or (k == j and pos == pj)):
                    if self._premise_ok(
                        k, pos, lf, i, pi, li, t
                    ) and self._premise_ok(k, pos, lf, j, pj, lj, t):
                        return True
                pos = t.find(lmf, pos + 1)
        return False

    # -- insertion ----------------------------------------------------------

    def _retire(self, k: int) -> None:
        p = self.polys[k]
        self.polys[k] = None
        self.active.remove(k)
        del self.lm_index[p.leading_word()]

    def _absorb(self, raw: Polynomial) -> None:
        h = normal_form(raw, self._snapshot(), tail_reduce=self.tail_reduce)
        if h.is_zero:
            return
        self._insert(h)

    def _insert(self, h: Polynomial) -> None:
        ring = self.ring
        dom = ring.domain
        h = ring.normalize_leading(h)

        while True:
            lm = h.leading_word()
            lc = h.leading_coeff()
            if not lm and (self.field_mode or lc in (1, -1)):
                # unit constant: the whole ring
                self.unit = True
                self.heap.clear()
                self.buckets.clear()
                return
            e = self.lm_index.get(lm)
            if e is None:
                break
            # same leading word: unimodular replacement keeps one owner
            fe = self.polys[e]
            self._log_cofactors(fe.leading_coeff(), lc)
            sp, gp = pair_replacement(fe, h)
            self._retire(e)
            if not sp.is_zero:
                self._push(
                    CriticalPair(-1, -1, "P", sp, len(sp.leading_word()))
                )
            h = normal_form(gp, self._snapshot(), tail_reduce=self.tail_reduce)
            if h.is_zero:  # pragma: no cover - leading term always survives
                return
            h = ring.normalize_leading(h)

        # simplification: retire elements whose leading term the new one
        # divides; they will be re-reduced and possibly re-inserted
        lm = h.leading_word()
        lc = h.leading_coeff()
        victims = [
            k
            for k in self.active
            if lm in self.polys[k].leading_word()
            and dom.divides(lc, self.polys[k].leading_coeff())
        ]
        for k in victims:
            p = self.polys[k]
            self._retire(k)
            self._push(CriticalPair(-1, -1, "P", p, len(p.leading_word())))

        n = len(self.polys)
        self.polys.append(h)
        self.active.append(n)
        self.lm_index[lm] = n
        self.stats.basis_insertions += 1
        self.insertion_log.append((len(lm), h))
        self._register(n)

    # -- pair processing ----------------------------------------------------

    def _build_pair_poly(self, pair: CriticalPair) -> tuple[Polynomial, tuple]:
        f, g = self.polys[pair.i], self.polys[pair.j]
        if pair.kind in (S1, G1):
            ov: Overlap = pair.data
            lf, rf = ov.tau_u.left, ov.tau_u.right
            lg, rg = ov.tau_v.left, ov.tau_v.right
            key = self._s_key(pair.i, len(lf), pair.j, len(lg), ov.t)
            if pair.kind == G1:
                key = ("G1",) + key[1:]
        else:
            w: Word = pair.data
            lf, rf = b"", w + g.leading_word()
            lg, rg = f.leading_word() + w, b""
            key = (pair.kind, pair.i, pair.j, w)
        gcd = pair.kind in (G1, G2)
        if not gcd:
            self._log_cofactors(f.leading_coeff(), g.leading_coeff())
        return pair_poly(f, lf, rf, g, lg, rg, gcd), key

    def _process(self, pair: CriticalPair) -> None:
        if pair.kind == "P":
            self._absorb(pair.data)
            return
        f, g = self.polys[pair.i], self.polys[pair.j]
        if f is None or g is None:
            return

        # chain criterion at dequeue
        if pair.kind in (S2, G2):
            w: Word = pair.data
            t = f.leading_word() + w + g.leading_word()
            pi, pj = 0, len(f.leading_word()) + len(w)
        else:
            ov: Overlap = pair.data
            t, pi, pj = ov.t, len(ov.tau_u.left), len(ov.tau_v.left)
        if self._chain_discard(pair, t, pi, pj):
            self.stats.pairs_discarded_chain += 1
            if pair.kind == S1:
                self.processed.add(self._s_key(pair.i, pi, pair.j, pj, t))
            elif pair.kind == S2:
                self.processed.add((S2, pair.i, pair.j, pair.data))
            if self.discard_log is not None:
                self.discard_log.append(("chain-" + pair.kind, f, g, pair.data))
            return

        p, key = self._build_pair_poly(pair)
        h = normal_form(p, self._snapshot(), tail_reduce=self.tail_reduce)
        if h.is_zero:
            self.stats.reductions_to_zero += 1
        else:
            self._insert(h)
        self.processed.add(key)

    # -- main loop ------------------------------------------------------------

    def run(self, gens: list[Polynomial]) -> GBResult:
        ring = self.ring
        clean = [g for g in gens if not g.is_zero]
        if clean:
            longest = max(g.max_word_length() for g in clean)
            if self.d < longest:
                raise ValueError("bound too small")
        for g in clean:
            if self.unit:
                break
            self._absorb(g)

        while not self.unit:
            nxt = min(self.buckets) if self.buckets else None
            top = self.heap[0][0] if self.heap else None
            if nxt is not None and (top is None or nxt <= top):
                self.level_done = max(self.level_done, nxt)
                for a, b in self.buckets.pop(nxt):
                    self._materialize(a, b, nxt)
                continue
            if top is None:
                break
            _, _, pair = heapq.heappop(self.heap)
            self._process(pair)

        if self.unit:
            basis = [ring.one]
        else:
            basis = self._snapshot()
            if self.reduce:
                basis = interreduce(basis, tail_reduce=self.tail_reduce)
        basis.sort(key=lambda p: (ring.word_key(p.leading_word()), ring.render(p)))
        flag = completeness_flag(basis, self.d)
        return GBResult(
            basis,
            self.d,
            flag,
            self.stats,
            self.insertion_log,
            self.discard_log,
            self.cofactor_log,
        )


def buchberger(
    ring: FreeAlgebra,
    gens: list[Polynomial],
    d: int,
    *,
    reduce: bool = True,
    tail_reduce: bool = True,
    test_mode: bool = False,
) -> GBResult:
    """Strong two-sided Groebner basis of ``<gens>`` up to word length ``d``.

    ``reduce`` controls the final minimisation (drop elements whose
    leading term another element's leading term divides), ``tail_reduce``
    the reduction of non-leading terms both during the run and at the
    end.  ``test_mode`` records discarded pairs and cofactor quadruples
    for the audit suites.

    Raises ``ValueError("bound too small")`` when ``d`` is below the
    longest word among the generators.
    """
    if d < 1:
        raise ValueError("bound too small")
    return _Engine(ring, d, reduce, tail_reduce, test_mode).run(gens)


# ---------------------------------------------------------------------------
# postprocessing
# ---------------------------------------------------------------------------

def interreduce(basis: list[Polynomial], tail_reduce: bool = True) -> list[Polynomial]:
    """Minimise and (optionally) tail-reduce a basis.

    An element is dropped when another element's leading term divides
    its leading term (word as subword, coefficient dividing); the
    surviving leading terms are untouched, so the set keeps generating
    the same leading-term module.
    """
    if not basis:
        return []
    ring = basis[0].ring
    dom = ring.domain
    ordered = sorted(
        (ring.normalize_leading(p) for p in basis if not p.is_zero),
        key=lambda p: (
            len(p.leading_word()),
            ring.word_key(p.leading_word()),
            dom.norm(p.leading_coeff()),
        ),
    )
    kept: list[Polynomial] = []
    for p in ordered:
        wp, cp = p.leading_term()
        if any(
            q.leading_word() in wp and dom.divides(q.leading_coeff(), cp)
            for q in kept
        ):
            continue
        kept.append(p)
    if tail_reduce:
        while True:
            changed = False
            for idx, p in enumerate(kept):
                lt = ring.from_terms(p.terms[:1])
                rest = ring.from_terms(p.terms[1:])
                red = normal_form(rest, kept, tail_reduce=True)
                q = ring.add(lt, red)
                if q.terms != p.terms:
                    kept[idx] = q
                    changed = True
            if not changed:
                break
    return kept


def completeness_flag(basis: list[Polynomial], bound: int) -> str:
    """Heuristic completeness verdict for a bounded run.

    The run certifies all critical pairs up to ``bound``.  A published
    heuristic says that a basis is plausibly complete when the bound
    reaches three times its longest word, less one.  The verdict checks
    only that threshold: ``conjecturally-complete`` when the bound
    covers it, ``truncated`` otherwise.  It does not check whether new
    elements appeared near the bound, and it is never a proof.
    """
    longest = max((p.max_word_length() for p in basis), default=0)
    return FLAG_COMPLETE if bound >= 3 * longest - 1 else FLAG_TRUNCATED


def monomial_basis(G: list[Polynomial], d: int, ring: FreeAlgebra | None = None) -> list[Word]:
    """All words of length <= d containing no basis leading word.

    These are the normal (irreducible) words; they form a module basis
    of the quotient when the leading coefficients are units.  ``ring``
    is only needed when ``G`` is empty.
    """
    if ring is None:
        if not G:
            raise ValueError("ring required for an empty basis")
        ring = G[0].ring
    lms = sorted({g.leading_word() for g in G if not g.is_zero})
    if b"" in lms:
        return []
    n = len(ring.alphabet)
    out: list[Word] = []
    layer = [b""]
    out.extend(layer)
    for _ in range(d):
        nxt = []
        for w in layer:
            for letter in range(n):
                w2 = w + bytes([letter])
                if not any(w2.endswith(lm) for lm in lms):
                    nxt.append(w2)
        layer = nxt
        out.extend(layer)
    out.sort(key=lambda w: (len(w), ring.word_key(w)))
    return out


def _minimal_leading_terms(G: list[Polynomial], d: int):
    """Canonicalised minimal leading terms with words of length <= d."""
    if not G:
        return set()
    ring = G[0].ring
    dom = ring.domain
    lts = []
    for g in G:
        if g.is_zero or len(g.leading_word()) > d:
            continue
        w, c = g.leading_term()
        lts.append((w, dom.norm(c)))
    minimal = set()
    for w, c in lts:
        if not any(
            (w2, c2) != (w, c) and w2 in w and c % c2 == 0 for w2, c2 in lts
        ):
            minimal.add((w, c))
    return minimal


def gb_equivalent(G1: list[Polynomial], G2: list[Polynomial], d: int) -> bool:
    """Do two strong bases present the same ideal up to length ``d``?

    Checks mutual reduction to zero plus equality of the canonicalised
    minimal leading-term sets (coefficients matter: ``{2x}`` and
    ``{3x}`` have equal leading words but different ideals).
    """
    for g in G1:
        if not normal_form(g, G2, tail_reduce=False).is_zero:
            return False
    for g in G2:
        if not normal_form(g, G1, tail_reduce=False).is_zero:
            return False
    return _minimal_leading_terms(G1, d) == _minimal_leading_terms(G2, d)


# ---------------------------------------------------------------------------
# the exhaustive post-run oracle
# ---------------------------------------------------------------------------

def verify_strong_basis(ring: FreeAlgebra, basis: list[Polynomial], d: int) -> list[tuple]:
    """Exhaustively check the Buchberger criterion on ``basis`` up to ``d``.

    Every first-type S- and G-polynomial whose overlap word fits the
    bound, and every second-type one for every connecting word within
    the bound, must reduce to zero.  Returns a list of failures
    (empty means the basis passed); each failure records the pair kind
    and its data.  This routine deliberately shares no pair-selection
    or criterion logic with the completion engine: it enumerates
    everything and reduces.

    Every pair polynomial ``p`` is tested the same way over Q, Z/p, Z
    and composite Z/m (:class:`_WordForms`): the verdict is whether
    :func:`normal_form`, with the reducers in the order below, takes
    ``p`` to zero, but no pair is reduced from scratch.  The *first
    reducer* of a word is the first one whose leading word occurs in
    it.  Call the word *unit-led* when its first reducer has a unit
    leading coefficient ``lc`` (1 or -1 over Z, prime to m over Z/m, any
    nonzero value over a field), *frontier* when it has not, and a
    *leaf* when it has no reducer.

    * A unit-led word's step (its first reducer, at the leftmost
      occurrence) succeeds for every nonzero coefficient ``c`` with
      remainder 0, subtracting ``c/lc * l*g*r``; so its expansion is
      linear in ``c``, into words smaller than itself.  Expanding
      unit-led words recursively gives a memoised linear map ``form``
      from words to combinations of leaf and frontier words, and
      ``sum(c_w * form(w))`` over the terms of ``p`` is what reduction
      leaves on the leaf and frontier words, before any frontier step.
    * A frontier word's step depends on its coefficient, so it is taken
      on the word's whole coefficient, one word at a time: modulo
      ``2*x``, ``3*x`` and ``5*x`` each leave ``x``, so their results add
      up to ``2*x``, while their sum ``8*x`` leaves 0.  Every step
      rewrites a word into smaller ones, so every contribution to a
      frontier word comes from a larger word.  Popping frontier words in
      descending order, stepping each exactly as :func:`normal_form`
      does (the first reducer whose step succeeds, at the leftmost
      occurrence, and a re-scan on a nonzero remainder) and spreading the
      step's tail words through ``form`` again therefore gives each
      frontier word the coefficient that full reduction gives it, and
      each leaf word its final coefficient.
    * Full reduction is zero exactly when every frontier word's
      coefficient is stepped away and every leaf coefficient is zero.
      Lm-reduction applies the same steps as full reduction until the
      leading word cannot be stepped, and full reduction only goes on to
      smaller words; so ``p`` lm-reduces to zero exactly when it fully
      reduces to zero, and the list of failures is the one lm-reduction
      gives.

    A zero verdict is a standard representation of ``p``: the
    subtracted multiples ``a*l*g*r`` all have leading word at most
    ``LM(p)``.  This is the standard-representation form of the
    Buchberger criterion (Mora, TCS 134, 1994).  A nonzero verdict is a
    real witness of failure: a nonzero remainder of an element of the
    ideal that the reducers cannot step.

    Over a field there are no frontier words, so the test is one sum of
    memoised forms.  The memo is kept for the whole call, except over Z
    when a reducer has a non-unit leading coefficient: then it is
    cleared after each basis pair ``(i, j)``, because the forms carry
    large integer coefficients there (on the torsion ideal at d=9,
    keeping them for the whole call raised the peak RSS from 25.4 MB to
    44.4 MB).  Over Z/m every coefficient is a residue below m, so the
    forms stay as small as over a field.
    """
    failures: list[tuple] = []
    n = len(basis)
    nletters = len(ring.alphabet)

    # Zero-testing does not depend on the reduction strategy (any maximal
    # reduction of an element of the ideal terminates at zero once the
    # basis is strong, and a nonzero remainder under any strategy is a
    # genuine witness), so the reducers are prepared once, cheapest first.
    order = sorted(
        (g for g in basis if g.terms),
        key=lambda g: (len(g.leading_word()), abs(g.leading_coeff())),
    )
    forms = _WordForms(_ReducerSet(ring, order))
    reduces_to_zero = forms.reduces_to_zero

    for i in range(n):
        for j in range(i, n):
            f, g = basis[i], basis[j]
            lmf, lmg = f.leading_word(), g.leading_word()
            if lmf and lmg:
                rels = overlaps(lmf, lmg)
                if i != j and lmf == lmg:
                    # distinct elements sharing a leading word: the
                    # aligned relation matters (gcd combination)
                    identity = Bimonomial(b"", b"")
                    rels = [Overlap(lmf, identity, identity, U_DIVIDES_V)] + rels
            elif lmf or lmg:
                rels = _first_type(lmf, lmg)
            else:
                rels = []
            for ov in rels:
                if len(ov.t) > d:
                    continue
                res = spoly1(f, g, ov)
                if not reduces_to_zero(res.spoly):
                    failures.append(("S1", i, j, ov))
                if res.gpoly is not None and not reduces_to_zero(res.gpoly):
                    failures.append(("G1", i, j, ov))
            forms.next_pair()

    for i in range(n):
        for j in range(n):
            f, g = basis[i], basis[j]
            base = len(f.leading_word()) + len(g.leading_word())
            monomials = len(f.terms) == 1 and len(g.terms) == 1
            for k in range(d - base + 1):
                for letters in itertools.product(range(nletters), repeat=k):
                    w = bytes(letters)
                    res = spoly2(f, g, w)
                    if not monomials and not reduces_to_zero(res.spoly):
                        failures.append(("S2", i, j, w))
                    if res.gpoly is not None and not reduces_to_zero(res.gpoly):
                        failures.append(("G2", i, j, w))
            forms.next_pair()
    return failures
