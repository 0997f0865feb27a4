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
  increasing total length and cut off at the bound ``d``.  One queue
  entry stands for a range of connecting words of one family and level;
  the product criterion is counted in closed form
  (:meth:`_PairMeta.exceptions`), and whole subtrees of words that a
  chain lemma discards are counted without being queued one by one
  (:meth:`_Engine._walk`);
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

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .coeffring import DomainKind
from .freealg import FreeAlgebra, Polynomial, Word
from .overlap import g_cofactors, overlaps, s_cofactors, sides

FLAG_COMPLETE = "conjecturally-complete"
FLAG_TRUNCATED = "truncated"

S1, G1, S2, G2 = "S1", "G1", "S2", "G2"


@dataclass(slots=True)
class Stats:
    """Observability counters for one completion run.

    Every counter counts single pairs, also where the engine handles a
    range of second-type pairs at once.  ``peak_queue_size`` is the
    largest number of queued pairs, a range counting one per word, which
    is what a queue holding one entry per pair would reach.
    """

    pairs_created: int = 0
    pairs_discarded_product: int = 0
    pairs_discarded_chain: int = 0
    pairs_discarded_coeff: int = 0
    reductions_to_zero: int = 0
    basis_insertions: int = 0
    peak_queue_size: int = 0

    def as_dict(self) -> dict[str, int]:
        """The counters in field order, which is the CLI's JSON key order."""
        return {name: getattr(self, name) for name in self.__slots__}


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

def _reducer(dom, g: Polynomial) -> tuple:
    """A nonzero reducer ``g`` as ``(LM, |LM|, divisor of LC, tail terms, g,
    q)``, the divisor being the form the division step divides by, and ``q =
    step(1, divisor)[0]`` for a unit LC, for which ``step(c, divisor) == (c*q,
    0)`` (mod m over Z/m), None for any other (over Z the step on 1 is None)."""
    lm, lc = g.terms[0]
    div = dom.divisor(lc)
    hit = dom.step(dom.one, div)
    return (lm, len(lm), div, g.terms[1:], g, None if hit is None else hit[0])


def normal_form(
    f: Polynomial, basis, tail_reduce: bool = False, trace: list | None = None
) -> Polynomial:
    """Iterated lm-reduction of ``f`` against the polynomials ``basis``.

    The reducer is the first applicable basis element in the given
    order, applied at the leftmost occurrence of its leading word.  With
    ``tail_reduce`` the loop continues into the non-leading terms.  When
    ``trace`` is a list, every applied step ``(g, a, l, r)`` is appended,
    so that ``f == result + sum(a * l*g*r)``.

    This is :func:`_reduce` on ``dict(f.terms)`` and a :func:`_reducer`
    record per nonzero element of ``basis``.  The engine, ``interreduce``
    and ``gb_equivalent`` call :func:`_reduce` on records they build once.
    """
    dom = f.ring.domain
    reducers = [_reducer(dom, g) for g in basis if g.terms]
    return _reduce(f.ring, dict(f.terms), reducers, tail_reduce, trace)


def _placed_sum(parts, modulus) -> dict:
    """``sum(x * l*terms*r)`` over ``parts`` ``(x, l, r, terms)`` as a dict
    of its nonzero coefficients (reduced mod ``modulus`` unless None): the
    terms of :func:`overlap.pair_poly` on the same placed summands."""
    acc: dict[Word, object] = {}
    get = acc.get
    for x, l, r, terms in parts:
        for u, c in terms:
            w = l + u + r
            acc[w] = get(w, 0) + x * c
    if modulus is not None:
        return {w: c % modulus for w, c in acc.items() if c % modulus}
    return {w: c for w, c in acc.items() if c}


def _reduce(ring: FreeAlgebra, coeffs: dict, reducers, tail_reduce: bool, trace) -> Polynomial:
    """The reduction loop of :func:`normal_form`, on the nonzero
    coefficients ``coeffs`` (taken over) of the polynomial it reduces,
    against the :func:`_reducer` records ``reducers`` in order.  Every
    reduction runs here: of a generator, a retired element, a pair's placed
    summands (:func:`_placed_sum`) or a tail in ``interreduce``.  Only the
    words and coefficients are read, so any dict of a polynomial's terms
    gives its remainder and steps."""
    antikey = ring.word_antikey
    heappush, heappop = heapq.heappush, heapq.heappop
    step, modulus = ring.domain.step, ring.domain.modulus

    # coefficient accumulator plus a lazy max-heap of words; stale heap
    # entries (cancelled or duplicated words) are skipped on pop
    heap = [(antikey(w), w) for w in coeffs]
    heapq.heapify(heap)
    out: list[tuple[Word, object]] = []
    while heap:
        w = heappop(heap)[1]
        c = coeffs.get(w)
        if c is None:
            continue
        lw = len(w)
        for lmg, lg, div, gtail, gpoly, q in reducers:
            if lg > lw:
                continue
            pos = w.find(lmg)
            if pos < 0:
                continue
            if q is not None:
                a, b = (c * q if modulus is None else c * q % modulus), 0
                break
            hit = step(c, div)
            if hit is not None:
                a, b = hit
                break
        else:
            del coeffs[w]
            out.append((w, c))
            if not tail_reduce:
                break
            continue
        l, r = w[:pos], w[pos + lg:]
        if trace is not None:
            trace.append((gpoly, a, l, r))
        # subtract a * l*g*r; the leading word keeps coefficient b, back on
        # the heap to be stepped again, and every other touched word is
        # strictly smaller, so it is safe to push it into the heap
        if b:
            coeffs[w] = b
            heappush(heap, (antikey(w), w))
        else:
            del coeffs[w]
        for u, cu in gtail:
            nw = l + u + r
            old = coeffs.get(nw)
            nc = -a * cu if old is None else old - a * cu
            if modulus is not None:
                # -a*cu can hit zero mod a composite (zero divisors)
                nc %= modulus
            if nc:
                if old is None:
                    heappush(heap, (antikey(nw), nw))
                coeffs[nw] = nc
            elif old is not None:
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
_MEMO_BUDGET = 14_000  # the memo's terms past which next_pair clears it


def _lean(c):
    """``c`` as an ``int`` when it is an integral ``Fraction``, else ``c``."""
    return c.numerator if c.__class__ is Fraction and c.denominator == 1 else c


class _WordForms:
    """Reduction to zero through memoised forms of single words; the
    unit-led, frontier and leaf words of the :func:`_reducer` records
    ``reducers`` and the proof are in :func:`verify_strong_basis`.  A
    unit-led word's step is linear: ``c*w`` becomes ``-c*a * sum(c_u *
    l*u*r)`` over its first reducer's tail terms ``c_u*u``, ``a`` one over
    the leading coefficient.
    The memo maps a unit-led word to its expansion into leaf and frontier
    words, flat as ``(word, coeff, word, coeff, ...)`` with nonzero
    coefficients, and a leaf or frontier word to its sentinel; ``size``
    counts the terms it holds.  A sum of placed summands is tested
    unmerged, as the sum of forms is linear (see :func:`verify_strong_basis`).
    Over Q an integral coefficient of a rule's tail is held as an ``int``:
    ``int`` and ``Fraction`` mix exactly, and ``Fraction(n) == n`` with the
    same hash and truth value, so every sum and zero test is unchanged while
    most of the arithmetic runs on CPython's integers.
    """

    __slots__ = (
        "antikey", "domain", "reducers", "rules", "mixed", "pack", "memo", "size", "frontier",
    )

    def __init__(self, ring: FreeAlgebra, reducers: list):
        dom = self.domain = ring.domain
        self.antikey = ring.word_antikey
        self.reducers = reducers
        # per reducer: its leading word, and for a unit leading coefficient
        # lc the terms (u, -c_u/lc) of the multiple of its tail that a
        # unit-led word's step adds, None for a non-unit one (the record's
        # unit quotient q is 1/lc, see _reducer)
        self.rules = []
        for lmg, lg, _, gtail, _, q in reducers:
            if q is None:
                tail = None
            else:
                tail = [(u, _lean(-q * cu)) for u, cu in gtail]
                if dom.modulus is not None:
                    tail = [(u, c % dom.modulus) for u, c in tail]
            self.rules.append((lmg, lg, tail))
        self.mixed = any(tail is None for _, _, tail in self.rules)
        # lists, not tuples, when the memo is cleared often: CPython keeps up to 2000
        # freed tuples per length below 20, which raised skew over Z's d=9 RSS by 1.3 MB
        self.pack = list if self.mixed else tuple
        self.memo: dict[Word, tuple | list | str] = {}
        self.size = 0
        self.frontier: dict[Word, tuple] = {}

    def form(self, w: Word) -> tuple | list | str:
        """The memo entry of ``w``, computed with an explicit stack: the
        words of a reducer's tail can be many levels deep."""
        memo = self.memo
        nf = memo.get(w)
        if nf is not None:
            return nf
        rules, pack = self.rules, self.pack
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
            nf = memo[v] = pack(self._combine(parts))
            self.size += len(nf) >> 1
        return memo[w]

    def _combine(self, parts) -> itertools.chain | tuple:
        """``sum(k * form(x))`` over ``parts``, flat, without zero terms."""
        memo = self.memo
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
        if not acc:
            return ()
        modulus = self.domain.modulus
        if modulus is not None:
            acc = {y: c % modulus for y, c in acc.items()}
        return itertools.chain.from_iterable(t for t in acc.items() if t[1])

    def next_pair(self) -> None:
        """End a basis pair: clear the memo once its size passes
        ``_MEMO_BUDGET`` (see :func:`verify_strong_basis`)."""
        if self.size > _MEMO_BUDGET:
            self.memo.clear()
            self.size = 0

    def reduces_to_zero(self, p: Polynomial) -> bool:
        """Does :func:`normal_form` reduce ``p`` to zero?"""
        return self.sum_reduces_to_zero(((1, b"", b"", p.terms),))

    def sum_reduces_to_zero(self, parts) -> bool:
        """Does :func:`normal_form` reduce ``sum(scale * l*terms*r)`` over
        ``parts`` ``(scale, l, r, terms)`` to zero?

        Sums ``scale*c_u * form(l*u*r)`` over the terms ``(u, c_u)`` of
        every part, then steps the frontier words of the sum in descending
        order, adding each step's precomputed spread.  False as soon as a
        frontier word has no step; otherwise True when every leaf
        coefficient is zero.
        """
        memo, form = self.memo, self.form
        acc: dict[Word, object] = {}
        get = acc.get
        for scale, l, r, terms in parts:
            for u, cu in terms:
                w, c = l + u + r, scale * cu
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
        modulus = self.domain.modulus
        if modulus is None:
            return not any(acc.values())
        return not any(c % modulus for c in acc.values())

    def _frontier(self, v: Word) -> tuple:
        """``(antikey(v), v, steps)`` for a frontier word ``v``, kept for
        the call: ``steps`` holds ``(divisor, spread)`` for each reducer
        whose leading word occurs in ``v``, in order, up to the first with
        a unit leading coefficient; ``spread`` is ``sum(-c_u * form(l*u*r))``
        over its tail terms ``c_u*u`` at the leftmost occurrence ``v ==
        l*LM*r``, flat as ``(word, coeff, is_frontier, ...)``: the memo that
        classified the words may be cleared before the spread is used."""
        entry = self.frontier.get(v)
        if entry is None:
            memo, steps = self.memo, []
            for (lmg, lg, div, gtail, _, _), (_, _, tail) in zip(self.reducers, self.rules):
                pos = v.find(lmg)
                if pos >= 0:
                    parts = [(v[:pos] + u + v[pos + lg:], -cu) for u, cu in gtail]
                    for x, _ in parts:
                        self.form(x)
                    it = iter(self._combine(parts))
                    spread = [(y, k, memo[y] is _FRONTIER) for y, k in zip(it, it)]
                    steps.append((div, tuple(itertools.chain.from_iterable(spread))))
                    if tail is not None:
                        break
            entry = self.frontier[v] = (self.antikey(v), v, steps)
        return entry

    def _step_frontier(self, acc: dict, heap: list) -> bool:
        """Reduce the frontier words of ``acc``, each on ``heap`` once,
        largest first, with :func:`normal_form`'s rule: the first reducer
        whose step succeeds, at the leftmost occurrence, and a re-scan on
        a nonzero remainder.  A step of quotient ``a`` adds ``a`` times its
        spread.  Leaves the leaf words in ``acc``; False when a frontier
        word keeps a coefficient that no reducer steps."""
        heapq.heapify(heap)
        heappush, heappop = heapq.heappush, heapq.heappop
        frontier, step, modulus = self._frontier, self.domain.step, self.domain.modulus
        while heap:
            _, v, steps = heappop(heap)
            c = acc.pop(v)
            if modulus is not None:
                c %= modulus
            while c:
                for div, spread in steps:
                    hit = step(c, div)
                    if hit is not None:
                        break
                else:
                    return False
                a, c = hit
                it = iter(spread)
                for y, k, is_frontier in zip(it, it, it):
                    old = acc.get(y)
                    if old is not None:
                        acc[y] = old + a * k
                        continue
                    acc[y] = a * k
                    # every frontier word of acc is on the heap once
                    if is_frontier:
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


# ---------------------------------------------------------------------------
# first-type relation enumeration (engine-internal: tolerates constants)
# ---------------------------------------------------------------------------

def _first_type(u: Word, v: Word) -> list[tuple[Word, int, int]]:
    """Placements of two leading words, one of which may be empty: a
    constant's empty leading word is placed once, at the start of the
    other word.  Two constants meet in the empty word only: the
    S-polynomial af*f - ag*g cancels outright and the G-polynomial
    produces their gcd."""
    if u and v:
        return overlaps(u, v)
    return [(u or v, 0, 0)]


# ---------------------------------------------------------------------------
# the completion engine
# ---------------------------------------------------------------------------

class _PairMeta:
    """Everything the engine knows about ordered ``(f, g)`` over a ring and
    its second-type family: ``base``, the level ``|LM(f)·LM(g)|`` of the
    empty connecting word, the product criterion's w-independent parts,
    ``g_needed`` (its G-pairs survive :func:`coeff_criterion`), its
    ``cofactors`` ``(a_f, a_g, b_f, b_g)`` from :func:`s_cofactors` and
    :func:`g_cofactors`, the ``lcm`` ``a_f*LC(f)`` and the ``gcd`` of the
    leading coefficients they give, ``last``, the ``(level, w)`` of its last
    dequeued second-type S-pair or None (see :meth:`_Engine._premise_ok`),
    and ``kept``, the product criterion's exceptions per length."""

    __slots__ = ("coprime_no_overlap", "constraints", "lmf", "lmg", "base", "g_needed",
                 "cofactors", "lcm", "gcd", "last", "kept")

    def __init__(self, f: Polynomial, g: Polynomial):
        dom = f.ring.domain
        lmf, lmg = f.leading_word(), g.leading_word()
        cf, cg = f.leading_coeff(), g.leading_coeff()
        self.lmf, self.lmg = lmf, lmg
        self.base = len(lmf) + len(lmg)
        self.coprime_no_overlap = dom.coprime(cf, cg) and (
            not lmf or not lmg or not overlaps(lmf, lmg)
        )
        self.constraints: list[tuple[Word, Word]] = []
        if self.coprime_no_overlap:
            for u, _ in f.terms[1:]:
                for v, _ in g.terms[1:]:
                    if len(u) + len(lmg) == len(lmf) + len(v):
                        self.constraints.append((u, v))
        self.g_needed = not coeff_criterion(f, g)
        af, ag = s_cofactors(dom, cf, cg)
        bf, bg, self.gcd = g_cofactors(dom, cf, cg)
        self.cofactors = (af, ag, bf, bg)
        self.lcm = af * cf
        self.last: tuple[int, Word] | None = None
        self.kept: dict[int, list[Word]] = {}

    def place(self, w: Word) -> tuple[Word, int, int]:
        """The second-type placement at ``w``: ``(LM(f)·w·LM(g), 0, |LM(f)·w|)``."""
        return self.lmf + w + self.lmg, 0, len(self.lmf) + len(w)

    def need(self, kind: str) -> object:
        """What the chain criterion's third leading coefficient divides:
        the gcd for G-kinds, the lcm for S-kinds."""
        return self.gcd if kind in (G1, G2) else self.lcm

    def exceptions(self, k: int) -> list[Word]:
        """The connecting words of length ``k`` where the product
        criterion keeps the second-type S-pair, in bytes order, for a
        ``coprime_no_overlap`` pair; computed once per length.

        The criterion discards the pair at ``w`` unless some constraint
        ``(u, v)``, a pair of tail words of ``f`` and ``g``, has ``u·w·LM(g)
        == LM(f)·w·v``.  At ``|u| == |LM(f)|`` that needs ``u == LM(f)``,
        which no tail word is; so ``|u| != |LM(f)|``.  Let ``p`` be the
        rest of the longer of the two after the shorter.  If ``u ==
        LM(f)·p`` then ``p·w·LM(g) == w·v``; if ``LM(f) == u·p`` then
        ``w·LM(g) == p·w·v``.  Either way ``w`` is a prefix of ``p·w``, so
        ``w[i] == p[i]`` below ``|p|`` and ``w[i] == w[i-|p|]`` above: ``w``
        is the first ``k`` letters of ``p`` repeated, one per constraint.
        """
        if k not in self.kept:
            lmf, lmg = self.lmf, self.lmg
            out = set()
            for u, v in self.constraints:
                if len(u) == len(lmf):
                    continue
                p = u[len(lmf):] if len(u) > len(lmf) else lmf[len(u):]
                w = (p * (k // len(p) + 1))[:k]
                if u + w + lmg == lmf + w + v:
                    out.add(w)
            self.kept[k] = sorted(out)
        return self.kept[k]


def _word(rank: int, k: int, n: int) -> Word:
    """The connecting word of length ``k`` at ``rank`` in
    ``itertools.product(range(n), repeat=k)`` order (bytes order)."""
    out = bytearray(k)
    for pos in range(k - 1, -1, -1):
        rank, out[pos] = divmod(rank, n)
    return bytes(out)


def _rank(w: Word, n: int) -> int:
    """The inverse of :func:`_word`."""
    r = 0
    for c in w:
        r = r * n + c
    return r


def _avoiding(r: int, r_end: int, k: int, n: int, pats: set, lmf: Word, lmg: Word, tables: dict):
    """Yield ``(cut_from, x, w)`` for each word ``w``, of rank ``x`` in
    ``r .. r_end-1`` (length ``k``, bytes order), such that no window of
    ``t = lmf·w·lmg`` holds a pattern of ``pats``, the words of ranks
    ``cut_from .. x-1`` having been skipped; end with ``(cut_from, r_end,
    None)``.  A window is a slice ``t[s:e]`` with ``0 < s``, ``e < |t|``,
    ``e > |lmf|`` and ``s < |lmf·w|``.  A word whose first match ends at
    ``e`` is skipped with its subtree, the words with prefix ``w[:min(e -
    |lmf|, k)]``.  Each word is the last plus one with carry, and only the
    windows ending past the changed position are looked up (see
    :meth:`_Engine._walk`).  ``tables`` maps ``(|lmf|, k, |lmg|)`` to the
    window table of ``pats`` for the level being walked, built here on first
    use."""
    la, lw = len(lmf), len(lmf) + k
    key = (la, k, len(lmg))
    tails = tables.get(key)
    if tails is None:
        # no walk reads a lower level before an insertion clears the entry
        if tables and sum(next(iter(tables))) != lw + len(lmg):
            tables.clear()
        lens = {len(pat) for pat in pats}
        # the windows (s, e, q) by end e, q the end in w of the prefix a match cuts
        wins = [(e - m, e, min(e - la, k)) for e in range(la + 1, lw + len(lmg))
                for m in lens if 0 < e - m < lw]
        # those with q past p, at p + 1: q never decreases with e, so a suffix
        qs = [q for _, _, q in wins]
        tails = tables[key] = [wins[bisect.bisect_right(qs, p):] for p in range(-1, k)]
    t, p, cut_from = bytearray(lmf + _word(r, k, n) + lmg), -1, r
    while r < r_end:
        tb = bytes(t)
        for s, e, q in tails[p + 1]:
            if tb[s:e] in pats:
                size = n ** (k - q)
                r += size - r % size
                p = q - 1
                break
        else:
            yield cut_from, r, tb[la:lw]
            r += 1
            cut_from, p = r, k - 1
        if r < r_end:
            i = la + p
            t[i + 1:lw] = bytes(lw - 1 - i)
            while t[i] == n - 1:
                t[i] = 0
                i -= 1
            t[i] += 1
            p = i - la
    yield cut_from, r_end, None


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
        self.nletters = len(ring.alphabet)
        self.d = d
        self.reduce = reduce
        self.tail_reduce = tail_reduce
        self.field_mode = dom.is_field
        # every pair's S-cofactors over a field, where elements are monic
        self.field_cofactors = (dom.one, dom.neg(dom.one))

        # index -> _reducer record of each active element, the only store of
        # elements: an index is its element's insertion count, and a retired
        # one is absent; every reduction reads its values, in this order
        self.active: dict[int, tuple] = {}
        # pending work (weight, seq, kind, i, j, data), popped in that
        # order, each entry with its own sequence number: the weight is the
        # length of the common word; data is the placement (t, pi, pj) of a
        # first-type pair, the word ranks (r, r_end) of a range of
        # second-type ones (see _walk), and the nonzero coefficients by word
        # of a polynomial to reduce and insert (kind "P", i = j = -1): a
        # retired element or the S-part of an aligned swap.  A level entry
        # (lvl, -1, n, a, b, None) materialises the second-type pairs of
        # ordered (a, b) at level lvl once due (see _register).  queued
        # counts pairs, a range one per word still in it.
        self.heap: list[tuple] = []
        self.seq = 0
        self.queued = 0
        self.level_done = 0
        self.processed: set[tuple] = set()
        self.meta: dict[tuple[int, int], _PairMeta] = {}
        # need -> the chain criterion's third elements (see _thirds)
        self.thirds: dict[object, tuple[list, set]] = {}
        self.unit = False

        self.stats = Stats()
        self.insertion_log: list[tuple[int, Polynomial]] = []
        self.discard_log: list[tuple] | None = [] if test_mode else None
        self.cofactor_log: list[tuple] | None = [] if test_mode else None

    # -- small helpers -----------------------------------------------------

    def _push(self, weight: int, kind: str, i: int, j: int, data, size: int = 1) -> None:
        heapq.heappush(self.heap, (weight, self.seq, kind, i, j, data))
        self.seq += 1
        self.queued += size
        if self.queued > self.stats.peak_queue_size:
            self.stats.peak_queue_size = self.queued

    def _meta(self, a: int, b: int) -> _PairMeta:
        m = self.meta.get((a, b))
        if m is None:
            m = _PairMeta(self.active[a][4], self.active[b][4])
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
        lmn = self.active[n][0]
        for k, (lmk, *_) in self.active.items():
            # first type, one orientation (the swapped S-poly is the
            # negation; the swapped G-poly differs by a multiple of the
            # S-poly)
            for pl in _first_type(lmk, lmn):
                w = len(pl[0])
                if w > self.d:
                    continue
                self.stats.pairs_created += 1
                self._push(w, S1, k, n, pl)
                if not self.field_mode:
                    self.stats.pairs_created += 1
                    if self._meta(k, n).g_needed:
                        self._push(w, G1, k, n, pl)
                    else:
                        self.stats.pairs_discarded_coeff += 1
            # second type, both orientations, integers only
            if not self.field_mode:
                base = len(lmk) + len(lmn)
                for a, b in sorted({(k, n), (n, k)}):
                    for lvl in range(base, self.d + 1):
                        if lvl <= self.level_done:
                            self._materialize(a, b, lvl)
                        else:  # due before every pair of its level
                            heapq.heappush(self.heap, (lvl, -1, self.seq, a, b, None))
                            self.seq += 1

    def _materialize(self, a: int, b: int, lvl: int) -> None:
        """Create the second-type pairs of ordered ``(a, b)`` whose
        common word ``LM(a)·w·LM(b)`` has length ``lvl``: the S-pairs
        the product criterion keeps, then the G-pairs the coefficient
        criterion keeps, each as word ranges in bytes order."""
        if a not in self.active or b not in self.active:
            return
        f, g = self.active[a][4], self.active[b][4]
        meta = self._meta(a, b)
        k, nletters = lvl - meta.base, self.nletters
        count = nletters**k
        self.stats.pairs_created += 2 * count

        if not meta.coprime_no_overlap:
            self._push(lvl, S2, a, b, (0, count), count)
        else:
            kept = meta.exceptions(k)
            self.stats.pairs_discarded_product += count - len(kept)
            if self.discard_log is not None:
                if not meta.constraints:
                    self.discard_log.append(("S2-family", f, g, k))
                else:
                    for letters in itertools.product(range(nletters), repeat=k):
                        w = bytes(letters)
                        if w not in kept:
                            self.discard_log.append(("S2", f, g, w))
            for w in kept:
                r = _rank(w, nletters)
                self._push(lvl, S2, a, b, (r, r + 1))

        if meta.g_needed:
            self._push(lvl, G2, a, b, (0, count), count)
        else:
            self.stats.pairs_discarded_coeff += count

    # -- chain criterion ----------------------------------------------------

    def _product_ok(self, a: int, b: int, w: Word) -> bool:
        """Does the product criterion discard the second-type S-pair of
        ordered ``(a, b)`` at connecting word ``w``?"""
        meta = self._meta(a, b)
        return meta.coprime_no_overlap and w not in meta.exceptions(len(w))

    def _premise_ok(self, a: int, pa: int, la: int, b: int, pb: int, lb: int, t: Word) -> bool:
        """Was the sub-pair spanned by the occurrences ``a@pa`` and
        ``b@pb`` inside ``t`` already handled?  Intersecting occurrences
        name a first-type S-pair, handled once its key is in
        ``processed``.  Disjoint ones name the second-type pair
        ``(first, second, gap)`` of level ``span``, handled once dequeued
        or when the product criterion covers it.

        Over a field they always intersect.  Every leading coefficient is
        a unit, so :meth:`_absorb` leaves no active leading word in a new
        one and :meth:`_insert` retires each whose word holds the new one:
        the active leading words are an antichain under the subword order.
        Only first-type pairs are queued, and their ``t`` is the span of two
        intersecting occurrences; a third occurrence that misses one lies
        strictly inside the other, a leading word inside a longer one.

        It was dequeued exactly when ``(span, gap) <= last``, the cursor
        of ``(first, second)``.  A family is pushed in ``(level, w)``
        order: levels up to ``level_done`` at registration, later ones
        as their level entries pop, in level order, and within a level as
        ranges of words in bytes order, each with the next sequence
        number.  The heap pops by level, then by sequence number, and
        :meth:`_walk` dequeues a range's words in order, pushing back
        what is left under the range's own number, ahead of the family's
        later ranges; so the words are dequeued in the family's ``(level,
        w)`` order.  The words never pushed are those the product
        criterion dropped, and for them the fallback holds either way."""
        if pa < pb + lb and pb < pa + la:
            lo = min(pa, pb)
            hi = max(pa + la, pb + lb)
            key = self._s_key(a, pa - lo, b, pb - lo, t[lo:hi])
            return key in self.processed
        if pa < pb:
            first, second, gap, span = a, b, t[pa + la:pb], pb + lb - pa
        else:
            first, second, gap, span = b, a, t[pb + lb:pa], pa + la - pb
        last = self._meta(first, second).last
        if last is not None and (span, gap) <= last:
            return True
        return self._product_ok(first, second, gap)

    def _thirds(self, need) -> tuple[list, set, dict]:
        """The chain criterion's third elements for a pair's ``need``
        (:meth:`_PairMeta.need`, None over a field): ``[(k, LM(c),
        |LM(c)|)]`` for each active ``c`` with a nonempty leading word and
        ``LC(c)`` dividing ``need``, in active order, and the set of those
        words, and :meth:`_walk`'s window tables of those words (see
        :func:`_avoiding`); kept per ``need`` until :meth:`_insert` changes
        the active set."""
        got = self.thirds.get(need)
        if got is None:
            rows = [
                (k, lm, lk)
                for k, (lm, lk, _, _, p, _) in self.active.items()
                if lk and (need is None or need % p.terms[0][1] == 0)
            ]
            got = self.thirds[need] = (rows, {lm for _, lm, _ in rows}, {})
        return got

    def _chain_discard(self, kind: str, i: int, j: int, t: Word, pi: int, pj: int) -> bool:
        """Gebauer-Moeller-style discard: the leading word of a third
        element (:meth:`_thirds`, for the pair's lcm on S-kinds and gcd on
        G-kinds) occurs in ``t`` at a position distinct from the two
        defining occurrences, and both premise sub-pairs were already
        handled, so the pair's S/G-polynomial telescopes into combinations
        that are known to have strong representations."""
        need = None if self.field_mode else self._meta(i, j).need(kind)
        li, lj = self.active[i][1], self.active[j][1]
        for k, lmf, lf in self._thirds(need)[0]:
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
        del self.active[k]

    def _absorb(self, coeffs: dict) -> bool:
        """Reduce the polynomial of nonzero coefficients ``coeffs`` (see
        :func:`_reduce`), insert the rest; False if it reduces to zero."""
        h = _reduce(self.ring, coeffs, self.active.values(), self.tail_reduce, None)
        if h.is_zero:
            return False
        self._insert(h)
        return True

    def _insert(self, h: Polynomial) -> None:
        ring = self.ring
        dom = ring.domain
        h = ring.normalize_leading(h)
        # the active set changes only here, and nothing below reads _thirds
        self.thirds.clear()

        while True:
            lm = h.leading_word()
            lc = h.leading_coeff()
            if not lm and lc == 1:
                # unit constant (h is normalised): the whole ring
                self.unit = True
                self.heap.clear()
                self.queued = 0
                return
            e = next((k for k, rec in self.active.items() if rec[0] == lm), None)
            if e is None:
                break
            # same leading word, only over a ring (over a field the reduction
            # has stepped it): the aligned first-type pair is a unimodular
            # swap (a_f*b_g + a_g*b_f == 1) that keeps one owner; its S-part
            # is queued and its G-part replaces h, each summed from its two
            # placed summands, as a queued pair's polynomial is
            fe = self.active[e][4]
            cf = fe.terms[0][1]
            (af, ag), (bf, bg, _) = s_cofactors(dom, cf, lc), g_cofactors(dom, cf, lc)
            if self.cofactor_log is not None:
                self.cofactor_log.append((af, ag, bf, bg))
            self._retire(e)
            f_at, h_at = (b"", b"", fe.terms), (b"", b"", h.terms)
            sp = _placed_sum(((af, *f_at), (-ag, *h_at)), dom.modulus)
            if sp:
                self._push(len(max(sp, key=ring.word_key)), "P", -1, -1, sp)
            # the G-part keeps its leading term: its LC divides LC(h), which
            # no remaining reducer steps
            gp = _placed_sum(((bf, *f_at), (bg, *h_at)), dom.modulus)
            h = _reduce(ring, gp, self.active.values(), self.tail_reduce, None)
            h = ring.normalize_leading(h)

        # simplification: retire elements whose leading term the new one
        # divides; they will be re-reduced and possibly re-inserted
        lm = h.leading_word()
        lc = h.leading_coeff()
        victims = [
            (k, lk, p)
            for k, (lmk, lk, _, _, p, _) in self.active.items()
            if lm in lmk and dom.divides(lc, p.terms[0][1])
        ]
        for k, lk, p in victims:
            self._retire(k)
            self._push(lk, "P", -1, -1, dict(p.terms))

        n = self.stats.basis_insertions
        self.active[n] = _reducer(dom, h)
        self.stats.basis_insertions += 1
        self.insertion_log.append((len(lm), h))
        self._register(n)

    # -- pair processing ----------------------------------------------------

    def _build_pair_poly(self, kind: str, i: int, j: int, f: Polynomial, g: Polynomial,
                         t: Word, pi: int, pj: int) -> dict:
        """The pair polynomial of elements ``i`` and ``j``, ``f`` and ``g``,
        placed on ``t``, as the dict that :func:`_placed_sum` merges from its
        two placed summands ``(x, lf, rf, f.terms)`` and ``(y, lg, rg,
        g.terms)``, with the cofactors ``(x, y)`` of their :class:`_PairMeta`
        (over a field, where every element is monic, ``(1, -1)``); an
        S-pair's are logged."""
        if self.field_mode:
            x, y = self.field_cofactors
        elif kind in (G1, G2):
            x, y = self._meta(i, j).cofactors[2:]
        else:
            cofactors = self._meta(i, j).cofactors
            if self.cofactor_log is not None:
                self.cofactor_log.append(cofactors)
            x, y = cofactors[0], -cofactors[1]
        parts = (x, *sides(f, t, pi), f.terms), (y, *sides(g, t, pj), g.terms)
        return _placed_sum(parts, self.ring.domain.modulus)

    def _process(self, kind: str, i: int, j: int, data) -> None:
        if kind == "P":
            self._absorb(data)
            return
        if i not in self.active or j not in self.active:
            return
        f, g = self.active[i][4], self.active[j][4]

        # the placement: LM(f) and LM(g) occur in the common word t at pi and pj
        t, pi, pj = data if kind in (S1, G1) else self._meta(i, j).place(data)
        # chain criterion at dequeue
        if self._chain_discard(kind, i, j, t, pi, pj):
            self.stats.pairs_discarded_chain += 1
            if self.discard_log is not None:
                self.discard_log.append(("chain-" + kind, f, g, data))
        else:
            if not self._absorb(self._build_pair_poly(kind, i, j, f, g, t, pi, pj)):
                self.stats.reductions_to_zero += 1
        # an S-pair, discarded or reduced, is handled: a premise of the
        # chain criterion from now on (G-pairs never are one)
        if kind == S1:
            self.processed.add(self._s_key(i, pi, j, pj, t))
        elif kind == S2:
            self._meta(i, j).last = (len(t), data)

    def _walk(self, lvl: int, seq: int, kind: str, a: int, b: int, r: int, r_end: int) -> None:
        """Dequeue the second-type pairs of ordered ``(a, b)`` at the
        words of ranks ``r .. r_end-1`` (length ``k``, bytes order), whose
        entry has sequence number ``seq``.

        *Lemma.*  Let ``t = LM(a)·w·LM(b)`` have length ``L``, and let a
        third element ``c`` for the pair's ``need`` (the lcm for S2, the gcd
        for G2; :meth:`_thirds`) have ``LM(c) == t[s:e]`` with ``0 < s``, ``e
        < L``, ``e > |LM(a)|`` and ``s < |LM(a)·w|``.  Then
        :meth:`_chain_discard` discards the pair.

        *Proof.*  The occurrence is neither defining one, at ``0`` and
        ``|LM(a)·w|``.  Each premise, ``a`` or ``b`` with ``c``, spans less
        than ``L``: from ``0`` to ``e``, or from ``s`` to ``L``.  It is a
        second-type S-pair when the two occurrences are disjoint: ``(a, c)``
        when ``s >= |LM(a)|``, ``(c, b)`` when ``e <= |LM(a)·w|``.  ``a``,
        ``b`` and ``c`` are active now, and an index is never reused, so
        each premise's family has had both elements active since its
        registration.  Its level, below ``L``, was materialised at
        registration (up to ``level_done``) or by a level entry of weight
        below ``L``; the heap pops by weight and holds nothing lighter than
        ``L`` while a pair of weight ``L`` is dequeued (an insertion ends the
        walk below).  So it was dequeued, and sits at or under its family's
        cursor ``last`` (:meth:`_premise_ok`), or was never queued because
        the product criterion dropped it; either way :meth:`_premise_ok`
        accepts it.  When the two occurrences intersect, ``(a, c)`` when ``s
        < |LM(a)|`` or ``(c, b)`` when ``e > |LM(a)·w|``, the premise is the
        first-type S-pair of an overlap of the two leading words, of weight
        below ``L``.  Its S1 entry was pushed when the later of the two was
        registered, and by the same argument dequeued through
        :meth:`_process` with both active, which put its key in
        ``processed``.

        The walk cuts the lemma's windows ``t[s:e]`` (:func:`_avoiding`).  A
        window with ``e <= |LM(a)·w|`` lies in ``LM(a)·w[:e - |LM(a)|]``, so
        it discards every word with that prefix; any other reads all of
        ``w`` and discards one word.  The windows depend only on the leading
        words of the active set, which the walk reads once (:meth:`_thirds`)
        and which changes only at an insertion, and on ``|LM(a)|``, ``k`` and
        ``|LM(b)|``.

        So when the first window, by end, that holds a third leading word
        exists, with ``q = min(e - |LM(a)|, k)``, every word with prefix
        ``w[:q]`` is discarded: :func:`_avoiding` skips that subtree of
        ``n**(k-q)`` words (from the cursor, up to ``r_end``) and steps to
        the next word by adding one with carry at ``q - 1``, or at ``k - 1``
        after a survivor.  A window whose ``q`` is at most the last position
        the carry changed needs no new check: it lies before that position,
        and it held nothing in the old word, ending before the old word's
        first match.  So only the windows with ``q`` past that position are
        looked up, in end order, and the first that matches is the new
        word's.

        Those lists, one per position, are the window table.  ``q`` never
        decreases as ``e`` grows, so the windows with ``q`` past a position
        are a suffix of the list of all windows in end order, and each list
        is a slice of that one.  The table is built once per ``(|LM(a)|, k,
        |LM(b)|)`` and kept in the :meth:`_thirds` entry of the pair's
        ``need``, whose words it reads; :meth:`_insert` clears it with that
        entry, when the words can change.  Between insertions the heap pops
        by level, so a table of a lower level is never read again: building
        the first table of a new level drops those of the last.

        Every survivor goes through :meth:`_process`, and the run
        of subtrees skipped before it through one :meth:`_cut`, called just
        before (the last run as the walk ends).  Between two survivors only
        the test mode's audit reads ``queued``, ``peak_queue_size`` (raised
        only by a push) or a cursor ``last``, and it reads premises on lower
        levels, already at or under their cursors; so all three are as after
        one cut per subtree.  An insertion can queue lighter pairs and retire
        elements, so after one the rest of the range is pushed back under
        the range's own number, which no other entry holds: it sorts
        against every other entry as its words' own entries would, and
        they are dequeued in the order and with the decisions of one queue
        entry per word.  A range of a retired element is dropped.
        """
        if a not in self.active or b not in self.active:
            self.queued -= r_end - r
            return
        meta = self._meta(a, b)
        k, n = lvl - meta.base, self.nletters
        inserted = self.stats.basis_insertions
        _, pats, tables = self._thirds(meta.need(kind))
        for cut_from, x, w in _avoiding(r, r_end, k, n, pats, meta.lmf, meta.lmg, tables):
            if cut_from < x:
                self._cut(lvl, kind, a, b, cut_from, x)
            if w is None:
                return
            self.queued -= 1
            self._process(kind, a, b, w)
            if self.unit:
                return
            if self.stats.basis_insertions != inserted:
                if x + 1 < r_end:
                    heapq.heappush(self.heap, (lvl, seq, kind, a, b, (x + 1, r_end)))
                return

    def _cut(self, lvl: int, kind: str, a: int, b: int, r: int, stop: int) -> None:
        """Count the words of ranks ``r .. stop-1``, a run of chain-cut
        subtrees, as chain discards, and move an S2 family's cursor to the
        last, as :meth:`_process` would one by one (see :meth:`_walk`).  In
        test mode each is logged and checked with :meth:`_chain_discard`,
        so that the audit tests the lemma."""
        meta = self._meta(a, b)
        k, n = lvl - meta.base, self.nletters
        self.queued -= stop - r
        self.stats.pairs_discarded_chain += stop - r
        if self.discard_log is not None:
            f, g = self.active[a][4], self.active[b][4]
            for x in range(r, stop):
                w = _word(x, k, n)
                if not self._chain_discard(kind, a, b, *meta.place(w)):
                    raise AssertionError(f"chain lemma fails at {(kind, a, b, w)}")
                self.discard_log.append(("chain-" + kind, f, g, w))
        if kind == S2:
            meta.last = (lvl, _word(stop - 1, k, n))

    # -- main loop ------------------------------------------------------------

    def run(self, gens: list[Polynomial]) -> GBResult:
        ring = self.ring
        check_bound(gens, self.d)
        for g in gens:  # a zero generator reduces to zero at once
            if self.unit:
                break
            self._absorb(dict(g.terms))

        while self.heap and not self.unit:
            lvl, seq, kind, i, j, data = heapq.heappop(self.heap)
            if seq < 0:
                self.level_done = lvl
                self._materialize(i, j, lvl)
            elif kind in (S2, G2):
                self._walk(lvl, seq, kind, i, j, *data)
            else:
                self.queued -= 1
                self._process(kind, i, j, data)

        if self.unit:
            basis = [ring.one]
        else:
            basis = [rec[4] for rec in self.active.values()]
            if self.reduce:
                basis = interreduce(basis, tail_reduce=self.tail_reduce)
        # leading words are unique here (_insert keeps one owner per word)
        basis.sort(key=lambda p: ring.word_key(p.leading_word()))
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

    ``reduce`` runs the final :func:`interreduce`, which drops nothing:
    each new element is lm-reduced by every active one and retires those
    whose leading term it divides, so it only adds the final tail pass.
    ``tail_reduce`` reduces non-leading terms during the run and in that
    pass.  ``test_mode`` records discarded pairs and cofactor quadruples
    for the audit suites.

    Raises ``ValueError("bound too small")`` as :func:`check_bound` does,
    after the engine has refused a composite modulus.
    """
    return _Engine(ring, d, reduce, tail_reduce, test_mode).run(gens)


def check_bound(gens: list[Polynomial], d: int) -> None:
    """The one bound rule of every completion: ``ValueError("bound too
    small")`` when ``d`` is below 1 or below a generator's longest word."""
    if d < 1 or any(g.max_word_length() > d for g in gens):
        raise ValueError("bound too small")


# ---------------------------------------------------------------------------
# postprocessing
# ---------------------------------------------------------------------------

def keep_minimal(ring: FreeAlgebra, items) -> list:
    """The payloads of the items ``(word, norm, payload)`` that no other
    item's leading term divides: the one rule for redundant elements.

    Sorted stably by ``(len(word), word_key(word), norm)``, an item is
    dropped when one kept before it has a word occurring in its word and
    a norm dividing its norm (``|c|`` over Z, 1 over a field,
    ``gcd(c, m)`` over Z/m, so that this is coefficient division).
    """
    key = ring.word_key
    kept: list[tuple[Word, int]] = []
    out = []
    for w, n, payload in sorted(items, key=lambda it: (len(it[0]), key(it[0]), it[1])):
        if not any(u in w and n % k == 0 for u, k in kept):
            kept.append((w, n))
            out.append(payload)
    return out


def interreduce(basis: list[Polynomial], tail_reduce: bool = True) -> list[Polynomial]:
    """Minimise and (optionally) tail-reduce a basis.

    :func:`keep_minimal` drops the elements whose leading term another
    element's divides, from raw leading terms: normalising by a unit,
    done to the survivors only, keeps each word and norm.

    The tail pass runs once: it leaves every tail in normal form.  Whether
    :func:`normal_form` steps a term ``(w, c)`` depends only on ``w``,
    ``c`` and the reducers' leading words and divisors, and the pass
    changes no leading term; so a tail reduced early in the pass stays
    irreducible after the later elements change, and a second pass would
    take no step.
    """
    if not basis:
        return []
    ring = basis[0].ring
    norm = ring.domain.norm
    items = ((p.leading_word(), norm(p.leading_coeff()), p) for p in basis if not p.is_zero)
    kept = [ring.normalize_leading(p) for p in keep_minimal(ring, items)]
    if tail_reduce:
        reducers = [_reducer(ring.domain, p) for p in kept]
        for idx, p in enumerate(kept):
            red = _reduce(ring, dict(p.terms[1:]), reducers, True, None)
            kept[idx] = ring.add(ring.from_terms(p.terms[:1]), red)
            reducers[idx] = _reducer(ring.domain, kept[idx])
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
    """All words of length <= d containing no leading word of ``G``: a module
    basis of the quotient when every leading coefficient is a unit (over Z,
    ``x`` is irreducible modulo ``{2x}`` but not listed).  ``ring`` is only
    needed when ``G`` is empty."""
    if ring is None:
        if not G:
            raise ValueError("ring required for an empty basis")
        ring = G[0].ring
    lms = sorted({g.leading_word() for g in G if not g.is_zero})
    if b"" in lms:
        return []
    n = len(ring.alphabet)
    layer = [b""]
    out: list[Word] = [b""]
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


def gb_equivalent(G1: list[Polynomial], G2: list[Polynomial], d: int) -> bool:
    """Do two strong bases present the same ideal up to length ``d``?

    Checks mutual reduction to zero plus equality of the canonical
    minimal leading terms ``(word, norm of coefficient)`` with words of
    length <= ``d``, which :func:`interreduce` keeps (coefficients matter:
    ``{2x}`` and ``{3x}`` have equal leading words but different ideals).
    Each side is prepared once as the reducers of the other.
    """
    for A, B in ((G1, G2), (G2, G1)):
        if A:
            reducers = [_reducer(A[0].ring.domain, g) for g in B if g.terms]
            if not all(_reduce(g.ring, dict(g.terms), reducers, False, None).is_zero for g in A):
                return False

    def minimal(G):
        return {
            (g.leading_word(), g.ring.domain.norm(g.leading_coeff()))
            for g in interreduce(G, tail_reduce=False)
            if len(g.leading_word()) <= d
        }

    return minimal(G1) == minimal(G2)


# ---------------------------------------------------------------------------
# the exhaustive post-run oracle
# ---------------------------------------------------------------------------

def verify_strong_basis(ring: FreeAlgebra, basis: list[Polynomial], d: int) -> list[tuple]:
    """Exhaustively check the Buchberger criterion on ``basis`` up to ``d``.

    Every first-type S- and G-polynomial whose overlap word fits the
    bound, and every second-type one for every connecting word within
    the bound, must reduce to zero.  Returns a list of failures
    (empty means the basis passed), each ``(kind, i, j, data)`` with
    ``data`` the placement ``(t, pos_i, pos_j)`` of a first-type pair or
    the connecting word of a second-type one; a zero element has only zero
    pairs and is skipped.  This routine deliberately shares no
    pair-selection or criterion logic with the completion engine: it
    enumerates everything and reduces.

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
      occurrence, and a re-scan on a nonzero remainder) and adding ``a``
      times the step's *spread* ``sum(-c_u * form(l*u*r))`` for a step of
      quotient ``a`` therefore gives each frontier word the coefficient
      that full reduction gives it, and each leaf word its final one.
      Spreads are computed once per call: ``a * sum(k) == sum(a * k)``
      exactly over Z, and over Z/m coefficients are reduced when a word is
      popped and when the sum is tested.  A word's steps stop at its first
      reducer with a unit leading coefficient, which steps any nonzero one.
    * No pair polynomial is built.  The S-cofactors ``(a_f, -a_g)`` and
      G-cofactors ``(b_f, b_g)`` are computed once per basis pair, and each
      placement sends ``x*lf*f*rf`` and ``y*lg*g*rg`` to
      :meth:`_WordForms.sum_reduces_to_zero` unmerged.  The sum of forms is
      linear, so terms of both on one word ``w`` give ``(c1+c2)*form(w)``.
      An S-pair sends only the tails: its leading terms cancel exactly, as
      ``a_f*LC(f) == a_g*LC(g)`` (on the integer lifts over Z/m).  Over
      Z/m a product ``x*c_u`` that is 0 mod m adds only multiples of m,
      which vanish as frontier words are reduced when popped and leaves
      when the sum is tested.
    * Over Q the terms of each basis element are multiplied once by the
      lcm ``D`` of their denominators, and the S-cofactors of a pair by the
      other element's lcm, so a placement sends ``D_f*D_g`` times the pair
      polynomial.  Reduction over a field is linear, so that nonzero
      multiple reduces to zero exactly when the pair polynomial does.
      Integral coefficients of these terms, of the cofactors and of the
      reducers' tails are held as ``int`` (see :class:`_WordForms`), so
      ``Fraction`` products are made per basis pair (the cofactors and
      their scalings) and per memo term, not per placement: 466 on the
      skew ideal over Q at d=9.  Over Z and Z/m every lcm is 1.
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
    memoised forms.  With a non-unit reducer forms expand into frontier
    words as well as leaves and hold many small terms, so after a basis
    pair the memo is cleared once it holds more than ``_MEMO_BUDGET``
    terms.  Entries are not counted: counted, they clear the field memo
    of the skew ideal over Q at d=9 (16,084 entries, 298 terms), which
    takes perfbench ``verify-qq`` from 0.085 to 0.11 s (2-vCPU Xeon, two
    6 s runs each).  The budget is from a sweep of
    perfbench ``verify-zz`` (skew over Z at d=9, 2-vCPU Xeon, two 6 s runs
    each; budget: wall s, peak RSS MB): 0: 0.71, 26.9; 4,000: 0.60, 27.0;
    8,000: 0.55, 26.9; 14,000: 0.52, 26.9; 17,000: 0.50, 27.0; 25,000:
    0.49, 27.7; unbounded: 0.38, 31.5.
    """
    failures: list[tuple] = []
    live = [i for i, g in enumerate(basis) if g.terms]
    dom = ring.domain

    # Zero-testing does not depend on the reduction strategy (any maximal
    # reduction of an element of the ideal terminates at zero once the
    # basis is strong, and a nonzero remainder under any strategy is a
    # genuine witness), so the reducers are prepared once, cheapest first.
    order = sorted(
        (g for g in basis if g.terms),
        key=lambda g: (len(g.leading_word()), abs(g.leading_coeff())),
    )
    forms = _WordForms(ring, [_reducer(dom, g) for g in order])
    sum_reduces_to_zero = forms.sum_reduces_to_zero
    # per element: the lcm of its denominators and its terms times it
    cleared = {}
    for i in live:
        den = math.lcm(*(c.denominator for _, c in basis[i].terms))
        cleared[i] = den, [(w, _lean(c * den)) for w, c in basis[i].terms]

    def summands(i: int, j: int) -> list:
        """``[(kind, (x, f's cleared terms), (y, g's cleared terms))]``: S on
        the tails, then G."""
        cf, cg = basis[i].leading_coeff(), basis[j].leading_coeff()
        af, ag = s_cofactors(dom, cf, cg)
        (df, tf), (dg, tg) = cleared[i], cleared[j]
        out = [("S", (_lean(af * dg), tf[1:]), (_lean(dom.neg(ag) * df), tg[1:]))]
        if not dom.is_field:
            bf, bg, _ = g_cofactors(dom, cf, cg)
            out.append(("G", (bf, tf), (bg, tg)))
        return out

    def check(pair: list, typ: str, i: int, j: int, t: Word, pf: int, pg: int, data) -> None:
        lf, rf = sides(basis[i], t, pf)
        lg, rg = sides(basis[j], t, pg)
        for kind, (x, fterms), (y, gterms) in pair:
            if not sum_reduces_to_zero(((x, lf, rf, fterms), (y, lg, rg, gterms))):
                failures.append((kind + typ, i, j, data))

    for a, i in enumerate(live):
        for j in live[a:]:
            f, g = basis[i], basis[j]
            lmf, lmg = f.leading_word(), g.leading_word()
            if lmf or lmg:
                rels = _first_type(lmf, lmg)
                if i != j and lmf == lmg:
                    # distinct elements sharing a leading word: the
                    # aligned placement matters (gcd combination)
                    rels = [(lmf, 0, 0)] + rels
            else:
                rels = []
            pair = summands(i, j)
            for pl in rels:
                if len(pl[0]) <= d:
                    check(pair, "1", i, j, *pl, pl)
            forms.next_pair()

    for i in live:
        for j in live:
            lmf, lmg = basis[i].leading_word(), basis[j].leading_word()
            pair = summands(i, j)
            for k in range(d - len(lmf) - len(lmg) + 1):
                for letters in itertools.product(range(len(ring.alphabet)), repeat=k):
                    w = bytes(letters)
                    check(pair, "2", i, j, lmf + w + lmg, 0, len(lmf) + k, w)
            forms.next_pair()
    return failures
