"""Shared ring-building helpers for the test suite."""

import itertools

from ncgb import Alphabet, FreeAlgebra, Ordering, normal_form
from ncgb.cli import parse_poly_list
from ncgb.coeffring import residue_domain, squarefree_factors
from ncgb.engine import G2, S2, _Engine, _reduce, _reducer, _word


def make_ring(domain, names, kind, ranked, weights=None):
    """Build a FreeAlgebra from variable names and a ranked precedence list.

    ``weights`` (if given) are listed in ranked order, mirroring the CLI.
    """
    names = tuple(names)
    if weights:
        per = dict(zip(ranked, weights))
        alphabet = Alphabet(names, tuple(per[n] for n in names))
    else:
        alphabet = Alphabet(names)
    ranking = tuple(names.index(n) for n in ranked)
    return FreeAlgebra(domain, alphabet, Ordering(kind, ranking))


def polys(ring, text):
    return parse_poly_list(text, ring)


def poly(ring, text):
    (p,) = parse_poly_list(text, ring)
    return p


def discarded_pair_polys(result, nletters):
    """Materialize every S-/G-polynomial the engine discarded.

    First-type entries carry the placement ``(t, pos_f, pos_g)``,
    second-type ones the connecting word; family entries expand to all
    connecting words of their level.  The yield order follows the log.
    """
    import itertools

    from ncgb.overlap import spoly1, spoly2

    for kind, f, g, data in result.discard_log:
        if kind == "S2-family":
            for letters in itertools.product(range(nletters), repeat=data):
                yield spoly2(f, g, bytes(letters))[0]
        elif kind in ("S2", "chain-S2"):
            yield spoly2(f, g, data)[0]
        elif kind == "chain-G2":
            yield spoly2(f, g, data)[1]
        elif kind == "chain-S1":
            yield spoly1(f, g, *data)[0]
        elif kind == "chain-G1":
            yield spoly1(f, g, *data)[1]
        else:  # pragma: no cover - future kinds must be audited too
            raise AssertionError(f"unknown discard kind {kind}")


def verify_by_lm_reduction(ring, basis, d):
    """The exhaustive Buchberger check with every pair polynomial
    lm-reduced from scratch by :func:`ncgb.normal_form`: the same pairs,
    reducer order and failure records as :func:`ncgb.verify_strong_basis`,
    without its memoised word forms and frontier steps.  Kept as an
    oracle for them over every domain."""
    from ncgb.engine import _first_type
    from ncgb.overlap import spoly1, spoly2

    failures = []
    n = len(basis)
    nletters = len(ring.alphabet)
    order = sorted(
        (g for g in basis if g.terms),
        key=lambda g: (len(g.leading_word()), abs(g.leading_coeff())),
    )
    reducers = [_reducer(ring.domain, g) for g in order]

    def nonzero(p):
        return not _reduce(ring, dict(p.terms), reducers, False, None).is_zero

    for i in range(n):
        for j in range(i, n):
            f, g = basis[i], basis[j]
            lmf, lmg = f.leading_word(), g.leading_word()
            if lmf or lmg:
                rels = _first_type(lmf, lmg)
                if i != j and lmf == lmg:
                    rels = [(lmf, 0, 0)] + rels
            else:
                rels = []
            for pl in rels:
                if len(pl[0]) > d:
                    continue
                sp, gp = spoly1(f, g, *pl)
                if nonzero(sp):
                    failures.append(("S1", i, j, pl))
                if gp is not None and nonzero(gp):
                    failures.append(("G1", i, j, pl))

    for i in range(n):
        for j in range(n):
            f, g = basis[i], basis[j]
            base = len(f.leading_word()) + len(g.leading_word())
            monomials = len(f.terms) == 1 and len(g.terms) == 1
            for k in range(d - base + 1):
                for letters in itertools.product(range(nletters), repeat=k):
                    w = bytes(letters)
                    sp, gp = spoly2(f, g, w)
                    if not monomials and nonzero(sp):
                        failures.append(("S2", i, j, w))
                    if gp is not None and nonzero(gp):
                        failures.append(("G2", i, j, w))
    return failures


# -- modular helpers --------------------------------------------------------


def prime_ring(ring_m, p):
    """The prime-field ring over the same alphabet and ordering."""
    return FreeAlgebra(residue_domain(p), ring_m.alphabet, ring_m.ordering)


def projection_coherent(ring_m, gens, basis, d):
    """Mod every prime factor of the modulus, the reduction of ``basis``
    and the directly computed prime-field basis must generate the same
    leading terms: each reduces the other to zero."""
    from ncgb.modlift import _transfer, gb_mod_prime

    for p in squarefree_factors(ring_m.domain.modulus):
        ring_p = prime_ring(ring_m, p)
        direct = gb_mod_prime(ring_m, gens, d, p).basis
        lifted = [g for g in (_transfer(ring_p, b) for b in basis) if not g.is_zero]
        for g in lifted:
            if not normal_form(g, direct, tail_reduce=True).is_zero:
                return False
        for g in direct:
            if not normal_form(g, lifted, tail_reduce=True).is_zero:
                return False
    return True


def _row_reduce(vec, echelon, p):
    """Reduce a word->coefficient vector against monic echelon rows, largest
    word first; introduced words are always smaller, so one sweep suffices."""
    out = {}
    work = {w: c % p for w, c in vec.items() if c % p}
    while work:
        w = max(work)
        c = work.pop(w)
        row = echelon.get(w)
        if row is None:
            out[w] = c
            continue
        for u, cu in row.items():
            if u != w:
                nc = (work.get(u, 0) - c * cu) % p
                if nc:
                    work[u] = nc
                else:
                    work.pop(u, None)
    return out


def bounded_membership_oracle(ring_p, gens, pad=2):
    """Exact membership test for the linear span of ``l*g*r`` with
    ``len(l), len(r) <= pad`` over a prime field, by row reduction.

    A True answer certifies ideal membership outright; the converse
    holds whenever the instance is small enough for the window."""
    p = ring_p.domain.modulus
    letters = range(len(ring_p.alphabet))
    words = [b""] + [
        bytes(t)
        for k in range(1, pad + 1)
        for t in itertools.product(letters, repeat=k)
    ]
    echelon = {}
    for g in gens:
        if g.is_zero:
            continue
        for l, r in itertools.product(words, words):
            q = ring_p.scaled_translate(ring_p.domain.coerce(1), l, r, g)
            vec = _row_reduce({w: int(c) for w, c in q.terms}, echelon, p)
            if vec:
                w = max(vec)
                inv = pow(vec[w], -1, p)
                echelon[w] = {u: (cu * inv) % p for u, cu in vec.items()}

    def member(f):
        return not _row_reduce({w: int(c) for w, c in f.terms}, echelon, p)

    return member


def crt_membership_oracle(ring_m, gens, pad=2):
    """Member mod a squarefree modulus iff member mod every prime factor."""
    from ncgb.modlift import _transfer

    oracles = []
    for p in squarefree_factors(ring_m.domain.modulus):
        ring_p = prime_ring(ring_m, p)
        gens_p = [_transfer(ring_p, g) for g in gens]
        oracles.append((ring_p, bounded_membership_oracle(ring_p, gens_p, pad)))

    def member(f):
        return all(oracle(_transfer(ring_p, f)) for ring_p, oracle in oracles)

    return member


def common_multiples(u, v, d, nletters):
    """All ways the words ``u`` and ``v`` can occur inside one word of
    length <= d: intersecting placements (aligned ones included) plus
    disjoint placements with every connecting word, both orders.
    Yields ``(T, pos_u, pos_v)``."""
    from ncgb.overlap import placements

    if not u or not v:
        yield (v or u, 0, 0)
        return
    for t, pu, pv in placements(u, v):
        if len(t) <= d:
            yield (t, pu, pv)
    for k in range(d - len(u) - len(v) + 1):
        for letters in itertools.product(range(nletters), repeat=k):
            mid = bytes(letters)
            yield (u + mid + v, 0, len(u) + k)
            yield (v + mid + u, len(v) + k, 0)


def combine_building_every_candidate(plan, g_left, g_right, ring_m, d, tail_reduce):
    """The CRT combine step that builds every candidate, drops repeats by
    their full terms and leaves the choice to :func:`ncgb.interreduce`.
    Kept as an oracle for :func:`ncgb.modlift._combine`, which decides
    from leading terms alone, lists no dominated connecting word and
    builds only what it keeps."""
    from ncgb.engine import interreduce
    from ncgb.modlift import _transfer

    m = plan.modulus
    a, b = plan.left.modulus, plan.right.modulus
    s, t = plan.bezout_s, plan.bezout_t
    tb = (t * b) % m
    sa = (s * a) % m
    nletters = len(ring_m.alphabet)

    out = []
    seen = set()

    def push(f):
        if not f.is_zero and f.terms not in seen:
            seen.add(f.terms)
            out.append(f)

    lifted_a = [_transfer(ring_m, g) for g in g_left]
    lifted_b = [_transfer(ring_m, h) for h in g_right]
    for g in lifted_a:
        push(ring_m.scale(tb, g))
    for h in lifted_b:
        push(ring_m.scale(sa, h))
    for g, h in itertools.product(lifted_a, lifted_b):
        cg, ch = int(g.leading_coeff()), int(h.leading_coeff())
        u, v = g.leading_word(), h.leading_word()
        for T, pu, pv in common_multiples(u, v, d, nletters):
            fg = ring_m.scaled_translate((tb * ch) % m, T[:pu], T[pu + len(u):], g)
            fh = ring_m.scaled_translate((sa * cg) % m, T[:pv], T[pv + len(v):], h)
            push(ring_m.add(fg, fh))
    return interreduce(out, tail_reduce=tail_reduce)


def interreduce_preparing_every_call(basis, tail_reduce=True):
    """:func:`ncgb.interreduce` with a tail pass that hands the working
    list to :func:`ncgb.normal_form`, which prepares every element again
    on each call.  Kept as an oracle for the tail pass that prepares the
    list once and replaces one record per reduced element."""
    from ncgb.engine import keep_minimal

    if not basis:
        return []
    ring = basis[0].ring
    norm = ring.domain.norm
    items = ((p.leading_word(), norm(p.leading_coeff()), p) for p in basis if not p.is_zero)
    kept = [ring.normalize_leading(p) for p in keep_minimal(ring, items)]
    if tail_reduce:
        for idx, p in enumerate(kept):
            red = normal_form(ring.from_terms(p.terms[1:]), kept, tail_reduce=True)
            kept[idx] = ring.add(ring.from_terms(p.terms[:1]), red)
    return kept


def random_polys(ring, rng, *, ngens, maxterms, maxlen, maxcoeff):
    """Small random generators; zero draws are simply dropped."""
    n = len(ring.alphabet)
    out = []
    for _ in range(ngens):
        terms = []
        for _ in range(rng.randint(1, maxterms)):
            w = bytes(rng.randrange(n) for _ in range(rng.randint(0, maxlen)))
            c = rng.randint(-maxcoeff, maxcoeff)
            if c:
                terms.append((w, ring.domain.coerce(c)))
        p = ring.poly(terms)
        if not p.is_zero:
            out.append(p)
    return out



def product_criterion_holds(meta, w):
    """Does the product criterion discard the second-type S-pair of
    ``meta``'s ordered ``(f, g)`` at connecting word ``w``?  Its
    word-by-word definition: the leading coefficients are coprime, the
    leading words do not overlap, and no pair ``(u, v)`` of tail words of
    ``f`` and ``g`` has ``u·w·LM(g) == LM(f)·w·v``.  Kept as an oracle for
    the closed form :meth:`ncgb.engine._PairMeta.exceptions`."""
    return meta.coprime_no_overlap and all(
        u + w + meta.lmg != meta.lmf + w + v for u, v in meta.constraints
    )


def occurrences(t, pats):
    """Every ``(s, e)`` with ``t[s:e]`` a pattern of ``pats``, found with
    ``bytes.find``."""
    out = []
    for p in pats:
        s = t.find(p)
        while s >= 0:
            out.append((s, s + len(p)))
            s = t.find(p, s + 1)
    return out


def is_window(s, e, lmf, w, lmg):
    """Is ``t[s:e]`` of ``t = lmf·w·lmg`` a window of the walk: ``0 < s``,
    ``e < |t|``, ``e > |lmf|`` and ``s < |lmf·w|``?"""
    la, lw = len(lmf), len(lmf) + len(w)
    return 0 < s and e < lw + len(lmg) and e > la and s < lw


def first_cut_end(w, pats, lmf, lmg):
    """The end ``min(e - |lmf|, |w|)`` in ``w`` of the prefix that the
    first window ``t[s:e]`` of ``t = lmf·w·lmg`` by end (:func:`is_window`)
    holding a pattern of ``pats`` cuts, or None.  Kept as an oracle for
    the incremental check of :func:`ncgb.engine._avoiding`."""
    ends = [e for s, e in occurrences(lmf + w + lmg, pats) if is_window(s, e, lmf, w, lmg)]
    return min(min(ends) - len(lmf), len(w)) if ends else None


class EagerEngine(_Engine):
    """The engine with one queue entry per second-type pair: the product
    criterion tested word by word with :func:`product_criterion_holds`,
    and every queued word dequeued through ``_process`` and its chain
    criterion.  Kept as an oracle for the word ranges of
    :meth:`ncgb.engine._Engine._walk`, their bulk chain cuts and the
    closed-form product criterion (:meth:`_PairMeta.exceptions`)."""

    def _materialize(self, a, b, lvl):
        if a not in self.active or b not in self.active:
            return
        f, g = self.active[a][4], self.active[b][4]
        meta = self._meta(a, b)
        k, nletters = lvl - meta.base, self.nletters
        count = nletters**k

        if meta.coprime_no_overlap and not meta.constraints:
            self.stats.pairs_created += count
            self.stats.pairs_discarded_product += count
            if self.discard_log is not None:
                self.discard_log.append(("S2-family", f, g, k))
        else:
            for r, letters in enumerate(itertools.product(range(nletters), repeat=k)):
                w = bytes(letters)
                self.stats.pairs_created += 1
                if product_criterion_holds(meta, w):
                    self.stats.pairs_discarded_product += 1
                    if self.discard_log is not None:
                        self.discard_log.append(("S2", f, g, w))
                    continue
                self._push(lvl, S2, a, b, (r, r + 1))

        if meta.g_needed:
            for r in range(count):
                self.stats.pairs_created += 1
                self._push(lvl, G2, a, b, (r, r + 1))
        else:
            self.stats.pairs_created += count
            self.stats.pairs_discarded_coeff += count

    def _walk(self, lvl, seq, kind, a, b, r, r_end):
        assert r_end == r + 1
        self.queued -= 1
        if a not in self.active or b not in self.active:
            return
        self._process(kind, a, b, _word(r, lvl - self._meta(a, b).base, self.nletters))


class CallRecordingEngine(_Engine):
    """The engine, recording every ``_process(kind, i, j, data)`` and
    ``_cut(lvl, kind, a, b, r, stop)`` call in ``calls``, the coefficient
    dict of a ``"P"`` entry as its terms in descending word order (the
    ``terms`` of the polynomial it holds)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = []

    def _process(self, kind, i, j, data):
        if kind == "P":
            key = self.ring.word_key
            terms = tuple(sorted(data.items(), key=lambda t: key(t[0]), reverse=True))
            self.calls.append(("process", kind, i, j, terms))
        else:
            self.calls.append(("process", kind, i, j, data))
        super()._process(kind, i, j, data)

    def _cut(self, lvl, kind, a, b, r, stop):
        self.calls.append(("cut", lvl, kind, a, b, r, stop))
        super()._cut(lvl, kind, a, b, r, stop)


class SetKeyedEngine(_Engine):
    """The engine, also keeping the set of dequeued second-type S-pair
    keys ``(i, j, w)`` that it held before its family cursor (a word that
    a range's bulk chain cut counts is dequeued), and
    asserting at every disjoint premise of the chain criterion that the
    cursor's verdict is the set's: dequeued or covered by the product
    criterion.  ``checks`` counts the premises compared.  Kept as an
    oracle for :meth:`ncgb.engine._Engine._premise_ok`."""

    def __init__(self, *args):
        super().__init__(*args)
        self.s2_keys = set()
        self.checks = 0

    def _process(self, kind, i, j, data):
        live = kind == S2 and i in self.active and j in self.active
        super()._process(kind, i, j, data)
        if live:
            self.s2_keys.add((i, j, data))

    def _cut(self, lvl, kind, a, b, r, stop):
        super()._cut(lvl, kind, a, b, r, stop)
        if kind == S2:
            k, n = lvl - self._meta(a, b).base, self.nletters
            self.s2_keys.update((a, b, _word(x, k, n)) for x in range(r, stop))

    def _premise_ok(self, a, pa, la, b, pb, lb, t):
        ok = super()._premise_ok(a, pa, la, b, pb, lb, t)
        if not (pa < pb + lb and pb < pa + la):
            if pa < pb:
                key = (a, b, t[pa + la:pb])
            else:
                key = (b, a, t[pb + lb:pa])
            covered = product_criterion_holds(self._meta(key[0], key[1]), key[2])
            assert ok == (key in self.s2_keys or covered), key
            self.checks += 1
        return ok


class InvariantEngine(_Engine):
    """The engine, asserting the two invariants that rule out branches it
    does not have: over a field every premise of the chain criterion spans
    intersecting occurrences (:meth:`ncgb.engine._Engine._premise_ok`),
    and the G-polynomial of every aligned swap in ``_insert`` keeps its
    leading term when reduced by the reducers left after the swap.
    ``premises`` and ``swaps`` count the checks."""

    def __init__(self, *args):
        super().__init__(*args)
        self.premises = self.swaps = 0

    def _premise_ok(self, a, pa, la, b, pb, lb, t):
        if self.field_mode:
            assert pa < pb + lb and pb < pa + la, (a, pa, b, pb, t)
            self.premises += 1
        return super()._premise_ok(a, pa, la, b, pb, lb, t)

    def _insert(self, h):
        from ncgb.overlap import spoly1

        h = self.ring.normalize_leading(h)
        lm, lc = h.terms[0]
        e = next((k for k, rec in self.active.items() if rec[0] == lm), None)
        if e is not None and (lm or lc != 1):
            gp = spoly1(self.active[e][4], h, lm, 0, 0)[1]
            rest = [rec[4] for k, rec in self.active.items() if k != e]
            assert normal_form(gp, rest).terms[:1] == gp.terms[:1], self.ring.render(gp)
            self.swaps += 1
        super()._insert(h)


class _CheckedActive(dict):
    """The active set of a :class:`FreshReducersEngine`: reading its
    ``values()``, as every reduction of the engine does once, first compares
    the engine's records with records built fresh from its live elements."""

    def __init__(self, engine):
        super().__init__()
        self.engine = engine

    def values(self):
        eng = self.engine
        fresh = [_reducer(eng.ring.domain, p) for p in eng.live if p is not None]
        assert list(super().values()) == fresh
        eng.checks += 1
        return super().values()


class FreshReducersEngine(_Engine):
    """The engine, asserting before every reduction that the records of
    its active set are the :func:`ncgb.engine._reducer` records of its live
    elements, built fresh, in the same order.  ``live`` is its own
    list of the elements by index, appended at registration and set to
    None at retirement, so that the expected reducers do not come from the
    active set.  ``checks`` counts the reductions compared.  Kept as an
    oracle for the records that ``_insert`` builds once and ``_retire``
    drops."""

    def __init__(self, *args):
        super().__init__(*args)
        self.checks = 0
        self.live = []
        self.active = _CheckedActive(self)

    def _register(self, n):
        assert n == len(self.live)
        self.live.append(self.active[n][4])
        super()._register(n)

    def _retire(self, k):
        self.live[k] = None
        super()._retire(k)


class FreshThirdsEngine(_Engine):
    """The engine, asserting at every lookup of the chain criterion's
    third elements that the cached list is a fresh filter of the active
    set, in its order: ``(index, LM, |LM|)`` of each element with a
    nonempty leading word whose leading coefficient divides ``need`` (any,
    over a field), that the cached set holds their leading words, and that
    the cached lengths (see :func:`ncgb.engine._avoiding`) are their
    distinct lengths, ascending.  ``checks`` counts the lookups compared.
    Kept as an oracle for the cache of :meth:`ncgb.engine._Engine._thirds`,
    which ``_insert`` drops."""

    def __init__(self, *args):
        super().__init__(*args)
        self.checks = 0

    def _thirds(self, need):
        rows, words, lens = super()._thirds(need)
        dom = self.ring.domain
        fresh = []
        for k, rec in self.active.items():
            p = rec[4]
            lm = p.leading_word()
            if lm and (need is None or dom.divides(p.leading_coeff(), need)):
                fresh.append((k, lm, len(lm)))
        assert rows == fresh and words == {lm for _, lm, _ in fresh}, need
        assert lens == tuple(sorted({len(lm) for _, lm, _ in fresh})), need
        self.checks += 1
        return rows, words, lens
